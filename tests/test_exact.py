"""Tests for the closed-form solution catalog and the residual oracle."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnl_lab import exact
from dnl_lab.core import STENCIL_WIDTHS, ExponentTriple, Grid1D
from dnl_lab.exact import (
    ClosedFormSolution,
    DomainError,
    TrudingerGaussian,
    SeparableBlowup,
    CriticalHarnackWave,
    BoundednessBorderline,
    SupercriticalExtinction,
    DipoleSelfSimilar,
    IvanovSubsolution,
    SpecialLogProfile,
    critical_wave_b,
    pde_residual,
    pde_residual_rt,
    max_residual,
    residual_order,
    make_family,
    FAMILIES,
    derive_critical_b,
    derive_critical_b_report,
)
from dnl_lab.diagnostics import SolutionSource, _spaced
from dnl_lab.solver import CauchyDirichletProblem, SolverConfig, solve


class TestForcedExponents:
    def test_trudinger(self):
        sol = TrudingerGaussian(p=3.0, n_dim=2)
        assert sol.exponents.q == pytest.approx(2.0)

    def test_critical_wave(self):
        sol = CriticalHarnackWave(n_dim=3, p=2.0)
        assert sol.exponents.q == pytest.approx(3.0)  # N(p-1)/(N-p)

    def test_borderline(self):
        sol = BoundednessBorderline(n_dim=3, p=2.0)
        assert sol.exponents.q == pytest.approx(5.0)  # (N(p-1)+p)/(N-p)

    def test_supercritical_requires_negative_lambda(self):
        sol = SupercriticalExtinction(n_dim=40, p=2.0, q=3.0)
        assert sol.exponents.lam_q < 0
        with pytest.raises(ValueError):
            SupercriticalExtinction(n_dim=3, p=2.0, q=2.0)  # lam_q = 1 > 0

    def test_dipole_window(self):
        sol = DipoleSelfSimilar(n_dim=3, p=1.1)
        assert sol.exponents.q == 1.0
        with pytest.raises(ValueError):
            DipoleSelfSimilar(n_dim=3, p=1.3)  # 2N/(N+2) = 1.2

    def test_special_log(self):
        sol = SpecialLogProfile(n_dim=3)
        assert sol.exponents.p == pytest.approx(1.5)  # 2N/(N+1)
        assert sol.exponents.q == 1.0
        assert sol.role == "not_weak_solution"

    def test_ivanov_threshold_default(self):
        sol = IvanovSubsolution()
        # default q is Np/(N-p) - 1 at N=3, p=1.2
        assert sol.exponents.q == pytest.approx(3 * 1.2 / 1.8 - 1)
        assert sol.role == "weak_subsolution"


class TestPointValues:
    def test_trudinger_unit_point(self):
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        assert sol.eval([0.0], 1.0) == pytest.approx(1.0)

    def test_gradient_direction(self):
        sol = TrudingerGaussian(p=2.0, n_dim=2)
        g = sol.grad([1.0, 0.0], 1.0)
        assert g[0] < 0 and g[1] == 0.0

    def test_domain_errors(self):
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        with pytest.raises(DomainError):
            sol.eval([0.0], -1.0)
        blow = SeparableBlowup(n_dim=3, p=2.0, q=4.0)
        with pytest.raises(DomainError):
            blow.eval([0.0, 0.0, 0.0], 0.5)  # x = 0 excluded

    def test_separable_blowup_monotone_unbounded(self):
        sol = SeparableBlowup(n_dim=3, p=2.0, q=4.0)
        rs = np.array([0.05, 0.1, 0.5, 1.0])
        us = sol.u_rt(rs, 0.5)
        assert np.all(np.diff(us) < 0)
        # u ~ r^(-p/(q+1-p)) near the origin: unbounded
        assert sol.u_rt(1e-8, 0.5) > 1e4

    def test_supercritical_extension_by_zero(self):
        sol = SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, T=1.0)
        assert sol.eval([1.0] + [0.0] * 39, 1.5) == 0.0
        assert sol.eval([1.0] + [0.0] * 39, 1.0) == 0.0
        # continuity across t = T
        eps = 1e-8
        assert sol.eval([1.0] + [0.0] * 39, 1.0 - eps) < 1e-3


class TestResidualOracle:
    def test_residual_small_on_exact_solution(self):
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        assert abs(pde_residual(sol, [0.7], 1.0, 5e-3)) < 5e-5

    def test_stencil_domain_guard(self):
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        with pytest.raises(DomainError):
            pde_residual(sol, [0.5], 5e-3, 1e-2)  # t - h <= 0

    def test_singularity_collar(self):
        sol = SeparableBlowup(n_dim=3, p=2.0, q=4.0)
        with pytest.raises(DomainError):
            pde_residual(sol, [0.05, 0.0, 0.0], 0.5, 5e-3)

    def test_order_two(self):
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        radii = np.linspace(0.3, 1.5, 8)
        times = np.linspace(0.5, 1.5, 4)
        res, order = residual_order(sol, radii, times, (1e-2, 5e-3))
        assert order == pytest.approx(2.0, abs=0.2)

    def test_wrong_solution_large_residual(self):
        # perturbing the critical-wave constant must leave an O(1) residual
        good = CriticalHarnackWave(n_dim=3, p=2.0)
        bad = CriticalHarnackWave(n_dim=3, p=2.0, b=2 * good.b)
        radii = np.linspace(0.5, 2.0, 8)
        times = np.linspace(-0.5, 0.5, 4)
        r_good = max_residual(good, radii, times, 2.5e-3)
        r_bad = max_residual(bad, radii, times, 2.5e-3)
        assert r_bad > 10 * r_good


@pytest.fixture(scope="module")
def dipole():
    return DipoleSelfSimilar(n_dim=3, p=1.1)


class TestDipole:
    @pytest.fixture
    def sol(self, dipole):
        return dipole

    def test_asymptotics(self, sol):
        N, p = 3, 1.1
        lam1 = N * (p - 2) + p
        K0 = ((p / (2 - p)) ** (p - 1) * abs(lam1)) ** (1 / (2 - p))
        got = sol.f(1e-3) * 1e-3 ** (p / (2 - p))
        assert got == pytest.approx(K0, rel=0.05)
        tail = sol.C * (p - 1) / (N - p) * 1e3 ** (-(N - p) / (p - 1))
        assert sol.f(1e3) == pytest.approx(tail, rel=0.05)

    def test_profile_positive_decreasing(self, sol):
        rs = np.logspace(-2, 2, 50)
        fs = np.array([sol.f(r) for r in rs])
        assert np.all(fs > 0)
        assert np.all(np.diff(fs) < 0)

    def test_residual(self, sol):
        radii = np.linspace(1.5, 4.0, 8)
        times = np.linspace(0.0, 0.6, 4)
        assert max_residual(sol, radii, times, 2.5e-3) < 1e-4


class TestIvanov:
    def test_subsolution_sign(self):
        sol = IvanovSubsolution()
        radii = np.linspace(sol.rmin + 0.02, sol.r0 - 0.02, 24)
        times = np.linspace(0.0, 0.5 / sol.h_rate, 6)
        res = pde_residual_rt(sol, radii[:, None], times[None, :], 1e-4)
        assert np.all(res < 0.0)

    def test_rate_below_threshold_not_subsolution(self):
        auto = IvanovSubsolution()
        slow = IvanovSubsolution(h=auto.h_w / 100.0)
        radii = np.linspace(slow.rmin + 0.02, slow.r0 - 0.02, 24)
        res = pde_residual_rt(slow, radii, 0.0, 1e-4)
        assert np.max(res) > 0.0


class TestSpecialLogProfile:
    def test_anchor_and_positivity(self):
        sol = SpecialLogProfile(n_dim=3)
        assert abs(sol.f(sol.r_anchor)) < 1e-8
        rs = np.logspace(-4, math.log10(0.9 * sol.r_anchor), 30)
        assert np.all(sol.f(rs) > 0)

    def test_profile_crosses_zero(self):
        # f becomes negative beyond the anchor: not a non-negative solution
        sol = SpecialLogProfile(n_dim=3)
        assert sol.neg_fprime(sol.r_anchor) > 0


def _quad_profile(sol, r, r_end):
    """The integral of -f' from r to r_end by scipy's `quad`, to 1e-13
    relative on each of 60 geometric sub-intervals."""
    from scipy.integrate import quad

    edges = np.geomspace(r, r_end, 61)
    return math.fsum(
        quad(lambda s: float(sol.neg_fprime(s)), a, b, epsabs=0.0, epsrel=1e-13,
             limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


@pytest.mark.parametrize("sol", [
    DipoleSelfSimilar(3, 1.1), DipoleSelfSimilar(3, 1.1, C=2.0), SpecialLogProfile(3),
], ids=["dipole", "dipole-C2", "special_log"])
def test_profile_matches_quadrature(sol):
    """f at 25 log-spaced radii of the validity domain against a tight
    quadrature of -f': to the anchor for the log profile, and for the dipole
    to 1000 max(r, 1), past which -f' ~ r^{-20} leaves under 1e-50 of f.
    The dipole's radii reach two decades below and above its grid
    1e-6 .. 1e6, where f takes its asymptotic forms."""
    if isinstance(sol, SpecialLogProfile):
        radii, ends = np.geomspace(2e-5, 0.95 * sol.r_anchor, 25), [sol.r_anchor] * 25
    else:
        radii = np.geomspace(1e-8, 1e8, 25)
        ends = 1e3 * np.maximum(radii, 1.0)
    want = np.array([_quad_profile(sol, r, e) for r, e in zip(radii, ends)])
    assert np.max(np.abs(sol.f(radii) / want - 1)) <= 1e-13


# u_rt, ur_rt and dtuq_rt of the two self-similar profiles at points of their
# validity domains, as float.hex: the dipole's include one point below and one
# above its table, where f takes its asymptotic forms.  u_rt reads f, which
# `test_profile_matches_quadrature` checks
_SELF_SIMILAR_BITS = {
    "dipole": (
        DipoleSelfSimilar(3, 1.1),
        {
            (1e-7, 0.0): ("0x1.276622ff39136p+29", "-0x1.ae65a319abd52p+52",
                          "-0x1.483898ba49df1p+29"),
            (0.3, 0.5): ("0x1.9f1874f3b1ca5p+0", "-0x1.c510dd92f1feap+3",
                         "-0x1.ee40f1b793a15p+2"),
            (2.0, 0.9): ("0x1.4b9a70d0c9616p-81", "-0x1.89c765f7ef234p-78",
                         "-0x1.bf79dc99be4b0p-74"),
            (2e6, 0.0): ("0x1.0971f1b47b9f2p-402", "-0x1.4a8729fc3e3edp-419",
                         "-0x1.1e8f5f1d05743p-398"),
        },
    ),
    "special_log": (
        SpecialLogProfile(3),
        {
            (1e-4, 0.0): ("0x1.a08ffa35cacacp+32", "-0x1.64c8ddc161e7bp+47",
                          "-0x1.85b436e46dab5p+33"),
            (0.3, 0.5): ("0x1.08555126ffa56p+1", "-0x1.ba25258ead522p+3",
                         "-0x1.61b7513ef10e8p+2"),
            (1.2, 0.1): ("0x1.077a881ce18acp-2", "-0x1.212f254e2f158p-1",
                         "-0x1.010d767e62bddp-1"),
            (0.3, 0.9): ("0x1.a796daead02a4p-3", "-0x1.0438572ac3171p+1",
                         "-0x1.0438572ac3171p+2"),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_SELF_SIMILAR_BITS))
def test_self_similar_profile_bits(name):
    sol, points = _SELF_SIMILAR_BITS[name]
    for (r, t), want in points.items():
        assert sol.valid_rt(r, t)
        got = tuple(float(m(r, t)).hex() for m in (sol.u_rt, sol.ur_rt, sol.dtuq_rt))
        assert got == want, (r, t)


class TestRegistry:
    def test_families_constructible(self):
        make_family("trudinger_gaussian", p=2.0, n_dim=1)
        with pytest.raises(ValueError):
            make_family("bogus_family")

    def test_ids_stable(self):
        assert set(FAMILIES) == {
            "trudinger_gaussian",
            "separable_blowup",
            "critical_harnack_wave",
            "boundedness_borderline",
            "supercritical_extinction",
            "dipole_self_similar",
            "ivanov_subsolution",
            "special_log_profile",
        }


class TestCriticalB:
    def test_n3_candidates_coincide_at_one(self):
        rep = derive_critical_b_report(3, 2.0)
        assert rep["coincide"]
        assert rep["candidates"][0] == pytest.approx(1.0)
        assert derive_critical_b(3, 2.0) == pytest.approx(1.0)

    def test_closed_form_matches_arbitration_when_available(self):
        # at N=4, p=2 the derived closed form equals the (coincident)
        # printed value
        assert critical_wave_b(4, 2.0) == pytest.approx(4.0)
        assert derive_critical_b(4, 2.0) == pytest.approx(4.0)

    def test_inconsistent_candidates_raise(self):
        # N=5, p=2: candidates (3/2)^2 and (3/2)^(10/3) are distinct and
        # neither matches the profile (true constant is (3/2) * 13/8)
        with pytest.raises(ValueError):
            derive_critical_b(5, 2.0)

    def test_derived_b_converges(self):
        sol = CriticalHarnackWave(n_dim=5, p=2.0)  # uses critical_wave_b
        radii = np.linspace(0.5, 2.0, 8)
        times = np.linspace(-0.5, 0.5, 4)
        res, order = residual_order(sol, radii, times, (1e-2, 5e-3))
        assert order == pytest.approx(2.0, abs=0.2)

    def test_precondition(self):
        with pytest.raises(ValueError):
            derive_critical_b_report(3, 1.5)

    @pytest.mark.parametrize("n_dim, builds", [(4, 1), (5, 2)])
    def test_equal_candidates_share_one_sweep(self, monkeypatch, n_dim, builds):
        # at (4, 2) both printed candidates are 4.0: one wave, one sweep,
        # and both candidates report its residuals
        built = []

        class Spy(CriticalHarnackWave):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["b"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(exact, "CriticalHarnackWave", Spy)
        rep = derive_critical_b_report(n_dim, 2.0)
        assert len(built) == builds
        assert sorted(set(rep["candidates"])) == sorted(built)
        for b, res in zip(rep["candidates"], rep["residuals"]):
            sol = CriticalHarnackWave(n_dim, 2.0, b=b)
            radii, times = sol.residual_lattice()
            assert res == [max_residual(sol, radii, times, h) for h in STENCIL_WIDTHS]


class TestCriticalWaveExp:
    """e^{bt} of the critical wave overflows to inf without a warning, and
    u, u_r and u_t take 0, their limit, there."""

    @pytest.mark.parametrize("b", [None, -3.0], ids=["derived", "negative"])
    @pytest.mark.parametrize("t", [
        0.25, 1e3, -1e3, np.array([[0.5], [1e3], [-1e3]]),
    ], ids=["scalar", "plus-1e3", "minus-1e3", "mixed"])
    def test_overflow_is_quiet_and_takes_the_limit(self, b, t):
        sol = CriticalHarnackWave(n_dim=4, p=2.0, b=b)
        r = np.linspace(0.5, 2.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [np.asarray(f(r, t)) for f in (sol.u_rt, sol.ur_rt, sol.ut_rt)]
        # b t > log(DBL_MAX) = 709.78...
        over = np.broadcast_to(sol.b * np.asarray(t) > 709.8, got[0].shape)
        for v in got:
            assert np.isfinite(v).all()
            assert (v[over] == 0).all()


# one or two instances of every family; the T of the T-families is 1 or 2
_LINE_FAMILIES = [
    TrudingerGaussian(p=2.0, n_dim=1),
    TrudingerGaussian(p=1.5, n_dim=3, C=2.0),
    SeparableBlowup(n_dim=3, p=2.0, q=5.0),
    CriticalHarnackWave(n_dim=3, p=2.0),
    CriticalHarnackWave(n_dim=5, p=2.5),
    BoundednessBorderline(n_dim=3, p=2.0),
    BoundednessBorderline(n_dim=4, p=1.7, a=0.3, T=2.0),
    SupercriticalExtinction(n_dim=40, p=2.0, q=3.0),
    SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, T=2.0, C=-1.0),
    DipoleSelfSimilar(n_dim=3, p=1.15),
    IvanovSubsolution(),
    SpecialLogProfile(),
]
_COORDS = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 0.05, 0.9, 1e-300, 1e200, math.inf, math.nan]),
)
# radii 0 (from +-0.0, and from +-1e-300, whose square underflows) and inf
# (from +-1e200, whose square overflows)
_EDGE_COORDS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e200, -1e200])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@st.composite
def _line_times(draw, sol):
    """t in the body of the domain, at 0, and at, just before or past T."""
    T = getattr(sol, "T", 1.0)
    t = draw(
        st.one_of(
            st.floats(-2.0, 3.0),
            st.sampled_from(
                [0.0, -0.0, 1e-9, T, math.nextafter(T, -math.inf), T + 0.5, -40.0]
            ),
        )
    )
    return draw(st.sampled_from([t, np.float64(t)]))


def _eval_each(sol, xs, t):
    """Reference: one scalar `eval` per coordinate, or its DomainError."""
    try:
        return np.array([sol.eval([v], t) for v in xs.tolist()], dtype=float), None
    except DomainError as exc:
        return None, str(exc)


def _result(read):
    try:
        return read(), None
    except DomainError as exc:
        return None, str(exc)


@functools.cache
def _small_trajectory(geometry):
    """A radial or cartesian run of 12 cells and 5 steps."""
    g = Grid1D(0.0, 1.0, 12, "radial", 3) if geometry == "radial" else Grid1D(-1.0, 1.0, 12)
    u0 = 0.5 + np.cos(0.5 * np.pi * (g.centers() - g.x_lo) / (g.x_hi - g.x_lo)) ** 2
    pr = CauchyDirichletProblem(ExponentTriple(2.0, 2.0, g.n_dim), g, u0, 5e-3)
    return solve(pr, SolverConfig(dt=1e-3))


def _centers_and_halves(draw, centers, halves, n):
    """n drawn centers and n drawn half-widths of np.linspace rows; a
    half-width of 0, or one whose step underflows, gives a row of zero step."""
    c = np.array(draw(st.lists(centers, min_size=n, max_size=n)))
    h = np.array(draw(st.lists(halves, min_size=n, max_size=n)))
    return c, h


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stacked_reads_are_the_one_probe_reads(data):
    """Every probe's slice of a stacked mask or read equals its one-probe
    mask or read (`valid`, `eval` and `grad_norm` at each of its times) bit
    for bit, on the closed forms of the line tests and on radial and
    cartesian runs; the rows that `_spaced` builds are np.linspace's own,
    zero steps among them, at lattice sizes 1, 2 and 32."""
    sol = data.draw(st.sampled_from([*_LINE_FAMILIES, "radial", "cartesian"]))
    if isinstance(sol, str):
        sol = _small_trajectory(sol)
        times = st.floats(-1e-3, 6e-3)
    else:
        times = _line_times(sol)
    src = SolutionSource(sol)
    probes, n = data.draw(st.integers(1, 4)), data.draw(st.sampled_from([1, 2, 32]))
    widths = st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 0.05, 0.4])
    x, dx = _centers_and_halves(data.draw, st.floats(-2.0, 2.0), widths, probes)
    t, dt = _centers_and_halves(data.draw, times, widths, probes)
    xs, ts = (_spaced(c - h, c + h, n) for c, h in ((x, dx), (t, dt)))
    for rows, c, h in ((xs, x, dx), (ts, t, dt)):
        for i in range(probes):
            assert _bits(rows[i]) == _bits(np.linspace(c[i] - h[i], c[i] + h[i], n))
    with np.errstate(all="ignore"):
        mask = src.valid_lattice(xs, ts)
        assert mask.shape == (probes, n, n)
        for i in range(probes):
            for row, time in zip(mask[i], ts[i]):
                assert row.tolist() == src.valid(xs[i], time).tolist()
        keep = mask.all(axis=(1, 2))
        for f in ("eval", "grad_norm"):
            (table,) = src.lattice((f,), xs[keep], ts[keep])
            for k, i in enumerate(np.flatnonzero(keep)):
                for row, time in zip(table[k], ts[i]):
                    assert _bits(row) == _bits(getattr(src, f)(xs[i], time))


class TestEvalLine:
    """A closed-form source's array `eval` is one `eval` per point, with the
    DomainError of the first point outside the domain, and a one-row
    `eval_lattice` at the points that `valid` accepts equals it bit for
    bit."""

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_pointwise(self, data):
        sol = data.draw(st.sampled_from(_LINE_FAMILIES), label="family")
        xs = np.array(data.draw(st.lists(_COORDS, max_size=10), label="x"))
        t = data.draw(_line_times(sol), label="t")
        src = SolutionSource(sol)
        # compare values only: overflow and 0**-e warn point by point
        with np.errstate(all="ignore"):
            want, want_err = _eval_each(sol, xs, t)
            got, got_err = _result(lambda: src.eval(xs, t))
            assert got_err == want_err
            if want_err is None:
                assert _bits(got) == _bits(want)
            xs = xs[src.valid(xs, t)]
            want, want_err = _eval_each(sol, xs, t)
            got = sol.eval_lattice(xs, [t])[0]
        assert want_err is None
        assert got.dtype == np.float64 and got.shape == xs.shape
        assert _bits(got) == _bits(want)

    @settings(max_examples=300)
    @given(st.data())
    def test_valid_iff_point_read_succeeds(self, data):
        # the mask and the family's own reads decide at the same radius
        sol = data.draw(st.sampled_from(_LINE_FAMILIES), label="family")
        x = data.draw(st.one_of(_EDGE_COORDS, _COORDS), label="x")
        t = data.draw(_line_times(sol), label="t")
        src = SolutionSource(sol)
        with np.errstate(all="ignore"):
            valid = src.valid(x, t)
            for read in (src.eval, src.grad_norm):
                assert valid == (_result(lambda: read(x, t))[1] is None)

    def test_lattice_lines(self):
        # 32-point lines as the harnack scans take them, around the probes of
        # two counterexample presets: numpy's array loops run full vectors
        for sol, x_o, t_o, rho in [
            (CriticalHarnackWave(n_dim=3, p=2.0), 1.0, -8.0, 1.0),
            (BoundednessBorderline(n_dim=3, p=2.0), 2.0, 0.5, 16.0),
        ]:
            xs = np.linspace(x_o - rho, x_o + rho, 32)
            for t in np.linspace(t_o - 0.4, min(t_o + 0.4, 0.99), 32):
                want, _ = _eval_each(sol, xs, t)
                assert sol.eval_lattice(xs, [t])[0].view(np.int64).tolist() == (
                    want.view(np.int64).tolist()
                )

    def test_first_invalid_point_named(self):
        sol = SeparableBlowup(n_dim=3, p=2.0, q=5.0)
        src = SolutionSource(sol)
        for read in (src.eval, src.grad_norm):
            with pytest.raises(DomainError, match=r"^\(0\.0, 0\.5\) outside"):
                read(np.array([1.0, -0.0, 2.0, 0.0]), 0.5)
        assert sol.eval_lattice(np.array([]), [0.5])[0].shape == (0,)


@st.composite
def _lattice_axes(draw, sol):
    """(xs, ts) of 1 to 40 points each: an evenly spaced probe line, which
    may cross 0, or drawn coordinates; an evenly spaced time column, which
    may reach T, or drawn times."""
    nx, nt = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        c, half = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 3.0))
        xs = np.linspace(c - half, c + half, nx)
    else:
        xs = np.array(draw(st.lists(_COORDS, min_size=nx, max_size=nx)))
    if draw(st.booleans()):
        t_o, half = draw(_line_times(sol)), draw(st.floats(0.0, 2.0))
        ts = np.linspace(t_o - half, t_o + half, nt)
    else:
        ts = draw(st.lists(_line_times(sol), min_size=nt, max_size=nt))
    return xs, ts


def _point_read(sol, field):
    """Reference read of one coordinate v at the time t: `eval`, or the
    norm of `grad`."""
    if field == "eval":
        return lambda v, t: sol.eval([v], t)
    return lambda v, t: float(np.linalg.norm(sol.grad([v], t)))


def _lattice_each(sol, xs, ts, field="eval"):
    """Reference: one scalar read per point, row by row, of every point that
    the read does not reject with a DomainError."""
    read = _point_read(sol, field)
    vals = []
    for t in ts:
        for v in xs.tolist():
            val, err = _result(lambda: read(v, t))
            if err is None:
                vals.append(val)
    return np.array(vals, dtype=float)


def _assert_lattice_reads(sol, xs, ts, field):
    """`eval_lattice`, row by row over the points that a closed-form
    `SolutionSource`'s mask accepts, equals the reference: the same bits at
    the same points.  So does `SolutionSource.lattice` over the whole lattice
    of the coordinates valid at every time, and it calls no `valid_rt`."""
    src = SolutionSource(sol)
    calls = []
    valid_rt = type(sol).valid_rt

    def spy(self, r, t):
        calls.append(r)
        return valid_rt(self, r, t)

    # compare values only: overflow and 0**-e warn point by point
    with np.errstate(all="ignore"):
        ok = src.valid_lattice(xs, ts)
        rows = [sol.eval_lattice(xs[k], [t], field)[0] for k, t in zip(ok, ts)]
        checks = [(np.concatenate(rows), _lattice_each(sol, xs, ts, field))]
        whole = xs[ok.all(axis=0)]
        if whole.size:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(type(sol), "valid_rt", spy)
                (got,) = src.lattice((field,), whole, ts)
            assert got.shape == (len(ts), whole.size)
            checks.append((got.ravel(), _lattice_each(sol, whole, ts, field)))
    assert calls == []
    for values, want in checks:
        assert values.dtype == np.float64 and values.shape == want.shape
        assert _bits(values) == _bits(want)


class TestEvalLattice:
    """`eval_lattice` equals one `eval` or |`grad`| per valid lattice point,
    and so does a closed-form `SolutionSource.lattice` of a whole valid
    lattice, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_pointwise(self, data):
        sol = data.draw(st.sampled_from(_LINE_FAMILIES), label="family")
        xs, ts = data.draw(_lattice_axes(sol), label="lattice")
        field = data.draw(st.sampled_from(["eval", "grad_norm"]), label="field")
        _assert_lattice_reads(sol, xs, ts, field)

    @pytest.mark.parametrize("sol", _LINE_FAMILIES)
    def test_origin_and_tiny_radii(self, sol):
        # r = 0 from 0.0 and -0.0, and from 1e-300, whose square underflows;
        # t = 0 and 0.75 make rows of some families invalid or mixed
        xs = np.array([0.3, 0.0, -0.0, 1e-300, -1e-300, 0.05, 0.9, -2.0])
        for field in ("eval", "grad_norm"):
            _assert_lattice_reads(sol, xs, [0.25, 0.0, 0.75], field)
            _assert_lattice_reads(sol, xs[[0, 5, 6, 7]], [0.25, 0.75], field)

    @pytest.mark.parametrize("sol, x_o, t_os, radii", [
        (CriticalHarnackWave(n_dim=3, p=2.0), 1.0, [-2, -4, -8, -16, -32], [1.0]),
        (BoundednessBorderline(n_dim=3, p=2.0), 2.0, [0.5], [1, 2, 4, 8, 16]),
    ])
    def test_preset_cylinders(self, sol, x_o, t_os, radii):
        # the 32 x 32 cylinders of the harnack-fail-critical-wave and
        # harnack-fail-borderline presets (sigma = 0.25)
        e = sol.exponents
        for t_o in t_os:
            u_o = sol.eval([x_o], t_o)
            for rho in radii:
                half = 0.25 * u_o ** (e.q + 1 - e.p) * rho**e.p
                xs = np.linspace(x_o - rho, x_o + rho, 32)
                ts = np.linspace(t_o - half, t_o + half, 32)
                want = _lattice_each(sol, xs, ts)
                got = sol.eval_lattice(xs, ts).ravel()
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_a_gradient_whose_square_overflows_is_its_own_norm(self):
        # |Du| ~ 1e299 at C = 1e300: sqrt(y * y) of the 1-vector y = Du
        # would overflow, so the norm is |y| itself, with no warning; at
        # C = 1 the reads still match `grad` bit for bit
        big = TrudingerGaussian(p=2.0, n_dim=1, C=1e300)
        xs = np.array([2.0, -4.0, 8.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = big.eval_lattice(xs, [1.0], "grad_norm")
        ur = big.ur_rt(np.abs(xs), np.array([[1.0]]), np.float_power)
        assert (got > 1e154).all() and _bits(got.ravel()) == _bits(np.abs(ur).ravel())
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        got = sol.eval_lattice(xs, [1.0], "grad_norm").ravel()
        assert _bits(got) == _bits(_lattice_each(sol, xs, [1.0], "grad_norm"))

    def test_first_invalid_point_named(self):
        # |x| would accept 1e-300, but its radius sqrt(x * x) = 0 is outside:
        # the mask rejects the point, and the one-row read names it
        sol = SeparableBlowup(n_dim=3, p=2.0, q=5.0)
        src = SolutionSource(sol)
        xs = np.array([1.0, 1e-300, 2.0])
        assert src.valid_lattice(xs, [0.25, 0.5]).tolist() == [[True, False, True]] * 2
        assert src.valid_lattice([1.0, -0.0, 2.0], [0.5, 2.0]).sum() == 2
        for field in ("eval", "grad_norm"):
            read = getattr(src, field)
            got = src.lattice((field,), xs[[0, 2]], [0.25, 0.5])[0]
            assert _bits(got.ravel()) == _bits(
                _lattice_each(sol, xs[[0, 2]], [0.25, 0.5], field)
            )
            with pytest.raises(DomainError, match=r"^\(0\.0, 0\.25\) outside"):
                read(xs, 0.25)
            with pytest.raises(DomainError, match=r"^\(0\.0, 0\.5\) outside"):
                read(np.array([1.0, -0.0, 2.0]), 0.5)


def _inside_lattice(sol, n):
    """n coordinates, half of each sign, and n times over the family's
    residual window, every point inside its validity domain.  The moving
    edge R(t) of the C < 0 extinction variant cuts its window (R = 4.9 at
    t = 0.6), so its radii start past the edge."""
    r_lo, r_hi, t_lo, t_hi = sol.residual_window
    if isinstance(sol, SupercriticalExtinction) and sol.C < 0:
        r_lo = 1.01 * float(sol.R_t(t_hi))
    radii = np.linspace(r_lo, r_hi, n // 2)
    return np.concatenate([-radii[::-1], radii]), np.linspace(t_lo, t_hi, n)


class TestTablesMatchPoints:
    """Every family's u and |Du| tables against its own point reads, bit for
    bit, on a 64 x 64 lattice inside its domain, with no warning; and a
    table costs the same number of `u_rt` and `ur_rt` calls at any size."""

    @pytest.mark.parametrize("field", ["eval", "grad_norm"])
    @pytest.mark.parametrize("sol", _LINE_FAMILIES)
    def test_every_family(self, sol, field):
        xs, ts = _inside_lattice(sol, 64)
        assert sol.valid_lattice(xs, ts).all()
        read = _point_read(sol, field)
        want = [[read(v, t) for v in xs.tolist()] for t in ts]
        got = sol.eval_lattice(xs, ts, field)
        assert got.shape == (64, 64)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("sol", _LINE_FAMILIES)
    def test_profile_calls_do_not_grow(self, sol, monkeypatch):
        calls = []
        for name in ("u_rt", "ur_rt"):
            real = getattr(type(sol), name)

            def spy(self, r, t, *power, real=real):
                calls.append(np.size(r))
                return real(self, r, t, *power)

            monkeypatch.setattr(type(sol), name, spy)
        counts = []
        for n in (2, 8, 64):
            xs, ts = _inside_lattice(sol, n)
            calls.clear()
            for field in ("eval", "grad_norm"):
                sol.eval_lattice(xs, ts, field)
            counts.append(len(calls))
        assert counts == [counts[0]] * 3 and counts[0] >= 2  # a table per field


def _table_exponents():
    """Every exponent that the tables of `_LINE_FAMILIES` pass to
    `np.float_power`, caught by a spy on a small lattice of each."""
    seen = set()
    real = np.float_power

    def spy(base, e):
        seen.add(float(e))
        return real(base, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "float_power", spy)
        for sol in _LINE_FAMILIES:
            for field in ("eval", "grad_norm"):
                sol.eval_lattice(*_inside_lattice(sol, 4), field)
    return sorted(seen)


def _warning_kind(power):
    """The class and kind ("overflow", "divide by zero", ...) of the first
    warning that `power()` raises, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            power()
        except Warning as w:
            return type(w), str(w).split(" encountered")[0]
    return None


class TestFloatPower:
    """The tables' libm power: `np.float_power` on a float64 array has the
    bits and the warnings of `**` on a numpy scalar, over a fixed grid of
    bases and at every exponent that a table passes it.  A numpy whose
    float64 `float_power` loop is vectorized fails here first."""

    GRID = np.concatenate(
        [[0.0, 5e-324], np.geomspace(1e-300, 1e300, 481), [np.inf, np.nan]]
    )
    GRID = np.concatenate([GRID, -GRID])

    def test_exponents_seen(self):
        # one per family at least; Ivanov's squares are the integer 2
        exps = _table_exponents()
        assert len(exps) >= 8 and 2.0 in exps

    def test_bits(self):
        rng = np.random.default_rng(34)
        bases = np.concatenate([
            self.GRID, rng.uniform(1, 10, 4000) * 10.0 ** rng.integers(-300, 300, 4000)
        ])
        for e in _table_exponents():
            with np.errstate(all="ignore"):
                want = np.array([b**e for b in bases])  # numpy scalars
                got = np.float_power(bases, e)
            assert got.dtype == np.float64
            assert _bits(got) == _bits(want), e

    def test_warnings(self):
        for e in _table_exponents():
            for b in self.GRID:
                assert _warning_kind(lambda: b**e) == _warning_kind(
                    lambda: np.float_power(np.array([b]), e)
                ), (b, e)


def test_default_residual_lattices_inside_the_domain():
    """Every family at its default parameters sweeps a residual lattice
    inside its validity domain, and so does the oracle's stencil at the
    widest h, the points (r, t +- h) and (r +- 2h, t).  A lattice or a
    stencil that leaves it is a DomainError: at h = 0.6 the Gaussian-type
    family's t - h reaches below 0."""
    defaults = [next(s for s in _LINE_FAMILIES if s.family == f) for f in FAMILIES]
    h = max(STENCIL_WIDTHS)
    for sol in defaults:
        radii, times = sol.residual_lattice()
        for dr, dt in [(0, 0), (0, -h), (0, h), (-2 * h, 0), (2 * h, 0)]:
            assert sol.valid_rt(radii + dr, times[:, None] + dt).all(), sol.family
    cut = SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, T=2.0, C=-1.0)
    for sol, h_values in [(cut, STENCIL_WIDTHS), (_LINE_FAMILIES[0], (0.6, 0.3))]:
        with pytest.raises(DomainError, match="^residual lattice leaves the validity"):
            sol.residual_lattice(h_values)


class TestResidualOrder:
    """The stencil widths as one array axis of `pde_residual_rt`, and the
    sweeps that leave no order to fit."""

    @pytest.mark.parametrize("h_values", [STENCIL_WIDTHS, (4e-3, 2e-3, 1e-3, 5e-4)],
                             ids=["default", "finer"])
    # every line family but the C < 0 extinction variant, whose moving edge
    # cuts the residual window
    @pytest.mark.parametrize(
        "sol",
        [s for s in _LINE_FAMILIES if getattr(s, "C", 1.0) > 0],
        ids=lambda s: s.family,
    )
    def test_same_bits_as_one_width_at_a_time(self, sol, h_values):
        radii, times = sol.residual_lattice(h_values)
        res, order = residual_order(sol, radii, times, h_values)
        want = np.array([max_residual(sol, radii, times, h) for h in h_values])
        assert _bits(res) == _bits(want)
        assert order == float(np.polyfit(np.log(h_values), np.log(want), 1)[0])

    @pytest.mark.parametrize("h_values", [(1e-2,), (1e-2, 1e-2)])
    def test_refuses_fewer_than_two_distinct_widths(self, h_values):
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        with pytest.raises(ValueError, match="at least two distinct stencil widths"):
            residual_order(sol, *sol.residual_lattice(h_values), h_values)

    def test_refuses_a_zero_max_residual(self):
        # t +- 5e-324 and r +- 5e-324 round to t and r: every difference is 0
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        h_values = (5e-324, 1e-3)
        with pytest.raises(ValueError, match=r"^max residual 0 at stencil width 5e-324 "):
            residual_order(sol, *sol.residual_lattice(h_values), h_values)

    def test_refuses_a_max_residual_that_is_not_finite(self):
        class NanPast(ClosedFormSolution):
            """u = t^2 + r, NaN past t = 1.007: a quiet NaN warns nowhere."""

            family = "nan_past"

            def __init__(self):
                super().__init__(ExponentTriple(p=2.0, q=1.0, n_dim=1))

            def u_rt(self, r, t):
                return np.where(t > 1.007, np.nan, t * t + r)

        radii, times = np.linspace(0.5, 1.0, 4), np.linspace(0.5, 1.0, 3)
        with pytest.raises(ValueError, match=r"^max residual nan at stencil width 0.01 "):
            residual_order(NanPast(), radii, times, (1e-2, 5e-3))

    def test_refuses_an_empty_window(self):
        # rmin 0.04 raises the decay rate, so that the window's times run from
        # h_max = 0.01 down to 0.9/h_rate - h_max
        sol = IvanovSubsolution(rmin=0.04)
        with pytest.raises(
            DomainError,
            match=r"^residual window of ivanov_subsolution is empty: r 0.1 to 0.85, "
            r"t 0.01 to 0.00914829$",
        ):
            sol.residual_lattice()


class TestAnalyticGradient:
    """`ur_rt`, which every closed-form `grad_norm` reads, against the
    central difference of `u_rt` on the family's residual-sweep lattice."""

    HS = (1e-3, 5e-4, 2.5e-4)

    @pytest.mark.parametrize("sol", _LINE_FAMILIES)
    def test_matches_central_difference(self, sol):
        # the residual window's lattice, which the C < 0 extinction variant's
        # moving edge cuts, so that it has no residual lattice of its own
        r_lo, r_hi, t_lo, t_hi = sol.residual_window
        radii, times = np.linspace(r_lo, r_hi, 16), np.linspace(t_lo, t_hi, 8)
        r, t = (a.ravel() for a in np.meshgrid(radii, times))
        # only points whose widest stencil lies in the validity domain
        h = self.HS[0]
        ok = sol.valid_rt(r - h, t) & sol.valid_rt(r, t) & sol.valid_rt(r + h, t)
        r, t = r[ok], t[ok]
        assert r.size >= 8
        ur = sol.ur_rt(r, t)
        scale = np.max(np.abs(ur))
        errs = [
            np.max(np.abs((sol.u_rt(r + h, t) - sol.u_rt(r - h, t)) / (2 * h) - ur))
            / scale
            for h in self.HS
        ]
        assert errs[-1] <= 1e-4
        assert math.log2(errs[-2] / errs[-1]) == pytest.approx(2.0, abs=0.2)


class TestAnalyticTimeDerivative:
    """`dt_uq`, the analytic d/dt(u^q), against the central difference of
    u^q in t on each family's residual-sweep lattice, whose validation keeps
    t +- h inside the validity domain at every h below."""

    HS = (1e-3, 5e-4, 2.5e-4)
    # every line family but the C < 0 extinction variant, whose moving edge
    # cuts the residual window
    FAMILIES_WITH_LATTICE = [s for s in _LINE_FAMILIES if getattr(s, "C", 1.0) > 0]

    def test_every_family_is_checked(self):
        assert {s.family for s in self.FAMILIES_WITH_LATTICE} == set(FAMILIES)

    @pytest.mark.parametrize("sol", FAMILIES_WITH_LATTICE, ids=lambda s: s.family)
    def test_matches_central_difference(self, sol):
        radii, times = sol.residual_lattice()
        r, t = (a.ravel() for a in np.meshgrid(radii, times))
        dtuq = np.array([sol.dt_uq([rr], tt) for rr, tt in zip(r.tolist(), t.tolist())])
        scale = np.max(np.abs(dtuq))

        def uq(tt):
            u = sol.u_rt(r, tt)
            return np.sign(u) * np.abs(u) ** sol.exponents.q

        errs = [
            np.max(np.abs((uq(t + h) - uq(t - h)) / (2 * h) - dtuq)) / scale
            for h in self.HS
        ]
        if sol.family == "ivanov_subsolution":
            # u^q = (1 - h t)_+ phi^q is affine in t: the difference is exact
            # up to rounding
            assert max(errs) <= 1e-13
            return
        assert errs[-1] <= 1e-4
        for coarse, fine in zip(errs, errs[1:]):
            assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.2)
