"""Tests for the estimate-measurement diagnostics."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnl_lab import cli, solver
from dnl_lab.core import ExponentTriple, Grid1D
from dnl_lab.exact import (
    BoundednessBorderline,
    ClosedFormSolution,
    DomainError,
    IvanovSubsolution,
    SpecialLogProfile,
    SupercriticalExtinction,
    TrudingerGaussian,
)
from dnl_lab.solver import (
    CauchyDirichletProblem,
    SolverConfig,
    StepFailure,
    solve,
    time_grid,
)
from dnl_lab.diagnostics import (
    RegimeError,
    DiagnosticReport,
    SolutionSource,
    _loglog_fit,
    _monotone_exceedance,
    _verdict,
    harnack_scan,
    integral_harnack,
    sup_bound,
    expansion_of_positivity,
    extinction_analysis,
    decay_exponent_fit,
    gradient_bound,
    holder_fit,
)


def _bump(g, amp=1.0):
    x = g.centers()
    xi = (x - 0.5 * (g.x_lo + g.x_hi)) / (0.5 * (g.x_hi - g.x_lo))
    return amp * np.cos(0.5 * np.pi * xi) ** 2


@pytest.fixture(scope="module")
def const_traj():
    """Steady constant-0.7 state (dirichlet boundary matching the data)."""
    g = Grid1D(-1.0, 1.0, 24)
    e = ExponentTriple(2.0, 2.0, 1)
    pr = CauchyDirichletProblem(
        e,
        g,
        np.full(24, 0.7),
        0.1,
        boundary="dirichlet",
        boundary_values=lambda t: (0.7, 0.7),
    )
    return solve(pr, SolverConfig(dt=5e-3))


@pytest.fixture(scope="module")
def linear_traj():
    """Steady linear profile u = (x+1)/2 on (-1, 1)."""
    g = Grid1D(-1.0, 1.0, 40)
    e = ExponentTriple(2.0, 1.0, 1)
    u0 = 0.5 * (g.centers() + 1.0)
    pr = CauchyDirichletProblem(
        e,
        g,
        u0,
        0.1,
        boundary="dirichlet",
        boundary_values=lambda t: (0.0, 1.0),
    )
    return solve(pr, SolverConfig(dt=5e-3))


@pytest.fixture(scope="module")
def zero_traj():
    g = Grid1D(-1.0, 1.0, 16)
    e = ExponentTriple(2.0, 2.0, 1)
    pr = CauchyDirichletProblem(e, g, np.zeros(16), 2e-3)
    return solve(pr, SolverConfig(dt=1e-3))


@pytest.fixture(scope="module")
def bump_traj():
    g = Grid1D(-1.0, 1.0, 60)
    e = ExponentTriple(2.0, 2.0, 1)
    pr = CauchyDirichletProblem(e, g, _bump(g), 2e-2)
    return solve(pr, SolverConfig(dt=1e-3))


class TestUtilities:
    def test_monotone_exceedance(self):
        assert _monotone_exceedance([1.0, 2.0, 4.0, 8.0])
        assert not _monotone_exceedance([1.0, 2.0, 4.0])  # too few scales
        assert not _monotone_exceedance([1.0, 1.1, 1.2, 1.3])  # small spread
        assert not _monotone_exceedance([8.0, 1.0, 4.0, 2.0])  # not monotone

    def test_verdict_rule(self):
        assert _verdict([0.0, 0.0]) == "bounded"  # guarded 0 / 0
        assert _verdict([3.5]) == "bounded"
        assert _verdict([1.0, 1.9]) == "bounded"
        assert _verdict([1.0, 2.0, 4.0, 8.0]) == "diverging"
        assert _verdict([1.0, 2.0, 4.0]) == "inconclusive"
        assert _verdict([]) == "inconclusive"
        for bad in (math.inf, math.nan, -math.inf):
            assert _verdict([bad]) != "bounded"
            assert _verdict([1.0, 1.1, bad]) != "bounded"
            assert _verdict([1.0, 2.0, 4.0, 8.0, bad]) != "bounded"

    def test_report_formats(self):
        rep = DiagnosticReport("demo")
        rep.probes = [{"rho": 1.0}]
        rep.lhs = [3.0]
        rep.rhs = [2.0]
        rep.implied_constant = 1.5
        rep.verdict = "bounded"
        assert rep.summary_line() == "demo,bounded,1.5"
        rows = rep.csv_rows()
        assert rows[0]["implied"] == pytest.approx(1.5)
        assert rows[0]["rho"] == 1.0


class TestSolutionSource:
    def test_closed_form(self):
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        src = SolutionSource(sol)
        assert src.kind == "closed_form"
        assert src.eval([0.0], 1.0) == pytest.approx(1.0)
        assert src.valid([0.0], 1.0)
        assert not src.valid([0.0], -1.0)

    def test_trajectory(self, linear_traj):
        src = SolutionSource(linear_traj)
        assert src.kind == "trajectory"
        assert src.eval([0.0], 2e-3) == pytest.approx(0.5, abs=1e-6)
        assert src.grad_norm([0.0], 2e-3) == pytest.approx(0.5, abs=1e-6)
        # validity extends to the domain boundary, not just cell centers
        assert src.valid([1.0], 2e-3)
        assert not src.valid([1.1], 2e-3)
        assert not src.valid([0.0], 1.0)

    def test_type_error(self):
        with pytest.raises(TypeError):
            SolutionSource(42)


def _pointwise(traj, table, x, t):
    """Reference: the scalar space-time interpolation, one point per call."""
    g = traj.problem.grid
    xs, ts = g.centers(), np.asarray(traj.times)
    x = float(np.linalg.norm([x])) if g.geometry == "radial" else float(x)
    i = np.searchsorted(ts, t)
    i = min(max(i, 1), ts.size - 1)
    wt = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
    wt = min(max(wt, 0.0), 1.0)
    row = (1 - wt) * table[i - 1] + wt * table[i]
    return float(np.interp(x, xs, row))


def _pointwise_valid(traj, x, t):
    g = traj.problem.grid
    ts = traj.times
    r = float(np.linalg.norm([x])) if g.geometry == "radial" else float(x)
    lo = 0.0 if g.geometry == "radial" else g.x_lo
    return lo <= r <= g.x_hi and ts[0] <= t <= ts[-1]


@pytest.fixture(scope="module")
def radial_traj():
    g = Grid1D(0.0, 1.0, 30, "radial", 3)
    e = ExponentTriple(2.0, 2.0, 3)
    u0 = 1.0 + np.cos(0.5 * np.pi * g.centers()) ** 2
    pr = CauchyDirichletProblem(e, g, u0, 1e-2)
    return solve(pr, SolverConfig(dt=1e-3))


class TestArrayPath:
    """The array path equals the scalar reference bit for bit."""

    @pytest.mark.parametrize("name", ["radial_traj", "bump_traj"])
    def test_trajectory_matches_pointwise(self, name, request):
        traj = request.getfixturevalue(name)
        src = SolutionSource(traj)
        g = traj.problem.grid
        U = np.vstack(traj.fields)
        dU = np.gradient(U, g.h, axis=1)
        h, lo = g.h, 0.0 if g.geometry == "radial" else g.x_lo
        # interior, the half-cell collars, outside the domain, and -x
        xs = np.concatenate(
            [
                np.linspace(lo - 2 * h, g.x_hi + 2 * h, 97),
                [lo, lo + h / 4, g.x_hi - h / 4, g.x_hi, g.x_hi + h / 4],
                -np.linspace(0.0, g.x_hi + h, 13),
            ]
        )
        t0, tn = traj.times[0], traj.times[-1]
        times = [t0, traj.times[3], 0.5 * (traj.times[4] + traj.times[5])]
        times += [0.37 * tn, tn, t0 - 1e-3, tn + 1e-3]
        for t in times:
            want_u = [_pointwise(traj, U, x, t) for x in xs]
            want_du = [abs(_pointwise(traj, dU, x, t)) for x in xs]
            want_ok = [_pointwise_valid(traj, x, t) for x in xs]
            assert src.eval(xs, t).tolist() == want_u
            assert src.grad_norm(xs, t).tolist() == want_du
            assert src.valid(xs, t).tolist() == want_ok

    def test_closed_form_valid_matches_pointwise(self):
        # each family with times where its validity mask is mixed
        families = [
            (TrudingerGaussian(p=2.0, n_dim=1), (-0.5, 0.0, 0.5)),
            (IvanovSubsolution(), (-0.01, 0.0, 0.01, 0.03)),
            (SpecialLogProfile(), (0.5, 0.99, 1.5)),
            (SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, C=-1.0), (0.1, 0.5)),
        ]
        xs = np.linspace(-6.0, 6.0, 241)
        for sol, times in families:
            src = SolutionSource(sol)
            for t in times:
                want = [
                    bool(np.all(sol.valid_rt(np.linalg.norm([x]), np.asarray(t))))
                    for x in xs
                ]
                assert src.valid(xs, t).tolist() == want

    def test_scalar_in_scalar_out(self, bump_traj):
        for src in (
            SolutionSource(bump_traj),
            SolutionSource(TrudingerGaussian(p=2.0, n_dim=1)),
        ):
            assert type(src.eval(0.1, 1e-2)) is float
            assert type(src.grad_norm(0.1, 1e-2)) is float
            assert type(src.valid(0.1, 1e-2)) is bool
            assert src.eval(np.array([0.1]), 1e-2).shape == (1,)


@st.composite
def _small_run(draw):
    """A small radial or cartesian run and a strategy of times: before
    t_start, at a stored time, between two, at t_end or past it."""
    if draw(st.booleans()):
        g = Grid1D(0.0, 1.0, draw(st.integers(4, 14)), "radial", 3)
    else:
        g = Grid1D(-1.0, 1.0, draw(st.integers(4, 14)))
    p, q = draw(st.sampled_from([(2.0, 2.0), (2.0, 1.0), (3.0, 2.0), (2.5, 0.7)]))
    dt = draw(st.sampled_from([1e-3, 7e-4]))
    t_start = draw(st.sampled_from([0.0, 0.02]))
    span = dt * (draw(st.integers(1, 12)) + draw(st.sampled_from([0.0, 0.4])))
    u0 = 0.2 + np.cos(0.5 * np.pi * (g.centers() - g.x_lo) / (g.x_hi - g.x_lo))
    pr = CauchyDirichletProblem(
        ExponentTriple(p, q, g.n_dim), g, u0 ** 2, t_start + span, t_start=t_start
    )
    cfg = SolverConfig(dt=dt)
    times = time_grid(pr, cfg)[0]
    j = st.integers(0, len(times) - 1)
    t = st.one_of(
        st.floats(0.01, 2.0).map(lambda d: t_start - d * dt),
        j.map(times.__getitem__),
        st.tuples(j, st.floats(0.0, 1.0)).map(
            lambda a: times[max(a[0] - 1, 0)] * (1 - a[1]) + times[a[0]] * a[1]
        ),
        st.just(times[-1]),
        st.floats(0.01, 2.0).map(lambda d: times[-1] + d * dt),
    )
    return pr, cfg, t


@st.composite
def _on_demand_case(draw):
    """A small run and a read sequence in any time order: (method, x, t)
    with x a probe line or a scalar."""
    pr, cfg, t = draw(_small_run())
    g = pr.grid
    h = g.h
    line = np.linspace(-g.x_hi - h, g.x_hi + h, 29)
    x = st.one_of(st.just(line), st.floats(-1.2, 1.2))
    method = st.sampled_from(["eval", "grad_norm", "valid"])
    return pr, cfg, draw(st.lists(st.tuples(method, x, t), min_size=1, max_size=12))


@settings(max_examples=60)
@given(_on_demand_case())
def test_on_demand_source_matches_solved_source(case):
    """A source stepped on demand gives the bits of the solved trajectory's
    source, whatever the order of the reads, and both give those of the
    whole-table reference (every row stacked and differentiated at once)."""
    pr, cfg, reads = case
    traj = solve(pr, cfg)
    on_demand = SolutionSource(solver.Trajectory(pr, cfg))
    solved = SolutionSource(traj)
    U = np.vstack(traj.fields)
    tables = {"eval": U, "grad_norm": np.gradient(U, pr.grid.h, axis=1)}
    bits = lambda a: np.asarray(a, dtype=float).view(np.int64).tolist()
    for method, x, t in reads:
        got = np.asarray(getattr(on_demand, method)(x, t))
        want = np.asarray(getattr(solved, method)(x, t))
        if method == "valid":
            assert got.tolist() == want.tolist()
            continue
        assert got.shape == want.shape
        assert bits(got) == bits(want)
        ref = [_pointwise(traj, tables[method], v, t) for v in np.ravel(x)]
        if method == "grad_norm":
            ref = np.abs(ref)
        assert bits(np.ravel(got)) == bits(ref)


@st.composite
def _lattice_case(draw):
    """A small run, a lattice ts x xs, the fields read on it and the step
    that fails (None for none).  The x line joins pieces that sweep across
    the half-cell collars and past the domain, hit cell centers exactly
    (with either sign) and sit on the domain edges; the times are those of
    `_small_run`, in any order."""
    pr, cfg, t = draw(_small_run())
    g = pr.grid
    h, c = g.h, g.centers()
    lo = 0.0 if g.geometry == "radial" else g.x_lo
    a = draw(st.floats(-g.x_hi - 2 * h, g.x_hi + 2 * h))
    b = draw(st.floats(-g.x_hi - 2 * h, g.x_hi + 2 * h))
    pieces = [
        np.linspace(a, b, draw(st.integers(1, 12))),
        np.array(draw(st.lists(st.sampled_from([*c, *-c]), max_size=6))),
        np.array(
            draw(
                st.lists(
                    st.sampled_from(
                        [lo, lo + h / 4, g.x_hi - h / 4, g.x_hi, g.x_hi + h / 4]
                    ),
                    max_size=5,
                )
            )
        ),
    ]
    xs = np.concatenate(draw(st.permutations(pieces)))
    ts = draw(st.lists(t, min_size=1, max_size=10))
    fields = draw(
        st.sampled_from([("eval",), ("grad_norm",), ("grad_norm", "eval")])
    )
    n_steps = len(time_grid(pr, cfg)[1])
    fail_at = draw(st.one_of(st.none(), st.integers(1, n_steps)))
    return pr, cfg, xs, ts, fields, fail_at


@settings(max_examples=80, deadline=None)
@given(_lattice_case())
def test_trajectory_lattice_is_the_pointwise_reads(case):
    """A trajectory lattice read equals the scalar reference at every point,
    one row per time, bit for bit, for values and gradients: a point outside
    the domain or the run's span clamps as the scalar read does.  It steps
    the solver as far as the later stored row bracketing its latest time,
    and a StepFailure that such a read would meet surfaces in the lattice
    read."""
    pr, cfg, xs, ts, fields, fail_at = case
    traj = solve(pr, cfg)
    U = np.vstack(traj.fields)
    tables = {"eval": U, "grad_norm": np.gradient(U, pr.grid.h, axis=1)}
    bits = lambda a: np.asarray(a, dtype=float).view(np.int64).tolist()
    times = np.asarray(traj.times)
    # a time's read steps to the later of the two rows bracketing it
    bracket = lambda t: min(max(int(np.searchsorted(times, t)), 1), times.size - 1)
    rows = max(bracket(t) for t in ts) + 1
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        if fail_at is not None:
            mp.setattr(solver, "step", _failing_step(fail_at, calls))
        src = SolutionSource(solver.Trajectory(pr, cfg))
        if fail_at is not None and rows > fail_at:
            with pytest.raises(StepFailure, match=rf"at step {fail_at} of "):
                src.lattice(fields, xs, ts)
            assert len(src.backing.fields) == fail_at
            return
        got = src.lattice(fields, xs, ts)
    assert len(src.backing.fields) == rows
    for f, values in zip(fields, got):
        want = [[_pointwise(traj, tables[f], x, t) for x in xs] for t in ts]
        if f == "grad_norm":
            want = np.abs(want)
        assert values.shape == (len(ts), xs.size)
        assert bits(values) == bits(want)


@pytest.mark.parametrize(
    "sub, name, steps",
    [
        ("harnack", "thm-harnack-supercritical", 106),
        ("integral-harnack", "integral-harnack-supercritical", 150),
        ("supbound", "supbound-fast-diffusion", 150),
        ("expand", "expansion-positivity", 51),
        ("holder", "holder-supercritical", 110),
    ],
)
def test_scan_steps_only_to_its_last_read(monkeypatch, capsys, sub, name, steps):
    """Each trajectory-backed preset (200 steps to t_end) steps the solver
    only up to the stored row bracketing the latest time it reads."""
    calls = _count_steps(monkeypatch)
    assert cli.run([sub, "--preset", name]) == 0
    assert len(calls) == steps


def test_scan_fails_before_reading_its_cylinders(monkeypatch, capsys, tmp_path):
    """A symmetric-cylinder scan on the 200-step run, with one cylinder that
    leaves [t_start, t_end], exits 1 with the shared refusal after the 100
    steps of its u(x_o, t_o) reads (t_o = 0.02), before any cylinder read
    steps to the later rows that the others reach."""
    run = tmp_path / "run.cfg"
    run.write_text(cli._SUPERCRITICAL_RUN)
    rows = [
        (["harnack", "--preset", "thm-harnack-supercritical",
          "--radii", "0.01,0.02,0.04,0.5"], (0.2, 0.02, 0.5)),
        (["gradbound", "--config", str(run), "--x_o", "0.2", "--t_o", "0.02",
          "--radii", "0.01,0.02,1", "--lattice", "4"], (0.2, 0.02, 1.0)),
        (["holder", "--preset", "holder-supercritical",
          "--radii", "0.01,0.02,0.04,1"], (0.4, 0.02, 1.0)),
    ]
    for argv, probe in rows:
        calls = _count_steps(monkeypatch)
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cylinder leaves the domain at probe {probe}\n"
        assert len(calls) == 100


def _count_steps(monkeypatch):
    """Wrap `solver.step`; the returned list gets the time of each call."""
    calls = []
    real = solver.step

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counted)
    return calls


def _failing_step(k, calls):
    """`solver.step` that raises a StepFailure from its k-th call on, so that
    the 7 splits of step k fail too."""
    real = solver.step

    def stepped(problem, u_prev, t, dt, config, disc=None):
        calls.append(t)
        if len(calls) >= k:
            raise StepFailure("nonlinear iteration did not converge", t + dt, 1.0, 1e-3)
        return real(problem, u_prev, t, dt, config, disc=disc)

    return stepped


def test_step_failure_surfaces_at_the_first_read_that_needs_it(monkeypatch):
    g = Grid1D(-1.0, 1.0, 20)
    pr = CauchyDirichletProblem(ExponentTriple(2.0, 2.0, 1), g, _bump(g), 2e-2)
    cfg = SolverConfig(dt=1e-3)
    solved = SolutionSource(solve(pr, cfg))
    ts = solved._ts
    k, calls = 7, []
    monkeypatch.setattr(solver, "step", _failing_step(k, calls))
    src = SolutionSource(solver.Trajectory(pr, cfg))
    xs = np.linspace(-1.0, 1.0, 11)
    # rows 0 .. k-1 exist without step k: every read at t <= t_{k-1} succeeds
    for t in (ts[0] - 1e-3, ts[0], ts[3], 0.5 * (ts[4] + ts[5]), ts[k - 1]):
        assert src.eval(xs, t).tolist() == solved.eval(xs, t).tolist()
        assert src.grad_norm(xs, t).tolist() == solved.grad_norm(xs, t).tolist()
    assert len(calls) == k - 1
    # a read later than t_{k-1} blends row k in, and fails with its step and
    # the last of its splits, which ends at t_{k-1} + dt/128; so does every
    # read after the failure that needs a later row
    for t in (0.5 * (ts[k - 1] + ts[k]), ts[k], ts[-1], ts[-1] + 1.0):
        with pytest.raises(StepFailure, match=rf"at step {k} of 20, t=0\.00600781:"):
            src.eval(xs, t)
        with pytest.raises(StepFailure, match=rf"at step {k} of 20"):
            src.grad_norm(0.0, t)
    assert len(calls) == k + 7
    # rows already stepped and the validity span are unaffected
    assert src.eval(xs, ts[2]).tolist() == solved.eval(xs, ts[2]).tolist()
    assert src.valid(xs, ts[-1]).tolist() == solved.valid(xs, ts[-1]).tolist()


_EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
with open(_EXPECTED) as f:
    _BENCH_OPS = json.load(f)


@pytest.mark.parametrize("op", sorted(_BENCH_OPS))
def test_diagnostic_preset_bytes(op, tmp_path, monkeypatch):
    """Every benchmark operation, diagnostic or not, reproduces its recorded
    exit code and output bytes, and no lattice mask that it builds drops a
    point."""
    masks = []
    real = SolutionSource.valid_lattice

    def recorded(self, xs, ts):
        masks.append(real(self, xs, ts))
        return masks[-1]

    monkeypatch.setattr(SolutionSource, "valid_lattice", recorded)
    rec = _BENCH_OPS[op]
    prefix = tmp_path / "op"
    assert cli.run(rec["argv"] + ["--out", str(prefix)]) == rec["exit"]
    for suffix in ("csv", "meta"):
        data = (tmp_path / f"op.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == rec[f"{suffix}_sha256"]
    assert all(mask.all() for mask in masks)


_OUTSIDE = "cylinder leaves the domain at probe"


# each of the first seven rows keeps its pytest id, which names the message
# it had before the scans shared one refusal
@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["integral-harnack", "--preset", "integral-harnack-supercritical",
             "--t_o", "0.001"], f"{_OUTSIDE} (0.5, 0.001, 0.3)",
            id="argv0-cylinder lattice has no valid points",
        ),
        pytest.param(
            ["integral-harnack", "--preset", "integral-harnack-supercritical",
             "--t_o", "0.001", "--s", "1"], f"{_OUTSIDE} (0.5, 0.001, 0.3)",
            id="argv1-cylinder lattice has no valid points",
        ),
        pytest.param(
            ["supbound", "--preset", "supbound-fast-diffusion", "--t_o", "0.001"],
            f"{_OUTSIDE} (0.5, 0.001, 0.3)",
            id="argv2-cylinder lattice has no valid points",
        ),
        pytest.param(
            ["supbound", "--preset", "supbound-fast-diffusion", "--t_o", "0.001",
             "--x_o", "1.5"], f"{_OUTSIDE} (1.5, 0.001, 0.3)",
            id="argv3-cylinder lattice has no valid points",
        ),
        pytest.param(
            ["harnack", "--preset", "thm-harnack-supercritical",
             "--radii", "0.5,1,2,4"], f"{_OUTSIDE} (0.2, 0.02, 0.5)",
            id="argv4-cylinder lattice has no valid points",
        ),
        pytest.param(
            ["expand", "--preset", "expansion-positivity", "--x_o", "1.2"],
            f"{_OUTSIDE} (1.2, 0.005, 0.1)",
            id="argv5-initial slice outside the domain",
        ),
        pytest.param(
            ["holder", "--preset", "holder-supercritical", "--t_o", "1.0"],
            f"{_OUTSIDE} (0.4, 1.0, 0.01)",
            id="argv6-cylinder of radius 0.01 leaves the domain",
        ),
        # cylinders that leave the domain in part
        (["harnack", "--preset", "thm-harnack-supercritical", "--t_o", "0.0"],
         f"{_OUTSIDE} (0.2, 0.0, 0.01)"),
        (["holder", "--preset", "holder-supercritical", "--t_o", "0.0"],
         f"{_OUTSIDE} (0.4, 0.0, 0.01)"),
        (["expand", "--preset", "expansion-positivity", "--t_o", "0.039"],
         f"{_OUTSIDE} (0.3, 0.039, 0.1)"),
        (["gradbound", "--preset", "gradbound-fail-trudinger", "--lattice", "8"],
         f"{_OUTSIDE} (2.0, 1.0, 1.0)"),
        (["supbound", "--family.id", "ivanov_subsolution", "--x_o", "0.1",
          "--t_o", "0.02", "--rho", "0.2", "--s", "0.015", "--r", "3"],
         f"{_OUTSIDE} (0.1, 0.02, 0.2)"),
        (["supbound", "--family.id", "special_log_profile", "--x_o", "1.3",
          "--t_o", "0.5", "--rho", "0.6", "--s", "0.4", "--r", "2.5"],
         f"{_OUTSIDE} (1.3, 0.5, 0.6)"),
    ],
)
def test_edge_scan_exits_1(argv, message, capsys):
    """Lattices that leave the run or a family's domain, whole or in part:
    Q_{rho/2,s/2} of the integral Harnack and sup bounds with time rows
    before t_start (and, at x_o = 1.5, every point past the domain), Harnack
    cylinders (rho = 0.5 at x_o = 0.2, and any at t_o = 0) that cross
    t_start or t_end, an initial slice past the domain, Hoelder cylinders
    past t_end or across t_start, expansion windows past t_end, Trudinger
    gradient cylinders that reach t <= 0, and sup cylinders that cross the
    ivanov sub-solution's inner edge and the log profile's moving edge."""
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_GRADBOUND_8 = (
    "0a06d6a7010bcbf74fe255451013c2203d49af7c72e19de9a523c5a80a07b71b",
    "8b73cb837eb1dd2e6213a59c6be0606383a6a6f7611a737bbabf04ff3cb0ecd8",
)


# the row keeps its pytest id from when partial cylinders had rows before it
@pytest.mark.parametrize(
    "argv, csv_sha256, meta_sha256, code",
    [
        pytest.param(
            ["gradbound", "--preset", "gradbound-supercritical", "--lattice", "8"],
            *_GRADBOUND_8, 0, id="argv3-{}-{}-0".format(*_GRADBOUND_8),
        ),
    ],
)
def test_edge_scan_bytes(argv, csv_sha256, meta_sha256, code, tmp_path):
    """Closed-form gradient cylinders keep their bytes and exit codes."""
    prefix = tmp_path / "op"
    assert cli.run(argv + ["--out", str(prefix)]) == code
    for suffix, want in (("csv", csv_sha256), ("meta", meta_sha256)):
        data = (tmp_path / f"op.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want


def _record_reads(monkeypatch, src):
    """The (fields, xs shape, ts shape) of every `lattice` read of `src`,
    which may make no one-point read."""
    reads = []
    lattice = src.lattice

    def recorded(fields, xs, ts):
        reads.append((tuple(fields), np.shape(xs), np.shape(ts)))
        return lattice(fields, xs, ts)

    def one_point(*args):
        raise AssertionError("a one-point read")

    monkeypatch.setattr(src, "lattice", recorded)
    for name in ("eval", "grad_norm"):
        monkeypatch.setattr(src, name, one_point)
    return reads


# one probe per fault kind of `_cylinders`, in their order, on the gaussian
# (p, N) = (2, 1); gradient_bound's half-height is rho^2
_FAULTS = {
    "center outside": ((5.0, -1.0, 1.0), "(5.0, -1.0) outside validity domain"),
    "u_o <= 0": ((100.0, 1.0, 1.0), "u(x_o,t_o) <= 0 at probe (100.0, 1.0, 1.0)"),
    "half-height": ((5.0, 2.0, 1e200), "radius 1e+200 is too large: rho^p overflows"),
    "refused": ((5.0, 0.5, 1.0), "cylinder leaves the domain at probe (5.0, 0.5, 1.0)"),
}


@pytest.mark.parametrize("at", [1, 2], ids=["probe-2", "probe-3"])
@pytest.mark.parametrize("kind", list(_FAULTS))
def test_first_fault_in_probe_order_raises(kind, at):
    """The first probe at fault raises the error that a scan of it alone
    raises, whatever faults the probes after it hold: every probe before it
    is sound, and the others follow it in the reverse order of the kinds."""
    src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
    probe, message = _FAULTS[kind]
    others = [pr for k, (pr, _) in _FAULTS.items() if k != kind][::-1]
    with pytest.raises(ValueError) as alone:
        gradient_bound(src, [probe], lattice=8)
    assert str(alone.value).startswith(message)
    probes = [(4.0, 5.0, 0.5)] * at + [probe] + others
    with pytest.raises(type(alone.value)) as got:
        gradient_bound(src, probes, lattice=8)
    assert str(got.value) == str(alone.value)


class TestHarnackScan:
    def test_constant_state_gamma_one(self, const_traj):
        rep = harnack_scan(
            SolutionSource(const_traj), [(0.0, 0.05)], [0.2, 0.4], sigma=0.1
        )
        assert rep.verdict == "bounded"
        assert rep.implied_constant == pytest.approx(1.0, abs=1e-9)

    def test_trudinger_slice_ratio(self):
        # sigma = 0: gamma over K_1(l) at fixed t=2 is exp((2l+1)/8) exactly
        src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
        for ell in (5.0, 10.0):
            rep = harnack_scan(src, [(ell, 2.0)], [1.0], sigma=0.0)
            assert rep.implied_constant == pytest.approx(
                math.exp((2 * ell + 1) / 8), rel=1e-12
            )

    def test_trudinger_divergence(self):
        src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
        rep = harnack_scan(
            src, [(x, 2.0) for x in (5.0, 8.0, 12.0, 16.0, 20.0)], [1.0], sigma=0.0
        )
        assert rep.verdict == "diverging"

    def test_sigma_validation(self, const_traj):
        src = SolutionSource(const_traj)
        with pytest.raises(ValueError):
            harnack_scan(src, [(0.0, 0.05)], [0.2], sigma=1.0)

    def test_zero_center_rejected(self, zero_traj):
        src = SolutionSource(zero_traj)
        with pytest.raises(RegimeError):
            harnack_scan(src, [(0.0, 1e-3)], [0.1], sigma=0.0)

    def test_zero_center_names_first_probe(self, zero_traj):
        src = SolutionSource(zero_traj)
        with pytest.raises(RegimeError, match=r"at probe \(0\.0, 0\.001, 0\.1\)$"):
            harnack_scan(src, [(0.0, 1e-3)], [0.1, 0.2], sigma=0.0)

    def test_u_o_read_once_per_base_point(self, monkeypatch):
        """Every radius of a base point shares its one u_o: the same report
        as one scan per probe, from one read of every center and one read of
        every cylinder, with no one-point `eval`."""
        src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
        base, radii = [(5.0, 2.0), (8.0, 2.0), (12.0, 2.0)], [0.5, 1.0, 1.5, 2.0]
        singles = [
            harnack_scan(src, [b], [rho], sigma=0.25) for b in base for rho in radii
        ]
        reads = _record_reads(monkeypatch, src)
        rep = harnack_scan(src, base, radii, sigma=0.25)
        assert reads == [(("eval",), (12, 1), (12, 1)), (("eval",), (12, 32), (12, 32))]
        assert rep.lhs == [g for r in singles for g in r.lhs]
        assert rep.probes == [pr for r in singles for pr in r.probes]

    def test_scaling_invariance(self):
        # gamma_emp is invariant under the intrinsic rescaling of the probes
        src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
        base = harnack_scan(src, [(4.0, 2.0)], [1.0], sigma=0.0)
        k = 2.0
        scaled = harnack_scan(src, [(4.0 * k, 2.0 * k * k)], [k], sigma=0.0)
        assert scaled.implied_constant == pytest.approx(
            base.implied_constant, rel=1e-10
        )


class TestIntegralEstimates:
    def test_regime_guards(self):
        # q = p - 1 (trudinger case) is outside the fast-diffusion range
        src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
        with pytest.raises(RegimeError):
            integral_harnack(src, 0.0, 1.0, 0.5, 0.5)
        # lambda_q < 0 above the critical line
        sup = SolutionSource(SupercriticalExtinction(n_dim=40, p=2.0, q=3.0))
        with pytest.raises(RegimeError):
            integral_harnack(sup, 1.0, 0.5, 0.2, 0.1)
        with pytest.raises(RegimeError):
            sup_bound(sup, 1.0, 0.5, 0.2, 0.1, r=0.1)

    def test_numerical_run_bounded(self, bump_traj):
        src = SolutionSource(bump_traj)  # p=2, q=2, lam_q = 2 > 0 at N=1
        rep = integral_harnack(src, 0.0, 1.5e-2, 0.4, 5e-3)
        assert rep.verdict == "bounded"
        assert 0 < rep.implied_constant < 10
        rep2 = sup_bound(src, 0.0, 1.5e-2, 0.4, 5e-3, r=3.0)
        assert rep2.verdict == "bounded"
        assert 0 < rep2.implied_constant < 10

    def test_partial_cylinders_refused(self):
        # closed forms whose masks reject part of every row: the ivanov
        # sub-solution below r_min, and the log profile past a moving edge,
        # which cuts every row of its cylinder at a different length.  Only
        # the ivanov sup bound is in its regime; the others measure the
        # same lattices under exponents with lambda_q > 0
        ivanov = SolutionSource(IvanovSubsolution())
        log = SolutionSource(SpecialLogProfile(3))
        rows = log.valid_lattice(np.linspace(0.7, 1.9, 32), np.linspace(0.1, 0.5, 32))
        assert len(set(rows.sum(axis=1).tolist())) > 10
        scans = [lambda: sup_bound(ivanov, 0.1, 0.02, 0.2, 0.015, r=3.0)]
        ivanov.exponents = log.exponents = ExponentTriple(p=2.0, q=1.5, n_dim=1)
        scans += [
            lambda: integral_harnack(ivanov, 0.1, 0.02, 0.2, 0.015),
            lambda: integral_harnack(log, 1.3, 0.5, 0.6, 0.4),
            lambda: sup_bound(log, 1.3, 0.5, 0.6, 0.4, r=2.5),
        ]
        probes = [(0.1, 0.02, 0.2)] * 2 + [(1.3, 0.5, 0.6)] * 2
        for scan, probe in zip(scans, probes):
            message = f"cylinder leaves the domain at probe {probe}"
            with pytest.raises(RegimeError, match=f"^{re.escape(message)}$"):
                scan()

    @pytest.mark.parametrize(
        "lattice, xs_shapes, csv_sha256, meta_sha256",
        [
            pytest.param(32, [(2, 32)], None, None, id="lattice-32"),
            pytest.param(
                1024, [(1, 1024)] * 2,
                "34e5eacd44e4f4f77397517bea01fd50f1c05a1f29b7ac89a898e4f79048d660",
                "dbb8e53940bb26035647497657936287ecc7902f174374d51d8ee16c36fc1f7c",
                id="lattice-1024",
            ),
        ],
    )
    def test_boxes_read_in_runs(
        self, monkeypatch, tmp_path, lattice, xs_shapes, csv_sha256, meta_sha256
    ):
        """Q_{rho/2,s/2} and Q_{rho,s} share one read while both fit in one
        run of 2^16 points, and take one read each past it, with the bytes
        of the one read that held both at any size."""
        shapes = []
        lattice_read = SolutionSource.lattice

        def recorded(src, fields, xs, ts):
            shapes.append(np.shape(xs))
            return lattice_read(src, fields, xs, ts)

        monkeypatch.setattr(SolutionSource, "lattice", recorded)
        prefix = tmp_path / "op"
        argv = ["supbound", "--preset", "supbound-fast-diffusion",
                "--lattice", str(lattice), "--out", str(prefix)]
        assert cli.run(argv) == 0
        assert shapes == xs_shapes
        for suffix, want in (("csv", csv_sha256), ("meta", meta_sha256)):
            if want is not None:
                data = prefix.with_suffix(f".{suffix}").read_bytes()
                assert hashlib.sha256(data).hexdigest() == want


class TestExpansionOfPositivity:
    def test_bounded_on_bump(self, bump_traj):
        src = SolutionSource(bump_traj)
        # theta = M rho^2 = 0.01125: every window ends before t_end = 0.02
        rep = expansion_of_positivity(src, 0.0, 2e-3, 0.15, M=0.5, alpha=0.5)
        assert rep.verdict == "bounded"
        assert rep.implied_constant > 0.1
        # one probe per window delta = 2^-k, each value a Python float
        assert [pr["delta"] for pr in rep.probes] == [2.0**-k for k in range(10)]
        assert {type(v) for pr in rep.probes for v in [*pr.values(), *rep.lhs]} == {float}

    def test_measure_hypothesis(self, bump_traj):
        src = SolutionSource(bump_traj)
        with pytest.raises(RegimeError, match="^measure hypothesis fails"):
            expansion_of_positivity(src, 0.0, 2e-3, 0.09, M=2.0, alpha=0.5)


class TestExtinction:
    def test_regime_guards(self, bump_traj, const_traj):
        with pytest.raises(RegimeError):
            extinction_analysis(const_traj)  # non-zero boundary
        g = Grid1D(-1.0, 1.0, 16)
        pr = CauchyDirichletProblem(
            ExponentTriple(3.0, 1.0, 1), g, _bump(g), 1e-3
        )
        slow = solve(pr, SolverConfig(dt=1e-3))
        with pytest.raises(RegimeError):
            extinction_analysis(slow)  # q + 1 <= p

    def test_probe_outside_domain(self, bump_traj):
        # cartesian (-1, 1): on the edge and past it on either side
        for x_o in (1.0, 1.5, -1.2):
            with pytest.raises(RegimeError, match="not inside the domain"):
                extinction_analysis(bump_traj, x_o=(0.0, x_o))

    def test_probe_times_before_t_start_clamp(self):
        # extinction at T_num = 0.164 from t_start = 0.1: the first probe
        # time 0.55 T_num lies before t_start and reads the first stored row
        g = Grid1D(0.0, 1.0, 24, "radial", 3)
        xi = (g.centers() - g.x_lo) / (g.x_hi - g.x_lo)
        pr = CauchyDirichletProblem(
            ExponentTriple(2.0, 2.0, 3), g, np.cos(np.pi * xi / 2) ** 8, 0.4,
            t_start=0.1,
        )
        traj = solve(pr, SolverConfig(dt=2e-3))
        rep = extinction_analysis(traj, x_o=(0.2, 0.5))
        T_num = rep.extras["T_num"]
        t_os = np.linspace(0.55 * T_num, 0.9 * T_num, 4)
        assert t_os[0] < 0.1
        # one row per (x_o, t_o), with the scalar reads' bits
        src = SolutionSource(traj)
        want = []
        for x_o in (0.2, 0.5):
            d = 1.0 - x_o
            for t_o in t_os:
                rate = ((T_num - t_o) / d**2.0) ** (1 / 1.0)
                want.append(
                    {
                        "x_o": x_o,
                        "t_o": float(t_o),
                        "gamma_u": src.eval(x_o, t_o) / rate,
                        "gamma_du": src.grad_norm(x_o, t_o) / (rate / d),
                    }
                )
        assert rep.probes == want
        assert src.eval(0.2, t_os[0]) == src.eval(0.2, 0.1)
        assert rep.implied_constant == max(pc["gamma_u"] for pc in want)

    @pytest.mark.parametrize("n_cells, dt, span, verdict", [
        (24, 2e-3, 0.3, "diverging"),  # T_num 0.064 > T_bound 0.0566
        (80, 2.5e-4, 0.1, "bounded"),
    ])
    def test_shifted_start_reads_the_same(self, n_cells, dt, span, verdict):
        # the same run from t_start = 0 and from t_start = 0.1: the energy
        # comparison and the extinction bound see elapsed time
        g = Grid1D(0.0, 1.0, n_cells, "radial", 3)
        xi = (g.centers() - g.x_lo) / (g.x_hi - g.x_lo)
        reps = []
        for t_start in (0.0, 0.1):
            pr = CauchyDirichletProblem(
                ExponentTriple(2.0, 2.0, 3), g, np.cos(np.pi * xi / 2) ** 8,
                t_start + span, t_start=t_start,
            )
            reps.append(extinction_analysis(solve(pr, SolverConfig(dt=dt))))
        base, shifted = reps
        assert shifted.verdict == base.verdict == verdict
        for key in ("max_excess", "T_bound", "mu"):
            assert shifted.extras[key] == pytest.approx(
                base.extras[key], rel=1e-9, abs=1e-12
            )
        assert shifted.extras["T_num"] == pytest.approx(
            base.extras["T_num"] + 0.1, abs=1e-12
        )

    def test_no_extinction_inconclusive(self, bump_traj):
        rep = extinction_analysis(bump_traj)
        assert rep.verdict == "inconclusive"

    def test_decay_fit(self):
        sol = SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, T=1.0)
        slope, r2 = decay_exponent_fit(sol, 0.0)
        # exact decay exponent at the origin is N/|lambda_q| = 40/74
        assert slope == pytest.approx(40.0 / 74.0, rel=1e-6)
        assert r2 > 0.999999

    def test_decay_fit_of_a_constant_series(self):
        # a constant u shows no power law: slope 0 and r^2 0, where the fit
        # read a slope of 8e-17 and r^2 = -4.3e269
        class Flat(ClosedFormSolution):
            T = 1.0

            def u_rt(self, r, t, power=None):
                return np.full(np.broadcast(r, t).shape, 2.0)

        assert decay_exponent_fit(Flat(None), 0.0) == (0.0, 0.0)

    @staticmethod
    def _decay_times(T):
        return T - (T * (1 - 0.9)) * np.logspace(
            0, math.log10((1 - 0.999) / (1 - 0.9)), 24
        )

    @pytest.mark.parametrize("sol, x_o", [
        (SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, T=1.0), 0.0),
        (SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, T=2.0, C=-1.0), 7.0),
        (BoundednessBorderline(n_dim=3, p=2.0), 0.5),
        (BoundednessBorderline(n_dim=4, p=1.7, a=0.3, T=2.0), -1.5),
    ])
    def test_decay_fit_reads_the_point_values(self, sol, x_o):
        # one column of the u table: the fit of 24 point reads, bit for bit
        ts = self._decay_times(sol.T)
        want = _loglog_fit(np.log(sol.T - ts), np.log([sol.eval([x_o], t) for t in ts]))
        assert decay_exponent_fit(sol, x_o) == want

    def test_decay_fit_refuses_the_first_time_outside(self):
        # the C < 0 variant's edge R(t) passes x_o = 5.9 inside [0.9 T, 0.999 T]:
        # the refusal is the point read's, at the first time past the edge
        sol = SupercriticalExtinction(n_dim=40, p=2.0, q=3.0, T=2.0, C=-1.0)
        ts = self._decay_times(sol.T)
        ok = sol.valid_lattice([5.9], ts)[:, 0]
        assert ok[0] and not ok[-1]
        with pytest.raises(DomainError) as want:
            for t in ts:
                sol.eval([5.9], t)
        with pytest.raises(DomainError) as got:
            decay_exponent_fit(sol, 5.9)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"(5.9, {ts[np.argmin(ok)]}) outside")


class TestGradientBound:
    def test_constant_bounded(self, const_traj):
        src = SolutionSource(const_traj)
        rep = gradient_bound(src, [(0.0, 0.05, 0.1), (0.0, 0.05, 0.2)])
        assert rep.verdict == "bounded"
        assert rep.implied_constant == pytest.approx(0.0, abs=1e-9)

    def test_trudinger_center_ratios(self):
        # |Du|/u = x/(2t) for the gaussian: K = n/2 at (n, 1) with rho = 1
        src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
        probes = [(float(n), 1.0, 1.0) for n in (1, 2, 4, 8, 16)]
        rep = gradient_bound(src, probes, lattice=1)
        ks = list(rep.lhs)
        assert ks == pytest.approx([0.5, 1.0, 2.0, 4.0, 8.0], rel=1e-12)
        assert rep.verdict == "diverging"

    def test_nonpositive_center(self, zero_traj):
        src = SolutionSource(zero_traj)
        with pytest.raises(RegimeError):
            gradient_bound(src, [(0.0, 1e-3, 0.1)], lattice=1)

    def test_nonpositive_center_names_first_probe(self, zero_traj):
        src = SolutionSource(zero_traj)
        probes = [(0.0, 1e-3, 0.1), (0.0, 1e-3, 0.2)]
        with pytest.raises(RegimeError, match=r"at probe \(0\.0, 0\.001, 0\.1\)$"):
            gradient_bound(src, probes, lattice=1)

    @pytest.mark.parametrize("x_o, t_o", [(5.0, 0.05), (0.0, 3.0)])
    def test_center_outside_the_run_is_refused(self, const_traj, x_o, t_o):
        """A lattice-1 cylinder is its center: on a run, one past the domain
        or past t_end is refused, not read at the clamped edge (K = 0.0)."""
        src = SolutionSource(const_traj)
        message = f"cylinder leaves the domain at probe {(x_o, t_o, 0.5)}"
        with pytest.raises(RegimeError, match=f"^{re.escape(message)}$"):
            gradient_bound(src, [(x_o, t_o, 0.5)], lattice=1)

    @pytest.mark.parametrize("lattice", [1, 8])
    def test_u_o_read_once_per_base_point(self, monkeypatch, lattice):
        """Probes that share a base point share its one u_o: the same report
        as one probe per call, from one read of every center and one read of
        every cylinder (at lattice 1, the centers again), with no one-point
        `eval` or `grad_norm`."""
        src = SolutionSource(TrudingerGaussian(p=2.0, n_dim=1))
        # t_o = 5: the half-height rho^2 keeps every cylinder in t > 0
        probes = [(4.0, 5.0, 0.5), (4.0, 5.0, 1.0), (6.0, 5.0, 1.0), (4.0, 5.0, 2.0)]
        singles = [gradient_bound(src, [pr], lattice) for pr in probes]
        reads = _record_reads(monkeypatch, src)
        rep = gradient_bound(src, probes, lattice)
        side = (4, lattice)
        assert reads == [(("eval",), (4, 1), (4, 1)), (("grad_norm",), side, side)]
        assert rep.lhs == [k for r in singles for k in r.lhs]
        assert rep.probes == [pr for r in singles for pr in r.probes]


class TestHolderFit:
    def test_needs_four_radii(self, bump_traj):
        src = SolutionSource(bump_traj)
        with pytest.raises(ValueError):
            holder_fit(src, 0.0, 1e-2, [0.1, 0.2, 0.3])

    def test_affine_profile_inconclusive(self, linear_traj):
        # Du is constant: oscillations vanish, alpha is effectively infinite
        src = SolutionSource(linear_traj)
        rep = holder_fit(src, 0.0, 0.05, [0.05, 0.1, 0.15, 0.2])
        assert rep.verdict == "inconclusive"
        assert math.isinf(rep.extras["alpha_fit"])

    def test_smooth_profile_capped_at_one(self, bump_traj):
        src = SolutionSource(bump_traj)
        rep = holder_fit(src, 0.3, 1e-2, [0.02, 0.04, 0.06, 0.08, 0.1])
        assert 0 < rep.extras["alpha_fit"] <= 1.0
        assert rep.extras["lipschitz"] > 0
        assert rep.extras["r_squared"] > 0.9
        assert rep.verdict == "bounded"


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), 1.5])
def test_expansion_alpha_outside_unit_interval(bump_traj, alpha):
    src = SolutionSource(bump_traj)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
        expansion_of_positivity(src, 0.0, 2e-3, 0.25, M=0.5, alpha=alpha)
