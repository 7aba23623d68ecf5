"""Tests for the implicit finite-volume solver."""

import dataclasses
import hashlib
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from dnl_lab import cli, solver
from dnl_lab.core import ExponentTriple, Grid1D
from dnl_lab.exact import ClosedFormSolution, TrudingerGaussian
from dnl_lab.solver import (
    CauchyDirichletProblem,
    SolverConfig,
    StepFailure,
    _Discretization,
    _beta,
    step,
    solve,
    time_grid,
    check_comparison,
    transform_to_v,
    slice_functionals,
    gradient_p_norm,
)


def _bump(g, amp=1.0):
    x = g.centers()
    xi = (x - 0.5 * (g.x_lo + g.x_hi)) / (0.5 * (g.x_hi - g.x_lo))
    return amp * np.cos(0.5 * np.pi * xi) ** 2


class TestProblemValidation:
    def test_shapes_and_signs(self):
        g = Grid1D(0.0, 1.0, 8)
        e = ExponentTriple(2.0, 1.0, 1)
        with pytest.raises(ValueError):
            CauchyDirichletProblem(e, g, np.ones(7), 1.0)
        with pytest.raises(ValueError):
            CauchyDirichletProblem(e, g, -np.ones(8), 1.0)
        with pytest.raises(ValueError):
            CauchyDirichletProblem(e, g, np.ones(8), 1.0, boundary="bogus")
        with pytest.raises(ValueError):
            CauchyDirichletProblem(e, g, np.ones(8), 1.0, boundary="from_exact")
        with pytest.raises(ValueError, match="requires boundary_values"):
            CauchyDirichletProblem(e, g, np.ones(8), 1.0, boundary="dirichlet")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_data(self, bad):
        u0 = np.ones(8)
        u0[3] = bad
        with pytest.raises(ValueError, match="initial data must be finite"):
            CauchyDirichletProblem(
                ExponentTriple(2.0, 1.0, 1), Grid1D(0.0, 1.0, 8), u0, 1.0
            )

    def test_mu_default(self):
        g = Grid1D(0.0, 1.0, 8)
        pr = CauchyDirichletProblem(
            ExponentTriple(1.5, 1.0, 1), g, np.ones(8), 1.0
        )
        assert pr.mu > 0
        pr2 = CauchyDirichletProblem(
            ExponentTriple(2.0, 1.0, 1), g, np.ones(8), 1.0
        )
        assert pr2.mu == 0.0


class TestConfigValidation:
    def test_errors(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0)
        with pytest.raises(ValueError):
            SolverConfig(newton_tol=-1.0)

    def test_fields(self):
        # no positivity floor: a step's return is max(u, 0) of its iterate
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert fields == ["dt", "newton_tol", "max_newton"]


class TestBeta:
    def test_zero_cell_below_q_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = _beta(np.array([0.0, 0.5]), 0.2)
        assert b[0] == 0.0
        assert b[1] == pytest.approx(0.5**0.2, rel=1e-15)

    def test_matches_power_away_from_zero(self):
        u = np.array([0.0, 1e-3, 0.5, 1.0])
        for q in (0.2, 0.7, 1.0, 2.0, 3.5):
            assert np.array_equal(_beta(u, q)[1:], np.abs(u[1:]) ** (q - 1) * u[1:])
            assert _beta(u, q)[0] == 0.0


def _scipy_banded(lower, main, upper, rhs):
    """scipy's solve_banded on the (3, n) banded form of the diagonals."""
    ab = np.zeros((3, main.size))
    ab[0, 1:] = upper
    ab[1] = main
    ab[2, :-1] = lower
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


@st.composite
def _dominant_system(draw):
    """(lower, main, upper, rhs) of a strictly diagonally dominant system."""
    n = draw(st.integers(2, 64))
    entry = st.floats(-1e6, 1e6, allow_nan=False)
    lower = draw(arrays(np.float64, n - 1, elements=entry))
    upper = draw(arrays(np.float64, n - 1, elements=entry))
    margin = draw(arrays(np.float64, n, elements=st.floats(1e-6, 1e6)))
    sign = draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    # row i holds lower[i - 1] and upper[i]
    off = np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0])
    main = sign * (off + margin)
    rhs = draw(arrays(np.float64, n, elements=st.floats(-1e9, 1e9, allow_nan=False)))
    return lower, main, upper, rhs


class TestSolveBanded:
    @given(_dominant_system())
    def test_same_bits_as_scipy(self, system):
        want = _scipy_banded(*system)
        # solve_banded overwrites its arguments
        got = solver.solve_banded(*(a.copy() for a in system))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, which, bad):
        system = [np.full(4, 0.5), np.full(5, 3.0), np.full(4, -1.0), np.ones(5)]
        system[which][1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _scipy_banded(*system)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver.solve_banded(*(a.copy() for a in system))

    def test_singular(self):
        # rows (1, 1) and (1, 1): the second pivot is zero
        system = [np.ones(1), np.ones(2), np.ones(1), np.array([1.0, 2.0])]
        with pytest.raises(np.linalg.LinAlgError):
            _scipy_banded(*system)
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve_banded(*(a.copy() for a in system))

    def test_solve_banded_on_entries_whose_dot_overflows(self):
        # entries of 1e200 are finite, but their dot product is inf: the
        # entrywise check runs and passes, and the solve is scipy's
        n = 6
        buf = np.empty(4 * n - 2)
        lower, upper = buf[: n - 1], buf[n - 1 : 2 * n - 2]
        main, rhs = buf[2 * n - 2 : 3 * n - 2], buf[3 * n - 2 :]
        lower[...], upper[...] = -1e200, -1e200
        main[...] = 4e200
        rhs[...] = np.arange(1.0, n + 1) * 1e200
        with np.errstate(over="ignore"):
            assert not np.isfinite(buf.dot(buf))
        want = _scipy_banded(lower, main, upper, rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solver.solve_banded(lower, main, upper, rhs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # one inf among them still raises
        main[...], rhs[...] = 4e200, 1e200
        upper[2] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver.solve_banded(lower, main, upper, rhs)

    def test_singular_jacobian_fails_the_step(self):
        g = Grid1D(-1.0, 1.0, 8)
        pr = CauchyDirichletProblem(ExponentTriple(2.0, 1.0, 1), g, _bump(g), 1.0)
        cfg = SolverConfig(dt=1e-3)
        disc = _Discretization(pr)
        disc.jacobian_bands = lambda *args, **kwargs: (
            np.zeros(7), np.zeros(8), np.zeros(7)
        )
        with pytest.raises(StepFailure, match="linear solve failed"):
            step(pr, pr.initial, 0.0, cfg.dt, cfg, disc=disc)


class TestStepBasics:
    def test_constant_state_preserved(self):
        # constant data with matching dirichlet boundary is a steady state
        g = Grid1D(0.0, 1.0, 16)
        e = ExponentTriple(3.0, 2.0, 1)
        pr = CauchyDirichletProblem(
            e,
            g,
            np.full(16, 0.7),
            1.0,
            boundary="dirichlet",
            boundary_values=lambda t: (0.7, 0.7),
        )
        u, info = step(pr, pr.initial, 0.0, 1e-2, SolverConfig(dt=1e-2))
        assert np.max(np.abs(u - 0.7)) < 1e-12

    def test_maximum_principle_and_mass_decay(self):
        g = Grid1D(-1.0, 1.0, 32)
        e = ExponentTriple(2.0, 2.0, 1)
        pr = CauchyDirichletProblem(e, g, _bump(g), 1.0)
        cfg = SolverConfig(dt=1e-3)
        u = pr.initial
        for k in range(5):
            u, _ = step(pr, u, k * cfg.dt, cfg.dt, cfg)
            assert np.all(u >= 0.0)
            assert u.max() <= pr.initial.max() + 1e-12

    def test_shared_discretization_same_arrays(self):
        # solve builds one _Discretization per run; a step given it must
        # give the bytes of a step that builds its own
        # (p = 2 takes the Jacobian face factor that the discretization
        # builds once)
        for p, geometry, x_lo in (
            (3.0, "radial", 0.0),
            (2.0, "radial", 0.0),
            (3.0, "cartesian", -1.0),
        ):
            g = Grid1D(x_lo, 1.0, 24, geometry, 3)
            pr = CauchyDirichletProblem(
                ExponentTriple(p, 2.0, 3), g, _bump(g), 1.0
            )
            cfg = SolverConfig(dt=1e-3)
            disc = _Discretization(pr)
            u_own = u_shared = pr.initial
            for k in range(4):
                u_own, info_own = step(pr, u_own, k * cfg.dt, cfg.dt, cfg)
                u_shared, info_shared = step(
                    pr, u_shared, k * cfg.dt, cfg.dt, cfg, disc=disc
                )
                assert np.array_equal(u_own, u_shared)
                assert info_own == info_shared

    def test_failure_names_time_and_ratio(self):
        # p = 1.5, q = 0.3 with data on [0, 0.2) of 200 radial cells fails
        # at the first step (and at every split of it)
        g = Grid1D(0.0, 1.0, 200, "radial", 3)
        x = g.centers()
        u0 = np.where(x < 0.2, np.cos(np.pi * x / 0.4) ** 2, 0.0)
        pr = CauchyDirichletProblem(ExponentTriple(1.5, 0.3, 3), g, u0, 1.0)
        with pytest.raises(StepFailure) as info:
            step(pr, pr.initial, 0.0, 2e-4, SolverConfig(dt=2e-4))
        exc = info.value
        assert exc.time == pytest.approx(2e-4)
        assert exc.residual > 100 * exc.tol
        assert str(exc) == (
            "nonlinear iteration did not converge at t=0.0002: "
            f"residual {exc.residual:.3e} = {exc.residual / exc.tol:.3g}× tol"
        )

    def test_step_errors(self):
        g = Grid1D(0.0, 1.0, 8)
        e = ExponentTriple(2.0, 1.0, 1)
        pr = CauchyDirichletProblem(e, g, np.ones(8), 1.0)
        with pytest.raises(ValueError):
            step(pr, pr.initial, 0.0, -1e-3, SolverConfig())
        with pytest.raises(ValueError):
            step(pr, -np.ones(8), 0.0, 1e-3, SolverConfig())


class TestSolve:
    def test_time_grid(self):
        g = Grid1D(-1.0, 1.0, 16)
        e = ExponentTriple(2.0, 1.0, 1)
        pr = CauchyDirichletProblem(e, g, _bump(g), 0.0105)
        traj = solve(pr, SolverConfig(dt=1e-3))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.0105, abs=1e-12)
        # uniform dt with one short final step
        dts = np.diff(traj.times)
        assert np.allclose(dts[:-1], 1e-3)
        assert dts[-1] == pytest.approx(5e-4, rel=1e-6)

    def test_shared_time_grid_is_the_solved_grid(self):
        # t_start > 0 and a short final step: the stored times of `solve`
        # are the floats `time_grid` gives, element for element
        g = Grid1D(0.0, 1.0, 12, "radial", 3)
        e = ExponentTriple(2.0, 2.0, 3)
        pr = CauchyDirichletProblem(e, g, _bump(g), 0.0437, t_start=0.03)
        cfg = SolverConfig(dt=7e-4)
        times, dts = time_grid(pr, cfg)
        solved = solve(pr, cfg).times
        assert len(times) == len(solved) == len(dts) + 1 == 21
        assert all(a == b and type(a) is type(b) for a, b in zip(times, solved))
        assert dts[:-1] == [7e-4] * 19
        assert 0 < dts[-1] < 7e-4

    def test_time_grid_keeps_a_sliver_that_is_the_only_step(self):
        # a short step under 1e-9 dt is dropped after a full step, but a
        # span that short is one step, not a grid with no step
        g = Grid1D(0.0, 1.0, 8)
        e = ExponentTriple(2.0, 1.0, 1)
        cfg = SolverConfig(dt=1e-3)
        times, dts = time_grid(CauchyDirichletProblem(e, g, _bump(g), 1e-15), cfg)
        assert times == [0.0, 1e-15] and dts == [1e-15]
        times, dts = time_grid(
            CauchyDirichletProblem(e, g, _bump(g), 1e-3 + 1e-15), cfg
        )
        assert times == [0.0, 1e-3] and dts == [1e-3]

    @pytest.mark.parametrize("geometry", ["radial", "cartesian"])
    def test_trajectory_steps_to_the_row_it_reads(self, monkeypatch, geometry):
        # rows read out of order are those of `solve`, bit for bit, with the
        # record of the steps taken so far; a row read again takes no step
        if geometry == "radial":
            g = Grid1D(0.0, 1.0, 12, "radial", 3)
        else:
            g = Grid1D(-1.0, 1.0, 12)
        u0 = np.clip(_bump(g) - 0.3, 0.0, None)
        pr = CauchyDirichletProblem(ExponentTriple(2.5, 1.5, g.n_dim), g, u0, 0.02)
        cfg = SolverConfig(dt=1e-3)
        solved = solve(pr, cfg)
        traj = solver.Trajectory(pr, cfg)
        bits = lambda a: np.asarray(a, dtype=float).view(np.int64).tolist()
        for i in (3, 1, 5):
            assert bits(traj.row(i)) == bits(solved.fields[i])
        assert bits(traj.fields) == bits(solved.fields[:6])
        assert traj.newton_iters == solved.newton_iters[:6]
        assert bits(traj.residual_norms) == bits(solved.residual_norms[:6])
        calls = []
        real = solver.step
        monkeypatch.setattr(
            solver, "step", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        traj.row(5)
        assert calls == []
        # a row index off the time grid names no row
        for i in (-1, len(traj.times)):
            with pytest.raises(IndexError):
                traj.row(i)
        assert calls == []

    def test_exact_tracking(self):
        # heat equation (p=2, q=1) against the gaussian kernel
        sol = TrudingerGaussian(p=2.0, n_dim=1)
        g = Grid1D(-2.0, 2.0, 100)
        e = sol.exponents
        u0 = sol.u_rt(np.abs(g.centers()), 0.5)
        pr = CauchyDirichletProblem(
            e, g, u0, 0.6, boundary="from_exact", exact=sol, t_start=0.5
        )
        traj = solve(pr, SolverConfig(dt=1e-3))
        exact = sol.u_rt(np.abs(g.centers()), 0.6)
        assert np.max(np.abs(traj.fields[-1] - exact)) < 2e-3


def _digest_run(name):
    """(problem, config) of one trajectory-digest case."""
    cart = Grid1D(-1.0, 1.0, 16)
    ball = Grid1D(0.0, 1.0, 16, "radial", 3)
    if name == "cartesian-dirichlet-p3-q2":
        return (
            CauchyDirichletProblem(
                ExponentTriple(3.0, 2.0, 1), cart, _bump(cart) + 0.2, 1.0,
                boundary="dirichlet",
                boundary_values=lambda t: (0.2 + t, 0.2),
            ),
            SolverConfig(dt=1e-3),
        )
    if name == "cartesian-support-p1.5-q0.5":
        u0 = np.clip(_bump(cart) - 0.3, 0.0, None)
        return (
            CauchyDirichletProblem(ExponentTriple(1.5, 0.5, 1), cart, u0, 1.0),
            SolverConfig(dt=1e-3),
        )
    if name == "annulus-dirichlet-p3-q0.5":
        g = Grid1D(0.5, 1.5, 16, "radial", 2)
        return (
            CauchyDirichletProblem(
                ExponentTriple(3.0, 0.5, 2), g, _bump(g) + 0.1, 1.0,
                boundary="dirichlet",
                boundary_values=lambda t: (0.1, 0.1),
            ),
            SolverConfig(dt=1e-3),
        )
    if name == "radial-p1.5-q2":
        return (
            CauchyDirichletProblem(
                ExponentTriple(1.5, 2.0, 3), ball, _bump(ball), 1.0
            ),
            SolverConfig(dt=1e-3),
        )
    if name == "cartesian-from-exact-p1.5-q0.5":
        sol = TrudingerGaussian(p=1.5, n_dim=1)
        g = Grid1D(-2.0, 2.0, 16)
        u0 = sol.u_rt(np.abs(g.centers()), 0.5)
        return (
            CauchyDirichletProblem(
                sol.exponents, g, u0, 1.0,
                boundary="from_exact", exact=sol, t_start=0.5,
            ),
            SolverConfig(dt=1e-3),
        )
    if name == "radial-from-exact-p3-q2":
        sol = TrudingerGaussian(p=3.0, n_dim=3)
        g = Grid1D(0.0, 2.0, 16, "radial", 3)
        return (
            CauchyDirichletProblem(
                sol.exponents, g, sol.u_rt(g.centers(), 0.5), 1.0,
                boundary="from_exact", exact=sol, t_start=0.5,
            ),
            SolverConfig(dt=1e-3),
        )
    if name == "cartesian-damped-escape-p3-q0.5":
        # compact support at q < 1: the line search fails, the 0.1-damped
        # escape runs, and the first step, which fails, is split
        u0 = np.clip(_bump(cart) - 0.3, 0.0, None)
        return (
            CauchyDirichletProblem(ExponentTriple(3.0, 0.5, 1), cart, u0, 1.0),
            SolverConfig(dt=1e-3),
        )
    raise KeyError(name)


# sha256 of np.stack(traj.fields).tobytes() after five steps.  Recorded with
# the Newton step that solved through scipy's solve_banded and recomputed
# beta(u_prev) in every residual: the step's arithmetic must not change.
# The damped escape's digest was recorded again when it came to split its
# first step.  None of these paths (dirichlet/from_exact boundaries, an
# annulus, the damped escape) is reached by a preset.
TRAJECTORY_DIGESTS = {
    "cartesian-dirichlet-p3-q2":
        "8285318a9bce1cdc93e5b78cb5193e271d2971f958376cf9ea16da2885928f1b",
    "cartesian-support-p1.5-q0.5":
        "0db8cc7ae0766199be0da84cb342b3fab2211b7b7c05bef86960398af641ee2e",
    "annulus-dirichlet-p3-q0.5":
        "804bb0e6b9ec599d05642f6f441ef43cb6a71e85f69b99e76fc24882ee0079ce",
    "radial-p1.5-q2":
        "103c427439947898e40692efd54173ec4e19dcd9be837738024202c130cf8e1d",
    "cartesian-from-exact-p1.5-q0.5":
        "247a146517041e584cacfd017b3afa75337ddad4cddd7959d829f7b2abf5b37e",
    "radial-from-exact-p3-q2":
        "8ab97326c0cc256124e2ad5244c2287fbf96b6c43c3260a4d2983d03459cb36e",
    "cartesian-damped-escape-p3-q0.5":
        "7a7fc18edc2efb09f61794995419f45cfded670ce28313f1d09ab144f069b4c6",
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
def test_trajectory_digest(name):
    pr, cfg = _digest_run(name)
    pr.t_end = pr.t_start + 5 * cfg.dt
    traj = solve(pr, cfg)
    digest = hashlib.sha256(np.stack(traj.fields).tobytes()).hexdigest()
    assert digest == TRAJECTORY_DIGESTS[name]


def test_from_exact_ghosts_once_per_step(monkeypatch):
    """A from_exact boundary evaluates the closed form at its two ghost cells
    once per step (5 steps, 10 calls), not on every residual call (30), with
    the same bits."""
    pr, cfg = _digest_run("radial-from-exact-p3-q2")
    pr.t_end = pr.t_start + 5 * cfg.dt
    calls = []
    eval_ = ClosedFormSolution.eval

    def counted(self, x, t):
        calls.append(t)
        return eval_(self, x, t)

    monkeypatch.setattr(ClosedFormSolution, "eval", counted)
    traj = solve(pr, cfg)
    assert len(calls) == 10
    digest = hashlib.sha256(np.stack(traj.fields).tobytes()).hexdigest()
    assert digest == TRAJECTORY_DIGESTS["radial-from-exact-p3-q2"]


class TestEscapeRoutes:
    """Each way a stalled Newton iteration gets on, shown running on a
    preset run that needs it."""

    def _trials(self, monkeypatch):
        """Spy on every workspace; the list gets, per Newton iteration, its
        count of trial residuals: 9 is 8 halvings that all failed and the
        0.1-damped step."""
        trials = []
        jacobian, residual = _Discretization.jacobian_bands, _Discretization.residual

        def counted_jacobian(disc, *args):
            trials.append(0)
            return jacobian(disc, *args)

        def counted_residual(disc, state, b_prev, t_new, dt, b_u=None):
            if b_u is None:
                trials[-1] += 1
            return residual(disc, state, b_prev, t_new, dt, b_u=b_u)

        monkeypatch.setattr(_Discretization, "jacobian_bands", counted_jacobian)
        monkeypatch.setattr(_Discretization, "residual", counted_residual)
        return trials

    def _steps(self, monkeypatch):
        """Spy on `solver.step`; the list gets (dt, residual / tolerance) of
        each step that returns and (dt, None) of each that fails."""
        calls = []
        real = solver.step

        def spied(problem, u_prev, t, dt, config, disc=None):
            try:
                u, info = real(problem, u_prev, t, dt, config, disc=disc)
            except StepFailure:
                calls.append((dt, None))
                raise
            scale = (float(_beta(u_prev, disc.q).max()) + 1e-14) * disc.vol_max / dt
            calls.append((dt, info["residual"] / (config.newton_tol * scale)))
            return u, info

        monkeypatch.setattr(solver, "step", spied)
        return calls

    def test_damped_step_and_tolerance_band(self, monkeypatch, capsys, tmp_path):
        # the run of `test_vanishing_data_below_q_one_converge` on [-1, 1]:
        # 212 iterations take the damped step, and 35 steps are accepted over
        # their tolerance, within 100 times it; no step is split
        trials = self._trials(monkeypatch)
        calls = self._steps(monkeypatch)
        argv = ["solve", "--preset", "solver-supercritical-run", "--p", "2",
                "--q", "0.5", "--initial", "steep_bump",
                "--geometry", "cartesian", "--x_lo", "-1", "--x_hi", "1",
                "--out", str(tmp_path / "run")]
        assert cli.run(argv) == 0
        assert trials.count(9) == 212 and max(trials) == 9
        assert [dt for dt, _ in calls] == [2e-4] * 200
        ratios = [ratio for _, ratio in calls]
        assert sum(ratio > 1 for ratio in ratios) == 35 and max(ratios) <= 100

    def test_split(self, monkeypatch, capsys, tmp_path):
        # p = 1.5, q = 0.5 on [-1, 1]: step 7 fails, and its two halves,
        # taken instead, make one stored row
        calls = self._steps(monkeypatch)
        kept = []
        monkeypatch.setattr(
            cli, "solve", lambda pr, sc: kept.append(solver.solve(pr, sc)) or kept[-1]
        )
        argv = ["solve", "--preset", "solver-supercritical-run", "--p", "1.5",
                "--q", "0.5", "--t_end", "0.01", "--geometry", "cartesian",
                "--x_lo", "-1", "--x_hi", "1", "--out", str(tmp_path / "run")]
        assert cli.run(argv) == 0
        assert [dt for dt, _ in calls] == [2e-4] * 7 + [1e-4] * 2 + [2e-4] * 43
        assert calls[6][1] is None
        [traj] = kept
        assert len(traj.fields) == len(traj.times) == 51
        assert traj.newton_iters[7] == 15  # 5 and 10 in its halves


@pytest.mark.parametrize("p", [1.3, 1.6, 2.0, 3.0, 4.5])
def test_regime_sweep(p):
    """`solver-supercritical-run` over slow, Trudinger and fast diffusion,
    p < 2, q < 1 and p >= N, radial N = 1, 3 and cartesian (which ignores
    N): 15 runs per p, five steps each from cos_bump data scaled by 1 and by
    0.5.  Every run steps to t_end with finite values, u >= 0 and sup u
    non-increasing, and the 0.5 run stays below the 1 run."""
    base = cli.preset("solver-supercritical-run")[1]
    for q, (n_dim, geometry) in itertools.product(
        (0.3, 0.6, 1.0, 2.0, 4.0), ((1, "radial"), (3, "radial"), (1, "cartesian"))
    ):
        where = (p, q, n_dim, geometry)
        runs = []
        for scale in ("1", "0.5"):
            cfg = cli._merge(base, {
                "exponents": {"p": f"{p}", "q": f"{q}", "N": f"{n_dim}"},
                "grid": {"geometry": geometry},
                "solver": {"t_end": "1e-3", "initial_scale": scale},
            })
            traj = solve(*cli.build_problem(cfg))
            u = np.stack(traj.fields)
            assert u.shape == (6, 200), where
            assert np.isfinite(u).all() and (u >= 0).all(), where
            assert (np.diff(u.max(axis=1)) <= 0).all(), where
            runs.append(traj)
        assert check_comparison(runs[1], runs[0])["passes"], where


class TestComparison:
    def _traj(self, amp, n=24, t_end=5e-3, q=2.0):
        g = Grid1D(-1.0, 1.0, n)
        e = ExponentTriple(2.0, q, 1)
        pr = CauchyDirichletProblem(e, g, _bump(g, amp), t_end)
        return solve(pr, SolverConfig(dt=1e-3))

    def test_identical(self):
        a = self._traj(1.0)
        b = self._traj(1.0)
        rep = check_comparison(a, b)
        assert rep["violation"] == 0.0 and rep["passes"]

    def test_ordered(self):
        small = self._traj(0.5)
        big = self._traj(1.0)
        rep = check_comparison(small, big)
        assert rep["passes"]
        # and the reverse ordering is detected as a violation
        rep2 = check_comparison(big, small)
        assert not rep2["passes"]
        assert rep2["violation"] > 0.1

    def test_mismatch_errors(self):
        a = self._traj(1.0, n=24)
        b = self._traj(1.0, n=32)
        with pytest.raises(ValueError):
            check_comparison(a, b)
        c = self._traj(1.0, t_end=4e-3)
        with pytest.raises(ValueError):
            check_comparison(a, c)
        d = self._traj(1.0, q=1.5)
        with pytest.raises(ValueError, match="^mismatched exponents$"):
            check_comparison(a, d)


class TestTransformToV:
    def test_q1_identity(self):
        g = Grid1D(-1.0, 1.0, 16)
        e = ExponentTriple(2.0, 1.0, 1)
        pr = CauchyDirichletProblem(
            e,
            g,
            _bump(g) + 0.5,
            2e-3,
            boundary="dirichlet",
            boundary_values=lambda t: (0.5, 0.5),
        )
        traj = solve(pr, SolverConfig(dt=1e-3))
        v_fields, a_fields, rep = transform_to_v(traj)
        for v, u in zip(v_fields, traj.fields):
            assert np.allclose(v, u)
        for a in a_fields:
            assert np.allclose(a, 1.0)
        assert rep["C_o"] == pytest.approx(1.0)
        assert rep["C_1"] == pytest.approx(1.0)

    def test_coefficient_bounds(self):
        g = Grid1D(-1.0, 1.0, 16)
        e = ExponentTriple(2.0, 2.0, 1)
        pr = CauchyDirichletProblem(
            e,
            g,
            _bump(g) + 0.5,
            2e-3,
            boundary="dirichlet",
            boundary_values=lambda t: (0.5, 0.5),
        )
        traj = solve(pr, SolverConfig(dt=1e-3))
        v_fields, a_fields, rep = transform_to_v(traj)
        # a = (1/q)^{p-1} u^{(p-1)(1-q)} = 1/(2u) here
        assert 0 < rep["C_o"] <= rep["C_1"]
        u_max = max(float(u.max()) for u in traj.fields)
        assert rep["C_o"] == pytest.approx(1.0 / (2 * u_max), rel=1e-12)
        for v, u in zip(v_fields, traj.fields):
            assert np.allclose(v, u**2)

    def test_positivity_required(self):
        g = Grid1D(-1.0, 1.0, 16)
        e = ExponentTriple(2.0, 2.0, 1)
        u0 = np.clip(_bump(g) - 0.3, 0.0, None)  # vanishes near the boundary
        pr = CauchyDirichletProblem(e, g, u0, 1e-3)
        traj = solve(pr, SolverConfig(dt=1e-3))
        with pytest.raises(ValueError):
            transform_to_v(traj)


class TestFunctionals:
    def test_decay_of_integrals(self):
        g = Grid1D(0.0, 1.0, 32, "radial", 3)
        e = ExponentTriple(2.0, 2.0, 3)
        pr = CauchyDirichletProblem(e, g, _bump(g), 5e-3)
        traj = solve(pr, SolverConfig(dt=1e-3))
        f = slice_functionals(traj)
        assert np.all(np.diff(f["int_uq1"]) <= 1e-12)
        assert np.all(np.diff(f["sup_u"]) <= 1e-12)
        assert f["t"].shape == f["int_uq1"].shape

    @pytest.mark.parametrize("name, overrides", [
        ("extinction-bound", []),
        ("comparison-ordered", ["--n_cells", "1600"]),
    ])
    def test_stacked_rows_same_bits_as_row_loop(self, name, overrides):
        # one (rows, n) array summed along its rows, against one sum per row
        sub, cfg = cli.preset(name)
        traj = solve(*cli.build_problem(cli._apply_overrides(cfg, overrides, sub)))
        e, g = traj.problem.exponents, traj.problem.grid
        w = g.cell_volumes() * g.surface_constant()
        want = {
            "t": traj.times,
            "int_uq1": [float(np.sum(w * u ** (e.q + 1))) for u in traj.fields],
            "sup_u": [float(u.max()) for u in traj.fields],
        }
        got = slice_functionals(traj)
        bits = lambda a: np.asarray(a, dtype=float).view(np.int64).tolist()
        assert sorted(got) == sorted(want)
        for key in want:
            assert bits(got[key]) == bits(want[key]), key

    def test_readers_step_an_unstepped_trajectory(self):
        # the run's readers take rows with `row`: on a Trajectory not yet
        # stepped they give the results of the solved one
        g = Grid1D(-1.0, 1.0, 16)
        pr = CauchyDirichletProblem(ExponentTriple(2.0, 2.0, 1), g,
                                    _bump(g) + 0.5, 5e-3)
        cfg = SolverConfig(dt=1e-3)
        lazy = lambda: solver.Trajectory(pr, cfg)
        solved = solve(pr, cfg)
        got, want = slice_functionals(lazy()), slice_functionals(solved)
        assert all(got[k].tolist() == want[k].tolist() for k in want)
        assert gradient_p_norm(lazy(), 5) == gradient_p_norm(solved, 5)
        # a list of rows steps to the largest and keeps the order asked for
        traj = lazy()
        want = [gradient_p_norm(solved, 5), gradient_p_norm(solved, 2)]
        assert gradient_p_norm(traj, [5, 2]).tolist() == want
        assert len(traj.fields) == 6
        assert transform_to_v(lazy())[2] == transform_to_v(solved)[2]
        # a rising boundary value puts the largest violation past row 0
        rising = CauchyDirichletProblem(
            pr.exponents, g, pr.initial, 5e-3, boundary="dirichlet",
            boundary_values=lambda t: (0.5 + 100 * t, 0.5),
        )
        want = check_comparison(solve(rising, cfg), solved)
        assert want["where"][0] > 0
        assert check_comparison(solver.Trajectory(rising, cfg), lazy()) == want

    def test_gradient_p_norm_linear_profile(self):
        # u = x on (0,1) with matching boundary: |u'|^2 integrates to 1
        g = Grid1D(0.0, 1.0, 20)
        e = ExponentTriple(2.0, 1.0, 1)
        x = g.centers()
        pr = CauchyDirichletProblem(
            e,
            g,
            x.copy(),
            1e-3,
            boundary="dirichlet",
            boundary_values=lambda t: (0.0, 1.0),
        )
        traj = solve(pr, SolverConfig(dt=1e-3))
        # face quadrature: n+1 faces of weight h, each with |Du| = 1
        assert gradient_p_norm(traj, 0) == pytest.approx(1.0 + g.h, rel=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_p_norm_radial_n1_is_the_cartesian_norm(self, p):
        # an even profile on the radial N = 1 grid [0, 1] is the cartesian
        # profile on [-1, 1]: the face at r = 0 carries no flux and no weight
        norms = []
        for g in (Grid1D(0.0, 1.0, 100, "radial", 1), Grid1D(-1.0, 1.0, 200)):
            u = np.cos(0.5 * np.pi * g.centers()) ** 2
            pr = CauchyDirichletProblem(ExponentTriple(p, 1.0, 1), g, u, 1e-3)
            norms.append(gradient_p_norm(solver.Trajectory(pr, SolverConfig()), 0))
        assert abs(norms[0] - norms[1]) <= 1e-12 * norms[1]

    @pytest.mark.parametrize("name", [
        "radial-p1.5-q2", "cartesian-support-p1.5-q0.5",
        "annulus-dirichlet-p3-q0.5", "cartesian-from-exact-p1.5-q0.5",
        "radial-from-exact-p3-q2",
    ])
    def test_gradient_p_norm_same_bits_as_plain_formula(self, name):
        # the face gradients of the run's discretization, read between its
        # steps, give the bits of ghosts concatenated and the face area
        # taken from faces(); the run's fields keep their digest
        def plain(traj, i):
            pr, g = traj.problem, traj.problem.grid
            u = traj.row(i)
            gl, gr = pr.ghost_values(u, traj.times[i])
            ue = np.concatenate([[gl], u, [gr]])
            grads = (ue[1:] - ue[:-1]) / g.h
            if g.geometry == "radial":
                area = g.faces() ** (g.n_dim - 1)
            else:
                area = np.ones(g.n_cells + 1)
            w = area * g.h * g.surface_constant()
            return float(np.sum(w * np.abs(grads) ** pr.exponents.p))

        pr, cfg = _digest_run(name)
        pr.t_end = pr.t_start + 5 * cfg.dt
        rows = (3, 0, 5, 4)
        # the rows in one call, on a trajectory that call steps
        bulk = gradient_p_norm(solver.Trajectory(pr, cfg), rows)
        traj = solver.Trajectory(pr, cfg)
        bits = lambda x: np.float64(x).view(np.int64)
        for i, norm in zip(rows, bulk, strict=True):
            assert bits(gradient_p_norm(traj, i)) == bits(plain(traj, i))
            assert bits(norm) == bits(plain(traj, i))
        digest = hashlib.sha256(np.stack(traj.fields).tobytes()).hexdigest()
        assert digest == TRAJECTORY_DIGESTS[name]


class TestNonFiniteInputs:
    """NaN and inf fail loudly: they never pass as a converged step."""

    def test_config_rejects_nan_and_inf(self):
        nan, inf = float("nan"), float("inf")
        for kwargs in (
            {"dt": nan}, {"dt": inf}, {"newton_tol": nan}, {"newton_tol": inf},
        ):
            with pytest.raises(ValueError):
                SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "t_start, t_end",
        [(0.0, float("inf")), (0.0, float("nan")), (0.0, 0.0), (0.0, -1.0),
         (-float("inf"), 1.0), (float("nan"), 1.0)],
    )
    def test_problem_rejects_bad_time_span(self, t_start, t_end):
        g = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="t_start < t_end"):
            CauchyDirichletProblem(
                ExponentTriple(2.0, 1.0, 1), g, np.ones(8), t_end, t_start=t_start
            )

    def test_step_rejects_nan_residual(self):
        # a NaN boundary value gives a NaN residual at the first iterate
        g = Grid1D(0.0, 1.0, 8)
        pr = CauchyDirichletProblem(
            ExponentTriple(2.0, 1.0, 1), g, _bump(g), 1.0,
            boundary="dirichlet", boundary_values=lambda t: (float("nan"), 0.0),
        )
        with pytest.raises(StepFailure):
            step(pr, pr.initial, 0.0, 1e-3, SolverConfig())
        with pytest.raises(ValueError):
            step(pr, pr.initial, 0.0, float("inf"), SolverConfig())

    def test_step_refuses_an_infinite_residual_before_the_jacobian(self):
        # a unit spike at p = 400: the flux overflows to +-inf at the
        # spike's faces, and the first residual is inf, not NaN
        g = Grid1D(0.0, 1.0, 8)
        u0 = np.where(np.arange(8) == 4, 1.0, 0.0)
        pr = CauchyDirichletProblem(ExponentTriple(400.0, 1.0, 1), g, u0, 1.0)
        disc = _Discretization(pr)
        disc.jacobian_bands = None  # a Newton iteration would call it
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            StepFailure, match="residual is not finite"
        ) as info:
            step(pr, pr.initial, 0.0, 1e-3, SolverConfig(), disc=disc)
        assert info.value.residual == np.inf

    def test_step_refuses_an_infinite_tolerance(self):
        # beta(u_prev) V/dt overflows over a step of the least double
        g = Grid1D(0.0, 1.0, 8)
        pr = CauchyDirichletProblem(ExponentTriple(2.0, 2.0, 1), g, np.ones(8), 1.0)
        with np.errstate(over="ignore"), pytest.raises(
            StepFailure, match="tolerance is not finite"
        ) as info:
            step(pr, pr.initial, 0.0, 5e-324, SolverConfig())
        assert info.value.tol == np.inf

    def test_trajectory_steps_without_warnings(self):
        # the same spike stepped by a Trajectory: its StepFailure, and no
        # RuntimeWarning (pytest makes one an error)
        g = Grid1D(0.0, 1.0, 8)
        u0 = np.where(np.arange(8) == 4, 1.0, 0.0)
        pr = CauchyDirichletProblem(ExponentTriple(400.0, 1.0, 1), g, u0, 1.0)
        traj = solver.Trajectory(pr, SolverConfig(dt=0.5))
        with pytest.raises(StepFailure, match="residual is not finite at step 1"):
            traj.row(1)
