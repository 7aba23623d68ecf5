"""Tests for the implicit finite-volume solver."""

import warnings

import numpy as np
import pytest

from dnl_lab.core import ExponentTriple, Grid1D
from dnl_lab.exact import TrudingerGaussian
from dnl_lab.solver import (
    CauchyDirichletProblem,
    SolverConfig,
    StepFailure,
    _Discretization,
    _beta,
    step,
    solve,
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
        with pytest.raises(ValueError):
            SolverConfig(floor_eps=-1e-3)
        with pytest.raises(ValueError):
            SolverConfig(flux_mean="bogus")


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
        for geometry, x_lo, coefficient in (
            ("radial", 0.0, None),
            ("cartesian", -1.0, lambda x, t: 1.0 + 0.5 * x * x + t),
        ):
            g = Grid1D(x_lo, 1.0, 24, geometry, 3)
            pr = CauchyDirichletProblem(
                ExponentTriple(3.0, 2.0, 3), g, _bump(g), 1.0,
                coefficient=coefficient,
            )
            cfg = SolverConfig(dt=1e-3, flux_mean="harmonic")
            disc = _Discretization(pr, cfg)
            u_own = u_shared = pr.initial
            for k in range(4):
                u_own, info_own = step(pr, u_own, k * cfg.dt, cfg.dt, cfg)
                u_shared, info_shared = step(
                    pr, u_shared, k * cfg.dt, cfg.dt, cfg, disc=disc
                )
                assert np.array_equal(u_own, u_shared)
                assert info_own == info_shared

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

    def test_to_columnar(self):
        g = Grid1D(0.0, 1.0, 4)
        e = ExponentTriple(2.0, 1.0, 1)
        pr = CauchyDirichletProblem(e, g, np.zeros(4), 1e-3)
        traj = solve(pr, SolverConfig(dt=1e-3))
        text = traj.to_columnar()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# t=")
        assert len(lines) == 2 * (1 + 4)
        x0, v0 = lines[1].split(",")
        assert float(x0) == pytest.approx(0.125)
        assert float(v0) == 0.0


class TestComparison:
    def _traj(self, amp, n=24, t_end=5e-3):
        g = Grid1D(-1.0, 1.0, n)
        e = ExponentTriple(2.0, 2.0, 1)
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
        assert f["t"].shape == f["int_uq"].shape

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
