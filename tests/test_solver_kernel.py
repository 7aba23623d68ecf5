"""The Newton kernel on its per-run workspace against a plain reference.

`_Reference` and `_reference_step` are the FV residual, Jacobian and step
as they were before `_Discretization` became a workspace: every temporary
freshly allocated, the ghost array built by `np.concatenate`.  The kernel
must give the same bits on the exponent map that `classify` describes."""

import itertools

import numpy as np
import pytest

from dnl_lab.core import ExponentTriple, Grid1D
from dnl_lab.solver import (
    CauchyDirichletProblem,
    SolverConfig,
    StepFailure,
    _beta,
    _beta_prime,
    _Discretization,
    _phi,
    _phi_total_deriv,
    solve,
    solve_banded,
    step,
)


def _times(a, b):
    """a * b, where None stands for a factor of exactly 1 (1.0 * x == x)."""
    if a is None:
        return b
    if b is None:
        return a
    return a * b


class _Reference:
    """Geometric factors and the FV residual/Jacobian, every array fresh."""

    def __init__(self, problem, config):
        self.pr = problem
        self.cfg = config
        g = problem.grid
        self.h = g.h
        self.vol = g.cell_volumes()
        self.vol_max = self.vol.max()
        faces = g.faces()
        if g.geometry == "radial":
            self.area = faces ** (g.n_dim - 1)
        else:
            self.area = np.ones(g.n_cells + 1)
        self.symmetric = g.geometry == "radial" and g.x_lo == 0.0

    def residual(self, u, b_prev, t_new, dt):
        pr = self.pr
        e = pr.exponents
        gl, gr = pr.ghost_values(u, t_new)
        ue = np.concatenate([[gl], u, [gr]])
        grads = (ue[1:] - ue[:-1]) / self.h
        flux = _times(_phi(grads, pr.mu, e.p), grads) * self.area
        if self.symmetric:
            flux[0] = 0.0
        R = (_beta(u, e.q) - b_prev) * self.vol / dt - (flux[1:] - flux[:-1])
        return R, grads

    def jacobian_bands(self, u, grads, dt, picard=False):
        pr = self.pr
        e = pr.exponents
        # at p = 2 both factors are exactly 1, and `_phi` gives None for it
        phi = _phi if picard or e.p == 2 else _phi_total_deriv
        dflux = _times(phi(grads, pr.mu, e.p), self.area) / self.h
        if self.symmetric:
            dflux[0] = 0.0
        eps = max(self.cfg.floor_eps, 1e-12)
        bp = _times(_beta_prime(u, e.q, eps), self.vol) / dt
        main = bp + dflux[:-1] + dflux[1:]
        if pr.boundary != "from_exact":
            main[0] += dflux[0]
            main[-1] += dflux[-1]
        return -dflux[1:-1], main, -dflux[1:-1]


def _reference_step(problem, u_prev, t, dt, config):
    """One implicit Euler step; raises StepFailure at the same point."""
    disc = _Reference(problem, config)
    u_prev = np.asarray(u_prev, dtype=float)
    t_new = t + dt
    b_prev = _beta(u_prev, problem.exponents.q)
    u = u_prev.copy()
    R, grads = disc.residual(u, b_prev, t_new, dt)
    norm = np.abs(R).max()
    iters = 0
    picard_mode = False
    beta_amp = float(np.abs(b_prev).max())
    scale = (beta_amp + 1e-14) * disc.vol_max / dt
    tol = config.newton_tol * scale
    while norm > tol and iters < config.max_newton:
        if iters >= config.max_newton // 2:
            picard_mode = True
        lower, main, upper = disc.jacobian_bands(u, grads, dt, picard=picard_mode)
        try:
            delta = solve_banded(lower, main, upper, -R)
        except np.linalg.LinAlgError:
            raise StepFailure("linear solve failed", t_new, norm, tol)
        lam = 1.0
        improved = False
        for _ in range(8):
            trial = np.maximum(u + lam * delta, 0.0)
            R_t, g_t = disc.residual(trial, b_prev, t_new, dt)
            n_t = np.abs(R_t).max()
            if n_t < norm:
                u, R, grads, norm = trial, R_t, g_t, n_t
                improved = True
                break
            lam *= 0.5
        if not improved:
            if not picard_mode:
                picard_mode = True
            else:
                u = np.maximum(u + 0.1 * delta, 0.0)
                R, grads = disc.residual(u, b_prev, t_new, dt)
                norm = np.abs(R).max()
        iters += 1
    if not norm <= tol * 100:
        raise StepFailure("nonlinear iteration did not converge", t_new, norm, tol)
    clipped = float(np.sum(np.clip(config.floor_eps - u, 0.0, None)))
    u = np.maximum(u, config.floor_eps)
    return u, {"iters": iters, "residual": norm, "clipped": clipped}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _lattice_problem(p, q, n_dim, geometry, n_cells=32):
    """`solver-supercritical-run` on a coarser grid: cos_bump data on [0, 1],
    zero Dirichlet data, dt = 2e-4."""
    g = Grid1D(0.0, 1.0, n_cells, geometry, n_dim)
    u0 = np.cos(np.pi * g.centers() / 2) ** 2
    return CauchyDirichletProblem(ExponentTriple(p, q, n_dim), g, u0, 1.0)


def _steps(step_fn, problem, config, count):
    """(fields, infos, failure time and residual or None) of `count` steps."""
    u, t = problem.initial, problem.t_start
    fields, infos = [], []
    for _ in range(count):
        try:
            u, info = step_fn(problem, u, t, config.dt, config)
        except StepFailure as exc:
            return fields, infos, (exc.time, exc.residual)
        t += config.dt
        fields.append(u)
        infos.append(info)
    return fields, infos, None


# the exponent lattice of the regime sweep: slow, Trudinger and fast
# diffusion, p < 2, q < 1, p >= N, radial and cartesian
LATTICE = list(
    itertools.product(
        (1.3, 1.6, 2.0, 3.0, 4.5), (0.3, 0.6, 1.0, 2.0, 4.0), (1, 3),
        ("radial", "cartesian"),
    )
)


@pytest.mark.parametrize("geometry", ["radial", "cartesian"])
@pytest.mark.parametrize("n_dim", [1, 3])
def test_same_bits_as_reference_over_exponent_map(n_dim, geometry):
    cfg = SolverConfig(dt=2e-4)
    cases = [(p, q) for p, q, n, geo in LATTICE if (n, geo) == (n_dim, geometry)]
    assert len(cases) == 25
    for p, q in cases:
        pr = _lattice_problem(p, q, n_dim, geometry)
        want = _steps(_reference_step, pr, cfg, 3)
        got = _steps(step, pr, cfg, 3)
        where = f"p={p} q={q}"
        assert len(got[0]) == len(want[0]), where
        for a, b in zip(got[0], want[0]):
            assert np.array_equal(_bits(a), _bits(b)), where
        assert got[1] == want[1], where
        if want[2] is None:
            assert got[2] is None, where
        else:
            assert got[2][0] == want[2][0], where
            assert _bits(got[2][1]) == _bits(want[2][1]), where


@pytest.mark.parametrize("p, q", [(1.3, 0.3), (4.5, 2.0)])
def test_same_failure_as_reference(p, q):
    # every lattice run passes three steps at 32 cells; on the preset's 200
    # cartesian cells these fail at the first step
    cfg = SolverConfig(dt=2e-4)
    pr = _lattice_problem(p, q, 1, "cartesian", n_cells=200)
    want = _steps(_reference_step, pr, cfg, 1)[2]
    got = _steps(step, pr, cfg, 1)[2]
    assert want is not None and got is not None
    assert got[0] == want[0]
    assert _bits(got[1]) == _bits(want[1])


class TestWorkspace:
    def _pair(self):
        a = _lattice_problem(2.0, 2.0, 3, "radial", n_cells=24)
        b = _lattice_problem(3.0, 0.6, 1, "cartesian", n_cells=40)
        return a, b

    def test_interleaved_runs_same_bits(self):
        cfg = SolverConfig(dt=2e-4)
        problems = self._pair()
        alone = [_steps(step, pr, cfg, 4)[0] for pr in problems]
        discs = [_Discretization(pr, cfg) for pr in problems]
        us = [pr.initial for pr in problems]
        for k in range(4):
            for j, pr in enumerate(problems):
                us[j], _ = step(pr, us[j], k * cfg.dt, cfg.dt, cfg, disc=discs[j])
                assert np.array_equal(_bits(us[j]), _bits(alone[j][k]))

    def test_no_shared_memory(self):
        cfg = SolverConfig(dt=2e-4)
        for pr in self._pair():
            pr.t_end = 5 * cfg.dt
            fields = solve(pr, cfg).fields
            assert not np.shares_memory(fields[0], pr.initial)
            for a, b in itertools.combinations(fields, 2):
                assert not np.shares_memory(a, b)
            disc = _Discretization(pr, cfg)
            u, t = pr.initial, 0.0
            b_prev = _beta(u, pr.exponents.q)
            R, grads = disc.residual(u, b_prev, t + cfg.dt, cfg.dt)
            for out in (R, grads):
                assert not np.shares_memory(out, disc.ue)
            for _ in range(3):
                u_next, _ = step(pr, u, t, cfg.dt, cfg, disc=disc)
                assert not np.shares_memory(u_next, disc.ue)
                assert not np.shares_memory(u_next, u)
                u, t = u_next, t + cfg.dt
