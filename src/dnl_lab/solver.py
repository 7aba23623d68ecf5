"""Implicit finite-volume solver for the Cauchy-Dirichlet problem

    d/dt(u^q) = div( a(x,t) (mu^2 + |Du|^2)^{(p-2)/2} Du )

on uniform 1-D cartesian or radial grids.  Backward Euler in time; Newton
with damping on the cell residuals, falling back to Picard iteration (frozen
flux coefficients) when Newton stalls.  Dirichlet boundaries are imposed by
ghost values; radial grids use the r^{N-1} face weighting with zero flux
through r = 0.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import solve_banded

from .core import ExponentTriple, Grid1D


class StepFailure(RuntimeError):
    """Nonlinear iteration failed to converge for a time step."""

    def __init__(self, message, time=None, residual=None):
        super().__init__(message)
        self.time = time
        self.residual = residual


@dataclass
class CauchyDirichletProblem:
    exponents: ExponentTriple
    grid: Grid1D
    initial: np.ndarray
    t_end: float
    boundary: str = "zero_dirichlet"  # "zero_dirichlet" | "dirichlet" | "from_exact"
    boundary_values: object = None  # callable t -> (left, right) for "dirichlet"
    exact: object = None  # ClosedFormSolution for "from_exact"
    coefficient: object = None  # callable a(x, t); None -> 1 (prototype)
    mu: float = None  # flux regularization; default 0 for p>=2, 1e-8 for p<2
    t_start: float = 0.0

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (self.grid.n_cells,):
            raise ValueError("initial data must have one value per cell")
        if np.any(self.initial < 0):
            raise ValueError("initial data must be non-negative")
        if self.mu is None:
            self.mu = 0.0 if self.exponents.p >= 2 else 1e-8
        if self.boundary not in ("zero_dirichlet", "dirichlet", "from_exact"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.boundary == "from_exact" and self.exact is None:
            raise ValueError("from_exact boundary requires an exact solution")

    def ghost_values(self, u, t):
        """(left ghost, right ghost) cell values at time t."""
        g = self.grid
        h = g.h
        if self.boundary == "from_exact":
            gl = self.exact.eval([g.x_lo - h / 2], t)
            gr = self.exact.eval([g.x_hi + h / 2], t)
            return gl, gr
        if self.boundary == "dirichlet":
            bl, br = self.boundary_values(t)
        else:
            bl, br = 0.0, 0.0
        # ghost = 2*u_boundary - first interior cell
        return 2.0 * bl - u[0], 2.0 * br - u[-1]


@dataclass
class SolverConfig:
    dt: float = 1e-3
    newton_tol: float = 1e-10
    max_newton: int = 40
    floor_eps: float = 0.0
    flux_mean: str = "arithmetic"  # "arithmetic" | "harmonic"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be > 0")
        if self.floor_eps < 0:
            raise ValueError("floor_eps must be >= 0")
        if self.flux_mean not in ("arithmetic", "harmonic"):
            raise ValueError(f"unknown flux_mean {self.flux_mean!r}")


@dataclass
class Trajectory:
    problem: CauchyDirichletProblem
    times: list = dc_field(default_factory=list)
    fields: list = dc_field(default_factory=list)  # list of np.ndarray
    newton_iters: list = dc_field(default_factory=list)
    residual_norms: list = dc_field(default_factory=list)
    clipped_mass: float = 0.0

    def to_columnar(self):
        """Columnar text format: '# t=<value>' headers followed by x,u rows."""
        lines = []
        xs = self.problem.grid.centers()
        for t, u in zip(self.times, self.fields):
            lines.append(f"# t={float(t)!r}")
            for x, v in zip(xs, u):
                lines.append(f"{float(x)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def _beta(u, q):
    if q == 1:
        return u.copy()
    if q > 1:
        return np.abs(u) ** (q - 1) * u
    # q < 1: |u|^(q-1) is infinite at u = 0, where beta is 0
    out = np.zeros_like(u)
    nz = u != 0
    out[nz] = np.abs(u[nz]) ** (q - 1) * u[nz]
    return out


def _beta_prime(u, q, eps=1e-12):
    if q == 1:
        return np.ones_like(u)
    # regularized: singular at 0 for q < 1, degenerate for q > 1
    return q * np.maximum(u, eps) ** (q - 1)


def _phi(s2, mu, p):
    """(mu^2 + s^2)^{(p-2)/2}; the scalar flux factor."""
    base = mu * mu + s2
    if p == 2:
        return np.ones_like(base)
    with np.errstate(divide="ignore"):
        out = base ** ((p - 2) / 2)
    return np.where(base > 0, out, 0.0)


def _phi_total_deriv(g, mu, p):
    """d/dg [ phi(g) * g ] = (mu^2+g^2)^{(p-4)/2} (mu^2 + (p-1) g^2)."""
    base = mu * mu + g * g
    if p == 2:
        return np.ones_like(base)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = base ** ((p - 4) / 2) * (mu * mu + (p - 1) * g * g)
    return np.where(base > 0, out, 0.0)


class _Discretization:
    """Per-problem geometric factors and the FV residual/Jacobian."""

    def __init__(self, problem, config):
        self.pr = problem
        self.cfg = config
        g = problem.grid
        self.h = g.h
        self.vol = g.cell_volumes()
        faces = g.faces()
        if g.geometry == "radial":
            self.area = faces ** (g.n_dim - 1)
        else:
            self.area = np.ones(g.n_cells + 1)
        self.centers = g.centers()
        # coefficient a at cell centers (and ghosts) is evaluated lazily per t

    def _coef_faces(self, t):
        a_fun = self.pr.coefficient
        n = self.pr.grid.n_cells
        if a_fun is None:
            return np.ones(n + 1)
        h = self.h
        xs = np.concatenate(
            [[self.centers[0] - h], self.centers, [self.centers[-1] + h]]
        )
        ac = np.asarray([a_fun(x, t) for x in xs], dtype=float)
        if np.any(ac <= 0):
            raise ValueError("coefficient a(x,t) must be positive")
        if self.cfg.flux_mean == "harmonic":
            af = 2.0 * ac[:-1] * ac[1:] / (ac[:-1] + ac[1:])
        else:
            af = 0.5 * (ac[:-1] + ac[1:])
        return af

    def residual(self, u, u_prev, t_new, dt, a_faces):
        """Cell residuals R_i = (beta(u)-beta(u_prev)) V_i/dt - net flux."""
        pr = self.pr
        e = pr.exponents
        gl, gr = pr.ghost_values(u, t_new)
        ue = np.concatenate([[gl], u, [gr]])
        grads = (ue[1:] - ue[:-1]) / self.h  # one per face
        flux = a_faces * _phi(grads * grads, pr.mu, e.p) * grads * self.area
        if pr.grid.geometry == "radial" and pr.grid.x_lo == 0.0:
            flux[0] = 0.0  # symmetry at r = 0
        R = (_beta(u, e.q) - _beta(u_prev, e.q)) * self.vol / dt - (
            flux[1:] - flux[:-1]
        )
        return R, grads

    def jacobian_bands(self, u, grads, dt, a_faces, picard=False):
        """Tridiagonal Jacobian in banded (3, n) storage."""
        pr = self.pr
        e = pr.exponents
        n = u.size
        if picard:
            dflux = a_faces * _phi(grads * grads, pr.mu, e.p)
        else:
            dflux = a_faces * _phi_total_deriv(grads, pr.mu, e.p)
        dflux = dflux * self.area / self.h  # d flux_f / d (u_right - u_left)
        if pr.grid.geometry == "radial" and pr.grid.x_lo == 0.0:
            dflux[0] = 0.0
        bp = _beta_prime(u, e.q, max(self.cfg.floor_eps, 1e-12)) * self.vol / dt
        main = bp + dflux[:-1] + dflux[1:]
        # ghost coupling: d ghost/d u_first = -1 for dirichlet-type boundaries
        if pr.boundary != "from_exact":
            main[0] += dflux[0]  # left face gradient = (u_0 - gl)/h, d/du0 = 2
            main[-1] += dflux[-1]
        lower = -dflux[1:-1]
        upper = -dflux[1:-1]
        ab = np.zeros((3, n))
        ab[0, 1:] = upper
        ab[1, :] = main
        ab[2, :-1] = lower
        return ab


def step(problem, u_prev, t, dt, config, disc=None):
    """Advance one implicit Euler step from time t to t+dt.

    Returns (u_new, diagnostics dict).  Newton with up-to-8 halvings of the
    update; after max_newton/2 failed Newton iterations, falls back to Picard
    iterations with frozen flux coefficients.  `disc` is the problem's
    `_Discretization`, built here when not given (`solve` builds one per
    run)."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    u_prev = np.asarray(u_prev, dtype=float)
    if np.any(u_prev < 0):
        raise ValueError("u_prev must be non-negative")
    if disc is None:
        disc = _Discretization(problem, config)
    t_new = t + dt
    a_faces = disc._coef_faces(t_new)
    u = u_prev.copy()
    R, grads = disc.residual(u, u_prev, t_new, dt, a_faces)
    norm = np.max(np.abs(R))
    iters = 0
    picard_mode = False
    # residuals scale like beta(u) * vol / dt; make the tolerance follow suit
    # (the 1e-14 floor keeps the tolerance meaningful on near-extinct states
    # without freezing them: an absolute floor of O(1) would let tiny-amplitude
    # tails pass the test with a zero update)
    beta_amp = float(np.max(np.abs(_beta(u_prev, problem.exponents.q))))
    scale = (beta_amp + 1e-14) * np.max(disc.vol) / dt
    tol = config.newton_tol * scale
    while norm > tol and iters < config.max_newton:
        if iters >= config.max_newton // 2:
            picard_mode = True
        ab = disc.jacobian_bands(u, grads, dt, a_faces, picard=picard_mode)
        try:
            delta = solve_banded((1, 1), ab, -R)
        except np.linalg.LinAlgError as exc:
            raise StepFailure(
                f"linear solve failed at t={t_new}", time=t_new, residual=norm
            ) from exc
        lam = 1.0
        improved = False
        for _ in range(8):
            trial = np.maximum(u + lam * delta, 0.0)
            R_t, g_t = disc.residual(trial, u_prev, t_new, dt, a_faces)
            n_t = np.max(np.abs(R_t))
            if n_t < norm:
                u, R, grads, norm = trial, R_t, g_t, n_t
                improved = True
                break
            lam *= 0.5
        if not improved:
            if not picard_mode:
                picard_mode = True
            else:
                # accept a small damped step to escape a flat spot
                u = np.maximum(u + 0.1 * delta, 0.0)
                R, grads = disc.residual(u, u_prev, t_new, dt, a_faces)
                norm = np.max(np.abs(R))
        iters += 1
    if norm > tol * 100:
        raise StepFailure(
            f"nonlinear iteration did not converge at t={t_new} "
            f"(residual {norm:.3e})",
            time=t_new,
            residual=norm,
        )
    clipped = float(np.sum(np.clip(config.floor_eps - u, 0.0, None)))
    u = np.maximum(u, config.floor_eps)
    return u, {"iters": iters, "residual": norm, "clipped": clipped}


def solve(problem, config):
    """Run repeated implicit steps from t_start to t_end (uniform dt, final
    short step).  Returns a Trajectory."""
    traj = Trajectory(problem)
    t = problem.t_start
    u = problem.initial.copy()
    traj.times.append(t)
    traj.fields.append(u.copy())
    traj.newton_iters.append(0)
    traj.residual_norms.append(0.0)
    span = problem.t_end - problem.t_start
    n_full = int(math.floor(span / config.dt * (1.0 + 1e-12)))
    remainder = span - n_full * config.dt
    dts = [config.dt] * n_full
    if remainder > 1e-9 * config.dt:
        dts.append(remainder)
    disc = _Discretization(problem, config)
    for i, dt in enumerate(dts):
        u, info = step(problem, u, t, dt, config, disc=disc)
        # recompute from the step index to avoid float drift in long runs
        t = problem.t_start + min((i + 1) * config.dt, span)
        traj.times.append(t)
        traj.fields.append(u.copy())
        traj.newton_iters.append(info["iters"])
        traj.residual_norms.append(info["residual"])
        traj.clipped_mass += info["clipped"]
    return traj


def check_comparison(traj_v, traj_w, tol=1e-8):
    """Discrete comparison check: max over all cells and times of (v - w)_+.

    Requires matching grids and time lists.  Returns a dict with the maximal
    violation and a pass flag."""
    if traj_v.problem.grid != traj_w.problem.grid:
        raise ValueError("mismatched grids")
    if len(traj_v.times) != len(traj_w.times) or not np.allclose(
        traj_v.times, traj_w.times
    ):
        raise ValueError("mismatched time discretizations")
    if traj_v.problem.exponents != traj_w.problem.exponents:
        raise ValueError("mismatched exponents")
    violation = 0.0
    where = None
    for i, (v, w) in enumerate(zip(traj_v.fields, traj_w.fields)):
        d = np.max(v - w)
        if d > violation:
            violation = float(d)
            where = (traj_v.times[i], int(np.argmax(v - w)))
    return {
        "violation": max(violation, 0.0),
        "passes": violation <= tol,
        "where": where,
        "tol": tol,
    }


def transform_to_v(traj, t_indices=None, positivity_floor=1e-12):
    """Pointwise transformation v = u^q with the induced diffusion coefficient
    a = (1/q)^{p-1} u^{(p-1)(1-q)}.

    Returns (v_fields, a_fields, report) where report carries the empirical
    coefficient bounds (C_o, C_1) and a fitted spatial Hoelder exponent /
    seminorm of a per time slice."""
    e = traj.problem.exponents
    p, q = e.p, e.q
    if t_indices is None:
        t_indices = range(len(traj.times))
    v_fields, a_fields, holder = [], [], []
    a_min, a_max = math.inf, -math.inf
    hgrid = traj.problem.grid.h
    for i in t_indices:
        u = traj.fields[i]
        if np.any(u <= positivity_floor):
            raise ValueError(
                f"trajectory not strictly positive at t={traj.times[i]}"
            )
        v = u**q
        a = (1.0 / q) ** (p - 1) * u ** ((p - 1) * (1 - q))
        v_fields.append(v)
        a_fields.append(a)
        a_min = min(a_min, float(a.min()))
        a_max = max(a_max, float(a.max()))
        # fitted Hoelder modulus of a: max |a(x)-a(y)| at lags k vs (k h)^alpha
        lags = [k for k in (1, 2, 4, 8) if k < a.size]
        mods = np.array([np.max(np.abs(a[k:] - a[:-k])) for k in lags])
        dists = np.array([k * hgrid for k in lags])
        if np.all(mods > 1e-15):
            alpha = float(np.polyfit(np.log(dists), np.log(mods), 1)[0])
            semi = float(np.max(mods / dists ** min(alpha, 1.0)))
        else:
            alpha, semi = math.inf, 0.0
        holder.append({"alpha": alpha, "seminorm": semi})
    report = {"C_o": a_min, "C_1": a_max, "holder_per_slice": holder}
    return v_fields, a_fields, report


def slice_functionals(traj):
    """Per-time integrals {int u^q, int u^{q+1}, sup u, sup |Du|}; quadrature
    consistent with the FV grid (radial runs include the unit-sphere area)."""
    e = traj.problem.exponents
    g = traj.problem.grid
    w = g.cell_volumes() * g.surface_constant()
    h = g.h
    out = {"t": [], "int_uq": [], "int_uq1": [], "sup_u": [], "sup_du": []}
    for t, u in zip(traj.times, traj.fields):
        du = np.gradient(u, h)
        out["t"].append(t)
        out["int_uq"].append(float(np.sum(w * u**e.q)))
        out["int_uq1"].append(float(np.sum(w * u ** (e.q + 1))))
        out["sup_u"].append(float(u.max()))
        out["sup_du"].append(float(np.max(np.abs(du))))
    return {k: np.asarray(v) for k, v in out.items()}


def gradient_p_norm(traj, i):
    """||Du(.,t_i)||_p^p with the scheme-consistent face quadrature.

    Gradients are taken at cell faces (including the boundary faces via ghost
    values) and weighted by face area x h, matching the discrete energy
    dissipation of the FV scheme; a center-based quadrature misses the
    boundary-layer contribution that dominates dissipation near extinction."""
    pr = traj.problem
    e = pr.exponents
    g = pr.grid
    u = traj.fields[i]
    gl, gr = pr.ghost_values(u, traj.times[i])
    ue = np.concatenate([[gl], u, [gr]])
    grads = (ue[1:] - ue[:-1]) / g.h
    if g.geometry == "radial":
        area = g.faces() ** (g.n_dim - 1)
    else:
        area = np.ones(g.n_cells + 1)
    w = area * g.h * g.surface_constant()
    return float(np.sum(w * np.abs(grads) ** e.p))
