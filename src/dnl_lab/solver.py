"""Implicit finite-volume solver for the Cauchy-Dirichlet problem

    d/dt(u^q) = div( (mu^2 + |Du|^2)^{(p-2)/2} Du )

on uniform 1-D cartesian or radial grids.  Backward Euler in time; Newton
with damping on the cell residuals, falling back to Picard iteration (frozen
flux coefficients) when Newton stalls.  Each iteration solves its tridiagonal
system with LAPACK `dgtsv` (`solve_banded`).  Dirichlet boundaries are
imposed by ghost values; radial grids use the r^{N-1} face weighting with
zero flux through r = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ExponentTriple, Grid1D


class StepFailure(RuntimeError):
    """Nonlinear iteration failed to converge for a time step.  The message
    names the time, the step (when a `Trajectory` ran it) and the residual
    as a multiple of its tolerance."""

    def __init__(self, reason, time, residual, tol, where=None):
        self.reason = reason
        self.time = time
        self.residual = residual
        self.tol = tol
        at = f"t={time:.6g}" if where is None else f"{where}, t={time:.6g}"
        super().__init__(
            f"{reason} at {at}: residual {residual:.3e} = {residual / tol:.3g}× tol"
        )

    def at_step(self, index, count):
        """The same failure, named as step `index` of `count`."""
        return StepFailure(
            self.reason, self.time, self.residual, self.tol,
            f"step {index} of {count}",
        )


@dataclass
class CauchyDirichletProblem:
    """The paper's equation on `grid` from `initial` at t_start to t_end,
    with zero, time-dependent (`boundary_values`) or closed-form (`exact`)
    Dirichlet data."""

    exponents: ExponentTriple
    grid: Grid1D
    initial: np.ndarray
    t_end: float
    boundary: str = "zero_dirichlet"  # "zero_dirichlet" | "dirichlet" | "from_exact"
    boundary_values: object = None  # callable t -> (left, right) for "dirichlet"
    exact: object = None  # ClosedFormSolution for "from_exact"
    t_start: float = 0.0

    def __post_init__(self):
        if not -math.inf < self.t_start < self.t_end < math.inf:
            raise ValueError("t_start and t_end must be finite, t_start < t_end")
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (self.grid.n_cells,):
            raise ValueError("initial data must have one value per cell")
        if np.any(self.initial < 0):
            raise ValueError("initial data must be non-negative")
        if self.boundary not in ("zero_dirichlet", "dirichlet", "from_exact"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.boundary == "from_exact" and self.exact is None:
            raise ValueError("from_exact boundary requires an exact solution")
        if self.boundary == "dirichlet" and self.boundary_values is None:
            raise ValueError("dirichlet boundary requires boundary_values")

    @property
    def mu(self):
        """Flux regularization: 0 for p >= 2, 1e-8 for p < 2."""
        return 0.0 if self.exponents.p >= 2 else 1e-8

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

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be finite and > 0")
        if not 0 <= self.floor_eps < math.inf:
            raise ValueError("floor_eps must be finite and >= 0")


_dgtsv = None  # LAPACK dgtsv, bound by the first solve_banded call


def solve_banded(lower, main, upper, rhs):
    """Solution of the tridiagonal system with diagonals `lower`, `main`,
    `upper` by LAPACK `dgtsv`, which scipy's `solve_banded((1, 1), ...)`
    calls too (same bits).  It overwrites the four distinct float64 arrays.
    Raises ValueError on a non-finite entry, as scipy's `check_finite`
    does, and LinAlgError on a singular system.  scipy.linalg is imported
    here, on the first call, so that runs without a solve never load it."""
    global _dgtsv
    if _dgtsv is None:
        from scipy.linalg.lapack import dgtsv as _dgtsv
    if not np.isfinite(np.concatenate((lower, main, upper, rhs))).all():
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = _dgtsv(lower, main, upper, rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _beta(u, q):
    """u^q as |u|^(q-1) u; at q = 1, `u` itself."""
    if q == 1:
        return u
    if q > 1:
        return np.abs(u) ** (q - 1) * u
    # q < 1: |u|^(q-1) is infinite at u = 0, where beta is 0
    out = np.zeros_like(u)
    nz = u != 0
    out[nz] = np.abs(u[nz]) ** (q - 1) * u[nz]
    return out


def _beta_prime(u, q, eps=1e-12):
    """q u^(q-1), regularized: singular at 0 for q < 1, degenerate for
    q > 1; None (a factor of 1) at q = 1."""
    if q == 1:
        return None
    return q * np.maximum(u, eps) ** (q - 1)


def _phi(g, mu, p):
    """(mu^2 + g^2)^{(p-2)/2}, the scalar flux factor; None (a factor of 1)
    at p = 2."""
    if p == 2:
        return None
    base = mu * mu + g * g
    with np.errstate(divide="ignore"):
        out = base ** ((p - 2) / 2)
    return np.where(base > 0, out, 0.0)


def _phi_total_deriv(g, mu, p):
    """d/dg [ phi(g) * g ] = (mu^2+g^2)^{(p-4)/2} (mu^2 + (p-1) g^2), for
    p != 2 (`jacobian_bands` takes its own face factor at p = 2)."""
    base = mu * mu + g * g
    with np.errstate(divide="ignore", invalid="ignore"):
        out = base ** ((p - 4) / 2) * (mu * mu + (p - 1) * g * g)
    return np.where(base > 0, out, 0.0)


class _Discretization:
    """The per-run workspace of the Newton kernel: the geometric factors,
    the exponents, mu and floors read once, an owned (n+2) ghost buffer, the
    from_exact ghost pair of the current t, the face gradients, and the FV
    residual/Jacobian.  Every floating-point operation keeps the order of
    the plain formulas in the comments, so the bits are those of a step
    that allocates every temporary."""

    def __init__(self, problem, config):
        self.pr = problem
        g = problem.grid
        self.h = g.h
        self.p = problem.exponents.p
        self.q = problem.exponents.q
        self.mu = problem.mu
        self.eps = max(config.floor_eps, 1e-12)
        self.vol = g.cell_volumes()
        self.vol_max = self.vol.max()
        faces = g.faces()
        if g.geometry == "radial":
            self.area = faces ** (g.n_dim - 1)
        else:
            self.area = np.ones(g.n_cells + 1)
        # zero flux through the face at r = 0
        self.symmetric = g.geometry == "radial" and g.x_lo == 0.0
        # u with its two ghost values; face_gradients overwrites it per call
        self.ue = np.empty(g.n_cells + 2)
        # from_exact ghost values depend on t alone: the last t and its pair
        self.exact_ghost_t = None
        self.exact_ghosts = None
        self.ghost_values = problem.ghost_values
        if problem.boundary == "from_exact":
            self.ghost_values = self._exact_ghost_values
        # d flux_f / d (u_right - u_left) at p = 2
        self.dflux_p2 = None
        if self.p == 2:
            self.dflux_p2 = self.area / self.h
            if self.symmetric:
                self.dflux_p2[0] = 0.0

    def _exact_ghost_values(self, u, t):
        """`problem.ghost_values(u, t)` of a from_exact boundary, evaluated
        once per t (a step's residuals share t_new) and kept here."""
        if self.exact_ghost_t != t:
            self.exact_ghosts = self.pr.ghost_values(u, t)
            self.exact_ghost_t = t
        return self.exact_ghosts

    def face_gradients(self, u, t):
        """(ue[1:] - ue[:-1]) / h, one gradient per face as a fresh array,
        after writing u and its ghost values at t into `ue`."""
        ue = self.ue
        ue[1:-1] = u
        ue[0], ue[-1] = self.ghost_values(u, t)
        grads = ue[1:] - ue[:-1]
        grads /= self.h
        return grads

    def residual(self, u, b_prev, t_new, dt, b_u=None):
        """Cell residuals R_i = (beta(u)-beta(u_prev)) V_i/dt - net flux,
        with `b_prev` = beta(u_prev) and `b_u` = beta(u) when known.
        Returns (R, face gradients), two fresh arrays."""
        grads = self.face_gradients(u, t_new)
        # flux = phi(grads) * grads * area
        phi = _phi(grads, self.mu, self.p)
        if phi is None:
            flux = grads * self.area
        else:
            flux = phi * grads
            flux *= self.area
        if self.symmetric:
            flux[0] = 0.0
        # R = (beta(u) - b_prev) * vol / dt - (flux[1:] - flux[:-1])
        R = (_beta(u, self.q) if b_u is None else b_u) - b_prev
        R *= self.vol
        R /= dt
        R -= flux[1:] - flux[:-1]
        return R, grads

    def jacobian_bands(self, u, grads, dt, picard=False):
        """Tridiagonal Jacobian as its three diagonals (lower, main, upper),
        three fresh arrays (`solve_banded` overwrites them)."""
        if self.p == 2:
            dflux = self.dflux_p2
        else:
            phi = _phi if picard else _phi_total_deriv
            # d flux_f / d (u_right - u_left)
            dflux = phi(grads, self.mu, self.p) * self.area / self.h
            if self.symmetric:
                dflux[0] = 0.0
        # main = beta'(u) * vol / dt + dflux[:-1] + dflux[1:]
        bp = _beta_prime(u, self.q, self.eps)
        main = (self.vol if bp is None else bp * self.vol) / dt
        main += dflux[:-1]
        main += dflux[1:]
        # ghost coupling: d ghost/d u_first = -1 for dirichlet-type boundaries
        if self.pr.boundary != "from_exact":
            main[0] += dflux[0]  # left face gradient = (u_0 - gl)/h, d/du0 = 2
            main[-1] += dflux[-1]
        return -dflux[1:-1], main, -dflux[1:-1]


def step(problem, u_prev, t, dt, config, disc=None):
    """Advance one implicit Euler step from time t to t+dt.

    Returns (u_new, diagnostics dict).  Newton with up-to-8 halvings of the
    update; after max_newton/2 failed Newton iterations, falls back to Picard
    iterations with frozen flux coefficients.  beta(u_prev) is computed once
    per step and shared by the tolerance and every residual; each iteration
    solves its tridiagonal system with `solve_banded` (LAPACK `dgtsv`).
    `disc` is the problem's `_Discretization`, the run's workspace, built
    here when not given (a `Trajectory` builds one per run).  Raises
    StepFailure, which names t and the residual as a multiple of its
    tolerance."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    u_prev = np.asarray(u_prev, dtype=float)
    if (u_prev < 0).any():
        raise ValueError("u_prev must be non-negative")
    if disc is None:
        disc = _Discretization(problem, config)
    t_new = t + dt
    b_prev = _beta(u_prev, disc.q)
    u = u_prev.copy()
    R, grads = disc.residual(u, b_prev, t_new, dt, b_u=b_prev)
    norm = np.abs(R).max()
    iters = 0
    picard_mode = False
    # residuals scale like beta(u) * vol / dt; make the tolerance follow suit
    # (the 1e-14 floor keeps the tolerance meaningful on near-extinct states
    # without freezing them: an absolute floor of O(1) would let tiny-amplitude
    # tails pass the test with a zero update)
    beta_amp = float(np.abs(b_prev).max())
    scale = (beta_amp + 1e-14) * disc.vol_max / dt
    tol = config.newton_tol * scale
    while norm > tol and iters < config.max_newton:
        if iters >= config.max_newton // 2:
            picard_mode = True
        lower, main, upper = disc.jacobian_bands(u, grads, dt, picard=picard_mode)
        try:
            delta = solve_banded(lower, main, upper, -R)
        except np.linalg.LinAlgError as exc:
            raise StepFailure("linear solve failed", t_new, norm, tol) from exc
        # trial = max(u + lam * delta, 0), lam = 1, 1/2, ..., 1/128; at
        # lam = 1 the product is skipped (1.0 * delta == delta)
        lam = 1.0
        improved = False
        for _ in range(8):
            trial = u + delta if lam == 1.0 else u + lam * delta
            np.maximum(trial, 0.0, out=trial)
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
                # accept a small damped step to escape a flat spot
                u = np.maximum(u + 0.1 * delta, 0.0)
                R, grads = disc.residual(u, b_prev, t_new, dt)
                norm = np.abs(R).max()
        iters += 1
    if not norm <= tol * 100:  # a NaN residual fails too
        raise StepFailure("nonlinear iteration did not converge", t_new, norm, tol)
    # maximum(x, 0) is what np.clip(x, 0.0, None) calls: the same bits
    clipped = float(np.maximum(config.floor_eps - u, 0.0).sum())
    u = np.maximum(u, config.floor_eps)
    return u, {"iters": iters, "residual": norm, "clipped": clipped}


def time_grid(problem, config):
    """(stored times, step sizes) of a run: uniform dt from t_start with a
    final short step to t_end.  Step i goes from times[i] by dts[i] to
    times[i + 1] = t_start + min((i + 1) dt, span), recomputed from the step
    index to avoid float drift in long runs.  A short step under 1e-9 dt is
    dropped, unless it is the run's only step."""
    span = problem.t_end - problem.t_start
    n_full = int(math.floor(span / config.dt * (1.0 + 1e-12)))
    remainder = span - n_full * config.dt
    dts = [config.dt] * n_full
    if remainder > 1e-9 * config.dt or not dts:
        dts.append(remainder)
    t0 = problem.t_start
    times = [t0] + [t0 + min((i + 1) * config.dt, span) for i in range(len(dts))]
    return times, dts


class Trajectory:
    """The record of one run on the grid of `time_grid`, stepped on demand:
    `row(i)` runs implicit steps from `problem.initial` until the field at
    `times[i]` exists.  `fields`, `newton_iters` and `residual_norms` hold
    one entry per stored row so far (0 and 0.0 for the initial row), and
    `clipped_mass` sums over the steps taken.  The readers below take rows
    with `row`, so they step a trajectory that is not yet solved."""

    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        self.times, self._dts = time_grid(problem, config)
        self.fields = [problem.initial.copy()]
        self.newton_iters = [0]
        self.residual_norms = [0.0]
        self.clipped_mass = 0.0
        self._disc = _Discretization(problem, config)
        self._failure = None  # the StepFailure that ended the stepping

    def row(self, i):
        """The field at `times[i]`, stepped to on first read.  A StepFailure
        names its step, and every later read that needs that step raises it
        again."""
        if not 0 <= i < len(self.times):
            raise IndexError(f"row {i} of {len(self.times)}")
        fields = self.fields
        while len(fields) <= i:
            if self._failure is not None:
                raise self._failure
            k = len(fields) - 1
            try:
                # step returns a new array and never writes to u_prev
                u, info = step(
                    self.problem, fields[k], self.times[k], self._dts[k],
                    self.config, disc=self._disc,
                )
            except StepFailure as exc:
                self._failure = exc.at_step(k + 1, len(self._dts))
                raise self._failure from exc
            fields.append(u)
            self.newton_iters.append(info["iters"])
            self.residual_norms.append(info["residual"])
            self.clipped_mass += info["clipped"]
        return fields[i]


def solve(problem, config):
    """Every step from t_start to t_end, as a Trajectory."""
    traj = Trajectory(problem, config)
    traj.row(len(traj.times) - 1)
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
    for i in range(len(traj_v.times)):
        v, w = traj_v.row(i), traj_w.row(i)
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
        u = traj.row(i)
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
    """Per-time {t, int u^{q+1}, sup u}; quadrature consistent with the FV
    grid (radial runs include the unit-sphere area)."""
    e = traj.problem.exponents
    g = traj.problem.grid
    w = g.cell_volumes() * g.surface_constant()
    out = {"t": [], "int_uq1": [], "sup_u": []}
    for i, t in enumerate(traj.times):
        u = traj.row(i)
        out["t"].append(t)
        out["int_uq1"].append(float(np.sum(w * u ** (e.q + 1))))
        out["sup_u"].append(float(u.max()))
    return {k: np.asarray(v) for k, v in out.items()}


def gradient_p_norm(traj, i):
    """||Du(.,t_i)||_p^p with the scheme-consistent face quadrature.

    Gradients are taken at cell faces (including the boundary faces via ghost
    values) and weighted by face area x h, matching the discrete energy
    dissipation of the FV scheme; a center-based quadrature misses the
    boundary-layer contribution that dominates dissipation near extinction.
    The face at r = 0 carries no flux, so it has no weight (its area 0^0 is
    1 on a radial N = 1 grid)."""
    g = traj.problem.grid
    disc = traj._disc
    grads = disc.face_gradients(traj.row(i), traj.times[i])
    w = disc.area * g.h * g.surface_constant()
    if disc.symmetric:
        w[0] = 0.0
    return float(np.sum(w * np.abs(grads) ** traj.problem.exponents.p))
