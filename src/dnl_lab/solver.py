"""Implicit finite-volume solver for the Cauchy-Dirichlet problem

    d/dt(u^q) = div( (mu^2 + |Du|^2)^{(p-2)/2} Du )

on uniform 1-D cartesian or radial grids.  Backward Euler in time; Newton
with a line search on the cell residuals; a `Trajectory` retries a step that
stalls as two steps of half its size.  Each iteration solves its tridiagonal
system with LAPACK `dgtsv` (`solve_banded`).  Dirichlet boundaries are
imposed by ghost values; radial grids use the r^{N-1} face weighting with
zero flux through r = 0.
"""

import ctypes
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
        if not np.isfinite(self.initial).all():
            raise ValueError("initial data must be finite")
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

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be finite and > 0")


# LAPACK dgtsv and BLAS ddot with 64-bit integers, as the OpenBLAS that
# numpy's linear algebra links exports them
_SYMBOLS = ("scipy_dgtsv_64_", "scipy_ddot_64_")
_routines = None  # (dgtsv, ddot), bound by `_lapack` on first use


def _lapack():
    """(dgtsv, ddot) as ctypes functions, looked up through the handle of
    numpy.linalg's `_umath_linalg` extension, which `import numpy` has
    loaded: dlsym through it searches its dependencies too, numpy's
    OpenBLAS among them (on Linux and macOS, not on Windows).  Bound once
    per process; raises ImportError naming the library and the symbol it
    lacks."""
    global _routines
    if _routines is None:
        from numpy.linalg import _umath_linalg

        path = _umath_linalg.__file__
        lib = ctypes.CDLL(path)
        routines = []
        for name in _SYMBOLS:
            try:
                routines.append(lib[name])
            except AttributeError:
                raise ImportError(f"{path} exports no {name}") from None
        dgtsv, ddot = routines
        dgtsv.restype = None
        ddot.restype = ctypes.c_double
        _routines = dgtsv, ddot
    return _routines


def solve_banded(state):
    """Solution of the tridiagonal system held by `state` (a `_State`),
    with diagonals `lower`, `main`, `upper` and right-hand side `F`, by
    LAPACK `dgtsv`, which scipy's `solve_banded((1, 1), ...)` calls too
    (same bits).  It overwrites the state's band buffer and returns `F`,
    which holds the solution.  Raises ValueError on a non-finite entry,
    as scipy's `check_finite` does, and LinAlgError on a singular system.
    The buffer is checked with one BLAS dot product with itself, whose
    finite value means every entry is finite, so only a non-finite or
    overflowing one (whose ddot, unlike numpy's dot, warns of nothing)
    runs the entrywise check."""
    dgtsv, args, info, ddot, dot_args = state.gtsv
    if not (math.isfinite(ddot(*dot_args)) or np.isfinite(state.bands).all()):
        raise ValueError("array must not contain infs or NaNs")
    dgtsv(*args)
    if info.value > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}-th argument of internal gtsv")
    return state.F


def _beta(u, q, out=None):
    """u^q as |u|^(q-1) u, into `out` when given; at q = 1, `u` itself, and
    at q = 2, |u| u (x**1.0 == x).  For q < 1, |u|^(q-1) is infinite at
    u = 0, where beta is 0: only a u with a zero takes the masked ufuncs,
    whose bits are the unmasked ones wherever u != 0."""
    if q == 1:
        return u
    out = np.abs(u, out)
    if q == 2:
        return np.multiply(out, u, out)
    if q > 1 or u.all():
        np.power(out, q - 1, out)
        return np.multiply(out, u, out)
    nz = u != 0
    np.power(out, q - 1, out=out, where=nz)
    return np.multiply(out, u, out=out, where=nz)


def _phi(g, mu, p, out, base):
    """(mu^2 + g^2)^{(p-2)/2}, the scalar flux factor for p != 2, written
    into `out`, with its base mu^2 + g^2 kept in `base` for
    `_phi_total_deriv`.  No entry needs a mask: for p < 2 the base is at
    least mu^2 > 0, and for p > 2, 0^{(p-2)/2} = 0."""
    np.multiply(g, g, base)
    if mu:
        np.add(base, mu * mu, base)
    return np.power(base, (p - 2) / 2, out)


def _phi_total_deriv(g, mu, p, out, base, second):
    """d/dg [ phi(g) * g ] = (mu^2+g^2)^{(p-4)/2} (mu^2 + (p-1) g^2), for
    p != 2, written into `out`, from the `base` mu^2 + g^2 that `_phi` left;
    `second` takes the second factor.  Only 2 < p < 4 with a zero base needs
    a mask, for the inf power of 0, where the derivative is 0: for p < 2 the
    base is at least mu^2 > 0, for p >= 4 the power of 0 is finite, and off
    its zeros the masked ufuncs give the unmasked bits."""
    np.multiply(g, p - 1, second)
    np.multiply(second, g, second)
    if mu:
        np.add(second, mu * mu, second)
    if 2 < p < 4 and not base.all():
        pos = np.greater(base, 0.0)
        out.fill(0.0)
        np.power(base, (p - 4) / 2, out=out, where=pos)
        return np.multiply(out, second, out=out, where=pos)
    np.power(base, (p - 4) / 2, out)
    return np.multiply(out, second, out)


class _State:
    """An iterate u, the interior of its ghost-extended array `ue` (`hi` and
    `lo` are ue[1:] and ue[:-1]), with its face gradients, flux difference,
    beta(u), phi's base mu^2 + g^2, and its own buffer of 4n - 2 floats
    whose views are `dgtsv`'s dl, du, d and b: `lower`, `upper`, `main`
    and `F`, the negated residual, which is the next solve's right-hand
    side.  `gtsv` is `solve_banded`'s call on the buffer: dgtsv with its
    arguments and info, and ddot with its arguments, built once (a
    pointer read from an array costs about 1 us)."""

    __slots__ = ("ue", "u", "hi", "lo", "grads", "div", "beta", "base", "bands",
                 "lower", "upper", "off", "main", "F", "gtsv")

    def __init__(self, n):
        self.ue = np.empty(n + 2)
        self.u = self.ue[1:-1]
        self.hi = self.ue[1:]
        self.lo = self.ue[:-1]
        self.grads = np.empty(n + 1)
        self.div = np.empty(n)
        self.beta = np.empty(n)
        self.base = np.empty(n + 1)
        self.bands = np.empty(4 * n - 2)
        self.lower, self.upper, self.main, self.F = np.split(
            self.bands, [n - 1, 2 * n - 2, 3 * n - 2]
        )
        self.off = self.bands[: 2 * n - 2]
        dgtsv, ddot = _lapack()
        # by reference: n, nrhs = 1, dl, d, du, b, ldb = n and info;
        # ddot's n, x, incx, y, incy over the whole buffer
        ref, ptr = ctypes.byref, ctypes.c_void_p
        size, one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64()
        args = (ref(size), ref(one), ptr(self.lower.ctypes.data),
                ptr(self.main.ctypes.data), ptr(self.upper.ctypes.data),
                ptr(self.F.ctypes.data), ref(size), ref(info))
        total, buf = ctypes.c_int64(self.bands.size), ptr(self.bands.ctypes.data)
        dot = (ref(total), buf, ref(one), buf, ref(one))
        self.gtsv = (dgtsv, args, info, ddot, dot)


class _Discretization:
    """The Newton kernel of one run.  It reads the geometric factors, the
    exponents, mu and the boundary once, and it owns every array an
    iteration writes:
    - two `_State`s, the iterate's and a line-search trial's, which `step`
      swaps when it accepts the trial.  Each has its own band buffer, so
      the residual of a state is written as F = -R straight into the
      right-hand side view of its bands, and a trial's residual leaves the
      iterate's update, solved in place in the iterate's F, alone;
    - beta(u_prev), the flux, its derivative, the second factor of that
      derivative and |F|;
    - at p = 2 the off-diagonals are constant, and one copy of a template
      refills dl and du.
    When q is a power of two from 2^-6 to 2^7 and q V is exact (checked
    here), q is folded into the volumes of beta'(u) V/dt: the product
    (m q) V then equals m (q V) for every m = max(u, eps)^(q-1), because
    m q is exact unless it overflows, and for q <= 2^7 it overflows only
    where u^q does, whose residual makes the solve raise.
    With a zero Dirichlet boundary, the state a step accepts is the start
    of the next step (see `step`).  Every floating-point operation keeps
    the order of the plain formulas in the comments, so the bits are those
    of a step that allocates every temporary, but for the sign of an exact
    zero of F (see `residual`).  Calls take `out` positionally (but
    `np.maximum`, where that is deprecated) and scalars as 0-d arrays,
    which numpy dispatches fastest."""

    def __init__(self, problem):
        self.pr = problem
        g = problem.grid
        n = g.n_cells
        self.h = np.array(g.h)
        self.p = problem.exponents.p
        self.q = q = problem.exponents.q
        self.q0 = np.array(q)
        self.zero = np.array(0.0)
        # beta'(u)'s regularization
        self.eps = np.array(1e-12)
        self.mu = problem.mu
        self.vol = g.cell_volumes()
        self.vol_max = self.vol.max()
        qvol = q * self.vol
        frac, exp = math.frexp(q)
        self.fold_q = frac == 0.5 and -5 <= exp <= 8 and (qvol / q == self.vol).all()
        self.jac_vol = qvol if self.fold_q else self.vol
        faces = g.faces()
        if g.geometry == "radial":
            self.area = faces ** (g.n_dim - 1)
        else:
            self.area = np.ones(n + 1)
        # zero flux through the face at r = 0
        self.symmetric = g.geometry == "radial" and g.x_lo == 0.0
        # ghost coupling: d ghost / d u_first = -1 for dirichlet-type data
        self.ghost_coupled = problem.boundary != "from_exact"
        self.ghost_values = problem.ghost_values
        # from_exact ghost values depend on t alone: the last t and its pair
        self.exact_ghost_t = None
        self.exact_ghosts = None
        if problem.boundary == "from_exact":
            self.ghost_values = self._exact_ghost_values
        self.states = (_State(n), _State(n))
        self.flux = np.empty(n + 1)
        self.flux_hi, self.flux_lo = self.flux[1:], self.flux[:-1]
        # d flux_f / d (u_right - u_left); at p = 2 it is area / h, built once
        self.dflux = np.empty(n + 1)
        self.dflux_hi, self.dflux_lo = self.dflux[1:], self.dflux[:-1]
        self.dflux_in = self.dflux[1:-1]
        self.second = np.empty(n + 1)
        self.abs_R = np.empty(n)
        if self.p == 2:
            np.divide(self.area, self.h, self.dflux)
            if self.symmetric:
                self.dflux[0] = 0.0
            # lower = upper = -dflux[1:-1]
            self.off_p2 = np.negative(np.tile(self.dflux_in, 2))
        self.b_prev = np.empty(n)
        # zero Dirichlet ghosts do not move with t: the state a step accepts
        # may start the next one (see `step`), which `returned` keys; `idle`
        # holds the (dt, newton_tol) and residual of a returned step that
        # took no iteration
        self.zero_dirichlet = problem.boundary == "zero_dirichlet"
        self.returned = None
        self.idle = None

    def _exact_ghost_values(self, u, t):
        """`problem.ghost_values(u, t)` of a from_exact boundary, evaluated
        once per t (a step's residuals share t_new) and kept here."""
        if self.exact_ghost_t != t:
            self.exact_ghosts = self.pr.ghost_values(u, t)
            self.exact_ghost_t = t
        return self.exact_ghosts

    def residual(self, state, b_prev, t_new, dt, b_u=None):
        """The negated cell residuals F_i = net flux - (beta(u)-beta(u_prev))
        V_i/dt of `state`'s iterate, with `b_prev` = beta(u_prev) and `b_u`
        = beta(u) when known, written into `state`'s F with the face
        gradients, phi's base and the flux difference.  An iterate whose
        beta is not given is a trial, max(., 0.0), which holds no -0.0; its
        beta(u) is written into `state.beta`.  F is -R but for the sign of
        an exact zero (a - b is -(b - a), and both are +0.0 where a == b);
        that sign reaches only the zeros of the update, which u + (+-0) and
        max(., 0.0) remove.  Returns max |F_i|."""
        ue, grads, F = state.ue, state.grads, state.F
        if self.zero_dirichlet:
            # ghost = 2 * 0.0 - first interior cell
            ue[0] = 0.0 - ue[1]
            ue[-1] = 0.0 - ue[-2]
        else:
            ue[0], ue[-1] = self.ghost_values(state.u, t_new)
        np.subtract(state.hi, state.lo, grads)
        np.divide(grads, self.h, grads)
        # flux = phi(grads) * grads * area
        flux = self.flux
        if self.p == 2:
            np.multiply(grads, self.area, flux)
        else:
            _phi(grads, self.mu, self.p, flux, state.base)
            np.multiply(flux, grads, flux)
            np.multiply(flux, self.area, flux)
        if self.symmetric:
            flux[0] = 0.0
        np.subtract(self.flux_hi, self.flux_lo, state.div)
        # F = (flux[1:] - flux[:-1]) - (beta(u) - b_prev) * vol / dt
        if b_u is None:
            u, q, b = state.u, self.q, state.beta
            # u >= +0.0, so at q = 2, u * u == |u| u
            b_u = u if q == 1 else np.multiply(u, u, b) if q == 2 else _beta(u, q, b)
        np.subtract(b_u, b_prev, F)
        np.multiply(F, self.vol, F)
        np.divide(F, dt, F)
        np.subtract(state.div, F, F)
        abs_F = np.abs(F, self.abs_R)
        return abs_F[abs_F.argmax()]

    def jacobian_bands(self, state, dt):
        """Tridiagonal Jacobian at `state`, written into the state's bands
        `lower`, `main` and `upper` (`solve_banded` overwrites them)."""
        dflux = self.dflux
        if self.p == 2:
            state.off[...] = self.off_p2
        else:
            # d flux_f / d (u_right - u_left) = phi'(grads) * area / h
            g, base = state.grads, state.base
            _phi_total_deriv(g, self.mu, self.p, dflux, base, self.second)
            np.multiply(dflux, self.area, dflux)
            np.divide(dflux, self.h, dflux)
            if self.symmetric:
                dflux[0] = 0.0
            np.negative(self.dflux_in, state.lower)
            state.upper[...] = state.lower
        # main = beta'(u) * vol / dt + dflux[:-1] + dflux[1:], with
        # beta'(u) = q max(u, eps)^(q-1), which is singular at 0 for q < 1
        # and degenerate for q > 1; 1 at q = 1, and x**1.0 == x at q = 2
        main, q = state.main, self.q
        if q == 1:
            np.divide(self.vol, dt, main)
        else:
            np.maximum(state.u, self.eps, out=main)
            if q != 2:
                np.power(main, q - 1, main)
            if not self.fold_q:
                np.multiply(main, self.q0, main)
            np.multiply(main, self.jac_vol, main)
            np.divide(main, dt, main)
        np.add(main, self.dflux_lo, main)
        np.add(main, self.dflux_hi, main)
        if self.ghost_coupled:
            # the ghost gl = 2 bl - u_0 doubles d/du_0 of (u_0 - gl)/h; so
            # at the right face
            main[0] = main.item(0) + dflux.item(0)
            main[-1] = main.item(-1) + dflux.item(-1)


# the line search's update sizes: 1, 1/2, ..., 1/128, then 0.1, which is
# taken even where it does not lower the residual, to escape a flat spot
_LINE_SEARCH = [0.5**k for k in range(8)] + [0.1]


def step(problem, u_prev, t, dt, config, disc=None):
    """Advance one implicit Euler step from time t to t+dt.

    Returns (u_new, diagnostics dict).  Newton with a line search
    (`_LINE_SEARCH`); a residual within 100 times its tolerance after
    max_newton iterations is accepted.  beta(u_prev) is computed once per
    step and shared by the tolerance and every residual; each iteration
    solves its tridiagonal system, whose right-hand side is the negated
    residual F that the iterate's residual wrote into its bands, with
    `solve_banded` (LAPACK `dgtsv`).  `disc` is the problem's
    `_Discretization`, the run's kernel, built here when not given (a
    `Trajectory` builds one per run).

    The first residual is F(u_prev) = (flux difference) - (beta(u_prev) -
    beta(u_prev)) V/dt = (flux difference) - 0.  With a zero Dirichlet
    boundary, whose ghosts do not move with t, a step returns the bits of
    the iterate it accepted, so when `u_prev` is the very array the
    workspace's last step returned, with the same bytes, that step's flux
    difference, face gradients and phi base start this one, and its
    beta(u) is this step's beta(u_prev): a step that iterated swaps its
    accepted trial's beta(u) into `b_prev`, and one that did not leaves
    beta(u_prev), which is beta of its return, there.  If that step took
    no iteration, this one, at the same dt and tolerance, has its residual
    and tolerance and takes none either: it returns at once.
    Raises StepFailure, which names t and the residual as a multiple of its
    tolerance, also where the tolerance or a residual is not finite: no
    Jacobian or solve is formed from either."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    u_prev = np.asarray(u_prev, dtype=float)
    if disc is None:
        disc = _Discretization(problem)
    cur, spare = disc.states
    # the last step's return, unchanged, is its accepted iterate: >= 0
    carried = disc.returned is u_prev and cur.u.tobytes() == u_prev.tobytes()
    disc.returned = None
    idle, disc.idle = disc.idle, None
    key = (dt, config.newton_tol)
    if carried and idle is not None and idle[0] == key:
        u = np.maximum(cur.u, 0.0)
        disc.returned, disc.idle = u, idle
        return u, {"iters": 0, "residual": idle[1]}
    if not carried and (u_prev < 0).any():
        raise ValueError("u_prev must be non-negative")
    t_new = t + dt
    dt0 = np.array(dt)
    q, zero, abs_R = disc.q, disc.zero, disc.abs_R
    residual, jacobian_bands = disc.residual, disc.jacobian_bands
    if carried:
        # F(u_prev) = (flux difference) - 0, as computed afresh
        b_prev = u_prev if q == 1 else disc.b_prev
        cur.F[...] = cur.div
        np.abs(cur.F, abs_R)
        norm = abs_R[abs_R.argmax()]
    else:
        b_prev = _beta(u_prev, q, disc.b_prev)
        cur.u[...] = u_prev
        norm = residual(cur, b_prev, t_new, dt0, b_u=b_prev)
    iters, max_newton = 0, config.max_newton
    # residuals scale like beta(u) * vol / dt; make the tolerance follow suit
    # (the 1e-14 floor keeps the tolerance meaningful on near-extinct states
    # without freezing them: an absolute floor of O(1) would let tiny-amplitude
    # tails pass the test with a zero update); beta(u_prev) >= 0
    beta_amp = float(b_prev[b_prev.argmax()])
    scale = (beta_amp + 1e-14) * disc.vol_max / dt
    tol = config.newton_tol * scale
    if not tol < math.inf:
        raise StepFailure("tolerance is not finite", t_new, norm, tol)
    # an infinite residual ends the iteration (a NaN one never starts it)
    # before a Jacobian or a solve sees it
    while tol < norm < math.inf and iters < max_newton:
        jacobian_bands(cur, dt0)
        try:
            delta = solve_banded(cur)
        except np.linalg.LinAlgError as exc:
            raise StepFailure("linear solve failed", t_new, norm, tol) from exc
        # trial = max(u + lam * delta, 0) for lam in _LINE_SEARCH until one
        # lowers the residual; at lam = 1 the product is skipped
        # (1.0 * delta == delta)
        u, trial = cur.u, spare.u
        for lam in _LINE_SEARCH:
            if lam == 1.0:
                np.add(u, delta, trial)
            else:
                np.multiply(delta, lam, trial)
                np.add(trial, u, trial)
            np.maximum(trial, zero, out=trial)
            n_t = residual(spare, b_prev, t_new, dt0)
            if n_t < norm or lam == 0.1:
                cur, spare, norm = spare, cur, n_t
                break
        iters += 1
    disc.states = cur, spare
    if not norm <= tol * 100:
        if not norm < math.inf:  # inf or NaN
            raise StepFailure("residual is not finite", t_new, norm, tol)
        raise StepFailure("nonlinear iteration did not converge", t_new, norm, tol)
    u = np.maximum(cur.u, 0.0)
    if disc.zero_dirichlet:
        disc.returned = u
        if iters and q != 1:  # the next step's beta(u_prev), if carried
            disc.b_prev, cur.beta = cur.beta, disc.b_prev
        if not iters and norm <= tol:
            disc.idle = key, norm
    return u, {"iters": iters, "residual": norm}


def time_grid(problem, config):
    """(stored times, step sizes) of a run: uniform dt from t_start with a
    final short step to t_end.  Step i goes from times[i] by dts[i] to
    times[i + 1] = t_start + min((i + 1) dt, span), recomputed from the step
    index to avoid float drift in long runs.  A short step under 1e-9 dt is
    dropped, unless it is the run's only step.  More than 10^6 steps (the
    span over dt, not finite too) raise ValueError before any list is
    built."""
    span = problem.t_end - problem.t_start
    count = span / config.dt * (1.0 + 1e-12)
    # inf too; the step list and every stored field are held in memory
    if not count <= 1e6:
        raise ValueError(f"t_end - t_start is {count:.3g} steps of dt: over 10^6")
    n_full = int(math.floor(count))
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
    `times[i]`, splitting a step that fails (`_advance`).  `fields`,
    `newton_iters` and `residual_norms` hold one entry per stored row so far
    (0 and 0.0 for the initial row).  The readers below take rows with
    `row`, so they step a trajectory that is not yet solved."""

    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        self.times, self._dts = time_grid(problem, config)
        self.fields = [problem.initial.copy()]
        self.newton_iters = [0]
        self.residual_norms = [0.0]
        self._disc = _Discretization(problem)
        self._failure = None  # the StepFailure that ended the stepping

    def row(self, i):
        """The field at `times[i]`, stepped to on first read.  A StepFailure
        names its step, and every later read that needs that step raises it
        again.  The steps run with numpy's overflow, invalid and divide
        warnings off: a value they make inf or NaN ends the run as the
        StepFailure of `step`."""
        if not 0 <= i < len(self.times):
            raise IndexError(f"row {i} of {len(self.times)}")
        fields, times, dts = self.fields, self.times, self._dts
        if i < len(fields):
            return fields[i]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while len(fields) <= i:
                if self._failure is not None:
                    raise self._failure
                k = len(fields) - 1
                u, t, dt = fields[k], times[k], dts[k]
                try:
                    u, info = self._advance(u, t, dt)
                except StepFailure as exc:
                    self._failure = exc.at_step(k + 1, len(dts))
                    raise self._failure from exc
                fields.append(u)
                self.newton_iters.append(info["iters"])
                self.residual_norms.append(info["residual"])
        return fields[i]

    def _advance(self, u, t, dt, splits=7):
        """A `step` from u at t by dt, or, where it raises StepFailure, two
        `_advance`s by dt/2 in its place, down to steps of dt/2^splits; the
        info of a split step sums the iterations and keeps the larger
        residual; a step of the least double is not split.  `step` returns a
        new array and never writes to u."""
        try:
            return step(self.problem, u, t, dt, self.config, disc=self._disc)
        except StepFailure:
            half = dt / 2
            if not (splits and half):
                raise
        u, a = self._advance(u, t, half, splits - 1)
        u, b = self._advance(u, t + half, half, splits - 1)
        residual = max(a["residual"], b["residual"])
        return u, {"iters": a["iters"] + b["iters"], "residual": residual}


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
        d = traj_v.row(i) - traj_w.row(i)
        # the first largest entry, NaN included, as np.max reads it
        k = int(d.argmax())
        if d[k] > violation:
            violation = float(d[k])
            where = (traj_v.times[i], k)
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


def integral_uq1(grid, q, u):
    """int u^{q+1} of the field `u`, or of each row of a (rows, n) stack of
    fields, by the quadrature consistent with the FV grid (radial runs
    include the unit-sphere area); `u` is overwritten by w u^{q+1}.  A sum
    along a row takes the bits of the sum of that row alone."""
    w = grid.cell_volumes() * grid.surface_constant()
    u **= q + 1
    return np.sum(np.multiply(w, u, u), axis=-1)


def slice_functionals(traj):
    """Per-time {t, int u^{q+1}, sup u} (`integral_uq1`).  The trajectory
    is stepped once, to its last row, and its fields are stacked into one
    (rows, n) array."""
    pr = traj.problem
    traj.row(len(traj.times) - 1)
    u = np.array(traj.fields)
    sup_u = u.max(axis=1)
    return {
        "t": np.asarray(traj.times),
        "int_uq1": integral_uq1(pr.grid, pr.exponents.q, u),
        "sup_u": sup_u,
    }


def gradient_p_norm(traj, i):
    """||Du(.,t_i)||_p^p with the scheme-consistent face quadrature.

    Gradients are taken at cell faces (including the boundary faces via ghost
    values) and weighted by face area x h, matching the discrete energy
    dissipation of the FV scheme; a center-based quadrature misses the
    boundary-layer contribution that dominates dissipation near extinction.
    The face at r = 0 carries no flux, so it has no weight (its area 0^0 is
    1 on a radial N = 1 grid).

    `i` is a row, or a sequence of rows: then one norm per row comes back
    as an array, as `SolutionSource.eval` does for an array of points.  The
    rows, each with its ghosts from `problem.ghost_values`, fill one
    (rows, n + 2) array, and each norm is a sum along its row, with the
    bits of that row alone (numpy's power gives the same bits wherever an
    element sits)."""
    pr, g, disc = traj.problem, traj.problem.grid, traj._disc
    rows = np.ravel(i).tolist()
    ue = np.empty((len(rows), g.n_cells + 2))
    for k, r in enumerate(rows):
        u = ue[k, 1:-1] = traj.row(r)
        ue[k, 0], ue[k, -1] = pr.ghost_values(u, traj.times[r])
    w = disc.area * g.h * g.surface_constant()
    if disc.symmetric:
        w[0] = 0.0
    # w |(ue[1:] - ue[:-1]) / h|^p, in place in one array
    terms = np.subtract(ue[:, 1:], ue[:, :-1])
    np.divide(terms, g.h, terms)
    np.abs(terms, terms)
    terms **= pr.exponents.p
    norms = np.sum(np.multiply(w, terms, terms), axis=1)
    return float(norms[0]) if np.ndim(i) == 0 else norms
