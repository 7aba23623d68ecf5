"""Catalog of closed-form solutions, sub-solutions and counterexamples for
d/dt(u^q) = div(|Du|^(p-2) Du).

Every family is radially symmetric and evaluable pointwise with an analytic
gradient and analytic d/dt(u^q).  An independent second-order central
finite-difference residual oracle (``pde_residual``) checks u against the
equation; for families with role "weak_solution" the residual converges at
order 2 in the stencil width.  The oracle reads u alone: the tests check the
analytic gradient against a central difference of u.
"""

import inspect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import STENCIL_WIDTHS, ExponentTriple


class DomainError(ValueError):
    """Point outside the validity domain of a closed-form family."""


class ClosedFormSolution:
    """Base class: a radial space-time profile u(|x|, t) with analytic radial
    derivative and analytic d/dt(u^q).

    Subclasses implement u_rt / ur_rt on arrays of radii and times, with
    the libm power `power` (see `eval_lattice`), ut_rt or, in its place,
    dtuq_rt, valid_rt and validity_description unless the family is valid
    everywhere, and set a residual_window.  The public eval/grad/dt_uq
    operate on coordinate vectors and raise DomainError outside the
    validity domain; eval_lattice evaluates u or |Du| over a lattice of
    probe-line times whose points all lie inside it, and checks none of
    them.
    """

    family = "abstract"
    role = "weak_solution"
    # radius of a spatial singularity (for stencil collars), or None
    r_singular = None

    def __init__(self, exponents):
        self.exponents = exponents

    # -- radial profile interface (vectorized over r, t) --------------------
    def ut_rt(self, r, t):
        raise NotImplementedError

    def dtuq_rt(self, r, t):
        q = self.exponents.q
        u = self.u_rt(r, t)
        return q * np.asarray(u) ** (q - 1) * self.ut_rt(r, t)

    def valid_rt(self, r, t):
        return np.full(np.broadcast(np.asarray(r), np.asarray(t)).shape, True)

    def residual_lattice(self, h_values=STENCIL_WIDTHS):
        """16 radii x 8 times spanning the family's `residual_window`
        (r_lo, r_hi, t_lo, t_hi), kept off closed-form singularities.  An
        empty window (r_lo >= r_hi or t_lo >= t_hi), and a lattice whose
        stencil at the widest h of `h_values` has a point outside the
        validity domain, are a DomainError.  The oracle reads u at
        (r, t +- h), (r, t) and (r +- 2h, t)."""
        r_lo, r_hi, t_lo, t_hi = self.residual_window
        if not (r_lo < r_hi and t_lo < t_hi):
            raise DomainError(
                f"residual window of {self.family} is empty: r {r_lo:g} to "
                f"{r_hi:g}, t {t_lo:g} to {t_hi:g}"
            )
        radii, times = np.linspace(r_lo, r_hi, 16), np.linspace(t_lo, t_hi, 8)
        dr, dt = np.array([[0, 0, 0, -2, 2], [0, -1, 1, 0, 0]])[..., None, None]
        h = max(h_values)
        if not self.valid_rt(radii + dr * h, times[:, None] + dt * h).all():
            raise DomainError(
                f"residual lattice leaves the validity domain of {self.family}: "
                + self.validity_description()
            )
        return radii, times

    # -- public pointwise API ----------------------------------------------
    def _radius(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore"):  # inf where x . x overflows
            return float(np.linalg.norm(x)), x

    def _check(self, r, t):
        if not self.valid_rt(np.asarray(r, float), np.asarray(t, float)).all():
            raise DomainError(
                f"({r}, {t}) outside validity domain of {self.family}: "
                + self.validity_description()
            )

    def eval(self, x, t):
        r, _ = self._radius(x)
        self._check(r, t)
        return float(self.u_rt(r, t))

    def eval_lattice(self, xs, ts, field="eval"):
        """u (field "eval") or |Du| (field "grad_norm") at every point of the
        lattice ts x xs, one row per time, leading axes of xs and ts being
        probe axes: the same bits as one `eval([v], t)` or one
        `float(np.linalg.norm(grad([v], t)))` per point.  It checks no point:
        every point must lie in the validity domain, as the caller's mask
        (`valid_lattice`) has decided.

        The table is one call of `u_rt` or `ur_rt` on the radii as a row and
        the times as a column, and keeps each value's bits by keeping each
        power's kind.  At one point, a power whose base is the 0-d array
        `np.asarray(r)` or `np.asarray(t)` runs numpy's array loop, as `**`
        (`np.power`) of a row or a column does.  A power of a numpy scalar,
        the result of any other operation, runs libm `pow`, which may differ
        from the array loop in the last bit: `u_rt` and `ur_rt` take it by
        their argument `power`, `**` by default and `np.float_power`, whose
        float64 loop is libm `pow`, in a table."""
        xs = np.asarray(xs, dtype=float)[..., None, :]
        t = np.asarray(ts, dtype=float)[..., None]
        # the bits of np.linalg.norm of a 1-vector, inf where x * x overflows
        with np.errstate(over="ignore"):
            r = np.sqrt(xs * xs)
        if field == "eval":
            return self.u_rt(r, t, np.float_power)
        # `grad`'s bits: the 1-vector y = ur * x / r (0 at r = 0), and the
        # norm sqrt(y * y) of it
        y = self.ur_rt(r, t, np.float_power) * xs
        y = np.divide(y, r, out=np.zeros(y.shape), where=r != 0)
        return np.sqrt(np.multiply(y, y, out=y), out=y)

    def valid_lattice(self, xs, ts):
        """`valid_rt` at every point of the lattice ts x xs, one row per
        time (leading axes as in `eval_lattice`), at the radius sqrt(x * x):
        the bits of the `np.linalg.norm` that `eval` and `grad` take."""
        xs = np.asarray(xs, dtype=float)[..., None, :]
        tcol = np.asarray(ts, dtype=float)[..., None]
        with np.errstate(over="ignore"):  # inf where x * x overflows
            r = np.sqrt(xs * xs)
        return np.broadcast_to(self.valid_rt(r, tcol), np.broadcast(r, tcol).shape)

    def check_lattice(self, xs, ts):
        """Raise the DomainError of the first point of the lattice ts x xs,
        row by row, outside the validity domain, as its own `eval` raises
        it."""
        bad = ~self.valid_lattice(xs, ts)
        if bad.any():
            *probe, i, j = np.unravel_index(np.argmax(bad), bad.shape)
            x, t = np.asarray(xs)[(*probe, j)], np.asarray(ts)[(*probe, i)]
            self._check(self._radius(x)[0], t)

    def grad(self, x, t):
        r, xv = self._radius(x)
        self._check(r, t)
        if r == 0.0:
            return np.zeros_like(xv)  # radial symmetry
        return float(self.ur_rt(r, t)) * xv / r

    def dt_uq(self, x, t):
        r, _ = self._radius(x)
        self._check(r, t)
        return float(self.dtuq_rt(r, t))


# ---------------------------------------------------------------------------
# residual oracle
# ---------------------------------------------------------------------------

# a fitted residual order at or above this counts as convergence
CONVERGENT_ORDER = 1.5


def pde_residual_rt(sol, r, t, h):
    """Second-order central-difference residual of d/dt(u^q) - div(|Du|^{p-2}Du)
    at radius r and time t; r, t and h broadcast.  Uses only sol.u_rt,
    independently of the analytic derivatives."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    e = sol.exponents
    N, p, q = e.n_dim, e.p, e.q
    u = sol.u_rt

    def power_q(w):
        w = np.asarray(w)
        return np.sign(w) * np.abs(w) ** q

    dtuq = (power_q(u(r, t + h)) - power_q(u(r, t - h))) / (2 * h)

    def flux(rr):
        g = (u(rr + h, t) - u(rr - h, t)) / (2 * h)
        mag = np.abs(g)
        # |g|^(p-2) g, with the p<2 singularity at g=0 regularized to 0 flux
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(mag > 0, mag ** (p - 2) * g, 0.0)
        return rr ** (N - 1) * f

    div = (flux(r + h) - flux(r - h)) / (2 * h) / r ** (N - 1)
    return dtuq - div


def pde_residual(sol, x, t, h):
    """Residual at a single space-time point; errors if the 2h stencil (plus a
    10h collar around spatial singularities) leaves the validity domain."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    for rr, tt in [(r, t - h), (r, t + h), (r - 2 * h, t), (r + 2 * h, t)]:
        if not np.all(sol.valid_rt(np.asarray(rr, float), np.asarray(tt, float))):
            raise DomainError(
                f"stencil point ({rr}, {tt}) leaves the domain of {sol.family}"
            )
    if sol.r_singular is not None and abs(r - sol.r_singular) < 12 * h:
        raise DomainError(
            f"stencil within the 10h collar of the singular radius "
            f"{sol.r_singular} of {sol.family}"
        )
    return float(pde_residual_rt(sol, r, t, h))


def max_residual(sol, radii, times, h):
    """Max |residual| over the tensor lattice radii x times."""
    R, T = np.meshgrid(np.asarray(radii, float), np.asarray(times, float))
    return float(np.max(np.abs(pde_residual_rt(sol, R, T, h))))


def residual_order(sol, radii, times, h_values=STENCIL_WIDTHS):
    """Max residuals over the lattice radii x times for each h of `h_values`
    and the fitted log-log order.  The widths are one array axis: a single
    `pde_residual_rt` pass with h of shape (len(h_values), 1, 1) gives each
    width's residuals, with the bits of one `max_residual` per width.  Fewer
    than two distinct widths, or a width whose max residual is 0 or not
    finite, leave no slope to fit: a ValueError names them."""
    hs = np.asarray(h_values, dtype=float)
    if len(set(hs.tolist())) < 2:
        raise ValueError(
            "the residual order needs at least two distinct stencil widths, "
            f"got {', '.join(repr(h) for h in hs.tolist())}"
        )
    R, T = np.meshgrid(np.asarray(radii, float), np.asarray(times, float))
    res = np.max(np.abs(pde_residual_rt(sol, R, T, hs[:, None, None])), axis=(1, 2))
    bad = ~(np.isfinite(res) & (res > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"max residual {res[i]:g} at stencil width {hs[i].item()!r} is not "
            "finite and > 0: its logarithm fits no order"
        )
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    return res, float(slope)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class TrudingerGaussian(ClosedFormSolution):
    """Gaussian-type solution of the Trudinger borderline q = p-1:
    u = C t^{-N/(p(p-1))} exp{-((p-1)/p) (|x|^p/(p t))^{1/(p-1)}} on t > 0."""

    family = "trudinger_gaussian"
    role = "weak_solution"
    residual_window = (0.2, 2.0, 0.5, 1.5)

    def __init__(self, p, n_dim, C=1.0):
        exps = ExponentTriple(p=p, q=p - 1, n_dim=n_dim)
        super().__init__(exps)
        self.C = C

    def u_rt(self, r, t, power=operator.pow):
        p, N = self.exponents.p, self.exponents.n_dim
        r = np.abs(np.asarray(r, float))
        t = np.asarray(t, float)
        return (
            self.C
            * t ** (-N / (p * (p - 1)))
            * np.exp(-((p - 1) / p) * power(power(r, p) / (p * t), 1 / (p - 1)))
        )

    def ur_rt(self, r, t, power=operator.pow):
        p = self.exponents.p
        r = np.abs(np.asarray(r, float))
        rate = power(r / (p * np.asarray(t, float)), 1 / (p - 1))
        return -self.u_rt(r, t, power) * rate

    def ut_rt(self, r, t):
        p, N = self.exponents.p, self.exponents.n_dim
        r = np.abs(np.asarray(r, float))
        t = np.asarray(t, float)
        xi = (r**p / (p * t)) ** (1 / (p - 1))
        return self.u_rt(r, t) * (-N / (p * (p - 1) * t) + xi / (p * t))

    def valid_rt(self, r, t):
        # at |x| = inf, u = 0 exactly; |x|^p/(p t) overflows where p t does
        p, N = self.exponents.p, self.exponents.n_dim
        r, t = np.asarray(r, float), np.asarray(t, float)
        with np.errstate(all="ignore"):
            amp, pt = t ** (-N / (p * (p - 1))), p * t
            xi = r**p / pt
        ok = (t > 0) & np.isfinite(amp) & np.isfinite(pt)
        return ok & (np.isfinite(xi) | (r == np.inf))

    def validity_description(self):
        return "t > 0 and neither t^(-N/(p(p-1))) nor |x|^p/(p t) overflows"


class SeparableBlowup(ClosedFormSolution):
    """Separable unbounded solution u = C(N,p,q) (T-t)_+^{1/k} |x|^{-p/k},
    k = q - (p-1); the counterexample to local boundedness beyond the
    critical Harnack exponent."""

    family = "separable_blowup"
    role = "weak_solution"
    residual_window = (0.5, 2.0, 1e-9, 0.6)
    r_singular = 0.0

    def __init__(self, n_dim, p, q, T=1.0):
        exps = ExponentTriple(p=p, q=q, n_dim=n_dim)
        k = q - (p - 1)
        num = (n_dim * k - p * q) / q
        if k <= 0 or num <= 0:
            raise ValueError(
                "requires q > p-1 and N(q-(p-1)) > pq for a real amplitude"
            )
        C = (num * (p / k) ** (p - 1)) ** (1 / k)
        super().__init__(exps)
        self.T = T
        self.C = C
        self.k = k

    def u_rt(self, r, t, power=operator.pow):
        p = self.exponents.p
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        return self.C * power(tt, 1 / self.k) * r ** (-p / self.k)

    def ur_rt(self, r, t, power=operator.pow):
        p = self.exponents.p
        return -(p / self.k) * self.u_rt(r, t, power) / np.asarray(r, float)

    def dtuq_rt(self, r, t):
        q, p = self.exponents.q, self.exponents.p
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        return (
            -(q / self.k)
            * self.C**q
            * tt ** (q / self.k - 1)
            * r ** (-p * q / self.k)
        )

    def valid_rt(self, r, t):
        return (np.asarray(r, float) > 0) & (np.asarray(t, float) < self.T)

    def validity_description(self):
        return "|x| > 0 and t < T"


def critical_wave_b(n_dim, p):
    """Closed-form time constant of the critical Harnack wave, derived by
    substituting the profile into the equation:
    b = (N/q)^(p-1) * N(q+1)/(q(N-1)) with q = N(p-1)/(N-p)."""
    N = n_dim
    q = N * (p - 1) / (N - p)
    kappa = N * (q + 1) / (q * (N - 1))
    return (N / q) ** (p - 1) * kappa


class CriticalHarnackWave(ClosedFormSolution):
    """Traveling-wave-in-time solution at the critical Harnack exponent
    q = N(p-1)/(N-p):  u = (|x|^kappa + e^{b t})^{-(N-1)/(q+1)} with
    kappa = N(q+1)/(q(N-1)).  The default b is the derived closed form
    ``critical_wave_b``; pass b explicitly to probe other candidates."""

    family = "critical_harnack_wave"
    role = "weak_solution"
    residual_window = (0.5, 2.0, -0.5, 0.5)

    def __init__(self, n_dim, p, b=None):
        if not (2 <= n_dim and p < n_dim):
            raise ValueError("requires N >= 2 and p < N")
        N = n_dim
        q = N * (p - 1) / (N - p)
        exps = ExponentTriple(p=p, q=q, n_dim=N)
        if b is None:
            b = critical_wave_b(N, p)
        super().__init__(exps)
        self.b = b
        self.kappa = N * (q + 1) / (q * (N - 1))
        self.gamma = (N - 1) / (q + 1)
        self.b_min = 2 * np.finfo(float).max ** (-1 / (self.gamma + 1))

    def _ebt(self, t):
        """e^{bt}; inf where it overflows, where u, Du and u_t take 0, their limit."""
        with np.errstate(over="ignore"):
            return np.exp(self.b * np.asarray(t, float))

    def u_rt(self, r, t, power=operator.pow):
        r = np.asarray(r, float)
        return power(r**self.kappa + self._ebt(t), -self.gamma)

    def ur_rt(self, r, t, power=operator.pow):
        r = np.asarray(r, float)
        base = r**self.kappa + self._ebt(t)
        return -self.gamma * self.kappa * r ** (self.kappa - 1) * power(
            base, -self.gamma - 1
        )

    def ut_rt(self, r, t):
        ebt = self._ebt(t)
        base = np.asarray(r, float) ** self.kappa + ebt
        with np.errstate(invalid="ignore"):  # inf * 0 where e^{bt} overflows
            ut = -self.gamma * self.b * ebt * base ** (-self.gamma - 1)
        return np.where(ebt == np.inf, 0.0, ut)

    def valid_rt(self, r, t):
        # base = r^kappa + e^{bt}, with e^{bt} underflowing to 0 far back in
        # time: neither u = base^-gamma nor base^(-gamma-1) in Du overflows
        # where one term is at least b_min
        with np.errstate(under="ignore"):
            r_k = np.asarray(r, float) ** self.kappa
            return (r_k >= self.b_min) | (self._ebt(t) >= self.b_min)

    def validity_description(self):
        return "|x|^kappa or e^{bt} is at least 2 DBL_MAX^(-1/(gamma+1))"


class BoundednessBorderline(ClosedFormSolution):
    """Two-parameter family at the boundedness threshold
    q = (N(p-1)+p)/(N-p):
    u = (T-t)_+^{(N+q+1)/(q+1)^2} (a + b |x|^{N(q+1)/(Nq-q-1)})^{-N/(q+1)}
    with b forced by (N, q, a).  Bounded weak solutions violating the Harnack
    inequality as t -> T or with growing radii."""

    family = "boundedness_borderline"
    role = "weak_solution"
    residual_window = (0.5, 2.0, 0.1, 0.6)

    def __init__(self, n_dim, p, a=1.0, T=1.0):
        if not p < n_dim:
            raise ValueError("requires p < N")
        N = n_dim
        q = (N * (p - 1) + p) / (N - p)
        if not max((q + 1) / q, p) < N:
            raise ValueError("requires max{(q+1)/q, p} < N")
        if not (0 < a < math.inf and 0 < T < math.inf):
            raise ValueError("requires a and T finite and > 0")
        exps = ExponentTriple(p=p, q=q, n_dim=N)
        b = (N * q - q - 1) / N**2 * (
            q * (N + q + 1) / ((q + 1) ** 2 * N * a)
        ) ** ((N + q + 1) / (N * q - q - 1))
        super().__init__(exps)
        self.a = a
        self.b = b
        self.T = T
        self.m_t = (N + q + 1) / (q + 1) ** 2
        self.s_exp = N * (q + 1) / (N * q - q - 1)

    def u_rt(self, r, t, power=operator.pow):
        N, q = self.exponents.n_dim, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        base = self.a + self.b * r**self.s_exp
        return power(tt, self.m_t) * power(base, -N / (q + 1))

    def ur_rt(self, r, t, power=operator.pow):
        N, q = self.exponents.n_dim, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        base = self.a + self.b * r**self.s_exp
        return (
            power(tt, self.m_t)
            * (-N / (q + 1))
            * self.b
            * self.s_exp
            * r ** (self.s_exp - 1)
            * power(base, -N / (q + 1) - 1)
        )

    def dtuq_rt(self, r, t):
        N, q = self.exponents.n_dim, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        base = (self.a + self.b * r**self.s_exp) ** (-N * q / (q + 1))
        return -q * self.m_t * tt ** (q * self.m_t - 1) * base * np.where(
            tt > 0, 1.0, 0.0
        )


class SupercriticalExtinction(ClosedFormSolution):
    """Two-parameter extinction family for q beyond the critical Harnack
    exponent (lambda_q < 0):
    u = (T-t)_+^{1/(q+1-p)} (a |x|^{p/(p-1)} + C (T-t)_+^{pq/((p-1) lam_q)})
          ^{-(p-1)/(q+1-p)},
    with the amplitude a forced by (N, p, q).  C > 0 gives a global weak
    solution extinguishing at T; C < 0 lives on the moving exterior domain
    |x| > R(t)."""

    family = "supercritical_extinction"
    role = "weak_solution"
    residual_window = (4.0, 10.0, 1e-9, 0.6)

    def __init__(self, n_dim, p, q, T=1.0, C=1.0):
        exps = ExponentTriple(p=p, q=q, n_dim=n_dim)
        lam = exps.lam_q
        if not (p < n_dim and lam < 0):
            raise ValueError("requires p < N and lambda_q < 0")
        a = (q / abs(lam)) ** (1 / (p - 1)) * (q + 1 - p) / p
        super().__init__(exps)
        self.T = T
        self.C = C
        self.a = a
        self.lam = lam
        self.kexp = q + 1 - p
        self.sigma = p * q / ((p - 1) * lam)  # negative

    def R_t(self, t):
        """Inner boundary radius of the C < 0 variant."""
        p, q = self.exponents.p, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        with np.errstate(divide="ignore"):  # R = inf at t >= T
            return (abs(self.C) / self.a) ** ((p - 1) / p) * tt ** (q / self.lam)

    def _base(self, r, t, power=operator.pow):
        p = self.exponents.p
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        with np.errstate(divide="ignore"):
            c_term = np.where(tt > 0, self.C * power(tt, self.sigma), np.inf)
        return self.a * r ** (p / (p - 1)) + c_term, tt

    def u_rt(self, r, t, power=operator.pow):
        p = self.exponents.p
        base, tt = self._base(r, t, power)
        expo = -(p - 1) / self.kexp
        return np.where(tt > 0, power(tt, 1 / self.kexp) * power(base, expo), 0.0)

    def ur_rt(self, r, t, power=operator.pow):
        p = self.exponents.p
        base, tt = self._base(r, t, power)
        r = np.asarray(r, float)
        pp = p / (p - 1)
        expo = -(p - 1) / self.kexp
        return np.where(
            tt > 0,
            power(tt, 1 / self.kexp)
            * expo
            * self.a
            * pp
            * r ** (pp - 1)
            * power(base, expo - 1),
            0.0,
        )

    def ut_rt(self, r, t):
        p = self.exponents.p
        base, tt = self._base(r, t)
        expo = -(p - 1) / self.kexp
        # d/dt of (T-t)^(1/k) * base^expo
        with np.errstate(divide="ignore", invalid="ignore"):
            term1 = -(1 / self.kexp) * tt ** (1 / self.kexp - 1) * base**expo
            dbase = -self.sigma * self.C * tt ** (self.sigma - 1)
            term2 = tt ** (1 / self.kexp) * expo * base ** (expo - 1) * dbase
        return np.where(tt > 0, term1 + term2, 0.0)

    def valid_rt(self, r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        if self.C >= 0:
            return np.full(np.broadcast(r, t).shape, True)
        return r > self.R_t(t)

    def validity_description(self):
        return "|x| > R(t) for the C < 0 variant"


class _SelfSimilar(ClosedFormSolution):
    """A self-similar profile u(x, t) = f(|x| (T-t)^{-1/p}) with -f' explicit
    (`neg_fprime`).  One 7-point Gauss-Legendre rule, `_integral`, sums -f'
    over the segments of a log grid of nodes from the tail inward (the
    profile decays like a power of r, so left-to-right accumulation would
    lose the tail to cancellation), plus `_tail`, f at the last node, into a
    table; f at r is the table at the first node at or above r (the last
    beyond the grid) plus `_integral` from r to it.  A subclass gives
    neg_fprime, a grid covering its domain and `_tail`.  `neg_fprime`, like
    `u_rt` and `ur_rt`, takes its libm power by `power`."""

    r_singular = 0.0

    def _build_table(self, nodes):
        # the rule is built here, not at import: leggauss loads numpy.polynomial
        self._gx, self._gw = np.polynomial.legendre.leggauss(7)
        self._nodes = nodes
        seg = self._integral(nodes[:-1], nodes[1:])
        self._f_tab = np.append(np.cumsum(seg[::-1])[::-1], 0.0) + self._tail(nodes[-1])
        if not (self._f_tab > 0).all():  # a profile that underflows to 0
            raise ValueError("requires f > 0 at every node of the profile table")

    def _integral(self, a, b):
        """The integral of -f' from a to b, elementwise, by the rule."""
        a, b = np.asarray(a, float), np.asarray(b, float)
        mid, half = ((a + b) / 2)[..., None], ((b - a) / 2)[..., None]
        return (half * self._gw * self.neg_fprime(mid + half * self._gx)).sum(axis=-1)

    def f(self, r):
        """The profile from the table, at any array of radii (nan at nan)."""
        r = np.asarray(r, float)
        k = np.minimum(np.searchsorted(self._nodes, r), self._nodes.size - 1)
        return self._f_tab[k] + self._integral(r, self._nodes[k])

    def _xi(self, r, t, power=operator.pow):
        tt = self.T - np.asarray(t, float)
        return np.asarray(r, float) * power(tt, -1 / self.exponents.p), tt

    def u_rt(self, r, t, power=operator.pow):
        xi, _ = self._xi(r, t, power)
        return self.f(xi)

    def ur_rt(self, r, t, power=operator.pow):
        xi, tt = self._xi(r, t, power)
        return -self.neg_fprime(xi, power) * power(tt, -1 / self.exponents.p)

    def ut_rt(self, r, t):
        xi, tt = self._xi(r, t)
        return -self.neg_fprime(xi) * xi / (self.exponents.p * tt)


class DipoleSelfSimilar(_SelfSimilar):
    """Dipole-type self-similar solution for q = 1, 1 < p < 2N/(N+2):
    -f'(r) = r^{-2/(2-p)} [C r^{|lam1|/(p-1)} + (2-p)/(p |lam1|)]^{-1/(2-p)}
    with lam1 = N(p-2)+p < 0, and f(inf) = 0.

    f is tabulated on 1e-6 .. 1e6 (4096 nodes).  Beyond the grid -f' ~
    r^{-(N-1)/(p-1)}, so f ~ r (-f') (p-1)/(N-p); below it -f' = K0 (p/(2-p))
    r^{-2/(2-p)} in double precision, so f = K0 r^{-p/(2-p)} + `_f_lo`.  C
    must keep C r^{|lam1|/(p-1)} finite at the grid end, and (2-p)/(p |lam1|)
    below an ulp of it there, so that f is that asymptote past the grid."""

    family = "dipole_self_similar"
    role = "weak_solution"
    residual_window = (1.5, 4.0, 1e-9, 0.6)

    def __init__(self, n_dim, p, T=1.0, C=1.0):
        if not 1 < p < 2 * n_dim / (n_dim + 2):
            raise ValueError("requires 1 < p < 2N/(N+2) (so N >= 3)")
        if not C > 0:
            raise ValueError("requires C > 0")
        exps = ExponentTriple(p=p, q=1.0, n_dim=n_dim)
        super().__init__(exps)
        self.T = T
        self.C = C
        self.lam1 = n_dim * (p - 2) + p
        self._K0 = ((p / (2 - p)) ** (p - 1) * abs(self.lam1)) ** (1 / (2 - p))
        nodes = np.logspace(-6, 6, 4096)
        # the bracket C r^a + b at the grid end, in logs so that nothing
        # overflows: C r^a must be finite, and b below an ulp of it, so that
        # `_tail`'s asymptote is f there to double precision
        a, b = abs(self.lam1) / (p - 1), (2 - p) / (p * abs(self.lam1))
        log_ra = a * math.log(nodes[-1])
        if not max(log_ra, math.log(C) + log_ra) < math.log(np.finfo(float).max):
            raise ValueError(
                "requires r^a and C r^a finite at the grid end r = 1e6, "
                "a = |lam1|/(p-1)"
            )
        if not math.log(b) <= math.log(C) + log_ra - 52 * math.log(2):
            raise ValueError(
                "requires C r^a >= 2^52 (2-p)/(p |lam1|) at the grid end r = 1e6, "
                "a = |lam1|/(p-1)"
            )
        self._build_table(nodes)
        self._f_lo = self._f_tab[0] - self._K0 * self._nodes[0] ** (-p / (2 - p))

    def neg_fprime(self, r, power=operator.pow):
        p, lam1 = self.exponents.p, self.lam1
        r = np.asarray(r, float)
        return r ** (-2 / (2 - p)) * power(
            self.C * r ** (abs(lam1) / (p - 1)) + (2 - p) / (p * abs(lam1)),
            -1 / (2 - p),
        )

    def _tail(self, r):
        N, p = self.exponents.n_dim, self.exponents.p
        return (p - 1) / (N - p) * r * self.neg_fprime(r)

    def f(self, r):
        """The power law below the grid, the tail beyond it, the table on it."""
        p = self.exponents.p
        r = np.asarray(r, float)
        out = np.empty(r.shape)
        lo, hi = r < self._nodes[0], r > self._nodes[-1]
        out[lo] = self._K0 * r[lo] ** (-p / (2 - p)) + self._f_lo
        out[hi] = self._tail(r[hi])
        mid = ~(lo | hi)
        out[mid] = super().f(r[mid])
        return out

    def valid_rt(self, r, t):
        # past C xi^a's overflow -f' reads 0, and at xi = inf f reads inf * 0;
        # DBL_MAX/2 leaves either libm power's last bit no room to overflow
        p = self.exponents.p
        r, t = np.asarray(r, float), np.asarray(t, float)
        with np.errstate(all="ignore"):
            scale = (self.T - t) ** (-1 / p)
            bracket = self.C * (r * scale) ** (abs(self.lam1) / (p - 1))
        big = np.finfo(float).max / 2
        return (r > 0) & (t < self.T) & (scale <= big) & (bracket <= big)

    def validity_description(self):
        return (
            "|x| > 0, t < T, and (T-t)^(-1/p) and C xi^a are <= DBL_MAX/2, "
            "xi = |x| (T-t)^(-1/p), a = |lam1|/(p-1)"
        )


class IvanovSubsolution(ClosedFormSolution):
    """Unbounded weak sub-solution showing sharpness of the boundedness
    threshold: in prototype variables
    u(x,t) = (1 - h q^{1-p} t)_+^{1/q} (r0^2-|x|^2)^2 / (|x|^{N/s} ln^2|x|^2)
    with s = (N/p)(1+q-p) and q at (or above) the boundedness threshold
    Np/(N-p) - 1.

    The profile's sub-solution deficit (-Delta_p phi)/phi^q diverges
    logarithmically as |x| -> 0, so the validity domain is bounded away from
    the origin (r >= rmin) and the decay rate h is chosen (automatically if
    not given) so that the residual is <= 0 on that region."""

    family = "ivanov_subsolution"
    role = "weak_subsolution"
    r_singular = 0.0
    # the step of `_required_rate`'s nested central differences, which read
    # phi down to rmin - 2 fd
    fd = 1e-7

    def __init__(self, n_dim=3, p=1.2, q=None, r0=0.9, h=None, rmin=0.05):
        if not p < n_dim:
            raise ValueError("requires p < N")
        q_threshold = n_dim * p / (n_dim - p) - 1
        if q is None:
            q = q_threshold
        if q < q_threshold - 1e-12:
            raise ValueError("requires 1+q >= Np/(N-p)")
        if not 0 < r0 < 1:
            raise ValueError("requires r0 in (0, 1)")
        if not rmin < r0:
            raise ValueError("requires rmin < r0")
        if not rmin > 2 * self.fd:
            raise ValueError(
                f"requires rmin > {2 * self.fd:g}: the rate scan reads phi at "
                f"rmin - {2 * self.fd:g}"
            )
        exps = ExponentTriple(p=p, q=q, n_dim=n_dim)
        self.r0 = r0
        self.rmin = rmin
        self.s = (n_dim / p) * (1 + q - p)
        super().__init__(exps)
        if h is None:
            h = 1.1 * self._required_rate() * q ** (p - 1)
        self.h_w = h  # decay rate in the paper's w = u^q time variable
        self.h_rate = h * q ** (1 - p)  # decay rate in prototype time
        h_max = max(STENCIL_WIDTHS)  # the widest stencil stays in 0 <= t <= 0.9/h_rate
        self.residual_window = (0.1, 0.85, h_max, 0.9 / self.h_rate - h_max)

    def phi(self, r, power=operator.pow):
        """The radial profile.  Its two squares are of numpy scalars at one
        point: `power` takes them, as in `u_rt`."""
        N = self.exponents.n_dim
        r = np.asarray(r, float)
        return power(self.r0**2 - r**2, 2) / (
            r ** (N / self.s) * power(np.log(r**2), 2)
        )

    def phi_prime(self, r, power=operator.pow):
        N = self.exponents.n_dim
        r = np.asarray(r, float)
        D = self.r0**2 - r**2
        L = np.log(r**2)
        return self.phi(r, power) * (-4 * r / D - (N / self.s) / r - 4 / (r * L))

    def _required_rate(self):
        """sup of (-Delta_p phi)_+ / phi^q over [rmin, r0), by a fine scan."""
        N, p, q = self.exponents.n_dim, self.exponents.p, self.exponents.q
        rs = np.linspace(self.rmin, self.r0 * (1 - 1e-5), 20000)
        fd = self.fd

        def flux(rr):
            g = (self.phi(rr + fd) - self.phi(rr - fd)) / (2 * fd)
            return rr ** (N - 1) * np.abs(g) ** (p - 2) * g

        lap = (flux(rs + fd) - flux(rs - fd)) / (2 * fd) / rs ** (N - 1)
        ratio = np.where(lap < 0, -lap / self.phi(rs) ** q, 0.0)
        return float(ratio.max())

    def u_rt(self, r, t, power=operator.pow):
        q = self.exponents.q
        tf = np.clip(1 - self.h_rate * np.asarray(t, float), 0.0, None)
        return power(tf, 1 / q) * self.phi(r, power)

    def ur_rt(self, r, t, power=operator.pow):
        q = self.exponents.q
        tf = np.clip(1 - self.h_rate * np.asarray(t, float), 0.0, None)
        return power(tf, 1 / q) * self.phi_prime(r, power)

    def dtuq_rt(self, r, t):
        q = self.exponents.q
        return np.where(
            1 - self.h_rate * np.asarray(t, float) > 0,
            -self.h_rate * self.phi(r) ** q,
            0.0,
        )

    def valid_rt(self, r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return (r >= self.rmin) & (r < self.r0) & (t >= 0) & (
            t <= 0.9 / self.h_rate
        )

    def validity_description(self):
        return "rmin <= |x| < r0, 0 <= t <= 0.9/extinction rate"


class SpecialLogProfile(_SelfSimilar):
    """Logarithmic self-similar profile at p = 2N/(N+1), q = 1 (the exponent
    where the dipole construction degenerates):
    f'(r) = -r^{-(N+1)} [C - ((N+1)/(N(N-1))) ln r]^{-(N+1)/2}.

    The primitive f decreases from +inf at r = 0 to -inf at
    r_max = exp(C N(N-1)/(N+1)); u = f(|x| (T-t)^{-1/p}) therefore cannot be a
    (non-negative) weak solution.  We anchor f(sqrt(r_max)) = 0 and restrict
    the validity domain to the region where f >= 0.  f is tabulated on
    1e-6 .. 0.96 sqrt(r_max) (2048 nodes), which covers that domain, with
    the integral of -f' up to the anchor as the tail."""

    family = "special_log_profile"
    role = "not_weak_solution"
    residual_window = (0.5, 1.2, 1e-9, 0.5)

    def __init__(self, n_dim=3, C=1.0, T=1.0):
        if n_dim < 2:
            raise ValueError("requires N >= 2")
        p = 2 * n_dim / (n_dim + 1)
        exps = ExponentTriple(p=p, q=1.0, n_dim=n_dim)
        super().__init__(exps)
        self.C = C
        self.T = T
        self.c_log = (n_dim + 1) / (n_dim * (n_dim - 1))
        try:
            self.r_max = math.exp(C / self.c_log)
        except OverflowError:
            self.r_max = math.inf
        self.r_anchor = math.sqrt(self.r_max)
        if not (self.r_max < math.inf and 0.96 * self.r_anchor > 1e-6):
            raise ValueError("requires r_max finite and 0.96 sqrt(r_max) > 1e-6")
        self._build_table(np.logspace(-6, math.log10(0.96 * self.r_anchor), 2048))

    def neg_fprime(self, r, power=operator.pow):
        N = self.exponents.n_dim
        r = np.asarray(r, float)
        return r ** (-(N + 1)) * power(self.C - self.c_log * np.log(r), -(N + 1) / 2)

    def _tail(self, r):
        return self._integral(r, self.r_anchor)

    def valid_rt(self, r, t):
        # (T - t)^(-1/p) only where t < T: the power of tt <= 0 warns
        tt = self.T - np.asarray(t, float)
        live = tt > 0
        xi = np.asarray(r, float) * np.where(live, tt, 1.0) ** (-1 / self.exponents.p)
        return (xi > 1e-5) & (xi <= 0.95 * self.r_anchor) & live

    def validity_description(self):
        return "1e-5 < |x| (T-t)^{-1/p} <= 0.95 r_anchor and t < T"


# ---------------------------------------------------------------------------
# registry and the critical-b arbitration
# ---------------------------------------------------------------------------

FAMILIES = {
    "trudinger_gaussian": TrudingerGaussian,
    "separable_blowup": SeparableBlowup,
    "critical_harnack_wave": CriticalHarnackWave,
    "boundedness_borderline": BoundednessBorderline,
    "supercritical_extinction": SupercriticalExtinction,
    "dipole_self_similar": DipoleSelfSimilar,
    "ivanov_subsolution": IvanovSubsolution,
    "special_log_profile": SpecialLogProfile,
}


def make_family(name, **params):
    """Construct a catalog family by its stable string identifier; a
    parameter the family does not take, or a required one left out, is a
    ValueError."""
    try:
        cls = FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {sorted(FAMILIES)}"
        ) from None
    try:
        return cls(**params)
    except TypeError:
        sig = inspect.signature(cls).parameters
        extra = sorted(set(params) - set(sig))
        if extra:
            raise ValueError(f"family {name!r} takes no {', '.join(extra)}") from None
        missing = [k for k in sig if sig[k].default is sig[k].empty and k not in params]
        if not missing:
            raise
        raise ValueError(f"family {name!r} requires {', '.join(missing)}") from None


def derive_critical_b_report(n_dim, p, h_values=STENCIL_WIDTHS, sweeps=()):
    """Numerically arbitrate the time constant b of the critical Harnack wave
    between the two printed candidates (N/q)^p and (N/q)^q.

    Returns a dict with the candidates, their max residuals per stencil width
    on the wave's residual lattice, the selected b and a convergence flag.
    `sweeps` maps a b to the `residual_order` of the wave (n_dim, p, b) over
    these h_values already taken, which a candidate equal to it shares."""
    if not (2 <= p < n_dim and n_dim >= 2):
        raise ValueError("requires 2 <= p < N")
    q = n_dim * (p - 1) / (n_dim - p)
    candidates = [(n_dim / q) ** p, (n_dim / q) ** q]
    sweeps = dict(sweeps)  # equal candidates share one sweep
    for b in candidates:
        if b not in sweeps:
            sol = CriticalHarnackWave(n_dim, p, b=b)
            sweeps[b] = residual_order(sol, *sol.residual_lattice(h_values), h_values)
    residuals, orders = zip(*(sweeps[b] for b in candidates))
    coincide = abs(candidates[0] - candidates[1]) <= 1e-6 * max(
        1.0, abs(candidates[0]), abs(candidates[1])
    )
    winner_idx = int(np.argmin([r[-1] for r in residuals]))
    winner_converged = orders[winner_idx] >= CONVERGENT_ORDER
    return {
        "q": q,
        "candidates": candidates,
        "residuals": [list(map(float, r)) for r in residuals],
        "orders": [float(o) for o in orders],
        "coincide": coincide,
        "winner_index": winner_idx,
        "b": candidates[winner_idx],
        "winner_converged": bool(winner_converged),
    }


def derive_critical_b(n_dim, p, h_values=STENCIL_WIDTHS):
    """Return the arbitrated b.  If the candidates coincide (within 1e-6
    relative) the common value is returned directly; otherwise the candidate
    whose residual converges under refinement wins.  If neither candidate's
    residual tends to zero, the printed formulas are inconsistent with the
    profile and a ValueError reports both residual histories."""
    rep = derive_critical_b_report(n_dim, p, h_values)
    if rep["coincide"]:
        return rep["b"]
    if not rep["winner_converged"]:
        raise ValueError(
            "neither printed candidate for b yields a vanishing residual "
            f"under refinement: candidates={rep['candidates']}, "
            f"residuals={rep['residuals']}"
        )
    return rep["b"]
