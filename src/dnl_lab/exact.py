"""Catalog of closed-form solutions, sub-solutions and counterexamples for
d/dt(u^q) = div(|Du|^(p-2) Du).

Every family is radially symmetric and evaluable pointwise with an analytic
gradient and analytic d/dt(u^q).  An independent second-order central
finite-difference residual oracle (``pde_residual``) cross-validates the
analytic derivatives; for families with role "weak_solution" the residual
converges at order 2 in the stencil width.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .core import ExponentTriple


class DomainError(ValueError):
    """Point outside the validity domain of a closed-form family."""


class ClosedFormSolution:
    """Base class: a radial space-time profile u(|x|, t) with analytic radial
    derivative and analytic d/dt(u^q).

    Subclasses implement u_rt / ur_rt / ut_rt / valid_rt on arrays of radii
    and times.  The public eval/grad/dt_uq operate on coordinate vectors.
    """

    family = "abstract"
    role = "weak_solution"
    # radius of a spatial singularity (for stencil collars), or None
    r_singular = None

    def __init__(self, exponents, params):
        self.exponents = exponents
        self.params = dict(params)

    # -- radial profile interface (vectorized over r, t) --------------------
    def u_rt(self, r, t):
        raise NotImplementedError

    def ur_rt(self, r, t):
        raise NotImplementedError

    def ut_rt(self, r, t):
        raise NotImplementedError

    def dtuq_rt(self, r, t):
        q = self.exponents.q
        u = self.u_rt(r, t)
        return q * np.asarray(u) ** (q - 1) * self.ut_rt(r, t)

    def valid_rt(self, r, t):
        raise NotImplementedError

    def validity_description(self):
        return "everywhere"

    # -- public pointwise API ----------------------------------------------
    def _radius(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(np.linalg.norm(x)), x

    def _check(self, r, t):
        if not np.all(self.valid_rt(np.asarray(r, float), np.asarray(t, float))):
            raise DomainError(
                f"({r}, {t}) outside validity domain of {self.family}: "
                + self.validity_description()
            )

    def eval(self, x, t):
        r, _ = self._radius(x)
        self._check(r, t)
        return float(self.u_rt(r, t))

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


def pde_residual_rt(sol, r, t, h):
    """Second-order central-difference residual of d/dt(u^q) - div(|Du|^{p-2}Du)
    at radius r and time t (vectorized).  Uses only sol.u_rt, independently of
    the analytic derivatives."""
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


def residual_order(sol, radii, times, h_values=(1e-2, 5e-3, 2.5e-3)):
    """Max residuals over the lattice for each h and the fitted log-log order."""
    res = np.array([max_residual(sol, radii, times, h) for h in h_values])
    slope = np.polyfit(np.log(np.asarray(h_values)), np.log(res), 1)[0]
    return res, float(slope)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class TrudingerGaussian(ClosedFormSolution):
    """Gaussian-type solution of the Trudinger borderline q = p-1:
    u = C t^{-N/(p(p-1))} exp{-((p-1)/p) (|x|^p/(p t))^{1/(p-1)}} on t > 0."""

    family = "trudinger_gaussian"
    role = "weak_solution"

    def __init__(self, p, n_dim, C=1.0):
        exps = ExponentTriple(p=p, q=p - 1, n_dim=n_dim)
        super().__init__(exps, {"C": C})
        self.C = C

    def u_rt(self, r, t):
        p, N = self.exponents.p, self.exponents.n_dim
        r = np.abs(np.asarray(r, float))
        t = np.asarray(t, float)
        return (
            self.C
            * t ** (-N / (p * (p - 1)))
            * np.exp(-((p - 1) / p) * (r**p / (p * t)) ** (1 / (p - 1)))
        )

    def ur_rt(self, r, t):
        p = self.exponents.p
        r = np.abs(np.asarray(r, float))
        return -self.u_rt(r, t) * (r / (p * np.asarray(t, float))) ** (1 / (p - 1))

    def ut_rt(self, r, t):
        p, N = self.exponents.p, self.exponents.n_dim
        r = np.abs(np.asarray(r, float))
        t = np.asarray(t, float)
        xi = (r**p / (p * t)) ** (1 / (p - 1))
        return self.u_rt(r, t) * (-N / (p * (p - 1) * t) + xi / (p * t))

    def valid_rt(self, r, t):
        return np.asarray(t, float) > 0

    def validity_description(self):
        return "t > 0"


class SeparableBlowup(ClosedFormSolution):
    """Separable unbounded solution u = C(N,p,q) (T-t)_+^{1/k} |x|^{-p/k},
    k = q - (p-1); the counterexample to local boundedness beyond the
    critical Harnack exponent."""

    family = "separable_blowup"
    role = "weak_solution"
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
        super().__init__(exps, {"T": T, "C": C})
        self.T = T
        self.C = C
        self.k = k

    def u_rt(self, r, t):
        p = self.exponents.p
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        return self.C * tt ** (1 / self.k) * r ** (-p / self.k)

    def ur_rt(self, r, t):
        p = self.exponents.p
        return -(p / self.k) * self.u_rt(r, t) / np.asarray(r, float)

    def ut_rt(self, r, t):
        tt = self.T - np.asarray(t, float)
        return -(1 / self.k) * self.u_rt(r, t) / tt

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

    def __init__(self, n_dim, p, b=None):
        if not (2 <= n_dim and p < n_dim):
            raise ValueError("requires N >= 2 and p < N")
        N = n_dim
        q = N * (p - 1) / (N - p)
        exps = ExponentTriple(p=p, q=q, n_dim=N)
        if b is None:
            b = critical_wave_b(N, p)
        super().__init__(exps, {"b": b})
        self.b = b
        self.kappa = N * (q + 1) / (q * (N - 1))
        self.gamma = (N - 1) / (q + 1)

    def u_rt(self, r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return (r**self.kappa + np.exp(self.b * t)) ** (-self.gamma)

    def ur_rt(self, r, t):
        r = np.asarray(r, float)
        base = r**self.kappa + np.exp(self.b * np.asarray(t, float))
        return -self.gamma * self.kappa * r ** (self.kappa - 1) * base ** (
            -self.gamma - 1
        )

    def ut_rt(self, r, t):
        r = np.asarray(r, float)
        ebt = np.exp(self.b * np.asarray(t, float))
        base = r**self.kappa + ebt
        return -self.gamma * self.b * ebt * base ** (-self.gamma - 1)

    def valid_rt(self, r, t):
        return np.full(np.broadcast(np.asarray(r), np.asarray(t)).shape, True)


class BoundednessBorderline(ClosedFormSolution):
    """Two-parameter family at the boundedness threshold
    q = (N(p-1)+p)/(N-p):
    u = (T-t)_+^{(N+q+1)/(q+1)^2} (a + b |x|^{N(q+1)/(Nq-q-1)})^{-N/(q+1)}
    with b forced by (N, q, a).  Bounded weak solutions violating the Harnack
    inequality as t -> T or with growing radii."""

    family = "boundedness_borderline"
    role = "weak_solution"

    def __init__(self, n_dim, p, a=1.0, T=1.0):
        if not p < n_dim:
            raise ValueError("requires p < N")
        N = n_dim
        q = (N * (p - 1) + p) / (N - p)
        if not max((q + 1) / q, p) < N:
            raise ValueError("requires max{(q+1)/q, p} < N")
        exps = ExponentTriple(p=p, q=q, n_dim=N)
        b = (N * q - q - 1) / N**2 * (
            q * (N + q + 1) / ((q + 1) ** 2 * N * a)
        ) ** ((N + q + 1) / (N * q - q - 1))
        super().__init__(exps, {"a": a, "b": b, "T": T})
        self.a = a
        self.b = b
        self.T = T
        self.m_t = (N + q + 1) / (q + 1) ** 2
        self.s_exp = N * (q + 1) / (N * q - q - 1)

    @staticmethod
    def b_p_form(n_dim, p, a):
        """Equivalent parametrization of b through p:
        b = (p-1)/(N-p) ((N(p-1)+p)/(p^2 N a))^{1/(p-1)}."""
        N = n_dim
        return (p - 1) / (N - p) * ((N * (p - 1) + p) / (p**2 * N * a)) ** (
            1 / (p - 1)
        )

    def u_rt(self, r, t):
        N, q = self.exponents.n_dim, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        return tt**self.m_t * (self.a + self.b * r**self.s_exp) ** (-N / (q + 1))

    def ur_rt(self, r, t):
        N, q = self.exponents.n_dim, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        base = self.a + self.b * r**self.s_exp
        return (
            tt**self.m_t
            * (-N / (q + 1))
            * self.b
            * self.s_exp
            * r ** (self.s_exp - 1)
            * base ** (-N / (q + 1) - 1)
        )

    def ut_rt(self, r, t):
        tt = self.T - np.asarray(t, float)
        return np.where(tt > 0, -self.m_t * self.u_rt(r, t) / tt, 0.0)

    def dtuq_rt(self, r, t):
        N, q = self.exponents.n_dim, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        base = (self.a + self.b * r**self.s_exp) ** (-N * q / (q + 1))
        return -q * self.m_t * tt ** (q * self.m_t - 1) * base * np.where(
            tt > 0, 1.0, 0.0
        )

    def valid_rt(self, r, t):
        return np.full(np.broadcast(np.asarray(r), np.asarray(t)).shape, True)


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

    def __init__(self, n_dim, p, q, T=1.0, C=1.0):
        exps = ExponentTriple(p=p, q=q, n_dim=n_dim)
        lam = exps.lam_q
        if not (p < n_dim and lam < 0):
            raise ValueError("requires p < N and lambda_q < 0")
        a = (q / abs(lam)) ** (1 / (p - 1)) * (q + 1 - p) / p
        super().__init__(exps, {"T": T, "C": C, "a": a})
        self.T = T
        self.C = C
        self.a = a
        self.lam = lam
        self.kexp = q + 1 - p
        self.sigma = p * q / ((p - 1) * lam)  # negative

    def R_t(self, t):
        """Inner boundary radius for the C < 0 variant (0 for C > 0)."""
        if self.C >= 0:
            return np.zeros_like(np.asarray(t, float))
        p, q = self.exponents.p, self.exponents.q
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        return (abs(self.C) / self.a) ** ((p - 1) / p) * tt ** (q / self.lam)

    def _base(self, r, t):
        p = self.exponents.p
        tt = np.clip(self.T - np.asarray(t, float), 0.0, None)
        r = np.asarray(r, float)
        with np.errstate(divide="ignore"):
            c_term = np.where(tt > 0, self.C * tt**self.sigma, np.inf)
        return self.a * r ** (p / (p - 1)) + c_term, tt

    def u_rt(self, r, t):
        p = self.exponents.p
        base, tt = self._base(r, t)
        expo = -(p - 1) / self.kexp
        return np.where(tt > 0, tt ** (1 / self.kexp) * base**expo, 0.0)

    def ur_rt(self, r, t):
        p = self.exponents.p
        base, tt = self._base(r, t)
        r = np.asarray(r, float)
        pp = p / (p - 1)
        expo = -(p - 1) / self.kexp
        return np.where(
            tt > 0,
            tt ** (1 / self.kexp)
            * expo
            * self.a
            * pp
            * r ** (pp - 1)
            * base ** (expo - 1),
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


def _dipole_neg_fprime(r, n_dim, p, C):
    """-f'(r) for the dipole profile: r^{-2/(2-p)}
    [C r^{|lam1|/(p-1)} + (2-p)/(p |lam1|)]^{-1/(2-p)} with
    lam1 = N(p-2)+p < 0."""
    lam1 = n_dim * (p - 2) + p
    r = np.asarray(r, float)
    return r ** (-2 / (2 - p)) * (
        C * r ** (abs(lam1) / (p - 1)) + (2 - p) / (p * abs(lam1))
    ) ** (-1 / (2 - p))


class DipoleSelfSimilar(ClosedFormSolution):
    """Dipole-type self-similar solution for q = 1, 1 < p < 2N/(N+2):
    u(x, t) = f(|x| (T-t)_+^{-1/p}) where f' is explicit and f is recovered by
    quadrature with f(inf) = 0.

    f is tabulated once on a log grid (1e-6 .. 1e6, 4096 nodes) with
    per-segment Gauss quadrature summed from the tail inward (the profile
    decays like r^{-(N-p)/(p-1)}, so left-to-right accumulation would lose the
    tail to cancellation), plus the analytic tail beyond the grid."""

    family = "dipole_self_similar"
    role = "weak_solution"
    r_singular = 0.0

    def __init__(self, n_dim, p, T=1.0, C=1.0):
        if not 1 < p < 2 * n_dim / (n_dim + 2):
            raise ValueError("requires 1 < p < 2N/(N+2) (so N >= 3)")
        exps = ExponentTriple(p=p, q=1.0, n_dim=n_dim)
        super().__init__(exps, {"T": T, "C": C})
        self.T = T
        self.C = C
        self.lam1 = n_dim * (p - 2) + p
        self._build_table()

    def _build_table(self):
        N, p, C = self.exponents.n_dim, self.exponents.p, self.C
        nodes = np.logspace(-6, 6, 4096)
        gx, gw = np.polynomial.legendre.leggauss(7)
        a, b = nodes[:-1], nodes[1:]
        mid, half = (a + b) / 2, (b - a) / 2
        seg = (
            half[:, None] * gw * _dipole_neg_fprime(
                mid[:, None] + half[:, None] * gx, N, p, C
            )
        ).sum(axis=1)
        tail = C * (p - 1) / (N - p) * nodes[-1] ** (-(N - p) / (p - 1))
        f_tab = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) + tail
        self._nodes = nodes
        self._spline = CubicSpline(np.log(nodes), np.log(f_tab))
        # small-radius amplitude: f ~ K0 r^{-p/(2-p)} as r -> 0
        self._K0 = ((p / (2 - p)) ** (p - 1) * abs(self.lam1)) ** (1 / (2 - p))

    def f(self, r):
        """Tabulated self-similar profile (asymptotic forms off the table)."""
        N, p, C = self.exponents.n_dim, self.exponents.p, self.C
        r = np.asarray(r, float)
        out = np.empty(np.shape(r))
        rl = np.atleast_1d(r)
        outl = np.atleast_1d(out)
        lo = rl < self._nodes[0]
        hi = rl > self._nodes[-1]
        mid = ~(lo | hi)
        if np.any(mid):
            outl[mid] = np.exp(self._spline(np.log(rl[mid])))
        if np.any(lo):
            outl[lo] = self._K0 * rl[lo] ** (-p / (2 - p))
        if np.any(hi):
            outl[hi] = C * (p - 1) / (N - p) * rl[hi] ** (-(N - p) / (p - 1))
        return out if out.shape else float(outl[0])

    def fprime(self, r):
        return -_dipole_neg_fprime(r, self.exponents.n_dim, self.exponents.p, self.C)

    def _xi(self, r, t):
        p = self.exponents.p
        tt = self.T - np.asarray(t, float)
        return np.asarray(r, float) * tt ** (-1 / p), tt

    def u_rt(self, r, t):
        xi, _ = self._xi(r, t)
        return self.f(xi)

    def ur_rt(self, r, t):
        p = self.exponents.p
        xi, tt = self._xi(r, t)
        return self.fprime(xi) * tt ** (-1 / p)

    def ut_rt(self, r, t):
        p = self.exponents.p
        xi, tt = self._xi(r, t)
        return self.fprime(xi) * xi / (p * tt)

    def valid_rt(self, r, t):
        return (np.asarray(r, float) > 0) & (np.asarray(t, float) < self.T)

    def validity_description(self):
        return "|x| > 0 and t < T"


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
        exps = ExponentTriple(p=p, q=q, n_dim=n_dim)
        self.r0 = r0
        self.rmin = rmin
        self.s = (n_dim / p) * (1 + q - p)
        self.exponents = exps
        if h is None:
            h = 1.1 * self._required_rate() * q ** (p - 1)
        super().__init__(exps, {"r0": r0, "h": h, "rmin": rmin, "s": self.s})
        self.h_w = h  # decay rate in the paper's w = u^q time variable
        self.h_rate = h * q ** (1 - p)  # decay rate in prototype time

    def phi(self, r):
        N = self.exponents.n_dim
        r = np.asarray(r, float)
        return (self.r0**2 - r**2) ** 2 / (
            r ** (N / self.s) * np.log(r**2) ** 2
        )

    def phi_prime(self, r):
        N = self.exponents.n_dim
        r = np.asarray(r, float)
        D = self.r0**2 - r**2
        L = np.log(r**2)
        return self.phi(r) * (-4 * r / D - (N / self.s) / r - 4 / (r * L))

    def _required_rate(self):
        """sup of (-Delta_p phi)_+ / phi^q over [rmin, r0), by a fine scan."""
        N, p, q = self.exponents.n_dim, self.exponents.p, self.exponents.q
        rs = np.linspace(self.rmin, self.r0 * (1 - 1e-5), 20000)
        fd = 1e-7

        def flux(rr):
            g = (self.phi(rr + fd) - self.phi(rr - fd)) / (2 * fd)
            return rr ** (N - 1) * np.abs(g) ** (p - 2) * g

        lap = (flux(rs + fd) - flux(rs - fd)) / (2 * fd) / rs ** (N - 1)
        ratio = np.where(lap < 0, -lap / self.phi(rs) ** q, 0.0)
        return float(ratio.max())

    def u_rt(self, r, t):
        q = self.exponents.q
        tf = np.clip(1 - self.h_rate * np.asarray(t, float), 0.0, None)
        return tf ** (1 / q) * self.phi(r)

    def ur_rt(self, r, t):
        q = self.exponents.q
        tf = np.clip(1 - self.h_rate * np.asarray(t, float), 0.0, None)
        return tf ** (1 / q) * self.phi_prime(r)

    def ut_rt(self, r, t):
        q = self.exponents.q
        tf = np.clip(1 - self.h_rate * np.asarray(t, float), 0.0, None)
        return -(self.h_rate / q) * tf ** (1 / q - 1) * self.phi(r)

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


class SpecialLogProfile(ClosedFormSolution):
    """Logarithmic self-similar profile at p = 2N/(N+1), q = 1 (the exponent
    where the dipole construction degenerates):
    f'(r) = -r^{-(N+1)} [C - ((N+1)/(N(N-1))) ln r]^{-(N+1)/2}.

    The primitive f decreases from +inf at r = 0 to -inf at
    r_max = exp(C N(N-1)/(N+1)); u = f(|x| (T-t)^{-1/p}) therefore cannot be a
    (non-negative) weak solution.  We anchor f(sqrt(r_max)) = 0 and restrict
    the validity domain to the region where f >= 0."""

    family = "special_log_profile"
    role = "not_weak_solution"
    r_singular = 0.0

    def __init__(self, n_dim=3, C=1.0, T=1.0):
        if n_dim < 2:
            raise ValueError("requires N >= 2")
        p = 2 * n_dim / (n_dim + 1)
        exps = ExponentTriple(p=p, q=1.0, n_dim=n_dim)
        super().__init__(exps, {"C": C, "T": T})
        self.C = C
        self.T = T
        self.c_log = (n_dim + 1) / (n_dim * (n_dim - 1))
        self.r_max = math.exp(C / self.c_log)
        self.r_anchor = math.sqrt(self.r_max)
        self._build_table()

    def neg_fprime(self, r):
        N = self.exponents.n_dim
        r = np.asarray(r, float)
        return r ** (-(N + 1)) * (self.C - self.c_log * np.log(r)) ** (
            -(N + 1) / 2
        )

    def _build_table(self):
        nodes = np.logspace(-6, math.log10(0.96 * self.r_anchor), 2048)
        gx, gw = np.polynomial.legendre.leggauss(7)
        a, b = nodes[:-1], nodes[1:]
        mid, half = (a + b) / 2, (b - a) / 2
        seg = (
            half[:, None] * gw * self.neg_fprime(mid[:, None] + half[:, None] * gx)
        ).sum(axis=1)
        # integral from the last node to the anchor (smooth integrand)
        tail, _ = quad(lambda s: float(self.neg_fprime(s)), nodes[-1], self.r_anchor)
        f_tab = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]]) + tail
        self._nodes = nodes
        self._spline = CubicSpline(np.log(nodes), np.log(f_tab))

    def f(self, r):
        r = np.asarray(r, float)
        rl = np.atleast_1d(r).ravel()
        out = np.empty(rl.shape)
        inside = (rl >= self._nodes[0]) & (rl <= self._nodes[-1])
        out[inside] = np.exp(self._spline(np.log(rl[inside])))
        for i in np.nonzero(~inside)[0]:
            val, _ = quad(
                lambda s: float(self.neg_fprime(s)), rl[i], self.r_anchor,
                limit=200,
            )
            out[i] = val
        return out.reshape(r.shape) if r.shape else float(out[0])

    def _xi(self, r, t):
        p = self.exponents.p
        tt = self.T - np.asarray(t, float)
        return np.asarray(r, float) * tt ** (-1 / p), tt

    def u_rt(self, r, t):
        xi, _ = self._xi(r, t)
        return self.f(xi)

    def ur_rt(self, r, t):
        xi, tt = self._xi(r, t)
        return -self.neg_fprime(xi) * tt ** (-1 / self.exponents.p)

    def ut_rt(self, r, t):
        p = self.exponents.p
        xi, tt = self._xi(r, t)
        return -self.neg_fprime(xi) * xi / (p * tt)

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
    """Construct a catalog family by its stable string identifier."""
    try:
        cls = FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {sorted(FAMILIES)}"
        ) from None
    return cls(**params)


# fixed deterministic probe lattice for the arbitration (away from r=0)
_B_PROBE_RADII = np.linspace(0.5, 2.0, 16)
_B_PROBE_TIMES = np.linspace(-0.5, 0.5, 8)


def derive_critical_b_report(n_dim, p, h_values=(1e-2, 5e-3, 2.5e-3)):
    """Numerically arbitrate the time constant b of the critical Harnack wave
    between the two printed candidates (N/q)^p and (N/q)^q.

    Returns a dict with the candidates, their max residuals per stencil width
    on a fixed probe lattice, the selected b and a convergence flag."""
    if not (2 <= p < n_dim and n_dim >= 2):
        raise ValueError("requires 2 <= p < N")
    q = n_dim * (p - 1) / (n_dim - p)
    candidates = [(n_dim / q) ** p, (n_dim / q) ** q]
    residuals = []
    orders = []
    for b in candidates:
        sol = CriticalHarnackWave(n_dim, p, b=b)
        res, order = residual_order(sol, _B_PROBE_RADII, _B_PROBE_TIMES, h_values)
        residuals.append(res)
        orders.append(order)
    coincide = abs(candidates[0] - candidates[1]) <= 1e-6 * max(
        1.0, abs(candidates[0]), abs(candidates[1])
    )
    winner_idx = int(np.argmin([r[-1] for r in residuals]))
    winner_converged = orders[winner_idx] >= 1.5
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


def derive_critical_b(n_dim, p, h_values=(1e-2, 5e-3, 2.5e-3)):
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
