"""Core objects shared by the whole laboratory.

Exponent arithmetic and regime classification for the doubly nonlinear
equation d/dt(u^q) = div(|Du|^(p-2) Du), the 1-D grid, the g-functions
that replace the missing chain rule in the fast-diffusion energy estimates,
and discrete time mollifiers (exponential kernel and forward Steklov
average).
"""

import math
from dataclasses import dataclass

import numpy as np

# relative tolerance used to detect exact critical exponents
CRITICAL_RTOL = 1e-12

# stencil widths h of a finite-difference sweep, halving, for the order fit
STENCIL_WIDTHS = (1e-2, 5e-3, 2.5e-3)


@dataclass(frozen=True)
class ExponentTriple:
    """Exponent pair (p, q) and spatial dimension N.

    p > 1 is the gradient exponent, q > 0 the power on u under the time
    derivative, n_dim the spatial dimension.
    """

    p: float
    q: float
    n_dim: int

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if not self.q > 0:
            raise ValueError(f"q must be > 0, got {self.q}")
        if not (int(self.n_dim) == self.n_dim and self.n_dim >= 1):
            raise ValueError(f"n_dim must be an integer >= 1, got {self.n_dim}")

    def critical_harnack_q(self):
        """Upper endpoint N(p-1)/(N-p) of the supercritical Harnack window
        (+inf when p >= N)."""
        if self.p < self.n_dim:
            return self.n_dim * (self.p - 1) / (self.n_dim - self.p)
        return math.inf

    def boundedness_q(self):
        """Threshold (N(p-1)+p)/(N-p) below which solutions are locally
        bounded (+inf when p >= N)."""
        if self.p < self.n_dim:
            return (self.n_dim * (self.p - 1) + self.p) / (self.n_dim - self.p)
        return math.inf

    def lambda_r(self, r):
        """The threshold quantity lambda_r = N(p-q-1) + r p."""
        return self.n_dim * (self.p - self.q - 1) + r * self.p

    @property
    def lam_q(self):
        return self.lambda_r(self.q)


@dataclass(frozen=True)
class RegimeFlags:
    """Classification of an exponent triple against the critical thresholds."""

    diffusion_kind: str  # "slow" | "trudinger" | "fast"
    supercritical_harnack: bool
    at_harnack_critical: bool
    bounded_guaranteed: bool
    at_boundedness_critical: bool


def _close(a, b):
    if math.isinf(b):
        return False
    return abs(a - b) <= CRITICAL_RTOL * max(1.0, abs(a), abs(b))


def classify(e):
    """Classify an exponent triple into diffusion kind and Harnack /
    boundedness regimes.

    Equality with a critical exponent is detected with relative tolerance
    ``CRITICAL_RTOL`` so that classification survives serialization round-trips.
    """
    qc_har = e.critical_harnack_q()
    qc_bdd = e.boundedness_q()
    if _close(e.q, e.p - 1):
        kind = "trudinger"
    elif e.q < e.p - 1:
        kind = "slow"
    else:
        kind = "fast"
    at_har = _close(e.q, qc_har)
    at_bdd = _close(e.q, qc_bdd)
    supercritical = kind == "fast" and not at_har and e.q < qc_har
    bounded = not at_bdd and e.q < qc_bdd
    return RegimeFlags(
        diffusion_kind=kind,
        supercritical_harnack=supercritical,
        at_harnack_critical=at_har,
        bounded_guaranteed=bounded,
        at_boundedness_critical=at_bdd,
    )


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid, either cartesian on [x_lo, x_hi] or radial
    (cell centers are radii, x_lo >= 0)."""

    x_lo: float
    x_hi: float
    n_cells: int
    geometry: str = "cartesian"  # "cartesian" | "radial"
    n_dim: int = 1  # spatial dimension for radial geometry

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError("x_lo must be < x_hi")
        if self.n_cells < 4:
            raise ValueError("n_cells must be >= 4")
        if not 0 < self.h < math.inf:
            raise ValueError(f"cell width h = {self.h:g} must be finite and > 0")
        if self.geometry not in ("cartesian", "radial"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.geometry == "radial" and self.x_lo < 0:
            raise ValueError("radial grid requires x_lo >= 0")
        # the radial cell volumes take x^N
        x_max = np.finfo(float).max ** (1 / self.n_dim)
        if self.geometry == "radial" and self.x_hi > x_max:
            raise ValueError("radial grid requires x_hi^N finite")
        # the unit sphere's area takes Gamma(N/2), which overflows at N >= 344
        if self.geometry == "radial" and self.n_dim > 343:
            raise ValueError("radial grid requires N <= 343: Gamma(N/2) overflows")

    @property
    def h(self):
        return (self.x_hi - self.x_lo) / self.n_cells

    def centers(self):
        return self.x_lo + (np.arange(self.n_cells) + 0.5) * self.h

    def faces(self):
        return self.x_lo + np.arange(self.n_cells + 1) * self.h

    def cell_volumes(self):
        """Cell measures: h for cartesian, shell volume factor
        (r_+^N - r_-^N)/N for radial (unit-sphere constant excluded)."""
        if self.geometry == "cartesian":
            return np.full(self.n_cells, self.h)
        f = self.faces()
        N = self.n_dim
        return (f[1:] ** N - f[:-1] ** N) / N

    def surface_constant(self):
        """Area of the unit sphere S^{N-1} (1 for cartesian grids, so that
        integrals are plain 1-D integrals)."""
        if self.geometry == "cartesian":
            return 1.0
        N = self.n_dim
        return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def g_signed(a, b, q):
    """The g-function g(a, b) = q int_b^a |s|^{q-1}(s-b) ds, in closed form
    q/(q+1)(|a|^{q+1}-|b|^{q+1}) - b(|a|^{q-1}a - |b|^{q-1}b) (for q == 1
    it collapses to (a-b)^2/2 exactly).

    The closed form integrates q|s|^{q-1}s to q|s|^{q+1}/(q+1) and q|s|^{q-1}
    to |s|^{q-1}s.  Its signed parts g_+ = q int_b^a |s|^{q-1}(s-b)_+ ds and
    g_- = q int_a^b |s|^{q-1}(s-b)_- ds are therefore no separate integrals:
    between b and a the factor s-b keeps the sign of a-b, so g_+ is this
    closed form where a > b and 0 elsewhere, and g_- is this closed form
    where a < b and 0 elsewhere.
    """
    if q <= 0:
        raise ValueError("q must be > 0")
    a = float(a)
    b = float(b)
    if q == 1:
        return 0.5 * (a - b) ** 2
    val = q / (q + 1) * (abs(a) ** (q + 1) - abs(b) ** (q + 1)) - b * (
        abs(a) ** (q - 1) * a - abs(b) ** (q - 1) * b
    )
    # the closed form is >= 0 analytically; clip roundoff
    return max(val, 0.0)


def mollify_exp(samples, dt, h):
    """Exponential time mollification of a uniformly sampled series,
    v_h(t) = (1/h) int_0^t exp((tau-t)/h) v(tau) dtau.

    The kernel looks backward in time from t, so the mollified value at t only
    depends on the past; the mirrored mollifier over (t, T) is this one on
    the reversed series, reversed.  Output length equals input length.

    The discrete definition is the trapezoid (Crank-Nicolson) step of the
    mollification ODE d/dt v_h = (v - v_h)/h, so the discrete identity

        (y_i - y_{i-1})/dt = ((v_i - y_i) + (v_{i-1} - y_{i-1})) / (2h)

    holds to machine precision by construction, while the scheme remains a
    second-order-accurate sampling of the exponential kernel.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    v = np.asarray(samples, dtype=float)
    n = v.size
    out = np.zeros(n)
    r = dt / (2.0 * h)
    acc = 0.0
    for i in range(1, n):
        acc = ((1.0 - r) * acc + r * (v[i] + v[i - 1])) / (1.0 + r)
        out[i] = acc
    return out


def steklov(samples, dt, h):
    """Forward Steklov average [v]_h(t) = mean of v over [t, t+h], set to 0 on
    the trailing window (t > T - h).

    The discrete definition is the left-Riemann mean over k = h/dt samples, so
    that the identity d/dt [v]_h = (v(t+h) - v(t))/h holds to machine
    precision for the discrete forward difference.  ``h`` must be an integer
    multiple of ``dt``.
    """
    if h <= 0 or dt <= 0:
        raise ValueError("h and dt must be > 0")
    k = int(round(h / dt))
    if abs(k * dt - h) > 1e-9 * h or k < 1:
        raise ValueError("h must be a positive integer multiple of dt")
    v = np.asarray(samples, dtype=float)
    n = v.size
    out = np.zeros(n)
    if n > k:
        c = np.concatenate([[0.0], np.cumsum(v)])
        out[: n - k] = (c[k : n] - c[: n - k]) / k
    return out
