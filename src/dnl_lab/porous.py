"""Porous-media flow models mapped to doubly nonlinear PDE parameters.

A filtration law (velocity vs pressure gradient) combined with an equation of
state for the fluid reduces, for power-type laws, to

    d/dt v = K div( v^{m_u - 1} |Dv|^{p_exp - 2} Dv )

in the density or pressure variable v; the substitution u = v^{1/q_exp} with
q_exp = 1 / (1 + (m_u - 1)/(p_exp - 1)) turns it into the prototype
d/dt(u^q) = div(|Du|^{p-2} Du) up to a collected constant.  The non-power
Forchheimer law is represented but deliberately not reduced: forcing a power
fit would misstate the model.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import STENCIL_WIDTHS

# the medium: porosity phi, fluid viscosity mu_f and permeability prefactor A
POROSITY, VISCOSITY, PREFACTOR = 0.3, 1.0, 1.0


class NotPowerLaw(ValueError):
    """Raised when a filtration law does not reduce to power-law exponents."""

    def __init__(self, law, reason):
        super().__init__(f"{law.kind} law does not reduce to a power law: {reason}")
        self.law = law
        self.reason = reason


@dataclass(frozen=True)
class FiltrationLaw:
    kind: str  # "darcy" | "power_law" | "forchheimer"
    alpha: float = None  # power_law exponent (> 0)
    a: float = None  # forchheimer linear coefficient (>= 0)
    b: float = None  # forchheimer quadratic coefficient (>= 0)

    def __post_init__(self):
        if self.kind == "power_law":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("power_law requires alpha > 0")
        elif self.kind == "forchheimer":
            if self.a is None or self.b is None or self.a < 0 or self.b < 0:
                raise ValueError("forchheimer requires a, b >= 0")
            if self.a == 0 and self.b == 0:
                raise ValueError("forchheimer requires a, b not both zero")
        elif self.kind != "darcy":
            raise ValueError(f"unknown filtration law {self.kind!r}")


@dataclass(frozen=True)
class StateEquation:
    kind: str  # "polytropic" | "ideal_isothermal" | "weakly_compressible" | "incompressible"
    n: float = None  # polytropic exponent (> 1)
    K: float = None  # weakly-compressible modulus (> 0)

    def __post_init__(self):
        if self.kind == "polytropic":
            if self.n is None or self.n <= 1:
                raise ValueError("polytropic requires n > 1")
        elif self.kind == "weakly_compressible":
            if self.K is None or self.K <= 0:
                raise ValueError("weakly_compressible requires K > 0")
        elif self.kind not in ("ideal_isothermal", "incompressible"):
            raise ValueError(f"unknown state equation {self.kind!r}")


@dataclass(frozen=True)
class MediumParams:
    nanoporous_m: float = None  # k = A |dp/dx|^m when set (m >= 0)

    def __post_init__(self):
        if self.nanoporous_m is not None and self.nanoporous_m < 0:
            raise ValueError("nanoporous exponent m must be >= 0")


@dataclass
class ParameterCard:
    """Result of to_dnl: the reduced PDE parameters and constant bundle."""

    p_exp: float
    m_u: float
    q_exp: float
    K_diff: float
    variable: str  # "density" | "pressure"
    provenance: dict = dc_field(default_factory=dict)

    def __str__(self):
        lines = [
            "doubly nonlinear parameter card",
            f"  variable    : {self.variable}",
            f"  p_exp       : {self.p_exp!r}",
            f"  m_u         : {self.m_u!r}",
            f"  q_exp       : {self.q_exp!r}",
            f"  K_diff      : {self.K_diff!r}",
        ]
        for k, v in self.provenance.items():
            lines.append(f"  [{k}] {v}")
        return "\n".join(lines)


def _q_from(m_u, p_exp):
    return 1.0 / (1.0 + (m_u - 1.0) / (p_exp - 1.0))


def to_dnl(law, state, medium):
    """Reduce (filtration law, state equation, medium) to PDE parameters.

    Power-type laws give v_t = K_diff div(v^{m_u-1}|Dv|^{p_exp-2}Dv) with
    q_exp the prototype exponent of the u = v^{1/q_exp} substitution.  The
    nanoporous pressure-dependent permeability k = A|dp/dx|^m (set via
    medium.nanoporous_m) works in the pressure variable."""
    if law.kind == "forchheimer":
        raise NotPowerLaw(
            law,
            "only Darcy and power filtration laws reduce to (p, q) exponents; "
            "this law needs its own quasilinear structure",
        )
    prov = {}
    base = PREFACTOR / (VISCOSITY * POROSITY)
    prov["medium"] = f"A/(mu_f*phi) = {PREFACTOR!r}/({VISCOSITY!r}*{POROSITY!r})"

    if medium.nanoporous_m is not None:
        if law.kind != "darcy":
            raise ValueError(
                "pressure-dependent permeability is formulated on the Darcy law"
            )
        m = medium.nanoporous_m
        p_exp = m + 2.0
        if state.kind == "ideal_isothermal":
            # gas: pressure equation d/dt p = c1 d/dx(p |dp/dx|^m dp/dx)
            m_u = 2.0
            prov["state"] = "isothermal gas in the pressure variable"
            k_state = 1.0
        elif state.kind == "weakly_compressible":
            # oil: linear state law drops the p factor -> pure (m+2)-laplacian
            m_u = 1.0
            prov["state"] = (
                "weakly compressible (oil) pressure form; "
                "parabolic (m+2)-laplacian"
            )
            k_state = state.K
        else:
            raise ValueError(
                "nanoporous reduction implemented for isothermal gas and "
                "weakly compressible liquid"
            )
        q_exp = _q_from(m_u, p_exp)
        return ParameterCard(p_exp, m_u, q_exp, base * k_state, "pressure", prov)

    alpha = 1.0 if law.kind == "darcy" else law.alpha
    p_exp = alpha + 1.0
    prov["law"] = f"velocity = c |grad p|^(alpha-1) grad p, alpha = {alpha!r}"
    if state.kind == "polytropic":
        m_u = 2.0 + (state.n - 1.0) * alpha
        k_state = state.n
        prov["state"] = f"polytropic, n = {state.n!r}"
        variable = "density"
    elif state.kind == "ideal_isothermal":
        m_u = 2.0
        k_state = 1.0
        prov["state"] = "ideal isothermal gas (n -> 1 limit)"
        variable = "density"
    elif state.kind == "weakly_compressible":
        m_u = 1.0
        k_state = state.K
        prov["state"] = "weakly compressible liquid in the pressure variable"
        variable = "pressure"
    else:  # incompressible: steady pressure equation, heat-equation scaling
        m_u = 1.0
        k_state = 1.0
        prov["state"] = "incompressible (pressure variable, no degeneracy in v)"
        variable = "pressure"
    q_exp = _q_from(m_u, p_exp)
    return ParameterCard(p_exp, m_u, q_exp, base * k_state, variable, prov)


def reynolds_regime(reynolds):
    """Recommended filtration law by Reynolds number range:

    below 1       -> power law with alpha > 1 (pre-linear regime)
    from 1 to 10  -> Darcy (linear seepage)
    above 10      -> post-linear law (power alpha in (1/2, 1);
                     Forchheimer is the drag-corrected alternative)
    """
    if reynolds <= 0:
        raise ValueError("Reynolds number must be positive")
    if reynolds < 1.0:
        return FiltrationLaw("power_law", alpha=2.0)
    if reynolds <= 10.0:
        return FiltrationLaw("darcy")
    return FiltrationLaw("power_law", alpha=0.75)


def _div_flux_fd(flux_of_v, v_fun, xs, h):
    """Central-difference d/dx flux(v, dv/dx) at points xs with step h; xs
    and h broadcast, so a column of steps gives one row per step."""
    vp = v_fun(xs + h / 2)
    vm = v_fun(xs - h / 2)
    v0 = v_fun(xs)
    dvp = (v_fun(xs + h) - v0) / h
    dvm = (v0 - v_fun(xs - h)) / h
    return (flux_of_v(vp, dvp) - flux_of_v(vm, dvm)) / h


def verify_mapping(card, probe):
    """Numerically verify the u = v^{1/q_exp} reduction on a 1-D probe over
    41 points of [0.2, 1.2], at the steps h of STENCIL_WIDTHS.  The steps are
    a column against the points, so each flux divergence is one pass over
    every step, and `max_diff` is each row's max; `probe` must act
    elementwise on an array.

    Substitutes the positive probe v(x) into the physical flux divergence
    K div(v^{m_u-1}|v'|^{p-2}v') and into the prototype flux divergence of
    u = v^{1/q_exp} scaled by K s^{1-p} (s = 1/q_exp); the two agree
    identically in the continuum, so their finite-difference evaluations must
    agree to O(h^2).  Returns {h, max_diff, order, passes, scale}."""
    p, m_u, q = card.p_exp, card.m_u, card.q_exp
    s = 1.0 / q
    xs = np.linspace(0.2, 1.2, 41)
    v0 = probe(xs)
    if np.any(v0 <= 0):
        raise ValueError("probe must be positive on the window")
    scale = float(np.max(np.abs(v0)))

    def flux_phys(v, dv):
        return card.K_diff * v ** (m_u - 1.0) * np.abs(dv) ** (p - 2.0) * dv

    def u_fun(x):
        return probe(x) ** s

    def flux_proto(u, du):
        return card.K_diff * s ** (1.0 - p) * np.abs(du) ** (p - 2.0) * du

    h = np.asarray(STENCIL_WIDTHS)[:, None]
    d_phys = _div_flux_fd(flux_phys, probe, xs, h)
    d_proto = _div_flux_fd(flux_proto, u_fun, xs, h)
    diffs = np.max(np.abs(d_phys - d_proto), axis=1)
    if np.all(diffs < 1e-12 * scale):
        # identity transformation (q_exp = 1) or flat probe
        order = math.inf
        passes = True
    else:
        order = float(np.polyfit(np.log(STENCIL_WIDTHS), np.log(diffs), 1)[0])
        passes = order >= 1.7
    return {
        "h": list(STENCIL_WIDTHS),
        "max_diff": diffs.tolist(),
        "order": order,
        "passes": passes,
        "scale": scale,
    }
