"""Tests for the porous-media model reduction."""

import math

import numpy as np
import pytest

from dnl_lab.core import STENCIL_WIDTHS
from dnl_lab.porous import (
    _div_flux_fd,
    NotPowerLaw,
    FiltrationLaw,
    StateEquation,
    MediumParams,
    ParameterCard,
    to_dnl,
    reynolds_regime,
    verify_mapping,
)


MEDIUM = MediumParams()


class TestValidation:
    def test_law(self):
        with pytest.raises(ValueError):
            FiltrationLaw("power_law")
        with pytest.raises(ValueError):
            FiltrationLaw("power_law", alpha=-1.0)
        with pytest.raises(ValueError):
            FiltrationLaw("forchheimer", a=0.0, b=0.0)
        for a, b in [(-1.0, 1.0), (1.0, -1.0)]:
            with pytest.raises(ValueError, match="^forchheimer requires a, b >= 0"):
                FiltrationLaw("forchheimer", a=a, b=b)
        with pytest.raises(ValueError):
            FiltrationLaw("khristianovich")
        with pytest.raises(ValueError):
            FiltrationLaw("bogus")
        FiltrationLaw("darcy")
        FiltrationLaw("forchheimer", a=1.0, b=0.1)

    def test_state(self):
        with pytest.raises(ValueError):
            StateEquation("polytropic", n=1.0)
        with pytest.raises(ValueError):
            StateEquation("weakly_compressible")
        with pytest.raises(ValueError):
            StateEquation("bogus")
        StateEquation("ideal_isothermal")
        StateEquation("incompressible")

    def test_medium(self):
        with pytest.raises(ValueError):
            MediumParams(nanoporous_m=-0.5)


class TestReduction:
    def test_darcy_polytropic(self):
        card = to_dnl(FiltrationLaw("darcy"), StateEquation("polytropic", n=2.0), MEDIUM)
        # classic porous medium equation: p = 2, m_u = n + 1
        assert card.p_exp == 2.0
        assert card.m_u == 3.0
        assert card.q_exp == pytest.approx(1.0 / 3.0)
        assert card.variable == "density"

    def test_darcy_isothermal(self):
        card = to_dnl(FiltrationLaw("darcy"), StateEquation("ideal_isothermal"), MEDIUM)
        assert (card.p_exp, card.m_u) == (2.0, 2.0)
        assert card.q_exp == pytest.approx(0.5)

    def test_power_law_general(self):
        alpha, n = 1.5, 2.0
        card = to_dnl(
            FiltrationLaw("power_law", alpha=alpha),
            StateEquation("polytropic", n=n),
            MEDIUM,
        )
        assert card.p_exp == alpha + 1.0
        assert card.m_u == 2.0 + (n - 1.0) * alpha
        assert card.q_exp == pytest.approx(alpha / (1.0 + alpha + (n - 1.0) * alpha))

    def test_darcy_equals_power_alpha_one(self):
        state = StateEquation("polytropic", n=3.0)
        a = to_dnl(FiltrationLaw("darcy"), state, MEDIUM)
        b = to_dnl(FiltrationLaw("power_law", alpha=1.0), state, MEDIUM)
        assert (a.p_exp, a.m_u, a.q_exp) == (b.p_exp, b.m_u, b.q_exp)

    def test_q_monotone_in_polytropic_n(self):
        qs = [
            to_dnl(
                FiltrationLaw("darcy"), StateEquation("polytropic", n=n), MEDIUM
            ).q_exp
            for n in (1.2, 1.5, 2.0, 3.0, 5.0)
        ]
        assert all(b < a for a, b in zip(qs, qs[1:]))

    def test_nanoporous_gas(self):
        medium = MediumParams(nanoporous_m=1.0)
        card = to_dnl(FiltrationLaw("darcy"), StateEquation("ideal_isothermal"), medium)
        # k = A|dp/dx|^m: p_exp = m + 2, gas keeps the degenerate p factor
        assert card.p_exp == 3.0
        assert card.m_u == 2.0
        assert card.q_exp == pytest.approx(2.0 / 3.0)  # (m+1)/(m+2)
        assert card.variable == "pressure"

    def test_nanoporous_oil(self):
        medium = MediumParams(nanoporous_m=1.0)
        card = to_dnl(
            FiltrationLaw("darcy"), StateEquation("weakly_compressible", K=2.0), medium
        )
        assert card.p_exp == 3.0
        assert card.m_u == 1.0
        assert card.q_exp == 1.0  # pure parabolic (m+2)-laplacian
        assert card.variable == "pressure"

    def test_nanoporous_requires_darcy(self):
        medium = MediumParams(nanoporous_m=1.0)
        with pytest.raises(ValueError):
            to_dnl(
                FiltrationLaw("power_law", alpha=2.0),
                StateEquation("ideal_isothermal"),
                medium,
            )

    @pytest.mark.parametrize(
        "state",
        [StateEquation("polytropic", n=2.0), StateEquation("incompressible")],
    )
    def test_nanoporous_other_state(self, state):
        medium = MediumParams(nanoporous_m=1.0)
        with pytest.raises(ValueError, match="^nanoporous reduction implemented"):
            to_dnl(FiltrationLaw("darcy"), state, medium)

    def test_not_power_law(self):
        law = FiltrationLaw("forchheimer", a=1.0, b=0.1)
        with pytest.raises(NotPowerLaw) as exc:
            to_dnl(law, StateEquation("ideal_isothermal"), MEDIUM)
        assert exc.value.law is law

    def test_card_printout(self):
        card = to_dnl(FiltrationLaw("darcy"), StateEquation("polytropic", n=2.0), MEDIUM)
        text = str(card)
        assert "p_exp" in text and "q_exp" in text and "density" in text


class TestReynolds:
    def test_regimes(self):
        assert reynolds_regime(0.1).kind == "power_law"
        assert reynolds_regime(0.1).alpha > 1.0
        assert reynolds_regime(5.0).kind == "darcy"
        post = reynolds_regime(100.0)
        assert post.kind == "power_law"
        assert 0.5 < post.alpha < 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            reynolds_regime(-1.0)


class TestVerifyMapping:
    PROBE = staticmethod(lambda x: 1.0 + 0.5 * np.sin(x))

    def test_gas_card(self):
        card = to_dnl(FiltrationLaw("darcy"), StateEquation("ideal_isothermal"), MEDIUM)
        out = verify_mapping(card, self.PROBE)
        assert out["passes"]
        assert out["order"] == pytest.approx(2.0, abs=0.3)

    def test_polytropic_card(self):
        card = to_dnl(
            FiltrationLaw("power_law", alpha=1.5),
            StateEquation("polytropic", n=2.0),
            MEDIUM,
        )
        out = verify_mapping(card, self.PROBE)
        assert out["passes"]
        assert out["order"] == pytest.approx(2.0, abs=0.3)

    def test_identity_exact(self):
        medium = MediumParams(nanoporous_m=1.0)
        card = to_dnl(
            FiltrationLaw("darcy"), StateEquation("weakly_compressible", K=1.0), medium
        )
        out = verify_mapping(card, self.PROBE)
        # q_exp = 1: u = v and the two flux forms are identical expressions
        assert out["passes"]
        assert math.isinf(out["order"])
        assert max(out["max_diff"]) < 1e-12 * out["scale"]

    def test_positive_probe_required(self):
        card = to_dnl(FiltrationLaw("darcy"), StateEquation("ideal_isothermal"), MEDIUM)
        with pytest.raises(ValueError):
            verify_mapping(card, lambda x: np.cos(10.0 * x))

    @pytest.mark.parametrize(
        "law, state, medium",
        [
            (FiltrationLaw("darcy"), StateEquation("ideal_isothermal"), MEDIUM),
            (FiltrationLaw("darcy"), StateEquation("polytropic", n=1.4), MEDIUM),
            (FiltrationLaw("power_law", alpha=2.0), StateEquation("polytropic", n=2.0), MEDIUM),
            (FiltrationLaw("power_law", alpha=0.75), StateEquation("incompressible"), MEDIUM),
            (FiltrationLaw("darcy"), StateEquation("ideal_isothermal"),
             MediumParams(nanoporous_m=0.5)),
            (FiltrationLaw("darcy"), StateEquation("weakly_compressible", K=1.0),
             MediumParams(nanoporous_m=1.0)),
        ],
        ids=["gas", "polytropic", "power-polytropic", "incompressible",
             "nanoporous-gas", "nanoporous-oil"],
    )
    @pytest.mark.parametrize("probe", [PROBE, lambda x: 2.0 + np.sin(x)],
                             ids=["half-sine", "model-probe"])
    def test_max_diff_same_bits_as_per_step_loop(self, law, state, medium, probe):
        # the steps as one column against the points give each step's bits
        card = to_dnl(law, state, medium)
        p, m_u, s = card.p_exp, card.m_u, 1.0 / card.q_exp
        xs = np.linspace(0.2, 1.2, 41)

        def flux_phys(v, dv):
            return card.K_diff * v ** (m_u - 1.0) * np.abs(dv) ** (p - 2.0) * dv

        def flux_proto(u, du):
            return card.K_diff * s ** (1.0 - p) * np.abs(du) ** (p - 2.0) * du

        want = [
            float(np.max(np.abs(
                _div_flux_fd(flux_phys, probe, xs, h)
                - _div_flux_fd(flux_proto, lambda x: probe(x) ** s, xs, h)
            )))
            for h in STENCIL_WIDTHS
        ]
        got = verify_mapping(card, probe)["max_diff"]
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
