"""Tests for exponent arithmetic, regimes, the grid, g-functions, mollifiers."""

import math

import numpy as np
import pytest

from dnl_lab.core import (
    ExponentTriple,
    Grid1D,
    classify,
    g_signed,
    mollify_exp,
    steklov,
)


class TestExponentTriple:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentTriple(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            ExponentTriple(2.0, 0.0, 3)
        with pytest.raises(ValueError):
            ExponentTriple(2.0, 1.0, 0)

    def test_critical_thresholds(self):
        e = ExponentTriple(2.0, 1.0, 3)
        assert e.critical_harnack_q() == pytest.approx(3.0)
        assert e.boundedness_q() == pytest.approx(5.0)
        # p >= N: thresholds are +inf
        e2 = ExponentTriple(3.0, 1.0, 2)
        assert math.isinf(e2.critical_harnack_q())
        assert math.isinf(e2.boundedness_q())

    def test_lambda_r(self):
        e = ExponentTriple(2.0, 2.0, 3)
        # N(p - q - 1) + r p = 3*(-1) + 2 r
        assert e.lambda_r(0.0) == pytest.approx(-3.0)
        assert e.lam_q == pytest.approx(1.0)


class TestClassify:
    def test_diffusion_kinds(self):
        assert classify(ExponentTriple(2.0, 0.5, 3)).diffusion_kind == "slow"
        assert classify(ExponentTriple(2.0, 1.0, 3)).diffusion_kind == "trudinger"
        assert classify(ExponentTriple(2.0, 2.0, 3)).diffusion_kind == "fast"

    def test_supercritical_window(self):
        # p=2, N=3: window is 1 < q < 3
        assert classify(ExponentTriple(2.0, 2.0, 3)).supercritical_harnack
        assert not classify(ExponentTriple(2.0, 3.5, 3)).supercritical_harnack
        f = classify(ExponentTriple(2.0, 3.0, 3))
        assert f.at_harnack_critical and not f.supercritical_harnack

    def test_boundedness_threshold(self):
        # p=2, N=3: bounded below q = 5
        assert classify(ExponentTriple(2.0, 4.0, 3)).bounded_guaranteed
        f = classify(ExponentTriple(2.0, 5.0, 3))
        assert f.at_boundedness_critical and not f.bounded_guaranteed
        assert not classify(ExponentTriple(2.0, 6.0, 3)).bounded_guaranteed

    def test_critical_detection_tolerance(self):
        q = 3.0 * (1.0 + 1e-14)
        assert classify(ExponentTriple(2.0, q, 3)).at_harnack_critical


class TestGrid1D:
    def test_cartesian(self):
        g = Grid1D(-1.0, 1.0, 10)
        assert g.h == pytest.approx(0.2)
        assert g.centers()[0] == pytest.approx(-0.9)
        assert g.faces()[-1] == pytest.approx(1.0)
        assert np.allclose(g.cell_volumes(), 0.2)
        assert g.surface_constant() == 1.0

    def test_radial_volumes(self):
        g = Grid1D(0.0, 1.0, 16, "radial", 3)
        vols = g.cell_volumes()
        # shells sum to R^N / N; with the sphere constant: ball volume
        assert np.sum(vols) == pytest.approx(1.0 / 3.0)
        assert g.surface_constant() == pytest.approx(4.0 * math.pi)
        assert np.sum(vols) * g.surface_constant() == pytest.approx(
            4.0 * math.pi / 3.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            Grid1D(-1.0, 1.0, 10, "radial", 3)

    def test_cell_width_finite_and_positive(self):
        # (x_hi - x_lo) / n_cells underflows to 0, x_hi - x_lo overflows
        with pytest.raises(ValueError, match="cell width h = 0 must be finite"):
            Grid1D(0.0, 5e-324, 200)
        with pytest.raises(ValueError, match="cell width h = inf must be finite"):
            Grid1D(-1.7e308, 1.7e308, 200)

    def test_radial_dimension_keeps_gamma_finite(self):
        # the unit sphere's area takes Gamma(N/2), finite up to N = 343
        assert 0 < Grid1D(0.0, 1.0, 8, "radial", 343).surface_constant() < math.inf
        with pytest.raises(ValueError, match="requires N <= 343"):
            Grid1D(0.0, 1.0, 8, "radial", 344)
        assert Grid1D(0.0, 1.0, 8, "cartesian", 344).surface_constant() == 1.0


class TestGFunction:
    def test_q1_closed_form(self):
        for a, b in [(2.0, 1.0), (-1.5, 0.7), (0.0, 3.0)]:
            assert g_signed(a, b, 1.0) == 0.5 * (a - b) ** 2

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, q = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.3, 4)
            assert g_signed(a, b, q) >= 0.0

    def test_signed_parts_match_full(self):
        # g equals the plus part when a >= b and the minus part when a <= b
        for a, b, q in [(2.0, 0.5, 2.0), (1.0, -1.0, 0.5), (0.3, 0.1, 3.0)]:
            assert g_signed(a, b, q, "plus") == pytest.approx(
                g_signed(a, b, q), rel=1e-8
            )
            assert g_signed(a, b, q, "minus") == 0.0
        for a, b, q in [(0.5, 2.0, 2.0), (-1.0, 1.0, 0.5)]:
            assert g_signed(a, b, q, "minus") == pytest.approx(
                g_signed(a, b, q), rel=1e-8
            )
            assert g_signed(a, b, q, "plus") == 0.0

    def test_sandwich(self):
        # c1 (|a|+|b|)^(q-1) (a-b)^2 <= g <= c2 (...) for fixed q
        rng = np.random.default_rng(11)
        for q in (0.5, 2.0, 3.0):
            ratios = []
            for _ in range(200):
                a, b = rng.uniform(-3, 3, size=2)
                if abs(a - b) < 1e-6:
                    continue
                base = (abs(a) + abs(b)) ** (q - 1) * (a - b) ** 2
                ratios.append(g_signed(a, b, q) / base)
            assert min(ratios) > 0
            assert max(ratios) / min(ratios) < 100

    def test_errors(self):
        with pytest.raises(ValueError):
            g_signed(1.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            g_signed(1.0, 0.0, 2.0, "bogus")


class TestMollifiers:
    def setup_method(self):
        self.dt = 1e-3
        t = np.arange(0.0, 1.0, self.dt)
        self.t = t
        self.v = np.sin(5 * t) + 0.3 * t

    def test_exp_identity(self):
        h = 1e-2
        y = mollify_exp(self.v, self.dt, h)
        lhs = (y[1:] - y[:-1]) / self.dt
        rhs = ((self.v[1:] - y[1:]) + (self.v[:-1] - y[:-1])) / (2 * h)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_exp_backward_mirror(self):
        h = 1e-2
        fwd = mollify_exp(self.v, self.dt, h, "forward")
        bwd = mollify_exp(self.v[::-1], self.dt, h, "backward")
        assert np.allclose(fwd, bwd[::-1])

    def test_exp_linear_convergence(self):
        errs = []
        hs = [4e-2, 2e-2, 1e-2]
        for h in hs:
            y = mollify_exp(self.v, self.dt, h)
            errs.append(np.max(np.abs(y[500:] - self.v[500:])))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_steklov_identity(self):
        h = 1e-2
        k = int(round(h / self.dt))
        s = steklov(self.v, self.dt, h)
        n = self.v.size
        lhs = (s[1 : n - k] - s[: n - k - 1]) / self.dt
        rhs = (self.v[k : n - 1] - self.v[: n - k - 1]) / h
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_steklov_trailing_zero(self):
        s = steklov(self.v, self.dt, 1e-2)
        assert np.all(s[-10:] == 0.0)

    def test_steklov_requires_multiple(self):
        with pytest.raises(ValueError):
            steklov(self.v, self.dt, 1.5e-3)

    def test_errors(self):
        with pytest.raises(ValueError):
            mollify_exp(self.v, self.dt, -1.0)
        with pytest.raises(ValueError, match="^dt must be > 0$"):
            mollify_exp(self.v, 0.0, 1e-2)
        with pytest.raises(ValueError):
            mollify_exp(self.v, self.dt, 1e-2, "sideways")
        with pytest.raises(ValueError, match="^only the forward"):
            steklov(self.v, self.dt, 1e-2, "backward")
        for dt, h in [(self.dt, 0.0), (self.dt, -1e-2), (0.0, 1e-2), (-self.dt, 1e-2)]:
            with pytest.raises(ValueError, match="^h and dt must be > 0$"):
                steklov(self.v, dt, h)
