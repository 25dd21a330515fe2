"""Smoothing multiplier profile and budget arithmetic."""

import numpy as np
import pytest

from nlslab.geometry import build_geometry, field_from_modes, norm, random_field
from nlslab.smoothing import SmoothingSymbol, apply_I, gwp_budget, m_value, total_exponent

RNG = np.random.default_rng(11)


class TestSymbolValues:
    def test_identity_region_and_outer_power(self):
        sym = SmoothingSymbol(N=8.0, alpha=0.5)
        assert m_value(3.0, sym) == 1.0
        assert m_value(8.0, sym) == 1.0
        # |xi| = 4N with alpha = 1/2: (1/4)^(1/2)
        assert m_value(32.0, sym) == pytest.approx(0.5, rel=1e-14)
        assert m_value(16.0, sym) == pytest.approx(2.0 ** -0.5, rel=1e-14)

    def test_radially_nonincreasing_on_log_grid(self):
        sym = SmoothingSymbol(N=4.0, alpha=2.0 / 3.0)
        xi = np.exp(np.linspace(np.log(0.5), np.log(400.0), 2000))
        vals = m_value(xi, sym)
        assert np.all(np.diff(vals) <= 1e-14)

    def test_m_times_xi_nondecreasing(self):
        for alpha in (0.2, 0.5, 2.0 / 3.0):
            sym = SmoothingSymbol(N=4.0, alpha=alpha)
            xi = np.exp(np.linspace(np.log(1.0), np.log(64.0), 4000))
            prod = m_value(xi, sym) * xi
            assert np.all(np.diff(prod) >= -1e-10), f"alpha={alpha}"

    def test_order_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            SmoothingSymbol(N=2.0, alpha=0.95)


class TestApplyI:
    def test_identity_below_threshold(self):
        g = build_geometry(1, (), 1.0)
        u = field_from_modes(g, 8, {1: 1.0, -3: 2.0})
        out = apply_I(u, SmoothingSymbol(N=4.0, alpha=0.5))
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_single_high_mode_damped(self):
        g = build_geometry(1, (), 1.0)
        u = field_from_modes(g, 16, {16: 1.0})
        out = apply_I(u, SmoothingSymbol(N=4.0, alpha=0.5))
        assert out.coeffs[16 + 16] == pytest.approx(0.5, rel=1e-14)

    def test_contraction_in_hs(self):
        g = build_geometry(1, (), 1.0)
        u = random_field(g, 12, RNG)
        out = apply_I(u, SmoothingSymbol(N=2.0, alpha=0.6))
        for s in (0.0, 0.5, 1.0):
            assert norm(out, "hs", s=s) <= norm(u, "hs", s=s) + 1e-14


class TestBudget:
    def test_thresholds_exact(self):
        assert total_exponent(1, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
        assert total_exponent(2, 3.0 / 5.0) == pytest.approx(0.0, abs=1e-15)

    def test_2d_example_value(self):
        assert total_exponent(2, 2.0 / 3.0) == pytest.approx(0.25, abs=1e-12)
        plan = gwp_budget(2, 2.0 / 3.0, N=16.0)
        assert plan.ideal_exponent == pytest.approx(0.25, abs=1e-12)
        assert plan.lam == pytest.approx(16.0 ** 0.5, rel=1e-13)

    def test_1d_plan_numbers(self):
        plan = gwp_budget(1, 0.5, N=64.0, epsilon=0.01)
        assert plan.lam == pytest.approx(64.0 ** 1.01, rel=1e-13)
        assert plan.per_step_time == pytest.approx(plan.lam / 64.0, rel=1e-13)
        assert plan.ideal_exponent == pytest.approx(1.0, abs=1e-12)
        assert plan.total_existence_exponent == pytest.approx(1.0 - 0.01, abs=1e-12)
        assert plan.globally_iterable

    def test_monotone_in_s(self):
        ss = np.linspace(0.2, 0.9, 40)
        for d in (1, 2):
            vals = [total_exponent(d, s) for s in ss]
            assert np.all(np.diff(vals) > 0)

    def test_rejects_bad_regularity(self):
        with pytest.raises(ValueError, match="s="):
            gwp_budget(1, 1.5, N=4.0)
