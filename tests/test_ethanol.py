import numpy as np
import pytest

from bubbledyn import (DegenerateInputError, EthanolLinkParams, Window,
                       implied_food_price, quadratic_fit, trend_comparison)

from conftest import annual


class TestQuadraticFit:
    def test_exact_model_recovery(self):
        s = annual([2.0 + 0.5 * t * t for t in range(11)])
        trend = quadratic_fit(s)
        assert trend.a == pytest.approx(2.0, abs=1e-10)
        assert trend.b == pytest.approx(0.5, abs=1e-10)
        assert trend.r_squared == pytest.approx(1.0)

    def test_constant_series(self):
        trend = quadratic_fit(annual([4.0, 4.0, 4.0, 4.0]))
        assert trend.a == pytest.approx(4.0)
        assert trend.b == pytest.approx(0.0, abs=1e-12)

    def test_exclusion_window_ignored_in_fit(self):
        values = [1.0 + 0.2 * t * t for t in range(10)]
        values[4] = 99.0  # corrupted point
        trend = quadratic_fit(annual(values), exclude=[Window(4, 5)])
        assert trend.a == pytest.approx(1.0, abs=1e-9)
        assert trend.b == pytest.approx(0.2, abs=1e-9)

    def test_time_origin_is_series_start(self):
        # same quadratic, shifted start year: coefficients unchanged
        values = [3.0 + 0.1 * t * t for t in range(8)]
        t1 = quadratic_fit(annual(values, start=(1999, 1)))
        t2 = quadratic_fit(annual(values, start=(1991, 1)))
        assert t1.b == pytest.approx(t2.b)

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError):
            quadratic_fit(annual([1.0, 2.0, 3.0, 4.0]), exclude=[Window(0, 2)])

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        s = annual(rng.normal(size=15) + 0.3 * np.arange(15) ** 2)
        trend = quadratic_fit(s)
        t = np.arange(15, dtype=float)
        residuals = s.to_array() - (trend.a + trend.b * t * t)
        assert abs(residuals.sum()) < 1e-8
        assert abs((residuals * t * t).sum()) < 1e-8


class TestImpliedFoodPrice:
    def test_zero_numerator(self):
        link = EthanolLinkParams(beta_sum=2.0, alpha_d=95.0, q_total=100.0)
        q_x = annual([5.0, 5.0, 5.0])
        assert implied_food_price(q_x, link).values == pytest.approx((0.0,) * 3)

    def test_hand_arithmetic(self):
        link = EthanolLinkParams(beta_sum=2.0, alpha_d=95.0, q_total=100.0)
        out = implied_food_price(annual([10.0, 20.0, 30.0]), link)
        assert out.values == pytest.approx((2.5, 7.5, 12.5))

    def test_doubling_beta_sum_halves_price(self):
        q_x = annual([12.0, 40.0, 33.0])
        p1 = implied_food_price(q_x, EthanolLinkParams(2.0, 95.0, 100.0))
        p2 = implied_food_price(q_x, EthanolLinkParams(4.0, 95.0, 100.0))
        assert p2.to_array() == pytest.approx(p1.to_array() / 2.0)

    def test_affine_slope_property(self):
        link = EthanolLinkParams(beta_sum=3.0, alpha_d=50.0, q_total=80.0)
        q_x = annual([10.0, 25.0, 18.0])
        shifted = q_x.with_values([v + 6.0 for v in q_x.values])
        diff = (implied_food_price(shifted, link).to_array()
                - implied_food_price(q_x, link).to_array())
        assert diff == pytest.approx(np.full(3, 6.0 / 3.0))

    def test_nonpositive_beta_sum_rejected(self):
        with pytest.raises(ValueError):
            EthanolLinkParams(beta_sum=0.0, alpha_d=1.0, q_total=1.0)


class TestTrendComparison:
    def test_self_comparison(self):
        s = annual([1.0 + 0.1 * t * t + 0.01 * t for t in range(12)])
        report = trend_comparison(s, s)
        assert report.rho == pytest.approx(1.0)
        assert report.coefficient_gap == pytest.approx(0.0, abs=1e-12)
        assert report.trend_a.b == pytest.approx(report.trend_b.b)

    def test_known_coefficient_gap(self):
        a = annual([0.3 * t * t for t in range(10)])
        b = annual([0.5 * t * t for t in range(10)])
        report = trend_comparison(a, b)
        # both normalize to t^2/81, so the gap vanishes by construction;
        # compare un-normalized fits instead for the known gap
        assert quadratic_fit(a).b - quadratic_fit(b).b == pytest.approx(-0.2)
        assert report.rho == pytest.approx(1.0)

    def test_exclusion_applies_to_series_b(self):
        base = [0.1 * t * t for t in range(12)]
        spiked = list(base)
        spiked[6] = spiked[7] = 30.0  # bubble in series b
        report = trend_comparison(annual(base), annual(spiked),
                                  exclude_b=Window(6, 8))
        assert report.trend_b.b == pytest.approx(report.trend_a.b, rel=1e-6)
        assert report.rho == pytest.approx(1.0, abs=1e-9)

    def test_serializable(self):
        import json

        s = annual([1.0 + 0.1 * t * t for t in range(8)])
        payload = json.loads(json.dumps(trend_comparison(s, s).to_dict()))
        assert set(payload) == {"series_a", "series_b", "coefficient_gap", "rho"}
        assert set(payload["series_a"]) == {"a", "b", "r_squared"}
