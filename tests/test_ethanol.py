import numpy as np
import pytest
from hypothesis import given, strategies as st

from bubbledyn import (DegenerateInputError, DomainError, Window,
                       quadratic_fit, trend_comparison)

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

    @given(st.integers(3, 400), st.integers(0, 2**32 - 1), st.data())
    def test_agrees_with_lstsq(self, n, seed, data):
        """The centred one-regressor fit agrees with numpy's least squares on
        the design [1, t**2] to 1e-10 relative."""
        rng = np.random.default_rng(seed)
        t = np.arange(n, dtype=float)
        a0 = rng.uniform(1.0, 10.0) * rng.choice([-1.0, 1.0])
        b0 = rng.uniform(1.0, 10.0) * rng.choice([-1.0, 1.0]) / n ** 2
        y = a0 + b0 * t * t + rng.uniform(0.0, 1.0) * rng.normal(size=n)
        windows = []
        keep = np.ones(n, dtype=bool)
        begin = data.draw(st.integers(0, n - 1))
        end = data.draw(st.integers(begin + 1, n))
        if n - (end - begin) >= 3:
            windows = [Window(begin, end)]
            keep[begin:end] = False
        design = np.column_stack([np.ones(keep.sum()), t[keep] ** 2])
        coef, *_ = np.linalg.lstsq(design, y[keep], rcond=None)
        sst = np.sum((y[keep] - y[keep].mean()) ** 2)
        r2 = 1.0 - np.sum((y[keep] - design @ coef) ** 2) / sst
        trend = quadratic_fit(annual(y), windows)
        assert trend.a == pytest.approx(coef[0], rel=1e-10)
        assert trend.b == pytest.approx(coef[1], rel=1e-10)
        assert trend.r_squared == pytest.approx(max(0.0, r2), rel=1e-10)

    @pytest.mark.parametrize("values", [
        [1e300 * (1 + t * t) for t in range(6)],  # the squared deviations
        [1e308, 1e308, -1e308, 0.0],  # a partial sum of the mean
        [1.7e308, -1.7e308, -1.7e308],  # a deviation, to inf without raising
    ])
    def test_overflow_is_domain_error(self, values):
        with pytest.raises(DomainError, match="overflows"):
            quadratic_fit(annual(values))

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        s = annual(rng.normal(size=15) + 0.3 * np.arange(15) ** 2)
        trend = quadratic_fit(s)
        t = np.arange(15, dtype=float)
        residuals = s.to_array() - (trend.a + trend.b * t * t)
        assert abs(residuals.sum()) < 1e-8
        assert abs((residuals * t * t).sum()) < 1e-8


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

    def test_short_overlap_rejected(self):
        # six years each, three of them shared
        values = [1.0 + 0.1 * t * t for t in range(6)]
        with pytest.raises(DegenerateInputError, match=">= 4 points"):
            trend_comparison(annual(values, start=(1990, 1)),
                             annual(values, start=(1993, 1)))

    def test_serializable(self):
        import json

        s = annual([1.0 + 0.1 * t * t for t in range(8)])
        payload = json.loads(json.dumps(trend_comparison(s, s).to_dict()))
        assert set(payload) == {"series_a", "series_b", "coefficient_gap", "rho"}
        assert set(payload["series_a"]) == {"a", "b", "r_squared"}
