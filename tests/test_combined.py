import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubbledyn import (AlignmentError, CombinedParams, Frequency, QuadraticTrend,
                       Regime, Window, combined, fit_combined, fitting, kc_of_t,
                       quadratic_fit, simulate_combined)

from conftest import annual, monthly


def make_markets(n_months, start=(2004, 1)):
    t = np.arange(n_months, dtype=float)
    equity = 1200.0 + 200.0 * np.sin(2 * math.pi * t / 40.0) - 1.5 * t
    bonds = 0.22 + 0.02 * np.sin(2 * math.pi * t / 30.0 + 1.0)
    return [monthly(equity, start=start, label="equity index"),
            monthly(bonds, start=start, label="inverse bond yield")]


TRUTH = dict(k_sd=0.098, k_sp=1.29, couplings=(-0.095, -67.9),
             trend_a=105.0, trend_b=0.01, switch_index=40)


def make_food(n_months=88):
    markets = make_markets(n_months)
    params = CombinedParams(**TRUTH)
    return simulate_combined(params, markets, 105.0, 105.5, n_months - 1), markets


class TestKcOfT:
    def test_static_trend_keeps_equilibrium_at_a(self):
        params = CombinedParams(k_sd=0.3, k_sp=0.0, couplings=(),
                                trend_a=80.0, trend_b=0.0, switch_index=1)
        path = simulate_combined(params, [], 80.0, 80.0, 12).to_array()
        assert path == pytest.approx(np.full(13, 80.0))

    def test_direct_arithmetic(self):
        assert kc_of_t(0.0, 1.0, 1.0, 2) == pytest.approx(9.0)

    def test_trend_tracking_is_exact_from_matched_start(self):
        a, b = 105.0, 0.01
        params = CombinedParams(k_sd=0.098, k_sp=0.0, couplings=(),
                                trend_a=a, trend_b=b, switch_index=1)
        path = simulate_combined(params, [], a, a + b, 60).to_array()
        quad = a + b * np.arange(61.0) ** 2
        assert path == pytest.approx(quad, rel=1e-12)

    def test_mismatched_start_decays_geometrically(self):
        a, b, k_sd = 105.0, 0.01, 0.4
        params = CombinedParams(k_sd=k_sd, k_sp=0.0, couplings=(),
                                trend_a=a, trend_b=b, switch_index=1)
        path = simulate_combined(params, [], a, a + 5.0, 30).to_array()
        err = path - (a + b * np.arange(31.0) ** 2)
        # e(t+1) = (1 - k_sd) e(t)
        assert err[2:] == pytest.approx(err[1] * (1 - k_sd) ** np.arange(1, 30),
                                        rel=1e-10)


@pytest.mark.parametrize("name", ["k_sd", "k_sp"])
def test_params_reject_nan(name):
    with pytest.raises(ValueError, match=name):
        CombinedParams(**{**TRUTH, name: math.nan})


class TestSimulateCombined:
    def test_constant_markets_contribute_nothing(self):
        n = 40
        flat = [monthly([3.0] * n), monthly([9.0] * n)]
        with_mkts = simulate_combined(
            CombinedParams(0.2, 1.1, (-5.0, -2.0), 100.0, 0.01, 10),
            flat, 100.0, 101.0, n - 1)
        without = simulate_combined(
            CombinedParams(0.2, 1.1, (0.0, 0.0), 100.0, 0.01, 10),
            flat, 100.0, 101.0, n - 1)
        assert with_mkts.values == pytest.approx(without.values)

    def test_switch_causality_bit_identical_before_switch(self):
        food, markets = make_food(60)
        params = CombinedParams(**TRUTH)
        off = CombinedParams(**{**TRUTH, "k_sp": 0.0, "couplings": (0.0, 0.0)})
        on_path = simulate_combined(params, markets, 105.0, 105.5, 59).to_array()
        off_path = simulate_combined(off, markets, 105.0, 105.5, 59).to_array()
        s = TRUTH["switch_index"]
        assert np.array_equal(on_path[:s + 1], off_path[:s + 1])
        assert not np.array_equal(on_path[s + 1:], off_path[s + 1:])

    def test_rising_market_with_negative_coupling_lowers_price(self):
        n = 30
        rising = [monthly(np.linspace(1.0, 2.0, n))]
        coupled = simulate_combined(
            CombinedParams(0.2, 0.0, (-3.0,), 100.0, 0.0, 5),
            rising, 100.0, 100.0, n - 1).to_array()
        free = simulate_combined(
            CombinedParams(0.2, 0.0, (0.0,), 100.0, 0.0, 5),
            rising, 100.0, 100.0, n - 1).to_array()
        assert coupled[6] < free[6]

    def test_short_market_series_rejected(self):
        with pytest.raises(AlignmentError):
            simulate_combined(CombinedParams(0.2, 0.0, (-1.0,), 100.0, 0.0, 5),
                              [monthly([1.0, 2.0, 3.0])], 100.0, 100.0, 10)

    @pytest.mark.parametrize("market", [
        annual([1.0] * 20, start=(2004, 1)),
        monthly([1.0] * 20, start=(2004, 2)),
        monthly([1.0] * 11, start=(2004, 1)),
    ], ids=["annual", "starts-after", "ends-before"])
    def test_market_must_cover_the_food_span(self, market):
        with pytest.raises(AlignmentError, match="do not cover the 12 monthly "
                                                 "values from 2004-01"):
            combined._market_arrays([market], (2004, 1), Frequency.MONTHLY, 12)

    def test_coupling_count_must_match_markets(self):
        with pytest.raises(ValueError):
            simulate_combined(CombinedParams(0.2, 0.0, (-1.0,), 100.0, 0.0, 5),
                              [], 100.0, 100.0, 10)


class TestBackgroundTrend:
    def test_recovers_quadratic_through_bubble(self):
        t = np.arange(80, dtype=float)
        values = 100.0 + 0.012 * t * t
        values[40:55] += 60.0  # bubble
        trend = quadratic_fit(monthly(values), [Window(40, 55)])
        assert trend.a == pytest.approx(100.0, abs=1e-9)
        assert trend.b == pytest.approx(0.012, abs=1e-12)
        assert trend.r_squared == pytest.approx(1.0)


class TestFitCombined:
    def test_recovers_truth_noiseless(self):
        food, markets = make_food()
        trend = QuadraticTrend(a=TRUTH["trend_a"], b=TRUTH["trend_b"],
                               r_squared=1.0)
        fit = fit_combined(food, markets, trend,
                           switch_candidates=[38, 40, 42])
        assert fit.params.switch_index == 40
        assert fit.params.k_sd == pytest.approx(TRUTH["k_sd"], rel=0.05)
        assert fit.params.k_sp == pytest.approx(TRUTH["k_sp"], rel=0.05)
        for got, want in zip(fit.params.couplings, TRUTH["couplings"]):
            assert got == pytest.approx(want, rel=0.10)
        assert fit.sse < 1e-6
        assert fit.regime.label is Regime.AMPLIFIED_OSCILLATION
        assert fit.switch_date == (2007, 5)

    def test_fallback_start_recovers_truth(self, monkeypatch):
        # the start used where the one-step regression gives no seed
        monkeypatch.setattr(combined, "_linear_seed", lambda food, terms: None)
        food, markets = make_food(60)
        trend = QuadraticTrend(a=TRUTH["trend_a"], b=TRUTH["trend_b"],
                               r_squared=1.0)
        fit = fit_combined(food, markets, trend, switch_candidates=[40])
        assert fit.params.k_sd == pytest.approx(TRUTH["k_sd"], rel=0.05)
        assert fit.params.k_sp == pytest.approx(TRUTH["k_sp"], rel=0.05)
        for got, want in zip(fit.params.couplings, TRUTH["couplings"]):
            assert got == pytest.approx(want, rel=0.10)
        assert fit.sse < 1e-6

    def test_no_seed_from_non_finite_terms(self, monkeypatch):
        # lstsq on non-finite input fails in LAPACK or does not return
        monkeypatch.setattr(np.linalg, "lstsq", None)
        food, markets = make_food(30)
        fv = food.to_array()
        arrays = [m.to_array() for m in markets]
        terms = combined._model_terms(105.0, 0.01, arrays, 29, 10)
        arrays[0][20] = np.inf
        spoiled_terms = combined._model_terms(105.0, 0.01, arrays, 29, 10)
        assert combined._linear_seed(np.append(fv[:-1], np.inf), terms) is None
        assert combined._linear_seed(fv, spoiled_terms) is None

    def test_report_serializable(self):
        import json

        food, markets = make_food(60)
        trend = QuadraticTrend(a=TRUTH["trend_a"], b=TRUTH["trend_b"],
                               r_squared=1.0)
        fit = fit_combined(food, markets, trend, switch_candidates=[40])
        payload = json.loads(json.dumps(fit.to_dict()))
        for key in ("k_sd", "k_sp", "couplings", "trend_a", "trend_b",
                    "switch_index", "switch_date", "sse", "r2", "period",
                    "regime"):
            assert key in payload
        assert payload["switch_date"] == "2007-05"

    def test_evaluations_sum_every_switch_candidate(self, monkeypatch):
        reports = []
        real = fitting.minimize

        def counting(residuals, starts, bounds):
            calls = [0]

            def counted(v):
                calls[0] += 1
                return residuals(v)

            report = real(counted, starts, bounds)
            reports.append((report, calls[0]))
            return report

        monkeypatch.setattr(fitting, "minimize", counting)
        food, markets = make_food(60)
        trend = QuadraticTrend(a=TRUTH["trend_a"], b=TRUTH["trend_b"],
                               r_squared=1.0)
        fit = fit_combined(food, markets, trend, switch_candidates=[38, 40, 42])
        assert len(reports) == 3
        assert fit.report.evaluations == sum(n for _, n in reports)
        winner = min((r for r, _ in reports), key=lambda r: r.objective_value)
        assert fit.report.evaluations > winner.evaluations
        assert fit.report.converged == winner.converged
        assert fit.report.parameter_vector == winner.parameter_vector

    @settings(max_examples=8, deadline=None)
    @given(st.integers(20, 50), st.integers(0, 2**32 - 1))
    def test_fitted_path_is_simulate_combined(self, switch, seed):
        food, markets = make_food(60)
        noise = np.random.default_rng(seed).normal(0.0, 0.5, len(food))
        noisy = food.with_values(food.to_array() + noise)
        trend = QuadraticTrend(a=TRUTH["trend_a"], b=TRUTH["trend_b"],
                               r_squared=1.0)
        fit = fit_combined(noisy, markets, trend, switch_candidates=[switch])
        fv = noisy.to_array()
        sim = simulate_combined(fit.params, markets, fv[0], fv[1], len(fv) - 1,
                                start=noisy.start)
        assert fit.path.values == sim.values

    def test_empty_candidates_rejected(self):
        food, markets = make_food(40)
        trend = QuadraticTrend(a=105.0, b=0.01, r_squared=1.0)
        with pytest.raises(ValueError):
            fit_combined(food, markets, trend, switch_candidates=[])
