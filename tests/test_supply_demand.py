import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bubbledyn import (DegenerateInputError, DomainError, FitError,
                       SupplyDemandParams, box_cox, equilibrium,
                       fit_supply_demand, fitting, inverse_box_cox,
                       shock_update, simulate_equilibrium_path)
from bubbledyn.supply_demand import _determined_params

from conftest import FIT_SD_GRID, annual


class TestShockUpdate:
    def test_shortage_raises_demand_intercept(self):
        assert shock_update(100.0, 50.0, -5.0) == (105.0, 50.0)

    def test_zero_surplus_no_shock(self):
        assert shock_update(100.0, 50.0, 0.0) == (100.0, 50.0)

    def test_surplus_raises_supply_intercept(self):
        # raising alpha_s lowers the equilibrium price, as a surplus should
        alpha_d, alpha_s = shock_update(100.0, 50.0, 5.0)
        assert (alpha_d, alpha_s) == (100.0, 55.0)
        before = equilibrium(SupplyDemandParams(1.0, 100.0, 1.0, 50.0, 1.0))[0]
        after = equilibrium(SupplyDemandParams(1.0, alpha_d, 1.0, alpha_s, 1.0))[0]
        assert after < before

    def test_sign_law(self):
        base = SupplyDemandParams(1.0, 100.0, 1.0, 50.0, 1.0)
        p_base = equilibrium(base)[0]
        for surplus, expect_up in ((-3.0, True), (3.0, False)):
            ad, as_ = shock_update(base.alpha_d, base.alpha_s, surplus)
            p = equilibrium(SupplyDemandParams(1.0, ad, 1.0, as_, 1.0))[0]
            assert (p > p_base) == expect_up

    def test_intercept_traces_are_cumulative_and_reversible(self):
        rng = np.random.default_rng(11)
        shocks = rng.normal(scale=4.0, size=30)
        ad, as_ = 200.0, 90.0
        deltas = []
        for s in shocks:
            ad2, as2 = shock_update(ad, as_, s)
            deltas.append((ad2 - ad, as2 - as_))
            ad, as_ = ad2, as2
        # intercepts only ever move up, by exactly the shock magnitude
        assert all(dd >= 0 and ds >= 0 for dd, ds in deltas)
        for dd, ds in reversed(deltas):
            ad, as_ = ad - dd, as_ - ds
        assert (ad, as_) == (200.0, 90.0)


class TestEquilibrium:
    def test_symmetric_case(self):
        p, q = equilibrium(SupplyDemandParams(1.0, 10.0, 1.0, 0.0, 1.0))
        assert (p, q) == pytest.approx((5.0, 5.0))

    def test_equal_intercepts_zero_price(self):
        p, _ = equilibrium(SupplyDemandParams(1.0, 7.0, 2.5, 7.0, 0.3))
        assert p == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        p, q = equilibrium(SupplyDemandParams(0.94, 114.0, 1.91, 50.0, 0.5))
        assert p == pytest.approx((114.0 - 50.0) / 2.41)
        assert q == pytest.approx((114.0 * 0.5 + 50.0 * 1.91) / 2.41)

    def test_zero_slopes_rejected(self):
        with pytest.raises(ValueError):
            SupplyDemandParams(1.0, 10.0, 0.0, 5.0, 0.0)

    @pytest.mark.parametrize("field", ["lam", "alpha_d", "beta_d", "alpha_s",
                                       "beta_s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_reject_nonfinite(self, field, bad):
        values = dict(lam=1.0, alpha_d=10.0, beta_d=1.0, alpha_s=5.0, beta_s=1.0)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            SupplyDemandParams(**values)


class TestSimulate:
    @given(st.floats(0.5, 1.2), st.floats(100.0, 400.0), st.floats(0.1, 5.0),
           st.floats(0.0, 200.0), st.floats(0.0, 5.0),
           st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
    def test_bit_identical_to_numpy_reference(self, lam, alpha_d, beta_d,
                                              alpha_s, beta_s, surplus):
        """The elementwise path against the array formulation it replaced."""
        params = SupplyDemandParams(lam, alpha_d, beta_d, alpha_s, beta_s)
        trace = [(alpha_d, alpha_s)]
        for s in surplus[:-1]:
            trace.append(shock_update(*trace[-1], s))
        ad, as_ = np.array(trace).T
        denom = beta_d + beta_s
        try:
            expected = [[inverse_box_cox(v, lam) for v in column] for column in
                        ((ad - as_) / denom, (ad * beta_s + as_ * beta_d) / denom)]
        except DomainError:
            with pytest.raises(DomainError):
                simulate_equilibrium_path(annual(surplus), params)
            return
        path = simulate_equilibrium_path(annual(surplus), params)
        for got, want in zip((path.prices, path.quantities), expected):
            assert np.array_equal(np.array(got.values).view(np.int64),
                                  np.array(want).view(np.int64))
        assert path.intercept_trace == tuple(trace)

    def test_zero_surplus_constant_path(self):
        params = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
        path = simulate_equilibrium_path(annual([0.0] * 8), params)
        assert np.ptp(path.prices.to_array()) == pytest.approx(0.0, abs=1e-12)
        assert np.ptp(path.quantities.to_array()) == pytest.approx(0.0, abs=1e-12)

    def test_negative_spike_steps_price_up_permanently(self):
        params = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
        surplus = annual([0.0, -10.0, 0.0, 0.0, 0.0])
        prices = simulate_equilibrium_path(surplus, params).prices.to_array()
        assert prices[1] == prices[0]
        assert prices[2] > prices[1]
        assert prices[2:] == pytest.approx(np.full(3, prices[2]))

    def test_lambda_one_matches_hand_coded_linear_model(self):
        params = SupplyDemandParams(1.0, 300.0, 1.2, 150.0, 0.8)
        rng = np.random.default_rng(5)
        surplus = annual(rng.normal(scale=5.0, size=12))
        path = simulate_equilibrium_path(surplus, params)

        # independent linear-model oracle: Q = a_d - b_d P crossed with
        # Q = a_s + b_s P, raw price = transformed + 1 at lambda = 1
        ad, as_ = 300.0, 150.0
        expected = []
        for t, s_prev in enumerate([None] + list(surplus.values[:-1])):
            if s_prev is not None:
                if s_prev < 0:
                    ad -= s_prev
                elif s_prev > 0:
                    as_ += s_prev
            expected.append((ad - as_) / 2.0 + 1.0)
        assert path.prices.to_array() == pytest.approx(expected, rel=1e-12)

    def test_intercept_trace_length(self):
        params = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
        path = simulate_equilibrium_path(annual([1.0, -1.0, 2.0]), params)
        assert len(path.intercept_trace) == 3
        assert len(path.prices) == len(path.quantities) == 3


class TestInitializationIdentity:
    def test_first_point_reproduced_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lam = rng.uniform(0.5, 1.2)
            beta_d = rng.uniform(0.2, 4.0)
            p0_raw = rng.uniform(10.0, 200.0)
            q0_raw = rng.uniform(50.0, 500.0)
            beta_s = rng.uniform(0.0, 5.0)
            alpha_d0, alpha_s0 = _determined_params(lam, beta_d, beta_s,
                                                    p0_raw, q0_raw)
            denom = beta_d + beta_s
            p_e = (alpha_d0 - alpha_s0) / denom
            q_e = (alpha_d0 * beta_s + alpha_s0 * beta_d) / denom
            assert p_e == pytest.approx(box_cox(p0_raw, lam), rel=1e-10)
            assert q_e == pytest.approx(box_cox(q0_raw, lam), rel=1e-10)


def sd_problem(seed, noisy):
    """Price, consumption and surplus of 15 years from a random truth, with
    1% relative noise after the first year where ``noisy``."""
    rng = np.random.default_rng(seed)
    truth = SupplyDemandParams(rng.uniform(0.75, 1.05), 300.0,
                               rng.uniform(0.5, 2.5), 150.0,
                               rng.uniform(0.3, 1.5))
    surplus = annual(rng.normal(scale=8.0, size=15), start=(1982, 1))
    path = simulate_equilibrium_path(surplus, truth)
    price, cons = path.prices.to_array(), path.quantities.to_array()
    if noisy:
        price[1:] *= 1.0 + rng.normal(0.0, 0.01, len(price) - 1)
        cons[1:] *= 1.0 + rng.normal(0.0, 0.01, len(cons) - 1)
    return path.prices.with_values(price), path.quantities.with_values(cons), surplus


def handed_to_minimize(problem):
    """The fit of ``problem`` and the (residuals, start, bounds, jacobian) it
    hands ``fitting.minimize``."""
    solves = []
    real = fitting.minimize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "minimize",
                   lambda *args: solves.append(args) or real(*args))
        fit = fit_supply_demand(*problem)
    (solve,) = solves
    return fit, solve


class TestFit:
    def test_recovers_known_parameters_noiseless(self):
        truth = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
        rng = np.random.default_rng(2)
        surplus = annual(rng.normal(scale=8.0, size=20), start=(1982, 1))
        path = simulate_equilibrium_path(surplus, truth)
        fit = fit_supply_demand(path.prices, path.quantities, surplus)
        assert fit.params.lam == pytest.approx(1.0, abs=0.01)
        assert fit.params.beta_d == pytest.approx(1.0, abs=0.05)
        assert fit.r2_price > 0.999
        assert fit.r2_consumption > 0.999

    def test_report_is_json_serializable(self):
        import json

        truth = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
        rng = np.random.default_rng(2)
        surplus = annual(rng.normal(scale=8.0, size=12), start=(1982, 1))
        path = simulate_equilibrium_path(surplus, truth)
        fit = fit_supply_demand(path.prices, path.quantities, surplus)
        payload = json.loads(json.dumps(fit.to_dict()))
        for key in ("lambda", "alpha_d0", "beta_d", "alpha_s0", "beta_s",
                    "r2_price", "r2_consumption"):
            assert key in payload

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_reported_path_is_simulate_equilibrium_path(self, seed, noisy):
        price, cons, surplus = sd_problem(seed, noisy)
        fit = fit_supply_demand(price, cons, surplus)
        price, cons = price.to_array(), cons.to_array()
        again = simulate_equilibrium_path(surplus, fit.params)
        assert fit.path.prices.values == again.prices.values
        assert fit.path.quantities.values == again.quantities.values
        assert fit.path.intercept_trace == again.intercept_trace
        assert fit.residual_price.values == tuple(price - again.prices.to_array())
        assert fit.residual_consumption.values \
            == tuple(cons - again.quantities.to_array())

    def test_start_slopes_keep_its_path_in_the_price_domain(self):
        # a surplus run takes this path's transformed price at (0.9, 1, 0.3)
        # below -1/0.9, where the residuals are not finite
        fit = fit_supply_demand(*sd_problem(2708, False))
        assert fit.report.converged
        assert fit.report.objective_value < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(),
           st.tuples(*[st.floats(0.01, 0.99)] * 3))
    def test_jacobian_matches_central_differences(self, seed, noisy, where):
        _, (residuals, _, bounds, jacobian) = handed_to_minimize(
            sd_problem(seed, noisy))
        lo, hi = np.array(bounds).T
        v = lo + (hi - lo) * np.array(where)
        steps = np.diag(6e-6 * np.maximum(1.0, np.abs(v)))  # about eps^(1/3)
        ups = [residuals(v + h) for h in steps]
        downs = [residuals(v - h) for h in steps]
        assume(np.all(np.isfinite([residuals(v), *ups, *downs])))
        want = np.column_stack([(up - down) / (2 * h.sum())
                                for up, down, h in zip(ups, downs, steps)])
        got = jacobian(v)
        assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want).max(axis=0))
        # the price rows depend on the slopes only through 1 / (beta_d + beta_s)
        n = len(got) // 2
        assert np.array_equal(got[:n, 1], got[:n, 2])

    def test_too_short_series_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_supply_demand(annual([10.0, 11.0, 12.0]),
                              annual([5.0, 6.0, 7.0]),
                              annual([0.0, 1.0, -1.0]))

    def test_non_positive_price_rejected(self):
        with pytest.raises(DomainError, match="must be positive"):
            fit_supply_demand(annual([10.0, 11.0, 0.0, 12.0, 13.0]),
                              annual([5.0, 6.0, 7.0, 8.0, 9.0]),
                              annual([0.0, 1.0, -1.0, 0.5, -0.5]))


def benchmark_problem(rng, noise):
    """Price, consumption and surplus of 20 years drawn as the benchmark's
    fit-sd jobs draw them: the model with its intercepts pinned to the first
    observation, and with noise, 1% relative noise after it."""
    lam = rng.uniform(0.75, 1.05)
    beta_d, beta_s = rng.uniform(0.5, 2.5), rng.uniform(0.3, 1.5)
    p0 = np.expm1(lam * np.log(rng.uniform(150.0, 250.0))) / lam
    q0 = np.expm1(lam * np.log(rng.uniform(550.0, 650.0))) / lam
    alpha_d, alpha_s = q0 + beta_d * p0, q0 - beta_s * p0
    surplus = rng.normal(0.0, 4.0, 20)
    prices, quantities = np.empty(20), np.empty(20)
    for t in range(20):
        if t > 0:
            alpha_d -= min(surplus[t - 1], 0.0)
            alpha_s += max(surplus[t - 1], 0.0)
        prices[t] = (alpha_d - alpha_s) / (beta_d + beta_s)
        quantities[t] = (alpha_d * beta_s + alpha_s * beta_d) / (beta_d + beta_s)
    price = np.exp(np.log1p(lam * prices) / lam)
    consumption = np.exp(np.log1p(lam * quantities) / lam)
    if noise:
        price[1:] *= 1.0 + rng.normal(0.0, 0.01, 19)
        consumption[1:] *= 1.0 + rng.normal(0.0, 0.01, 19)
    return annual(price), annual(consumption), annual(surplus)


@pytest.mark.parametrize("seed", range(6))
def test_one_start_matches_the_old_grid(seed):
    noise = seed % 2 == 1
    fit, (residuals, _, bounds, jacobian) = handed_to_minimize(
        benchmark_problem(np.random.default_rng(seed), noise))
    grid = []
    for start in FIT_SD_GRID:
        try:
            grid.append(fitting.minimize(residuals, start, bounds,
                                         jacobian).objective_value)
        except FitError:  # the grid skipped such starts
            pass
    if noise:
        assert fit.report.objective_value <= min(grid) * (1 + 1e-9)
    else:
        assert fit.report.objective_value <= 1e-15
