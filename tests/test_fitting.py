import numpy as np
import pytest

from bubbledyn import (DegenerateInputError, FitError, SupplyDemandParams,
                       fit_combined, fit_supply_demand, fitting, minimize,
                       r_squared, simulate_equilibrium_path)

from conftest import annual
from test_combined import BOUNDED, make_food


def identity(v):
    return np.eye(len(v))


def rosenbrock(v):
    return [1 - v[0], 10 * (v[1] - v[0] ** 2)]


def rosenbrock_jacobian(v):
    return np.array([[-1.0, 0.0], [-20.0 * v[0], 10.0]])


def stiff_valley(v):
    # a valley too narrow to follow in 100 evaluations per variable
    return np.array([1 - v[0], 1e3 * (v[1] - v[0] ** 2)])


def stiff_valley_jacobian(v):
    return np.array([[-1.0, 0.0], [-2e3 * v[0], 1e3]])


class TestMinimize:
    def test_convex_1d(self):
        report = minimize(lambda v: [v[0] - 3.0],
                          start=(0.0,), bounds=[(-10.0, 10.0)], jacobian=identity)
        assert report.parameter_vector[0] == pytest.approx(3.0, abs=1e-6)
        assert report.objective_value < 1e-10

    def test_rosenbrock_valley(self):
        for start in [(-1.5, 2.0), (0.0, 0.0), (2.0, -1.0), (0.5, 2.5), (-2.0, -2.0)]:
            report = minimize(rosenbrock, start, [(-5.0, 5.0)] * 2,
                              rosenbrock_jacobian)
            assert report.parameter_vector == pytest.approx((1.0, 1.0), abs=1e-4)

    def test_all_starts_infeasible(self):
        # an infeasible start fails before any step or Jacobian
        calls, jacobians = [], []
        with pytest.raises(FitError):
            minimize(lambda v: calls.append(v) or [np.nan], start=(0.0,),
                     bounds=[(-5.0, 5.0)],
                     jacobian=lambda v: jacobians.append(v) or identity(v))
        assert len(calls) == 1
        assert jacobians == []

    def test_non_finite_jacobian_ends_only_that_start(self):
        def kinked(v):
            # differentiable only for x <= 1, short of the optimum x = 2
            return np.eye(2) if v[0] <= 1.0 else np.full((2, 2), np.nan)

        with pytest.raises(FitError, match="non-finite Jacobian"):
            minimize(lambda v: [v[0] - 2.0, v[1]], (0.0, 1.0), [(-5.0, 5.0)] * 2,
                     kinked)

    @pytest.mark.parametrize("residuals, jacobian, start, bounds, message", [
        pytest.param(lambda v: [np.nan], identity, (0.0,), [(-5.0, 5.0)],
                     "residuals at the start are not finite", id="start"),
        pytest.param(lambda v: [v[0]], lambda v: np.array([[np.nan]]), (0.5,),
                     [(0.0, 1.0)], "non-finite Jacobian", id="jacobian"),
        # every residual is finite, but their sum of squares is not
        pytest.param(lambda v: np.full(3, 1e200) + v, lambda v: np.ones((3, 1)),
                     (0.5,), [(0.0, 1.0)],
                     "sum of squares at the fitted point overflows", id="overflow"),
    ])
    def test_fit_error_names_its_cause(self, residuals, jacobian, start, bounds,
                                       message):
        with np.errstate(all="ignore"), pytest.raises(FitError, match=message):
            minimize(residuals, start, bounds, jacobian)

    def test_deterministic(self):
        def f(v):
            return [v[0] - 1, (v[1] + 2) ** 2]

        def jacobian(v):
            return np.array([[1.0, 0.0], [0.0, 2 * (v[1] + 2)]])

        kwargs = dict(start=(3.0, 1.0), bounds=[(-5.0, 5.0)] * 2, jacobian=jacobian)
        assert minimize(f, **kwargs) == minimize(f, **kwargs)

    def test_start_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minimize(lambda v: [0.0], start=(0.0, 0.0), bounds=[(-1.0, 1.0)],
                     jacobian=lambda v: np.zeros((1, 2)))

    def test_infinite_bounds(self):
        # the solver handles only the finite boxes the models use
        with pytest.raises(ValueError, match="finite"):
            minimize(lambda v: [v[0]], start=(0.0,), bounds=[(-np.inf, 1.0)],
                     jacobian=identity)

    def test_start_outside_bounds(self):
        with pytest.raises(ValueError, match="outside the bounds"):
            minimize(lambda v: [v[0]], start=(2.0,), bounds=[(-1.0, 1.0)],
                     jacobian=identity)

    def test_evaluations_count_every_residual_call(self):
        calls = []

        def residuals(v):
            calls.append(tuple(v))
            return rosenbrock(v)

        report = minimize(residuals, (-1.5, 2.0), [(-5.0, 5.0)] * 2,
                          rosenbrock_jacobian)
        assert report.evaluations == len(calls)
        assert calls[0] == (-1.5, 2.0)

    def test_stops_unconverged_at_the_evaluation_cap(self):
        report = minimize(stiff_valley, (-1.5, 2.0), [(-5.0, 5.0), (-5.0, 25.0)],
                          stiff_valley_jacobian)
        assert report.converged is False
        assert report.evaluations == 200


def logged_solves(fit):
    """(start, report, calls) of each ``fitting.minimize`` call that
    ``fit()`` makes, ``calls`` listing ("f", x) for each residual call and
    ("J", x) for each Jacobian call in order."""
    solves = []
    real = fitting.minimize

    def spy(residuals, start, bounds, jacobian):
        calls = []
        report = real(lambda v: calls.append(("f", v.copy())) or residuals(v),
                      start, bounds,
                      lambda v: calls.append(("J", v.copy())) or jacobian(v))
        solves.append((np.asarray(start, dtype=float), report, calls))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "minimize", spy)
        fit()
    return solves


def supply_demand_fit():
    rng = np.random.default_rng(5)
    surplus = annual(rng.normal(scale=8.0, size=12), start=(1982, 1))
    path = simulate_equilibrium_path(
        surplus, SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0))
    price = path.prices.with_values(
        path.prices.to_array() * np.exp(rng.normal(scale=0.02, size=12)))
    return fit_supply_demand(price, path.quantities, surplus)


def product_penalty(v):
    # the optimum leaves a residual, so the solve stops on a tolerance
    return np.array([v[0] - 3.0, v[1] + 1.0, 0.5 * v[0] * v[1]])


def product_penalty_jacobian(v):
    return np.array([[1.0, 0.0], [0.0, 1.0], [0.5 * v[1], 0.5 * v[0]]])


@pytest.mark.parametrize("fit", [
    pytest.param(lambda: fitting.minimize(product_penalty, (0.0, 1.0),
                                          [(-5.0, 5.0)] * 2,
                                          product_penalty_jacobian),
                 id="toy"),
    pytest.param(supply_demand_fit, id="fit-sd"),
    # three months off the generator's 40, so no seed is already exact
    pytest.param(lambda: fit_combined(*make_food(88, BOUNDED),
                                      switch_candidates=[30, 36, 45]),
                 id="fit-combined"),
])
def test_one_residual_call_per_point(fit):
    """The start's residuals are evaluated once, the Jacobian only at the
    point of the residual call before it, and not at the point where a
    solve stops on its cost or step tolerance after an accepted step, as
    each solve here does; ``evaluations`` counts the residual calls."""
    solves = logged_solves(fit)
    assert solves
    for start, report, calls in solves:
        points = [x for kind, x in calls if kind == "f"]
        assert calls[0][0] == "f" and np.array_equal(points[0], start)
        assert sum(np.array_equal(x, start) for x in points) == 1
        for (before, at), (kind, x) in zip(calls, calls[1:]):
            assert kind == "f" or (before == "f" and np.array_equal(at, x))
        end = np.array(report.parameter_vector)
        assert calls[-1][0] == "f" and np.array_equal(calls[-1][1], end)
        assert not any(kind == "J" and np.array_equal(x, end)
                       for kind, x in calls)
        assert report.evaluations == len(points)


class TestRSquared:
    def test_perfect_fit(self):
        s = annual([1.0, 2.0, 3.0])
        assert r_squared(s, s) == pytest.approx(1.0)

    def test_mean_model_is_zero(self):
        obs = annual([1.0, 2.0, 3.0])
        modeled = obs.with_values([2.0, 2.0, 2.0])
        assert r_squared(obs, modeled) == pytest.approx(0.0, abs=1e-14)

    def test_hand_arithmetic(self):
        obs = annual([1.0, 2.0, 3.0])
        modeled = obs.with_values([1.0, 2.0, 4.0])
        assert r_squared(obs, modeled) == pytest.approx(0.5)

    def test_constant_observed_degenerate(self):
        obs = annual([2.0, 2.0, 2.0])
        with pytest.raises(DegenerateInputError):
            r_squared(obs, obs.with_values([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("level", [0.1, 1 / 3, 0.7])
    def test_constant_observed_with_inexact_mean(self, level):
        # the mean of 88 such values is not the value, so sst is not 0
        obs = annual([level] * 88)
        with pytest.raises(DegenerateInputError, match="constant"):
            r_squared(obs, obs.with_values([0.2] * 88))

    def test_common_affine_invariance(self):
        obs = annual([1.0, 2.0, 5.0, 3.0])
        modeled = obs.with_values([1.2, 1.8, 4.9, 3.4])
        r = r_squared(obs, modeled)
        scale = lambda s: s.with_values([7.0 * v - 4.0 for v in s.values])
        assert r_squared(scale(obs), scale(modeled)) == pytest.approx(r, abs=1e-12)
