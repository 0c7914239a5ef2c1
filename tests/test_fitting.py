import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from bubbledyn import DegenerateInputError, FitError, fitting, minimize, r_squared

from conftest import annual


class TestMinimize:
    def test_convex_1d(self):
        report = minimize(lambda v: [v[0] - 3.0],
                          starts=[(0.0,)], bounds=[(-10.0, 10.0)])
        assert report.parameter_vector[0] == pytest.approx(3.0, abs=1e-6)
        assert report.objective_value < 1e-10

    def test_rosenbrock_valley(self):
        def rosenbrock(v):
            x, y = v
            return [1 - x, 10 * (y - x * x)]

        starts = [(-1.5, 2.0), (0.0, 0.0), (2.0, -1.0), (0.5, 2.5), (-2.0, -2.0)]
        report = minimize(rosenbrock, starts, bounds=[(-5.0, 5.0)] * 2)
        assert report.parameter_vector == pytest.approx((1.0, 1.0), abs=1e-4)
        assert report.restarts_used == 5

    def test_all_starts_infeasible(self):
        with pytest.raises(FitError):
            minimize(lambda v: [np.nan], starts=[(0.0,), (1.0,)],
                     bounds=[(-5.0, 5.0)])

    def test_overflowing_sum_of_squares_ends_the_start(self):
        # every residual is finite, but their sum of squares is not
        with np.errstate(all="ignore"), \
                pytest.raises(FitError, match="finite sum of squares"):
            minimize(lambda v: np.full(3, 1e200) + v, starts=[(0.5,)],
                     bounds=[(0.0, 1.0)])

    def test_non_finite_jacobian_ends_only_that_start(self):
        def edge(v):
            # the optimum x = 2 lies past the edge of the finite region
            return [v[0] - 2.0, v[1]] if v[0] <= 1.0 else [np.nan, np.nan]

        bounds = [(-5.0, 5.0)] * 2
        with pytest.raises(FitError):
            minimize(edge, starts=[(0.0, 1.0)], bounds=bounds)
        report = minimize(lambda v: edge(v) if v[0] < 3.0 else [v[0] - 4.0, v[1]],
                          starts=[(0.0, 1.0), (3.5, 1.0)], bounds=bounds)
        assert report.parameter_vector == pytest.approx((4.0, 0.0), abs=1e-6)

    def test_monotone_across_restarts(self):
        def bumpy(v):
            # squares to sin(3x) + 0.1 x^2 + 2, which is >= 1
            return [np.sqrt(np.sin(3 * v[0]) + 0.1 * v[0] ** 2 + 2.0)]

        starts = [(-4.0,), (-1.0,), (0.5,), (3.0,)]
        report = minimize(bumpy, starts, bounds=[(-6.0, 6.0)])
        for s in starts:
            assert report.objective_value <= bumpy(np.array(s))[0] ** 2 + 1e-12

    def test_deterministic(self):
        def f(v):
            return [v[0] - 1, (v[1] + 2) ** 2]

        kwargs = dict(starts=[(0.0, 0.0), (3.0, 1.0)], bounds=[(-5.0, 5.0)] * 2)
        assert minimize(f, **kwargs) == minimize(f, **kwargs)

    def test_start_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minimize(lambda v: [0.0], starts=[(0.0, 0.0)], bounds=[(-1.0, 1.0)])

    def test_start_outside_bounds(self):
        with pytest.raises(ValueError):
            minimize(lambda v: [v[0]], starts=[(2.0,)], bounds=[(-1.0, 1.0)])

    def test_evaluations_count_every_residual_call(self):
        calls = []

        def residuals(v):
            calls.append(tuple(v))
            if v[0] > 4.0:  # makes the last start infeasible
                return [np.nan, np.nan]
            return [1 - v[0], 10 * (v[1] - v[0] ** 2)]

        report = minimize(residuals, starts=[(-1.5, 2.0), (0.0, 0.0), (4.5, 0.0)],
                          bounds=[(-5.0, 5.0)] * 2)
        assert report.evaluations == len(calls)
        assert (4.5, 0.0) in calls

    @pytest.mark.parametrize("outcomes", [[(2.0, True), (1.0, False)],
                                          [(2.0, False), (1.0, True)]])
    def test_converged_follows_winning_start(self, monkeypatch, outcomes):
        results = iter(outcomes)

        def least_squares(fun, x0, **kwargs):
            residual, success = next(results)
            return OptimizeResult(x=x0, fun=np.array([residual]), success=success)

        monkeypatch.setattr(fitting, "least_squares", least_squares)
        report = minimize(lambda v: [v[0]], starts=[(0.0,), (0.5,)],
                          bounds=[(-1.0, 1.0)])
        assert report.parameter_vector == (0.5,)
        assert report.objective_value == 1.0
        assert report.converged is outcomes[1][1]


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

    def test_common_affine_invariance(self):
        obs = annual([1.0, 2.0, 5.0, 3.0])
        modeled = obs.with_values([1.2, 1.8, 4.9, 3.4])
        r = r_squared(obs, modeled)
        scale = lambda s: s.with_values([7.0 * v - 4.0 for v in s.values])
        assert r_squared(scale(obs), scale(modeled)) == pytest.approx(r, abs=1e-12)
