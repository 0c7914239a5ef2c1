import numpy as np
import pytest

from bubbledyn import DegenerateInputError, FitError, fitting, minimize, r_squared

from conftest import annual


class TestMinimize:
    def test_convex_1d(self):
        report = minimize(lambda v: [v[0] - 3.0],
                          start=(0.0,), bounds=[(-10.0, 10.0)])
        assert report.parameter_vector[0] == pytest.approx(3.0, abs=1e-6)
        assert report.objective_value < 1e-10

    def test_rosenbrock_valley(self):
        def rosenbrock(v):
            x, y = v
            return [1 - x, 10 * (y - x * x)]

        for start in [(-1.5, 2.0), (0.0, 0.0), (2.0, -1.0), (0.5, 2.5), (-2.0, -2.0)]:
            report = minimize(rosenbrock, start, bounds=[(-5.0, 5.0)] * 2)
            assert report.parameter_vector == pytest.approx((1.0, 1.0), abs=1e-4)

    def test_all_starts_infeasible(self, monkeypatch):
        # an infeasible start fails before the solver runs
        monkeypatch.setattr(fitting, "least_squares", None)
        calls = []
        with pytest.raises(FitError):
            minimize(lambda v: calls.append(v) or [np.nan], start=(0.0,),
                     bounds=[(-5.0, 5.0)])
        assert len(calls) == 1

    def test_non_finite_jacobian_ends_only_that_start(self):
        def edge(v):
            # the optimum x = 2 lies past the edge of the finite region
            return [v[0] - 2.0, v[1]] if v[0] <= 1.0 else [np.nan, np.nan]

        with pytest.raises(FitError, match="non-finite Jacobian"):
            minimize(edge, start=(0.0, 1.0), bounds=[(-5.0, 5.0)] * 2)

    @pytest.mark.parametrize("residuals, start, bounds, message", [
        pytest.param(lambda v: [np.nan], (0.0,), [(-5.0, 5.0)],
                     "residuals at the start are not finite", id="start"),
        # finite only at the start, so its first difference quotient is not
        pytest.param(lambda v: [v[0]] if v[0] == 0.5 else [np.nan], (0.5,),
                     [(0.0, 1.0)], "non-finite Jacobian", id="jacobian"),
        # every residual is finite, but their sum of squares is not
        pytest.param(lambda v: np.full(3, 1e200) + v, (0.5,), [(0.0, 1.0)],
                     "sum of squares at the fitted point overflows", id="overflow"),
    ])
    def test_fit_error_names_its_cause(self, residuals, start, bounds, message):
        with np.errstate(all="ignore"), pytest.raises(FitError, match=message):
            minimize(residuals, start, bounds)

    def test_deterministic(self):
        def f(v):
            return [v[0] - 1, (v[1] + 2) ** 2]

        kwargs = dict(start=(3.0, 1.0), bounds=[(-5.0, 5.0)] * 2)
        assert minimize(f, **kwargs) == minimize(f, **kwargs)

    def test_start_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minimize(lambda v: [0.0], start=(0.0, 0.0), bounds=[(-1.0, 1.0)])

    def test_infinite_bounds(self):
        # the solver handles only the finite boxes the models use
        with pytest.raises(ValueError, match="finite"):
            minimize(lambda v: [v[0]], start=(0.0,), bounds=[(-np.inf, 1.0)])

    def test_start_outside_bounds(self):
        with pytest.raises(ValueError, match="outside the bounds"):
            minimize(lambda v: [v[0]], start=(2.0,), bounds=[(-1.0, 1.0)])

    def test_evaluations_count_every_residual_call(self):
        calls = []

        def residuals(v):
            calls.append(tuple(v))
            return [1 - v[0], 10 * (v[1] - v[0] ** 2)]

        report = minimize(residuals, start=(-1.5, 2.0), bounds=[(-5.0, 5.0)] * 2)
        assert report.evaluations == len(calls)
        assert calls[0] == (-1.5, 2.0)

    @pytest.mark.parametrize("success", [True, False])
    def test_converged_is_the_solve_success(self, monkeypatch, success):
        def least_squares(fun, x0, **kwargs):
            return fitting.LeastSquaresResult(x=x0 + 0.5, fun=np.array([1.0]),
                                              success=success)

        monkeypatch.setattr(fitting, "least_squares", least_squares)
        report = minimize(lambda v: [v[0]], start=(0.0,), bounds=[(-1.0, 1.0)])
        assert report.parameter_vector == (0.5,)
        assert report.objective_value == 1.0
        assert report.converged is success


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
