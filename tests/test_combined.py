import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bubbledyn import (AlignmentError, CombinedParams, DegenerateInputError,
                       FitError, Frequency, QuadraticTrend, Regime, Window,
                       combined, fit_combined, fitting, quadratic_fit,
                       simulate_combined)

from conftest import annual, monthly


def make_markets(n_months, start=(2004, 1)):
    t = np.arange(n_months, dtype=float)
    equity = 1200.0 + 200.0 * np.sin(2 * math.pi * t / 40.0) - 1.5 * t
    bonds = 0.22 + 0.02 * np.sin(2 * math.pi * t / 30.0 + 1.0)
    return [monthly(equity, start=start, label="equity index"),
            monthly(bonds, start=start, label="inverse bond yield")]


TRUTH = dict(k_sd=0.098, k_sp=1.29, couplings=(-0.095, -67.9),
             trend_a=105.0, trend_b=0.01, switch_index=40)

#: A damped generator beside TRUTH, whose path (105 to 180) stays in the
#: price domain, unlike TRUTH's (down to -1,556).
BOUNDED = dict(k_sd=0.3, k_sp=0.6, couplings=(-0.05, -20.0),
               trend_a=105.0, trend_b=0.01, switch_index=40)


def make_food(n_months=88, truth=TRUTH):
    markets = make_markets(n_months)
    params = CombinedParams(**truth)
    return simulate_combined(params, markets, 105.0, 105.5, n_months - 1), markets


class TestKcOfT:
    def test_static_trend_keeps_equilibrium_at_a(self):
        params = CombinedParams(k_sd=0.3, k_sp=0.0, couplings=(),
                                trend_a=80.0, trend_b=0.0, switch_index=1)
        path = simulate_combined(params, [], 80.0, 80.0, 12).to_array()
        assert path == pytest.approx(np.full(13, 80.0))

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

    def test_steps_below_two_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            simulate_combined(CombinedParams(0.2, 0.0, (), 100.0, 0.0, 5),
                              [], 100.0, 100.0, 1)


class TestBackgroundTrend:
    def test_recovers_quadratic_through_bubble(self):
        t = np.arange(80, dtype=float)
        values = 100.0 + 0.012 * t * t
        values[40:55] += 60.0  # bubble
        trend = quadratic_fit(monthly(values), [Window(40, 55)])
        assert trend.a == pytest.approx(100.0, abs=1e-9)
        assert trend.b == pytest.approx(0.012, abs=1e-12)
        assert trend.r_squared == pytest.approx(1.0)


#: Months of the model's property tests, and their switch months: the first
#: update, the middle one and the last.
N_MONTHS = 48
SWITCHES = (1, N_MONTHS // 2, N_MONTHS - 2)


def per_step_path(v, terms, p0, p1):
    """The model's prices P(2)..P(steps) at v = (k_sd, k_sp, k_1..k_N, a, b),
    every update taking its own gated coefficients
    (1 - k_sd + gate k_sp, -gate k_sp)."""
    t2, lag, gate, gated_diffs, _ = terms
    k_sd, k_sp, a, b = v[0], v[1], v[-2], v[-1]
    const = (a + b * t2) * k_sd + b * lag + v[2:-2] @ gated_diffs
    prev, cur, path = p0, p1, []
    for c, a_t, b_t in zip(const.tolist(), ((1.0 - k_sd) + gate * k_sp).tolist(),
                           (-gate * k_sp).tolist()):
        prev, cur = cur, c + a_t * cur + b_t * prev
        path.append(cur)
    return path


def rounding(v, terms, scale):
    """The rounding of a path of magnitude ``scale`` at v: up to one ulp per
    update, each carried forward as the model carries a unit impulse from
    the start or from the switch."""
    k_sd, k_sp, split, updates = v[0], v[1], terms[-1], N_MONTHS - 2
    impulses = (combined._segments([0.0] * updates, k_sd, k_sp, split, 0.0, 1.0)
                + combined._segments([0.0] * (updates - split), k_sd, k_sp,
                                     0, 0.0, 1.0))
    return updates * np.finfo(float).eps * max(1.0, *map(abs, impulses)) * scale


@st.composite
def model_points(draw):
    """(v, terms, p0, p1) of a random model over 0-2 markets, switched on at
    one of SWITCHES."""
    n_markets = draw(st.integers(0, 2))
    v = np.array([draw(st.floats(0.01, 1.4)), draw(st.floats(0.0, 2.5)),
                  *(draw(st.floats(-100.0, 10.0)) for _ in range(n_markets)),
                  draw(st.floats(50.0, 150.0)), draw(st.floats(-0.05, 0.05))])
    arrays = [m.to_array() for m in make_markets(N_MONTHS)[:n_markets]]
    terms = combined._model_terms(arrays, N_MONTHS - 1,
                                  draw(st.sampled_from(SWITCHES)))
    return v, terms, draw(st.floats(50.0, 150.0)), draw(st.floats(50.0, 150.0))


class TestExactJacobian:
    @settings(max_examples=60, deadline=None)
    @given(model_points())
    def test_two_segment_path_is_the_per_step_recurrence(self, point):
        v, terms, p0, p1 = point
        # terms[-1], the updates before the switch, is the switch month - 1
        params = CombinedParams(v[0], v[1], tuple(v[2:-2]), v[-2], v[-1],
                                terms[-1] + 1)
        path = simulate_combined(params, make_markets(N_MONTHS)[:len(v) - 4],
                                 p0, p1, N_MONTHS - 1)
        assert list(path.values) == [p0, p1, *per_step_path(*point)]

    @settings(max_examples=60, deadline=None)
    @given(model_points())
    def test_matches_central_differences(self, point):
        v, terms, p0, p1 = point
        prices = np.array([p0, p1, *per_step_path(v, terms, p0, p1)])
        got = combined._sensitivities(v[0], v[1], v[-2], v[-1], terms, prices)
        assert got.shape == (N_MONTHS - 2, 2)
        noise = rounding(v, terms, np.max(np.abs(prices)))
        for i in range(2):
            h = 1e-6 * max(1.0, abs(v[i]))
            up, down = v.copy(), v.copy()
            up[i] += h
            down[i] -= h
            want = (np.array(per_step_path(up, terms, p0, p1))
                    - np.array(per_step_path(down, terms, p0, p1))) / (2 * h)
            # relative to the column, or to that rounding where the column
            # is 0 (k_sd and k_sp on a flat path)
            gap = np.max(np.abs(got[:, i] - want))
            assert gap <= 1e-6 * np.max(np.abs(want)) + noise / h, i

    @settings(max_examples=60, deadline=None)
    @given(model_points(), st.booleans())
    def test_path_is_affine_in_the_basis(self, point, joint):
        """h + Phi L, with L the trend and couplings of v, is the path."""
        v, terms, p0, p1 = point
        trend = None if joint else (v[-2], v[-1])
        h, phi = combined._basis(v[0], v[1], terms, trend, p0, p1)
        linear = np.concatenate((v[-2:], v[2:-2])) if joint else v[2:-2]
        assert phi.shape == (N_MONTHS - 2, len(linear))
        want = np.array(per_step_path(v, terms, p0, p1))
        got = h + phi @ linear
        # the path and each term of the sum round on their own
        scale = np.max(np.abs(np.column_stack((want, h, phi * linear))))
        assert (np.max(np.abs(got - want))
                <= (2 + len(linear)) * rounding(v, terms, scale))

    def test_kaufman_jacobian_gives_the_exact_gradient(self, monkeypatch):
        """J'r is the central-difference gradient of |r|**2 / 2 over
        (k_sd, k_sp): the term Kaufman's Jacobian drops is orthogonal to r."""
        problems = []
        real = fitting.minimize

        def spy(residuals, start, bounds, jacobian):
            start = np.asarray(start)
            # before any residual call, after one elsewhere, and after one
            # at the point itself: the Jacobian reuses only that point's path
            first = jacobian(start)
            residuals(start * 1.01)
            assert np.array_equal(jacobian(start), first)
            residuals(start)
            assert np.array_equal(jacobian(start), first)
            problems.append((residuals, jacobian))
            return real(residuals, start, bounds, jacobian)

        monkeypatch.setattr(fitting, "minimize", spy)
        food, markets = make_food(60, BOUNDED)
        noisy = food.with_values(food.to_array() + np.random.default_rng(3)
                                 .normal(0.0, 1.0, len(food)))
        trend = QuadraticTrend(a=BOUNDED["trend_a"], b=BOUNDED["trend_b"],
                               r_squared=1.0)
        fit_combined(noisy, markets, switch_candidates=[40])
        fit_combined(noisy, markets, trend, switch_candidates=[40])
        fit_combined(food, markets, switch_candidates=[40])
        assert len(problems) == 3

        def half_square(residuals, theta):
            r = residuals(np.array(theta))
            return 0.5 * r @ r

        for residuals, jacobian in problems[:2]:
            for theta in ((0.3, 0.6), (0.2, 1.3), (0.7, 0.9)):
                # residuals are data minus model: one row per month from the
                # third, and one column per fitted (k_sd, k_sp)
                jac = jacobian(np.array(theta))
                assert jac.shape == (58, 2)
                gradient = jac.T @ residuals(np.array(theta))
                for i, h in enumerate((1e-6, 1e-6)):
                    up, down = list(theta), list(theta)
                    up[i] += h
                    down[i] -= h
                    want = (half_square(residuals, up)
                            - half_square(residuals, down)) / (2 * h)
                    assert gradient[i] == pytest.approx(want, rel=1e-5,
                                                        abs=1e-12)
        # where the residuals vanish, so does the dropped term: at the
        # noiseless problem's truth, J is the projected residual's Jacobian
        residuals, jacobian = problems[2]
        truth = np.array([BOUNDED["k_sd"], BOUNDED["k_sp"]])
        jac = jacobian(truth)
        for i in range(2):
            step = np.zeros(2)
            step[i] = 1e-6
            want = (residuals(truth + step) - residuals(truth - step)) / 2e-6
            assert np.max(np.abs(jac[:, i] - want)) <= 1e-6 * np.max(np.abs(want))


class TestProfile:
    """One switch month's variable-projection problem, used from outside
    :func:`fit_combined`."""

    @pytest.mark.parametrize("joint", [True, False])
    def test_one_basis_per_evaluation(self, monkeypatch, joint):
        """The winner's linear parameters come from the solve's cache, so
        the basis is built once per residual call the solves count."""
        calls = []
        real = combined._basis

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(combined, "_basis", spy)
        food, markets = make_food()
        trend = (None if joint else
                 QuadraticTrend(a=TRUTH["trend_a"], b=TRUTH["trend_b"],
                                r_squared=1.0))
        fit = fit_combined(food, markets, trend, switch_candidates=range(36, 48))
        assert len(calls) == fit.report.evaluations

    def test_linear_parameters_at_the_truth(self):
        food, markets = make_food(88, BOUNDED)
        terms = combined._model_terms([m.to_array() for m in markets], 87, 40)
        truth = (BOUNDED["k_sd"], BOUNDED["k_sp"])
        trend = (BOUNDED["trend_a"], BOUNDED["trend_b"])
        for given, want in ((None, trend + BOUNDED["couplings"]),
                            (trend, BOUNDED["couplings"])):
            month = combined._Profile(food.to_array(), terms, given)
            assert month.solve(truth).lin == pytest.approx(want, rel=1e-8)
            assert month.solve(np.array(truth)) is month

    def test_non_finite_basis_gives_nan(self):
        food = 105.0 + 0.01 * np.arange(88.0) ** 2
        market = np.array([1.7e308 * (-1) ** t for t in range(88)])
        theta = np.array([0.3, 0.6])
        with np.errstate(all="ignore"):
            month = combined._Profile(
                food, combined._model_terms([market], 87, 40), None)
            assert np.isnan(month.residuals(theta)).all()
            jac = month.jacobian(theta)
        assert jac.shape == (86, 2) and np.isnan(jac).all()
        assert month.lin is None and month.path is None


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

    def test_joint_fit_recovers_trend_and_month(self):
        food, markets = make_food()
        fit = fit_combined(food, markets, switch_candidates=[38, 40, 42])
        assert fit.params.switch_index == 40
        for name in ("k_sd", "k_sp", "trend_a", "trend_b"):
            assert getattr(fit.params, name) == pytest.approx(TRUTH[name],
                                                              rel=1e-8)
        assert fit.to_dict()["trend_mode"] == "joint"
        assert "trend_box" not in fit.to_dict()

    def test_zero_food_is_degenerate(self):
        # r2 is undefined on a constant series
        _, markets = make_food(60)
        with pytest.raises(DegenerateInputError, match="constant"):
            fit_combined(monthly(np.zeros(60)), markets, switch_candidates=[40])

    @pytest.mark.parametrize("level", [0.0, 100.0])
    def test_constant_food_runs_no_solve(self, monkeypatch, level):
        solves = []
        monkeypatch.setattr(fitting, "minimize", lambda *args: solves.append(args))
        with pytest.raises(DegenerateInputError, match="constant observed series"):
            fit_combined(monthly([level] * 88), [],
                         switch_candidates=list(range(36, 48)))
        assert solves == []

    @pytest.mark.parametrize("case, joint, message", [
        ("food-1e308", True, "the solve met a non-finite Jacobian"),
        ("food-1e308", False, "the sum of squares at the fitted point overflows"),
        ("market-1.7e308", True, "the residuals at the start are not finite"),
        ("market-1.7e308", False, "the residuals at the start are not finite"),
    ])
    def test_fit_error_names_its_cause(self, case, joint, message):
        # 105 + 0.01 t**2 over 88 months, the switch searched over 36-47
        food = 105.0 + 0.01 * np.arange(88.0) ** 2
        markets = []
        if case == "food-1e308":
            food[50] = 1e308
        else:
            markets = [monthly([1.7e308 * (-1) ** t for t in range(88)])]
        food = monthly(food)
        trend = (None if joint else
                 quadratic_fit(food, [Window(36, 60), Window(77, 88)]))
        with np.errstate(all="ignore"), pytest.raises(FitError, match=message):
            fit_combined(food, markets, trend, switch_candidates=list(range(36, 48)))

    @settings(max_examples=10, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    # residuals not scaled by max|food| stop on the solver's absolute
    # gradient test here, at another month
    @example(1e-6, 1.0, 1.0)
    def test_fit_is_equivariant_in_units(self, c, d_equity, d_bonds):
        """Food in other units scales a and b with it, a market in other
        units scales its coupling inversely, and k_sd, k_sp and the switch
        month stay as they are."""
        food, markets = make_food(88, BOUNDED)
        noisy = food.to_array() + np.random.default_rng(1).normal(0.0, 1.0, 88)
        months = range(36, 48)
        base = fit_combined(food.with_values(noisy), markets,
                            switch_candidates=months).params
        scaled = fit_combined(
            food.with_values(c * noisy),
            [m.with_values(d * m.to_array())
             for m, d in zip(markets, (d_equity, d_bonds))],
            switch_candidates=months).params
        assert scaled.switch_index == base.switch_index
        for name, factor in (("k_sd", 1.0), ("k_sp", 1.0), ("trend_a", c),
                             ("trend_b", c)):
            assert getattr(scaled, name) == pytest.approx(
                factor * getattr(base, name), rel=1e-8), name
        for got, want, d in zip(scaled.couplings, base.couplings,
                                (d_equity, d_bonds)):
            assert got == pytest.approx(want * c / d, rel=1e-8)

    def test_every_month_converges_on_a_noisy_damped_path(self, monkeypatch):
        """Months 2-85 of the 88-month bounded generator at noise sd 1:
        each month's solve converges, and the fit keeps its month, 39."""
        converged = []
        real = fitting.minimize

        def spy(*args):
            report = real(*args)
            converged.append(report.converged)
            return report

        monkeypatch.setattr(fitting, "minimize", spy)
        food, markets = make_food(88, BOUNDED)
        noisy = food.with_values(food.to_array()
                                 + np.random.default_rng(1).normal(0.0, 1.0, 88))
        fit = fit_combined(noisy, markets, switch_candidates=range(2, 86))
        assert converged == [True] * 84
        assert fit.params.switch_index == 39
        assert fit.report.converged

    def test_fallback_start_recovers_truth(self, monkeypatch):
        # the start used where the one-step regression gives no seed
        monkeypatch.setattr(combined, "_linear_seed", lambda *args: None)
        food, markets = make_food(60)
        trend = QuadraticTrend(a=TRUTH["trend_a"], b=TRUTH["trend_b"],
                               r_squared=1.0)
        for given in (trend, None):
            fit = fit_combined(food, markets, given, switch_candidates=[40])
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
        terms = combined._model_terms(arrays, 29, 10)
        arrays[0][20] = np.inf
        spoiled_terms = combined._model_terms(arrays, 29, 10)
        for given in ((105.0, 0.01), None):
            assert combined._linear_seed(np.append(fv[:-1], np.inf), terms,
                                         given) is None
            assert combined._linear_seed(fv, spoiled_terms, given) is None

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

        def counting(residuals, start, bounds, jacobian):
            calls = [0]

            def counted(v):
                calls[0] += 1
                return residuals(v)

            report = real(counted, start, bounds, jacobian)
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
        assert fit.report.objective_value == winner.objective_value

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

    def test_short_food_rejected(self):
        with pytest.raises(DegenerateInputError, match="too short"):
            fit_combined(monthly([105.0, 105.5, 106.0]), [], switch_candidates=[1])

    def test_food_too_short_to_identify_the_fit_rejected(self):
        """Five months leave 3 residuals for k_sd, k_sp and the trend's a
        and b: a fit that would match them exactly, identifying nothing."""
        food = monthly([105.0, 105.5, 106.2, 105.9, 107.1], start=(2007, 1))
        with pytest.raises(DegenerateInputError, match="too short"):
            fit_combined(food, [], switch_candidates=[1, 2, 3])

    @pytest.mark.parametrize("switch", [0, 87, 200])
    def test_switch_without_a_gated_update_rejected(self, monkeypatch, switch):
        """Months below 1, and on 88 months those from 87 on, where no
        update is gated, so k_sp and the couplings would never act; a valid
        month before the bad one is not solved either."""
        solves = []
        monkeypatch.setattr(fitting, "minimize", lambda *args: solves.append(args))
        food, markets = make_food(88, BOUNDED)
        with pytest.raises(ValueError, match="switch candidates"):
            fit_combined(food, markets, switch_candidates=[40, switch])
        assert solves == []

    def test_empty_candidates_rejected(self):
        food, markets = make_food(40)
        trend = QuadraticTrend(a=105.0, b=0.01, r_squared=1.0)
        with pytest.raises(ValueError):
            fit_combined(food, markets, trend, switch_candidates=[])
