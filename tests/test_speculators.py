import math
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bubbledyn import (DegenerateInputError, Regime, SpeculatorParams, classify,
                       closed_form_first_order, closed_form_second_order,
                       oscillation_theta, phase_grid, simulate_first_order,
                       simulate_second_order)
from bubbledyn.speculators import DELTA_EPS, KSP_TOL, iterate

import regime_sampling


def relative_gap(sim: np.ndarray, cf: np.ndarray) -> float:
    """Largest pointwise gap, scaled by the running envelope of the
    iterated path (the natural scale for oscillatory divergence)."""
    envelope = np.maximum.accumulate(np.abs(sim))
    scale = np.maximum(envelope, 1.0)
    return float(np.max(np.abs(sim - cf) / scale))


@pytest.mark.parametrize("name", ["k_sd", "k_sp"])
def test_params_reject_nan(name):
    with pytest.raises(ValueError, match=name):
        SpeculatorParams(**{"k_sd": 0.5, "k_sp": 0.5, "k_c": 1.0, name: math.nan})


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda p: simulate_first_order(p, 1.0, 0), ValueError,
                 "steps must be >= 1", id="first-order-steps"),
    pytest.param(lambda p: simulate_second_order(p, 1.0, 1.0, 1), ValueError,
                 "steps must be >= 2", id="second-order-steps"),
    pytest.param(lambda p: closed_form_first_order(p, 1.0, -1), ValueError,
                 "t must be >= 0", id="first-order-t"),
    pytest.param(lambda p: closed_form_second_order(p, 1.0, -1), ValueError,
                 "t must be >= 0", id="second-order-t"),
    # real roots: (1 + k_sp - k_sd)**2 = 0.2601 > 4 k_sp = 0.04
    pytest.param(lambda p: oscillation_theta(0.5, 0.01), DegenerateInputError,
                 "theta undefined", id="theta-real-roots"),
])
def test_argument_out_of_range(call, error, message):
    with pytest.raises(error, match=message):
        call(SpeculatorParams(0.5, 0.2, 1.0))


class TestFirstOrder:
    def test_fixed_point(self):
        params = SpeculatorParams(0.4, 0.0, 20.0)
        series = simulate_first_order(params, params.equilibrium_price, 10)
        assert series.to_array() == pytest.approx(
            np.full(11, params.equilibrium_price))

    def test_exponential_decay_to_equilibrium(self):
        params = SpeculatorParams(0.1, 0.0, 5.0)
        series = simulate_first_order(params, 55.0, 50).to_array()
        assert params.equilibrium_price == pytest.approx(50.0)
        deviations = series - 50.0
        assert deviations[0] == pytest.approx(5.0)
        ratios = deviations[1:] / deviations[:-1]
        assert ratios == pytest.approx(np.full(50, 0.9), rel=1e-12)

    def test_alternating_divergence(self):
        params = SpeculatorParams(2.5, 0.0, 5.0)
        series = simulate_first_order(params, 3.0, 3).to_array()
        # iterate P(t+1) = 5 - 1.5 P(t) by hand
        assert series == pytest.approx([3.0, 0.5, 4.25, -1.375])

    def test_closed_form_t0_is_initial_price(self):
        params = SpeculatorParams(0.7, 0.0, 7.0)
        assert closed_form_first_order(params, 55.0, 0) == pytest.approx(55.0)

    def test_closed_form_ksd_one_jumps_to_equilibrium(self):
        params = SpeculatorParams(1.0, 0.0, 42.0)
        for t in (1, 2, 10):
            assert closed_form_first_order(params, 99.0, t) == pytest.approx(42.0)

    def test_closed_form_matches_iteration(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k_sd = float(rng.uniform(0.05, 1.95))
            params = SpeculatorParams(k_sd, 0.0, rng.uniform(1.0, 10.0))
            p0 = params.equilibrium_price + rng.uniform(-5.0, 5.0)
            sim = simulate_first_order(params, p0, 200).to_array()
            cf = np.array([closed_form_first_order(params, p0, t)
                           for t in range(201)])
            assert relative_gap(sim, cf) < 1e-9


class TestSecondOrder:
    def test_fixed_point(self):
        params = SpeculatorParams(0.5, 1.2, 25.0)
        p_e = params.equilibrium_price
        series = simulate_second_order(params, p_e, p_e, 40).to_array()
        assert series == pytest.approx(np.full(41, p_e))

    def test_ksp_zero_reduces_to_first_order(self):
        params = SpeculatorParams(0.3, 0.0, 6.0)
        second = simulate_second_order(params, 99.0, 55.0, 20).to_array()
        first = simulate_first_order(params, 55.0, 19).to_array()
        assert second[1:] == pytest.approx(first, rel=1e-14)

    def test_paper_point_growing_envelope_and_period(self):
        params = SpeculatorParams(0.098, 1.29, 0.098 * 100.0)
        p_e = params.equilibrium_price
        series = simulate_second_order(params, p_e, p_e + 1.0, 120).to_array()
        dev = series - p_e
        # growing envelope
        assert np.max(np.abs(dev[60:])) > np.max(np.abs(dev[:60]))
        # period from the theta formula
        period = 2.0 * math.pi / oscillation_theta(0.098, 1.29)
        assert period == pytest.approx(23.6, abs=0.1)

    def test_closed_form_t1_in_every_case(self):
        for params in (SpeculatorParams(0.3, 0.04, 3.0),     # delta > 0
                       SpeculatorParams(0.25, 2.25, 2.0),    # delta = 0
                       SpeculatorParams(0.5, 1.0, 5.0)):     # delta < 0
            p = closed_form_second_order(params, 0.7, 1)
            assert p == pytest.approx(params.equilibrium_price + 0.7)

    def test_quarter_period_cycle(self):
        # k_sd = 2, k_sp = 1: b = 0, theta = pi/2, exact 4-cycle
        params = SpeculatorParams(2.0, 1.0, 2.0 * 10.0)
        p_e = params.equilibrium_price
        d = 0.5
        cf = [closed_form_second_order(params, d, t) for t in range(8)]
        assert cf == pytest.approx([p_e, p_e + d, p_e, p_e - d] * 2, abs=1e-12)
        sim = simulate_second_order(params, p_e, p_e + d, 7).to_array()
        assert cf == pytest.approx(sim, abs=1e-12)

    @pytest.mark.parametrize("draw", [
        regime_sampling.draw_case1_convergent,
        regime_sampling.draw_case1_divergent,
        lambda rng: regime_sampling.draw_case3(rng, 0.5),
        lambda rng: regime_sampling.draw_case3(rng, 1.0),
        lambda rng: regime_sampling.draw_case3(rng, 1.5),
        regime_sampling.draw_case2,
    ])
    def test_closed_form_matches_iteration(self, draw):
        rng = np.random.default_rng(99)
        for _ in range(10):
            params = draw(rng)
            p_e = params.equilibrium_price
            sim = simulate_second_order(params, p_e, p_e + 1.0, 100).to_array()
            cf = np.array([closed_form_second_order(params, 1.0, t)
                           for t in range(101)])
            assert relative_gap(sim, cf) < 1e-8

    @pytest.mark.parametrize("k_sd", [1.0, 1.0 + 1e-7, 1.0 - 1e-7, 0.5, 1.5])
    def test_closed_form_matches_iteration_without_speculators(self, k_sd):
        # k_sp = 0: the roots are 1 - k_sd and 0, both 0 at k_sd = 1, and
        # |delta| < DELTA_EPS near k_sd = 1 without a repeated root
        params = SpeculatorParams(k_sd, 0.0, 3.0 * k_sd)
        p_e = params.equilibrium_price
        sim = simulate_second_order(params, p_e, p_e + 1.0, 100).to_array()
        cf = np.array([closed_form_second_order(params, 1.0, t)
                       for t in range(101)])
        assert relative_gap(sim, cf) < 1e-8


#: One draw per dynamical regime of the second-order recurrence.
REGIME_DRAWS = {
    "real convergent": regime_sampling.draw_case1_convergent,
    "real divergent": regime_sampling.draw_case1_divergent,
    "damped": lambda rng: regime_sampling.draw_case3(rng, 0.5),
    "sustained": lambda rng: regime_sampling.draw_case3(rng, 1.0),
    "amplified": lambda rng: regime_sampling.draw_case3(rng, 1.5),
    "repeated root": regime_sampling.draw_case2,
}


class TestIterateKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(REGIME_DRAWS)), st.integers(0, 2**32 - 1),
           st.floats(-5.0, 5.0).filter(lambda d: abs(d) > 1e-3))
    def test_matches_closed_form_in_every_regime(self, regime, seed, dev):
        params = REGIME_DRAWS[regime](np.random.default_rng(seed))
        p_e, n = params.equilibrium_price, 80
        path = iterate([params.k_c] * n, 1.0 + params.k_sp - params.k_sd,
                       -params.k_sp, p_e, p_e + dev)
        sim = np.array([p_e, p_e + dev, *path])
        cf = np.array([closed_form_second_order(params, dev, t)
                       for t in range(n + 2)])
        assert relative_gap(sim, cf) < 1e-8

    def test_returns_only_the_stepped_prices(self):
        assert iterate([1.0, 1.0], 2.0, -1.0, 3.0, 5.0) \
            == [1.0 + 10.0 - 3.0, 1.0 + 16.0 - 5.0]
        assert iterate([], 2.0, -1.0, 3.0, 5.0) == []

    @pytest.mark.parametrize("simulate", [  # each steps iterate n times
        pytest.param(lambda params, n: simulate_first_order(params, 1.0, n),
                     id="first-order"),
        pytest.param(lambda params, n: simulate_second_order(params, 1.0, 1.0, n + 1),
                     id="second-order")])
    def test_simulators_hold_the_path_about_once(self, simulate):
        # the series takes the stepped list itself, so a simulator peaks at
        # iterate's own peak plus one copy of the references, 8 bytes a step
        params, steps = SpeculatorParams(0.5, 0.2, 1.0), 200_000

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = peak(lambda: iterate(repeat(1.0, steps), 0.7, -0.2, 1.0, 1.0))
        simulated = peak(lambda: simulate(params, steps))
        assert simulated - alone <= 1.5 * 8 * steps


class TestClassify:
    def test_first_order_convergent_point(self):
        c = classify(0.1, 0.0)
        assert c.label is Regime.FIRST_ORDER_MONOTONE_CONVERGENT
        assert c.convergent

    def test_paper_fitted_point(self):
        c = classify(0.098, 1.29)
        assert c.label is Regime.AMPLIFIED_OSCILLATION
        assert not c.convergent
        assert c.period == pytest.approx(23.6, abs=0.1)

    def test_damped_and_real_divergent_at_ksd_3(self):
        assert classify(3.0, 0.7).label is Regime.DAMPED_OSCILLATION
        assert classify(3.0, 0.0).label is Regime.REAL_DIVERGENT

    def test_complex_root_modulus_is_sqrt_ksp(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            k_sp = float(rng.uniform(0.2, 2.0))
            c = regime_sampling.draw_case3(rng, k_sp)
            cls = classify(c.k_sd, c.k_sp)
            assert cls.discriminant < 0
            for root in cls.roots:
                assert abs(root) ** 2 == pytest.approx(k_sp, abs=1e-12)

    def test_boundary_band_around_ksp_one(self):
        assert classify(1.5, 1.0 - 1e-6).label is Regime.DAMPED_OSCILLATION
        assert classify(1.5, 1.0 + 1e-6).label is Regime.AMPLIFIED_OSCILLATION
        assert classify(1.5, 1.0).label is Regime.SUSTAINED_OSCILLATION
        assert classify(1.5, 1.0 + 1e-10).label is Regime.SUSTAINED_OSCILLATION

    def test_repeated_root_labels(self):
        # constructed delta = 0 at k_sp = 4, root -b/2 magnitude 2: divergent
        k_sp = 4.0
        k_sd = (math.sqrt(k_sp) + 1.0) ** 2
        assert classify(k_sd, k_sp).label is Regime.REPEATED_ROOT_DIVERGENT
        # root magnitude below 1: convergent
        k_sp = 0.25
        k_sd = (1.0 - math.sqrt(k_sp)) ** 2
        assert classify(k_sd, k_sp).label is Regime.REPEATED_ROOT_CONVERGENT

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            classify(0.0, 0.5)
        with pytest.raises(ValueError):
            classify(1.0, -0.1)
        with pytest.raises(ValueError):
            classify(math.nan, 0.5)
        with pytest.raises(ValueError):
            classify(1.0, math.nan)

    @pytest.mark.parametrize("k_sd, k_sp", [(1e200, 1.0), (1e200, 1e308)])
    def test_overflowing_discriminant_is_rejected(self, k_sd, k_sp):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflows"):
            classify(k_sd, k_sp)


def _scalar_rule(k_sd, k_sp):
    """The per-point regime rule, written out branch by branch as a reference
    for the array rule: (discriminant, label, convergent, period)."""
    b = k_sd - k_sp - 1.0
    delta = b * b - 4.0 * k_sp
    if abs(delta) < DELTA_EPS and k_sp > 0:
        convergent = abs(-b / 2.0) < 1.0
        label = (Regime.REPEATED_ROOT_CONVERGENT if convergent
                 else Regime.REPEATED_ROOT_DIVERGENT)
        return delta, label, convergent, None
    if delta < 0:
        period = 2.0 * math.pi / math.asin(math.sqrt(1.0 - b * b / (4.0 * k_sp)))
        if abs(k_sp - 1.0) <= KSP_TOL:
            return delta, Regime.SUSTAINED_OSCILLATION, False, period
        if k_sp < 1.0:
            return delta, Regime.DAMPED_OSCILLATION, True, period
        return delta, Regime.AMPLIFIED_OSCILLATION, False, period
    if k_sp == 0:
        ratio = 1.0 - k_sd
        convergent = abs(ratio) < 1.0
        if convergent:
            label = (Regime.FIRST_ORDER_MONOTONE_CONVERGENT if ratio >= 0
                     else Regime.FIRST_ORDER_ALTERNATING)
        else:
            label = (Regime.FIRST_ORDER_MONOTONE_DIVERGENT if ratio >= 0
                     else Regime.REAL_DIVERGENT)
        return delta, label, convergent, None
    sq = math.sqrt(delta)
    convergent = max(abs((-b + sq) / 2.0), abs((-b - sq) / 2.0)) < 1.0
    label = Regime.REAL_CONVERGENT if convergent else Regime.REAL_DIVERGENT
    return delta, label, convergent, None


#: The smallest grid _lattice_ranges draws: k_sd and k_sp in steps of 1/4,
#: k_sd from 0 (nudged to 1e-9) to 4, k_sp from 0 to 1.  It holds the
#: k_sp = 0 row, the k_sp = 1 row inside the sustained band, and repeated
#: roots at (0.25, 0.25), (2.25, 0.25) and (4, 1).
_SMALLEST_LATTICE = ((0.0, 4.0, 17), (0.0, 1.0, 5))


@st.composite
def _lattice_ranges(draw):
    """Grids in steps of 1/4 that contain _SMALLEST_LATTICE."""
    top_sd = draw(st.integers(16, 36))  # k_sd up to top_sd / 4
    top_sp = draw(st.integers(4, 16))   # k_sp up to top_sp / 4
    below = draw(st.integers(0, 2))     # rows below 0, clamped to k_sp = 0
    return ((0.0, top_sd / 4, top_sd + 1),
            (-below / 4, top_sp / 4, top_sp + below + 1))


@st.composite
def _random_ranges(draw):
    sd_lo = draw(st.floats(-0.5, 4.0))
    sd_hi = sd_lo + draw(st.floats(0.01, 6.0))
    sp_lo = draw(st.one_of(st.just(0.0), st.floats(-0.5, 2.0)))
    sp_hi = sp_lo + draw(st.floats(0.01, 3.0))
    return ((sd_lo, sd_hi, draw(st.integers(2, 12))),
            (sp_lo, sp_hi, draw(st.integers(2, 12))))


class TestPhaseGrid:
    def test_corner_labels(self):
        grid = phase_grid((0.1, 3.0, 2), (0.0, 1.5, 2))
        assert grid.at(0, 0).label is Regime.FIRST_ORDER_MONOTONE_CONVERGENT
        assert grid.at(0, 1).label is Regime.REAL_DIVERGENT
        assert grid.at(1, 0).label is Regime.AMPLIFIED_OSCILLATION
        assert grid.at(1, 1).label is Regime.AMPLIFIED_OSCILLATION

    def test_ksp_zero_row_below_one_all_monotone_convergent(self):
        grid = phase_grid((0.05, 0.95, 10), (0.0, 1.0, 2))
        for j in range(10):
            assert grid.at(0, j).label is Regime.FIRST_ORDER_MONOTONE_CONVERGENT

    def test_high_ksd_never_convergent(self):
        grid = phase_grid((4.0, 6.0, 5), (0.0, 2.0, 41))
        assert len(grid.convergent) == 5 * 41
        assert not any(grid.convergent)

    def test_row_major_layout(self):
        grid = phase_grid((0.5, 1.5, 3), (0.0, 1.0, 2))
        columns = (grid.discriminant, grid.labels, grid.convergent, grid.period)
        assert [len(column) for column in columns] == [6] * 4
        k_sd, k_sp = list(grid.points())[4]
        assert k_sd == pytest.approx(1.0)
        assert k_sp == pytest.approx(1.0)
        node = grid.at(1, 1)
        assert (node.k_sd, node.k_sp) == (k_sd, k_sp)
        assert (grid.discriminant[4], grid.labels[4], grid.convergent[4],
                grid.period[4]) == (node.discriminant, node.label,
                                    node.convergent, node.period)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_lattice_ranges(), _random_ranges()))
    def test_columns_match_per_node_classify(self, ranges):
        grid = phase_grid(*ranges)
        n_sd = len(grid.k_sd_axis)
        for i, sp in enumerate(grid.k_sp_axis):
            for j, sd in enumerate(grid.k_sd_axis):
                node = classify(sd, sp)
                want = _scalar_rule(sd, sp)
                assert (node.discriminant, node.label, node.convergent,
                        node.period) == want
                k = i * n_sd + j
                assert (grid.discriminant[k], grid.labels[k], grid.convergent[k],
                        grid.period[k]) == want

    def test_lattice_reaches_every_special_case(self):
        labels = set(phase_grid(*_SMALLEST_LATTICE).labels)
        assert {Regime.FIRST_ORDER_MONOTONE_CONVERGENT,
                Regime.SUSTAINED_OSCILLATION, Regime.REPEATED_ROOT_CONVERGENT,
                Regime.REPEATED_ROOT_DIVERGENT} <= labels

    @settings(max_examples=40, deadline=None)
    @given(_random_ranges())
    def test_convergent_iff_roots_inside_unit_circle(self, ranges):
        grid = phase_grid(*ranges)
        for (k_sd, k_sp), convergent in zip(grid.points(), grid.convergent):
            modulus = max(abs(np.roots([1.0, k_sd - k_sp - 1.0, k_sp])))
            if abs(modulus - 1.0) > 1e-6:  # away from the boundaries
                assert convergent == (modulus < 1.0), (k_sd, k_sp)

    def test_stabilization_window_at_ksd_3(self):
        sweep = np.linspace(1e-4, 1.5, 600)
        convergent = [float(k) for k in sweep if classify(3.0, float(k)).convergent]
        assert convergent
        assert min(convergent) > 0.0 and max(convergent) <= 1.0
        # contiguous interval: every sampled point between the ends converges
        inside = [k for k in sweep if min(convergent) <= k <= max(convergent)]
        assert all(classify(3.0, float(k)).convergent for k in inside)

    def test_paper_grid_periods_are_exact(self):
        grid = phase_grid((0.0, 5.0, 300), (0.0, 2.0, 300))
        oscillating = 0
        for (k_sd, k_sp), delta, period in zip(grid.points(), grid.discriminant,
                                               grid.period):
            if period is None:
                continue
            oscillating += 1
            assert delta < 0
            assert period == 2.0 * math.pi / oscillation_theta(k_sd, k_sp), \
                (k_sd, k_sp)
        assert oscillating == 65_819
