import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from bubbledyn import (AlignmentError, DegenerateInputError, DomainError,
                       Frequency, TimeSeries, Window, box_cox,
                       inverse_box_cox, lagged_cross_correlation,
                       normalize_unit_interval, pearson_correlation)
from bubbledyn.timeseries import LAMBDA_EPS, _pearson, align, ordinal, replace

from conftest import annual, monthly


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries((2000, 1), Frequency.MONTHLY, ())

    def test_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                monthly([1.0, bad])

    def test_calendar_roundtrip_monthly(self):
        s = monthly(range(30), start=(2004, 11))
        for i in (0, 1, 13, 29):
            assert ordinal(s.date_at(i), s.frequency) - s.start_ordinal == i
        assert s.date_at(2) == (2005, 1)

    def test_calendar_roundtrip_annual(self):
        s = annual(range(5), start=(1999, 1))
        assert s.date_at(3) == (2002, 1)
        assert ordinal((2000, 1), s.frequency) - s.start_ordinal == 1

    @given(st.sampled_from(list(Frequency)), st.integers(1, 9999),
           st.integers(1, 12), st.integers(1, 400), st.data())
    def test_calendar_roundtrip_random_start(self, frequency, year, month,
                                             n, data):
        start = (year, month if frequency is Frequency.MONTHLY else 1)
        s = TimeSeries(start, frequency, (0.0,) * n)
        i = data.draw(st.integers(0, n - 1))
        date = s.date_at(i)
        assert ordinal(date, frequency) == s.start_ordinal + i
        assert 1 <= date[1] <= 12


def month_walk(begin, end):
    """Every calendar month from ``begin`` up to, not including, ``end``."""
    year, month = begin
    while (year, month) < end:
        yield year, month
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)


class TestIndicesBetween:
    @given(st.integers(1990, 2010), st.integers(1, 12), st.integers(1, 60),
           st.tuples(st.integers(1985, 2016), st.integers(1, 12)),
           st.none() | st.tuples(st.integers(1985, 2016), st.integers(1, 12)))
    def test_matches_month_by_month_walk(self, year, month, n, begin, end):
        s = monthly(range(n), start=(year, month))
        expected = []
        for date in month_walk(begin, s.date_at(n) if end is None else end):
            index = ordinal(date, s.frequency) - s.start_ordinal
            if 0 <= index < n:
                expected.append(index)
        assert list(s.indices_between(begin, end)) == expected

    def test_annual_series_counts_each_year_once(self):
        s = annual(range(12), start=(2000, 1))
        assert s.indices_between((2007, 1), (2008, 1)) == range(7, 8)
        assert s.indices_between((2007, 6), (2009, 1)) == range(7, 9)
        assert s.indices_between((2010, 6)) == range(10, 12)
        assert not s.indices_between((2020, 1))


class TestBoxCox:
    def test_lambda_one(self):
        assert box_cox(4.0, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_lambda_zero_is_log(self):
        assert box_cox(math.e, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_half(self):
        assert box_cox(4.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        for x in (0.0, -1.0):
            with pytest.raises(DomainError):
                box_cox(x, 1.0)

    def test_inverse_trivials(self):
        assert inverse_box_cox(3.0, 1.0) == pytest.approx(4.0)
        assert inverse_box_cox(1.0, 0.0) == pytest.approx(math.e)
        assert inverse_box_cox(2.0, 0.5) == pytest.approx(4.0)

    def test_inverse_domain_error(self):
        with pytest.raises(DomainError):
            inverse_box_cox(-3.0, 0.5)

    @pytest.mark.parametrize("y, lam", [(1e6, 0.01), (1e6, 0.0), (math.inf, 1.0)])
    def test_inverse_overflow_is_domain_error(self, y, lam):
        with pytest.raises(DomainError):
            inverse_box_cox(y, lam)

    @pytest.mark.parametrize("x, lam", [(1e300, 1.1), (1e-300, -1.1),
                                        (math.inf, 1.0), (math.inf, 0.0),
                                        (math.nan, 0.5)])
    def test_overflow_is_domain_error(self, x, lam):
        with pytest.raises(DomainError):
            box_cox(x, lam)

    @given(st.floats(0.01, 1000.0), st.floats(-2.0, 2.0))
    def test_roundtrip(self, x, lam):
        assert inverse_box_cox(box_cox(x, lam), lam) == pytest.approx(x, rel=1e-10)

    def test_continuity_at_zero(self):
        for x in np.geomspace(0.1, 100.0, 25):
            assert abs(box_cox(x, LAMBDA_EPS) - math.log(x)) < 1e-6


class TestPearson:
    @given(st.integers(2, 400), st.integers(0, 2**32 - 1), st.floats(-100, 100),
           st.floats(-10, 10), st.floats(-1, 1))
    def test_agrees_with_numpy_corrcoef(self, n, seed, log_scale, offset, mix):
        """The correctly rounded sums agree with numpy's pairwise ones to
        1e-13, over magnitudes from 1e-100 to 1e100."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        y = mix * x + (1.0 - abs(mix)) * rng.normal(size=n)
        xs, ys = ((offset + v) * 10.0 ** log_scale for v in (x, y))
        assert _pearson(tuple(xs.tolist()), tuple(ys.tolist())) == \
            pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-13)

    @given(*[st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6),
                                st.floats(-1e6, -1e-6)), min_size=12, max_size=12)
             for _ in range(2)],
           st.integers(2, 12), st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_bit_identical_across_binary_scalings(self, xs, ys, n, j, k):
        """Scaling a series by 2**k changes no bit of rho while its values
        stay normal: from about 1e-307 to 1e307 here."""
        xs, ys = xs[:n], ys[:n]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        scaled = _pearson([math.ldexp(v, j) for v in xs],
                          [math.ldexp(v, k) for v in ys])
        assert scaled == _pearson(xs, ys)

    def test_self_correlation(self):
        s = annual([1.0, 4.0, 2.0, 8.0])
        assert pearson_correlation(s, s) == pytest.approx(1.0)

    def test_negation(self):
        s = annual([1.0, 4.0, 2.0, 8.0])
        neg = s.with_values([-v for v in s.values])
        assert pearson_correlation(s, neg) == pytest.approx(-1.0)

    def test_hand_formula_oracle(self):
        xs = annual([1.0, 2.0, 3.0])
        ys = annual([2.0, 4.0, 7.0])
        # direct evaluation of the sample formula
        x, y = np.array(xs.values), np.array(ys.values)
        expected = (np.sum((x - x.mean()) * (y - y.mean()))
                    / math.sqrt(np.sum((x - x.mean()) ** 2))
                    / math.sqrt(np.sum((y - y.mean()) ** 2)))
        assert pearson_correlation(xs, ys) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(15.0 / math.sqrt(228.0))

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson_correlation(annual([1, 1, 1]), annual([1, 2, 3]))

    def test_frequency_mismatch(self):
        with pytest.raises(AlignmentError):
            pearson_correlation(annual([1, 2, 3]), monthly([1, 2, 3]))

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(7)
        xs = annual(rng.normal(size=10))
        ys = annual(rng.normal(size=10))
        rho = pearson_correlation(xs, ys)
        assert pearson_correlation(ys, xs) == pytest.approx(rho, abs=1e-14)
        scaled = xs.with_values([3.5 * v + 11.0 for v in xs.values])
        assert pearson_correlation(scaled, ys) == pytest.approx(rho, abs=1e-12)

    def test_aligns_by_calendar(self):
        xs = annual([1.0, 2.0, 3.0, 4.0], start=(2000, 1))
        ys = annual([9.0, 2.0, 4.0, 6.0, 8.0], start=(1999, 1))
        # overlap is 2000-2003 on both; ys values there are 2,4,6,8
        assert pearson_correlation(xs, ys) == pytest.approx(1.0)

    def test_align_any_number_of_series(self):
        xs = annual([1.0, 2.0, 3.0, 4.0], start=(2000, 1))
        ys = annual([9.0, 2.0, 4.0, 6.0, 8.0], start=(1999, 1))
        zs = annual([5.0, 6.0, 7.0, 8.0], start=(2001, 1))
        ax, ay, az, start = align(xs, ys, zs)
        assert start == (2001, 1)
        assert ax == (2.0, 3.0, 4.0)
        assert ay == (4.0, 6.0, 8.0)
        assert az == (5.0, 6.0, 7.0)
        ax, ay, start = align(xs, ys)
        assert start == (2000, 1) and ay == (2.0, 4.0, 6.0, 8.0)
        with pytest.raises(AlignmentError, match="frequency mismatch"):
            align(xs, ys, monthly([1.0]))


class TestNormalize:
    @given(st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=60),
           st.data())
    def test_bit_identical_to_numpy_reference(self, values, data):
        n = len(values)
        begin = data.draw(st.integers(0, n))
        window = None if begin == n else Window(begin, data.draw(st.integers(begin + 1, n)))
        v = np.array(values)
        keep = np.ones(n, dtype=bool)
        if window is not None:
            keep[window.begin_index:window.end_index] = False
        kept = v[keep]
        if kept.size == 0 or kept.min() == kept.max():
            with pytest.raises(DegenerateInputError):
                normalize_unit_interval(annual(values), exclude=window)
            return
        # the first minimum and maximum, as min() and max() take them: which
        # of 0.0 and -0.0 kept.min() returns is not specified
        lo, hi = kept[kept.argmin()], kept[kept.argmax()]
        with np.errstate(all="ignore"):
            reference = (v - lo) / (hi - lo)
        if not np.all(np.isfinite(reference)):
            with pytest.raises(DomainError, match="overflows"):
                normalize_unit_interval(annual(values), exclude=window)
            return
        out = normalize_unit_interval(annual(values), exclude=window)
        assert np.array_equal(np.array(out.values).view(np.int64),
                              reference.view(np.int64))

    def test_simple_affine(self):
        out = normalize_unit_interval(annual([2.0, 4.0, 6.0]))
        assert out.values == pytest.approx((0.0, 0.5, 1.0))

    def test_zero_range_error(self):
        with pytest.raises(DegenerateInputError):
            normalize_unit_interval(annual([1.0, 1.0, 1.0]))

    def test_excluded_points_mapped_by_same_transform(self):
        out = normalize_unit_interval(annual([0.0, 1.0, 10.0, 2.0]),
                                      exclude=Window(2, 3))
        assert out.values == pytest.approx((0.0, 0.5, 5.0, 1.0))

    @pytest.mark.parametrize("values, exclude", [
        ([1e308, -1e308, 0.0], None),  # max - min overflows
        ([0.0, 1e-300, -1.7e308, 2e-300], Window(2, 3)),  # an excluded point does
    ])
    def test_overflow_is_domain_error(self, values, exclude):
        with pytest.raises(DomainError, match="overflows"):
            normalize_unit_interval(annual(values), exclude=exclude)

    def test_idempotent(self):
        once = normalize_unit_interval(annual([3.0, -1.0, 5.0, 2.0]))
        twice = normalize_unit_interval(once)
        assert twice.values == pytest.approx(once.values, abs=1e-15)


class TestLaggedCrossCorrelation:
    def test_exact_shift_peaks_at_lag(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=40)
        xs = monthly(base[:-2])
        ys = monthly(base, start=(2004, 3))  # ys lags xs by two months
        scan = lagged_cross_correlation(xs, ys, 5)
        rhos = dict(scan.entries)
        assert rhos[2] == pytest.approx(1.0, abs=1e-12)
        assert max(rhos, key=rhos.get) == 2

    def test_lag_zero_matches_pearson(self):
        rng = np.random.default_rng(4)
        xs = monthly(rng.normal(size=30))
        ys = monthly(rng.normal(size=30))
        scan = lagged_cross_correlation(xs, ys, 3)
        assert dict(scan.entries)[0] == pytest.approx(
            pearson_correlation(xs, ys), abs=1e-14)

    def test_near_zero_for_unrelated_patterns(self):
        xs = monthly([5.0 + (-1.0) ** t for t in range(24)])
        ys = monthly([3.0 + 0.5 * (-1.0) ** (t // 2 % 2) for t in range(24)])
        scan = lagged_cross_correlation(xs, ys, 4)
        for _, rho in scan.entries:
            assert abs(rho) < 0.35

    def test_insufficient_overlap_omitted(self):
        xs = monthly([1.0, 2.0, 5.0, 3.0])
        ys = monthly([2.0, 1.0, 4.0, 8.0])
        scan = lagged_cross_correlation(xs, ys, 3)
        assert 2 in scan.omitted and 3 in scan.omitted
        assert set(dict(scan.entries)) == {0, 1}

    def test_frequency_mismatch(self):
        with pytest.raises(AlignmentError):
            lagged_cross_correlation(annual([1, 2, 3]), monthly([1, 2, 3]), 1)

    # max_lag reaches past the last lag at which the two series can overlap
    @given(st.integers(-6, 6), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_pairs_match_a_walk_by_date(self, shift, nx, ny, max_lag, seed):
        rng = np.random.default_rng(seed)
        xs = monthly(rng.normal(size=nx), start=(2004, 1))
        ys = monthly(rng.normal(size=ny), start=xs.date_at(shift))
        by_date = {ys.date_at(i): v for i, v in enumerate(ys.values)}
        entries, omitted = [], []
        for lag in range(max_lag + 1):
            pairs = [(x, by_date[xs.date_at(i + lag)])
                     for i, x in enumerate(xs.values) if xs.date_at(i + lag) in by_date]
            if len(pairs) < 3:
                omitted.append(lag)
            else:
                entries.append((lag, _pearson(*map(np.array, zip(*pairs)))))
        scan = lagged_cross_correlation(xs, ys, max_lag)
        assert scan.entries == tuple(entries)
        assert scan.omitted == tuple(omitted)

    def test_huge_series_correlate_as_unit_ones(self):
        # sums of squares of values near 1e300 would overflow unscaled
        xs = [(-1.0) ** t * (1 + t % 3) for t in range(8)]
        ys = [(-1.0) ** (t // 2) for t in range(8)]
        unit = lagged_cross_correlation(monthly(xs), monthly(ys), 2)
        huge = lagged_cross_correlation(monthly([1e300 * v for v in xs]),
                                        monthly([1e300 * v for v in ys]), 2)
        assert [lag for lag, _ in huge.entries] == [0, 1, 2]
        for (_, got), (_, want) in zip(huge.entries, unit.entries):
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)



def _records():
    """Each record class with valid fields, a valid change of one field, the
    changes its ``__post_init__`` rejects (none where it validates nothing),
    and the values of the fields left to their defaults."""
    from bubbledyn import (CombinedFit, CombinedParams, EquilibriumPath,
                           FitReport, LagScan, PhaseGrid, QuadraticTrend,
                           Regime, RegimeClassification, SpeculatorParams,
                           SupplyDemandFit, SupplyDemandParams,
                           TrendComparison)

    series = monthly([1.0, 2.0, 4.0])
    trend = QuadraticTrend(1.0, 0.5, 0.9)
    report = FitReport((0.1, 1.2), 0.5, 7, True)
    sd = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
    path = EquilibriumPath(series, series, ((1.0, 2.0),))
    params = CombinedParams(0.1, 1.2, (-0.1,), 105.0, 0.01, 40)
    regime = RegimeClassification(0.1, 1.2, -0.5, (0.5 + 0.1j, 0.5 - 0.1j),
                                  Regime.AMPLIFIED_OSCILLATION, False, 23.7)
    cases = [
        (Window, {"begin_index": 1, "end_index": 4}, {"end_index": 5},
         [{"end_index": 1}, {"begin_index": -1}], {}),
        (TimeSeries, {"start": (2004, 1), "frequency": Frequency.MONTHLY,
                      "values": (1.0, 2.0), "label": ""},
         {"label": "price"}, [{"values": (1.0, math.nan)}, {"start": (2004, 13)}],
         {"label": ""}),
        (LagScan, {"entries": ((0, 0.5),), "omitted": ()}, {"omitted": (1,)},
         [], {"omitted": ()}),
        (QuadraticTrend, {"a": 1.0, "b": 0.5, "r_squared": 0.9},
         {"b": 0.25}, [{"r_squared": 1.5}], {}),
        (TrendComparison, {"trend_a": trend, "trend_b": trend,
                           "coefficient_gap": 0.0, "rho": 0.9},
         {"rho": 0.8}, [], {}),
        (FitReport, {"parameter_vector": (0.1, 1.2), "objective_value": 0.5,
                     "evaluations": 7, "converged": True},
         {"evaluations": 8}, [], {}),
        (SpeculatorParams, {"k_sd": 0.1, "k_sp": 1.2, "k_c": 9.8},
         {"k_c": 1.0}, [{"k_sd": -1.0}], {}),
        (RegimeClassification, vars(regime), {"convergent": True}, [],
         {"period": None}),
        (PhaseGrid, {"k_sd_axis": (0.1, 0.2), "k_sp_axis": (1.2,),
                     "discriminant": (-0.5, -0.4),
                     "labels": (Regime.AMPLIFIED_OSCILLATION,) * 2,
                     "convergent": (False, False), "period": (23.7, 20.1)},
         {"period": (None, None)}, [], {}),
        (SupplyDemandParams, vars(sd), {"lam": 0.5}, [{"beta_d": -1.0}], {}),
        (EquilibriumPath, vars(path), {"intercept_trace": ()}, [], {}),
        (SupplyDemandFit, {"params": sd, "report": report, "r2_price": 0.9,
                           "r2_consumption": 0.8, "residual_price": series,
                           "residual_consumption": series, "path": path},
         {"r2_price": 0.7}, [], {}),
        (CombinedParams, vars(params), {"couplings": ()}, [{"switch_index": 0}], {}),
        (CombinedFit, {"params": params, "report": report, "sse": 0.5, "r2": 0.9,
                       "path": series, "switch_date": (2007, 5), "regime": regime,
                       "trend_mode": "fixed"},
         {"trend_mode": "joint"}, [], {}),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


class TestRecord:
    @pytest.mark.parametrize("cls, fields, change, bad, defaults", _records())
    def test_frozen_value(self, cls, fields, change, bad, defaults):
        fields = dict(fields)
        record = cls(**fields)
        assert list(vars(record)) == list(fields) and vars(record) == fields
        twin = cls(*fields.values())
        assert record == twin and hash(record) == hash(twin)
        listed = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(record) == f"{cls.__name__}({listed})"
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, fields[name])
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.other = 1
        assert vars(record) == fields
        short = {k: v for k, v in fields.items() if k not in defaults}
        assert vars(cls(**short)) == {**fields, **defaults}
        changed = replace(record, **change)
        assert changed == cls(**{**fields, **change}) and changed != record
        assert record != tuple(fields.values())
        for bad_change in bad:
            with pytest.raises(ValueError):
                replace(record, **bad_change)
            with pytest.raises(ValueError):
                cls(**{**fields, **bad_change})

    def test_replace_reruns_post_init(self):
        s = replace(monthly([1.0, 2.0]), values=[3, 4], start=(2005.0, 2))
        assert s.values == (3.0, 4.0) and type(s.values[0]) is float
        assert s.start == (2005, 2) and type(s.start[0]) is int

    @pytest.mark.parametrize("args, kwargs", [
        ((1, 2, 3), {}),                      # too many positionals
        ((1,), {}),                           # a field missing
        ((1,), {"begin_index": 1}),           # a field given twice
        ((1, 2), {"end": 3}),                 # not a field
    ])
    def test_constructor_binds_as_a_signature_does(self, args, kwargs):
        with pytest.raises(TypeError):
            Window(*args, **kwargs)
        assert Window(1, end_index=2) == Window(end_index=2, begin_index=1)
