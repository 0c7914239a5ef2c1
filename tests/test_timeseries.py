import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bubbledyn import (AlignmentError, DegenerateInputError, DomainError,
                       Frequency, TimeSeries, Window, box_cox, deflate,
                       inverse_box_cox, lagged_cross_correlation,
                       normalize_unit_interval, pearson_correlation)
from bubbledyn.timeseries import LAMBDA_EPS, _pearson, align, ordinal

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
            assert s.index_of(s.date_at(i)) == i
        assert s.date_at(2) == (2005, 1)

    def test_calendar_roundtrip_annual(self):
        s = annual(range(5), start=(1999, 1))
        assert s.date_at(3) == (2002, 1)
        assert s.index_of((2000, 1)) == 1

    @given(st.sampled_from(list(Frequency)), st.integers(1, 9999),
           st.integers(1, 12), st.integers(1, 400), st.data())
    def test_calendar_roundtrip_random_start(self, frequency, year, month,
                                             n, data):
        start = (year, month if frequency is Frequency.MONTHLY else 1)
        s = TimeSeries(start, frequency, (0.0,) * n)
        i = data.draw(st.integers(0, n - 1))
        date = s.date_at(i)
        assert s.index_of(date) == i
        assert ordinal(date, frequency) == s.start_ordinal + i
        assert 1 <= date[1] <= 12

    def test_index_out_of_span(self):
        with pytest.raises(IndexError):
            monthly([1, 2, 3]).index_of((2010, 1))


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
            try:
                expected.append(s.index_of(date))
            except IndexError:
                pass
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
        assert ax.tolist() == [2.0, 3.0, 4.0]
        assert ay.tolist() == [4.0, 6.0, 8.0]
        assert az.tolist() == [5.0, 6.0, 7.0]
        ax, ay, start = align(xs, ys)
        assert start == (2000, 1) and ay.tolist() == [2.0, 4.0, 6.0, 8.0]
        with pytest.raises(AlignmentError, match="frequency mismatch"):
            align(xs, ys, monthly([1.0]))


class TestNormalize:
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
        assert scan.peak_lag() == 2

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

    @given(st.integers(-6, 6), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 15), st.integers(0, 2**32 - 1))
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

    def test_overflowing_correlation_is_a_domain_error(self):
        xs = monthly([1e300 * (-1) ** t for t in range(8)])
        ys = monthly([1e300 * (-1) ** (t // 2) for t in range(8)])
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="overflows"):
            lagged_cross_correlation(xs, ys, 2)


class TestDeflate:
    def test_constant_cpi_is_identity(self):
        nominal = annual([100.0, 110.0, 95.0])
        cpi = annual([50.0, 50.0, 50.0])
        assert deflate(nominal, cpi).values == pytest.approx(nominal.values)

    def test_proportional_growth_cancels(self):
        nominal = annual([100.0, 200.0, 400.0])
        cpi = annual([1.0, 2.0, 4.0])
        assert deflate(nominal, cpi).values == pytest.approx((100.0,) * 3)

    def test_hand_arithmetic(self):
        out = deflate(annual([100.0, 110.0]), annual([100.0, 105.0]))
        assert out.values == pytest.approx((100.0, 110.0 / 105.0 * 100.0))

    def test_nonpositive_cpi_rejected(self):
        with pytest.raises(DomainError):
            deflate(annual([1.0, 2.0]), annual([1.0, 0.0]))
