import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bubbledyn import (DataError, DomainError, Frequency, derive_surplus, emit,
                       load_series, lagged_cross_correlation, phase_grid,
                       trend_comparison)

from conftest import annual, monthly


def write_csv(path, rows, header="date,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoadSeries:
    def test_well_formed_monthly(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2004-01,1.5", "2004-02,2.5", "2004-03,3.5"])
        s = load_series(f, Frequency.MONTHLY, label="index")
        assert s.start == (2004, 1)
        assert s.values == (1.5, 2.5, 3.5)
        assert s.label == "index"

    def test_annual_year_only_dates(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["1999,10", "2000,11", "2001,12"])
        s = load_series(f, Frequency.ANNUAL)
        assert s.start == (1999, 1)
        assert len(s) == 3

    def test_gap_named_by_row(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2004-01,1", "2004-02,2", "2004-04,3"])
        with pytest.raises(DataError, match="row 4"):
            load_series(f, Frequency.MONTHLY)

    def test_duplicate_date(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2004-01,1", "2004-01,2"])
        with pytest.raises(DataError, match="duplicate"):
            load_series(f, Frequency.MONTHLY)

    def test_non_numeric_value_names_row(self, tmp_path):
        f = tmp_path / "s.csv"
        write_csv(f, ["2004-01,1", "2004-02,oops"])
        with pytest.raises(DataError, match="row 3"):
            load_series(f, Frequency.MONTHLY)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", "1_000"])
    def test_non_finite_value_names_row(self, tmp_path, cell):
        f = tmp_path / "s.csv"
        write_csv(f, ["2004-01,1", "2004-02,2", f"2004-03,{cell}"])
        with pytest.raises(DataError, match="row 4: non-finite"):
            load_series(f, Frequency.MONTHLY)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1000, 9998))
    def test_year_boundary(self, tmp_path, year):
        f = tmp_path / "s.csv"
        write_csv(f, [f"{year}-12,1", f"{year + 1}-01,2"])
        s = load_series(f, Frequency.MONTHLY)
        assert s.start == (year, 12) and s.date_at(1) == (year + 1, 1)
        write_csv(f, [f"{year}-12,1", f"{year + 1}-02,2"])
        with pytest.raises(DataError, match="row 3: gap"):
            load_series(f, Frequency.MONTHLY)

    @pytest.mark.parametrize("text, error", [
        ("value,date\n1\n", "row 2: field count"),
        ("date,value\n2004-01,1\n2004-02,2,9\n", "row 3: field count"),
        ("date,value,note\n2004-01,1,a\n2004-02,2\n", "row 3: field count"),
        ("date,value\n2004-01,1\n\n\n2004-02,x\n", "row 5: non-finite"),
        ("date,value\n\n2004-01,1\n\n2004-03,2\n", "row 5: gap"),
        # a quoted cell that spans lines is named by its last line
        ('date,value\n2004-01,"1\n2"\n2004-02,3\n', "row 3: non-finite"),
    ], ids=["short", "extra", "short-of-three", "bad-after-blanks", "gap-after-blanks",
            "multi-line-cell"])
    def test_row_errors_name_the_file_line(self, tmp_path, text, error):
        f = tmp_path / "s.csv"
        f.write_text(text)
        with pytest.raises(DataError, match=error):
            load_series(f, Frequency.MONTHLY)

    @pytest.mark.parametrize("frequency, rows, error", [
        (Frequency.MONTHLY, ["2004-01,1", "2004/02,2"], "row 3: bad monthly date"),
        (Frequency.MONTHLY, ["2004-13,1"], "row 2: month out of range"),
        (Frequency.ANNUAL, ["1999,1", "2000-06,2"], "row 3: bad annual date"),
        (Frequency.MONTHLY, ["2004-02,1", "2004-01,2"], "row 3: dates not increasing"),
    ], ids=["monthly", "month", "annual", "decreasing"])
    def test_date_errors_name_the_file(self, tmp_path, frequency, rows, error):
        f = tmp_path / "s.csv"
        write_csv(f, rows)
        with pytest.raises(DataError) as info:
            load_series(f, frequency)
        assert str(info.value).startswith(f"{f} {error}")

    def test_inverse_transform(self, tmp_path):
        f = tmp_path / "y.csv"
        write_csv(f, ["2004-01,5.0", "2004-02,4.0"])
        s = load_series(f, Frequency.MONTHLY, inverse=True)
        assert s.values == pytest.approx((0.2, 0.25))

    def test_inverse_of_zero_rejected(self, tmp_path):
        f = tmp_path / "y.csv"
        write_csv(f, ["2004-01,0.0"])
        with pytest.raises(DomainError):
            load_series(f, Frequency.MONTHLY, inverse=True)

    def test_missing_columns(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="column"):
            load_series(f, Frequency.MONTHLY)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as Excel's "CSV UTF-8" export writes it
        f = tmp_path / "s.csv"
        f.write_bytes(b"\xef\xbb\xbfdate,value\r\n2004-01,1.5\r\n2004-02,2.5\r\n")
        s = load_series(f, Frequency.MONTHLY)
        assert s.start == (2004, 1) and s.values == (1.5, 2.5)
        f.write_bytes(b"\xef\xbb\xbfdate,value\n2004-01,1\xb5\n")
        with pytest.raises(DataError, match="cannot read"):
            load_series(f, Frequency.MONTHLY)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_series(tmp_path / "nope.csv", Frequency.MONTHLY)

    def test_repeated_column_keeps_the_last(self, tmp_path):
        # as csv.DictReader does; the row length is still the header's
        f = tmp_path / "s.csv"
        write_csv(f, ["2004-01,1,5", "2004-02,2,6", "2004-03,3,8"],
                  header="date,value,value")
        assert load_series(f, Frequency.MONTHLY).values == (5.0, 6.0, 8.0)

    def test_blank_first_line_is_an_empty_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("\ndate,value\n2004-01,1\n")
        with pytest.raises(DataError, match="missing column\\(s\\) 'date'/'value'"):
            load_series(f, Frequency.MONTHLY)

    @pytest.mark.parametrize("text", [
        "date,value\n2004-01," + "1" * 200_000 + "\n",
        "date,value," + "x" * 200_000 + "\n2004-01,1,2\n",
    ], ids=["cell", "header"])
    def test_field_over_the_csv_limit(self, tmp_path, text):
        # the csv module refuses a field of more than 131,072 characters
        f = tmp_path / "s.csv"
        f.write_text(text)
        with pytest.raises(DataError) as info:
            load_series(f, Frequency.MONTHLY)
        assert str(info.value) == \
            f"cannot read {f}: field larger than field limit (131072)"


class TestDeriveSurplus:
    def test_equal_series_zero(self):
        p = annual([10.0, 11.0])
        assert derive_surplus(p, p).values == (0.0, 0.0)

    def test_simple_difference(self):
        assert derive_surplus(annual([10.0]), annual([7.0])).values == (3.0,)

    def test_identity_with_consumption(self):
        p = annual([10.0, 12.0, 9.0])
        c = annual([8.0, 13.0, 9.0])
        s = derive_surplus(p, c)
        assert [sv + cv for sv, cv in zip(s.values, c.values)] \
            == pytest.approx(list(p.values))


class TestEmit:
    def test_series_csv_roundtrip_bit_exact(self, tmp_path):
        s = monthly([1.0 / 3.0, 2.0 / 7.0, 0.1], start=(2004, 11))
        dest = tmp_path / "out.csv"
        emit(s, "csv", dest)
        back = load_series(dest, Frequency.MONTHLY)
        assert back.start == s.start
        assert back.values == s.values  # decimal repr round-trips exactly

    def test_annual_roundtrip(self, tmp_path):
        s = annual([3.25, 1e-17, 123456.789], start=(1982, 1))
        dest = tmp_path / "out.csv"
        emit(s, "csv", dest)
        back = load_series(dest, Frequency.ANNUAL)
        assert back.values == s.values

    def test_phase_grid_csv_shape(self, tmp_path):
        grid = phase_grid((0.5, 1.5, 2), (0.0, 1.0, 2))
        dest = tmp_path / "grid.csv"
        emit(grid, "csv", dest)
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[0] == "k_sd,k_sp,delta,label,period"

    def test_lag_scan_csv(self, tmp_path):
        scan = lagged_cross_correlation(monthly(range(10)),
                                        monthly(range(10)), 2)
        dest = tmp_path / "scan.csv"
        emit(scan, "csv", dest)
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "lag,rho"
        assert len(lines) == 4

    def test_combined_report_json_has_all_param_fields(self, tmp_path):
        from test_combined import TRUTH, make_food
        from bubbledyn import QuadraticTrend, fit_combined

        food, markets = make_food(50)
        trend = QuadraticTrend(TRUTH["trend_a"], TRUTH["trend_b"], 1.0)
        fit = fit_combined(food, markets, trend, switch_candidates=[40])
        dest = tmp_path / "fit.json"
        emit(fit, "json", dest)
        payload = json.loads(dest.read_text())
        for field in ("k_sd", "k_sp", "couplings", "trend_a", "trend_b",
                      "switch_index"):
            assert field in payload

    def test_series_json(self, tmp_path):
        s = monthly([1.0, 2.0], start=(2004, 1), label="x")
        dest = tmp_path / "s.json"
        emit(s, "json", dest)
        payload = json.loads(dest.read_text())
        assert payload == {"start": "2004-01", "frequency": "monthly",
                           "label": "x", "values": [1.0, 2.0]}

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(monthly([1.0]), "xml", tmp_path / "x")

    def test_object_without_json_form_is_type_error(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            emit(object(), "json", io.StringIO())

    def test_fit_report_as_csv_is_type_error(self):
        report = trend_comparison(annual([1.0, 2.0, 4.0, 7.0, 11.0]),
                                  annual([3.0, 3.5, 5.0, 6.0, 9.0]))
        with pytest.raises(TypeError, match="no CSV layout for TrendComparison"):
            emit(report, "csv", io.StringIO())

    def test_unwritable_destination(self, tmp_path):
        with pytest.raises(DataError, match="cannot write"):
            emit(monthly([1.0]), "csv", tmp_path / "no" / "dir" / "x.csv")
