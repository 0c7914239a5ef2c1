import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bubbledyn import (DataError, Window, pearson_correlation, phase_grid,
                       quadratic_fit)
from bubbledyn.cli import (EXIT_DATA, EXIT_FIT, EXIT_OK, EXIT_USAGE, build_parser,
                           main, switch_candidates_for_year)
from bubbledyn.timeseries import ordinal

from conftest import annual, monthly
from test_acceptance import default_bubble_windows
from test_deferred_import import SRC
from test_timeseries import month_walk


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_series_csv(path, values, start=(2004, 1)):
    lines = ["date,value"]
    year, month = start
    for v in values:
        lines.append(f"{year:04d}-{month:02d},{float(v)!r}")
        month += 1
        if month > 12:
            year, month = year + 1, 1
    path.write_text("\n".join(lines) + "\n")


class TestSimulateSpec:
    def test_first_order_decay(self, capsys):
        code, out, _ = run(capsys, "simulate-spec", "--ksd", "0.1", "--kc", "5",
                           "--ksp", "0", "--p0", "55", "--steps", "50")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "date,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 51
        assert values[0] == 55.0
        assert values[-1] == pytest.approx(50.0, abs=0.05)

    def test_deterministic_output(self, capsys):
        argv = ("simulate-spec", "--ksd", "0.3", "--kc", "9", "--ksp", "1.1",
                "--p0", "30", "--p1", "31", "--steps", "20")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_output_bytes(self, capsys):
        code, out, _ = run(capsys, "simulate-spec", "--ksd", "0.3", "--kc", "9",
                           "--ksp", "1.1", "--p0", "30", "--p1", "31",
                           "--steps", "20")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "f831bf2dc63785cf32807c6fa78dc165ad99e14580fc92fe2a7ab6413c944efc"

    def test_json_output_bytes(self, capsys):
        code, out, _ = run(capsys, "simulate-spec", "--ksd", "0.3", "--kc", "9",
                           "--ksp", "1.1", "--p0", "30", "--p1", "31",
                           "--steps", "20", "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "80fea9b986b5a7d0f68aad61c69778758c886b486c83ee45bbf0809b03d8100f"


class TestPhase:
    def test_grid_line_count(self, capsys, tmp_path):
        dest = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "phase", "--ksd", "0:5:20", "--ksp", "0:2:20",
                         "-o", str(dest))
        assert code == EXIT_OK
        assert len(dest.read_text().strip().splitlines()) == 401

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "3f5e0e929ca13c042033ed9eec2b46e3814c0ca78cab8f76aee8915a761380d0"),
        ("json", "742bff9fdf5cdf6d828502b8f9dbf3c938f90c7bc79e58d9d00c4ca042f23cec"),
    ])
    def test_output_bytes(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "phase", "--ksd", "0:5:40", "--ksp", "0:2:40",
                           "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_matches_csv_writer(self, capsys, tmp_path):
        # 4,900 rows: more than one chunk of the emit
        dest = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "phase", "--ksd", "0:5:70", "--ksp", "0:2:70",
                         "-o", str(dest))
        assert code == EXIT_OK
        grid = phase_grid((0.0, 5.0, 70), (0.0, 2.0, 70))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["k_sd", "k_sp", "delta", "label", "period"])
        for (sd, sp), delta, label, period in zip(
                grid.points(), grid.discriminant, grid.labels, grid.period):
            writer.writerow([repr(sd), repr(sp), repr(delta), label.value,
                             "" if period is None else repr(period)])
        assert dest.read_bytes() == expected.getvalue().encode()

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phase", "--ksd", "0:5", "--ksp", "0:2:10"])
        assert exc.value.code == 2


class TestSimulateSd:
    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "b3098694dde318be53961441fa881b0cc6c5a5f158e42f6b852815a37a475958"),
        ("json", "3e7db60bc67544c6f8a22a27569e5d5cc333dee84a66d7ddb5676331392bdcde"),
    ])
    def test_output_bytes(self, capsys, tmp_path, fmt, digest):
        surplus = [0.0, -3.5, 2.25, 1.0, -0.75, 4.0, -2.0, 0.5, -6.125, 3.0]
        (tmp_path / "s.csv").write_text("date,value\n" + "".join(
            f"{1990 + i},{v!r}\n" for i, v in enumerate(surplus)))
        code, out, _ = run(capsys, "simulate-sd", "--surplus",
                           str(tmp_path / "s.csv"), "--lambda=0.8",
                           "--alpha-d=114", "--beta-d=1.0", "--alpha-s=50",
                           "--beta-s=0.91", "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reject_non_finite(name):
    raise ValueError(f"{name} is not a finite number")


def write_annual_csv(path, values, start=1990):
    path.write_text("date,value\n" + "".join(
        f"{start + i},{float(v)!r}\n" for i, v in enumerate(values)))


class TestFitCommands:
    """Byte goldens of the fit reports' default stdout."""

    def test_fit_sd_output_bytes(self, capsys, tmp_path):
        # a lambda = 0.9 path with a percent of noise: the optimum is interior
        write_annual_csv(tmp_path / "p.csv", [
            94.031, 94.971, 98.0, 96.51, 100.716, 97.161, 95.401, 97.12,
            106.556, 101.633, 96.664, 96.584])
        write_annual_csv(tmp_path / "q.csv", [
            326.377, 324.745, 331.239, 333.735, 342.723, 348.755, 351.797,
            355.225, 358.889, 367.304, 375.643, 379.733])
        write_annual_csv(tmp_path / "s.csv", [0.0, -6.5, 4.0, -9.0, 7.5, 2.0,
                                              -3.5, -11.0, 5.0, 8.5, -2.0, 1.0])
        code, out, err = run(capsys, "fit-sd", "--price", str(tmp_path / "p.csv"),
                             "--consumption", str(tmp_path / "q.csv"),
                             "--surplus", str(tmp_path / "s.csv"))
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert report["lambda"] == pytest.approx(0.9, abs=1e-3)
        # no worse than the objective scipy's own solver reached here
        assert report["objective"] <= 0.05281463364204926 * (1 + 1e-9)
        # the exact Jacobian takes no residual calls of its own
        assert report["evaluations"] <= 10
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "748a7b9f54349458ccedf37c1451c1bfffd58162ed4e1c96ecc432232bea6228"

    def test_fit_ethanol_output_bytes(self, capsys, tmp_path):
        write_annual_csv(tmp_path / "e.csv", [1.5, 1.75, 2.25, 2.5, 3.5, 4.0,
                                              5.25, 6.5, 8.0, 9.25, 11.0, 13.0])
        write_annual_csv(tmp_path / "f.csv", [90.0, 91.5, 90.25, 93.0, 95.5, 97.0,
                                              100.25, 104.0, 131.0, 112.5, 118.0,
                                              123.5])
        code, out, err = run(capsys, "fit-ethanol", "--ethanol",
                             str(tmp_path / "e.csv"), "--food",
                             str(tmp_path / "f.csv"), "--exclude", "8:9")
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "2eebdfbaeae9fb047adb5462d5aa469418ec16b383cbd2b35146c9e1824317df"


class TestFitCombinedCommand:
    def test_end_to_end_on_synthetic_files(self, capsys, tmp_path):
        from test_combined import TRUTH, make_food

        food, markets = make_food(88)
        write_series_csv(tmp_path / "food.csv", food.values)
        write_series_csv(tmp_path / "equity.csv", markets[0].values)
        # store raw yields so the CLI's :inverse suffix reproduces the series
        write_series_csv(tmp_path / "yields.csv",
                         [1.0 / v for v in markets[1].values])
        dest = tmp_path / "fit.json"
        code, _, err = run(
            capsys, "fit-combined",
            "--food", str(tmp_path / "food.csv"),
            "--market", str(tmp_path / "equity.csv"),
            "--market", str(tmp_path / "yields.csv") + ":inverse",
            "-o", str(dest))
        assert code == EXIT_OK, err
        payload = json.loads(dest.read_text())
        # the joint fit recovers the generator, trend included
        assert payload["switch_date"] == "2007-05"
        assert payload["trend_mode"] == "joint"
        for name in ("k_sd", "k_sp", "trend_a", "trend_b"):
            assert payload[name] == pytest.approx(TRUTH[name], rel=1e-6)
        assert payload["couplings"] == pytest.approx(TRUTH["couplings"],
                                                     rel=1e-6)

    def test_bounded_generator(self, capsys, tmp_path):
        """A generator whose prices stay > 0 comes back through the CLI:
        the exact month, and k_sd, k_sp and the couplings to 1e-8."""
        from test_combined import BOUNDED, make_food

        food, markets = make_food(88, BOUNDED)
        assert min(food.values) > 0
        write_series_csv(tmp_path / "food.csv", food.values)
        write_series_csv(tmp_path / "equity.csv", markets[0].values)
        write_series_csv(tmp_path / "yields.csv",
                         [1.0 / v for v in markets[1].values])
        code, out, err = run(
            capsys, "fit-combined", "--food", str(tmp_path / "food.csv"),
            "--market", str(tmp_path / "equity.csv"),
            "--market", str(tmp_path / "yields.csv") + ":inverse")
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert report["switch_date"] == "2007-05"
        assert report["k_sd"] == pytest.approx(BOUNDED["k_sd"], rel=1e-8)
        assert report["k_sp"] == pytest.approx(BOUNDED["k_sp"], rel=1e-8)
        assert report["couplings"] == pytest.approx(BOUNDED["couplings"],
                                                    rel=1e-8)

    def test_exclude_window_holds_the_two_stage_trend(self, capsys, tmp_path):
        from test_combined import make_food

        food, markets = make_food(88)
        write_series_csv(tmp_path / "food.csv", food.values)
        write_series_csv(tmp_path / "equity.csv", markets[0].values)
        code, out, err = run(
            capsys, "fit-combined", "--food", str(tmp_path / "food.csv"),
            "--market", str(tmp_path / "equity.csv"),
            "--exclude-window", "36:60", "--exclude-window", "77:88")
        assert code == EXIT_OK, err
        report = json.loads(out)
        trend = quadratic_fit(food, [Window(36, 60), Window(77, 88)])
        assert report["trend_mode"] == "fixed"
        assert "trend_box" not in report
        assert (report["trend_a"], report["trend_b"]) == (trend.a, trend.b)

    def test_output_bytes(self, capsys, tmp_path):
        from test_combined import make_food

        food, markets = make_food(88)
        write_series_csv(tmp_path / "food.csv", food.values)
        write_series_csv(tmp_path / "equity.csv", markets[0].values)
        write_series_csv(tmp_path / "yields.csv",
                         [1.0 / v for v in markets[1].values])
        code, out, err = run(
            capsys, "fit-combined", "--food", str(tmp_path / "food.csv"),
            "--market", str(tmp_path / "equity.csv"),
            "--market", str(tmp_path / "yields.csv") + ":inverse")
        assert code == EXIT_OK, err
        report = json.loads(out)
        # the generator's switch month, and no worse an SSE than scipy's own
        # solver reached on the two-stage fit
        assert report["switch_date"] == "2007-05"
        assert report["sse"] <= 17069683.100586947 * (1 + 1e-9)
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "016b97df4234a21f6479fdce542a3e9816ecbaaa966876a6977a5098ba997c3c"

    def test_rank_deficient_basis(self, capsys, tmp_path):
        """39 months end at 2007-03, so the 2007 search tries its last 3
        months, where the gated market differences are few or none, and a
        constant market adds a zero column: the fit exits 0 and gives that
        market no coupling."""
        from test_combined import BOUNDED, make_food

        food, markets = make_food(88, BOUNDED)
        write_series_csv(tmp_path / "food.csv", food.values[:39])
        write_series_csv(tmp_path / "equity.csv", markets[0].values[:39])
        write_series_csv(tmp_path / "flat.csv", [2.5] * 39)
        code, out, err = run(
            capsys, "fit-combined", "--food", str(tmp_path / "food.csv"),
            "--market", str(tmp_path / "equity.csv"),
            "--market", str(tmp_path / "flat.csv"))
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert report["switch_date"] in ("2007-01", "2007-02", "2007-03")
        assert report["couplings"][1] == pytest.approx(0.0, abs=1e-12)

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit-combined", "--food",
                           str(tmp_path / "none.csv"))
        assert code == EXIT_DATA
        assert json.loads(err)["type"] == "DataError"


class TestCorrelateAndLagscan:
    def test_correlate(self, capsys, tmp_path):
        write_series_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        write_series_csv(tmp_path / "b.csv", [2.0, 4.0, 6.0, 8.0])
        code, out, _ = run(capsys, "correlate", "--a", str(tmp_path / "a.csv"),
                           "--b", str(tmp_path / "b.csv"),
                           "--frequency", "monthly")
        assert code == EXIT_OK
        assert json.loads(out)["rho"] == pytest.approx(1.0)

    def test_correlate_output_bytes(self, capsys, tmp_path):
        a, b = [1.0, 2.0, 4.0, 3.0], [2.0, 3.0, 7.0, 8.0]
        write_series_csv(tmp_path / "a.csv", a)
        write_series_csv(tmp_path / "b.csv", b)
        argv = ("correlate", "--a", str(tmp_path / "a.csv"),
                "--b", str(tmp_path / "b.csv"), "--frequency", "monthly")
        rho = pearson_correlation(monthly(a), monthly(b))
        expected = f'{{\n  "rho": {rho!r}\n}}\n'
        _, out, _ = run(capsys, *argv)
        assert out == expected
        dest = tmp_path / "rho.json"
        run(capsys, *argv, "-o", str(dest))
        assert dest.read_bytes() == expected.encode()

    def test_lagscan_csv(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        base = rng.normal(size=30)
        write_series_csv(tmp_path / "a.csv", base[:-3])
        write_series_csv(tmp_path / "b.csv", base, start=(2004, 4))
        code, out, _ = run(capsys, "lagscan", "--a", str(tmp_path / "a.csv"),
                           "--b", str(tmp_path / "b.csv"), "--max-lag", "5")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        rhos = {int(lag): float(rho) for lag, rho in rows}
        assert rhos[3] == pytest.approx(1.0, abs=1e-12)

    def test_lagscan_output_bytes(self, capsys, tmp_path):
        write_series_csv(tmp_path / "a.csv", [1.0, 2.5, 0.25, 4.0, 3.5, -1.0,
                                              2.0, 0.5, 6.0, 1.5, 2.25, 3.0])
        write_series_csv(tmp_path / "b.csv", [0.5, 1.0, 3.0, 0.75, 4.5, 2.0, -0.5,
                                              2.5, 1.0, 5.5, 2.0, 1.25, 3.5])
        code, out, _ = run(capsys, "lagscan", "--a", str(tmp_path / "a.csv"),
                           "--b", str(tmp_path / "b.csv"), "--max-lag", "4")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "c059c02f173aeaace13c1850f91c18760668de235bd37ddf4384f1e318ed017c"

    def test_lagscan_json_output_bytes(self, capsys, tmp_path):
        write_series_csv(tmp_path / "a.csv", [1.0, 2.5, 0.25, 4.0, 3.5, -1.0,
                                              2.0, 0.5, 6.0, 1.5, 2.25, 3.0])
        write_series_csv(tmp_path / "b.csv", [0.5, 1.0, 3.0, 0.75, 4.5, 2.0, -0.5,
                                              2.5, 1.0, 5.5, 2.0, 1.25, 3.5])
        code, out, _ = run(capsys, "lagscan", "--a", str(tmp_path / "a.csv"),
                           "--b", str(tmp_path / "b.csv"), "--max-lag", "11",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["omitted"] == [11]
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "f5df41f324050e6f51e3987416ec5d90a536ca689a03d7e2db14d4a4572643fd"


class TestErrorContract:
    @pytest.mark.parametrize("argv, code", [
        ("simulate-spec --ksd -1 --kc 1 --p0 1 --steps 5", EXIT_USAGE),
        ("phase --ksd 0:5:1 --ksp 0:2:5", EXIT_USAGE),
        ("simulate-spec --ksd 0.1 --ksp 1.9 --kc 1 --p0 1 --p1 2 --steps 10000",
         EXIT_USAGE),  # overflows to non-finite prices
        ("correlate --a missing.csv --b missing.csv", EXIT_DATA),
        ("correlate --a nan.csv --b nan.csv --frequency monthly", EXIT_DATA),
        ("fit-combined --food m60.csv --exclude-window 70:90", EXIT_USAGE),
        ("phase --ksd nan:5:3 --ksp 0:1:2", EXIT_USAGE),
        ("phase --ksd 0:inf:3 --ksp 0:1:2", EXIT_USAGE),
        ("lagscan --a m60.csv --b m60.csv --max-lag -1", EXIT_USAGE),
        ("simulate-spec --ksd nan --kc 1 --p0 1 --steps 5", EXIT_USAGE),
        ("simulate-sd --surplus s.csv --lambda=0.01 --alpha-d=1e6 --beta-d=1 "
         "--alpha-s=0 --beta-s=1", EXIT_DATA),  # back-transform overflows
        ("simulate-sd --surplus s.csv --lambda=0 --alpha-d=1e6 --beta-d=1 "
         "--alpha-s=0 --beta-s=1", EXIT_DATA),
        ("simulate-sd --surplus s.csv --lambda=nan --alpha-d=1 --beta-d=1 "
         "--alpha-s=0 --beta-s=1", EXIT_USAGE),
        ("correlate --a somedir --b m60.csv --frequency monthly", EXIT_DATA),
        ("correlate --a latin1.csv --b m60.csv --frequency monthly", EXIT_DATA),
        ("correlate --a columns.csv --b m60.csv --frequency monthly", EXIT_DATA),
        # sizes of 10**15 elements, which no allocator grants
        ("simulate-spec --ksd 0.5 --kc 1 --p0 1 --steps 1000000000000000",
         EXIT_USAGE),
        ("simulate-spec --ksd 0.5 --ksp 0.2 --kc 1 --p0 1 "
         "--steps 1000000000000000", EXIT_USAGE),
        ("phase --ksd 0:1:1000000000000000 --ksp 0:1:3", EXIT_USAGE),
        # a name the OS rejects as too long cannot be read
        (f"correlate --a {'a' * 300} --b m60.csv --frequency monthly", EXIT_DATA),
    ])
    def test_error_is_one_json_line(self, capsys, tmp_path, monkeypatch,
                                    argv, code):
        monkeypatch.chdir(tmp_path)
        write_series_csv(tmp_path / "m60.csv", 100.0 + np.arange(60.0))
        (tmp_path / "nan.csv").write_text("date,value\n2004-01,1\n2004-02,nan\n")
        (tmp_path / "s.csv").write_text("date,value\n1990,0\n1991,-1\n")
        (tmp_path / "latin1.csv").write_bytes(b"date,value\n2004-01,1\xb5\n")
        (tmp_path / "columns.csv").write_text("month,fao\n2004-01,107.1\n")
        (tmp_path / "somedir").mkdir()
        got, out, err = run(capsys, *argv.split())
        assert got == code
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        error = json.loads(err)
        assert set(error) == {"error", "type"}
        assert error["error"]

    def test_lag_count_past_memory_is_memory_error(self, capsys, tmp_path):
        # the lags that can overlap are walked; listing the 10**15 omitted
        # ones cannot be allocated
        write_series_csv(tmp_path / "m60.csv", 100.0 + np.arange(60.0))
        series = str(tmp_path / "m60.csv")
        code, out, err = run(capsys, "lagscan", "--a", series, "--b", series,
                             "--max-lag", str(10**15))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("\n") == 1 and json.loads(err)["type"] == "MemoryError"

    @pytest.mark.parametrize("argv", [
        "correlate --a x --b y --format csv",
        "phase --ksd 0:5 --ksp 0:2:10",
        "phase --ksd a:5:3 --ksp 0:1:2",
        "fit-ethanol --ethanol e.csv --food f.csv --exclude 1:2:3",
    ])
    def test_usage_error_is_one_json_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        error = json.loads(captured.err)
        assert set(error) == {"error", "type"}
        assert error["type"] == "UsageError"

    def test_huge_fit_sd_input_is_data_error(self, capsys, tmp_path):
        # the observed variance overflows; box_cox of the first point would
        # too once lambda exceeds about 1.03
        (tmp_path / "big.csv").write_text("date,value\n" + "".join(
            f"{1990 + i},{1e300 * (1 + i / 5)!r}\n" for i in range(6)))
        (tmp_path / "s.csv").write_text(
            "date,value\n" + "".join(f"{1990 + i},{v}\n" for i, v in
                                      enumerate([0.5, -1, 2, -0.5, 1, 0])))
        got, out, err = run(capsys, "fit-sd", "--price", str(tmp_path / "big.csv"),
                            "--consumption", str(tmp_path / "big.csv"),
                            "--surplus", str(tmp_path / "s.csv"))
        assert got == EXIT_DATA
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["type"] == "DomainError"

    def test_overflowing_range_is_domain_error(self, capsys, tmp_path):
        # max - min of the series overflows, so fit-ethanol cannot normalise
        # it; correlate scales it by a power of two first and stays finite
        write_annual_csv(tmp_path / "big.csv", [1e308 * (-1) ** t for t in range(12)])
        big = str(tmp_path / "big.csv")
        got, out, err = run(capsys, "fit-ethanol", "--ethanol", big, "--food", big)
        assert got == EXIT_DATA
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        assert json.loads(err)["type"] == "DomainError"
        got, out, err = run(capsys, "correlate", "--a", big, "--b", big)
        assert (got, err) == (EXIT_OK, "")
        assert json.loads(out)["rho"] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("a, b", [
        ([1e300 * (-1) ** t for t in range(12)],
         [1e300 * (-1) ** (t // 2) for t in range(12)]),
        ([1.7e308 * (-1) ** t for t in range(12)],
         [1e300 * (1 + t % 3) for t in range(12)]),
        ([1e-170 * (1 + t % 5) for t in range(12)],
         [1e-170 * (3 - t % 4) for t in range(12)]),
        ([1e-162 * (t % 2) for t in range(12)],
         [1e-162 * (t % 3 == 0) for t in range(12)]),
        ([1e-170 * (t % 3) for t in range(12)],
         [1e300 * (t % 4) for t in range(12)]),
    ], ids=["alternating-1e300", "1.7e308-vs-1e300", "spread-1e-170",
            "spread-1e-162", "1e-170-vs-1e300"])
    @pytest.mark.parametrize("command", [
        "correlate --a a.csv --b b.csv",
        "lagscan --a a.csv --b b.csv --max-lag 3 --frequency annual --format json",
        "fit-ethanol --ethanol a.csv --food b.csv --exclude 2:4",
    ], ids=["correlate", "lagscan", "fit-ethanol"])
    def test_extreme_magnitudes_keep_the_contract(self, capsys, tmp_path,
                                                  monkeypatch, a, b, command):
        """Sums of Python floats that overflow, and spreads whose squares
        underflow, end in exit 3 with one JSON line, or in finite numbers."""
        monkeypatch.chdir(tmp_path)
        write_annual_csv(tmp_path / "a.csv", a)
        write_annual_csv(tmp_path / "b.csv", b)
        got, out, err = run(capsys, *command.split())
        if got == EXIT_OK:
            assert err == ""
            json.loads(out, parse_constant=_reject_non_finite)
        else:
            assert got == EXIT_DATA
            assert out == "" and err.endswith("\n") and err.count("\n") == 1
            assert json.loads(err)["type"] in ("DomainError",
                                               "DegenerateInputError")

    def test_constant_food_is_degenerate(self, capsys, tmp_path):
        # r2 is undefined; fit-combined and fit-sd reject the file alike
        write_series_csv(tmp_path / "c60.csv", [100.0] * 60)
        c60 = str(tmp_path / "c60.csv")
        errors = []
        for argv in (["fit-combined", "--food", c60],
                     ["fit-sd", "--price", c60, "--consumption", c60,
                      "--surplus", c60, "--frequency", "monthly"]):
            got, out, err = run(capsys, *argv)
            assert got == EXIT_DATA
            assert out == "" and err.endswith("\n") and err.count("\n") == 1
            errors.append(json.loads(err))
        assert errors[0] == errors[1] == {"error": "constant observed series",
                                          "type": "DegenerateInputError"}

    def test_constant_fit_sd_prices_with_inexact_mean(self, capsys, tmp_path):
        """Prices of 0.1, whose mean is not exact in binary, are as constant
        as prices of 100.0: the same exit code and the same error line."""
        write_annual_csv(tmp_path / "q.csv", [100.0 + t for t in range(15)])
        write_annual_csv(tmp_path / "s.csv", [(-1.0) ** t for t in range(15)])
        outcomes = []
        for level in (0.1, 100.0):
            write_annual_csv(tmp_path / "p.csv", [level] * 15)
            outcomes.append(run(capsys, "fit-sd", "--price", str(tmp_path / "p.csv"),
                                "--consumption", str(tmp_path / "q.csv"),
                                "--surplus", str(tmp_path / "s.csv")))
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert code == EXIT_DATA and out == ""
        assert json.loads(err) == {"error": "constant observed series",
                                   "type": "DegenerateInputError"}

    @pytest.mark.parametrize("text", [
        "date,value\n2004-01," + "1" * 200_000 + "\n",
        "date,value," + "x" * 200_000 + "\n2004-01,1,2\n",
    ], ids=["cell", "header"])
    def test_field_over_the_csv_limit_is_data_error(self, capsys, tmp_path, text):
        f = tmp_path / "big.csv"
        f.write_text(text)
        got, out, err = run(capsys, "correlate", "--frequency", "monthly",
                            "--a", str(f), "--b", str(f))
        assert got == EXIT_DATA
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        assert json.loads(err) == {
            "error": f"cannot read {f}: field larger than field limit (131072)",
            "type": "DataError"}

    def test_nan_parameter_is_named(self, capsys):
        got, _, err = run(capsys, *"simulate-spec --ksd nan --kc 1 --p0 1 "
                                   "--steps 5".split())
        assert got == EXIT_USAGE
        assert "k_sd" in json.loads(err)["error"]

    def test_nan_sd_parameter_is_named(self, capsys, tmp_path):
        (tmp_path / "s.csv").write_text("date,value\n1990,0\n1991,-1\n")
        got, _, err = run(capsys, "simulate-sd", "--surplus", str(tmp_path / "s.csv"),
                          "--lambda=nan", "--alpha-d=1", "--beta-d=1",
                          "--alpha-s=0", "--beta-s=1")
        assert got == EXIT_USAGE
        assert "lam" in json.loads(err)["error"]

    def test_bad_frequency_names_the_type(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-sd", "--surplus", "s.csv", "--frequency", "weekly",
                  "--alpha-d=1", "--beta-d=1", "--alpha-s=0", "--beta-s=1"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        error = json.loads(captured.err)
        assert error == {"error": "argument --frequency: invalid Frequency "
                                  "value: 'weekly'", "type": "UsageError"}

    @pytest.mark.parametrize("command", ["fit-sd", "fit-ethanol", "fit-combined",
                                         "correlate"])
    def test_json_only_command_rejects_csv(self, capsys, command):
        # argparse rejects the choice before any input is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "csv"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestClosedStdout:
    """A reader that closes the pipe early ends the command quietly, the way
    a Unix filter does: exit 0 and nothing on stderr."""

    @staticmethod
    def spawn(argv, stdout, stderr):
        # stdout block-buffered, as under a shell, so output can still sit in
        # the buffer when the command returns
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.Popen([sys.executable, "-m", "bubbledyn.cli", *argv.split()],
                                stdout=stdout, stderr=stderr,
                                env={**env, "PYTHONPATH": str(SRC)})

    @pytest.mark.parametrize("fmt, first", [
        ("csv", b"k_sd,k_sp,delta,label,period\r\n"), ("json", b"{\n")],
        ids=["csv", "json"])
    def test_reader_closes_after_first_line(self, tmp_path, fmt, first):
        with open(tmp_path / "err", "wb") as err:
            proc = self.spawn(f"phase --ksd 0:5:300 --ksp 0:2:300 --format {fmt}",
                              subprocess.PIPE, err)
            line = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=120) == EXIT_OK
        assert line == first
        assert (tmp_path / "err").read_bytes() == b""

    def test_reader_closed_before_any_output(self, tmp_path):
        read, write = os.pipe()
        os.close(read)
        with open(tmp_path / "err", "wb") as err:
            proc = self.spawn("simulate-spec --ksd 0.5 --kc 1 --p0 1 --steps 3 "
                              "--format json", write, err)
        os.close(write)
        assert proc.wait(timeout=120) == EXIT_OK
        assert (tmp_path / "err").read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestFullStdout:
    """A stdout that cannot take the output (a full device) is a data error:
    exit 3, one JSON line on stderr and nothing more, buffered or not."""

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_exits_3_with_one_error_line(self, tmp_path, unbuffered):
        write_series_csv(tmp_path / "a.csv", [1.0, 3.0, 2.0])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bubbledyn.cli", "correlate",
                 "--frequency", "monthly", "--a", "a.csv", "--b", "a.csv"],
                stdout=full, stderr=subprocess.PIPE, cwd=tmp_path, timeout=120,
                env={**env, "PYTHONPATH": str(SRC)})
        assert proc.returncode == EXIT_DATA
        assert json.loads(proc.stderr) == {
            "error": "cannot write <stdout>: [Errno 28] No space left on device",
            "type": "DataError"}
        assert proc.stderr.count(b"\n") == 1


class TestFitCombinedOverflow:
    """A fit whose sum of squares or linear seed overflows is one JSON error
    line; run in a subprocess, because LAPACK writes its messages straight to
    the process's file descriptors, where capsys does not see them."""

    @pytest.mark.parametrize("food_at_50, market", [
        (1e308, None), (None, [1.7e308 * (-1) ** t for t in range(88)])],
        ids=["food-1e308", "market-alternating-1.7e308"])
    def test_exits_4_with_one_error_line(self, tmp_path, food_at_50, market):
        food = 105.0 + 0.01 * np.arange(88.0) ** 2
        argv = ["fit-combined", "--food", str(tmp_path / "food.csv")]
        if food_at_50 is not None:
            food[50] = food_at_50
        if market is not None:
            write_series_csv(tmp_path / "market.csv", market)
            argv += ["--market", str(tmp_path / "market.csv")]
        write_series_csv(tmp_path / "food.csv", food)
        proc = subprocess.run([sys.executable, "-m", "bubbledyn.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == EXIT_FIT
        assert proc.stdout == ""
        assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["type"] == "FitError"


class TestDataDirEnvVar:
    def test_fixture_root_fallback(self, capsys, tmp_path, monkeypatch):
        write_series_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        monkeypatch.setenv("BUBBLEDYN_DATA_DIR", str(tmp_path))
        code, out, _ = run(capsys, "correlate", "--a", "a.csv", "--b", "a.csv",
                           "--frequency", "monthly")
        assert code == EXIT_OK
        assert json.loads(out)["rho"] == pytest.approx(1.0)

    @pytest.mark.parametrize("data_dir", [False, True])
    @pytest.mark.parametrize("length", [300, 5000])
    def test_name_the_os_rejects_is_data_error(self, capsys, tmp_path,
                                                monkeypatch, data_dir, length):
        # the data directory is tried for a name that does not exist, and
        # this one cannot: the OS rejects it as too long
        write_series_csv(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
        monkeypatch.chdir(tmp_path)
        if data_dir:
            monkeypatch.setenv("BUBBLEDYN_DATA_DIR", str(tmp_path))
        else:
            monkeypatch.delenv("BUBBLEDYN_DATA_DIR", raising=False)
        name = "a" * length
        code, out, err = run(capsys, "correlate", "--a", name, "--b", "a.csv",
                             "--frequency", "monthly")
        assert (code, out) == (EXIT_DATA, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["type"] == "DataError" and name in error["error"]


class TestHelpReflection:
    def test_every_subcommand_help_lists_all_flags(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if hasattr(a, "choices") and a.choices)
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in help_text, (name, option)


class TestHelpers:
    def test_default_bubble_windows_calendar(self):
        food = monthly(range(88), start=(2004, 1))  # through 2011-04
        windows = default_bubble_windows(food)
        assert [(w.begin_index, w.end_index) for w in windows] \
            == [(36, 60), (77, 88)]

    def test_switch_candidates(self):
        food = monthly(range(88), start=(2004, 1))
        assert switch_candidates_for_year(food, 2007) == list(range(36, 48))

    def test_switch_candidates_leave_out_the_last_month(self):
        # no update follows the last month, so none is gated from it
        through_2007 = monthly(range(48), start=(2004, 1))
        assert switch_candidates_for_year(through_2007, 2007) == list(range(36, 47))
        with pytest.raises(DataError, match="no month of 2008 lies strictly inside"):
            switch_candidates_for_year(monthly(range(49), start=(2004, 1)), 2008)


class TestCalendarHelpers:
    """The CLI's calendar spans against a walk over every calendar month."""

    @given(st.integers(2000, 2012), st.integers(1, 12), st.integers(1, 120),
           st.integers(1998, 2014))
    def test_switch_candidates_match_month_walk(self, year, month, n, switch_year):
        food = monthly(range(n), start=(year, month))
        expected = []
        for date in month_walk((switch_year, 1), (switch_year + 1, 1)):
            index = ordinal(date, food.frequency) - food.start_ordinal
            if 1 <= index < n - 1:
                expected.append(index)
        if expected:
            assert switch_candidates_for_year(food, switch_year) == expected
        else:
            with pytest.raises(DataError):
                switch_candidates_for_year(food, switch_year)

    @given(st.integers(2000, 2012), st.integers(1, 12), st.integers(1, 160))
    def test_default_bubble_windows_match_month_walk(self, year, month, n):
        food = monthly(range(n), start=(year, month))
        expected = []
        for begin, end in (((2007, 1), (2009, 1)), ((2010, 6), food.date_at(n))):
            inside = [ordinal(d, food.frequency) - food.start_ordinal
                      for d in month_walk(begin, end)
                      if food.start <= d < food.date_at(n)]
            if inside:
                expected.append((inside[0], inside[-1] + 1))
        assert [(w.begin_index, w.end_index)
                for w in default_bubble_windows(food)] == expected

    def test_annual_series(self):
        food = annual(range(13), start=(2000, 1))
        # each year once, not once per month of the year
        assert switch_candidates_for_year(food, 2007) == [7]
        assert [(w.begin_index, w.end_index)
                for w in default_bubble_windows(food)] == [(7, 9), (10, 13)]
