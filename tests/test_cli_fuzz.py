"""The CLI contract on generated arguments and CSV files.

Every run ends one of two ways: exit 0 with an empty stderr and, on stdout,
JSON that holds only finite numbers; or exit 2, 3 or 4 with nothing on
stdout and one JSON line with keys ``error`` and ``type`` on stderr.  A
RuntimeWarning counts as a break of the contract; ``main`` ignores those
raised while it runs the command, so the check holds there by construction
and catches only the ones raised around it.
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from bubbledyn.cli import main

NUMBERS = ("0", "1", "-1", "0.5", "2", "1e-9", "1e154", "1e200", "1e308",
           "-1e308", "nan", "inf", "-inf", "junk")
CELLS = NUMBERS + ("1e300", "-1e300", "1_0", "")
HEADERS = ("date,value", "value,date", "date,value,note")
FIELD_COUNTS = (None,) * 6 + (0, 1, 2, 3)  # None keeps the header's count

# half the draws are plain values, so that runs also reach a result
numbers = st.one_of(st.sampled_from(NUMBERS), st.floats(0.01, 3.0).map(repr))
plain_cells = st.floats(-100.0, 100.0).map(repr)
# prices and quantities that the supply/demand fit's Box-Cox transform takes
positive_cells = st.floats(0.01, 100.0).map(repr)
cells = st.one_of(st.sampled_from(CELLS), plain_cells)


@st.composite
def csv_files(draw, frequency, plain=plain_cells):
    """At most 30 rows of consecutive dates with blank lines between some,
    each cell drawn from ``plain``; in a spoiled file, cells come from the
    pool and some rows have another field count than the header."""
    spoiled = draw(st.integers(0, 2)) == 0
    header = draw(st.sampled_from(HEADERS))
    year, month = draw(st.integers(2000, 2003)), draw(st.integers(1, 12))
    lines = [header]
    for i in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        y, m = divmod(year * 12 + month - 1 + i, 12)
        date = f"{y:04d}-{m + 1:02d}" if frequency == "monthly" else f"{year + i:04d}"
        fields = {"date": date, "value": draw(cells if spoiled else plain),
                  "note": "x"}
        row = [fields[name] for name in header.split(",")]
        count = draw(st.sampled_from(FIELD_COUNTS)) if spoiled else None
        lines.append(",".join(row if count is None else (row + ["9"])[:count]))
    return "\n".join(lines) + "\n"


@st.composite
def cases(draw):
    """An argv list and the CSV files it reads, by name."""
    command = draw(st.sampled_from(("phase", "simulate-spec", "simulate-sd",
                                    "correlate", "lagscan", "fit-ethanol",
                                    "fit-sd")))
    if command == "phase":
        points = st.integers(-1, 41).map(lambda n: "junk" if n == 41 else str(n))
        plain = st.tuples(st.floats(0.0, 2.0).map(repr), st.floats(2.5, 5.0).map(repr),
                          st.integers(2, 40).map(str))
        axis = st.one_of(st.tuples(numbers, numbers, points), plain).map(":".join)
        return [command, f"--ksd={draw(axis)}", f"--ksp={draw(axis)}",
                "--format=json"], {}
    if command == "simulate-spec":
        argv = [command, *(f"--{name}={draw(numbers)}"
                           for name in ("ksd", "ksp", "kc", "p0")),
                f"--steps={draw(st.integers(-1, 300))}", "--format=json"]
        return argv + ([f"--p1={draw(numbers)}"] if draw(st.booleans()) else []), {}
    frequency = draw(st.sampled_from(("monthly", "annual")))
    if command == "fit-sd":
        files = {"p.csv": draw(csv_files(frequency, positive_cells)),
                 "q.csv": draw(csv_files(frequency, positive_cells)),
                 "s.csv": draw(csv_files(frequency))}
        return [command, f"--frequency={frequency}", "--price=p.csv",
                "--consumption=q.csv", "--surplus=s.csv"], files
    files = {"a.csv": draw(csv_files(frequency)), "b.csv": draw(csv_files(frequency))}
    argv = [command, f"--frequency={frequency}"]
    if command == "simulate-sd":
        argv += ["--surplus=a.csv", *(
            f"--{name}={draw(numbers)}"
            for name in ("lambda", "alpha-d", "beta-d", "alpha-s", "beta-s"))]
    elif command == "fit-ethanol":
        argv += ["--ethanol=a.csv", "--food=b.csv"]
        if draw(st.booleans()):
            bounds = st.integers(-1, 31)
            argv.append(f"--exclude={draw(bounds)}:{draw(bounds)}")
    else:
        argv += ["--a=a.csv", "--b=b.csv"]
        if command == "lagscan":
            argv += [f"--max-lag={draw(st.integers(-1, 30))}", "--format=json"]
    return argv, files


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(case=(["correlate", "--a=short.csv", "--b=short.csv"],
               {"short.csv": "value,date\n1\n"}))
@example(case=(["phase", "--ksd=0:1e200:2", "--ksp=0:1:2", "--format=json"], {}))
@example(case=(["correlate", "--frequency=monthly", "--a=a.csv", "--b=b.csv"],
               {"a.csv": "date,value\n" + "".join(
                   f"2004-{m:02d},{1e300 * (-1) ** m!r}\n" for m in range(1, 9)),
                "b.csv": "date,value\n" + "".join(
                   f"2004-{m:02d},{1e300 * (-1) ** (m // 2)!r}\n"
                   for m in range(1, 9))}))
@example(case=(["simulate-sd", "--surplus=s.csv", "--alpha-d=-1e200", "--beta-d=1",
                "--alpha-s=0", "--beta-s=1e154"],
               {"s.csv": "date,value\n1990,1\n1991,-1\n"}))
@given(case=cases())
def test_cli_contract(tmp_path, monkeypatch, case):
    argv, files = case
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert set(json.loads(err)) == {"error", "type"}
