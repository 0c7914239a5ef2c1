import itertools
import os
from pathlib import Path

import pytest

from bubbledyn import Frequency, TimeSeries


def fixture_dir() -> Path:
    root = os.environ.get("BUBBLEDYN_DATA_DIR")
    if root:
        return Path(root)
    return Path(__file__).resolve().parent.parent / "data"


def fixture_path(name: str) -> Path:
    return fixture_dir() / name


def require_fixtures(*names: str):
    missing = [n for n in names if not fixture_path(n).exists()]
    if missing:
        pytest.skip(
            "data fixtures absent: " + ", ".join(missing)
            + f" (looked in {fixture_dir()}; set BUBBLEDYN_DATA_DIR)")


# verdict lines collected by the acceptance tests, one per criterion
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def monthly(values, start=(2004, 1), label=""):
    return TimeSeries(start, Frequency.MONTHLY, tuple(values), label)


def annual(values, start=(1990, 1), label=""):
    return TimeSeries(start, Frequency.ANNUAL, tuple(values), label)


#: The (lambda, beta_d, beta_s) start grid that fit_supply_demand ran before
#: it took one start, (0.9, 1.0, 0.3), its index 8.
FIT_SD_GRID = list(itertools.product((0.6, 0.9, 1.1), (0.3, 1.0, 3.0), (0.3, 1.5)))
