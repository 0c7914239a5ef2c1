"""No command imports scipy: the fits run on numpy alone.

Each case runs in a fresh interpreter in which ``import scipy`` fails, since
this test process may have imported scipy for the solver's oracle test.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bubbledyn import SupplyDemandParams, emit, simulate_equilibrium_path

from conftest import annual

SRC = Path(__file__).resolve().parent.parent / "src"

#: Blocks scipy, imports the package, runs the CLI on its argv (if any) and
#: prints the exit code and whether any scipy module was loaded.
PROBE = """
import sys
sys.modules["scipy"] = None
import bubbledyn
from bubbledyn.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, any(name.split(".")[0] == "scipy" and module is not None
                for name, module in sys.modules.items()))
"""


def probe(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.split()
    return int(code), loaded == "True"


@pytest.mark.parametrize("argv", [
    "",
    "phase --ksd 0:5:40 --ksp 0:2:40 -o grid.csv",
    "simulate-spec --ksd 0.3 --ksp 1.1 --kc 9 --p0 30 --p1 31 --steps 20 -o path.csv",
])
def test_non_fitting_process_never_imports_optimize(tmp_path, argv):
    assert probe(argv.split(), tmp_path) == (0, False)


def test_fits_run_without_scipy(tmp_path):
    from test_combined import make_food

    truth = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
    surplus = annual(np.random.default_rng(2).normal(scale=8.0, size=8),
                     start=(1982, 1))
    path = simulate_equilibrium_path(surplus, truth)
    food, (equity, yields) = make_food(88)
    for name, series in [("price", path.prices), ("consumption", path.quantities),
                         ("surplus", surplus), ("food", food), ("equity", equity),
                         ("yields", yields)]:
        emit(series, "csv", tmp_path / f"{name}.csv")
    for argv in ("fit-sd --price price.csv --consumption consumption.csv "
                 "--surplus surplus.csv -o fit.json",
                 "fit-combined --food food.csv --market equity.csv "
                 "--market yields.csv -o combined.json"):
        assert probe(argv.split(), tmp_path) == (0, False)
