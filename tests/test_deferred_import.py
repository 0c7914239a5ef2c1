"""``scipy.optimize`` loads at the first fit, not at import.

Each case runs in a fresh interpreter, since this test process has long
since imported scipy.
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

#: Imports the package, runs the CLI on its argv (if any) and prints the exit
#: code and whether scipy.optimize was imported.
PROBE = """
import sys
import bubbledyn
from bubbledyn.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, "scipy.optimize" in sys.modules)
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


def test_fit_imports_optimize(tmp_path):
    truth = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
    surplus = annual(np.random.default_rng(2).normal(scale=8.0, size=8),
                     start=(1982, 1))
    path = simulate_equilibrium_path(surplus, truth)
    for name, series in [("price", path.prices), ("consumption", path.quantities),
                         ("surplus", surplus)]:
        emit(series, "csv", tmp_path / f"{name}.csv")
    argv = ("fit-sd --price price.csv --consumption consumption.csv "
            "--surplus surplus.csv -o fit.json")
    assert probe(argv.split(), tmp_path) == (0, True)
