"""No command imports scipy: the fits run on numpy alone.  The cheap
commands, and a bare ``import bubbledyn``, do not import numpy either.  No
command imports ``dataclasses``, and only ``simulate-spec`` and ``phase``
import the speculator module.

Each case runs in a fresh interpreter in which importing the blocked package
fails, since this test process may have imported it (scipy for the solver's
oracle test, numpy for nearly every test).
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bubbledyn import SupplyDemandParams, emit, simulate_equilibrium_path

from conftest import annual

SRC = Path(__file__).resolve().parent.parent / "src"

#: Blocks the module named by its first argument, imports bubbledyn, runs
#: the CLI on the remaining argv (if any) and prints the exit code and
#: whether the blocked module or any of its submodules was loaded.
PROBE = """
import sys
blocked = sys.argv[1]
sys.modules[blocked] = None
import bubbledyn
from bubbledyn.cli import main
code = main(sys.argv[2:]) if sys.argv[2:] else 0
print(code, any((name == blocked or name.startswith(blocked + ".")) and module is not None
                for name, module in sys.modules.items()))
"""


def probe(argv, cwd, blocked="scipy"):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE, blocked, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
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


#: One invocation of each command, on the files of :func:`write_inputs`.
COMMANDS = {
    "simulate-spec": "simulate-spec --ksd 0.3 --ksp 1.1 --kc 9 --p0 30 --p1 31 "
                     "--steps 20 -o out",
    "simulate-sd": "simulate-sd --surplus s.csv --lambda=0.8 --alpha-d=114 "
                   "--beta-d=1 --alpha-s=50 --beta-s=0.91 -o out",
    "phase": "phase --ksd 0:5:40 --ksp 0:2:40 -o out",
    "correlate": "correlate --a e.csv --b f.csv -o out",
    "lagscan": "lagscan --a e.csv --b f.csv --max-lag 4 --frequency annual -o out",
    "fit-ethanol": "fit-ethanol --ethanol e.csv --food f.csv --exclude 8:9 -o out",
    "fit-sd": "fit-sd --price price.csv --consumption consumption.csv "
              "--surplus surplus.csv -o out",
    "fit-combined": "fit-combined --food food.csv --market equity.csv "
                    "--market yields.csv -o out",
}

#: The commands that compute on Python floats alone.
CHEAP = ("simulate-spec", "simulate-sd", "correlate", "lagscan", "fit-ethanol")


def write_inputs(tmp_path):
    """Short annual series for the cheap commands, and noiseless data that
    the two fits recover exactly."""
    from test_combined import make_food

    for name, values in [("s", [0.0, -3.5, 2.25, 1.0, -0.75, 4.0]),
                         ("e", [1.5, 1.75, 2.25, 2.5, 3.5, 4.0, 5.25, 6.5, 8.0,
                                9.25, 11.0, 13.0]),
                         ("f", [90.0, 91.5, 90.25, 93.0, 95.5, 97.0, 100.25,
                                104.0, 131.0, 112.5, 118.0, 123.5])]:
        (tmp_path / f"{name}.csv").write_text("date,value\n" + "".join(
            f"{1990 + i},{v!r}\n" for i, v in enumerate(values)))
    truth = SupplyDemandParams(1.0, 300.0, 1.0, 150.0, 1.0)
    surplus = annual(np.random.default_rng(2).normal(scale=8.0, size=8),
                     start=(1982, 1))
    path = simulate_equilibrium_path(surplus, truth)
    food, (equity, yields) = make_food(88)
    for name, series in [("price", path.prices), ("consumption", path.quantities),
                         ("surplus", surplus), ("food", food), ("equity", equity),
                         ("yields", yields)]:
        emit(series, "csv", tmp_path / f"{name}.csv")


def test_fits_run_without_scipy(tmp_path):
    write_inputs(tmp_path)
    for command in ("fit-sd", "fit-combined"):
        assert probe(COMMANDS[command].split(), tmp_path) == (0, False)


@pytest.mark.parametrize("command", ("import", *CHEAP))
def test_cheap_command_never_imports_numpy(tmp_path, command):
    write_inputs(tmp_path)
    argv = COMMANDS.get(command, "").split()
    assert probe(argv, tmp_path, blocked="numpy") == (0, False)


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_imports_dataclasses(tmp_path, command):
    write_inputs(tmp_path)
    assert probe(COMMANDS[command].split(), tmp_path, blocked="dataclasses") == (0, False)


@pytest.mark.parametrize("command", ("import", "simulate-sd", "correlate",
                                     "lagscan", "fit-ethanol"))
def test_only_the_speculator_commands_import_speculators(tmp_path, command):
    write_inputs(tmp_path)
    argv = COMMANDS.get(command, "").split()
    assert probe(argv, tmp_path, blocked="bubbledyn.speculators") == (0, False)


#: The names ``bubbledyn`` exported when its ``__init__`` imported every module.
EXPORTS = (
    "CombinedFit", "CombinedParams", "fit_combined", "simulate_combined",
    "derive_surplus", "emit", "load_series",
    "AlignmentError", "BubbledynError", "DataError", "DegenerateInputError",
    "DomainError", "FitError",
    "QuadraticTrend", "TrendComparison", "quadratic_fit", "trend_comparison",
    "FitReport", "minimize", "r_squared",
    "PhaseGrid", "Regime", "RegimeClassification", "SpeculatorParams",
    "classify", "closed_form_first_order", "closed_form_second_order",
    "oscillation_theta", "phase_grid", "simulate_first_order",
    "simulate_second_order",
    "EquilibriumPath", "SupplyDemandFit", "SupplyDemandParams", "equilibrium",
    "fit_supply_demand", "shock_update", "simulate_equilibrium_path",
    "Frequency", "LagScan", "TimeSeries", "Window", "box_cox",
    "inverse_box_cox", "lagged_cross_correlation", "normalize_unit_interval",
    "pearson_correlation",
    "__version__",
)


def test_lazy_package_keeps_every_export():
    import bubbledyn

    scope = {}
    exec(f"from bubbledyn import {', '.join(EXPORTS)}", scope)
    listed = dir(bubbledyn)
    for name in EXPORTS:
        assert name in listed
        assert getattr(bubbledyn, name) is scope[name]
    assert bubbledyn.fit_combined is importlib.import_module(
        "bubbledyn.combined").fit_combined
    with pytest.raises(AttributeError, match="no attribute 'index_of'"):
        bubbledyn.index_of
