"""Command-line entry point.

Subcommands map one-to-one onto the library operations; outputs are
plot-ready CSV or JSON.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 fit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from . import data_io, timeseries
from .errors import BubbledynError, DataError, FitError
from .timeseries import Frequency, Window

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FIT = 4

#: Exit code of each caught exception type; the first match wins.  A
#: ValueError from the library means the arguments were out of range, and a
#: MemoryError that a size argument was too large to allocate.
_EXIT_CODES = ((FitError, EXIT_FIT), (BubbledynError, EXIT_DATA),
               (ValueError, EXIT_USAGE), (MemoryError, EXIT_USAGE))

#: Environment variable naming the default directory for data files.
DATA_DIR_ENV = "BUBBLEDYN_DATA_DIR"


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        candidate = Path(root) / path
        if candidate.exists():
            return candidate
    return p


def _load(path: str, frequency: Frequency, label: str = "") -> timeseries.TimeSeries:
    inverse = path.endswith(":inverse")
    return data_io.load_series(_resolve(path.removesuffix(":inverse")),
                               frequency, label, inverse)


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from None


def _parse_window(text: str) -> Window:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected begin:end, got {text!r}")
    try:
        return Window(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_output_args(p: argparse.ArgumentParser, *formats: str) -> None:
    """The first of ``formats`` is the default."""
    p.add_argument("-o", "--output", default=None,
                   help="destination file (default: stdout)")
    p.add_argument("--format", choices=formats, default=formats[0],
                   help=f"output format (default: {formats[0]})")


def _report(message: str, kind: str) -> None:
    """Write one error as a one-line JSON object to stderr."""
    json.dump({"error": message, "type": kind}, sys.stderr)
    sys.stderr.write("\n")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one JSON line, like every
    other error of the CLI; its subcommand parsers are of the same class."""

    def error(self, message: str):
        _report(message, "UsageError")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bubbledyn",
        description="Commodity-price dynamics: supply/demand, ethanol and "
                    "speculator models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-sd", help="simulate the equilibrium path "
                       "driven by a surplus series")
    p.add_argument("--surplus", required=True, help="surplus CSV")
    p.add_argument("--frequency", type=Frequency, default=Frequency.ANNUAL)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--alpha-d", type=float, required=True)
    p.add_argument("--beta-d", type=float, required=True)
    p.add_argument("--alpha-s", type=float, required=True)
    p.add_argument("--beta-s", type=float, required=True)
    _add_output_args(p, "json", "csv")

    p = sub.add_parser("simulate-spec", help="simulate the speculator price "
                       "recurrence")
    p.add_argument("--ksd", type=float, required=True)
    p.add_argument("--ksp", type=float, default=0.0)
    p.add_argument("--kc", type=float, required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--p1", type=float, default=None,
                   help="second initial price (second-order only; default p0)")
    p.add_argument("--steps", type=int, required=True)
    _add_output_args(p, "csv", "json")

    p = sub.add_parser("phase", help="regime classification over a "
                       "(k_sd, k_sp) grid")
    p.add_argument("--ksd", type=_parse_range, required=True, metavar="LO:HI:N")
    p.add_argument("--ksp", type=_parse_range, required=True, metavar="LO:HI:N")
    _add_output_args(p, "csv", "json")

    p = sub.add_parser("fit-sd", help="joint supply/demand fit to price and "
                       "consumption")
    p.add_argument("--price", required=True)
    p.add_argument("--consumption", required=True)
    p.add_argument("--surplus", required=True)
    p.add_argument("--frequency", type=Frequency, default=Frequency.ANNUAL)
    _add_output_args(p, "json")

    p = sub.add_parser("fit-ethanol", help="compare quadratic trends of "
                       "ethanol and food-price series")
    p.add_argument("--ethanol", required=True)
    p.add_argument("--food", required=True)
    p.add_argument("--frequency", type=Frequency, default=Frequency.ANNUAL)
    p.add_argument("--exclude", type=_parse_window, default=None,
                   metavar="BEGIN:END",
                   help="index window of the food series to exclude")
    _add_output_args(p, "json")

    p = sub.add_parser("fit-combined", help="fit the speculator + ethanol "
                       "model to a monthly food index")
    p.add_argument("--food", required=True)
    p.add_argument("--market", action="append", default=[],
                   help="market CSV; append ':inverse' to invert values "
                        "(e.g. bond yields)")
    p.add_argument("--switch-year", type=int, default=2007,
                   help="calendar year searched for the switch-on month")
    p.add_argument("--exclude-window", action="append", type=_parse_window,
                   default=None, metavar="BEGIN:END",
                   help="fit the paper's two stages: the background trend "
                        "outside these index windows, then the model with "
                        "that trend held fixed (default: one joint fit of "
                        "the trend and the model)")
    _add_output_args(p, "json")

    p = sub.add_parser("correlate", help="Pearson correlation of two series")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--frequency", type=Frequency, default=Frequency.ANNUAL)
    _add_output_args(p, "json")

    p = sub.add_parser("lagscan", help="lagged cross-correlation sweep")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-lag", type=int, required=True)
    p.add_argument("--frequency", type=Frequency, default=Frequency.MONTHLY)
    _add_output_args(p, "csv", "json")

    return parser


def _run(args: argparse.Namespace):
    """The result of the command ``args`` names, ready for ``data_io.emit``.

    Each command imports the modules that only it uses."""
    if args.command == "simulate-sd":
        from . import supply_demand

        surplus = _load(args.surplus, args.frequency, "surplus")
        params = supply_demand.SupplyDemandParams(
            args.lam, args.alpha_d, args.beta_d, args.alpha_s, args.beta_s)
        path = supply_demand.simulate_equilibrium_path(surplus, params)
        return path.prices if args.format == "csv" else path

    if args.command == "simulate-spec":
        from . import speculators

        params = speculators.SpeculatorParams(args.ksd, args.ksp, args.kc)
        if args.ksp == 0 and args.p1 is None:
            return speculators.simulate_first_order(params, args.p0, args.steps)
        p1 = args.p0 if args.p1 is None else args.p1
        return speculators.simulate_second_order(params, args.p0, p1, args.steps)

    if args.command == "phase":
        from . import speculators

        return speculators.phase_grid(args.ksd, args.ksp)

    if args.command == "fit-sd":
        from . import supply_demand

        return supply_demand.fit_supply_demand(
            _load(args.price, args.frequency, "price"),
            _load(args.consumption, args.frequency, "consumption"),
            _load(args.surplus, args.frequency, "surplus"))

    if args.command == "fit-ethanol":
        from . import ethanol

        return ethanol.trend_comparison(
            _load(args.ethanol, args.frequency, "ethanol"),
            _load(args.food, args.frequency, "food"),
            exclude_b=args.exclude)

    if args.command == "fit-combined":
        from . import combined, ethanol

        food = _load(args.food, Frequency.MONTHLY, "food")
        markets = [_load(m, Frequency.MONTHLY) for m in args.market]
        trend = (None if args.exclude_window is None
                 else ethanol.quadratic_fit(food, args.exclude_window))
        candidates = switch_candidates_for_year(food, args.switch_year)
        return combined.fit_combined(food, markets, trend, candidates)

    if args.command == "correlate":
        return {"rho": timeseries.pearson_correlation(
            _load(args.a, args.frequency), _load(args.b, args.frequency))}

    # lagscan
    return timeseries.lagged_cross_correlation(
        _load(args.a, args.frequency), _load(args.b, args.frequency),
        args.max_lag)


def switch_candidates_for_year(food: timeseries.TimeSeries, year: int) -> list[int]:
    """Indices of the given calendar year that lie inside the series, each
    once, leaving out index 0 and the last, from which no update is gated."""
    candidates = [i for i in food.indices_between((year, 1), (year + 1, 1))
                  if 1 <= i < len(food) - 1]
    if not candidates:
        raise DataError(f"no month of {year} lies strictly inside the series")
    return candidates


def _emit(result, fmt: str, output) -> None:
    """Emit to the ``-o`` file or to stdout.  A reader that closed stdout
    ends the command quietly, as a Unix filter does; any other failed write
    to stdout (a full device, say) is a DataError, as it is for a file.
    Either way the interpreter's own flush at exit then writes to /dev/null."""
    try:
        data_io.emit(result, fmt, sys.stdout if output is None else output)
        sys.stdout.flush()
    except OSError as exc:  # stdout's: emit reports a file's own as DataError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise DataError(f"cannot write <stdout>: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's floating-point warnings are RuntimeWarnings; an overflow
        # surfaces as the error it leads to, reported as one JSON line
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _emit(_run(args), args.format, args.output)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
        # a MemoryError raised by the interpreter carries no message
        _report(str(exc) or "not enough memory for the requested size",
                type(exc).__name__)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
