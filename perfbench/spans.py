"""Tracing from outside the program: wrappers around ``bubbledyn``'s public
functions that record spans and per-layer counts.

A span is (name, start, end, parent, job).  Hot leaf functions, called up to
~10^5 times per job, get no span per call; like every traced function they
add to these sums on each call:

* ``calls[name]``, ``total[name]``: calls and inclusive seconds;
* ``self_s[name]``: seconds minus the time of traced calls nested inside;
* ``layer_s[layer]``, ``layer_calls[layer]``: seconds in the layer's
  outermost calls, so a layer calling itself is not counted twice, and all
  its calls.

Layers are the modules of ``bubbledyn``.  A wrapper replaces its function on
every ``bubbledyn`` module that binds it, so names re-bound by ``from ...
import`` (``combined.classify``, ``supply_demand.inverse_box_cox``) are
traced too.  A function a later version no longer has is skipped, and its
counts stay 0.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

#: (module, function) pairs traced with one span per call.
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("data_io", "load_series"), ("data_io", "emit"),
    ("timeseries", "align"), ("timeseries", "pearson_correlation"),
    ("timeseries", "lagged_cross_correlation"),
    ("timeseries", "normalize_unit_interval"),
    ("speculators", "phase_grid"), ("speculators", "simulate_first_order"),
    ("speculators", "simulate_second_order"),
    ("combined", "fit_combined"), ("combined", "fit_background_trend"),
    ("fitting", "minimize"),
    ("supply_demand", "fit_supply_demand"),
    ("supply_demand", "simulate_equilibrium_path"),
    ("ethanol", "trend_comparison"), ("ethanol", "quadratic_fit"),
]

#: (module, function) pairs traced by the sums only.
LEAF_FUNCTIONS = [
    ("speculators", "classify"),
    ("timeseries", "box_cox"), ("timeseries", "inverse_box_cox"),
]

#: The per-name and per-layer sums of a dump.
SUMS = ("calls", "total", "self_s", "layer_s", "layer_calls", "counts")

#: Fits whose ``fitting.minimize`` calls are attributed to them.
FIT_FUNCTIONS = [("combined", "fit_combined"),
                 ("supply_demand", "fit_supply_demand")]


class Tracer:
    """Spans and sums of one process; ``install`` patches ``bubbledyn``."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        # fitting.starts, fitting.nfev, data_io.emit.bytes
        self.counts: dict[str, int] = defaultdict(int)
        # per fit: objective calls counted in all its minimize calls and in
        # the one whose report the fit returned, and the evaluations that
        # report claims
        self.fits: list[dict] = []
        self.job = None
        self._frames: list[list] = []  # [seconds of nested calls, span index]
        self._depth: dict[str, int] = defaultdict(int)
        self._fit_stack: list[list] = []

    def _call(self, name: str, layer: str, keep: bool, fn, args, kwargs):
        index = None
        if keep:
            parent = next((f[1] for f in reversed(self._frames)
                           if f[1] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.job])
        frame = [0.0, index]
        self._frames.append(frame)
        outermost = self._depth[layer] == 0
        self._depth[layer] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._depth[layer] -= 1
            self._frames.pop()
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_s[name] += duration - frame[0]
            self.layer_calls[layer] += 1
            if outermost:
                self.layer_s[layer] += duration
            if self._frames:
                self._frames[-1][0] += duration
            if keep:
                self.spans[index][1:3] = [start, end]

    def wrap(self, layer: str, name: str, fn, keep: bool = True):
        def traced(*args, **kwargs):
            return self._call(name, layer, keep, fn, args, kwargs)

        return traced

    def _minimize(self, fn):
        """Traces ``fitting.minimize`` and the objective handed to it; the
        objective is named after the module that defined it."""
        traced_minimize = self.wrap("fitting", "fitting.minimize", fn)

        def minimize(objective, starts, *args, **kwargs):
            layer = getattr(objective, "__module__", "").rsplit(".", 1)[-1]
            inner = self.wrap(layer, f"{layer}.objective", objective, keep=False)
            counted = [0]

            def counted_objective(*a, **k):
                counted[0] += 1
                return inner(*a, **k)

            report = traced_minimize(counted_objective, starts, *args, **kwargs)
            if self._fit_stack:
                self._fit_stack[-1].append((report, counted[0]))
            self.counts["fitting.starts"] += len(starts)
            self.counts["fitting.nfev"] += counted[0]
            return report

        return minimize

    def _fit(self, layer: str, fn):
        traced = self.wrap(layer, f"{layer}.{fn.__name__}", fn)

        def fit(*args, **kwargs):
            self._fit_stack.append([])
            try:
                result = traced(*args, **kwargs)
            finally:
                minimizes = self._fit_stack.pop()
            chosen = getattr(result, "report", None)
            self.fits.append({
                "job": self.job, "fit": f"{layer}.{fn.__name__}",
                "nfev": sum(n for _, n in minimizes),
                "winner_nfev": sum(n for r, n in minimizes if r is chosen),
                "reported_nfev": getattr(chosen, "evaluations", 0)})
            return result

        return fit

    def _emit(self, fn):
        traced = self.wrap("data_io", "data_io.emit", fn)

        def emit(obj, fmt, destination):
            if hasattr(destination, "write"):
                destination.flush()
                before = _tell(destination)
                traced(obj, fmt, destination)
                destination.flush()
                after = _tell(destination)
                if before is not None and after is not None:
                    self.counts["data_io.emit.bytes"] += after - before
            else:
                traced(obj, fmt, destination)
                self.counts["data_io.emit.bytes"] += os.path.getsize(destination)

        return emit

    def install(self) -> None:
        """Replace the traced functions on every ``bubbledyn`` module."""
        wrappers = {}
        for layer, func_name in SPAN_FUNCTIONS + LEAF_FUNCTIONS:
            try:
                module = importlib.import_module(f"bubbledyn.{layer}")
            except ImportError:
                continue
            fn = getattr(module, func_name, None)
            if fn is None:
                continue
            if (layer, func_name) == ("fitting", "minimize"):
                wrapper = self._minimize(fn)
            elif (layer, func_name) in FIT_FUNCTIONS:
                wrapper = self._fit(layer, fn)
            elif (layer, func_name) == ("data_io", "emit"):
                wrapper = self._emit(fn)
            else:
                wrapper = self.wrap(layer, f"{layer}.{func_name}", fn,
                                    keep=(layer, func_name) in SPAN_FUNCTIONS)
            wrappers[id(fn)] = (fn, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "bubbledyn" and not name.startswith("bubbledyn."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self) -> dict:
        return {"spans": self.spans, "fits": self.fits,
                **{key: dict(getattr(self, key)) for key in SUMS}}


def _tell(stream):
    try:
        return stream.tell()
    except (OSError, ValueError):  # a pipe or terminal has no position
        return None


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several processes into one."""
    merged = {"spans": [], "fits": [], **{key: defaultdict(float) for key in SUMS}}
    for d in dumps:
        offset = len(merged["spans"])
        merged["spans"] += [[n, s, e, None if p is None else p + offset, j]
                            for n, s, e, p, j in d["spans"]]
        merged["fits"] += d["fits"]
        for key in SUMS:
            for k, v in d[key].items():
                merged[key][k] += v
    return merged


def import_program(root):
    """Import ``bubbledyn.cli`` from the checkout's ``src`` and make sure it
    is that copy, not one installed elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import bubbledyn.cli

    location = os.path.realpath(bubbledyn.__file__)
    if not location.startswith(str(src) + os.sep):
        raise ImportError(f"bubbledyn imported from {location}, not from {src}")
    return bubbledyn.cli
