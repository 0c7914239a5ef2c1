"""Time-series container and shared statistical primitives.

All functions here are pure; :class:`TimeSeries` is immutable after
construction, so everything is safe to call concurrently.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress
from typing import Optional, Sequence

from .errors import AlignmentError, DegenerateInputError, DomainError

#: Below this |lambda| the Box-Cox transform switches to its logarithm branch.
#: Small enough that the jump at the switch stays under 1e-6 for x <= 100.
LAMBDA_EPS = 1e-8


class Frequency(Enum):
    MONTHLY = "monthly"
    ANNUAL = "annual"


def record(cls):
    """Make ``cls`` a frozen value class over its annotated fields, as
    ``dataclass(frozen=True)`` does: the constructor takes the fields in
    order, by position or keyword, a class attribute of a field's name is
    its default, and ``__post_init__`` runs last; setting or deleting an
    attribute raises AttributeError; ``==``, ``hash`` and ``repr`` go by
    the field values.  Built from closures, so no module is imported."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    known = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        fields = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or fields.keys() != known \
                or not kwargs.keys().isdisjoint(names[:len(args)]):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, "
                            f"with the defaults {defaults}")
        self.__dict__.update((name, fields[name]) for name in names)
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def values(self):
        return tuple(self.__dict__[name] for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = zip(names, values(self))
        return f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        setattr(cls, method.__name__, method)
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes`` to its fields; its
    ``__post_init__`` runs again."""
    return type(obj)(**{**vars(obj), **changes})


@record
class Window:
    """Half-open index range [begin_index, end_index)."""

    begin_index: int
    end_index: int

    def __post_init__(self):
        if self.begin_index < 0:
            raise ValueError("begin_index must be >= 0")
        if self.end_index <= self.begin_index:
            raise ValueError("end_index must exceed begin_index")


def keep_mask(n: int, windows: Sequence[Window]) -> list[bool]:
    """Whether each index 0..n-1 lies outside every window; a window
    reaching past index n - 1 raises ValueError."""
    keep = [True] * n
    for w in windows:
        if w.end_index > n:
            raise ValueError("exclusion window exceeds series length")
        keep[w.begin_index:w.end_index] = [False] * (w.end_index - w.begin_index)
    return keep


def ordinal(date: tuple[int, int], frequency: Frequency) -> int:
    """Position of ``date`` on the frequency's calendar axis (months since
    year 0 for monthly series, the year for annual ones)."""
    year, month = date
    return year * 12 + month - 1 if frequency is Frequency.MONTHLY else year


def format_date(date: tuple[int, int], frequency: Frequency) -> str:
    """"YYYY-MM" for monthly series, "YYYY" for annual ones."""
    year, month = date
    if frequency is Frequency.MONTHLY:
        return f"{year:04d}-{month:02d}"
    return f"{year:04d}"


@record
class TimeSeries:
    """Gap-free sequence of scalar observations at a fixed frequency.

    ``start`` is a (year, month) pair; index ``t`` corresponds to ``start``
    advanced by ``t`` frequency units.  ``label`` carries the units
    (e.g. "FAO index points", "mmt") and is purely descriptive.
    """

    start: tuple[int, int]
    frequency: Frequency
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        year, month = self.start
        if not 1 <= month <= 12:
            raise ValueError(f"month out of range: {month}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("TimeSeries requires at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("TimeSeries values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "start", (int(year), int(month)))

    def __len__(self) -> int:
        return len(self.values)

    def to_array(self):
        """The values as a numpy array; imports numpy."""
        import numpy as np

        return np.asarray(self.values, dtype=float)

    @property
    def start_ordinal(self) -> int:
        """:func:`ordinal` of the first observation."""
        return ordinal(self.start, self.frequency)

    def date_at(self, index: int) -> tuple[int, int]:
        position = self.start_ordinal + index
        if self.frequency is Frequency.MONTHLY:
            year, month = divmod(position, 12)
            return year, month + 1
        return position, self.start[1]

    def indices_between(self, begin: tuple[int, int],
                        end: Optional[tuple[int, int]] = None) -> range:
        """Indices of the observations dated from ``begin`` up to, not
        including, ``end`` (default: past the last one), clipped to the
        series span; dates compare by :func:`ordinal`."""
        lo = ordinal(begin, self.frequency) - self.start_ordinal
        hi = (len(self) if end is None
              else ordinal(end, self.frequency) - self.start_ordinal)
        return range(max(lo, 0), min(hi, len(self)))

    def with_values(self, values: Sequence[float], label: Optional[str] = None) -> "TimeSeries":
        return TimeSeries(self.start, self.frequency, values,
                          self.label if label is None else label)

    def to_dict(self) -> dict:
        return {"start": format_date(self.start, self.frequency),
                "frequency": self.frequency.value, "label": self.label,
                "values": list(self.values)}

    def csv_layout(self):
        """The CSV header and rows, every field a string that needs no quoting."""
        return ("date", "value"), ((format_date(self.date_at(i), self.frequency), repr(v))
                                   for i, v in enumerate(self.values))


def align(*series: TimeSeries) -> tuple:
    """Calendar-date alignment of any number of series.

    Returns one tuple of the overlapping values per series, then the common
    start date.  Frequency mismatch is an error, never silently resampled.
    """
    if len({s.frequency for s in series}) > 1:
        raise AlignmentError("frequency mismatch: "
                             + " vs ".join(s.frequency.value for s in series))
    lo = max(s.start_ordinal for s in series)
    hi = min(s.start_ordinal + len(s) for s in series)
    if hi <= lo:
        raise AlignmentError("series have no overlapping span")
    spans = [s.values[lo - s.start_ordinal: hi - s.start_ordinal] for s in series]
    return (*spans, series[0].date_at(lo - series[0].start_ordinal))


def box_cox(x: float, lam: float) -> float:
    """Power transform (x**lam - 1)/lam, continuously extended to ln(x) at
    lam = 0; DomainError where x <= 0 or the result leaves the finite floats."""
    if x <= 0:
        raise DomainError(f"box_cox requires x > 0, got {x}")
    if abs(lam) < LAMBDA_EPS:
        y = math.log(x)
    else:
        try:
            # expm1 avoids cancellation for small lam * ln(x)
            y = math.expm1(lam * math.log(x)) / lam
        except OverflowError:
            y = math.inf
    if not math.isfinite(y):
        raise DomainError(f"box_cox of {x} at lam = {lam} is not finite")
    return y


def inverse_box_cox(y: float, lam: float) -> float:
    """Exact inverse of :func:`box_cox`; DomainError where it is infeasible
    or leaves the finite floats."""
    if abs(lam) < LAMBDA_EPS:
        exponent = y
    else:
        base = lam * y + 1.0
        if base <= 0:
            raise DomainError(f"inverse_box_cox infeasible: lam*y + 1 = {base} <= 0")
        # log1p keeps the exponent accurate when lam * y is tiny
        exponent = math.log1p(lam * y) / lam
    try:
        x = math.exp(exponent)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"inverse_box_cox of {y} at lam = {lam} is not finite")
    return x


def _centred(values: Sequence[float]) -> tuple[float, list[float]]:
    """The correctly rounded mean of ``values``, and each value minus it."""
    mean = math.fsum(values) / len(values)
    return mean, [v - mean for v in values]


def _binary_unit(values: Sequence[float]) -> list[float]:
    """``values`` times the power of two that brings the largest magnitude
    into [0.5, 1); exact wherever the results stay normal."""
    shift = -math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, shift) for v in values]


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample correlation of two equal-length series of finite floats.

    Each series is first brought to :func:`_binary_unit` scale, so the
    result does not depend on either series' binary scale, and no sum of
    squares can overflow or fall into the subnormals.
    """
    (_, dx), (_, dy) = _centred(_binary_unit(xs)), _centred(_binary_unit(ys))
    sx = math.sqrt(math.fsum(d * d for d in dx))
    sy = math.sqrt(math.fsum(d * d for d in dy))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("constant series has undefined correlation")
    return math.fsum(a * b for a, b in zip(dx, dy)) / sx / sy


def pearson_correlation(xs: TimeSeries, ys: TimeSeries) -> float:
    """Sample Pearson correlation over the calendar-aligned span."""
    ax, ay, _ = align(xs, ys)
    if len(ax) < 2:
        raise DegenerateInputError("need at least 2 overlapping observations")
    return _pearson(ax, ay)


def normalize_unit_interval(s: TimeSeries, exclude: Optional[Window] = None) -> TimeSeries:
    """Affine map sending the min/max of the non-excluded points to 0/1.

    Excluded points are transformed by the same map and may land outside
    [0, 1].  DomainError where the range or a mapped value overflows.
    """
    values = s.values
    kept = list(compress(values, keep_mask(len(values),
                                           () if exclude is None else (exclude,))))
    if not kept:
        raise DegenerateInputError("exclusion window covers the whole series")
    lo, hi = min(kept), max(kept)
    if hi == lo:
        raise DegenerateInputError("all non-excluded values are equal")
    span = hi - lo
    scaled = [(v - lo) / span for v in values]
    if not all(map(math.isfinite, scaled)):
        raise DomainError("the range of the series overflows")
    return s.with_values(scaled)


@record
class LagScan:
    """Result of a lagged cross-correlation sweep.

    ``entries`` holds (lag, rho) pairs; lags with fewer than 3 overlapping
    observations are listed in ``omitted`` instead.
    """

    entries: tuple[tuple[int, float], ...]
    omitted: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {"entries": [{"lag": lag, "rho": rho} for lag, rho in self.entries],
                "omitted": list(self.omitted)}

    def csv_layout(self):
        """The CSV header and rows (the entries), every field a string that
        needs no quoting."""
        return ("lag", "rho"), ((str(lag), repr(rho)) for lag, rho in self.entries)


def lagged_cross_correlation(xs: TimeSeries, ys: TimeSeries, max_lag: int) -> LagScan:
    """Pearson rho of xs(t) against ys(t + lag) for lag = 0..max_lag."""
    if xs.frequency is not ys.frequency:
        raise AlignmentError("lagged_cross_correlation requires equal frequencies")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    entries = []
    omitted = []
    # past this lag, ys ends before the third value of xs: fewer than 3 overlap
    stop = max(0, min(max_lag + 1, ys.start_ordinal + len(ys) - xs.start_ordinal - 2))
    for lag in range(stop):
        try:
            ax, ay, _ = align(xs, replace(ys, start=ys.date_at(-lag)))
        except AlignmentError:
            ax = ()
        if len(ax) < 3:
            omitted.append(lag)
        else:
            entries.append((lag, _pearson(ax, ay)))
    omitted.extend(range(stop, max_lag + 1))
    return LagScan(tuple(entries), tuple(omitted))

