"""Dominant-supply-shock ethanol model and quadratic-trend comparison.

When corn-to-ethanol diversion is the only material supply shift, the food
price is an affine function of the diverted quantity, and the price and
diversion series share one functional form: pure quadratic growth.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Optional, Sequence

from .errors import DegenerateInputError, DomainError
from .timeseries import (TimeSeries, Window, align, keep_mask,
                         normalize_unit_interval, record, _centred, _pearson)


@record
class QuadraticTrend:
    """Least-squares fit of y = a + b*t**2 (no linear term)."""

    a: float
    b: float
    r_squared: float

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")


def quadratic_fit(s: TimeSeries, exclude: Sequence[Window] = ()) -> QuadraticTrend:
    """OLS on y = a + b*t**2 outside the ``exclude`` windows (e.g. price
    bubbles), t in index units: the one-regressor fit on u = t**2 about the
    means, b = S_uy / S_uu and a = mean(y) - b mean(u), with every sum
    correctly rounded.  DomainError where a sum overflows."""
    keep = keep_mask(len(s), exclude)
    y = list(compress(s.values, keep))
    if len(y) < 3:
        raise DegenerateInputError("need at least 3 usable points")
    u = [float(t * t) for t in compress(range(len(keep)), keep)]
    try:
        (u_mean, du), (y_mean, dy) = _centred(u), _centred(y)
        b = math.fsum(p * q for p, q in zip(du, dy)) / math.fsum(d * d for d in du)
        a = y_mean - b * u_mean
        sst = math.fsum(d * d for d in dy)
        sse = math.fsum((q - b * p) ** 2 for p, q in zip(du, dy))
    except (OverflowError, ValueError):
        raise DomainError("the quadratic trend overflows") from None
    if not all(map(math.isfinite, (a, b, sst, sse))):
        raise DomainError("the quadratic trend overflows")
    r2 = 1.0 if sst == 0.0 else max(0.0, 1.0 - sse / sst)
    return QuadraticTrend(a=a, b=b, r_squared=r2)


@record
class TrendComparison:
    trend_a: QuadraticTrend
    trend_b: QuadraticTrend
    coefficient_gap: float
    rho: float

    def to_dict(self) -> dict:
        return {
            "series_a": {"a": self.trend_a.a, "b": self.trend_a.b,
                         "r_squared": self.trend_a.r_squared},
            "series_b": {"a": self.trend_b.a, "b": self.trend_b.b,
                         "r_squared": self.trend_b.r_squared},
            "coefficient_gap": self.coefficient_gap,
            "rho": self.rho,
        }


def trend_comparison(series_a: TimeSeries, series_b: TimeSeries,
                     exclude_b: Optional[Window] = None) -> TrendComparison:
    """Normalize both series to [0, 1], fit quadratic growth to each, and
    correlate them over the common non-excluded span.

    ``exclude_b`` (typically a price-bubble window) is left out of series_b's
    normalization and fit.
    """
    windows = () if exclude_b is None else (exclude_b,)
    norm_a = normalize_unit_interval(series_a)
    norm_b = normalize_unit_interval(series_b, exclude=exclude_b)
    trend_a = quadratic_fit(norm_a)
    trend_b = quadratic_fit(norm_b, exclude=windows)
    kept_b = norm_b.with_values(keep_mask(len(norm_b), windows))
    av, bv, keep, _ = align(norm_a, norm_b, kept_b)
    if len(av) < 4:
        raise DegenerateInputError("overlapping span must have >= 4 points")
    rho = _pearson(list(compress(av, keep)), list(compress(bv, keep)))
    return TrendComparison(trend_a=trend_a, trend_b=trend_b,
                           coefficient_gap=trend_a.b - trend_b.b, rho=rho)
