"""Dominant-supply-shock ethanol model and quadratic-trend comparison.

When corn-to-ethanol diversion is the only material supply shift, the food
price is an affine function of the diverted quantity, and the price and
diversion series share one functional form: pure quadratic growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError
from .timeseries import (TimeSeries, Window, align, keep_mask,
                         normalize_unit_interval, _pearson)


@dataclass(frozen=True)
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
    bubbles), t in index units."""
    y = s.to_array()
    keep = keep_mask(len(y), exclude)
    y, t = y[keep], np.arange(len(keep), dtype=float)[keep]
    if len(y) < 3:
        raise DegenerateInputError("need at least 3 usable points")
    design = np.column_stack([np.ones_like(t), t * t])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    sst = float(np.sum((y - y.mean()) ** 2))
    sse = float(np.sum((y - fitted) ** 2))
    r2 = 1.0 if sst == 0.0 else max(0.0, 1.0 - sse / sst)
    return QuadraticTrend(a=float(coef[0]), b=float(coef[1]), r_squared=r2)


@dataclass(frozen=True)
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
    keep = keep.astype(bool)
    rho = _pearson(av[keep], bv[keep])
    return TrendComparison(trend_a=trend_a, trend_b=trend_b,
                           coefficient_gap=trend_a.b - trend_b.b, rho=rho)
