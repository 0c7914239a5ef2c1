"""Full food-price model: quadratic ethanol trend, trend-following
speculators, and coupling to alternative investment markets.

The recurrence is
    P(t+1) = k_c(t) + (1 - k_sd) P(t)
             + k_sp [P(t) - P(t-1)] + sum_i k_i [P_i(t) - P_i(t-1)]
with the speculator and coupling terms switched on at a single month index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import fitting
from .errors import AlignmentError, DegenerateInputError
from .ethanol import QuadraticTrend
from .speculators import RegimeClassification, check_domain, classify, iterate
from .timeseries import Frequency, TimeSeries, format_date


@dataclass(frozen=True)
class CombinedParams:
    k_sd: float
    k_sp: float
    couplings: tuple[float, ...]
    trend_a: float
    trend_b: float
    switch_index: int

    def __post_init__(self):
        check_domain(self.k_sd, self.k_sp)
        if self.switch_index < 1:
            raise ValueError("switch_index must be >= 1")


def kc_of_t(trend_a: float, trend_b: float, k_sd: float, t: int) -> float:
    """Time-dependent constant term that makes the dynamic model track the
    quadratic equilibrium a + b*t**2; the b(2t+1) term compensates for the
    one-step update lag."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return (trend_a + trend_b * t * t) * k_sd + trend_b * (2 * t + 1)


def _market_arrays(markets: Sequence[TimeSeries], start: tuple[int, int],
                   frequency: Frequency, length: int) -> list[np.ndarray]:
    arrays = []
    for i, m in enumerate(markets):
        if m.frequency is not frequency:
            raise AlignmentError(f"market {i} frequency mismatch")
        try:
            offset = m.index_of(start)
        except IndexError as exc:
            raise AlignmentError(f"market {i} does not cover the start date") from exc
        if offset + length > len(m):
            raise AlignmentError(
                f"market {i} too short: needs {length} values from {start}")
        arrays.append(m.to_array()[offset:offset + length])
    return arrays


def _model_terms(trend_a: float, trend_b: float, arrays: Sequence[np.ndarray],
                 steps: int, switch: int) -> tuple[np.ndarray, ...]:
    """The parameter-free terms of the updates t = 1..steps-1: the quadratic
    equilibrium a + b*t**2, the lag compensation b(2t+1) of :func:`kc_of_t`,
    the gate, 1.0 where speculators and markets act (t >= switch), and the
    gated market differences gate * (P_i(t) - P_i(t-1)), one row per market."""
    t = np.arange(1, steps, dtype=float)
    gate = (t >= switch).astype(float)
    diffs = np.array([m[1:steps] - m[:steps - 1] for m in arrays])
    return (trend_a + trend_b * t * t, trend_b * (2.0 * t + 1.0), gate,
            diffs.reshape(len(arrays), steps - 1) * gate)


def _path(v: np.ndarray, terms: tuple[np.ndarray, ...], p0: float,
          p1: float) -> list[float]:
    """Prices P(2)..P(steps) for v = (k_sd, k_sp, k_1..k_N)."""
    quad, lag, gate, gated_diffs = terms
    k_sd, k_sp = float(v[0]), float(v[1])
    const = quad * k_sd + lag + v[2:] @ gated_diffs
    return iterate(const.tolist(), ((1.0 - k_sd) + gate * k_sp).tolist(),
                   (-gate * k_sp).tolist(), p0, p1)


def simulate_combined(params: CombinedParams, markets: Sequence[TimeSeries],
                      p0: float, p1: float, steps: int,
                      start: Optional[tuple[int, int]] = None) -> TimeSeries:
    """Run the full recurrence for ``steps`` updates (output length steps+1).

    Before ``switch_index`` the path is identical to the pure trend-tracking
    model; markets must each cover steps + 1 observations.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if len(params.couplings) != len(markets):
        raise ValueError("one coupling per market series is required")
    if start is None:
        start = markets[0].start if markets else (2004, 1)
    frequency = markets[0].frequency if markets else Frequency.MONTHLY
    arrays = _market_arrays(markets, start, frequency, steps + 1)
    terms = _model_terms(params.trend_a, params.trend_b, arrays, steps,
                         params.switch_index)
    v = np.array([params.k_sd, params.k_sp, *params.couplings])
    p0, p1 = float(p0), float(p1)
    path = _path(v, terms, p0, p1)
    return TimeSeries(start, frequency, (p0, p1, *path), "price")


@dataclass(frozen=True)
class CombinedFit:
    params: CombinedParams
    report: fitting.FitReport
    sse: float
    r2: float
    path: TimeSeries
    switch_date: tuple[int, int]
    regime: RegimeClassification

    def to_dict(self) -> dict:
        return {
            "k_sd": self.params.k_sd,
            "k_sp": self.params.k_sp,
            "couplings": list(self.params.couplings),
            "trend_a": self.params.trend_a,
            "trend_b": self.params.trend_b,
            "switch_index": self.params.switch_index,
            "switch_date": format_date(self.switch_date, Frequency.MONTHLY),
            "sse": self.sse,
            "r2": self.r2,
            "period": self.regime.period,
            "regime": self.regime.label,
            "converged": self.report.converged,
            "evaluations": self.report.evaluations,
        }


def _linear_seed(food: np.ndarray,
                 terms: tuple[np.ndarray, ...]) -> Optional[np.ndarray]:
    """One-step-ahead regression estimate of (k_sd, k_sp, k_i).

    The recurrence is linear in the parameters when evaluated on the observed
    path, so ordinary least squares on the one-step differences recovers them
    exactly for noiseless data and gives a strong start otherwise.
    """
    quad, lag, gate, gated_diffs = terms
    prev, cur = food[:-2], food[1:-1]
    design = np.column_stack([quad - cur, gate * (cur - prev), gated_diffs.T])
    try:
        coef, *_ = np.linalg.lstsq(design, food[2:] - cur - lag, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(coef)):
        return None
    return coef


def fit_combined(food: TimeSeries, markets: Sequence[TimeSeries],
                 trend: QuadraticTrend,
                 switch_candidates: Sequence[int]) -> CombinedFit:
    """Least-squares fit of (k_sd, k_sp, k_1..k_N) with the switch month
    selected over ``switch_candidates`` by best objective.

    Initial conditions come from the first two food observations; the trend
    coefficients are taken as given (fitted upstream with the bubble windows
    excluded).  The report is the winning candidate's, except that
    ``evaluations`` sums the residual calls of every candidate.
    """
    if not switch_candidates:
        raise ValueError("switch_candidates must be non-empty")
    if len(food) < 4:
        raise DegenerateInputError("food series too short")
    fv = food.to_array()
    steps = len(fv) - 1
    arrays = _market_arrays(markets, food.start, food.frequency, steps + 1)
    p0, p1 = float(fv[0]), float(fv[1])
    n_markets = len(markets)
    bounds = ([(1e-4, 1.5), (0.0, 3.0)]
              + [(-1000.0, 100.0)] * n_markets)
    lo, hi = np.array(bounds).T
    # the fallback start when the one-step regression is singular
    fallback = np.array([0.2, 1.3] + [-1.0] * n_markets)

    best = None
    evaluations = 0
    for switch in switch_candidates:
        if switch < 1:
            raise ValueError("switch candidates must be >= 1")
        terms = _model_terms(trend.a, trend.b, arrays, steps, switch)
        seed = _linear_seed(fv, terms)
        start = np.clip(fallback if seed is None else seed, lo, hi)

        def residuals(v: np.ndarray, terms=terms) -> np.ndarray:
            return fv[2:] - np.array(_path(v, terms, p0, p1))

        report = fitting.minimize(residuals, [start], bounds)
        evaluations += report.evaluations
        if best is None or report.objective_value < best[1].objective_value:
            best = (switch, report)

    switch, report = best
    report = replace(report, evaluations=evaluations)
    v = report.parameter_vector
    params = CombinedParams(k_sd=v[0], k_sp=v[1], couplings=tuple(v[2:]),
                            trend_a=trend.a, trend_b=trend.b,
                            switch_index=switch)
    path = replace(simulate_combined(params, markets, p0, p1, steps, food.start),
                   label="fitted price")
    return CombinedFit(params=params, report=report, sse=report.objective_value,
                       r2=fitting.r_squared(food, path), path=path,
                       switch_date=food.date_at(switch),
                       regime=classify(params.k_sd, params.k_sp))
