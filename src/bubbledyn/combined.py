"""Full food-price model: quadratic ethanol trend, trend-following
speculators, and coupling to alternative investment markets.

The recurrence is
    P(t+1) = k_c(t) + (1 - k_sd) P(t)
             + k_sp [P(t) - P(t-1)] + sum_i k_i [P_i(t) - P_i(t-1)]
with the speculator and coupling terms switched on at a single month index.
The constant k_c(t) = (a + b t^2) k_sd + b (2t + 1) makes the path track the
quadratic equilibrium a + b t^2; its b (2t + 1) term compensates for the
one-step update lag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import fitting
from .errors import AlignmentError, DegenerateInputError, FitError
from .ethanol import QuadraticTrend
from .speculators import RegimeClassification, check_domain, classify, iterate
from .timeseries import Frequency, TimeSeries, align, format_date, ordinal


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


def _market_arrays(markets: Sequence[TimeSeries], start: tuple[int, int],
                   frequency: Frequency, length: int) -> list[np.ndarray]:
    """Each market's ``length`` values from ``start``, paired by :func:`align`."""
    if not markets:
        return []
    *spans, common = align(*markets)
    offset = ordinal(start, frequency) - ordinal(common, frequency)
    if markets[0].frequency is not frequency or not 0 <= offset <= len(spans[0]) - length:
        raise AlignmentError(f"markets do not cover the {length} {frequency.value} "
                             f"values from {format_date(start, frequency)}")
    return [np.asarray(s[offset:offset + length]) for s in spans]


def _model_terms(arrays: Sequence[np.ndarray], steps: int,
                 switch: int) -> tuple:
    """The parameter-free terms of the updates t = 1..steps-1: t**2 and 2t+1
    of k_c(t), the gate, 1.0 where speculators and markets act (t >= switch),
    the gated market differences gate * (P_i(t) - P_i(t-1)), one row per
    market, and the number of updates before the switch."""
    t = np.arange(1, steps, dtype=float)
    gate = (t >= switch).astype(float)
    diffs = np.array([m[1:steps] - m[:steps - 1] for m in arrays])
    return (t * t, 2.0 * t + 1.0, gate,
            diffs.reshape(len(arrays), steps - 1) * gate,
            min(switch, steps) - 1)


def _segments(const: list[float], k_sd: float, k_sp: float, split: int,
              p0: float, p1: float) -> list[float]:
    """The model's recurrence forced by ``const`` from P(0) = p0 and
    P(1) = p1: its first ``split`` updates without speculators, with
    coefficients (1 - k_sd, 0), and the rest with them, with
    (1 - k_sd + k_sp, -k_sp); one :func:`iterate` call per segment."""
    head = iterate(const[:split], 1.0 - k_sd, 0.0, p0, p1)
    prev, cur = (p0, p1, *head[-2:])[-2:]
    return head + iterate(const[split:], (1.0 - k_sd) + k_sp, -k_sp, prev, cur)


def _path(v: np.ndarray, terms: tuple, p0: float, p1: float) -> list[float]:
    """Prices P(2)..P(steps) for v = (k_sd, k_sp, k_1..k_N, a, b)."""
    t2, lag, _, gated_diffs, split = terms
    k_sd, k_sp, a, b = float(v[0]), float(v[1]), float(v[-2]), float(v[-1])
    const = (a + b * t2) * k_sd + b * lag + v[2:-2] @ gated_diffs
    return _segments(const.tolist(), k_sd, k_sp, split, p0, p1)


def _sensitivities(v: np.ndarray, terms: tuple, prices: np.ndarray,
                   joint: bool) -> np.ndarray:
    """The exact derivatives of P(2)..P(steps) by (k_sd, k_sp, k_1..k_N)
    and, when ``joint``, by the trend's a and b, one column each, given the
    prices P(0)..P(steps) at v.

    Differentiating the recurrence gives each column the model's own
    two-segment recurrence from zero initial prices, forced at update t by
    the derivative of the update's other terms: (a + b t**2) - P(t) for
    k_sd, gate (P(t) - P(t-1)) for k_sp, the gated market differences for
    the couplings, k_sd for a and k_sd t**2 + 2t + 1 for b.  The columns of
    k_sp and the couplings are 0 before the switch, so only their second
    segment is stepped.
    """
    t2, lag, _, gated_diffs, split = terms
    k_sd, k_sp, a, b = float(v[0]), float(v[1]), float(v[-2]), float(v[-1])
    from_start = [(a + b * t2 - prices[1:-1]).tolist()]
    if joint:
        from_start += [[k_sd] * len(t2), (k_sd * t2 + lag).tolist()]
    from_switch = [np.diff(prices[split:-1]).tolist(),
                   *gated_diffs[:, split:].tolist()]
    # rows k_sd, k_sp, k_1..k_N, then a and b
    rows = np.zeros((len(from_start) + len(from_switch), len(t2)))
    late = slice(1, 1 + len(from_switch))
    rows[[0, *range(late.stop, len(rows))]] = [
        _segments(f, k_sd, k_sp, split, 0.0, 0.0) for f in from_start]
    rows[late, split:] = [_segments(f, k_sd, k_sp, 0, 0.0, 0.0)
                          for f in from_switch]
    return rows.T


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
    terms = _model_terms(arrays, steps, params.switch_index)
    v = np.array([params.k_sd, params.k_sp, *params.couplings,
                  params.trend_a, params.trend_b])
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
    #: The box ((a_lo, a_hi), (b_lo, b_hi)) of a jointly fitted trend; None
    #: when the trend was given and held fixed.
    trend_box: Optional[tuple[tuple[float, float], tuple[float, float]]]

    def to_dict(self) -> dict:
        return {
            "k_sd": self.params.k_sd,
            "k_sp": self.params.k_sp,
            "couplings": list(self.params.couplings),
            "trend_a": self.params.trend_a,
            "trend_b": self.params.trend_b,
            "trend_mode": "fixed" if self.trend_box is None else "joint",
            "trend_box": (None if self.trend_box is None else
                          {"a": list(self.trend_box[0]),
                           "b": list(self.trend_box[1])}),
            "switch_index": self.params.switch_index,
            "switch_date": format_date(self.switch_date, Frequency.MONTHLY),
            "sse": self.sse,
            "r2": self.r2,
            "period": self.regime.period,
            "regime": self.regime.label,
            "converged": self.report.converged,
            "evaluations": self.report.evaluations,
        }


def _linear_seed(food: np.ndarray, terms: tuple,
                 trend: Optional[QuadraticTrend]) -> Optional[np.ndarray]:
    """One-step-ahead regression estimate of (k_sd, k_sp, k_1..k_N, a, b),
    or of (k_sd, k_sp, k_1..k_N) when the trend is given.

    Evaluated on the observed path the recurrence is linear in the
    parameters once its trend forcing is written c0 + c1*t**2 + c2(2t+1),
    with c0 = a*k_sd and c2 = b, so ordinary least squares on the one-step
    differences recovers them exactly for noiseless data and gives a strong
    start otherwise.
    """
    t2, lag, gate, gated_diffs, _ = terms
    prev, cur = food[:-2], food[1:-1]
    target = food[2:] - cur
    if trend is None:
        design = np.column_stack([-cur, gate * (cur - prev), *gated_diffs,
                                  np.ones_like(t2), t2, lag])
    else:
        design = np.column_stack([trend.a + trend.b * t2 - cur,
                                  gate * (cur - prev), *gated_diffs])
        target = target - trend.b * lag
    # LAPACK fails, or stalls, on non-finite entries
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
        return None
    try:
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if trend is None:
        c0, _, c2 = coef[-3:]
        coef = np.append(coef[:-3], (c0 / coef[0], c2))
    if not np.all(np.isfinite(coef)):
        return None
    return coef


def _trend_box(food: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Bounds of a and b for the joint fit: a within 10 max|food| and b
    within 10 max|food| / n**2, so neither the intercept nor the rise
    b*n**2 of the trend can leave ten times the data's scale."""
    top = float(np.max(np.abs(food)))
    scale = 10.0 * top
    if scale == 0.0:
        raise DegenerateInputError("constant observed series")
    if not np.isfinite(scale):
        raise FitError(f"no finite trend box for food values up to {top:g}")
    b_max = scale / len(food) ** 2
    return (-scale, scale), (-b_max, b_max)


def fit_combined(food: TimeSeries, markets: Sequence[TimeSeries],
                 trend: Optional[QuadraticTrend] = None,
                 switch_candidates: Sequence[int] = ()) -> CombinedFit:
    """Least-squares fit of (k_sd, k_sp, k_1..k_N) and, unless ``trend`` is
    given, of the trend's a and b, with the switch month selected over
    ``switch_candidates`` by best objective.

    Initial conditions come from the first two food observations.  Each
    candidate is one bounded polish from the one-step regression of
    :func:`_linear_seed`, with the exact Jacobian of :func:`_sensitivities`.
    A given ``trend`` is held fixed: the paper's two-stage fit, with the
    trend fitted upstream outside the bubble windows.  The report is the
    winning candidate's, except that ``evaluations`` sums the residual calls
    of every candidate.
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
    # the start where the one-step regression is singular or leaves the box
    fallback = [0.2, 1.3] + [-1.0] * n_markets
    trend_box, fixed = None, ()
    if trend is None:
        trend_box = _trend_box(fv)
        bounds += trend_box
        fallback += [p0, 0.0]
    else:
        fixed = (trend.a, trend.b)
    lo, hi = np.array(bounds).T
    fallback = np.array(fallback)

    best = None
    evaluations = 0
    for switch in switch_candidates:
        if switch < 1:
            raise ValueError("switch candidates must be >= 1")
        terms = _model_terms(arrays, steps, switch)
        seed = _linear_seed(fv, terms, trend)
        # a seed coordinate outside the box takes the fallback's: clipped to
        # the bound, it would start the reflective steps there, and they
        # crawl away from a bound (a wrong switch month often gives k_sd < 0)
        start = (fallback if seed is None else
                 np.where((lo <= seed) & (seed <= hi), seed, fallback))

        # the point of the last residual call and its prices P(0)..P(steps),
        # where the solver asks for the Jacobian next
        last = {"v": None}

        def residuals(v: np.ndarray, terms=terms, last=last) -> np.ndarray:
            path = _path(np.append(v, fixed), terms, p0, p1)
            last.update(v=v.copy(), prices=np.array([p0, p1, *path]))
            return fv[2:] - last["prices"][2:]

        def jacobian(v: np.ndarray, terms=terms, last=last) -> np.ndarray:
            if not np.array_equal(v, last["v"]):
                residuals(v)
            return -_sensitivities(np.append(v, fixed), terms, last["prices"],
                                   trend is None)

        report = fitting.minimize(residuals, start, bounds, jacobian)
        evaluations += report.evaluations
        if best is None or report.objective_value < best[1].objective_value:
            best = (switch, report)

    switch, report = best
    report = replace(report, evaluations=evaluations)
    v = report.parameter_vector
    trend_a, trend_b = v[-2:] if trend is None else fixed
    params = CombinedParams(k_sd=v[0], k_sp=v[1],
                            couplings=tuple(v[2:2 + n_markets]),
                            trend_a=trend_a, trend_b=trend_b,
                            switch_index=switch)
    path = replace(simulate_combined(params, markets, p0, p1, steps, food.start),
                   label="fitted price")
    return CombinedFit(params=params, report=report, sse=report.objective_value,
                       r2=fitting.r_squared(food, path), path=path,
                       switch_date=food.date_at(switch),
                       regime=classify(params.k_sd, params.k_sp),
                       trend_box=trend_box)
