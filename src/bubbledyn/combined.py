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

from typing import Optional, Sequence

import numpy as np

from . import fitting
from .errors import AlignmentError, DegenerateInputError, FitError
from .ethanol import QuadraticTrend
from .speculators import RegimeClassification, check_domain, classify, iterate
from .timeseries import (Frequency, TimeSeries, align, format_date, ordinal,
                         record, replace)


@record
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


def _responses(k_sd: float, k_sp: float, split: int, updates: int,
               from_start: Sequence[list[float]],
               from_switch: Sequence[list[float]]) -> np.ndarray:
    """The model's two-segment recurrence from zero initial prices over
    ``updates`` updates, forced by each of ``from_start`` and then by each
    of ``from_switch``, one column each.  A ``from_switch`` forcing covers
    the updates from the switch on, and its column is 0 before it, so only
    its second segment is stepped."""
    rows = np.zeros((len(from_start) + len(from_switch), updates))
    for row, f in zip(rows, from_start):
        row[:] = _segments(f, k_sd, k_sp, split, 0.0, 0.0)
    for row, f in zip(rows[len(from_start):], from_switch):
        row[split:] = _segments(f, k_sd, k_sp, 0, 0.0, 0.0)
    return rows.T


def _basis(k_sd: float, k_sp: float, terms: tuple,
           trend: Optional[tuple[float, float]], p0: float,
           p1: float) -> tuple[np.ndarray, np.ndarray]:
    """The path P(2)..P(steps) at (k_sd, k_sp) as h + Phi L, affine in the
    linear parameters L: the couplings k_1..k_N, after the trend's a and b
    unless ``trend`` holds them fixed as (a, b).

    h is the recurrence from p0 and p1 forced by a fixed trend (by nothing
    when the trend is fitted), and each column of Phi the recurrence from
    zero initial prices forced by what its parameter multiplies: k_sd for
    a, k_sd t**2 + 2t + 1 for b, and each market's gated differences for
    its coupling.
    """
    t2, lag, _, gated_diffs, split = terms
    if trend is None:
        forcing, columns = [0.0] * len(t2), [[k_sd] * len(t2),
                                            (k_sd * t2 + lag).tolist()]
    else:
        a, b = trend
        forcing, columns = ((a + b * t2) * k_sd + b * lag).tolist(), []
    phi = _responses(k_sd, k_sp, split, len(t2), columns,
                     gated_diffs[:, split:].tolist())
    return np.array(_segments(forcing, k_sd, k_sp, split, p0, p1)), phi


def _sensitivities(k_sd: float, k_sp: float, a: float, b: float, terms: tuple,
                   prices: np.ndarray) -> np.ndarray:
    """The exact derivatives of P(2)..P(steps) by k_sd and by k_sp, one
    column each, given the prices P(0)..P(steps) at these parameters.

    Differentiating the recurrence gives each column the model's own
    two-segment recurrence from zero initial prices, forced at update t by
    the derivative of the update's other terms: (a + b t**2) - P(t) for
    k_sd and gate (P(t) - P(t-1)) for k_sp.
    """
    t2, _, _, _, split = terms
    return _responses(k_sd, k_sp, split, len(t2),
                      [(a + b * t2 - prices[1:-1]).tolist()],
                      [np.diff(prices[split:-1]).tolist()])


class _Profile:
    """One switch month's problem: for fixed (k_sd, k_sp) the path is affine
    in a, b and the couplings (:func:`_basis`), so the month is one bounded
    solve over (k_sd, k_sp) alone, by variable projection (Golub & Pereyra
    1973).  The residual is the part of the data minus h that Phi's column
    space does not hold, scaled by max|food|, the linear parameters are
    Phi's minimum-norm least-squares solution, and the Jacobian is
    Kaufman's (1975), the projected sensitivities of :func:`_sensitivities`.
    ``trend`` is a fixed trend's (a, b), or None where it is fitted."""

    def __init__(self, food: np.ndarray, terms: tuple, trend: Optional[tuple]):
        self.terms, self.trend, self.at = terms, trend, None
        self.p0, self.p1, self.observed = float(food[0]), float(food[1]), food[2:]
        self.scale = float(np.max(np.abs(food)))

    def solve(self, theta: Sequence[float]) -> _Profile:
        """Caches the ``residual``, rank-cut ``u``, linear parameters ``lin``
        and ``path`` at ``theta``: NaN and None where h or Phi is not finite."""
        at = tuple(np.asarray(theta, dtype=float).tolist())
        if at != self.at:
            h, phi = _basis(*at, self.terms, self.trend, self.p0, self.p1)
            gap = self.observed - h
            self.at, self.u, self.lin, self.path = at, None, None, None
            self.residual = np.full_like(gap, np.nan)
            # LAPACK fails, or stalls, on non-finite entries
            if np.isfinite(gap).all() and np.isfinite(phi).all():
                u, s, vt = np.linalg.svd(phi, full_matrices=False)
                # numpy's matrix_rank cut; s is in descending order
                rank = np.count_nonzero(s > max(phi.shape) * fitting.EPS * s[:1].sum())
                self.u = u[:, :rank]
                coef = self.u.T @ gap
                fitted = self.u @ coef
                self.lin = vt[:rank].T @ (coef / s[:rank])
                self.path = h + fitted
                self.residual = (gap - fitted) / self.scale
        return self

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        """The scaled projected residual at ``theta``."""
        return self.solve(theta).residual

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """Kaufman's Jacobian; NaN where the residual is."""
        if self.solve(theta).path is None:
            return np.full((len(self.observed), 2), np.nan)
        a, b = self.lin[:2] if self.trend is None else self.trend
        sens = _sensitivities(*self.at, a, b, self.terms,
                              np.concatenate(([self.p0, self.p1], self.path)))
        return (self.u @ (self.u.T @ sens) - sens) / self.scale


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
    t2, lag, _, gated_diffs, split = _model_terms(arrays, steps, params.switch_index)
    k_sd, a, b = float(params.k_sd), float(params.trend_a), float(params.trend_b)
    const = ((a + b * t2) * k_sd + b * lag
             + np.array(params.couplings, dtype=float) @ gated_diffs)
    p0, p1 = float(p0), float(p1)
    path = _segments(const.tolist(), k_sd, float(params.k_sp), split, p0, p1)
    return TimeSeries(start, frequency, (p0, p1, *path), "price")


@record
class CombinedFit:
    params: CombinedParams
    report: fitting.FitReport
    sse: float
    r2: float
    path: TimeSeries
    switch_date: tuple[int, int]
    regime: RegimeClassification
    #: "joint" when the trend was fitted with the model, "fixed" when it was
    #: given and held fixed.
    trend_mode: str

    def to_dict(self) -> dict:
        return {
            "k_sd": self.params.k_sd,
            "k_sp": self.params.k_sp,
            "couplings": list(self.params.couplings),
            "trend_a": self.params.trend_a,
            "trend_b": self.params.trend_b,
            "trend_mode": self.trend_mode,
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
                 trend: Optional[tuple[float, float]]) -> Optional[np.ndarray]:
    """One-step-ahead regression estimate of (k_sd, k_sp), or None where
    the regression has non-finite terms or no solution.  ``trend`` is a
    fixed trend's (a, b), or None where it is fitted.

    Evaluated on the observed path the recurrence is linear in the
    parameters once its trend forcing is written c0 + c1*t**2 + c2(2t+1),
    so ordinary least squares on the one-step differences recovers them
    exactly for noiseless data and gives a strong start otherwise.
    """
    t2, lag, gate, gated_diffs, _ = terms
    prev, cur = food[:-2], food[1:-1]
    target = food[2:] - cur
    if trend is None:
        design = np.column_stack([-cur, gate * (cur - prev), *gated_diffs,
                                  np.ones_like(t2), t2, lag])
    else:
        a, b = trend
        design = np.column_stack([a + b * t2 - cur, gate * (cur - prev),
                                  *gated_diffs])
        target = target - b * lag
    # LAPACK fails, or stalls, on non-finite entries
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
        return None
    try:
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    except np.linalg.LinAlgError:
        return None
    return coef[:2] if np.all(np.isfinite(coef[:2])) else None


#: The box of (k_sd, k_sp), and the start where the one-step regression
#: gives no seed inside it.
BOX = ((1e-4, 1.5), (0.0, 3.0))
FALLBACK = (0.2, 1.3)


def fit_combined(food: TimeSeries, markets: Sequence[TimeSeries],
                 trend: Optional[QuadraticTrend] = None,
                 switch_candidates: Sequence[int] = ()) -> CombinedFit:
    """Least-squares fit of (k_sd, k_sp, k_1..k_N) and, unless ``trend`` is
    given, of the trend's a and b, with the switch month selected over
    ``switch_candidates`` by best objective.

    Initial conditions come from the first two food observations.  Each
    candidate month is one bounded solve of its :class:`_Profile`, from the
    one-step regression of :func:`_linear_seed`.  A given ``trend`` is held
    fixed: the paper's two-stage fit, with the trend fitted upstream outside
    the bubble windows.  The report is the winning candidate's solve, except
    that ``evaluations`` sums the solver's ``nfev`` over every candidate.
    """
    if not switch_candidates:
        raise ValueError("switch_candidates must be non-empty")
    # the residuals, one per value after the first two, outnumber the parameters
    if len(food) - 2 <= 2 + 2 * (trend is None) + len(markets):
        raise DegenerateInputError("food series too short")
    fv = food.to_array()
    steps = len(fv) - 1
    arrays = _market_arrays(markets, food.start, food.frequency, steps + 1)
    # r2 is undefined on a constant series; no solve can change that
    if np.all(fv == fv[0]):
        raise DegenerateInputError("constant observed series")
    if not all(1 <= switch < steps for switch in switch_candidates):
        raise ValueError("switch candidates must lie in 1..len(food) - 2")
    fixed = None if trend is None else (trend.a, trend.b)
    lo, hi = np.array(BOX).T

    solves = []
    for switch in switch_candidates:
        terms = _model_terms(arrays, steps, switch)
        seed = _linear_seed(fv, terms, fixed)
        # a seed coordinate outside the box takes the fallback's: clipped to
        # the bound, it would start the reflective steps there, and they
        # crawl away from a bound (a wrong switch month often gives k_sd < 0)
        start = (np.array(FALLBACK) if seed is None else
                 np.where((lo <= seed) & (seed <= hi), seed, FALLBACK))
        month = _Profile(fv, terms, fixed)
        solves.append((fitting.minimize(month.residuals, start, BOX, month.jacobian),
                       switch, month))

    report, switch, month = min(solves, key=lambda solve: solve[0].objective_value)
    # a cache hit where the solve's last residual call was at its end point
    lin = month.solve(report.parameter_vector).lin.tolist()
    (trend_a, trend_b), couplings = ((lin[:2], lin[2:]) if fixed is None
                                     else (fixed, lin))
    params = CombinedParams(*report.parameter_vector, couplings=tuple(couplings),
                            trend_a=trend_a, trend_b=trend_b,
                            switch_index=switch)
    path = replace(simulate_combined(params, markets, fv[0], fv[1], steps, food.start),
                   label="fitted price")
    sse = float(np.sum((fv - path.to_array()) ** 2))
    if not np.isfinite(sse):
        raise FitError("the sum of squares at the fitted point overflows")
    evaluations = sum(solve[0].evaluations for solve in solves)
    return CombinedFit(params=params, report=replace(report, evaluations=evaluations),
                       sse=sse, r2=fitting.r_squared(food, path), path=path,
                       switch_date=food.date_at(switch),
                       regime=classify(params.k_sd, params.k_sp),
                       trend_mode="joint" if fixed is None else "fixed")
