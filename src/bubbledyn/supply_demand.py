"""Equilibrium commodity-price model driven by surplus shocks.

Demand and supply curves are linear in Box-Cox-transformed price; the only
exogenous input is the annual surplus (production minus consumption), which
shifts the demand intercept under a shortage and the supply intercept under
a surplus.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import DegenerateInputError, DomainError
from .timeseries import TimeSeries, align, box_cox, inverse_box_cox, record

if TYPE_CHECKING:
    from . import fitting


@record
class SupplyDemandParams:
    """Box-Cox parameter plus intercepts/slopes of both curves."""

    lam: float
    alpha_d: float
    beta_d: float
    alpha_s: float
    beta_s: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.beta_d < 0 or self.beta_s < 0:
            raise ValueError("slopes must be non-negative")
        if self.beta_d + self.beta_s <= 0:
            raise ValueError("beta_d + beta_s must be positive")


@record
class EquilibriumPath:
    """Simulated equilibrium prices/quantities in original units, with the
    per-step intercept trace (alpha_d(t), alpha_s(t))."""

    prices: TimeSeries
    quantities: TimeSeries
    intercept_trace: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "prices": list(self.prices.values),
            "quantities": list(self.quantities.values),
            "intercept_trace": [list(pair) for pair in self.intercept_trace],
        }


def shock_update(alpha_d: float, alpha_s: float, surplus_prev: float) -> tuple[float, float]:
    """Shift one intercept by the previous period's surplus.

    A shortage (negative surplus) raises the demand intercept; a surplus
    raises the supply intercept, lowering the equilibrium price.
    """
    if surplus_prev < 0:
        return alpha_d - surplus_prev, alpha_s
    if surplus_prev > 0:
        return alpha_d, alpha_s + surplus_prev
    return alpha_d, alpha_s


def _equilibrium(alpha_d, alpha_s, beta_d: float, beta_s: float):
    denom = beta_d + beta_s
    return (alpha_d - alpha_s) / denom, (alpha_d * beta_s + alpha_s * beta_d) / denom


def equilibrium(params: SupplyDemandParams) -> tuple[float, float]:
    """Intersection of the two transformed curves: (P_e, Q_e)."""
    return _equilibrium(params.alpha_d, params.alpha_s, params.beta_d, params.beta_s)


def _path(surplus: Sequence[float], params: SupplyDemandParams
          ) -> tuple[list[float], list[float], list[tuple[float, float]]]:
    """Prices and quantities in original units, and the intercept trace.

    Raises DomainError where the inverse transform is infeasible."""
    trace = [(params.alpha_d, params.alpha_s)]
    for s in surplus[:-1]:
        trace.append(shock_update(*trace[-1], s))
    prices, quantities = [], []
    for alpha_d, alpha_s in trace:
        p, q = _equilibrium(alpha_d, alpha_s, params.beta_d, params.beta_s)
        prices.append(inverse_box_cox(p, params.lam))
        quantities.append(inverse_box_cox(q, params.lam))
    return prices, quantities, trace


def simulate_equilibrium_path(surplus: TimeSeries, params0: SupplyDemandParams) -> EquilibriumPath:
    """Iterate shock_update + equilibrium over the surplus series and map the
    transformed equilibria back to original units."""
    prices, quantities, trace = _path(surplus.values, params0)
    return EquilibriumPath(
        prices=TimeSeries(surplus.start, surplus.frequency, prices, "price"),
        quantities=TimeSeries(surplus.start, surplus.frequency, quantities, "quantity"),
        intercept_trace=tuple(trace))


def _determined_params(lam: float, beta_d: float, beta_s: float,
                       p0_raw: float, q0_raw: float) -> tuple[float, float]:
    """alpha_d(0) and alpha_s(0) pinned so the t=0 equilibrium reproduces
    the first data point exactly in transformed space."""
    p0 = box_cox(p0_raw, lam)
    q0 = box_cox(q0_raw, lam)
    return q0 + beta_d * p0, q0 - beta_s * p0


@record
class SupplyDemandFit:
    params: SupplyDemandParams
    report: fitting.FitReport
    r2_price: float
    r2_consumption: float
    residual_price: TimeSeries
    residual_consumption: TimeSeries
    path: EquilibriumPath

    def to_dict(self) -> dict:
        return {
            "lambda": self.params.lam,
            "alpha_d0": self.params.alpha_d,
            "beta_d": self.params.beta_d,
            "alpha_s0": self.params.alpha_s,
            "beta_s": self.params.beta_s,
            "objective": self.report.objective_value,
            "evaluations": self.report.evaluations,
            "converged": self.report.converged,
            "r2_price": self.r2_price,
            "r2_consumption": self.r2_consumption,
            "residual_price": list(self.residual_price.values),
            "residual_consumption": list(self.residual_consumption.values),
        }


def fit_supply_demand(price: TimeSeries, consumption: TimeSeries,
                      surplus: TimeSeries) -> SupplyDemandFit:
    """Three-parameter joint fit of equilibrium price and consumption.

    Free parameters: (lambda, beta_d, beta_s) on a box.  alpha_d(0) and
    alpha_s(0) are determined from the first data point so P_e(0) and Q_e(0)
    match it exactly.  The objective is the variance-normalized SSE of price
    plus consumption, both in original units.
    """
    import numpy as np

    from . import fitting

    *spans, start = align(price, consumption, surplus)
    pv, qv, sv = map(np.asarray, spans)
    if len(pv) < 5:
        raise DegenerateInputError("need at least 5 aligned observations")
    if np.any(pv <= 0) or np.any(qv <= 0):
        raise DomainError("prices and consumption must be positive")
    with np.errstate(over="ignore"):
        var_p = float(np.var(pv))
        var_q = float(np.var(qv))
    if not (math.isfinite(var_p) and math.isfinite(var_q)):
        raise DomainError("the variance of the observed series overflows")
    if var_p == 0 or var_q == 0:
        raise DegenerateInputError("constant observed series")
    p0_raw, q0_raw = float(pv[0]), float(qv[0])
    scale_p = 1.0 / np.sqrt(var_p * len(pv))
    scale_q = 1.0 / np.sqrt(var_q * len(qv))

    def _params(lam: float, beta_d: float, beta_s: float) -> SupplyDemandParams:
        alpha_d0, alpha_s0 = _determined_params(lam, beta_d, beta_s, p0_raw, q0_raw)
        return SupplyDemandParams(lam, alpha_d0, beta_d, alpha_s0, beta_s)

    def residuals(v: np.ndarray) -> np.ndarray:
        try:
            p_mod, q_mod, _ = _path(sv, _params(*v))
        except DomainError:
            return np.full(len(pv) + len(qv), np.nan)
        return np.concatenate([(pv - p_mod) * scale_p, (qv - q_mod) * scale_q])

    bounds = [(0.5, 1.2), (0.1, 5.0), (0.0, 5.0)]
    # One start: (lambda, beta_d, beta_s) = (0.9, 1, 0.3), the former 18-start
    # grid's winner on the CLI golden, with both slopes scaled up where the
    # start's transformed price p0 - cumsum(surplus) / (beta_d + beta_s) would
    # fall more than halfway from p0 to -1/lambda, the edge of the domain.
    rise = float(np.max(np.cumsum(sv[:-1])))
    scale = max(1.0, 2.0 * rise / (1.3 * (box_cox(p0_raw, 0.9) + 1 / 0.9)))
    x0 = (0.9, min(5.0, scale), min(5.0, 0.3 * scale))
    report = fitting.minimize(residuals, x0, bounds)

    params = _params(*report.parameter_vector)
    path = simulate_equilibrium_path(
        TimeSeries(start, surplus.frequency, tuple(sv), surplus.label), params)
    prices, quantities = path.prices, path.quantities
    return SupplyDemandFit(
        params=params, report=report,
        r2_price=fitting.r_squared(prices.with_values(pv), prices),
        r2_consumption=fitting.r_squared(quantities.with_values(qv), quantities),
        residual_price=prices.with_values(pv - prices.to_array(), "price residual"),
        residual_consumption=quantities.with_values(qv - quantities.to_array(),
                                                    "consumption residual"),
        path=path)
