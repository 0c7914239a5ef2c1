"""Shared bounded least-squares fitting and regression utilities.

Both fitted models minimise a sum of squared residuals over a box in 3-5
dimensions.  Each start runs one trust-region-reflective solve
(``scipy.optimize.least_squares`` with ``method="trf"``; Branch, Coleman &
Li 1999), which keeps every iterate inside the box, so no bound penalty is
needed.  Points where the model is undefined return non-finite residuals,
on which the solver shrinks its step.

``scipy.optimize`` loads at the first fit, not at import: it is most of a
fresh process's import time, and commands that never fit never import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, FitError
from .timeseries import TimeSeries, align


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first call."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


@dataclass(frozen=True)
class FitReport:
    """Outcome of a multi-start minimization."""

    parameter_vector: tuple[float, ...]
    objective_value: float
    evaluations: int
    converged: bool
    restarts_used: int


def minimize(residuals: Callable[[np.ndarray], np.ndarray],
             starts: Sequence[Sequence[float]],
             bounds: Sequence[tuple[float, float]]) -> FitReport:
    """Bounded least squares from every start; returns the best terminal point.

    ``objective_value`` is the sum of squared residuals there, ``converged``
    the winning start's success flag, and ``evaluations`` every call of
    ``residuals``, finite-difference Jacobians and start checks included.
    Deterministic given identical inputs.  Raises :class:`FitError` when no
    start has finite residuals, or every solve met a non-finite Jacobian or
    ended at a sum of squares that overflows.
    """
    if not starts:
        raise FitError("minimize requires at least one start")
    lo, hi = np.array(bounds, dtype=float).T
    if np.any(hi <= lo):
        raise ValueError("bounds must have lo < hi")
    starts = [np.asarray(s, dtype=float) for s in starts]
    for s in starts:
        if s.shape != lo.shape:
            raise ValueError("start dimensionality does not match bounds")

    evaluations = 0

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return np.asarray(residuals(x), dtype=float)

    best = None
    for start in starts:
        if not np.all(np.isfinite(counted(start))):
            continue
        try:
            res = least_squares(counted, start, bounds=(lo, hi), method="trf")
        except ValueError as exc:
            # a finite-difference step into a non-finite region ends the start
            if "infs or NaNs" not in str(exc):
                raise
            continue
        sse = float(res.fun @ res.fun)
        if np.isfinite(sse) and (best is None or sse < best[1]):
            best = (res, sse)
    if best is None:
        raise FitError("no start has finite residuals, a finite Jacobian "
                       "and a finite sum of squares")
    res, sse = best
    return FitReport(parameter_vector=tuple(float(v) for v in res.x),
                     objective_value=sse,
                     evaluations=evaluations,
                     converged=bool(res.success),
                     restarts_used=len(starts))


def r_squared(observed: TimeSeries, modeled: TimeSeries) -> float:
    """Coefficient of determination, 1 - SSE/SST about the observed mean."""
    obs, mod, _ = align(observed, modeled)
    if len(obs) < 2:
        raise DegenerateInputError("need at least 2 observations")
    sst = float(np.sum((obs - obs.mean()) ** 2))
    if sst == 0.0:
        raise DegenerateInputError("constant observed series")
    sse = float(np.sum((obs - mod) ** 2))
    return 1.0 - sse / sst
