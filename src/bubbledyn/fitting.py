"""Shared bounded least-squares fitting and regression utilities.

Both fitted models minimise a sum of squared residuals over a box in 3-5
dimensions.  A :func:`minimize` call runs one trust-region-reflective solve
(Branch, Coleman & Li 1999), which keeps every iterate inside the box, so no
bound penalty is needed.  Points where the model is undefined return non-finite
residuals, on which the solver shrinks its step.

:func:`least_squares` is a numpy port of the path of
``scipy.optimize.least_squares(method="trf")`` that these fits take: finite
bounds, a dense Jacobian that is either the caller's exact one (scipy's
``jac=callable``) or forward differences, the exact trust-region
subproblem through one SVD (Moré 1978), linear loss, unit variable scaling,
tolerances of 1e-8 and 100 evaluations per variable.  It follows scipy's
``optimize/_lsq/trf.py``, ``optimize/_lsq/common.py`` and
``optimize/_numdiff.py`` step for step, so the two agree up to the last bits
of the SVD.  Those files are Copyright (c) 2001-2002 Enthought, Inc. 2003,
SciPy Developers, under the BSD 3-Clause licence in ``LICENSE-scipy.txt``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import norm

from .errors import DegenerateInputError, FitError
from .timeseries import TimeSeries, align, record

EPS = np.finfo(float).eps
#: ftol, xtol and gtol of the solve.
TOL = 1e-8


class NonFiniteJacobian(ArithmeticError):
    """The scaled Jacobian at an iterate holds an inf or a NaN."""


@record
class LeastSquaresResult:
    """Terminal point of one solve; ``success`` is False at the evaluation cap."""

    x: np.ndarray
    fun: np.ndarray
    success: bool


def _jacobian(fun, x, f, lo, hi):
    """Forward differences; a step that would leave the box flips sign, or
    shrinks to the farther bound where neither direction fits."""
    h = EPS ** 0.5 * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    below, above = x - lo, hi - x
    fits = np.abs(h) <= np.maximum(below, above)
    h = np.where(((x + h < lo) | (x + h > hi)) & fits, -h, h)
    h = np.where(fits, h, np.where(above >= below, above, -below))
    columns = np.empty((x.size, f.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        columns[i] = (fun(x1) - f) / (x1[i] - x[i])
    return columns.T  # Fortran order, as scipy's, so J.T @ f rounds alike


def _strictly_feasible(x, lo, hi, rstep):
    """Moves points within ``rstep`` (relative) of a bound that far inside
    it; with ``rstep`` 0, points on a bound one ulp inside."""
    gap_lo, gap_hi = rstep * np.maximum(1, np.abs(lo)), rstep * np.maximum(1, np.abs(hi))
    at_lo = x - lo <= np.minimum(hi - x, gap_lo)
    at_hi = hi - x <= np.minimum(x - lo, gap_hi)
    if rstep == 0:
        x = np.where(at_hi, np.nextafter(hi, lo), np.where(at_lo, np.nextafter(lo, hi), x))
    else:
        x = np.where(at_hi, hi - gap_hi, np.where(at_lo, lo + gap_lo, x))
    return np.where((x < lo) | (x > hi), 0.5 * (lo + hi), x)


def _to_bound(x, s, lo, hi):
    """Smallest t >= 0 putting x + t s on a bound, and which bounds it hits
    (-1 lower, 1 upper, 0 none)."""
    steps = np.full_like(x, np.inf)
    moving = s != 0
    with np.errstate(over="ignore"):
        steps[moving] = np.maximum((lo - x)[moving] / s[moving],
                                   (hi - x)[moving] / s[moving])
    t = np.min(steps)
    return t, np.equal(steps, t) * np.sign(s).astype(int)


def _coleman_li(x, g, lo, hi):
    """Distance of each variable to the bound its anti-gradient points at
    (1 where the gradient is 0), and the sign of that distance's derivative."""
    dv = (g > 0).astype(float) - (g < 0)
    return np.where(dv < 0, hi - x, np.where(dv > 0, x - lo, 1.0)), dv


def _q(jac, g, s, diag):
    """The model q(s) = |J s|^2 / 2 + s.diag.s / 2 + g.s."""
    js = jac.dot(s)
    return 0.5 * (np.dot(js, js) + np.dot(s * diag, s)) + np.dot(s, g)


def _min_along(jac, g, s, diag, lo, hi, s0=None):
    """(t, q(s0 + t s)) at the minimum over t in [lo, hi] (s0 = 0 if None)."""
    v = jac.dot(s)
    a = 0.5 * (np.dot(v, v) + np.dot(s * diag, s))
    b, c = np.dot(g, s), 0.0
    if s0 is not None:
        u = jac.dot(s0)
        b += np.dot(u, v)
        c = 0.5 * np.dot(u, u) + np.dot(g, s0)
        b += np.dot(s0 * diag, s)
        c += 0.5 * np.dot(s0 * diag, s0)
    t = [lo, hi]
    if a != 0 and lo < -0.5 * b / a < hi:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    return t[np.argmin(y)], y[np.argmin(y)]


def _trust_region_step(uf, s, V, Delta, alpha, m):
    """Moré's exact trust-region step from the SVD of the scaled Jacobian,
    and the Levenberg-Marquardt parameter it ends at."""
    suf = s * uf

    def phi(alpha):  # |p(alpha)| - Delta and its derivative
        denom = s ** 2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    full_rank = m >= len(s) and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
        value, slope = phi(0.0)
    upper, lower = norm(suf) / Delta, -value / slope if full_rank else 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * upper, (lower * upper) ** 0.5)
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + Delta) * ratio / Delta
        if np.abs(value) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s ** 2 + alpha))
    return p * (Delta / norm(p)), alpha


def _select_step(x, J_h, diag_h, g_h, p_h, d, Delta, lo, hi, theta):
    """The best of the trust-region step cut short of the box, its
    reflection off the first bound it meets, and the scaled Cauchy step,
    as (step, scaled step, predicted reduction)."""
    p = d * p_h
    if np.all((x + p >= lo) & (x + p <= hi)):
        return p, p_h, -_q(J_h, g_h, p_h, diag_h)
    p_stride, hits = _to_bound(x, p, lo, hi)
    r_h = p_h.copy()
    r_h[hits.astype(bool)] *= -1
    p, p_h = p * p_stride, p_h * p_stride
    # the reflected ray leaves either the trust region or the box first
    a, b, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - Delta ** 2
    q = -(b + np.copysign(np.sqrt(b * b - a * c), b))
    to_tr = max(q / a, c / q)
    to_bound = _to_bound(x + p, d * r_h, lo, hi)[0]
    r_stride = min(to_bound, to_tr)
    r_lo, r_hi = 0, -1
    if r_stride > 0:
        r_lo = (1 - theta) * p_stride / r_stride
        r_hi = theta * to_bound if r_stride == to_bound else to_tr
    r_value = np.inf
    if r_lo <= r_hi:
        r_stride, r_value = _min_along(J_h, g_h, r_h, diag_h, r_lo, r_hi, s0=p_h)
        r_h = p_h + r_h * r_stride
    p, p_h = p * theta, p_h * theta
    p_value = _q(J_h, g_h, p_h, diag_h)
    to_tr = Delta / norm(g_h)
    to_bound = _to_bound(x, -d * g_h, lo, hi)[0]
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    ag_stride, ag_value = _min_along(J_h, g_h, -g_h, diag_h, 0, ag_stride)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r_h * d, r_h, -r_value
    return -d * g_h * ag_stride, -g_h * ag_stride, -ag_value


def least_squares(fun, x0, bounds, jac=None) -> LeastSquaresResult:
    """Minimise ``|fun(x)|^2 / 2`` over the box ``bounds = (lo, hi)`` from
    ``x0`` by the trust-region-reflective method.

    ``fun`` returns a 1-D float array, and ``x0`` lies in the box, whose
    bounds are finite with lo < hi (:func:`minimize` checks both).  ``jac``,
    if given, returns the Jacobian of ``fun`` at x as an (m, n) float array;
    it replaces the forward differences at the start and at each accepted
    point, as scipy's ``jac=callable`` does.  Stops as
    scipy does: on a scaled gradient below :data:`TOL`, on a relative cost
    change or step below it, or, unsuccessfully, after 100 evaluations per
    variable outside the Jacobians.  Raises :class:`NonFiniteJacobian` where
    the scaled Jacobian or gradient at an accepted point is not finite.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    x = _strictly_feasible(np.asarray(x0, dtype=float), lo, hi, 1e-10)
    f = fun(x)
    J = _jacobian(fun, x, f, lo, hi) if jac is None else jac(x)
    m, n = J.shape
    cost, g = 0.5 * np.dot(f, f), J.T.dot(f)
    Delta = norm(x / _coleman_li(x, g, lo, hi)[0] ** 0.5) or 1.0
    alpha, converged, nfev, x_new, f_new = 0.0, False, 1, x, f
    while True:
        v, dv = _coleman_li(x, g, lo, hi)
        g_norm = norm(g * v, ord=np.inf)
        converged = converged or g_norm < TOL
        if converged or nfev == 100 * n:
            break
        # the problem in Coleman and Li's scaled ("hat") variables
        d, diag_h = v ** 0.5, g * dv
        J_aug = np.vstack([J * d, np.diag(diag_h ** 0.5)])
        if not np.all(np.isfinite(J_aug)):
            raise NonFiniteJacobian("the scaled Jacobian is not finite")
        U, s, Vt = np.linalg.svd(J_aug, full_matrices=False)
        uf = U.T.dot(np.concatenate([f, np.zeros(n)]))
        theta = max(0.995, 1 - g_norm)  # how far a step stays off the bounds
        reduction = -1
        while reduction <= 0 and nfev < 100 * n:
            p_h, alpha = _trust_region_step(uf, s, Vt.T, Delta, alpha, m)
            step, step_h, predicted = _select_step(x, J_aug[:m], diag_h, d * g,
                                                   p_h, d, Delta, lo, hi, theta)
            trial = _strictly_feasible(x + step, lo, hi, 0)
            # an unmoved trial point reuses its residuals, as scipy's cache does
            f_new = f_new if np.array_equal(trial, x_new) else fun(trial)
            x_new, nfev, step_h_norm = trial, nfev + 1, norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1 if predicted == reduction == 0 else 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta
            if (reduction < TOL * cost and ratio > 0.25
                    or norm(step) < TOL * (TOL + norm(x))):
                converged = True
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = _jacobian(fun, x, f, lo, hi) if jac is None else jac(x)
            g = J.T.dot(f)
    return LeastSquaresResult(x=x, fun=f, success=converged)


@record
class FitReport:
    """Outcome of one bounded least-squares solve."""

    parameter_vector: tuple[float, ...]
    objective_value: float
    evaluations: int
    converged: bool


def minimize(residuals: Callable[[np.ndarray], np.ndarray],
             start: Sequence[float],
             bounds: Sequence[tuple[float, float]],
             jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
             ) -> FitReport:
    """Bounded least squares from ``start``; returns the terminal point.

    ``jacobian``, if given, returns the exact Jacobian of ``residuals`` as a
    float array, one row per residual and one column per parameter; without
    it the solve takes forward differences of ``residuals``.
    ``objective_value`` is the sum of squared residuals at the terminal
    point, ``converged`` the solve's success flag, and ``evaluations`` the
    residual calls: every call of ``residuals``, finite-difference
    Jacobians and the start check included.  Calls of ``jacobian`` are not
    residual calls and are not counted.
    Deterministic given identical inputs.  Raises :class:`FitError` that
    names the cause when the start's residuals are not finite, the solve
    meets a non-finite Jacobian, or it ends at a sum of squares that
    overflows.
    """
    lo, hi = np.array(bounds, dtype=float).T
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
        raise ValueError("bounds must be finite with lo < hi")
    start = np.asarray(start, dtype=float)
    if start.shape != lo.shape:
        raise ValueError("start dimensionality does not match bounds")
    if not np.all((lo <= start) & (start <= hi)):
        raise ValueError("start lies outside the bounds")

    evaluations = 0

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return np.asarray(residuals(x), dtype=float)

    if not np.all(np.isfinite(counted(start))):
        raise FitError("the residuals at the start are not finite")
    try:
        res = least_squares(counted, start, bounds=(lo, hi), jac=jacobian)
    except NonFiniteJacobian:
        # an exact Jacobian that is not finite, or a finite-difference step
        # into a non-finite region, ends the solve
        raise FitError("the solve met a non-finite Jacobian") from None
    sse = float(res.fun @ res.fun)
    if not np.isfinite(sse):
        raise FitError("the sum of squares at the fitted point overflows")
    return FitReport(parameter_vector=tuple(float(v) for v in res.x),
                     objective_value=sse,
                     evaluations=evaluations,
                     converged=bool(res.success))


def r_squared(observed: TimeSeries, modeled: TimeSeries) -> float:
    """Coefficient of determination, 1 - SSE/SST about the observed mean."""
    obs, mod = map(np.asarray, align(observed, modeled)[:2])
    if len(obs) < 2:
        raise DegenerateInputError("need at least 2 observations")
    sst = float(np.sum((obs - obs.mean()) ** 2))
    if sst == 0.0:
        raise DegenerateInputError("constant observed series")
    sse = float(np.sum((obs - mod) ** 2))
    return 1.0 - sse / sst
