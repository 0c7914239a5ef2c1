"""Shared bounded least-squares fitting and regression utilities.

Both fitted models minimise a sum of squared residuals over a box, in 3
dimensions for the supply/demand fit and in 2 for the combined fit.  A
:func:`minimize` call runs one trust-region-reflective solve (Branch, Coleman
& Li 1999), which keeps every iterate inside the box, so no bound penalty is
needed.  Points where the model is undefined return non-finite
residuals, on which the solver shrinks its step.

:func:`minimize` is a numpy port of the path of
``scipy.optimize.least_squares(method="trf")`` that these fits take: finite
bounds, the caller's dense Jacobian (scipy's ``jac=callable``), the
exact trust-region subproblem through one SVD (Moré 1978), linear loss, unit
variable scaling, tolerances of 1e-8 and 100 evaluations per variable.  It
follows scipy's ``optimize/_lsq/trf.py`` and ``optimize/_lsq/common.py`` step
for step, so the two agree up to the last bits of the SVD.  Those files are
Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers, under the
BSD 3-Clause licence in ``LICENSE-scipy.txt``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, FitError
from .timeseries import TimeSeries, align, record

EPS = np.finfo(float).eps
#: ftol, xtol and gtol of the solve.
TOL = 1e-8


def _norm(x):
    """The 2-norm of a vector, as ``numpy.linalg.norm`` computes it."""
    return np.sqrt(x.dot(x))


def _strictly_feasible(x, lo, hi, rstep):
    """Moves points within ``rstep`` (relative) of a bound that far inside
    it; with ``rstep`` 0, points on a bound one ulp inside."""
    if rstep == 0 and ((lo < x) & (x < hi)).all():
        return x
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
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.sum(suf ** 2 / denom ** 3) / p_norm

    full_rank = m >= len(s) and s[-1] > EPS * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0
        value, slope = phi(0.0)
    upper, lower = _norm(suf) / Delta, -value / slope if full_rank else 0.0
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
    return p * (Delta / _norm(p)), alpha


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
    to_tr = Delta / _norm(g_h)
    to_bound = _to_bound(x, -d * g_h, lo, hi)[0]
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    ag_stride, ag_value = _min_along(J_h, g_h, -g_h, diag_h, 0, ag_stride)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r_h * d, r_h, -r_value
    return -d * g_h * ag_stride, -g_h * ag_stride, -ag_value


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
             jacobian: Callable[[np.ndarray], np.ndarray]) -> FitReport:
    """Minimise the sum of squared ``residuals`` over the box ``bounds``,
    one (lo, hi) pair per parameter, from ``start`` by the
    trust-region-reflective method; returns the terminal point.

    ``residuals`` returns a 1-D float sequence, and ``jacobian`` its
    Jacobian as a float array, one row per residual and one column per
    parameter: the exact one for the supply/demand fit, Kaufman's for the
    combined fit's projected residuals.  ``jacobian`` is called at the
    start and at each accepted point but one where a cost or step tolerance
    stop ends the solve (a gradient stop needs it there).  The solve stops
    as scipy's does: on a scaled gradient below :data:`TOL`, on a relative
    cost change or step below it, or, with ``converged`` False, after 100
    evaluations per variable.  ``evaluations`` is scipy's ``nfev``, the
    start's included; calls of ``jacobian`` are not counted.
    ``objective_value`` is the sum of squared residuals at the terminal
    point.  Deterministic given identical inputs.

    Raises ValueError where a bound is not finite or not below its pair,
    or the start does not match the bounds or lies outside them, and
    :class:`FitError` that names the cause where the start's residuals are
    not finite, the solve meets a non-finite Jacobian, or it ends at a sum
    of squares that overflows.
    """
    lo, hi = np.array(bounds, dtype=float).T
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
        raise ValueError("bounds must be finite with lo < hi")
    start = np.asarray(start, dtype=float)
    if start.shape != lo.shape:
        raise ValueError("start dimensionality does not match bounds")
    if not np.all((lo <= start) & (start <= hi)):
        raise ValueError("start lies outside the bounds")
    x = _strictly_feasible(start, lo, hi, 1e-10)
    f = np.asarray(residuals(x), dtype=float)
    if not np.isfinite(f).all():
        raise FitError("the residuals at the start are not finite")
    J = jacobian(x)
    m, n = J.shape
    cost, g = 0.5 * np.dot(f, f), J.T.dot(f)
    Delta = _norm(x / _coleman_li(x, g, lo, hi)[0] ** 0.5) or 1.0
    alpha, converged, nfev, x_new, f_new = 0.0, False, 1, x, f
    # the scaled Jacobian stacked on diag(diag_h ** 0.5), filled in place;
    # the zeros off that diagonal are set once
    J_aug = np.zeros((m + n, n))
    diagonal = (np.arange(m, m + n), np.arange(n))
    while True:
        v, dv = _coleman_li(x, g, lo, hi)
        g_norm = np.abs(g * v).max()
        converged = converged or g_norm < TOL
        if converged or nfev == 100 * n:
            break
        # the problem in Coleman and Li's scaled ("hat") variables
        d, diag_h = v ** 0.5, g * dv
        np.multiply(J, d, out=J_aug[:m])
        J_aug[diagonal] = diag_h ** 0.5
        if not np.isfinite(J_aug).all():
            raise FitError("the solve met a non-finite Jacobian")
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
            if not (trial == x_new).all():
                f_new = np.asarray(residuals(trial), dtype=float)
            x_new, nfev, step_h_norm = trial, nfev + 1, _norm(step_h)
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
                    or _norm(step) < TOL * (TOL + _norm(x))):
                converged = True
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            if converged:
                break
            J = jacobian(x)
            g = J.T.dot(f)
    sse = float(f @ f)
    if not np.isfinite(sse):
        raise FitError("the sum of squares at the fitted point overflows")
    return FitReport(tuple(x.tolist()), sse, nfev, bool(converged))


def r_squared(observed: TimeSeries, modeled: TimeSeries) -> float:
    """Coefficient of determination, 1 - SSE/SST about the observed mean."""
    obs, mod = map(np.asarray, align(observed, modeled)[:2])
    if len(obs) < 2:
        raise DegenerateInputError("need at least 2 observations")
    if np.all(obs == obs[0]):
        raise DegenerateInputError("constant observed series")
    sst = float(np.sum((obs - obs.mean()) ** 2))
    sse = float(np.sum((obs - mod) ** 2))
    return 1.0 - sse / sst
