"""Trend-following speculator dynamics.

First-order Walrasian price adjustment, the second-order recurrence that
trend followers induce, one closed form for every discriminant case,
regime classification, and phase-diagram generation over (k_sd, k_sp).
"""

from __future__ import annotations

import cmath
import math
import operator
from enum import Enum
from itertools import repeat
from typing import Iterable, Optional

from .errors import DegenerateInputError
from .timeseries import Frequency, TimeSeries, record

#: |discriminant| below which the repeated-root solution is used.
DELTA_EPS = 1e-12

#: Half-width of the sustained-oscillation band around k_sp = 1.
KSP_TOL = 1e-9


def check_domain(k_sd: float, k_sp: float) -> None:
    """ValueError unless k_sd > 0 and k_sp >= 0; NaN fails both."""
    if not k_sd > 0:
        raise ValueError("k_sd must be positive")
    if not k_sp >= 0:
        raise ValueError("k_sp must be non-negative")


@record
class SpeculatorParams:
    """Reduced parameters of the price recurrence.

    k_sd bundles the Walrasian adjustment strength with the supply/demand
    slopes, k_sp with the trend-follower response, and k_c with the
    intercept difference; the equilibrium price is k_c / k_sd.
    """

    k_sd: float
    k_sp: float
    k_c: float

    def __post_init__(self):
        check_domain(self.k_sd, self.k_sp)

    @property
    def equilibrium_price(self) -> float:
        return self.k_c / self.k_sd


class Regime(str, Enum):
    """A regime label; each member is its own label string."""

    FIRST_ORDER_MONOTONE_CONVERGENT = "FirstOrderMonotoneConvergent"
    FIRST_ORDER_MONOTONE_DIVERGENT = "FirstOrderMonotoneDivergent"
    FIRST_ORDER_ALTERNATING = "FirstOrderAlternating"
    REAL_CONVERGENT = "RealConvergent"
    REAL_DIVERGENT = "RealDivergent"
    DAMPED_OSCILLATION = "DampedOscillation"
    SUSTAINED_OSCILLATION = "SustainedOscillation"
    AMPLIFIED_OSCILLATION = "AmplifiedOscillation"
    REPEATED_ROOT_CONVERGENT = "RepeatedRootConvergent"
    REPEATED_ROOT_DIVERGENT = "RepeatedRootDivergent"


@record
class RegimeClassification:
    """Qualitative behavior at one (k_sd, k_sp) point."""

    k_sd: float
    k_sp: float
    discriminant: float
    roots: tuple[complex, complex]
    label: Regime
    convergent: bool
    period: Optional[float] = None


def _char_coeffs(k_sd: float, k_sp: float) -> tuple[float, float]:
    """(b, c) of the characteristic polynomial m**2 + b*m + c."""
    return k_sd - k_sp - 1.0, k_sp


def _roots(k_sd: float, k_sp: float) -> tuple[complex, complex]:
    """The characteristic roots (-b +- sqrt(delta)) / 2; both are -b/2 where
    the regime rule finds a repeated root (|delta| < DELTA_EPS, k_sp > 0)."""
    b, c = _char_coeffs(k_sd, k_sp)
    delta = b * b - 4.0 * c
    sq = 0.0 if abs(delta) < DELTA_EPS and k_sp > 0 else cmath.sqrt(delta)
    return complex((-b + sq) / 2.0), complex((-b - sq) / 2.0)


def iterate(const: Iterable[float], a: float, b: float, p0: float,
            p1: float) -> list[float]:
    """Step P(t+1) = const[i] + a P(t) + b P(t-1) once per element of
    ``const``, a sequence or a counted ``repeat``, from P(t-1) = p0 and
    P(t) = p1; returns the prices after p1.

    Every price path of the package (first order, second order, and each
    constant-coefficient segment of the combined model and of its
    sensitivities) runs through this loop over plain Python floats.
    """
    # allocated up front, so that a length no memory can hold fails here
    # with MemoryError instead of after filling the memory
    path = [p1] * operator.length_hint(const)
    prev, cur = p0, p1
    for i, c in enumerate(const):
        prev, cur = cur, c + a * cur + b * prev
        path[i] = cur
    return path


def simulate_first_order(params: SpeculatorParams, p0: float, steps: int) -> TimeSeries:
    """Iterate P(t+1) = k_c + (1 - k_sd) P(t); length steps + 1."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p0 = float(p0)
    path = iterate(repeat(params.k_c, steps), 1.0 - params.k_sd, 0.0, 0.0, p0)
    path.insert(0, p0)
    return TimeSeries((2000, 1), Frequency.MONTHLY, path, "price")


def closed_form_first_order(params: SpeculatorParams, p_init: float, t: int) -> float:
    """P(t) = (P1 - P_e)(1 - k_sd)**t + P_e, with P(0) = p_init."""
    if t < 0:
        raise ValueError("t must be >= 0")
    p_e = params.equilibrium_price
    return (p_init - p_e) * (1.0 - params.k_sd) ** t + p_e


def simulate_second_order(params: SpeculatorParams, p0: float, p1: float,
                          steps: int) -> TimeSeries:
    """Iterate P(t+1) = k_c + (1 + k_sp - k_sd) P(t) - k_sp P(t-1)."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    p0, p1 = float(p0), float(p1)
    n = steps - 1
    path = iterate(repeat(params.k_c, n), 1.0 + params.k_sp - params.k_sd,
                   -params.k_sp, p0, p1)
    path[:0] = (p0, p1)
    return TimeSeries((2000, 1), Frequency.MONTHLY, path, "price")


def oscillation_theta(k_sd: float, k_sp: float) -> float:
    """theta = arcsin(sqrt(1 - b**2 / (4 k_sp))), defined for delta < 0."""
    b, _ = _char_coeffs(k_sd, k_sp)
    arg = 1.0 - b * b / (4.0 * k_sp)
    if arg < 0:
        raise DegenerateInputError("theta undefined: discriminant is non-negative")
    return math.asin(math.sqrt(arg))


def closed_form_second_order(params: SpeculatorParams, p1_deviation: float,
                             t: int) -> float:
    """Closed-form solution with P(0) = P_e and P(1) = P_e + p1_deviation.

    One formula in the characteristic roots m1, m2 for every discriminant
    case: P_e + dev (m1**t - m2**t) / (m1 - m2), whose limit t m**(t - 1)
    is taken where the two roots are equal.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p_e = params.equilibrium_price
    if t == 0:  # at k_sd = 1, k_sp = 0 both roots are 0 and m**(t - 1) fails
        return p_e
    m1, m2 = _roots(params.k_sd, params.k_sp)
    if m1 == m2:
        return p1_deviation * (t * m1 ** (t - 1)).real + p_e
    return p1_deviation * ((m1 ** t - m2 ** t) / (m1 - m2)).real + p_e


#: Labels of the regime rule's cases, as (convergent, divergent) pairs in the
#: order of the cases in :func:`_regimes`; a label code indexes this tuple.
_RULE_LABELS = (Regime.REPEATED_ROOT_CONVERGENT, Regime.REPEATED_ROOT_DIVERGENT,
                Regime.SUSTAINED_OSCILLATION, Regime.SUSTAINED_OSCILLATION,
                Regime.DAMPED_OSCILLATION, Regime.AMPLIFIED_OSCILLATION,
                Regime.FIRST_ORDER_MONOTONE_CONVERGENT, Regime.FIRST_ORDER_MONOTONE_DIVERGENT,
                # divergent first-order alternation is two-real-root divergence
                Regime.FIRST_ORDER_ALTERNATING, Regime.REAL_DIVERGENT,
                Regime.REAL_CONVERGENT, Regime.REAL_DIVERGENT)


def _regimes(k_sd, k_sp):
    """The regime rule at every point of two equal-shape float arrays or
    lists; imports numpy.

    Returns the discriminant, the label code (an index into _RULE_LABELS),
    the convergence flag and the period, an object array that is None off
    the oscillating band, as numpy arrays.
    """
    import numpy as np

    k_sd, k_sp = np.asarray(k_sd, dtype=float), np.asarray(k_sp, dtype=float)
    b, c = _char_coeffs(k_sd, k_sp)
    delta = b * b - 4.0 * c
    if not np.all(np.isfinite(delta)):
        raise ValueError("the discriminant overflows; k_sd and k_sp are too large")
    repeated = (np.abs(delta) < DELTA_EPS) & (k_sp > 0)
    oscillating = ~repeated & (delta < 0)
    sustained = oscillating & (np.abs(k_sp - 1.0) <= KSP_TOL)
    # pure Walrasian adjustment: roots are {1 - k_sd, 0}
    first_order = k_sp == 0
    ratio = 1.0 - k_sd
    sq = np.sqrt(np.where(repeated | oscillating, 0.0, delta))
    convergent = np.select(
        [repeated, sustained, oscillating, first_order],
        [np.abs(-b / 2.0) < 1.0, False, k_sp < 1.0, np.abs(ratio) < 1.0],
        np.maximum(np.abs((-b + sq) / 2.0), np.abs((-b - sq) / 2.0)) < 1.0)
    case = np.select([repeated, sustained, oscillating, first_order & (ratio >= 0),
                      first_order], [0, 2, 4, 6, 8], 10)
    period = np.full(delta.shape, None, dtype=object)
    # oscillation_theta at every oscillating node; delta < 0 keeps the
    # argument of sqrt non-negative
    b_osc = b[oscillating]
    sin_theta = np.sqrt(1.0 - b_osc * b_osc / (4.0 * k_sp[oscillating]))
    # math.asin, not np.arcsin: the two differ in the last bit on some nodes
    theta = np.array(list(map(math.asin, sin_theta.tolist())), dtype=float)
    period[oscillating] = (2.0 * math.pi / theta).tolist()
    return delta, case + ~convergent, convergent, period


def classify(k_sd: float, k_sp: float) -> RegimeClassification:
    """Discriminant, characteristic roots, and regime label at one point."""
    check_domain(k_sd, k_sp)
    delta, code, convergent, period = (
        v[0] for v in _regimes([k_sd], [k_sp]))
    return RegimeClassification(
        k_sd=k_sd, k_sp=k_sp, discriminant=float(delta),
        roots=_roots(k_sd, k_sp), label=_RULE_LABELS[code],
        convergent=bool(convergent), period=period)


@record
class PhaseGrid:
    """Regime columns of a grid whose rows sweep k_sp and columns k_sd;
    each column lists the nodes row-major."""

    k_sd_axis: tuple[float, ...]
    k_sp_axis: tuple[float, ...]
    discriminant: tuple[float, ...]
    labels: tuple[Regime, ...]
    convergent: tuple[bool, ...]
    period: tuple[Optional[float], ...]

    def at(self, i_sp: int, j_sd: int) -> RegimeClassification:
        return classify(self.k_sd_axis[j_sd], self.k_sp_axis[i_sp])

    def points(self):
        """(k_sd, k_sp) of every node, row-major."""
        return ((sd, sp) for sp in self.k_sp_axis for sd in self.k_sd_axis)

    def to_dict(self) -> dict:
        nodes = zip(self.points(), self.discriminant, self.labels,
                    self.period, self.convergent)
        return {"k_sd_axis": list(self.k_sd_axis),
                "k_sp_axis": list(self.k_sp_axis),
                "nodes": [{"k_sd": sd, "k_sp": sp, "delta": delta,
                           "label": label, "period": period,
                           "convergent": convergent}
                          for (sd, sp), delta, label, period, convergent in nodes]}

    def csv_layout(self):
        """The CSV header and one row per node, every field a string that
        needs no quoting."""
        # each axis value is formatted once, not once per node
        k_sd = [repr(v) for v in self.k_sd_axis]
        k_sp = [repr(v) for v in self.k_sp_axis]
        return ("k_sd", "k_sp", "delta", "label", "period"), zip(
            k_sd * len(k_sp), [sp for sp in k_sp for _ in k_sd],
            map(repr, self.discriminant), self.labels,
            ["" if period is None else repr(period) for period in self.period])


def phase_grid(k_sd_range: tuple[float, float, int],
               k_sp_range: tuple[float, float, int]) -> PhaseGrid:
    """Classify every node of a rectangular (k_sd, k_sp) grid; imports
    numpy."""
    import numpy as np

    for lo, hi, n in (k_sd_range, k_sp_range):
        if n < 2:
            raise ValueError("each axis needs at least 2 points")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("range must have finite lo < hi")
    # k_sd = 0 is outside the model's domain; nudge the axis off zero.
    k_sd_axis = np.linspace(*k_sd_range)
    k_sd_axis[k_sd_axis <= 0] = 1e-9
    k_sp_axis = np.linspace(*k_sp_range)
    k_sp_axis[k_sp_axis < 0] = 0.0
    delta, code, convergent, period = (
        v.ravel().tolist() for v in _regimes(*np.meshgrid(k_sd_axis, k_sp_axis)))
    return PhaseGrid(tuple(k_sd_axis.tolist()), tuple(k_sp_axis.tolist()),
                     tuple(delta), tuple(map(_RULE_LABELS.__getitem__, code)),
                     tuple(convergent), tuple(period))
