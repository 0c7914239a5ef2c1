"""Trend-following speculator dynamics.

First-order Walrasian price adjustment, the second-order recurrence that
trend followers induce, closed-form solutions for every discriminant case,
regime classification, and phase-diagram generation over (k_sd, k_sp).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError
from .timeseries import Frequency, TimeSeries

#: |discriminant| below which the repeated-root solution is used.
DELTA_EPS = 1e-12

#: Half-width of the sustained-oscillation band around k_sp = 1.
KSP_TOL = 1e-9


@dataclass(frozen=True)
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
        if self.k_sd <= 0:
            raise ValueError("k_sd must be positive")
        if self.k_sp < 0:
            raise ValueError("k_sp must be non-negative")

    @property
    def equilibrium_price(self) -> float:
        return self.k_c / self.k_sd


class Regime(Enum):
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


@dataclass(frozen=True)
class RegimeClassification:
    """Qualitative behavior at one (k_sd, k_sp) point."""

    k_sd: float
    k_sp: float
    discriminant: float
    roots: tuple[complex, complex]
    label: Regime
    convergent: bool
    theta: Optional[float] = None
    period: Optional[float] = None


def _char_coeffs(k_sd: float, k_sp: float) -> tuple[float, float]:
    """(b, c) of the characteristic polynomial m**2 + b*m + c."""
    return k_sd - k_sp - 1.0, k_sp


def iterate(const: Sequence[float], a: Sequence[float], b: Sequence[float],
            p0: float, p1: float) -> list[float]:
    """Step P(t+1) = const[i] + a[i] P(t) + b[i] P(t-1) once per coefficient,
    from P(t-1) = p0 and P(t) = p1; returns the len(const) prices after p1.

    Every price path of the package (first order, second order and the
    combined model) runs through this loop over plain Python floats.
    """
    path = []
    prev, cur = p0, p1
    for c, a_i, b_i in zip(const, a, b):
        prev, cur = cur, c + a_i * cur + b_i * prev
        path.append(cur)
    return path


def simulate_first_order(params: SpeculatorParams, p0: float, steps: int) -> TimeSeries:
    """Iterate P(t+1) = k_c + (1 - k_sd) P(t); length steps + 1."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p0 = float(p0)
    path = iterate([params.k_c] * steps, [1.0 - params.k_sd] * steps,
                   [0.0] * steps, 0.0, p0)
    return TimeSeries((2000, 1), Frequency.MONTHLY, (p0, *path), "price")


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
    path = iterate([params.k_c] * n, [1.0 + params.k_sp - params.k_sd] * n,
                   [-params.k_sp] * n, p0, p1)
    return TimeSeries((2000, 1), Frequency.MONTHLY, (p0, p1, *path), "price")


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

    Dispatches on the discriminant: two real roots, a repeated root, or the
    complex pair whose modulus is sqrt(k_sp).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    p_e = params.equilibrium_price
    if t == 0:
        return p_e
    b, c = _char_coeffs(params.k_sd, params.k_sp)
    delta = b * b - 4.0 * c
    dev = p1_deviation
    if abs(delta) < DELTA_EPS:
        return dev * (-b / 2.0) ** (t - 1) * t + p_e
    if delta > 0:
        sq = math.sqrt(delta)
        m1 = (-b + sq) / 2.0
        m2 = (-b - sq) / 2.0
        return dev * (m1 ** t - m2 ** t) / sq + p_e
    # delta < 0: oscillation with modulus sqrt(k_sp)
    theta = oscillation_theta(params.k_sd, params.k_sp)
    sin_theta = math.sin(theta)
    if sin_theta == 0.0:
        raise DegenerateInputError("sin(theta) = 0: degenerate oscillation")
    sign_b = 1.0 if b >= 0 else -1.0
    modulus = math.sqrt(params.k_sp)
    return ((-sign_b) ** (t - 1) * modulus ** (t - 1) * dev
            * math.sin(theta * t) / sin_theta + p_e)


def _first_order_label(ratio: float) -> tuple[Regime, bool]:
    convergent = abs(ratio) < 1.0
    if convergent:
        label = (Regime.FIRST_ORDER_MONOTONE_CONVERGENT if ratio >= 0
                 else Regime.FIRST_ORDER_ALTERNATING)
    elif ratio >= 0:
        label = Regime.FIRST_ORDER_MONOTONE_DIVERGENT
    else:
        # divergent alternation is ordinary two-real-root divergence
        label = Regime.REAL_DIVERGENT
    return label, convergent


def classify(k_sd: float, k_sp: float) -> RegimeClassification:
    """Discriminant, characteristic roots, and regime label at one point."""
    if k_sd <= 0:
        raise ValueError("k_sd must be positive")
    if k_sp < 0:
        raise ValueError("k_sp must be non-negative")
    b, c = _char_coeffs(k_sd, k_sp)
    delta = b * b - 4.0 * c
    theta = None
    period = None
    if abs(delta) < DELTA_EPS and k_sp > 0:
        root = -b / 2.0
        roots = (complex(root), complex(root))
        convergent = abs(root) < 1.0
        label = (Regime.REPEATED_ROOT_CONVERGENT if convergent
                 else Regime.REPEATED_ROOT_DIVERGENT)
    elif delta < 0:
        sq = cmath.sqrt(complex(delta))
        roots = ((-b + sq) / 2.0, (-b - sq) / 2.0)
        theta = oscillation_theta(k_sd, k_sp)
        period = 2.0 * math.pi / theta
        if abs(k_sp - 1.0) <= KSP_TOL:
            label, convergent = Regime.SUSTAINED_OSCILLATION, False
        elif k_sp < 1.0:
            label, convergent = Regime.DAMPED_OSCILLATION, True
        else:
            label, convergent = Regime.AMPLIFIED_OSCILLATION, False
    else:
        sq = math.sqrt(delta)
        m1, m2 = (-b + sq) / 2.0, (-b - sq) / 2.0
        roots = (complex(m1), complex(m2))
        convergent = max(abs(m1), abs(m2)) < 1.0
        if k_sp == 0:
            # pure Walrasian adjustment: roots are {1 - k_sd, 0}
            label, convergent = _first_order_label(1.0 - k_sd)
        else:
            label = Regime.REAL_CONVERGENT if convergent else Regime.REAL_DIVERGENT
    return RegimeClassification(k_sd=k_sd, k_sp=k_sp, discriminant=delta,
                                roots=roots, label=label, convergent=convergent,
                                theta=theta, period=period)


@dataclass(frozen=True)
class PhaseGrid:
    """Row-major grid of classifications; rows sweep k_sp, columns k_sd."""

    k_sd_axis: tuple[float, ...]
    k_sp_axis: tuple[float, ...]
    nodes: tuple[RegimeClassification, ...]

    def at(self, i_sp: int, j_sd: int) -> RegimeClassification:
        return self.nodes[i_sp * len(self.k_sd_axis) + j_sd]


def phase_grid(k_sd_range: tuple[float, float, int],
               k_sp_range: tuple[float, float, int]) -> PhaseGrid:
    """Classify every node of a rectangular (k_sd, k_sp) grid."""
    for lo, hi, n in (k_sd_range, k_sp_range):
        if n < 2:
            raise ValueError("each axis needs at least 2 points")
        if lo >= hi:
            raise ValueError("range must have lo < hi")
    sd_lo, sd_hi, sd_n = k_sd_range
    sp_lo, sp_hi, sp_n = k_sp_range
    # k_sd = 0 is outside the model's domain; nudge the axis off zero.
    k_sd_axis = np.linspace(sd_lo, sd_hi, sd_n)
    k_sd_axis[k_sd_axis <= 0] = 1e-9
    k_sp_axis = np.linspace(sp_lo, sp_hi, sp_n)
    k_sp_axis[k_sp_axis < 0] = 0.0
    nodes = [classify(float(sd), float(sp))
             for sp in k_sp_axis for sd in k_sd_axis]
    return PhaseGrid(tuple(float(v) for v in k_sd_axis),
                     tuple(float(v) for v in k_sp_axis),
                     tuple(nodes))
