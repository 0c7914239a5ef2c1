"""Seeded input generator for the benchmark.

Everything here depends only on numpy and the seed, never on ``bubbledyn``,
so a change to the program cannot change the inputs it is measured on.
Each generator returns the parameters it drew, so that every job record can
store how its inputs were made.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Paper calibration of the combined model (k_sd, k_sp, market couplings).
PAPER = {"k_sd": 0.098, "k_sp": 1.29, "couplings": [-0.095, -67.9]}

#: Background trend a + b t^2 and the first two prices of every food path.
TREND_A, TREND_B = 105.0, 0.01
P0, P1 = 105.0, 105.5

FOOD_START = (2004, 1)
FOOD_MONTHS = 88
ANNUAL_START = 1990
ANNUAL_YEARS = 20


def write_csv(path: Path, start: tuple[int, int], values, monthly: bool) -> None:
    """Two-column date,value CSV with exact (repr) values."""
    year, month = start
    lines = ["date,value"]
    for v in values:
        lines.append(f"{year:04d}-{month:02d},{float(v)!r}" if monthly
                     else f"{year:04d},{float(v)!r}")
        if monthly:
            month += 1
            if month > 12:
                year, month = year + 1, 1
        else:
            year += 1
    path.write_text("\n".join(lines) + "\n")


def read_csv_values(path: Path) -> np.ndarray:
    return np.array([float(line.split(",")[1])
                     for line in path.read_text().splitlines()[1:]])


def markets(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Equity index level and raw 10-year yield (percent), both monthly."""
    t = np.arange(n, dtype=float)
    eq_period, eq_phase = rng.uniform(30.0, 50.0), rng.uniform(0.0, 2 * math.pi)
    eq_drift = rng.uniform(-3.0, 1.0)
    equity = (1200.0 + 200.0 * np.sin(2 * math.pi * t / eq_period + eq_phase)
              + eq_drift * t + np.cumsum(rng.normal(0.0, 10.0, n)))
    y_period, y_phase = rng.uniform(25.0, 40.0), rng.uniform(0.0, 2 * math.pi)
    yields = (4.5 + 0.5 * np.sin(2 * math.pi * t / y_period + y_phase)
              + np.cumsum(rng.normal(0.0, 0.03, n)))
    params = {"equity_period": eq_period, "equity_phase": eq_phase,
              "equity_drift": eq_drift, "yield_period": y_period,
              "yield_phase": y_phase}
    return equity, yields, params


def combined_path(k_sd: float, k_sp: float, couplings, switch: int,
                  market_values, n: int) -> np.ndarray:
    """The combined recurrence, stepped directly from its definition."""
    p = np.empty(n)
    p[0], p[1] = P0, P1
    for t in range(1, n - 1):
        nxt = (TREND_A + TREND_B * t * t) * k_sd + TREND_B * (2 * t + 1) \
            + (1.0 - k_sd) * p[t]
        if t >= switch:
            nxt += k_sp * (p[t] - p[t - 1])
            for k_i, m in zip(couplings, market_values):
                nxt += k_i * (m[t] - m[t - 1])
        p[t + 1] = nxt
    return p


def combined_problem(bank_rng: np.random.Generator, kind: str,
                     noise_rng: np.random.Generator | None) -> dict:
    """One fit-combined problem: the paper calibration or a draw with damped
    (k_sp < 1) or amplified (k_sp > 1) speculation, plus Gaussian observation
    noise when ``noise_rng`` is given.  Draws are used as they come,
    including amplified paths that leave the price domain."""
    equity, yields, market_params = markets(bank_rng, FOOD_MONTHS)
    # the CLI loads the yield file with ':inverse'; build the path on the
    # same 1/value floats it will see
    inverse_yields = np.array([1.0 / float(v) for v in yields])
    if kind == "paper":
        k_sd, k_sp, couplings = PAPER["k_sd"], PAPER["k_sp"], list(PAPER["couplings"])
    else:
        k_sd = float(bank_rng.uniform(0.05, 0.2))
        k_sp = float(bank_rng.uniform(0.5, 0.95) if kind == "damped"
                     else bank_rng.uniform(1.05, 1.4))
        couplings = [float(bank_rng.uniform(-0.2, 0.0)),
                     float(bank_rng.uniform(-100.0, -30.0))]
    switch = int(bank_rng.integers(36, 48))  # a month of 2007
    food = combined_path(k_sd, k_sp, couplings, switch,
                         (equity, inverse_yields), FOOD_MONTHS)
    noise_sd = 0.0
    if noise_rng is not None:
        noise_sd = 1.0
        food = food + noise_rng.normal(0.0, noise_sd, FOOD_MONTHS)
    return {"kind": kind, "k_sd": k_sd, "k_sp": k_sp, "couplings": couplings,
            "switch_index": switch, "noise_sd": noise_sd,
            "trend_a": TREND_A, "trend_b": TREND_B, **market_params,
            "food": food, "equity": equity, "yields": yields}


def box_cox(x, lam):
    return np.expm1(lam * np.log(x)) / lam


def inverse_box_cox(y, lam):
    return np.exp(np.log1p(lam * y) / lam)


def supply_demand_problem(rng: np.random.Generator, noise: bool) -> dict:
    """Annual price, consumption and surplus from the equilibrium model,
    with the intercepts pinned to the first observation as the fit pins
    them."""
    lam = float(rng.uniform(0.75, 1.05))
    beta_d = float(rng.uniform(0.5, 2.5))
    beta_s = float(rng.uniform(0.3, 1.5))
    p0_raw = float(rng.uniform(150.0, 250.0))
    q0_raw = float(rng.uniform(550.0, 650.0))
    p0, q0 = float(box_cox(p0_raw, lam)), float(box_cox(q0_raw, lam))
    alpha_d, alpha_s = q0 + beta_d * p0, q0 - beta_s * p0
    params = {"lambda": lam, "beta_d": beta_d, "beta_s": beta_s,
              "alpha_d0": alpha_d, "alpha_s0": alpha_s}
    surplus = rng.normal(0.0, 4.0, ANNUAL_YEARS)
    prices, quantities = np.empty(ANNUAL_YEARS), np.empty(ANNUAL_YEARS)
    for t in range(ANNUAL_YEARS):
        if t > 0:
            s = surplus[t - 1]
            if s < 0:
                alpha_d -= s
            elif s > 0:
                alpha_s += s
        prices[t] = (alpha_d - alpha_s) / (beta_d + beta_s)
        quantities[t] = (alpha_d * beta_s + alpha_s * beta_d) / (beta_d + beta_s)
    price = inverse_box_cox(prices, lam)
    consumption = inverse_box_cox(quantities, lam)
    noise_rel = 0.01 if noise else 0.0
    if noise:
        # keep the first point exact: the fit pins the intercepts to it
        price[1:] *= 1.0 + rng.normal(0.0, noise_rel, ANNUAL_YEARS - 1)
        consumption[1:] *= 1.0 + rng.normal(0.0, noise_rel, ANNUAL_YEARS - 1)
    return {**params, "noise_rel": noise_rel, "price": price,
            "consumption": consumption, "surplus": surplus}


def ethanol_problem(rng: np.random.Generator) -> dict:
    """Annual ethanol production and food index, both quadratic in time,
    with a food-price bubble over a seeded window."""
    t = np.arange(ANNUAL_YEARS, dtype=float)
    eth_b, food_b = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.6)
    ethanol = 10.0 + eth_b * t * t + rng.normal(0.0, 2.0, ANNUAL_YEARS)
    food = 90.0 + food_b * t * t + rng.normal(0.0, 1.5, ANNUAL_YEARS)
    begin = int(rng.integers(ANNUAL_YEARS - 6, ANNUAL_YEARS - 2))
    food[begin:begin + 2] += rng.uniform(30.0, 60.0)
    return {"ethanol_b": eth_b, "food_b": food_b,
            "exclude": [begin, begin + 2], "ethanol": ethanol, "food": food}


def lag_problem(rng: np.random.Generator, n: int = 120) -> dict:
    """Monthly price deviation and an inventory change that follows it with
    a seeded lag."""
    lag = int(rng.integers(8, 16))
    base = np.cumsum(rng.normal(0.0, 1.0, n + lag))
    deviation = base[lag:]
    inventory = -base[:n] * 0.5 + rng.normal(0.0, 0.3, n)
    return {"lag": lag, "deviation": deviation, "inventory": inventory}
