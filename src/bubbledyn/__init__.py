"""Commodity-price dynamics: supply/demand equilibria, ethanol supply
shocks, trend-following speculators, and their combined fit to food-price
data.

Each export is imported from its module on first access (PEP 562), so
``import bubbledyn`` loads no numerical module.
"""

import importlib

#: The exported names of each module.
_EXPORTS = {
    "combined": ("CombinedFit", "CombinedParams", "fit_combined",
                 "simulate_combined"),
    "data_io": ("derive_surplus", "emit", "load_series"),
    "errors": ("AlignmentError", "BubbledynError", "DataError",
               "DegenerateInputError", "DomainError", "FitError"),
    "ethanol": ("QuadraticTrend", "TrendComparison", "quadratic_fit",
                "trend_comparison"),
    "fitting": ("FitReport", "minimize", "r_squared"),
    "speculators": ("PhaseGrid", "Regime", "RegimeClassification",
                    "SpeculatorParams", "classify", "closed_form_first_order",
                    "closed_form_second_order", "oscillation_theta",
                    "phase_grid", "simulate_first_order",
                    "simulate_second_order"),
    "supply_demand": ("EquilibriumPath", "SupplyDemandFit",
                      "SupplyDemandParams", "equilibrium", "fit_supply_demand",
                      "shock_update", "simulate_equilibrium_path"),
    "timeseries": ("Frequency", "LagScan", "TimeSeries", "Window", "box_cox",
                   "inverse_box_cox", "lagged_cross_correlation",
                   "normalize_unit_interval", "pearson_correlation"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
