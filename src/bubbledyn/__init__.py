"""Commodity-price dynamics: supply/demand equilibria, ethanol supply
shocks, trend-following speculators, and their combined fit to food-price
data."""

from .combined import (CombinedFit, CombinedParams, fit_combined,
                       simulate_combined)
from .data_io import derive_surplus, emit, load_series
from .errors import (AlignmentError, BubbledynError, DataError,
                     DegenerateInputError, DomainError, FitError)
from .ethanol import (QuadraticTrend, TrendComparison, quadratic_fit,
                      trend_comparison)
from .fitting import FitReport, minimize, r_squared
from .speculators import (PhaseGrid, Regime, RegimeClassification,
                          SpeculatorParams, classify, closed_form_first_order,
                          closed_form_second_order, oscillation_theta,
                          phase_grid, simulate_first_order,
                          simulate_second_order)
from .supply_demand import (EquilibriumPath, SupplyDemandFit,
                            SupplyDemandParams, equilibrium,
                            fit_supply_demand, shock_update,
                            simulate_equilibrium_path)
from .timeseries import (Frequency, LagScan, TimeSeries, Window, box_cox,
                         inverse_box_cox, lagged_cross_correlation,
                         normalize_unit_interval, pearson_correlation)

__version__ = "0.1.0"
