"""Uniform-price prosumer market: equilibria, condition checks, experiments."""

from .conditions import (ConditionReport, check_eq15, check_eq21, check_lemma1,
                         eq15_bounds, evaluate_conditions)
from .errors import (BracketFailure, ConfigError, DomainError, InvalidBids,
                     ProsumerMarketError, SaturationWarning, TooLarge,
                     UnboundedPayoff)
from .experiments import (CSV_HEADER, PANELS, EquilibriumReport, SweepRow,
                          SweepSpec, case_study_spec, emit_csv, emit_gnuplot,
                          equilibrium_report, load_config_file, run_sweep)
from .market import (Allocation, ExponentialUtility, MarketConfig,
                     clearing_price, modified_utility, modified_utility_deriv,
                     modified_utility_deriv2, quantity_from_bid)
from .oracle import (BestResponseResult, best_response, brute_force_program,
                     strategic_payoff)
from .solver import (MODE_MODIFIED, MODE_TRUE, SolveResult,
                     marginal_inverse_modified, marginal_inverse_true,
                     recover_bids, solve_dual, welfare)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "BestResponseResult", "BracketFailure",
    "CSV_HEADER", "ConditionReport", "ConfigError", "DomainError",
    "EquilibriumReport", "ExponentialUtility", "InvalidBids",
    "MODE_MODIFIED", "MODE_TRUE", "MarketConfig", "PANELS",
    "ProsumerMarketError", "SaturationWarning", "SolveResult", "SweepRow",
    "SweepSpec", "TooLarge", "UnboundedPayoff",
    "best_response", "brute_force_program", "case_study_spec",
    "check_eq15", "check_eq21", "check_lemma1",
    "clearing_price", "emit_csv", "emit_gnuplot", "eq15_bounds",
    "equilibrium_report", "evaluate_conditions", "load_config_file",
    "marginal_inverse_modified", "marginal_inverse_true", "modified_utility",
    "modified_utility_deriv", "modified_utility_deriv2", "quantity_from_bid",
    "recover_bids", "run_sweep", "solve_dual", "strategic_payoff", "welfare",
]
