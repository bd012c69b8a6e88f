"""Generalized binomial trees for option pricing and inference.

The step model carries separate up/down drifts (gamma, delta), a base up
probability g with slope v (p = g + v*sqrt(dt)), and volatility sigma.
CRR, Jarrow-Rudd, and Tian are parameter choices inside the family; with
gamma = delta and v = 0 the one-step gross-return moments reproduce those
of a geometric Brownian motion. The subpackages cover risk-neutral
lattice pricing, convergence diagnostics against the lognormal limit,
least-squares chain calibration, and estimation of the up probability
from return data.
"""

from .calibration import (CalibrationConfig, CalibrationResult, ErrorMetrics,
                          MODELS, OptionQuote, calibrate, calibrate_suite,
                          calibration_report_csv, error_metrics, model_prices)
from .convergence import (DiscreteCdf, RateExperiment, RatePoint,
                          kolmogorov_distance, lognormal_cdf, rate_constant,
                          rate_experiment, terminal_distribution)
from .errors import ArbitrageError, DataFormatError, DomainError
from .market_io import (ChainFile, ReturnSeries, load_chain, load_config,
                        load_returns, write_chain)
from .model import (ModelParams, StepFactors, crr_params, gbm_moment,
                    jarrow_rudd_params, p_up, step_factors_asymptotic,
                    step_factors_exact, step_moment, tian_params,
                    validate_params)
from .optimize import MinimizeConfig, MinimizeResult, least_squares, minimize
from .pricing import (DiscontinuityReport, Lattice, Payoff, black_scholes_call,
                      delta_hedge, discontinuity_report, price_european,
                      risk_neutral_prob)
from .stats import (HomogeneityResult, UpDownCounts, YearEstimate, chi2_sf,
                    exact_binomial_test, grouped_estimates, homogeneity_test,
                    proportion_ci, up_proportion)

__version__ = "0.1.0"

__all__ = [
    "ArbitrageError", "DataFormatError", "DomainError",
    "ModelParams", "StepFactors", "validate_params", "p_up",
    "step_factors_exact", "step_factors_asymptotic",
    "crr_params", "jarrow_rudd_params", "tian_params",
    "step_moment", "gbm_moment",
    "Payoff", "Lattice", "risk_neutral_prob",
    "delta_hedge", "price_european", "DiscontinuityReport",
    "discontinuity_report", "black_scholes_call",
    "DiscreteCdf", "terminal_distribution", "lognormal_cdf",
    "kolmogorov_distance", "rate_constant", "RatePoint", "RateExperiment",
    "rate_experiment",
    "MODELS", "OptionQuote", "ErrorMetrics", "error_metrics",
    "CalibrationConfig", "CalibrationResult", "model_prices", "calibrate",
    "calibrate_suite", "calibration_report_csv",
    "MinimizeConfig", "MinimizeResult", "minimize", "least_squares",
    "UpDownCounts", "up_proportion", "proportion_ci", "exact_binomial_test",
    "HomogeneityResult", "homogeneity_test", "chi2_sf", "YearEstimate",
    "grouped_estimates",
    "ChainFile", "ReturnSeries", "load_chain", "write_chain",
    "load_returns", "load_config",
    "__version__",
]
