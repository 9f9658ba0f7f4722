"""Experiment harness helpers: tables, statistics, ratio measurement."""

from .ratios import RatioRecord, compare_algorithms, measure_ratio, reference_makespan
from .robustness import PerturbationResult, perturb_instance, robustness_curve
from .stats import fit_log_growth, loglog_slope
from .tables import Table

__all__ = [
    "RatioRecord",
    "compare_algorithms",
    "measure_ratio",
    "reference_makespan",
    "PerturbationResult",
    "perturb_instance",
    "robustness_curve",
    "fit_log_growth",
    "loglog_slope",
    "Table",
]
