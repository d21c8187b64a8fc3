"""Partial-function random variables with disjoint domains, CHSH correlators
under per-setting densities, and a derivation checker locating where the
classical Bell argument fails to exist."""

from .intervals import DomainSet, Interval
from .steprv import PartialRV, combine, make_step
from .observables import log_curve, make_observable, setting_interval, thresholds
from .density import (
    GridDensity,
    expectation,
    make_grid_density,
    marginal_means,
    sample_many,
    uniform_density,
)
from .chsh import (
    ChshFamily,
    chsh_value,
    classical_bound_check,
    optimize_family,
    saturating_family,
)
from .simulate import ExperimentConfig, ExperimentSummary, estimate, run_experiment
from .deriv import analyze, default_env, format_expr, format_report, parse

__all__ = [
    "DomainSet",
    "Interval",
    "PartialRV",
    "combine",
    "make_step",
    "log_curve",
    "make_observable",
    "setting_interval",
    "thresholds",
    "GridDensity",
    "expectation",
    "make_grid_density",
    "marginal_means",
    "sample_many",
    "uniform_density",
    "ChshFamily",
    "chsh_value",
    "classical_bound_check",
    "optimize_family",
    "saturating_family",
    "ExperimentConfig",
    "ExperimentSummary",
    "estimate",
    "run_experiment",
    "analyze",
    "default_env",
    "format_expr",
    "format_report",
    "parse",
]
