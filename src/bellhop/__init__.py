"""Partial-function random variables with disjoint domains, CHSH correlators
under per-setting densities, and a derivation checker locating where the
classical Bell argument fails to exist."""

from .intervals import DomainSet, Interval
from .steprv import PartialRV, combine, make_step
from .observables import log_curve, make_observable, setting_interval, thresholds
from .density import GridDensity, expectation
from .chsh import (
    ChshFamily,
    chsh_value,
    classical_bound_check,
    optimize_family,
    saturating_family,
)
from .simulate import ExperimentConfig, ExperimentSummary, estimate, run_experiment
from .deriv import analyze, format_expr, format_report, parse

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
    "format_expr",
    "format_report",
    "parse",
]
