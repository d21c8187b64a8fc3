"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import time

import numpy as np
import pytest

from bellhop.chsh import (
    chsh_value,
    classical_bound_check,
    optimize_family,
    random_classical_instance,
    saturating_family,
)
from bellhop.cli import main, write_figures
from bellhop.deriv import BinOp, Symbol, analyze, parse
from bellhop.errors import EmptyDomain
from bellhop.observables import log_curve, make_observable, thresholds
from bellhop.simulate import ExperimentConfig, estimate, run_experiment
from bellhop.density import GridDensity
from bellhop.intervals import Interval
from bellhop.chsh import PAIRS, ChshFamily
from bellhop.steprv import combine


def _report(number, label, started):
    print(f"CRITERION {number} ({label}): PASS [{time.time() - started:.2f}s]")


def test_criterion_1_threshold_exactness():
    started = time.time()
    a0 = make_observable(0.0)
    assert thresholds(0.0) == (0.25, 0.75)
    assert a0.eval(0.25 - 1e-9) == -1.0 and a0.eval(0.25 + 1e-9) == 1.0
    assert a0.eval(0.75 - 1e-9) == 1.0 and a0.eval(0.75 + 1e-9) == -1.0
    rng = np.random.default_rng(101)
    xs = rng.random(10_000)
    xs = xs[(xs != 0.0) & (xs != 0.25) & (xs != 0.75)]
    mismatches = sum(
        1 for x in xs if a0.eval(x) != math.copysign(1.0, log_curve(0.0, x))
    )
    assert mismatches == 0
    assert time.time() - started < 1.0
    _report(1, "threshold exactness", started)


def test_criterion_2_empty_domain_obstruction(capsys):
    started = time.time()
    a0, a1 = make_observable(0.0), make_observable(1.0)
    with pytest.raises(EmptyDomain):
        combine(a0, a1, "sum")
    with pytest.raises(EmptyDomain):
        combine(a0, a1, "product")

    factored = analyze(parse("(a0+a1)*b0"))
    assert factored.verdict == "empty"
    assert factored.culprit.node == BinOp("+", Symbol("a", 0.0), Symbol("a", 1.0))

    expanded = analyze(parse("a0*b0 + a1*b0"))
    assert expanded.verdict == "empty"
    assert expanded.culprit.node == parse("a0*b0 + a1*b0")

    ghz = analyze(parse("a0*a1"))
    assert ghz.verdict == "empty"
    assert ghz.culprit.node == BinOp("*", Symbol("a", 0.0), Symbol("a", 1.0))

    assert main(["domain", "--expr", "(a0+a1)*b0"]) == 3
    capsys.readouterr()
    assert time.time() - started < 1.0
    _report(2, "empty-domain obstruction", started)


def test_criterion_3_domain_shrink_sweep():
    started = time.time()
    a0 = make_observable(0.0)
    for alpha in (0.0, 0.25, 0.5, 0.75):
        total = combine(a0, make_observable(alpha), "sum")
        assert total.domain.measure() == 1.0 - alpha
    with pytest.raises(EmptyDomain):
        combine(a0, make_observable(1.0), "sum")
    assert time.time() - started < 1.0
    _report(3, "domain-shrink sweep", started)


def test_criterion_4_saturation_with_zero_marginals():
    started = time.time()
    family = saturating_family()
    assert family.expectations() == (1.0, 1.0, 1.0, -1.0)
    marginals = family.marginals()
    assert len(marginals) == 8
    assert all(v == 0.0 for v in marginals.values())
    assert chsh_value(*family.expectations()) == 4.0
    assert time.time() - started < 1.0
    _report(4, "saturation with zero marginals", started)


def test_criterion_5_optimizer_equivalence():
    started = time.time()
    family, achieved = optimize_family((1, 1, 1, -1), (4, 4))
    s = chsh_value(*achieved)
    assert s >= 4.0 - 1e-6
    assert all(abs(v) <= 1e-9 for v in family.marginals().values())
    assert time.time() - started < 10.0
    _report(5, "optimizer equivalence", started)


def test_criterion_6_classical_common_domain_bound():
    started = time.time()
    rng = np.random.default_rng(606)
    for _ in range(1000):
        a0, a1, b0, b1, rho = random_classical_instance(rng)
        s = classical_bound_check(a0, a1, b0, b1, rho)
        assert abs(s) <= 2.0 + 1e-12
    a0, a1, b0, b1, _ = random_classical_instance(rng)
    xs, ys = rng.random(100_000), rng.random(100_000)
    va0, va1 = a0.eval_many(xs)[0], a1.eval_many(xs)[0]
    vb0, vb1 = b0.eval_many(ys)[0], b1.eval_many(ys)[0]
    pointwise = va0 * vb0 + va1 * vb0 + va0 * vb1 - va1 * vb1
    assert np.all(np.abs(pointwise) <= 2.0)
    assert time.time() - started < 30.0
    _report(6, "classical common-domain bound", started)


def test_criterion_7_monte_carlo_consistency():
    started = time.time()
    config = ExperimentConfig(
        family=saturating_family(), n_trials=1_000_000, master_seed=7
    )
    summary = run_experiment(config)
    assert sum(c.trials for c in summary.counts) == 1_000_000
    report = estimate(summary)
    assert abs(report.s_value - 4.0) <= 4 * report.s_se

    uniform = ChshFamily(*[
        GridDensity(Interval(float(a), a + 1.0), Interval(float(b), b + 1.0), [[1.0]])
        for a, b in PAIRS
    ])
    uconfig = ExperimentConfig(family=uniform, n_trials=1_000_000, master_seed=7)
    ureport = estimate(run_experiment(uconfig))
    for pair in ureport.pairs:
        assert abs(pair.correlator) <= 4 * pair.correlator_se

    for workers in (1, 3):
        config_w = ExperimentConfig(
            family=uniform, n_trials=100_000, master_seed=9, n_workers=workers
        )
        assert run_experiment(config_w) == run_experiment(config_w)
    assert time.time() - started < 30.0
    _report(7, "Monte-Carlo consistency", started)


def test_criterion_8_figure_data(tmp_path):
    started = time.time()
    write_figures(tmp_path / "one")
    write_figures(tmp_path / "two")
    for name in ("fig1.csv", "fig2.csv", "fig3.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()

    for line in (tmp_path / "one" / "fig1.csv").read_text().splitlines()[1:]:
        x_text, a_text, _ = line.split(",")
        x = float(x_text)
        if x in (0.0, 0.25, 0.75, 1.0):
            assert a_text == "nan"
        else:
            assert (a_text == "1") == (0.25 < x < 0.75)

    alpha_one_rows = [
        line for line in (tmp_path / "one" / "fig3.csv").read_text().splitlines()
        if line.startswith("1.00,")
    ]
    assert alpha_one_rows and all(row.endswith(",nan") for row in alpha_one_rows)
    _report(8, "figure data", started)


def test_criterion_9_cross_module_coherence():
    started = time.time()
    rng = np.random.default_rng(909)
    for _ in range(200):
        alpha = float(rng.integers(0, 1_500_001)) / 1e6
        beta = float(rng.integers(0, 1_500_001)) / 1e6
        verdict = analyze(parse(f"a[{alpha:.6f}] + a[{beta:.6f}]")).verdict
        try:
            combine(make_observable(alpha), make_observable(beta), "sum")
            materialized = "exists"
        except EmptyDomain:
            materialized = "empty"
        assert verdict == materialized, (alpha, beta)
    assert time.time() - started < 5.0
    _report(9, "cross-module coherence", started)
