import numpy as np
import pytest

from bellhop import chsh
from bellhop.chsh import (
    PAIRS,
    ChshFamily,
    chsh_value,
    classical_bound_check,
    optimize_family,
    random_classical_instance,
    saturating_family,
)
from bellhop.density import ROUND_OFF, expectation, make_grid_density, uniform_density
from bellhop.errors import DomainMismatch, GridMisaligned, InputOutOfRange
from bellhop.intervals import Interval
from bellhop.observables import make_observable
from bellhop.steprv import PartialRV, make_step


def uniform_family():
    return ChshFamily(*[
        uniform_density(Interval(float(a), a + 1.0), Interval(float(b), b + 1.0))
        for a, b in PAIRS
    ])


def random_segments(rng):
    """Disjoint spans that start at 0 or inside or before it, end at 1 or
    inside or past it, and sometimes have a gap."""
    lo = float(rng.choice([0.0] * 6 + [0.125, -0.25]))
    hi = float(rng.choice([1.0] * 6 + [0.875, 1.25]))
    if rng.random() < 0.1:
        g1, g2 = np.sort(rng.uniform(lo, hi, 2)).tolist()
        return [(lo, g1), (g2, hi)]
    return [(lo, hi)]


def random_partial(rng, segments, axis):
    """A ±1 step function with random cuts on the given spans."""
    pieces = []
    for lo, hi in segments:
        cuts = [lo, *np.sort(rng.uniform(lo, hi, int(rng.integers(0, 4)))).tolist(), hi]
        pieces += [
            (Interval(c0, c1), float(rng.choice([-1.0, 1.0])))
            for c0, c1 in zip(cuts, cuts[1:]) if c0 < c1
        ]
    return PartialRV(tuple(pieces), axis)


def random_partial_instance(rng):
    """Four observables where each axis's second one shares the first one's
    spans 80% of the time, plus a random density on the unit square."""
    rvs = []
    for axis in ("x", "y"):
        first = random_segments(rng)
        second = first if rng.random() < 0.8 else random_segments(rng)
        rvs += [random_partial(rng, first, axis), random_partial(rng, second, axis)]
    nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    rho = make_grid_density(Interval(0.0, 1.0), Interval(0.0, 1.0), rng.random((nx, ny)) + 1e-3)
    return (*rvs, rho)


def reference_check(a0, a1, b0, b1, rho):
    """S by the former rule, or None where it raised DomainMismatch: domains
    compared through DomainSet.intersect and measure, then S from the four
    per-pair expectations."""
    for f, g in ((a0, a1), (b0, b1)):
        common = f.domain.intersect(g.domain).measure()
        if max(abs(f.domain.measure() - common), abs(g.domain.measure() - common)) > ROUND_OFF:
            return None
    a, b = (a0, a1), (b0, b1)
    try:
        return chsh_value(*(expectation(a[alpha], b[beta], rho) for alpha, beta in PAIRS))
    except DomainMismatch:
        return None


class TestChshValue:
    def test_saturating(self):
        assert chsh_value(1, 1, 1, -1) == 4

    def test_zero(self):
        assert chsh_value(0, 0, 0, 0) == 0

    def test_all_ones(self):
        assert chsh_value(1, 1, 1, 1) == 2

    def test_out_of_range(self):
        with pytest.raises(InputOutOfRange):
            chsh_value(1.1, 0, 0, 0)


class TestSaturatingFamily:
    def test_expectations_exact(self):
        assert saturating_family().expectations() == (1.0, 1.0, 1.0, -1.0)

    def test_marginals_exactly_zero(self):
        marginals = saturating_family().marginals()
        assert len(marginals) == 8
        assert all(v == 0.0 for v in marginals.values())

    def test_chsh_is_four(self):
        assert chsh_value(*saturating_family().expectations()) == 4.0


class TestOptimizeFamily:
    def test_matches_saturating_construction(self):
        family, achieved = optimize_family((1, 1, 1, -1), (4, 4), eps=1e-9)
        oracle = saturating_family().expectations()
        for got, want in zip(achieved, oracle):
            assert abs(got - want) < 1e-6
        assert all(abs(v) <= 1e-9 for v in family.marginals().values())

    def test_zero_targets(self):
        _, achieved = optimize_family((0, 0, 0, 0))
        assert all(abs(e) <= 1e-9 for e in achieved)

    def test_misaligned_grid(self):
        for grid in ((3, 3), (0, 0), (-4, 4)):
            with pytest.raises(GridMisaligned):
                optimize_family((1, 1, 1, -1), grid)

    def test_output_feasibility(self):
        family, _ = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))
        for rho in family.densities():
            assert np.all(rho.weights >= 0)
            assert abs(rho.cell_probabilities().sum() - 1.0) <= 1e-12
        assert all(abs(v) <= 1e-9 for v in family.marginals().values())

    def test_any_target_reachable(self):
        # four unrelated densities make the correlators independently tunable
        rng = np.random.default_rng(17)
        for _ in range(10):
            targets = rng.uniform(-1, 1, 4)
            family, _ = optimize_family(targets, (4, 4), eps=1e-9)
            for got, want in zip(family.expectations(), targets):
                assert abs(got - want) < 1e-6


class TestClassicalBound:
    def test_factorizing_case(self):
        a = make_observable(0.0, "x")
        b = make_observable(0.0, "y")
        rho = uniform_density(Interval(0, 1), Interval(0, 1))
        s = classical_bound_check(a, a, b, b, rho)
        assert s == 0.0

    def test_randomized_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a0, a1, b0, b1, rho = random_classical_instance(rng)
            s = classical_bound_check(a0, a1, b0, b1, rho)
            assert abs(s) <= 2.0 + 1e-12

    def test_pointwise_oracle(self):
        rng = np.random.default_rng(29)
        a0, a1, b0, b1, _ = random_classical_instance(rng)
        xs = rng.random(10_000)
        ys = rng.random(10_000)
        va0, va1 = a0.eval_many(xs)[0], a1.eval_many(xs)[0]
        vb0, vb1 = b0.eval_many(ys)[0], b1.eval_many(ys)[0]
        s = va0 * vb0 + va1 * vb0 + va0 * vb1 - va1 * vb1
        assert np.all(np.abs(s) <= 2.0)

    def test_range_check_kept(self):
        # each correlator still passes chsh_value's |E| <= 1 check
        a = make_step([0.0, 1.0], [2.0], "x")
        b = make_step([0.0, 1.0], [2.0], "y")
        rho = uniform_density(Interval(0, 1), Interval(0, 1))
        with pytest.raises(InputOutOfRange):
            classical_bound_check(a, a, b, b, rho)

    def test_factorization_oracle(self):
        rng = np.random.default_rng(31)
        outcomes = {"value": 0, "mismatch": 0}
        for _ in range(600):
            a0, a1, b0, b1, rho = random_partial_instance(rng)
            want = reference_check(a0, a1, b0, b1, rho)
            if want is None:
                with pytest.raises(DomainMismatch):
                    classical_bound_check(a0, a1, b0, b1, rho)
                outcomes["mismatch"] += 1
            else:
                assert abs(classical_bound_check(a0, a1, b0, b1, rho) - want) <= 1e-15
                outcomes["value"] += 1
        assert min(outcomes.values()) >= 150, outcomes

    def test_disjoint_domains_rejected(self):
        a0 = make_observable(0.0, "x")
        a1 = make_observable(1.0, "x")
        b = make_observable(0.0, "y")
        rho = uniform_density(Interval(0, 1), Interval(0, 1))
        with pytest.raises(DomainMismatch):
            classical_bound_check(a0, a1, b, b, rho)


class TestFamilySerialization:
    def test_round_trip(self):
        family = saturating_family()
        d = family.to_dict()
        assert d["expectations"]["S"] == 4.0
        again = ChshFamily.from_dict(d)
        assert again.expectations() == family.expectations()

    def test_summary_matches_methods_with_one_pass_per_pair(self, monkeypatch):
        family, _ = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))
        calls = []
        integrate = chsh._integrate
        monkeypatch.setattr(
            chsh, "_integrate", lambda *args: calls.append(args) or integrate(*args)
        )
        summary = family.to_dict()["expectations"]
        assert len(calls) == len(PAIRS)
        es = family.expectations()
        assert tuple(summary[f"e{a}{b}"] for a, b in PAIRS) == es
        assert summary["marginals"] == family.marginals()
        assert summary["S"] == chsh_value(*es)

    def test_rectangle_validation(self):
        rho = uniform_density(Interval(0, 1), Interval(0, 1))
        with pytest.raises(DomainMismatch):
            ChshFamily(rho, rho, rho, rho)
