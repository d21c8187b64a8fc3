import copy
import hashlib
import pickle
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from bellhop.density import ROUND_OFF, GridDensity, _correlators, _integrate, expectation
from bellhop.errors import (
    DomainMismatch, GridMisaligned, InputOutOfRange, MalformedInput, NonFiniteInput,
)
from bellhop.intervals import Interval
from bellhop.observables import make_observable, setting_interval
from bellhop.simulate import ExperimentConfig, run_experiment
from bellhop.steprv import PartialRV, make_step
import exact
from support import (
    SMALL_ALIGNED_OR_NOT, families, family_of, middle_band_density, mixed_grid_family,
    uniform_family,
)


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
    rho = GridDensity(Interval(0.0, 1.0), Interval(0.0, 1.0), rng.random((nx, ny)) + 1e-3)
    return (*rvs, rho)


def reference_check(a0, a1, b0, b1, rho):
    """S from the four per-pair expectations, or None where some pair's
    expectation raises DomainMismatch."""
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
        for e in (1.1, float("nan")):
            with pytest.raises(InputOutOfRange):
                chsh_value(e, 0, 0, 0)

    @pytest.mark.parametrize("e", ["1", None, True, [0.5]])
    def test_not_a_number(self, e):
        with pytest.raises(InputOutOfRange, match="is not a real number"):
            chsh_value(e, 0, 0, 0)
        with pytest.raises(InputOutOfRange, match="is not a real number"):
            chsh_value(0, 0, 0, e)

    def test_huge_integer_message(self):
        # past 4300 digits an integer has no repr: the message counts its digits
        with pytest.raises(InputOutOfRange, match="correlator a 5001-digit integer") as err:
            chsh_value(10**5000, 0, 0, 0)
        assert len(str(err.value)) < 300


class TestSaturatingFamily:
    def test_expectations_exact(self):
        assert saturating_family().expectations() == (1.0, 1.0, 1.0, -1.0)

    def test_marginals_exactly_zero(self):
        marginals = saturating_family().marginals()
        assert len(marginals) == 8
        assert all(v == 0.0 for v in marginals.values())

    def test_chsh_is_four(self):
        assert chsh_value(*saturating_family().expectations()) == 4.0

    def test_weights(self):
        # 2 on the cells whose sign product is the pair's target, 0 elsewhere
        signs = chsh._band_signs(4)
        for rho, t in zip(saturating_family().densities(), (1, 1, 1, -1)):
            assert np.array_equal(rho.weights, np.where(np.outer(signs, signs) == t, 2.0, 0.0))


class TestSharedObservables:
    def test_one_table(self):
        # every family hands out the same four objects, each make_observable's
        one, other = uniform_family(), saturating_family()
        for alpha, beta in PAIRS:
            pair = one.observables(alpha, beta)
            assert all(f is g for f, g in zip(pair, other.observables(alpha, beta)))
            assert pair == (make_observable(float(alpha), "x"), make_observable(float(beta), "y"))
        assert chsh.OBSERVABLES == tuple(
            tuple(make_observable(float(s), axis) for s in (0, 1)) for axis in "xy"
        )

    def test_no_observable_built_per_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an observable was built")

        monkeypatch.setattr(chsh, "make_observable", refuse)
        family, achieved = optimize_family(chsh.SIGNS, (8, 8))
        assert achieved == (1.0, 1.0, 1.0, -1.0)
        assert uniform_family().expectations() == (0.0, 0.0, 0.0, 0.0)
        summary = run_experiment(ExperimentConfig(family, 1000, 7, n_workers=2))
        assert sum(c.trials for c in summary.counts) == 1000

    def test_signs_saturate(self):
        assert chsh_value(*chsh.SIGNS) == 4
        assert saturating_family().expectations() == chsh.SIGNS


class TestOptimizeFamily:
    def test_band_signs_every_grid(self):
        # a0 on each column of every allowed grid; from n = 12 on, some midpoints are not dyadic
        for n in range(4, chsh.MAX_GRID + 1, 4):
            assert np.array_equal(chsh._band_signs(n), np.repeat([-1, 1, 1, -1], n // 4))

    def test_matches_saturating_construction(self):
        family, achieved = optimize_family((1, 1, 1, -1), (4, 4))
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

    @pytest.mark.parametrize("grid", [(4.0, 4.0), (True, 4), (8,), (8, 8, 8), 8, "88", None])
    def test_grid_not_two_ints(self, grid):
        with pytest.raises(GridMisaligned):
            optimize_family((1, 1, 1, -1), grid)

    @pytest.mark.parametrize("targets", [
        (1, 1),
        (1, 1, 1, -1, 0.5),
        (2.0, 1, 1, -1),
        (1, 1, 1, -1.5),
        (float("nan"), 0, 0, 0),
        (0, float("inf"), 0, 0),
        "1111",
        ("0.5", 0, 0, 0),
        (True, 0, 0, 0),
        (0, 0, 0, 1j),
        (0, 0, 0, 10**400),
        0.5,
        None,
        np.zeros((2, 2)),
    ], ids=["two", "five", "above-one", "below-minus-one", "nan", "inf", "string",
            "string-entry", "bool", "complex", "huge-int", "scalar", "none", "2x2-array"])
    def test_bad_targets(self, targets):
        with pytest.raises(InputOutOfRange):
            optimize_family(targets, (4, 4))

    @pytest.mark.parametrize("targets, shown", [
        ((10**5000, 0, 0, 0), "(a 5001-digit integer, 0, 0, 0)"),
        ([0, 0, 0, -10**5000], "[0, 0, 0, a 5001-digit integer]"),
    ])
    def test_huge_integer_message(self, targets, shown):
        with pytest.raises(InputOutOfRange) as err:
            optimize_family(targets)
        assert str(err.value).endswith(f"got {shown}") and len(str(err.value)) < 300

    def test_huge_integer_grid_message(self):
        with pytest.raises(GridMisaligned) as err:
            optimize_family((0, 0, 0, 0), (4, 10**5000 + 1))
        assert str(err.value) == "grid (4, a 5001-digit integer) is not two positive multiples of 4"

    def test_grid_at_the_cap(self):
        assert optimize_family(chsh.SIGNS, (4, chsh.MAX_GRID))[0].rho00.ny == chsh.MAX_GRID

    @pytest.mark.parametrize("grid", [(4, chsh.MAX_GRID + 4), (chsh.MAX_GRID + 4, 4)])
    def test_grid_past_the_cap(self, grid):
        # refused before the weights are built
        with pytest.raises(InputOutOfRange, match=f"more than {chsh.MAX_GRID} cells a side"):
            optimize_family(chsh.SIGNS, grid)

    def test_output_feasibility(self):
        family, _ = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))
        for rho in family.densities():
            width, height = rho.x_rect.length / rho.nx, rho.y_rect.length / rho.ny
            assert np.all(rho.weights >= 0)
            assert abs((rho.weights * (width * height)).sum() - 1.0) <= 1e-15
        assert all(abs(v) <= 1e-15 for v in family.marginals().values())

    @given(
        st.integers(1, 8).map(lambda k: 4 * k),
        st.integers(1, 8).map(lambda k: 4 * k),
        st.lists(st.sampled_from([-1.0, 1.0]) | st.floats(-1, 1), min_size=4, max_size=4),
    )
    def test_exact_construction(self, nx, ny, targets):
        family, achieved = optimize_family(targets, (nx, ny))
        assert achieved == family.expectations()
        for rho in family.densities():
            width, height = rho.x_rect.length / rho.nx, rho.y_rect.length / rho.ny
            assert rho.weights.shape == (nx, ny) and np.all(rho.weights >= 0)
            assert abs((rho.weights * (width * height)).sum() - 1.0) <= 1e-15
        assert all(abs(v) <= 1e-15 for v in family.marginals().values())
        assert all(abs(e - t) <= 1e-15 for e, t in zip(achieved, targets))

    def test_any_target_reachable(self):
        # four unrelated densities make the correlators independently tunable
        rng = np.random.default_rng(17)
        for _ in range(10):
            targets = rng.uniform(-1, 1, 4)
            family, _ = optimize_family(targets, (4, 4))
            for got, want in zip(family.expectations(), targets):
                assert abs(got - want) <= 1e-15


class TestClassicalBound:
    def test_factorizing_case(self):
        a = make_observable(0.0, "x")
        b = make_observable(0.0, "y")
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
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
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
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
                assert abs(want) <= 2 + ROUND_OFF
                outcomes["value"] += 1
        assert min(outcomes.values()) >= 150, outcomes

    def test_thin_disjoint_domains_differ(self):
        # two domains of measure 1e-13 that do not meet: g misses the 1e-13-wide rectangle,
        # since the slack scales with the rectangle's width
        f = make_step([0.0, 1e-13], [1.0], "x")
        g = make_step([5.0, 5.0 + 1e-13], [1.0], "x")
        b = make_step([0.0, 1.0], [1.0], "y")
        rho = GridDensity(Interval(0, 1e-13), Interval(0, 1), [[1.0]])
        with pytest.raises(DomainMismatch,
                           match=r"x-rectangle \(0,1e-13\) not a.e. inside domain \(5,"):
            classical_bound_check(f, g, b, b, rho)

    @pytest.mark.parametrize("hi", [1 + 5e-13, 1 + 2e-12])
    def test_coverage_slack_boundary(self, hi):
        # a0 may miss 1e-12 of the rectangle's width, no more: pair 00 and the classical
        # check alike
        rho = GridDensity(Interval(0.0, hi), setting_interval(0), [[1.0]])
        a0, b0 = chsh.OBSERVABLES[0][0], chsh.OBSERVABLES[1][0]
        densities = (rho, *saturating_family().densities()[1:])
        if hi < 1 + 1e-12:
            ChshFamily(*densities)
            assert classical_bound_check(a0, a0, b0, b0, rho) == 0.0
            return
        message = ("x-rectangle (0,1.000000000002) not a.e. inside domain "
                   "(0,0.25)∪(0.25,0.75)∪(0.75,1)")
        with pytest.raises(DomainMismatch, match=f"^{re.escape('rho00: ' + message)}$"):
            ChshFamily(*densities)
        with pytest.raises(DomainMismatch, match=f"^{re.escape(message)}$"):
            classical_bound_check(a0, a0, b0, b0, rho)

    def test_domains_may_differ_outside_the_density(self):
        # a0 reaches past the unit square on both sides: S is that of its pieces cut to (0, 1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            wide = random_partial(rng, [(-0.25, 1.25)], "x")
            cut = PartialRV(tuple(
                (Interval(max(iv.lo, 0.0), min(iv.hi, 1.0)), v)
                for iv, v in wide.pieces if iv.hi > 0.0 and iv.lo < 1.0
            ), "x")
            a1, b0, b1 = (random_partial(rng, [(0.0, 1.0)], axis) for axis in "xyy")
            weights = rng.random((int(rng.integers(1, 5)), int(rng.integers(1, 5)))) + 1e-3
            rho = GridDensity(Interval(0.0, 1.0), Interval(0.0, 1.0), weights)
            assert (classical_bound_check(wide, a1, b0, b1, rho)
                    == classical_bound_check(cut, a1, b0, b1, rho))

    def test_overflow_refused(self):
        # finite observables whose correlators overflow: NonFiniteInput, no numpy warning
        a = make_step([0.0, 1.0], [1e200], "x")
        b = make_step([0.0, 1.0], [1e200], "y")
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
        with pytest.raises(NonFiniteInput, match=r"correlators on \(0,1\) × \(0,1\) overflow"):
            classical_bound_check(a, a, b, b, rho)

    def test_disjoint_domains_rejected(self):
        a0 = make_observable(0.0, "x")
        a1 = make_observable(1.0, "x")
        b = make_observable(0.0, "y")
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
        with pytest.raises(DomainMismatch):
            classical_bound_check(a0, a1, b, b, rho)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_second_observable_named(self, axis):
        # a1 (or b1) alone misses half the rectangle: the error names its domain, read from
        # its own columns of the axis' one overlap
        whole, half = make_step([0.0, 1.0], [1.0], axis), make_step([0.0, 0.5], [1.0], axis)
        other = make_step([0.0, 1.0], [1.0], "y" if axis == "x" else "x")
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0, 2.0], [3.0, 4.0]])
        rvs = (whole, half, other, other) if axis == "x" else (other, other, whole, half)
        message = f"{axis}-rectangle (0,1) not a.e. inside domain (0,0.5)"
        with pytest.raises(DomainMismatch, match=f"^{re.escape(message)}$"):
            classical_bound_check(*rvs, rho)

    @pytest.mark.parametrize("order", [(1, 4), (4, 1)], ids=["1then4", "4then1"])
    def test_one_overlap_per_axis_bit_equal(self, order):
        # observables of 1 and of 4 pieces on one axis: S is bit for bit that of integrating
        # each observable alone, one pair at a time
        rng = np.random.default_rng(7)
        for _ in range(50):
            rvs = []
            for axis in "xy":
                for k in order:
                    cuts = sorted(rng.random(k - 1).tolist())
                    values = rng.choice([-1.0, 1.0], size=k)
                    rvs.append(make_step([0.0, *cuts, 1.0], values, axis))
            weights = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 6)))) + 1e-3
            rho = GridDensity(Interval(0.0, 1.0), Interval(0.0, 1.0), weights)
            a, b = rvs[:2], rvs[2:]
            alone = [_correlators((a[alpha],), (b[beta],), rho)[0][0] for alpha, beta in PAIRS]
            assert classical_bound_check(*rvs, rho) == chsh_value(*alone)

    @pytest.mark.parametrize(
        "missing", [ks for n in range(1, 5) for ks in combinations(range(4), n)],
        ids=lambda ks: "+".join(("a0", "a1", "b0", "b1")[k] for k in ks))
    def test_first_missing_observable_named(self, missing):
        # observable k of (a0, a1, b0, b1) covers only (0, ends[k]) of its side of the unit
        # square when k is in missing: the error names the first of them in that order, with
        # its axis's text, whichever others miss too
        ends = (0.5, 0.625, 0.75, 0.875)
        rvs = [make_step([0.0, ends[k] if k in missing else 1.0], [1.0], axis)
               for k, axis in enumerate("xxyy")]
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        k = missing[0]
        message = f"{'xxyy'[k]}-rectangle (0,1) not a.e. inside domain (0,{ends[k]})"
        with pytest.raises(DomainMismatch, match=f"^{re.escape(message)}$"):
            classical_bound_check(*rvs, rho)

    def test_pinned_bits(self):
        # the S of the first 1000 instances of seed 3, as float64 bytes: the instance stream
        # and every bit of the check
        rng = np.random.default_rng(3)
        s = np.array([classical_bound_check(*random_classical_instance(rng))
                      for _ in range(1000)])
        assert hashlib.sha256(s.tobytes()).hexdigest() == (
            "a0ef1ab928947f88f04d9de830043eda9e54e0339a53916d0ce3482759710e0c")


class TestFamilySerialization:
    def test_round_trip(self):
        family = saturating_family()
        d = family.to_dict()
        assert d["expectations"]["S"] == 4.0
        again = ChshFamily.from_dict(d)
        assert again.expectations() == family.expectations()

    def test_summary_matches_methods_with_one_pass_per_pair(self, monkeypatch):
        calls = []
        integrate = chsh._integrate
        monkeypatch.setattr(
            chsh, "_integrate", lambda *args: calls.append(args) or integrate(*args)
        )
        family, _ = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))
        summary = family.to_dict()["expectations"]
        es = family.expectations()
        assert list(summary) == ["e00", "e10", "e01", "e11", "S", "marginals"]
        assert tuple(summary[f"e{a}{b}"] for a, b in PAIRS) == es
        assert family.summary() == summary
        assert summary["marginals"] == family.marginals()
        assert list(summary["marginals"]) == [
            f"{obs}|{a}{b}" for a, b in PAIRS for obs in (f"a{a}", f"b{b}")
        ]
        assert summary["S"] == chsh_value(*es)
        # the family is built, serialized and summarized with one pass per pair
        assert len(calls) == len(PAIRS)

    def test_summary_is_a_fresh_dict(self):
        family = saturating_family()
        want = family.to_dict()
        block = family.summary()
        block["S"] = -1.0
        block["marginals"]["a0|00"] = 0.5
        family.marginals()["b0|00"] = 0.5
        assert family.to_dict() == want

    def test_record_without_expectations(self):
        d = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))[0].to_dict()
        del d["expectations"]
        assert ChshFamily.from_dict(d).to_dict()["expectations"]["S"] == 0.875

    @pytest.mark.parametrize("edit", [
        lambda x: x.update(e01=x["e01"] + 1e-8),
        lambda x: x.update(S=x["S"] - 1e-8),
        lambda x: x["marginals"].update({"b1|11": 2e-9}),
        lambda x: x.update(e10=10**400),
        lambda x: x.update(e10=float("nan")),
        lambda x: x.update(e00="0.5"),
        lambda x: x.update(e00=None),
        lambda x: x.update(S=True),
        lambda x: x.pop("e11"),
        lambda x: x["marginals"].pop("a0|00"),
        lambda x: x.update(marginals=[0.0] * 8),
        lambda x: x.clear() or x.update(e=[]),
    ], ids=["e01", "S", "marginal", "huge-int", "nan", "string", "null", "bool",
            "no-e11", "no-marginal", "marginals-list", "wrong-keys"])
    def test_stored_expectations_checked(self, edit):
        d = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))[0].to_dict()
        edit(d["expectations"])
        with pytest.raises(MalformedInput):
            ChshFamily.from_dict(d)

    @pytest.mark.parametrize("block", [[], "S = 4", None, 4.0])
    def test_stored_expectations_not_an_object(self, block):
        d = saturating_family().to_dict()
        d["expectations"] = block
        with pytest.raises(MalformedInput):
            ChshFamily.from_dict(d)

    def test_stored_expectations_within_tolerance(self):
        d = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))[0].to_dict()
        d["expectations"]["e01"] += 5e-10
        d["expectations"]["marginals"]["a1|10"] = -5e-10
        d["expectations"]["extra"] = "ignored"
        assert ChshFamily.from_dict(d).expectations()[2] == 0.75

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_stored_expectations_tolerance_is_closed(self, sign):
        # a stored value exactly the tolerance away is accepted, the next float past it not
        family = optimize_family((0.5, -0.25, 0.75, 0.125), (8, 8))[0]
        d = family.to_dict()
        edge = family.summary()["e01"] + sign * chsh._STORED_TOLERANCE
        d["expectations"]["e01"] = edge
        assert ChshFamily.from_dict(d).expectations() == family.expectations()
        d["expectations"]["e01"] = np.nextafter(edge, sign * np.inf).item()
        with pytest.raises(MalformedInput):
            ChshFamily.from_dict(d)

    def test_rectangle_validation(self):
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
        with pytest.raises(DomainMismatch):
            ChshFamily(rho, rho, rho, rho)

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_wrong_rectangle_names_its_pair(self, pair, axis):
        densities = list(saturating_family().densities())
        alpha, beta = PAIRS[pair]
        rho = densities[pair]
        other = setting_interval(1 - (alpha if axis == "x" else beta))
        rects = (other, rho.y_rect) if axis == "x" else (rho.x_rect, other)
        densities[pair] = GridDensity(*rects, rho.weights)
        message = f"rho{alpha}{beta}: {axis}-rectangle {other!r} not a.e. inside domain"
        with pytest.raises(DomainMismatch, match=f"^{re.escape(message)}"):
            ChshFamily(*densities)

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    @pytest.mark.parametrize("value", [1, None, {"x_rect": [0.0, 1.0]}])
    def test_field_not_a_density(self, pair, value):
        densities = list(saturating_family().densities())
        densities[pair] = value
        alpha, beta = PAIRS[pair]
        with pytest.raises(MalformedInput, match=f"^rho{alpha}{beta} must be a GridDensity"):
            ChshFamily(*densities)


DYADIC = {  # families whose moments and class probabilities floats hold exactly
    "saturating4": lambda: optimize_family(chsh.SIGNS, (4, 4))[0],
    "saturating8": lambda: optimize_family(chsh.SIGNS, (8, 8))[0],
    "saturating32": lambda: optimize_family(chsh.SIGNS, (32, 32))[0],
    "middle_band": lambda: family_of(middle_band_density().weights),
}


def check_moments(family):
    """Each pair's (E[fg], E[f], E[g]) within the rule of its exact value."""
    for (alpha, beta), rho, moments in zip(
            PAIRS, family.densities(), family._moments, strict=True):
        f, g = family.observables(alpha, beta)
        n = exact.terms(rho, f, g)
        assert all(map(exact.within, moments, exact.moments(f, g, rho), [n] * 3))


class TestExactLayer:
    """The exact layer against the exact rationals of tests/exact.py: each moment and
    correlator within (nx + ny + k)·ε·M of its exact value, and each moment and class
    probability equal to it on dyadic families."""

    def test_classical_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a0, a1, b0, b1, rho = random_classical_instance(rng)
            a, b, n = (a0, a1), (b0, b1), exact.terms(rho, a0, a1, b0, b1)
            rows = _correlators(a, b, rho)
            es = []
            for alpha, beta in PAIRS:
                f, g = a[alpha], b[beta]
                want = exact.moments(f, g, rho)
                assert exact.within(rows[alpha][beta], want[0], n)
                assert exact.within(expectation(f, g, rho), want[0], n)
                assert all(map(exact.within, _integrate(f, g, rho), want, [n] * 3))
                es.append(want[0])
            s = exact.Exact(sum(e.value * sign for e, sign in zip(es, chsh.SIGNS)),
                            sum(e.magnitude for e in es))
            assert exact.within(classical_bound_check(a0, a1, b0, b1, rho), s, n)

    @settings(max_examples=40, deadline=None)
    @given(families(SMALL_ALIGNED_OR_NOT))
    def test_families(self, family):
        check_moments(family)

    @pytest.mark.parametrize("family", sorted(DYADIC))
    def test_dyadic_families(self, family):
        family = DYADIC[family]()
        for (alpha, beta), rho, moments, (_, _, classes) in zip(
                PAIRS, family.densities(), family._moments, family._class_law, strict=True):
            f, g = family.observables(alpha, beta)
            assert list(map(Fraction, moments)) == [e.value for e in exact.moments(f, g, rho)]
            law = exact.class_law(exact.cells(f, g, rho))
            assert list(map(Fraction, classes.reshape(-1).tolist())) == [
                p.value for p in law.values()]


class TestOneContraction:
    """A family's moments come from one contraction of per-cell integrals with the weights:
    on a 32x32 grid and on grids of mixed sides, each within the rule of its exact value."""

    @pytest.mark.parametrize("family", [
        pytest.param(lambda: optimize_family((0.7, 0.7, 0.7, -0.7), (32, 32))[0], id="grid32"),
        pytest.param(mixed_grid_family, id="mixed"),
    ])
    def test_families(self, family):
        check_moments(family())

    def test_pinned_bits(self):
        # every bit of the 32x32 family's twelve moments, as float64 bytes in PAIRS order
        moments = optimize_family((0.7, 0.7, 0.7, -0.7), (32, 32))[0]._moments
        assert hashlib.sha256(np.array(moments).tobytes()).hexdigest() == (
            "3982bd4fe97bdbd9a8d3f0a985cb90840afa3e8fa91df6b9d471b1477ccf2e99")


class TestOneOverlap:
    """_correlators reads each observable's integrals from its own block of one overlap of
    both axes' pieces: on grids with one cell on one side, with observables of 1 and of 4 pieces on
    opposite axes and with sides that hold only the constant, each correlator is bit for bit
    its pair's alone and within the rule of its exact value."""

    # x's last edge and y's first are 1 apart, and every observable reaches past its side,
    # so the overlap's row between the two axes' cells is not empty
    RECTS = (Interval(0.0, 1.0), Interval(2.0, 3.0))

    def step(self, rng, k, axis):
        """A ±1 step function of k pieces, reaching half a width past both ends of its side."""
        rect = self.RECTS["xy".index(axis)]
        cuts = sorted(rng.uniform(rect.lo, rect.hi, k - 1).tolist())
        return make_step([rect.lo - 0.5, *cuts, rect.hi + 0.5],
                         rng.choice([-1.0, 1.0], size=k).tolist(), axis)

    def check(self, fs, gs, rho):
        ones = [make_step([r.lo, r.hi], [1.0], axis) for r, axis in zip(self.RECTS, "xy")]
        es = _correlators(fs, gs, rho)
        for f, row in zip(fs, es, strict=True):
            for g, e in zip(gs, row, strict=True):
                f1, g1 = f or ones[0], g or ones[1]
                assert e == _correlators((f1,), (g1,), rho)[0][0]
                assert exact.within(e, exact.moments(f1, g1, rho)[0], exact.terms(rho, f1, g1))
        return es

    def density(self, rng, shape):
        return GridDensity(*self.RECTS, rng.random(shape) + 1e-3)

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1)], ids=["1x4", "4x1"])
    @pytest.mark.parametrize("pieces", [(1, 4), (4, 1)], ids=["x1-y4", "x4-y1"])
    def test_lopsided_blocks(self, shape, pieces):
        rng, (kx, ky) = np.random.default_rng(17), pieces
        for _ in range(20):
            fs = (self.step(rng, kx, "x"), None, self.step(rng, kx, "x"))
            gs = (None, self.step(rng, ky, "y"), self.step(rng, ky, "y"))
            rho = self.density(rng, shape)
            es = self.check(fs, gs, rho)
            for i, j in [(0, 1), (0, 2), (2, 1), (2, 2)]:
                assert _integrate(fs[i], gs[j], rho) == (es[i][j], es[i][0], es[1][j])

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1)], ids=["1x4", "4x1"])
    def test_constant_sides(self, shape):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = self.density(rng, shape)
            f, g = self.step(rng, 4, "x"), self.step(rng, 1, "y")
            self.check((None,), (g, None), rho)
            self.check((f, None), (None,), rho)
            self.check((None, None), (None, g), rho)


class TestCopies:
    """A deep copy or an unpickled family is rebuilt from its densities: read-only weights,
    its own caches, and the same runs."""

    @pytest.mark.parametrize("how", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
                             ids=["deepcopy", "pickle"])
    def test_copy_is_read_only(self, how):
        family = saturating_family()
        law = family._class_law
        again = how(family)
        assert again._moments is not family._moments
        assert again._class_law is not law
        for rho in again.densities():
            with pytest.raises(ValueError, match="read-only"):
                rho.weights[0, 0] = 99.0
        for array in (array for pair in again._class_law for array in pair):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert all(got.weights.tobytes() == want.weights.tobytes()
                   for got, want in zip(again.densities(), family.densities()))
        assert again.summary() == family.summary()
        runs = (run_experiment(ExperimentConfig(f, 10**6, 5)) for f in (again, family))
        assert next(runs) == next(runs)
