import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from bellhop.density import ROUND_OFF, GridDensity, expectation
from bellhop.errors import (
    DomainMismatch, GridMisaligned, InputOutOfRange, MalformedInput, NonFiniteInput,
)
from bellhop.intervals import Interval
from bellhop.observables import make_observable
from bellhop.simulate import ExperimentConfig, run_experiment
from bellhop.steprv import PartialRV, make_step


def uniform_family():
    return ChshFamily(*[
        GridDensity(Interval(float(a), a + 1.0), Interval(float(b), b + 1.0), [[1.0]])
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
    rho = GridDensity(Interval(0.0, 1.0), Interval(0.0, 1.0), rng.random((nx, ny)) + 1e-3)
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
                outcomes["value"] += 1
        assert min(outcomes.values()) >= 150, outcomes

    def test_thin_disjoint_domains_differ(self):
        # two domains of measure 1e-13 that do not meet: the slack scales with the measures
        f = make_step([0.0, 1e-13], [1.0], "x")
        g = make_step([5.0, 5.0 + 1e-13], [1.0], "x")
        assert not chsh._same_domain(f, g)
        b = make_step([0.0, 1.0], [1.0], "y")
        rho = GridDensity(Interval(0, 1e-13), Interval(0, 1), [[1.0]])
        with pytest.raises(DomainMismatch, match="Alice's axis"):
            classical_bound_check(f, g, b, b, rho)

    def test_overflow_refused(self):
        # finite observables whose correlators overflow: NonFiniteInput, no numpy warning
        a = make_step([0.0, 1.0], [1e200], "x")
        b = make_step([0.0, 1.0], [1e200], "y")
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
        with pytest.raises(NonFiniteInput):
            classical_bound_check(a, a, b, b, rho)

    def test_disjoint_domains_rejected(self):
        a0 = make_observable(0.0, "x")
        a1 = make_observable(1.0, "x")
        b = make_observable(0.0, "y")
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
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

    def test_rectangle_validation(self):
        rho = GridDensity(Interval(0, 1), Interval(0, 1), [[1.0]])
        with pytest.raises(DomainMismatch):
            ChshFamily(rho, rho, rho, rho)
