import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellhop.errors import (
    ArityMismatch,
    AxisMismatch,
    EmptyDomain,
    NonFiniteInput,
    NonMonotoneBoundaries,
    OutOfDomain,
    UndefinedPoint,
)
from bellhop.intervals import DomainSet, Interval
from bellhop.observables import make_observable
from bellhop.steprv import PartialRV, combine, make_step


@st.composite
def step_rvs(draw, axis="x"):
    points = sorted(draw(st.sets(
        st.integers(min_value=0, max_value=32).map(lambda k: k / 8),
        min_size=2, max_size=6,
    )))
    values = draw(st.lists(
        st.sampled_from([-1.0, 1.0]), min_size=len(points) - 1, max_size=len(points) - 1
    ))
    return make_step(points, values, axis)


class TestMakeStep:
    def test_paper_profile(self):
        a0 = make_step((0, 0.25, 0.75, 1), (-1, 1, -1), "x")
        assert a0.eval(0.1) == -1
        assert a0.eval(0.5) == 1
        assert a0.eval(0.9) == -1
        assert a0 == make_observable(0.0)

    def test_constant(self):
        c = make_step((0, 1), (1,), "x")
        assert c.eval(0.3) == 1.0

    def test_non_monotone(self):
        with pytest.raises(NonMonotoneBoundaries):
            make_step((0, 0.25, 0.2), (1, -1), "x")

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            make_step((0, 0.5, 1), (1,), "x")

    @pytest.mark.parametrize("boundaries, values", [
        ((float("nan"), 0.5, 1.0), (1, -1)),
        ((0.0, float("nan"), 1.0), (1, -1)),
        ((0.0, 0.5, float("inf")), (1, -1)),
        ((0.0, 0.5, 1.0), (1, float("nan"))),
        ((0.0, 0.5, 1.0), (float("-inf"), 1)),
    ])
    def test_non_finite(self, boundaries, values):
        with pytest.raises(NonFiniteInput):
            make_step(boundaries, values, "x")


class TestPieces:
    @pytest.mark.parametrize("pieces", [
        ((Interval(0.5, 1), 1.0), (Interval(0, 0.5), -1.0)),  # unsorted
        ((Interval(0, 0.75), 1.0), (Interval(0.25, 1), -1.0)),  # overlapping
        ((Interval(0, 0.5), 1.0), (Interval(0.5, 0.5), -1.0)),  # empty
        ((Interval(0, 0.5), 1.0), (Interval(0.75, 0.25), -1.0)),  # reversed
        ((Interval(0, 1), 1.0), (Interval(0, 1), -1.0)),  # repeated
    ], ids=["unsorted", "overlapping", "empty", "reversed", "repeated"])
    def test_rejected(self, pieces):
        with pytest.raises(NonMonotoneBoundaries):
            PartialRV(pieces, "x")

    def test_touching_and_gapped_accepted(self):
        f = PartialRV(((Interval(0, 0.5), 1.0), (Interval(0.5, 0.75), -1.0),
                       (Interval(0.875, 1), 1.0)), "x")
        assert f.eval(0.7) == -1.0
        assert f.domain.measure() == 0.875


class TestEval:
    def test_in_domain(self):
        assert make_observable(0.0).eval(0.5) == 1.0

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            make_observable(0.0).eval(1.5)

    def test_excluded_threshold(self):
        with pytest.raises(UndefinedPoint):
            make_observable(0.0).eval(0.25)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_point(self, x):
        with pytest.raises(NonFiniteInput):
            make_observable(0.0).eval(x)

    def test_eval_many(self):
        a0 = make_observable(0.0)
        xs = np.array([0.1, 0.5, 0.25, 1.5, 0.9])
        vals, defined = a0.eval_many(xs)
        assert list(defined) == [True, True, False, False, True]
        assert list(vals[defined]) == [-1.0, 1.0, -1.0]

    @given(
        st.one_of(
            step_rvs(),
            # every other piece dropped: a domain with gaps
            step_rvs().map(lambda f: PartialRV(f.pieces[::2], f.axis_label)),
        ),
        st.lists(st.floats(-1, 5, allow_nan=False), max_size=10),
    )
    def test_eval_many_matches_eval(self, f, extra):
        mids = [0.5 * (iv.lo + iv.hi) for iv in f.domain.intervals]
        xs = np.array([*f.breakpoints(), *mids, -1.0, 5.0, *extra])
        values, defined = f.eval_many(xs)
        for x, value, ok in zip(xs.tolist(), values.tolist(), defined.tolist()):
            if ok:
                assert f.eval(x) == value
            else:
                with pytest.raises((OutOfDomain, UndefinedPoint)):
                    f.eval(x)


class TestCombine:
    def test_partial_overlap(self):
        # pointwise: a0 is +1 on (0.5,0.75) where a_{1/2} is -1, and -1 on
        # (0.75,1) where a_{1/2} is +1, so the sum is 0 on both pieces
        h = combine(make_observable(0.0), make_observable(0.5), "sum")
        assert h.domain == DomainSet.of(
            DomainSet.interval(0.5, 1.0).split_at([0.75]).intervals
        )
        assert h.eval(0.6) == 0.0
        assert h.eval(0.9) == 0.0
        with pytest.raises(UndefinedPoint):
            h.eval(0.75)

    def test_disjoint_sum(self):
        with pytest.raises(EmptyDomain):
            combine(make_observable(0.0), make_observable(1.0), "sum")

    def test_disjoint_product(self):
        with pytest.raises(EmptyDomain):
            combine(make_observable(0.0), make_observable(1.0), "product")

    def test_axis_mismatch(self):
        with pytest.raises(AxisMismatch):
            combine(make_observable(0.0, "x"), make_observable(0.0, "y"), "sum")

    @given(step_rvs(), step_rvs(), st.sampled_from(["sum", "difference", "product"]))
    def test_pointwise_oracle(self, f, g, op):
        try:
            h = combine(f, g, op)
        except EmptyDomain:
            assert f.domain.intersect(g.domain).is_empty()
            return
        assert h.domain.measure() == pytest.approx(
            f.domain.intersect(g.domain).measure()
        )
        fns = {"sum": lambda u, v: u + v,
               "difference": lambda u, v: u - v,
               "product": lambda u, v: u * v}
        for iv in h.domain.intervals:
            x = 0.5 * (iv.lo + iv.hi)
            assert h.eval(x) == fns[op](f.eval(x), g.eval(x))

    @given(step_rvs(), step_rvs(), st.sampled_from(["sum", "product"]))
    def test_commutative(self, f, g, op):
        try:
            h1 = combine(f, g, op)
        except EmptyDomain:
            with pytest.raises(EmptyDomain):
                combine(g, f, op)
            return
        h2 = combine(g, f, op)
        assert h1.domain == h2.domain
        assert [v for _, v in h1.pieces] == [v for _, v in h2.pieces]

    @given(step_rvs(), step_rvs())
    def test_excluded_points_propagate(self, f, g):
        try:
            h = combine(f, g, "sum")
        except EmptyDomain:
            return
        for p in f.breakpoints() + g.breakpoints():
            assert not h.domain.contains(p)


class TestShift:
    def test_shift_to_one(self):
        a1 = make_observable(0.0).shift(1.0)
        assert a1 == make_observable(1.0)
        assert a1.eval(1.5) == 1.0

    def test_identity(self):
        a0 = make_observable(0.0)
        assert a0.shift(0.0) == a0

    def test_composition(self):
        a0 = make_observable(0.0)
        assert a0.shift(0.3).shift(0.7) == a0.shift(1.0)

    @given(step_rvs(), st.integers(-8, 8).map(lambda k: k / 4))
    def test_translation(self, f, alpha):
        g = f.shift(alpha)
        assert g.domain == f.domain.shift(alpha)
        for iv in f.domain.intervals:
            x = 0.5 * (iv.lo + iv.hi)
            assert g.eval(x + alpha) == f.eval(x)
