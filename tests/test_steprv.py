import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellhop.errors import (
    ArityMismatch,
    AxisMismatch,
    EmptyDomain,
    MalformedInput,
    NonFiniteInput,
    NonMonotoneBoundaries,
    OutOfDomain,
    UndefinedPoint,
)
from bellhop.intervals import DomainSet, Interval
from bellhop.observables import make_observable
from bellhop.steprv import PartialRV, _overlap, combine, make_step
from support import gapped_step_rvs, grid_points


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


OPS = {"sum": lambda u, v: u + v,
       "difference": lambda u, v: u - v,
       "product": lambda u, v: u * v}


def reference_combine(f, g, op):
    """Pieces by the former rule, or None where there is no common domain:
    intersect the domains, split the intersection at the operands'
    breakpoints inside it, and evaluate both operands at the midpoints."""
    common = f.domain.intersect(g.domain)
    if not common.intervals:
        return None
    cuts = sorted(set(f.breakpoints() + g.breakpoints()))
    refined = []
    for iv in common.intervals:
        ends = [iv.lo, *(p for p in cuts if iv.lo < p < iv.hi), iv.hi]
        refined += [Interval(lo, hi) for lo, hi in zip(ends, ends[1:])]
    mids = np.array([0.5 * (iv.lo + iv.hi) for iv in refined])
    values = OPS[op](f.eval_many(mids)[0], g.eval_many(mids)[0])
    return list(zip(refined, values.tolist()))


def signed(pieces):
    """Pieces with the sign bits of each end and value made explicit, so -0.0 != 0.0."""
    return [(iv, v, *(math.copysign(1.0, x) for x in (iv.lo, iv.hi, v))) for iv, v in pieces]


@st.composite
def signed_zero_rvs(draw):
    """Step functions on k/8 in [-1, 1] with some pieces dropped, each end at 0 drawn as 0.0
    or -0.0 on its own: two operands, or two touching pieces of one, meet at either zero."""
    points = sorted(draw(st.sets(st.integers(-8, 8), min_size=2, max_size=6)))
    pieces = [
        (Interval(*(draw(st.sampled_from([0.0, -0.0])) if k == 0 else k / 8 for k in ends)),
         draw(st.sampled_from([-1.0, 1.0, 0.5, 0.0, -0.0])))
        for ends in zip(points, points[1:])
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
    return PartialRV(tuple(p for p, k in zip(pieces, keep) if k) or tuple(pieces[:1]), "x")


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
        with pytest.raises(NonMonotoneBoundaries):  # two integers, one float
            make_step([2**53, 2**53 + 1], [1.0], "x")

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            make_step((0, 0.5, 1), (1,), "x")

    def test_too_few_boundaries(self):
        # one boundary makes no piece; no boundary leaves no room even for that
        with pytest.raises(EmptyDomain):
            make_step((0.0,), (), "x")
        with pytest.raises(ArityMismatch):
            make_step((), (), "x")

    @pytest.mark.parametrize("boundaries, values", [
        ((float("nan"), 0.5, 1.0), (1, -1)),
        ((0.0, float("nan"), 1.0), (1, -1)),
        ((0.0, 0.5, float("inf")), (1, -1)),
        ((0.0, 0.5, 1.0), (1, float("nan"))),
        ((0.0, 0.5, 1.0), (float("-inf"), 1)),
        ((0.0, 0.5, 10**400), (1, -1)),
        ((0.0, 0.5, 1.0), (1, -10**400)),
    ])
    def test_non_finite(self, boundaries, values):
        with pytest.raises(NonFiniteInput):
            make_step(boundaries, values, "x")

    def test_huge_integer_message(self):
        # past 4300 digits an integer has no repr: the message counts its digits
        with pytest.raises(NonFiniteInput, match="a 5001-digit integer") as err:
            make_step([0, 1], [10**5000], "x")
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("boundaries, values", [
        ((0, 1), ("1.5",)), (("0", 1), (1.0,)), ((0, 1), (None,)), ((0, 1), (True,)),
    ], ids=["string-value", "string-boundary", "none-value", "bool-value"])
    def test_non_number(self, boundaries, values):
        with pytest.raises(MalformedInput):
            make_step(boundaries, values, "x")


class TestPieces:
    @pytest.mark.parametrize("pieces", [
        ((Interval(0.5, 1), 1.0), (Interval(0, 0.5), -1.0)),  # unsorted
        ((Interval(0, 0.75), 1.0), (Interval(0.25, 1), -1.0)),  # overlapping
        ((Interval(0, 0.5), 1.0), (Interval(0.5, 0.5), -1.0)),  # empty
        ((Interval(0, 0.5), 1.0), (Interval(0.75, 0.25), -1.0)),  # reversed
        ((Interval(0, 1), 1.0), (Interval(0, 1), -1.0)),  # repeated
        ((Interval(2**53, 2**53 + 1), 1.0),),  # two integers, one float
    ], ids=["unsorted", "overlapping", "empty", "reversed", "repeated", "one-float"])
    def test_rejected(self, pieces):
        with pytest.raises(NonMonotoneBoundaries):
            PartialRV(pieces, "x")

    @pytest.mark.parametrize("pieces", [
        ((Interval(0, 0.5), 1.0), (Interval(0.5, 1), float("nan"))),
        ((Interval(0, 0.5), 1.0), (Interval(0.5, float("inf")), -1.0)),
        ((Interval(float("nan"), 0.5), 1.0),),
        ((Interval(0, 0.5), 10**400),),
        ((Interval(-10**400, 0.5), 1.0),),
    ], ids=["nan-value", "inf-end", "nan-end", "huge-int-value", "huge-int-end"])
    def test_non_finite(self, pieces):
        with pytest.raises(NonFiniteInput):
            PartialRV(pieces, "x")

    @pytest.mark.parametrize("pieces", [
        ((Interval("0", 1), 1.0),),
        ((Interval(0, 0.5), 1.0), (Interval(0.5, 1), "-1")),
        ((Interval(0, 0.5), 1.0), (Interval(0.5, 1), float("nan")), (Interval(1, 2), "1")),
    ], ids=["string-end", "string-value", "string-after-nan"])
    def test_non_number(self, pieces):
        with pytest.raises(MalformedInput, match="not finite floats"):
            PartialRV(pieces, "x")

    def test_no_pieces(self):
        with pytest.raises(EmptyDomain):
            PartialRV((), "x")

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

    @pytest.mark.parametrize("x", [
        float("nan"), float("inf"), float("-inf"),
        pytest.param(10**400, id="huge-int"), pytest.param(-10**400, id="-huge-int"),
    ])
    def test_non_finite_point(self, x):
        with pytest.raises(NonFiniteInput):
            make_observable(0.0).eval(x)

    def test_integer_pieces_give_floats(self):
        # a piece end past int64 must not turn the lookup table into objects
        values, defined = make_step([0, 10**20], [1], "x").eval_many(np.array([5.0]))
        assert values.dtype == np.float64 and values.tolist() == [1.0] and defined.tolist() == [True]

    def test_huge_integer_point(self):
        with pytest.raises(NonFiniteInput, match="x=a 5001-digit integer") as err:
            make_observable(0.0).eval(10**5000)
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("x", ["0.5", None, True, [0.5]])
    def test_non_number_point(self, x):
        with pytest.raises(MalformedInput):
            make_observable(0.0).eval(x)

    def test_eval_many(self):
        a0 = make_observable(0.0)
        xs = np.array([0.1, 0.5, 0.25, 1.5, 0.9])
        vals, defined = a0.eval_many(xs)
        assert list(defined) == [True, True, False, False, True]
        assert list(vals[defined]) == [-1.0, 1.0, -1.0]

    def test_eval_many_at_the_edges(self):
        # pieces (0, 1) and (1, 2), a gap, then (3, 4): left of the first piece,
        # every breakpoint, the gap, and at and right of the last hi
        f = PartialRV(((Interval(0.0, 1.0), 2.0), (Interval(1.0, 2.0), -3.0),
                       (Interval(3.0, 4.0), 5.0)), "x")
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 9.0])
        values, defined = f.eval_many(xs)
        assert values.tolist() == [0.0, 0.0, 2.0, 0.0, -3.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0]
        assert defined.tolist() == [False, False, True, False, True, False, False, False,
                                    True, False, False]

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


def unique_value_lengths(f, edges):
    """value_lengths with the distinct values taken by np.unique."""
    lo, hi, values = _overlap(edges[:-1], edges[1:], (f,))
    distinct = np.unique(values[(lo < hi).any(axis=0)])
    return distinct, np.maximum(hi - lo, 0.0) @ (values[:, None] == distinct)


class TestValueLengths:
    @given(
        gapped_step_rvs(),
        st.lists(grid_points, min_size=2, max_size=8, unique=True).map(sorted),
    )
    def test_matches_np_unique(self, f, edges):
        # == on the distinct values: where both zeros occur, the sign of the one
        # kept may differ, as np.unique's choice depends on its sort
        edges = np.array(edges)
        (got, got_lengths), (want, want_lengths) = (
            f.value_lengths(edges), unique_value_lengths(f, edges))
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert got_lengths.shape == want_lengths.shape
        assert got_lengths.tobytes() == want_lengths.tobytes()


class TestCombine:
    def test_partial_overlap(self):
        # pointwise: a0 is +1 on (0.5,0.75) where a_{1/2} is -1, and -1 on
        # (0.75,1) where a_{1/2} is +1, so the sum is 0 on both pieces
        h = combine(make_observable(0.0), make_observable(0.5), "sum")
        assert h.domain == DomainSet((Interval(0.5, 0.75), Interval(0.75, 1.0)))
        assert h.eval(0.6) == 0.0
        assert h.eval(0.9) == 0.0
        with pytest.raises(UndefinedPoint):
            h.eval(0.75)

    def test_overflowing_product_refused(self):
        # finite operands whose product overflows: NonFiniteInput, no numpy warning
        f = make_step([0, 1], [1e200], "x")
        with pytest.raises(NonFiniteInput):
            combine(f, f, "product")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi", [(1e308, 1.5e308), (-1.7e308, 1.7e308), (5e-324, 1.5e-323)])
    def test_midpoints_stay_inside(self, lo, hi):
        # near the float maximum the midpoint does not overflow, and a piece
        # with a single float inside keeps it
        f = make_step([lo, hi], [1.0], "x")
        assert combine(f, f, "sum").pieces == ((Interval(lo, hi), 2.0),)

    def test_disjoint_sum(self):
        with pytest.raises(EmptyDomain):
            combine(make_observable(0.0), make_observable(1.0), "sum")

    def test_disjoint_product(self):
        with pytest.raises(EmptyDomain):
            combine(make_observable(0.0), make_observable(1.0), "product")

    def test_axis_mismatch(self):
        with pytest.raises(AxisMismatch):
            combine(make_observable(0.0, "x"), make_observable(0.0, "y"), "sum")

    @pytest.mark.parametrize("op", ["quotient", ["sum"], None], ids=["quotient", "list", "None"])
    def test_unknown_op(self, op):
        with pytest.raises(ValueError, match=re.escape(f"unknown op {op!r}")):
            combine(make_observable(0.0), make_observable(0.0), op)

    @pytest.mark.parametrize("operand", [1.0, None])
    def test_operand_not_a_step_function(self, operand):
        name = type(operand).__name__
        with pytest.raises(MalformedInput, match=f"type {name} is not a PartialRV"):
            combine(make_observable(0.0), operand, "sum")
        with pytest.raises(MalformedInput, match=name):  # before the axis check
            combine(operand, make_observable(0.0, "y"), "sum")

    def test_integer_ends_past_int64(self):
        # ends 10**20 and 10**20 + 1 are one float: the pieces meet there as floats
        f = PartialRV(((Interval(0, 10**20), 1.0), (Interval(10**20 + 1, 2 * 10**20), 2.0)), "x")
        g = make_step([0, 3 * 10**20], [1.0], "x")
        assert combine(f, g, "sum").pieces == (
            (Interval(0.0, 1e20), 2.0), (Interval(1e20, 2e20), 3.0))
        # (10**20 + 1, 2 * 10**20) is (1e20, 2e20) as floats and does not reach back to 9
        g = PartialRV(((Interval(10**20 + 1, 2 * 10**20), 1.0),), "x")
        assert combine(make_step([9, 1e300], [-1.0], "x"), g, "product").pieces == (
            (Interval(1e20, 2e20), -1.0),)

    @settings(max_examples=300)
    @given(*[gapped_step_rvs() | signed_zero_rvs()] * 2, st.sampled_from(sorted(OPS)))
    def test_matches_intersect_and_split(self, f, g, op):
        want = reference_combine(f, g, op)
        if want is None:
            with pytest.raises(EmptyDomain):
                combine(f, g, op)
        else:
            assert signed(combine(f, g, op).pieces) == signed(want)

    @given(step_rvs(), step_rvs(), st.sampled_from(["sum", "difference", "product"]))
    def test_pointwise_oracle(self, f, g, op):
        try:
            h = combine(f, g, op)
        except EmptyDomain:
            assert not f.domain.intersect(g.domain).intervals
            return
        assert h.domain.measure() == pytest.approx(
            f.domain.intersect(g.domain).measure()
        )
        for iv in h.domain.intervals:
            x = 0.5 * (iv.lo + iv.hi)
            assert h.eval(x) == OPS[op](f.eval(x), g.eval(x))

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
            assert not any(iv.lo < p < iv.hi for iv in h.domain.intervals)
