import math

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


# cuts on k/40 and k/48 on [0, 2]: two grids whose lines mostly miss each other
grid_points = st.one_of(
    st.integers(0, 80).map(lambda k: k / 40),
    st.integers(0, 96).map(lambda k: k / 48),
)


@st.composite
def gapped_step_rvs(draw):
    """Step functions on grid_points with some pieces dropped, so the domain
    has gaps; values include both zeros so sums and products can be -0.0."""
    points = sorted(draw(st.sets(grid_points, min_size=2, max_size=8)))
    pieces = [
        (Interval(lo, hi), draw(st.sampled_from([-1.0, 1.0, 0.5, 0.0, -0.0])))
        for lo, hi in zip(points, points[1:])
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
    return PartialRV(tuple(p for p, k in zip(pieces, keep) if k) or tuple(pieces[:1]), "x")


OPS = {"sum": lambda u, v: u + v,
       "difference": lambda u, v: u - v,
       "product": lambda u, v: u * v}


def reference_combine(f, g, op):
    """Pieces by the former rule, or None where there is no common domain:
    intersect the domains, split the intersection at the operands'
    breakpoints inside it, and evaluate both operands at the midpoints."""
    common = f.domain.intersect(g.domain)
    if common.is_empty():
        return None
    cuts = sorted(set(f.breakpoints() + g.breakpoints()))
    refined = []
    for iv in common.intervals:
        ends = [iv.lo, *(p for p in cuts if iv.contains(p)), iv.hi]
        refined += [Interval(lo, hi) for lo, hi in zip(ends, ends[1:])]
    mids = np.array([0.5 * (iv.lo + iv.hi) for iv in refined])
    values = OPS[op](f.eval_many(mids)[0], g.eval_many(mids)[0])
    return list(zip(refined, values.tolist()))


def signed(pieces):
    """Pieces with each value's sign bit made explicit, so -0.0 != 0.0."""
    return [(iv, v, math.copysign(1.0, v)) for iv, v in pieces]


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
    ], ids=["unsorted", "overlapping", "empty", "reversed", "repeated"])
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


class TestColumnValues:
    def test_quarter_grid(self):
        assert make_observable(0.0).column_values(np.arange(5) / 4).tolist() == [
            -1.0, 1.0, 1.0, -1.0
        ]

    def test_cut_and_outside_columns_are_nan(self):
        # (0, 1/3) and (2/3, 1) are cut at 1/4 and 3/4; (-1/3, 0) and (1, 4/3)
        # lie outside the domain (0, 1)
        values = make_observable(0.0).column_values(np.arange(-1, 5) / 3)
        assert np.isnan(values[[0, 1, 3, 4]]).all()
        assert values[2] == 1.0

    @given(
        st.one_of(
            gapped_step_rvs(),
            step_rvs().map(lambda f: PartialRV(f.pieces[::2], f.axis_label)),
        ),
        st.lists(grid_points, min_size=2, max_size=8, unique=True).map(sorted),
        st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True), min_size=1, max_size=5),
    )
    def test_interior_points_oracle(self, f, edges, fractions):
        edges = np.array(edges)
        values = f.column_values(edges)
        assert values.shape == (len(edges) - 1,)
        cuts = np.array(f.breakpoints())
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            xs = np.array([lo + t * (hi - lo) for t in fractions])
            xs = xs[(xs > lo) & (xs < hi)]
            got, defined = f.eval_many(np.append(xs, 0.5 * (lo + hi)))
            # one piece holds the open cell iff its midpoint is defined and no
            # breakpoint lies strictly inside it
            held = defined[-1] and not ((cuts > lo) & (cuts < hi)).any()
            if held:
                assert defined.all() and (got == values[i]).all()
            else:
                assert np.isnan(values[i])


class TestCombine:
    def test_partial_overlap(self):
        # pointwise: a0 is +1 on (0.5,0.75) where a_{1/2} is -1, and -1 on
        # (0.75,1) where a_{1/2} is +1, so the sum is 0 on both pieces
        h = combine(make_observable(0.0), make_observable(0.5), "sum")
        assert h.domain == DomainSet.of([Interval(0.5, 0.75), Interval(0.75, 1.0)])
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

    @settings(max_examples=300)
    @given(gapped_step_rvs(), gapped_step_rvs(), st.sampled_from(sorted(OPS)))
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
            assert f.domain.intersect(g.domain).is_empty()
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
            assert not h.domain.contains(p)
