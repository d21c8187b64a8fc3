import math

import pytest
from hypothesis import given, strategies as st

from bellhop.intervals import DomainSet, Interval


def dset(*pairs):
    return DomainSet.of([Interval(lo, hi) for lo, hi in pairs])


# dyadic endpoints keep all arithmetic exact
eighths = st.integers(min_value=0, max_value=40).map(lambda k: k / 8)


@st.composite
def domain_sets(draw):
    points = sorted(draw(st.sets(eighths, min_size=0, max_size=8)))
    intervals = [Interval(lo, hi) for lo, hi in zip(points[::2], points[1::2])]
    return DomainSet.of(intervals)


class TestIntersect:
    def test_overlap(self):
        assert dset((0, 1)).intersect(dset((0.5, 1.5))) == dset((0.5, 1))

    def test_touching_is_empty(self):
        assert dset((0, 1)).intersect(dset((1, 2))) == DomainSet.empty()

    def test_idempotent(self):
        d = dset((0, 1))
        assert d.intersect(d) == d

    @given(domain_sets(), domain_sets())
    def test_commutative(self, d1, d2):
        assert d1.intersect(d2) == d2.intersect(d1)

    @given(domain_sets(), domain_sets(), domain_sets())
    def test_associative(self, d1, d2, d3):
        assert d1.intersect(d2).intersect(d3) == d1.intersect(d2.intersect(d3))

    @given(domain_sets())
    def test_self_intersection(self, d):
        assert d.intersect(d) == d

    @given(domain_sets(), domain_sets())
    def test_measure_bound(self, d1, d2):
        assert d1.intersect(d2).measure() <= min(d1.measure(), d2.measure()) + 1e-15

    @given(domain_sets(), domain_sets(), st.floats(-1, 6, allow_nan=False))
    def test_membership(self, d1, d2, x):
        assert d1.intersect(d2).contains(x) == (d1.contains(x) and d2.contains(x))


class TestIsEmpty:
    def test_empty(self):
        assert DomainSet.empty().is_empty()

    def test_nonempty(self):
        assert not dset((0, 1)).is_empty()

    def test_disjoint_intersection(self):
        assert dset((0, 1)).intersect(dset((1, 2))).is_empty()


class TestContains:
    def test_inside(self):
        assert dset((0, 1)).contains(0.5)

    def test_outside(self):
        assert not dset((0, 1)).contains(1.5)

    def test_excluded_breakpoint(self):
        d = dset((0, 0.25), (0.25, 1))
        assert not d.contains(0.25)
        assert d.contains(0.2)
        assert d.contains(0.3)


class TestMeasure:
    def test_unit(self):
        assert dset((0, 1)).measure() == 1.0

    def test_two_pieces(self):
        assert dset((0, 0.25), (0.75, 1)).measure() == 0.5

    def test_empty(self):
        assert DomainSet.empty().measure() == 0.0


class TestNormalization:
    def test_drops_empty(self):
        assert dset((1, 1), (2, 1)) == DomainSet.empty()

    def test_merges_overlap(self):
        assert dset((0, 0.5), (0.25, 1)) == dset((0, 1))

    def test_keeps_excluded_breakpoint(self):
        d = dset((0, 0.5), (0.5, 1))
        assert len(d.intervals) == 2

    def test_split_at(self):
        d = dset((0, 1)).split_at([0.25, 2.0])
        assert d == dset((0, 0.25), (0.25, 1))
