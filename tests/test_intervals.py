import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bellhop.density import GridDensity
from bellhop.deriv import analyze, format_report, parse
from bellhop.errors import MalformedInput, _show
from bellhop.intervals import DomainSet, Interval


def dset(*pairs):
    return DomainSet(tuple(Interval(lo, hi) for lo, hi in pairs))


def inside(d, x):
    """x lies in some interval of d."""
    return any(iv.lo < x < iv.hi for iv in d.intervals)


# dyadic endpoints keep all arithmetic exact
eighths = st.integers(min_value=0, max_value=40).map(lambda k: k / 8)


@st.composite
def domain_sets(draw):
    points = sorted(draw(st.sets(eighths, min_size=0, max_size=8)))
    return DomainSet(tuple(Interval(lo, hi) for lo, hi in zip(points[::2], points[1::2])))


class TestIntersect:
    def test_overlap(self):
        assert dset((0, 1)).intersect(dset((0.5, 1.5))) == dset((0.5, 1))

    def test_touching_is_empty(self):
        assert dset((0, 1)).intersect(dset((1, 2))) == dset()

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
        assert inside(d1.intersect(d2), x) == (inside(d1, x) and inside(d2, x))


class TestIsEmpty:
    def test_disjoint_intersection(self):
        assert not dset((0, 1)).intersect(dset((1, 2))).intervals


class TestMeasure:
    def test_unit(self):
        assert dset((0, 1)).measure() == 1.0

    def test_two_pieces(self):
        assert dset((0, 0.25), (0.75, 1)).measure() == 0.5

    def test_empty(self):
        assert dset().measure() == 0.0


class TestShow:
    """How a message shows a value: an integer past 40 digits by its digit count."""

    @pytest.mark.parametrize("value, shown", [
        (10**40 - 1, "9" * 40),
        (10**40, "a 41-digit integer"),
        (-10**40, "a 41-digit integer"),
        (10**400 - 1, "a 400-digit integer"),
        (10**5000, "a 5001-digit integer"),
        (-(10**5000 - 1), "a 5000-digit integer"),
        (0.5, "0.5"),
        ("x" * 40, repr("x" * 40)),
        ("x" * 41, repr("x" * 40 + "…")),
        ((10**5000,), "(a 5001-digit integer,)"),
        ([(0.5, 10**50)], "[(0.5, a 51-digit integer)]"),
    ], ids=["40-digits", "41-digits", "-41-digits", "400-digits", "5001-digits",
            "-5000-digits", "float", "40-characters", "41-characters", "in-tuple", "in-list"])
    def test_show(self, value, shown):
        assert _show(value) == shown

    @pytest.mark.parametrize("k", [41, 100, 308, 309, 4299, 4300, 4301, 9999])
    def test_digit_count_at_powers_of_ten(self, k):
        assert _show(10**k) == f"a {k + 1}-digit integer"
        assert _show(10**k - 1) == f"a {k}-digit integer"

    def test_interval_repr(self):
        assert repr(Interval(0.25, 1)) == "(0.25,1)"
        assert repr(Interval(-10**5000, 10**400)) == "(a 5001-digit integer,a 401-digit integer)"
        assert repr(Interval("0", 1)) == "('0',1)"
        # distinct ends print apart: each is its shortest round-trip text
        assert format_report(analyze(parse("a[0]+a[0.9999999999999999]"))) == (
            "EXISTS on x:(0.9999999999999999,1)")
        with pytest.raises(MalformedInput, match=re.escape(
                "8x1 cells on (1e+16,1.0000000000000004e+16) × (0,1) are too narrow")):
            GridDensity(Interval(1e16, 1e16 + 4), Interval(0, 1), np.eye(8, 1))
        # every float end reads back as itself: random bit patterns, subnormals and infinities
        ends = np.frombuffer(np.random.default_rng(28).bytes(8 * 2000))
        ends = [*ends[np.isfinite(ends)].tolist(), 5e-324, -0.0, math.inf, 0.1, 1 / 3, 1e300]
        for lo, hi in zip(ends[0::2], ends[1::2]):
            lo_text, hi_text = repr(Interval(lo, hi))[1:-1].split(",")
            assert (float(lo_text), float(hi_text)) == (lo, hi)
