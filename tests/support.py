"""Families, strategies and checks that several test modules share.

Importing this module builds no density or family: each helper builds its own when called,
so a fault in the exact layer fails the tests that call it, not a module's collection.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from bellhop import simulate
from bellhop.chsh import PAIRS, ChshFamily
from bellhop.density import ROUND_OFF, GridDensity, _edges
from bellhop.errors import ConfigInvalid
from bellhop.intervals import Interval
from bellhop.observables import setting_interval, thresholds
from bellhop.steprv import PartialRV
import exact

# up to 16 cells a side, where tests/exact.py takes milliseconds a pair
SMALL_ALIGNED_OR_NOT = st.one_of(st.sampled_from([4, 8, 16]), st.integers(1, 7))


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


def unit_rect():
    return Interval(0.0, 1.0), Interval(0.0, 1.0)


def middle_band_density():
    # all mass uniform on (0.25, 0.75)^2, on a quarter-aligned 4x4 grid
    w = np.zeros((4, 4))
    w[1:3, 1:3] = 1.0
    return GridDensity(*unit_rect(), w)


def family_of(weights):
    """A family with the same grid weights for every pair."""
    return ChshFamily(*[
        GridDensity(setting_interval(a), setting_interval(b), weights) for a, b in PAIRS
    ])


def uniform_family():
    """One uniform cell on each pair's setting square."""
    return family_of([[1.0]])


def mixed_grid_family():
    """3x5 / 4x4 / 3x8 / 5x5 grids in PAIRS order: pairs 00 and 01 share the
    setting-0 x axis, while pairs 10 and 11 have setting 1 but different
    cell counts, and no two pairs share a y axis."""
    rng = np.random.default_rng(19)
    shapes = ((3, 5), (4, 4), (3, 8), (5, 5))
    return ChshFamily(*[
        GridDensity(setting_interval(a), setting_interval(b), rng.random(shape) + 0.1)
        for (a, b), shape in zip(PAIRS, shapes)
    ])


def sub_rectangle_family():
    """mixed_grid_family with rho00 on (0.25, 0.75) × (0, 1): a rectangle that a0 and b0
    cover a.e. without spanning a0's domain, on which a0 is +1."""
    w = np.random.default_rng(24).random((3, 5)) + 0.1
    rho00 = GridDensity(Interval(0.25, 0.75), setting_interval(0), w)
    return dataclasses.replace(mixed_grid_family(), rho00=rho00)


@st.composite
def weights(draw, nx, ny):
    """nx × ny weights in [1e-3, 1), zeros among them, and a positive one somewhere.  A
    drawn seed gives the values and a drawn share of them zeros; one hypothesis draw per
    entry took most of the time of the tests that draw families."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(1e-3, 1, nx * ny)
    w[rng.random(nx * ny) < draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))] = 0.0
    if not w.any():
        w[draw(st.integers(0, nx * ny - 1))] = draw(st.floats(1e-3, 1))
    return w.reshape(nx, ny)


@st.composite
def families(draw, sides):
    """Families of random weights, zeros among them, on grids of the given
    sides: multiples of 4 keep the thresholds on grid lines, others cut cells."""
    return ChshFamily(*(
        GridDensity(setting_interval(alpha), setting_interval(beta),
                    draw(weights(draw(sides), draw(sides))))
        for alpha, beta in PAIRS))


@st.composite
def rect_ends(draw, alpha):
    """A rectangle end on setting_interval(alpha): one of its ends or thresholds or a point
    between, half the time one ulp off it, either way."""
    end = draw(st.sampled_from([alpha, *thresholds(alpha), alpha + 1.0])
               | st.floats(alpha, alpha + 1.0))
    return draw(st.sampled_from([end, end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf)]))


@st.composite
def sub_rectangle(draw, alpha):
    """One side of a pair's rectangle on setting_interval(alpha) and its cell count, as
    ChshFamily accepts them: two rect_ends, distinct; an end past the domain only where the
    overhang is within the a.e. slack (else the domain's end); a side of subnormal width,
    which only ends within an ulp of 0 give, reaching to the domain's far end, so that the
    cells' areas stay normal floats; and at most as many of the drawn 1..8 cells as keep
    the edges strictly increasing, so a cell with no float strictly inside still occurs."""
    lo, hi = sorted((draw(rect_ends(alpha)), draw(rect_ends(alpha))))
    slack = ROUND_OFF / 2 * (hi - lo)
    lo, hi = (end if abs(end - inside) <= slack else inside
              for end, inside in ((e, min(max(e, alpha), alpha + 1.0)) for e in (lo, hi)))
    if lo == hi:
        lo, hi = (lo, np.nextafter(hi, np.inf)) if hi < alpha + 1.0 else (
            np.nextafter(lo, -np.inf), hi)
    if hi - lo < 2.0**-500:
        hi = alpha + 1.0
    rect = Interval(float(lo), float(hi))
    n = draw(st.integers(1, 8))
    while n > 1 and not (np.diff(_edges(rect, n)) > 0).all():
        n -= 1
    return rect, n


@st.composite
def sub_rectangle_families(draw):
    """Families of random weights on 1..8-cell grids over rectangles whose ends lie on or
    one ulp off the setting intervals' ends and thresholds: sub-rectangles, rectangles
    one ulp past a domain (inside its a.e. slack) and cells with no float inside."""
    densities = []
    for alpha, beta in PAIRS:
        (x_rect, nx), (y_rect, ny) = draw(sub_rectangle(alpha)), draw(sub_rectangle(beta))
        densities.append(GridDensity(x_rect, y_rect, draw(weights(nx, ny))))
    return ChshFamily(*densities)


def check_log_table(family):
    """simulate._log_table against the exact cells: one row per cell, each class's cells in
    row-major order, its corners bit for bit, its probability given the class within the
    rule (0 where no float fits inside), and the class's kind and line of fixed bytes, NUL
    where the trial, x and y go; or the first class that has mass on no cell refused by
    name."""
    lo, hi, kinds, lines, split, refused = [], [], [], [], [], None
    trial, point = b"\0" * 16, b"\0" * 24
    for (alpha, beta), rho in zip(PAIRS, family.densities()):
        f, g = family.observables(alpha, beta)
        n = exact.terms(rho, f, g)
        cells = exact.cells(f, g, rho)
        for ((u, v), p), class_cells in zip(exact.class_law(cells).items(), cells.values()):
            mass = sum(c.log_mass for c in class_cells)
            if p.value > 0 and not mass and refused is None:
                refused = (f"pair ({alpha},{beta}) class (a, b) = ({u:+.0f}, {v:+.0f}) "
                           "lies on cells too thin for the event log's points")
            lo += [c.lo for c in class_cells]
            hi += [c.hi for c in class_cells]
            kinds += [len(lines)] * len(class_cells)
            lines.append(b"%s,%d,%d,%s,%s,%+d,%+d\n" % (trial, alpha, beta, point, point, u, v))
            split.append((n, [c.log_mass / (mass or 1) for c in class_cells]))
    if refused:
        with pytest.raises(ConfigInvalid) as err:
            simulate._log_table(family)
        assert str(err.value) == refused
        return
    table = simulate._log_table(family)
    assert table.lo.tobytes() == np.array(lo).tobytes()
    assert table.hi.tobytes() == np.array(hi).tobytes()
    assert table.kinds.tolist() == kinds
    assert [line.tobytes() for line in table.lines] == lines
    for got, (n, want) in zip(table.split, split, strict=True):
        assert all(exact.within(q, exact.Exact(p, p), n)
                   for q, p in zip(got.tolist(), want, strict=True))
