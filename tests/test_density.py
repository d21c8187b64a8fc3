import copy
import io
import json
import math
import pickle
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from bellhop import simulate
from bellhop.chsh import PAIRS, ChshFamily, optimize_family, saturating_family
from bellhop.density import ROUND_OFF, GridDensity, _integrate, expectation
from bellhop.errors import (
    BellhopError,
    ConfigInvalid,
    DomainMismatch,
    EmptyRect,
    MalformedInput,
    NegativeWeight,
    NonFiniteInput,
    ZeroTotalMass,
)
from bellhop.intervals import Interval
from bellhop.observables import make_observable, setting_interval, thresholds
from bellhop.simulate import ExperimentConfig, estimate, run_experiment
from bellhop.steprv import PartialRV, make_step
from test_steprv import gapped_step_rvs, grid_points, step_rvs


def unit_rect():
    return Interval(0.0, 1.0), Interval(0.0, 1.0)


def refine(rho, x_cuts, y_cuts):
    """(x_edges, y_edges, probs) of rho's grid cut also at the cuts inside its
    rectangle by refine_axis: each cell's probability is its grid weight
    times its area, rescaled to sum 1, as the event log weighs its cells."""
    x_edges, x_cells, x_widths = refine_axis(rho.x_edges(), rho.x_rect, x_cuts)
    y_edges, y_cells, y_widths = refine_axis(rho.y_edges(), rho.y_rect, y_cuts)
    probs = rho.weights[np.ix_(x_cells, y_cells)] * np.outer(x_widths, y_widths)
    return x_edges, y_edges, probs / probs.sum()


class Cells(NamedTuple):
    """One pair's refined cells, their outcomes and the outcome classes' law."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    probs: np.ndarray  # (len(a), len(b)), sums to 1
    a: np.ndarray  # Alice's ±1 outcome per x-cell, int64
    b: np.ndarray  # Bob's ±1 outcome per y-cell, int64
    a_values: np.ndarray  # the distinct values of a, sorted
    b_values: np.ndarray  # the distinct values of b, sorted
    classes: np.ndarray  # (len(a_values), len(b_values)): probs summed per (a, b)


def per_pair_cells(family):
    """Each pair's Cells, in PAIRS order, by breakpoint refinement: the oracle
    of the exact class law and of the event log's cells."""
    out = []
    for (alpha, beta), rho in zip(PAIRS, family.densities()):
        f, g = family.observables(alpha, beta)
        xe, ye, probs = refine(rho, f.breakpoints(), g.breakpoints())
        a, b = (column_values(rv, e).astype(np.int64) for rv, e in ((f, xe), (g, ye)))
        a_values, b_values = np.unique(a), np.unique(b)
        classes = (a[:, None] == a_values).T @ probs @ (b[:, None] == b_values)
        out.append(Cells(xe, ye, probs, a, b, a_values, b_values, classes))
    return out


def middle_band_density():
    # all mass uniform on (0.25, 0.75)^2, on a quarter-aligned 4x4 grid
    w = np.zeros((4, 4))
    w[1:3, 1:3] = 1.0
    return GridDensity(*unit_rect(), w)


@st.composite
def partial_steps(draw, axis):
    """±1 step functions whose cuts fall on and off the grid lines of 1..6-cell
    grids on (0, 1).  Most reach across (0, 1), some beyond it; the rest stop
    short of it.  Some lose pieces, which leaves gaps in the domain."""
    cut = st.one_of(
        st.integers(-12, 60).map(lambda k: k / 48),
        st.integers(-10, 50).map(lambda k: k / 40),
    )
    bs = draw(st.sets(cut, min_size=2, max_size=7))
    if draw(st.sampled_from([True, True, True, False])):
        bs |= {min(*bs, 0.0), max(*bs, 1.0)}
    bs = sorted(bs)
    n = len(bs) - 1
    f = make_step(bs, draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)),
                  axis)
    if n > 1 and draw(st.sampled_from([False, False, True])):
        dropped = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        f = PartialRV(tuple(p for i, p in enumerate(f.pieces) if i not in dropped), axis)
    return f


@st.composite
def grid_densities(draw, max_side=6):
    nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1))
    weights = draw(st.lists(weight, min_size=nx * ny, max_size=nx * ny))
    assume(sum(weights) > 0)
    return GridDensity(*unit_rect(), np.reshape(weights, (nx, ny)))


@st.composite
def rectangles(draw):
    """Rectangle sides from 1e-6 to 1e6 wide at offsets up to 1e17, where a
    few cells can be narrower than the floats between their edges."""
    lo = draw(st.one_of(st.sampled_from([0.0, -3.0, 1e16, -1e16, 2.0**53]),
                        st.floats(-1e17, 1e17)))
    width = draw(st.one_of(st.integers(1, 64).map(float), st.floats(1e-6, 1e6)))
    assume(lo + width > lo)
    return Interval(lo, lo + width)


# Arbitrary JSON-shaped values, as json.loads could return them.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
json_numbers = st.one_of(st.integers(), st.floats(), st.sampled_from([0, 1, 0.5, 2.0]))


@st.composite
def density_records(draw):
    """Density records near the valid ones: plausible fields (grid sizes down
    to -1, odd rectangles, a weight too many or too few, any number in place
    of a weight), up to two fields replaced by any JSON value, and sometimes
    a key missing."""
    side = st.sampled_from([1, 2, 3, 4, 0, -1])
    nx, ny = draw(side), draw(side)
    size = max(nx * ny + draw(st.sampled_from([0, 0, 0, 1, -1])), 0)
    rect = st.sampled_from(
        [[0.0, 1.0], [0, 1], [1.0, 2.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1e-160]]
    ) | st.lists(json_numbers, min_size=2, max_size=2)
    weights = draw(st.lists(st.just(0.0) | st.floats(0, 10), min_size=size, max_size=size))
    if weights and draw(st.integers(0, 3)) == 0:
        weights[draw(st.integers(0, size - 1))] = draw(json_numbers | json_values)
    record = {"x_rect": draw(rect), "y_rect": draw(rect), "nx": nx, "ny": ny,
              "weights": weights}
    n = draw(st.sampled_from([0, 0, 0, 1, 2]))
    for key in draw(st.sets(st.sampled_from(sorted(record)), min_size=n, max_size=n)):
        record[key] = draw(json_values)
    missing = draw(st.sampled_from([None] * 9 + sorted(record)))
    if missing:
        del record[missing]
    return record


def check_parsed(record, rho):
    """rho holds what record says: its grid shape, its rectangle, weights in
    the record's proportions and cell order, finite and nonnegative, and unit
    total mass."""
    nx, ny = record["nx"], record["ny"]
    assert type(nx) is type(ny) is int and rho.weights.shape == (nx, ny)
    assert len(record["weights"]) == nx * ny
    assert (rho.x_rect.lo, rho.x_rect.hi) == tuple(record["x_rect"])
    assert (rho.y_rect.lo, rho.y_rect.hi) == tuple(record["y_rect"])
    assert np.isfinite(rho.weights).all() and (rho.weights >= 0).all()
    w = np.array(record["weights"], dtype=float).reshape(nx, ny)
    assert np.allclose(rho.weights / rho.weights.max(), w / w.max(), rtol=1e-12, atol=1e-12)
    width, height = rho.x_rect.length / rho.nx, rho.y_rect.length / rho.ny
    assert abs((rho.weights * (width * height)).sum() - 1.0) <= 1e-9


@st.composite
def family_records(draw):
    """Family records: per pair the saturating family's density, a density
    record or any JSON value; sometimes a key missing or the whole record
    any JSON value."""
    if draw(st.integers(0, 7)) == 0:
        return draw(json_values)
    valid = saturating_family().to_dict()
    record = {}
    for key in [f"rho{alpha}{beta}" for alpha, beta in PAIRS] + ["expectations"]:
        record[key] = draw(st.sampled_from([valid[key]] * 3) | density_records() | json_values)
    missing = draw(st.sampled_from([None] * 9 + sorted(record)))
    if missing:
        del record[missing]
    return record


def family_of(weights):
    """A family with the same grid weights for every pair."""
    return ChshFamily(*[
        GridDensity(setting_interval(a), setting_interval(b), weights) for a, b in PAIRS
    ])


@st.composite
def families(draw, sides):
    """Families of random weights, zeros among them, on grids of the given
    sides: multiples of 4 keep the thresholds on grid lines, others cut cells."""
    densities = []
    for alpha, beta in PAIRS:
        nx, ny = draw(sides), draw(sides)
        weight = st.one_of(st.just(0.0), st.floats(1e-3, 1))
        w = draw(st.lists(weight, min_size=nx * ny, max_size=nx * ny))
        assume(sum(w) > 0)
        densities.append(GridDensity(
            setting_interval(alpha), setting_interval(beta), np.reshape(w, (nx, ny))))
    return ChshFamily(*densities)


ALIGNED_OR_NOT = st.one_of(st.sampled_from([4, 8, 16, 32]), st.integers(1, 7))


def pair_counts(family, n, seed, pair=0):
    """One pair's outcome-class counts, as the Monte-Carlo engine draws them
    for n trials of family, and the pair's refined cells."""
    law = family._class_law
    counts = simulate._counts(np.random.default_rng(seed), law, np.full(4, 0.25), n)
    classes, start = law[pair][2], sum(c.size for _, _, c in law[:pair])
    counts = counts[start:start + classes.size].reshape(classes.shape)
    return counts, per_pair_cells(family)[pair]


def pair_cell_counts(family, n, seed, pair=0):
    """One pair's refined-cell counts, as the event log's class split draws
    them block by block for n trials of family, and the pair's refined cells."""
    law, cells = family._class_law, per_pair_cells(family)
    table = simulate._log_table(family)
    rng = np.random.default_rng(seed)
    left = simulate._counts(rng, law, np.full(4, 0.25), n)
    hits = np.zeros(len(table.lo), dtype=np.int64)
    for start in range(0, n, simulate._BLOCK):
        rows, _ = simulate.sample_many(table, rng, min(simulate._BLOCK, n - start), left)
        hits += np.bincount(rows, minlength=len(hits))
    # the table's rows hold the pairs in PAIRS order; a row's lower corner is
    # an edge of its cell on each axis
    first, c = sum(k.probs.size for k in cells[:pair]), cells[pair]
    lo = table.lo[first:first + c.probs.size]
    counts = np.zeros(c.probs.shape, dtype=np.int64)
    counts[np.searchsorted(c.x_edges, lo[:, 0]), np.searchsorted(c.y_edges, lo[:, 1])] = (
        hits[first:first + c.probs.size])
    return counts, c


def log_rows(family, n, seed, workers=1):
    """The event log of an n-trial run as a float array, one row per trial."""
    sink = io.StringIO()
    run_experiment(ExperimentConfig(family, n, seed, n_workers=workers), event_log=sink)
    return np.loadtxt(sink.getvalue().splitlines()[1:], delimiter=",", ndmin=2)


def refined_moments(f, g, rho):
    """(E[fg], E[f], E[g]) by breakpoint refinement, or None when f or g does
    not exist a.e. on its side of the rectangle.

    Each axis is cut at the union of its grid edges and the breakpoints inside
    the rectangle; every refined cell then lies in one piece or in no piece, so
    its value is the function at its midpoint and its mass is the grid weight
    times the cell's area.
    """
    def axis(rv, grid, rect):
        cuts = [p for p in rv.breakpoints() if rect.lo < p < rect.hi]
        edges = np.unique(np.concatenate([grid, cuts]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        values, defined = rv.eval_many(mids)
        widths = np.diff(edges)
        covered = abs(widths[defined].sum() - rect.length) <= ROUND_OFF
        cell = np.clip(np.searchsorted(grid, mids) - 1, 0, len(grid) - 2)
        return values, widths, cell, covered

    fv, ax, xi, x_ok = axis(f, rho.x_edges(), rho.x_rect)
    gv, ay, yi, y_ok = axis(g, rho.y_edges(), rho.y_rect)
    if not (x_ok and y_ok):
        return None
    mass = rho.weights[np.ix_(xi, yi)] * np.outer(ax, ay)
    return fv @ mass @ gv, fv @ mass.sum(axis=1), mass.sum(axis=0) @ gv


class TestConstruction:
    def test_uniform_single_cell(self):
        rho = GridDensity(*unit_rect(), np.ones((1, 1)))
        assert rho.weights[0, 0] == 1.0

    def test_uniform_offset_rect(self):
        rho = GridDensity(Interval(1, 2), Interval(0, 1), np.ones((2, 2)))
        assert np.all(rho.weights == 1.0)

    def test_zero_mass(self):
        with pytest.raises(ZeroTotalMass):
            GridDensity(*unit_rect(), np.zeros((2, 2)))

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            GridDensity(*unit_rect(), np.array([[1.0, -1.0]]))

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"),
        pytest.param(10**400, id="huge-int"), pytest.param(-10**400, id="-huge-int"),
    ])
    def test_non_finite_weight(self, value):
        with pytest.raises(NonFiniteInput):
            GridDensity(*unit_rect(), [[1.0, value]])
        # nor is it a rectangle end
        with pytest.raises(NonFiniteInput):
            GridDensity(Interval(0.0, abs(value)), Interval(-abs(value), 1.0), [[1.0]])

    @pytest.mark.parametrize("weights", [
        pytest.param([["1.5", 1.0]], id="numeric-text"),
        pytest.param([[True, 1.0]], id="bool"),
        pytest.param([[1.0, "x"]], id="text"),
        pytest.param([[None, 1.0]], id="none"),
        pytest.param(np.array([[True, False]]), id="bool-array"),
    ])
    def test_non_number_weight(self, weights):
        # each value must be a number, by the rule from_dict applies: numpy would read
        # "1.5" as 1.5, True as 1.0 and None as NaN
        with pytest.raises(MalformedInput, match="must be numbers"):
            GridDensity(*unit_rect(), weights)

    @pytest.mark.parametrize("end", ["0", False, None])
    def test_non_number_rectangle_end(self, end):
        with pytest.raises(MalformedInput, match="has an end that is no number"):
            GridDensity(Interval(end, 1.0), Interval(0.0, 1.0), [[1.0]])

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copy_is_read_only_and_bit_equal(self, how):
        # renormalizing these weights again would change some of their bits
        rho = GridDensity(*unit_rect(), np.random.default_rng(1).random((7, 5)))
        assert GridDensity(*unit_rect(), rho.weights).weights.tobytes() != rho.weights.tobytes()
        again = copy.deepcopy(rho) if how == "deepcopy" else pickle.loads(pickle.dumps(rho))
        assert again.weights.tobytes() == rho.weights.tobytes()
        assert (again.x_rect, again.y_rect) == (rho.x_rect, rho.y_rect)
        with pytest.raises(ValueError, match="read-only"):
            again.weights[0, 0] = 99.0

    @pytest.mark.parametrize(
        "key, index, value, error",
        [
            ("weights", 0, float("nan"), NonFiniteInput),
            ("weights", 5, float("inf"), NonFiniteInput),
            ("weights", 15, float("-inf"), NegativeWeight),
            ("weights", 3, 10**400, NonFiniteInput),
            ("x_rect", 1, float("inf"), NonFiniteInput),
            ("y_rect", 0, float("nan"), NonFiniteInput),
        ],
    )
    def test_non_finite_from_dict(self, key, index, value, error):
        d = middle_band_density().to_dict()
        d[key][index] = value
        with pytest.raises(error):
            GridDensity.from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("x_rect", [0.0, 0.5, 1.0]),
        ("x_rect", 5),
        ("nx", None),
        ("nx", 4.9),
        ("weights", "ab"),
        ("weights", [1.0]),
        ("x_rect", "01"),
        ("weights", [True] * 16),
    ])
    def test_malformed_from_dict(self, key, value):
        d = middle_band_density().to_dict()
        d[key] = value
        with pytest.raises(MalformedInput):
            GridDensity.from_dict(d)

    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "text", "none"])
    def test_one_non_float_among_floats_refused(self, value):
        # a list of floats alone skips the per-value checks
        d = middle_band_density().to_dict()
        assert all(type(w) is float for w in d["weights"])
        d["weights"][7] = value
        with pytest.raises(MalformedInput, match="must be a list of 16 numbers"):
            GridDensity.from_dict(d)

    def test_floats_and_exact_integers_parse_alike(self):
        d = middle_band_density().to_dict()
        mixed = {**d, "weights": [int(w) if w == int(w) else w for w in d["weights"]]}
        assert any(type(w) is int for w in mixed["weights"])
        want, got = GridDensity.from_dict(d), GridDensity.from_dict(mixed)
        assert want.weights.tobytes() == got.weights.tobytes()

    @pytest.mark.parametrize("key, index", [("x_rect", 0), ("y_rect", 0), ("weights", 5)])
    def test_integer_no_float_equals_refused(self, key, index):
        # -(2**53) - 1 would round to -(2**53): refused, not silently moved
        d = middle_band_density().to_dict()
        d[key][index] = -(2**53) - 1
        with pytest.raises(MalformedInput, match="no float equals"):
            GridDensity.from_dict(d)

    def test_integer_a_float_equals_kept(self):
        d = middle_band_density().to_dict()
        d["x_rect"][0] = -(2**53)
        assert GridDensity.from_dict(d).x_rect.lo == -(2**53)

    @pytest.mark.filterwarnings("error")
    def test_total_mass_overflow(self):
        with pytest.raises(NonFiniteInput):
            GridDensity(*unit_rect(), np.full((2, 2), 1e308))

    @pytest.mark.filterwarnings("error")
    def test_rescaled_weight_overflow(self):
        tiny = Interval(0.0, 1e-160)
        with pytest.raises(NonFiniteInput):
            GridDensity(tiny, tiny, np.ones((1, 1)))

    def test_empty_rect(self):
        with pytest.raises(EmptyRect):
            GridDensity(Interval(0, 0), Interval(0, 1), [[1.0]])

    def test_normalization_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = GridDensity(*unit_rect(), rng.random((3, 5)))
            width, height = rho.x_rect.length / rho.nx, rho.y_rect.length / rho.ny
            assert abs((rho.weights * (width * height)).sum() - 1.0) < 1e-12

    def test_cells_narrower_than_floats(self):
        # ulp(1e16) = 2: eight cells of width 0.5 would have the edges
        # 1e16 + (0, 0, 0, 2, 2, 2, 4, 4, 4), and cell 0 alone no mass
        with pytest.raises(MalformedInput, match="too narrow"):
            GridDensity(Interval(1e16, 1e16 + 4), Interval(0.0, 1.0), np.eye(8, 1))

    @settings(max_examples=200)
    @given(rectangles(), rectangles(), st.integers(1, 12), st.integers(1, 12), st.data())
    def test_unit_mass(self, x_rect, y_rect, nx, ny, data):
        # E[1] = 1 for every density the constructor accepts, cells of
        # unequal float widths among them
        weight = st.one_of(st.just(0.0), st.floats(1e-3, 1))
        w = data.draw(st.lists(weight, min_size=nx * ny, max_size=nx * ny))
        try:
            rho = GridDensity(x_rect, y_rect, np.reshape(w, (nx, ny)))
        except (MalformedInput, ZeroTotalMass):
            return
        f, g = PartialRV(((x_rect, 1.0),), "x"), PartialRV(((y_rect, 1.0),), "y")
        assert abs(expectation(f, g, rho) - 1.0) <= ROUND_OFF

    @pytest.mark.parametrize("key, value", [("nx", 0), ("ny", 0), ("nx", -1), ("nx", True)])
    def test_grid_size_below_one(self, key, value):
        d = middle_band_density().to_dict()
        d["nx"], d["ny"], d["weights"] = 2, 2, [1.0] * 4
        d[key] = value
        with pytest.raises(MalformedInput):
            GridDensity.from_dict(d)

    @pytest.mark.parametrize("key", ["nx", "ny"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_huge_grid_size(self, key, sign):
        # past 4300 digits an integer has no repr: the message counts its digits
        d = middle_band_density().to_dict()
        d[key] = sign * 10**5000
        with pytest.raises(MalformedInput, match="a 5001-digit integer") as err:
            GridDensity.from_dict(d)
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("key", ["x_rect", "y_rect"])
    @pytest.mark.parametrize("rect", [(0.0, 1.0), [0.0, 1.0], None])
    def test_rectangle_not_an_interval(self, key, rect):
        rects = {"x_rect": Interval(0.0, 1.0), "y_rect": Interval(0.0, 1.0), key: rect}
        with pytest.raises(MalformedInput, match=f"^{key} must be an Interval"):
            GridDensity(**rects, weights=[[1.0]])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (4,), (1, 1, 1)])
    def test_weights_without_cells(self, shape):
        with pytest.raises(MalformedInput):
            GridDensity(*unit_rect(), np.ones(shape))

    def test_json_round_trip(self):
        rho = middle_band_density()
        again = GridDensity.from_dict(rho.to_dict())
        assert np.array_equal(again.weights, rho.weights)
        assert again.x_rect == rho.x_rect

    @pytest.mark.parametrize("lo, hi", [
        (0, 2**53 + 1), (-3, 5), (np.int64(0), np.int64(1)), (np.float32(0.1), np.float32(1.5)),
    ], ids=["int_no_float_equals", "int", "int64", "float32"])
    def test_rectangle_ends_round_trip_through_json(self, lo, hi):
        # the rectangle is kept as the floats the density computes with
        rho = GridDensity(Interval(lo, hi), Interval(0.0, 1.0), [[1.0, 2.0], [3.0, 4.0]])
        assert rho.x_rect == Interval(float(lo), float(hi))
        assert {type(x) for x in (rho.x_rect.lo, rho.x_rect.hi)} == {float}
        again = GridDensity.from_dict(json.loads(json.dumps(rho.to_dict())))
        assert (again.x_rect, again.y_rect) == (rho.x_rect, rho.y_rect)
        np.testing.assert_allclose(again.weights, rho.weights, rtol=ROUND_OFF, atol=0)


@pytest.mark.filterwarnings("error")
class TestRecordFuzz:
    """Parsing any JSON-shaped record gives a valid density or family, or a
    BellhopError: never another exception or a silently reshaped grid."""

    @settings(max_examples=300)
    @given(density_records())
    # an integer past int64 that a float equals: the record is valid
    @example({"x_rect": [0.0, 1.0], "y_rect": [0.0, 1.0], "nx": 1, "ny": 1,
              "weights": [28_845_841_486_331_248_640]})
    def test_density_from_dict(self, record):
        try:
            rho = GridDensity.from_dict(record)
        except BellhopError:
            return
        check_parsed(record, rho)

    @settings(max_examples=200)
    @given(family_records())
    def test_family_from_dict(self, record):
        try:
            family = ChshFamily.from_dict(record)
        except BellhopError:
            return
        for (alpha, beta), rho in zip(PAIRS, family.densities()):
            check_parsed(record[f"rho{alpha}{beta}"], rho)


class TestExpectation:
    def test_uniform_factorizes_to_zero(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        assert expectation(f, g, GridDensity(*unit_rect(), [[1.0]])) == 0.0

    def test_thin_rectangle_outside_domain(self):
        # a rectangle 1e-13 wide that a0 does not reach: the slack scales with its width
        f, g = make_observable(0.0, "x"), make_observable(0.0, "y")
        rho = GridDensity(Interval(5.0, 5.0 + 1e-13), Interval(0.0, 1.0), [[1.0]])
        with pytest.raises(DomainMismatch):
            expectation(f, g, rho)

    def test_wide_rectangle_covered(self):
        # the pieces cover (0, hi) exactly, though the grid cells' overlaps
        # with them sum to hi less 4.8e-7 by round-off
        bs = [0, 468592683.41603464, 2899405851.7302084, 3800107394.9693756, 4077107345.750567]
        f = make_step(bs, [1.0, -1.0, 1.0, -1.0], "x")
        g = make_step([0.0, 1.0], [1.0], "y")
        rho = GridDensity(Interval(0.0, bs[-1]), Interval(0.0, 1.0), np.ones((5, 1)))
        widths = np.diff(bs) * [1.0, -1.0, 1.0, -1.0]
        assert expectation(f, g, rho) == pytest.approx(math.fsum(widths) / bs[-1], abs=1e-12)

    def test_overflow_refused(self):
        # finite observables whose expectation overflows: NonFiniteInput, no numpy warning
        f = make_step([0, 1], [1e200], "x")
        g = make_step([0, 1], [1e200], "y")
        with pytest.raises(NonFiniteInput, match=r"correlators on \(0,1\) × \(0,1\) overflow"):
            expectation(f, g, GridDensity(*unit_rect(), [[1.0]]))

    def test_offset_pair(self):
        f = make_observable(1.0, "x")
        g = make_observable(0.0, "y")
        rho = GridDensity(Interval(1, 2), Interval(0, 1), [[1.0]])
        assert expectation(f, g, rho) == 0.0

    def test_middle_band_support(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        assert expectation(f, g, middle_band_density()) == 1.0

    def test_domain_mismatch(self):
        f = make_observable(1.0, "x")
        g = make_observable(0.0, "y")
        with pytest.raises(DomainMismatch):
            expectation(f, g, GridDensity(*unit_rect(), [[1.0]]))

    def test_monte_carlo_oracle(self):
        # 1e6-point Monte-Carlo quadrature agrees with the exact sum within 4 se
        rng = np.random.default_rng(11)
        rho = GridDensity(*unit_rect(), rng.random((4, 4)))
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        exact = expectation(f, g, rho)
        n = 1_000_000
        width, height = rho.x_rect.length / rho.nx, rho.y_rect.length / rho.ny
        cells = rng.choice(16, size=n, p=(rho.weights * (width * height)).reshape(-1))
        ix, iy = np.divmod(cells, 4)
        xs, ys = (ix + rng.random(n)) / 4, (iy + rng.random(n)) / 4
        prods = f.eval_many(xs)[0] * g.eval_many(ys)[0]
        se = prods.std() / np.sqrt(n)
        assert abs(prods.mean() - exact) < 4 * se

    def test_linear_in_weights(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        rng = np.random.default_rng(2)
        w1, w2 = rng.random((4, 4)), rng.random((4, 4))
        e1 = expectation(f, g, GridDensity(*unit_rect(), w1))
        e2 = expectation(f, g, GridDensity(*unit_rect(), w2))
        s1, s2 = w1.sum(), w2.sum()
        mix = expectation(f, g, GridDensity(*unit_rect(), w1 + w2))
        assert mix == pytest.approx((s1 * e1 + s2 * e2) / (s1 + s2), abs=1e-12)


    @given(partial_steps("x"), partial_steps("y"), grid_densities())
    def test_refinement_oracle(self, f, g, rho):
        want = refined_moments(f, g, rho)
        if want is None:
            with pytest.raises(DomainMismatch):
                expectation(f, g, rho)
            with pytest.raises(DomainMismatch):
                _integrate(f, g, rho)[1:]
            return
        e_fg, e_f, e_g = want
        assert abs(expectation(f, g, rho) - e_fg) <= 1e-12
        got_f, got_g = _integrate(f, g, rho)[1:]
        assert abs(got_f - e_f) <= 1e-12
        assert abs(got_g - e_g) <= 1e-12


class TestMarginals:
    def test_uniform(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        assert _integrate(f, g, GridDensity(*unit_rect(), [[1.0]]))[1:] == (0.0, 0.0)

    def test_middle_band(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        assert _integrate(f, g, middle_band_density())[1:] == (1.0, 1.0)

    def test_product_density_factorizes(self):
        # rank-1 weights => E[fg] = E[f] E[g]
        rng = np.random.default_rng(3)
        w = np.outer(rng.random(4), rng.random(4))
        rho = GridDensity(*unit_rect(), w)
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        mf, mg = _integrate(f, g, rho)[1:]
        assert expectation(f, g, rho) == pytest.approx(mf * mg, abs=1e-12)


# The event log's cells by breakpoint refinement, an algorithm apart from
# PartialRV._overlap_cells: the reference for simulate._log_table and for the oracles above.

def refine_axis(grid: np.ndarray, rect: Interval, cuts):
    """Edges of grid cut also at the cuts inside rect, with each refined
    cell's grid cell and its width, 0 where no float lies strictly inside."""
    edges = np.array(sorted({*grid.tolist(), *(c for c in cuts if rect.lo < c < rect.hi)}))
    lo, hi = edges[:-1], edges[1:]
    cells = np.minimum(np.searchsorted(grid, lo, side="right") - 1, len(grid) - 2)
    return edges, cells, np.where(np.nextafter(lo, hi) < hi, hi - lo, 0.0)


def column_values(f: PartialRV, edges: np.ndarray) -> np.ndarray:
    """Per cell (edges[i], edges[i+1]): the value of the piece of f that holds
    the whole open cell, or NaN where no piece does (a breakpoint cuts
    the cell or part of it lies outside the domain)."""
    los, his, values = f._arrays()
    # holds[i, j]: piece j holds cell i; pieces are disjoint, so at most one
    # holds a nonempty cell
    holds = (edges[:-1, None] >= los) & (edges[1:, None] <= his)
    return np.where(holds.any(axis=1), values[holds.argmax(axis=1)], np.nan)


def reference_log_table(family, law) -> simulate._LogTable:
    """simulate._log_table from the refined grids: one row per (pair, class, cell), each
    class's cells row-major; ConfigInvalid if a class has mass but only cells too thin
    for a float strictly inside."""
    lo, hi, lines, split = [], [], [], []
    trial, point = b"\0" * 16, b"\0" * 24  # NUL where the trial and (x, y) go
    for (alpha, beta), rho, (a_values, b_values, classes) in zip(PAIRS, family.densities(), law):
        f, g = family.observables(alpha, beta)
        xe, x_cells, x_widths = refine_axis(rho.x_edges(), rho.x_rect, f.breakpoints())
        ye, y_cells, y_widths = refine_axis(rho.y_edges(), rho.y_rect, g.breakpoints())
        probs = rho.weights[np.ix_(x_cells, y_cells)] * np.outer(x_widths, y_widths)
        a, b = column_values(f, xe), column_values(g, ye)
        for i, u in enumerate(a_values.tolist()):
            for j, v in enumerate(b_values.tolist()):
                ix, iy = (a == u).nonzero()[0], (b == v).nonzero()[0]
                p = probs[np.ix_(ix, iy)].reshape(-1)
                if classes[i, j] > 0 and not p.any():
                    raise ConfigInvalid(f"pair ({alpha},{beta}) class (a, b) = ({u:+d}, {v:+d}) "
                                        "lies on cells too thin for the event log's points")
                for corners, x, y in ((lo, xe[ix], ye[iy]), (hi, xe[ix + 1], ye[iy + 1])):
                    corners.append(np.stack(np.meshgrid(x, y, indexing="ij"), -1).reshape(-1, 2))
                lines.append(b"%s,%d,%d,%s,%s,%+d,%+d\n" % (trial, alpha, beta, point, point, u, v))
                split.append(p / (p.sum() or 1.0))
    kinds = np.repeat(np.arange(len(split), dtype=np.uint8), [len(p) for p in split])
    lines = np.frombuffer(b"".join(lines), np.uint8).reshape(len(lines), -1)
    return simulate._LogTable(np.concatenate(lo), np.concatenate(hi), kinds, lines, split)


@st.composite
def rect_ends(draw, alpha):
    """A rectangle end on setting_interval(alpha): one of its ends or thresholds or a point
    between, half the time one ulp off it, either way."""
    end = draw(st.sampled_from([alpha, *thresholds(alpha), alpha + 1.0])
               | st.floats(alpha, alpha + 1.0))
    return draw(st.sampled_from([end, end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf)]))


@st.composite
def sub_rectangle_families(draw):
    """Families of random weights on 1..8-cell grids over rectangles whose ends lie on or
    one ulp off the setting intervals' ends and thresholds: sub-rectangles, rectangles
    one ulp past a domain (inside its a.e. slack) and cells with no float inside."""
    densities = []
    for alpha, beta in PAIRS:
        x_rect, y_rect = (Interval(*sorted((draw(rect_ends(s)), draw(rect_ends(s)))))
                          for s in (alpha, beta))
        nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        weight = st.one_of(st.just(0.0), st.floats(1e-3, 1))
        w = draw(st.lists(weight, min_size=nx * ny, max_size=nx * ny))
        densities.append((x_rect, y_rect, np.reshape(w, (nx, ny))))
    try:
        return ChshFamily(*(GridDensity(*density) for density in densities))
    except BellhopError:  # an empty or too narrow rectangle, no mass, or off a domain
        assume(False)


class TestColumnValues:
    def test_quarter_grid(self):
        assert column_values(make_observable(0.0), np.arange(5) / 4).tolist() == [
            -1.0, 1.0, 1.0, -1.0
        ]

    def test_cut_and_outside_columns_are_nan(self):
        # (0, 1/3) and (2/3, 1) are cut at 1/4 and 3/4; (-1/3, 0) and (1, 4/3)
        # lie outside the domain (0, 1)
        values = column_values(make_observable(0.0), np.arange(-1, 5) / 3)
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
        values = column_values(f, edges)
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


class TestRefine:
    @given(partial_steps("x"), partial_steps("y"), grid_densities())
    def test_refinement_oracle(self, f, g, rho):
        # the refined cells carry the grid's mass, cell by cell, and f and g
        # are constant on each cell inside their domains
        xe, ye, probs = refine(rho, f.breakpoints(), g.breakpoints())
        assert probs.shape == (len(xe) - 1, len(ye) - 1)
        assert (probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-12
        for edges, grid, rv, rect in ((xe, rho.x_edges(), f, rho.x_rect),
                                      (ye, rho.y_edges(), g, rho.y_rect)):
            inner = [p for p in rv.breakpoints() if rect.lo < p < rect.hi]
            assert np.array_equal(edges, np.unique([*grid, *inner]))
        want = refined_moments(f, g, rho)
        if want is not None:
            a, b = column_values(f, xe), column_values(g, ye)
            # NaN outcomes only on cells of no mass: outside the domain, or
            # one of the excluded points' slivers
            a0, b0 = np.nan_to_num(a), np.nan_to_num(b)
            assert (probs[np.isnan(a)] == 0).all() and (probs[:, np.isnan(b)] == 0).all()
            assert abs(a0 @ probs @ b0 - want[0]) <= 1e-12

    def test_cut_one_ulp_from_a_grid_line_gets_no_mass(self):
        # on a 196-cell grid, edge 49 rounds to 0.24999999999999997: no float
        # lies strictly between it and the threshold 0.25, so no point can
        # be drawn in that cell
        rho = GridDensity(*unit_rect(), np.ones((196, 1)))
        xe, _, probs = refine(rho, thresholds(0.0), [])
        sliver = np.flatnonzero(xe == 0.25)[0] - 1
        assert xe[sliver] == np.nextafter(0.25, 0.0) == rho.x_edges()[49]
        assert probs[sliver, 0] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-15) and (probs[:sliver] > 0).all()

    def test_cuts_outside_the_rectangle_are_ignored(self):
        rho = middle_band_density()
        xe, ye, probs = refine(rho, [-1.0, 0.0, 1.0, 2.0], [0.5])
        assert np.array_equal(xe, rho.x_edges())
        assert ye.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        width, height = rho.x_rect.length / rho.nx, rho.y_rect.length / rho.ny
        assert np.array_equal(probs, rho.weights * (width * height))


class TestLogTable:
    """simulate._log_table, built from PartialRV._overlap_cells, against the reference."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(families(ALIGNED_OR_NOT), sub_rectangle_families()))
    def test_bit_equal_to_the_reference(self, family):
        law = family._class_law
        try:
            want = reference_log_table(family, law)
        except ConfigInvalid as refused:
            with pytest.raises(ConfigInvalid) as got:
                simulate._log_table(family)
            assert str(got.value) == str(refused)
            return
        got = simulate._log_table(family)
        for name in ("lo", "hi", "kinds", "lines"):
            g, w = getattr(got, name), getattr(want, name)
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name
        assert [(p.dtype, p.tobytes()) for p in got.split] == [
            (p.dtype, p.tobytes()) for p in want.split]


class TestClassLaw:
    """The exact outcome-class law that the Monte-Carlo summary draws from."""

    @settings(max_examples=40, deadline=None)
    @given(families(ALIGNED_OR_NOT))
    def test_exact_and_refinement_oracles(self, family):
        summary, cells = family.summary(), per_pair_cells(family)
        for (alpha, beta), (a, b, classes), want in zip(
                PAIRS, family._class_law, cells, strict=True):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, want.a_values) and np.array_equal(b, want.b_values)
            assert abs(a @ classes @ b - summary[f"e{alpha}{beta}"]) <= ROUND_OFF
            assert abs(a @ classes.sum(axis=1)
                       - summary["marginals"][f"a{alpha}|{alpha}{beta}"]) <= ROUND_OFF
            assert abs(classes.sum(axis=0) @ b
                       - summary["marginals"][f"b{beta}|{alpha}{beta}"]) <= ROUND_OFF
            assert np.abs(classes - want.classes).max() <= ROUND_OFF


class TestSampling:
    """Draws from the densities' refined cells: the Monte-Carlo engine's class
    counts, the cells its event log splits them into, and the points it places
    in the cells."""

    def test_support(self):
        _, alpha, beta, x, y, _, _ = log_rows(family_of(np.ones((1, 1))), 1000, 1).T
        assert np.all((alpha < x) & (x < alpha + 1) & (beta < y) & (y < beta + 1))

    def test_concentrated_support(self):
        family = family_of(middle_band_density().weights)
        counts, cells = pair_cell_counts(family, 100_000, 1)
        assert counts.sum() > 0 and counts[cells.probs == 0].sum() == 0
        _, alpha, beta, x, y, a, b = log_rows(family, 1000, 1).T
        assert np.all((0.25 < x - alpha) & (x - alpha < 0.75))
        assert np.all((0.25 < y - beta) & (y - beta < 0.75))
        assert (a == 1).all() and (b == 1).all()

    def test_deterministic(self):
        family = family_of(np.arange(1.0, 16.0).reshape(3, 5))
        assert np.array_equal(log_rows(family, 5000, 42, 2), log_rows(family, 5000, 42, 2))
        assert np.array_equal(pair_counts(family, 5000, 42)[0], pair_counts(family, 5000, 42)[0])

    @settings(max_examples=40, deadline=None)
    @given(families(st.integers(1, 8)), st.integers(0, 2**32))
    def test_cells_hold_their_points(self, family, seed):
        # strictly inside a cell of positive probability: never on a grid
        # line or breakpoint
        _, alpha, beta, x, y, _, _ = log_rows(family, 2000, seed).T
        for (p_alpha, p_beta), cells in zip(PAIRS, per_pair_cells(family)):
            sel = (alpha == p_alpha) & (beta == p_beta)
            ix = np.searchsorted(cells.x_edges, x[sel]) - 1
            iy = np.searchsorted(cells.y_edges, y[sel]) - 1
            for points, cell, edges in ((x[sel], ix, cells.x_edges), (y[sel], iy, cells.y_edges)):
                assert ((edges[cell] < points) & (points < edges[cell + 1])).all()
            assert (cells.probs[ix, iy] > 0).all()

    def test_chi_square_fidelity(self):
        # a 3x5 grid whose cells the thresholds cut, refined to 5x7 cells
        rng = np.random.default_rng(9)
        counts, cells = pair_cell_counts(family_of(rng.random((3, 5)) + 0.1), 400_000, 9)
        assert cells.probs.shape == (5, 7)
        _, p = stats.chisquare(counts.reshape(-1), cells.probs.reshape(-1) * counts.sum())
        assert p > 0.001

    def test_chi_square_fidelity_32x32(self):
        rng = np.random.default_rng(21)
        w = rng.random((32, 32))
        w[rng.random((32, 32)) < 0.2] = 0.0
        counts, cells = pair_cell_counts(family_of(w), 4_000_000, 21)
        probs = cells.probs
        assert probs.shape == (32, 32)  # the thresholds lie on grid lines
        assert counts[probs == 0].sum() == 0
        _, p = stats.chisquare(counts[probs > 0], probs[probs > 0] * counts.sum())
        assert p > 0.001

    def test_class_chi_square_fidelity(self):
        # the summary's draw: a 3x5 grid's 5x7 refined cells, pooled into the
        # 2x2 outcome classes
        rng = np.random.default_rng(9)
        family = family_of(rng.random((3, 5)) + 0.1)
        for pair in range(len(PAIRS)):
            counts, cells = pair_counts(family, 400_000, 10 + pair, pair)
            assert counts.shape == cells.classes.shape == (2, 2)
            assert cells.classes.sum() == pytest.approx(1.0, abs=ROUND_OFF)
            want = [cells.probs[np.ix_(cells.a == a, cells.b == b)].sum()
                    for a in (-1, 1) for b in (-1, 1)]
            assert cells.classes.reshape(-1) == pytest.approx(want, abs=ROUND_OFF)
            _, p = stats.chisquare(counts.reshape(-1), cells.classes.reshape(-1) * counts.sum())
            assert p > 0.001

    @pytest.mark.parametrize("side", [4, 32, 512])
    def test_count_draw_does_not_grow_with_the_cells(self, side):
        # at most 2x2 counts per pair, whatever the pair's cell count
        family = optimize_family((0.5, -0.25, 1.0, 0.0), (side, side))[0]
        assert all(rho.weights.shape == (side, side) for rho in family.densities())
        law = family._class_law
        counts = simulate._counts(np.random.default_rng(side), law, np.full(4, 0.25), 10**7)
        assert counts.shape == (2 * 2 * len(PAIRS),)
        assert int(counts.sum()) == 10**7

    @settings(max_examples=40, deadline=None)
    @given(families(ALIGNED_OR_NOT), st.integers(0, 2**32))
    def test_exact_vs_monte_carlo_oracle(self, family, seed):
        # 1e9 trials a run: every correlator and marginal within 6 se of exact
        report = estimate(run_experiment(ExperimentConfig(family, 10**9, seed)))
        want = family.summary()
        for (alpha, beta), pair in zip(PAIRS, report.pairs):
            for got, exact in (
                (pair.correlator, want[f"e{alpha}{beta}"]),
                (pair.mean_a, want["marginals"][f"a{alpha}|{alpha}{beta}"]),
                (pair.mean_b, want["marginals"][f"b{beta}|{alpha}{beta}"]),
            ):
                se = np.sqrt(max(0.0, 1.0 - exact * exact) / pair.trials)
                assert abs(got - exact) <= 6 * se + 1e-12
