import copy
import io
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from bellhop import simulate
from bellhop.chsh import PAIRS, ChshFamily, optimize_family, saturating_family
from bellhop.density import ROUND_OFF, GridDensity, _edges, _integrate, expectation
from bellhop.errors import (
    BellhopError,
    DomainMismatch,
    EmptyRect,
    MalformedInput,
    NegativeWeight,
    NonFiniteInput,
    ZeroTotalMass,
)
from bellhop.intervals import Interval
from bellhop.observables import make_observable, setting_interval
from bellhop.simulate import ExperimentConfig, estimate, run_experiment
from bellhop.steprv import PartialRV, make_step
import exact
from support import (
    SMALL_ALIGNED_OR_NOT, check_log_table, families, family_of, middle_band_density,
    sub_rectangle_families, unit_rect, weights,
)


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
    return GridDensity(*unit_rect(), draw(weights(nx, ny)))


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


ALIGNED_OR_NOT = st.one_of(st.sampled_from([4, 8, 16, 32]), st.integers(1, 7))


def pair_counts(family, n, seed, pair=0):
    """One pair's outcome-class counts, as the Monte-Carlo engine draws them
    for n trials of family."""
    law = family._class_law
    counts = simulate._counts(np.random.default_rng(seed), law, np.full(4, 0.25), n)
    classes, start = law[pair][2], sum(c.size for _, _, c in law[:pair])
    return counts[start:start + classes.size].reshape(classes.shape)


def pair_cell_counts(family, n, seed, pair=0):
    """One pair's event-log cell counts in table row order, as the event log's class
    split draws them block by block for n trials of family."""
    law = family._class_law
    table = simulate._log_table(family)
    rng = np.random.default_rng(seed)
    left = simulate._counts(rng, law, np.full(4, 0.25), n)
    hits = np.zeros(len(table.lo), dtype=np.int64)
    for start in range(0, n, simulate._BLOCK):
        rows, _ = simulate.sample_many(table, rng, min(simulate._BLOCK, n - start), left)
        hits += np.bincount(rows, minlength=len(hits))
    return hits[pair_rows(family, table, pair)]


def pair_rows(family, table, pair=0):
    """Which rows of family's event-log table are one pair's."""
    law = family._class_law
    first = sum(c.size for _, _, c in law[:pair])  # the kinds hold the pairs in PAIRS order
    return (table.kinds >= first) & (table.kinds < first + law[pair][2].size)


def exact_cell_probs(family, pair=0):
    """Each of one pair's event-log cells' probability given the pair, in table row order:
    its class's exact probability times its share of the class's mass."""
    (alpha, beta), rho = PAIRS[pair], family.densities()[pair]
    cells = exact.cells(*family.observables(alpha, beta), rho)
    probs = []
    for p, class_cells in zip(exact.class_law(cells).values(), cells.values()):
        mass = sum(c.log_mass for c in class_cells)
        probs += [float(p.value * c.log_mass / mass) if mass else 0.0 for c in class_cells]
    return np.array(probs)


def log_rows(family, n, seed, workers=1):
    """The event log of an n-trial run as a float array, one row per trial."""
    sink = io.StringIO()
    run_experiment(ExperimentConfig(family, n, seed, n_workers=workers), event_log=sink)
    return np.loadtxt(sink.getvalue().splitlines()[1:], delimiter=",", ndmin=2)


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

    @pytest.mark.parametrize("how", ["new", "pickle"])
    def test_edges_kept_read_only(self, how):
        # the constructor's edges, one object per axis, bit-equal to _edges and read-only
        rho = GridDensity(Interval(0.1, 0.7), Interval(-3.0, 5.0), np.ones((7, 3)))
        if how == "pickle":
            rho = pickle.loads(pickle.dumps(rho))
        for edges, rect, n in ((rho.x_edges, rho.x_rect, 7), (rho.y_edges, rho.y_rect, 3)):
            assert edges() is edges()
            assert edges().tobytes() == _edges(rect, n).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                edges()[0] = 99.0

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
        try:
            rho = GridDensity(x_rect, y_rect, data.draw(weights(nx, ny)))
        except MalformedInput:
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
    def test_exact_oracle(self, f, g, rho):
        want = exact.moments(f, g, rho)
        if want is None:
            with pytest.raises(DomainMismatch):
                expectation(f, g, rho)
            with pytest.raises(DomainMismatch):
                _integrate(f, g, rho)
            return
        n = exact.terms(rho, f, g)
        assert exact.within(expectation(f, g, rho), want[0], n)
        assert all(map(exact.within, _integrate(f, g, rho), want, [n] * 3))


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


def with_rho00(rho00):
    """The family of rho00 for pair 00 and a uniform density on each other pair's square."""
    return ChshFamily(rho00, *[
        GridDensity(setting_interval(a), setting_interval(b), [[1.0]]) for a, b in PAIRS[1:]
    ])


class TestRefine:
    """The event log refines each grid cell at the observables' breakpoints inside it."""

    def test_cut_one_ulp_from_a_grid_line_gets_no_mass(self):
        # on a 196-cell grid, edges 49 and 147 round to one ulp below the thresholds 0.25
        # and 0.75: no float lies strictly between either and its threshold, so no point
        # can be drawn in those cells, though the exact law gives them mass
        family = with_rho00(GridDensity(*unit_rect(), np.ones((196, 1))))
        slivers = [np.nextafter(0.25, 0.0), np.nextafter(0.75, 0.0)]
        assert family.rho00.x_edges()[[49, 147]].tolist() == slivers
        cells = exact.cells(*family.observables(0, 0), family.rho00)
        thin = [c for cs in cells.values() for c in cs if c.lo[0] in slivers]
        assert len(thin) == 6 and all(c.mass > 0 and c.log_mass == 0 for c in thin)
        table = simulate._log_table(family)
        rows = pair_rows(family, table)
        lo, hi, probs = table.lo[rows], table.hi[rows], np.concatenate(table.split)[rows]
        on_sliver = np.nextafter(lo[:, 0], np.inf) == hi[:, 0]
        assert sorted(set(lo[on_sliver, 0])) == slivers
        assert (probs[on_sliver] == 0.0).all() and (probs[~on_sliver] > 0).all()
        check_log_table(family)

    def test_cuts_outside_the_rectangle_are_ignored(self):
        # a0's breakpoints 0.25 and 0.75 are rho00's x ends and its domain's ends 0 and 1
        # lie past them: the x corners are the grid's; b0's 0.25 and 0.75 cut the y cells
        rho00 = GridDensity(Interval(0.25, 0.75), setting_interval(0),
                            np.arange(1.0, 7.0).reshape(2, 3))
        family = with_rho00(rho00)
        table = simulate._log_table(family)
        rows = pair_rows(family, table)
        lo, hi, probs = table.lo[rows], table.hi[rows], np.concatenate(table.split)[rows]
        assert sorted(set(lo[:, 0])) == [0.25, 0.5] and sorted(set(hi[:, 0])) == [0.5, 0.75]
        assert sorted(set(lo[:, 1]) | set(hi[:, 1])) == sorted(
            {*rho00.y_edges().tolist(), 0.25, 0.75})
        assert len(probs) == 2 * 5 and (probs > 0).all()
        assert family._class_law[0][0].tolist() == [1]
        check_log_table(family)


class TestLogTable:
    """simulate._log_table, built from PartialRV._overlap_cells, against the reference: the
    exact event-log cells of tests/exact.py."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(families(SMALL_ALIGNED_OR_NOT), sub_rectangle_families()))
    def test_bit_equal_to_the_reference(self, family):
        check_log_table(family)


class TestClassLaw:
    """The exact outcome-class law that the Monte-Carlo summary draws from."""

    @settings(max_examples=40, deadline=None)
    @given(families(SMALL_ALIGNED_OR_NOT))
    @example(None)  # the 32x32 family below, built when the test runs, not at import
    def test_exact_and_refinement_oracles(self, family):
        # each class's probability within the rule of the exact law, which sums the
        # class's event-log cells; and the law's moments those of the summary
        family = family or optimize_family((0.7, 0.7, 0.7, -0.7), (32, 32))[0]
        summary = family.summary()
        for (alpha, beta), rho, (a, b, classes) in zip(
                PAIRS, family.densities(), family._class_law, strict=True):
            f, g = family.observables(alpha, beta)
            n = exact.terms(rho, f, g)
            law = exact.class_law(exact.cells(f, g, rho))
            assert a.dtype == b.dtype == np.int64
            assert [(u, v) for u in a.tolist() for v in b.tolist()] == list(law)
            assert all(map(exact.within, classes.reshape(-1).tolist(), law.values(),
                           [n] * len(law)))
            assert abs(a @ classes @ b - summary[f"e{alpha}{beta}"]) <= ROUND_OFF
            assert abs(a @ classes.sum(axis=1)
                       - summary["marginals"][f"a{alpha}|{alpha}{beta}"]) <= ROUND_OFF
            assert abs(classes.sum(axis=0) @ b
                       - summary["marginals"][f"b{beta}|{alpha}{beta}"]) <= ROUND_OFF


class TestSampling:
    """Draws from the densities' event-log cells: the Monte-Carlo engine's class
    counts, the cells its event log splits them into, and the points it places
    in the cells, against the exact law and cells (tests/exact.py)."""

    def test_support(self):
        _, alpha, beta, x, y, _, _ = log_rows(family_of(np.ones((1, 1))), 1000, 1).T
        assert np.all((alpha < x) & (x < alpha + 1) & (beta < y) & (y < beta + 1))

    def test_concentrated_support(self):
        family = family_of(middle_band_density().weights)
        counts = pair_cell_counts(family, 100_000, 1)
        assert counts.sum() > 0 and counts[exact_cell_probs(family) == 0].sum() == 0
        _, alpha, beta, x, y, a, b = log_rows(family, 1000, 1).T
        assert np.all((0.25 < x - alpha) & (x - alpha < 0.75))
        assert np.all((0.25 < y - beta) & (y - beta < 0.75))
        assert (a == 1).all() and (b == 1).all()

    def test_deterministic(self):
        family = family_of(np.arange(1.0, 16.0).reshape(3, 5))
        assert np.array_equal(log_rows(family, 5000, 42, 2), log_rows(family, 5000, 42, 2))
        assert np.array_equal(pair_counts(family, 5000, 42), pair_counts(family, 5000, 42))

    @settings(max_examples=40, deadline=None)
    @given(families(st.integers(1, 8)), st.integers(0, 2**32))
    def test_cells_hold_their_points(self, family, seed):
        # strictly inside a cell of positive probability: never on a grid
        # line or breakpoint
        _, alpha, beta, x, y, _, _ = log_rows(family, 2000, seed).T
        for (p_alpha, p_beta), rho in zip(PAIRS, family.densities()):
            cells = exact.cells(*family.observables(p_alpha, p_beta), rho).values()
            lo, hi = (np.array([getattr(c, end) for cs in cells for c in cs if c.log_mass])
                      for end in ("lo", "hi"))
            sel = (alpha == p_alpha) & (beta == p_beta)
            points = np.stack([x[sel], y[sel]], axis=-1)[:, None]
            assert ((lo < points) & (points < hi)).all(axis=2).any(axis=1).all()

    def test_chi_square_fidelity(self):
        # a 3x5 grid whose cells the thresholds cut, refined to 5x7 cells
        family = family_of(np.random.default_rng(9).random((3, 5)) + 0.1)
        counts, probs = pair_cell_counts(family, 400_000, 9), exact_cell_probs(family)
        assert probs.shape == (5 * 7,)
        _, p = stats.chisquare(counts, probs * counts.sum())
        assert p > 0.001

    def test_chi_square_fidelity_32x32(self):
        rng = np.random.default_rng(21)
        w = rng.random((32, 32))
        w[rng.random((32, 32)) < 0.2] = 0.0
        family = family_of(w)
        counts, probs = pair_cell_counts(family, 4_000_000, 21), exact_cell_probs(family)
        assert probs.shape == (32 * 32,)  # the thresholds lie on grid lines
        assert counts[probs == 0].sum() == 0
        _, p = stats.chisquare(counts[probs > 0], probs[probs > 0] * counts.sum())
        assert p > 0.001

    def test_class_chi_square_fidelity(self):
        # the summary's draw: a 3x5 grid's cells, cut to 5x7, pooled into the
        # 2x2 outcome classes
        rng = np.random.default_rng(9)
        family = family_of(rng.random((3, 5)) + 0.1)
        for pair, (alpha, beta) in enumerate(PAIRS):
            counts = pair_counts(family, 400_000, 10 + pair, pair)
            law = exact.class_law(exact.cells(*family.observables(alpha, beta),
                                              family.densities()[pair]))
            want = np.array([float(p.value) for p in law.values()])
            assert counts.shape == (2, 2) and len(want) == 4
            _, p = stats.chisquare(counts.reshape(-1), want * counts.sum())
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
