import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from bellhop import density
from bellhop.chsh import PAIRS, ChshFamily, saturating_family
from bellhop.density import (
    ROUND_OFF,
    GridDensity,
    _alias_table,
    expectation,
    make_grid_density,
    marginal_means,
    sample_many,
    uniform_density,
)
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
from bellhop.observables import make_observable
from bellhop.steprv import PartialRV, make_step


def unit_rect():
    return Interval(0.0, 1.0), Interval(0.0, 1.0)


def middle_band_density():
    # all mass uniform on (0.25, 0.75)^2, on a quarter-aligned 4x4 grid
    w = np.zeros((4, 4))
    w[1:3, 1:3] = 1.0
    return make_grid_density(*unit_rect(), w)


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
    return make_grid_density(*unit_rect(), np.reshape(weights, (nx, ny)))


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
    w = np.reshape(record["weights"], (nx, ny))
    assert np.allclose(rho.weights / rho.weights.max(), w / w.max(), rtol=1e-12, atol=1e-12)
    assert abs(rho.cell_probabilities().sum() - 1.0) <= 1e-9


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


def implied_probabilities(keep, alias):
    """Cell probabilities an alias table draws with."""
    k = len(keep)
    return (keep + np.bincount(alias, weights=1.0 - keep, minlength=k)) / k


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
        rho = make_grid_density(*unit_rect(), np.ones((1, 1)))
        assert rho.weights[0, 0] == 1.0

    def test_uniform_offset_rect(self):
        rho = make_grid_density(Interval(1, 2), Interval(0, 1), np.ones((2, 2)))
        assert np.all(rho.weights == 1.0)

    def test_zero_mass(self):
        with pytest.raises(ZeroTotalMass):
            make_grid_density(*unit_rect(), np.zeros((2, 2)))

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_grid_density(*unit_rect(), np.array([[1.0, -1.0]]))

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

    @pytest.mark.filterwarnings("error")
    def test_total_mass_overflow(self):
        with pytest.raises(NonFiniteInput):
            make_grid_density(*unit_rect(), np.full((2, 2), 1e308))

    @pytest.mark.filterwarnings("error")
    def test_rescaled_weight_overflow(self):
        tiny = Interval(0.0, 1e-160)
        with pytest.raises(NonFiniteInput):
            make_grid_density(tiny, tiny, np.ones((1, 1)))

    def test_empty_rect(self):
        with pytest.raises(EmptyRect):
            uniform_density(Interval(0, 0), Interval(0, 1))

    def test_normalization_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = make_grid_density(*unit_rect(), rng.random((3, 5)))
            assert abs(rho.cell_probabilities().sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("key, value", [("nx", 0), ("ny", 0), ("nx", -1), ("nx", True)])
    def test_grid_size_below_one(self, key, value):
        d = middle_band_density().to_dict()
        d["nx"], d["ny"], d["weights"] = 2, 2, [1.0] * 4
        d[key] = value
        with pytest.raises(MalformedInput):
            GridDensity.from_dict(d)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (4,), (1, 1, 1)])
    def test_weights_without_cells(self, shape):
        with pytest.raises(MalformedInput):
            make_grid_density(*unit_rect(), np.ones(shape))

    def test_json_round_trip(self):
        rho = middle_band_density()
        again = GridDensity.from_dict(rho.to_dict())
        assert np.array_equal(again.weights, rho.weights)
        assert again.x_rect == rho.x_rect


@pytest.mark.filterwarnings("error")
class TestRecordFuzz:
    """Parsing any JSON-shaped record gives a valid density or family, or a
    BellhopError: never another exception or a silently reshaped grid."""

    @settings(max_examples=300)
    @given(density_records())
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
        assert expectation(f, g, uniform_density(*unit_rect())) == 0.0

    def test_offset_pair(self):
        f = make_observable(1.0, "x")
        g = make_observable(0.0, "y")
        rho = uniform_density(Interval(1, 2), Interval(0, 1))
        assert expectation(f, g, rho) == 0.0

    def test_middle_band_support(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        assert expectation(f, g, middle_band_density()) == 1.0

    def test_domain_mismatch(self):
        f = make_observable(1.0, "x")
        g = make_observable(0.0, "y")
        with pytest.raises(DomainMismatch):
            expectation(f, g, uniform_density(*unit_rect()))

    def test_monte_carlo_oracle(self):
        # 1e6-point Monte-Carlo quadrature agrees with the exact sum within 4 se
        rng = np.random.default_rng(11)
        rho = make_grid_density(*unit_rect(), rng.random((4, 4)))
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        exact = expectation(f, g, rho)
        n = 1_000_000
        xs, ys = sample_many(rho, rng, n)
        prods = f.eval_many(xs)[0] * g.eval_many(ys)[0]
        se = prods.std() / np.sqrt(n)
        assert abs(prods.mean() - exact) < 4 * se

    def test_linear_in_weights(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        rng = np.random.default_rng(2)
        w1, w2 = rng.random((4, 4)), rng.random((4, 4))
        e1 = expectation(f, g, make_grid_density(*unit_rect(), w1))
        e2 = expectation(f, g, make_grid_density(*unit_rect(), w2))
        s1, s2 = w1.sum(), w2.sum()
        mix = expectation(f, g, make_grid_density(*unit_rect(), w1 + w2))
        assert mix == pytest.approx((s1 * e1 + s2 * e2) / (s1 + s2), abs=1e-12)


    @given(partial_steps("x"), partial_steps("y"), grid_densities())
    def test_refinement_oracle(self, f, g, rho):
        want = refined_moments(f, g, rho)
        if want is None:
            with pytest.raises(DomainMismatch):
                expectation(f, g, rho)
            with pytest.raises(DomainMismatch):
                marginal_means(f, g, rho)
            return
        e_fg, e_f, e_g = want
        assert abs(expectation(f, g, rho) - e_fg) <= 1e-12
        got_f, got_g = marginal_means(f, g, rho)
        assert abs(got_f - e_f) <= 1e-12
        assert abs(got_g - e_g) <= 1e-12


class TestMarginals:
    def test_uniform(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        assert marginal_means(f, g, uniform_density(*unit_rect())) == (0.0, 0.0)

    def test_middle_band(self):
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        assert marginal_means(f, g, middle_band_density()) == (1.0, 1.0)

    def test_product_density_factorizes(self):
        # rank-1 weights => E[fg] = E[f] E[g]
        rng = np.random.default_rng(3)
        w = np.outer(rng.random(4), rng.random(4))
        rho = make_grid_density(*unit_rect(), w)
        f = make_observable(0.0, "x")
        g = make_observable(0.0, "y")
        mf, mg = marginal_means(f, g, rho)
        assert expectation(f, g, rho) == pytest.approx(mf * mg, abs=1e-12)


class TestSampling:
    def test_support(self):
        rng = np.random.default_rng(1)
        xs, ys = sample_many(uniform_density(*unit_rect()), rng, 1000)
        assert np.all((xs > 0) & (xs < 1) & (ys > 0) & (ys < 1))

    def test_concentrated_support(self):
        rng = np.random.default_rng(1)
        xs, ys = sample_many(middle_band_density(), rng, 1000)
        assert np.all((xs > 0.25) & (xs < 0.75) & (ys > 0.25) & (ys < 0.75))

    def test_deterministic(self):
        rho = uniform_density(*unit_rect())
        p1 = [a.tolist() for a in sample_many(rho, np.random.default_rng(42), 1)]
        p2 = [a.tolist() for a in sample_many(rho, np.random.default_rng(42), 1)]
        assert p1 == p2

    def test_chi_square_fidelity(self):
        rng = np.random.default_rng(9)
        rho = make_grid_density(*unit_rect(), rng.random((4, 4)) + 0.1)
        n = 100_000
        xs, ys = sample_many(rho, rng, n)
        ix = np.clip((xs * 4).astype(int), 0, 3)
        iy = np.clip((ys * 4).astype(int), 0, 3)
        observed = np.bincount(ix * 4 + iy, minlength=16)
        expected = rho.cell_probabilities().reshape(-1) * n
        _, p = stats.chisquare(observed, expected)
        assert p > 0.001

    def test_chi_square_fidelity_32x32(self):
        rng = np.random.default_rng(21)
        w = rng.random((32, 32))
        w[rng.random((32, 32)) < 0.2] = 0.0
        rho = make_grid_density(*unit_rect(), w)
        n = 1_000_000
        xs, ys = sample_many(rho, rng, n)
        cells = np.clip((xs * 32).astype(int), 0, 31) * 32 + np.clip((ys * 32).astype(int), 0, 31)
        observed = np.bincount(cells, minlength=32 * 32)
        probs = rho.cell_probabilities().reshape(-1)
        assert observed[probs == 0].sum() == 0
        _, p = stats.chisquare(observed[probs > 0], probs[probs > 0] * n)
        assert p > 0.001


class TestAliasTable:
    @given(grid_densities(max_side=8))
    def test_implied_probabilities_oracle(self, rho):
        probs = rho.cell_probabilities().reshape(-1)
        keep, alias = _alias_table(probs)
        assert np.all(np.abs(implied_probabilities(keep, alias) - probs) <= 1e-15)
        assert np.all((keep >= 0) & (keep <= 1))
        zero = probs == 0
        assert np.all(keep[zero] == 0)
        assert not np.isin(alias[keep < 1], np.flatnonzero(zero)).any()

    def test_zero_weight_cells_never_drawn(self):
        w = np.zeros((8, 8))
        w[::3, 1::2] = np.arange(1, 13).reshape(3, 4)
        rho = make_grid_density(*unit_rect(), w)
        xs, ys = sample_many(rho, np.random.default_rng(4), 200_000)
        drawn = np.zeros((8, 8), dtype=bool)
        drawn[(xs * 8).astype(int), (ys * 8).astype(int)] = True
        assert np.array_equal(drawn, w > 0)

    def test_built_once_on_first_draw(self, monkeypatch):
        builds = []
        monkeypatch.setattr(
            density, "_alias_table", lambda probs: builds.append(1) or _alias_table(probs)
        )
        rho = make_grid_density(*unit_rect(), np.arange(1.0, 17.0).reshape(4, 4))
        assert not builds
        rng = np.random.default_rng(0)
        sample_many(rho, rng, 10)
        table = rho._alias
        sample_many(rho, rng, 10)
        assert rho._alias is table
        assert len(builds) == 1

    def test_concurrent_first_draw(self):
        # Without a lock (Python 3.12+) racing threads may each build the
        # table; every build must be the same, so every draw is the same.
        w = np.arange(1.0, 1025.0).reshape(32, 32)
        want = [a.tolist() for a in sample_many(
            make_grid_density(*unit_rect(), w), np.random.default_rng(8), 1000)]
        rho = make_grid_density(*unit_rect(), w)
        n_threads = 4
        start, got = threading.Barrier(n_threads, timeout=10), [None] * n_threads

        def draw(slot):
            start.wait()
            got[slot] = [a.tolist() for a in sample_many(rho, np.random.default_rng(8), 1000)]

        threads = [threading.Thread(target=draw, args=(slot,)) for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * n_threads
        keep, alias = rho._alias
        want_keep, want_alias = _alias_table(rho.cell_probabilities().reshape(-1))
        assert np.array_equal(keep, want_keep) and np.array_equal(alias, want_alias)
