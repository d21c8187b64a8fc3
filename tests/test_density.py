import numpy as np
import pytest
from scipy import stats

from bellhop.density import (
    GridDensity,
    expectation,
    make_grid_density,
    marginal_means,
    sample_many,
    uniform_density,
)
from bellhop.errors import (
    DomainMismatch,
    EmptyRect,
    NegativeWeight,
    NonFiniteInput,
    ZeroTotalMass,
)
from bellhop.intervals import Interval
from bellhop.observables import make_observable


def unit_rect():
    return Interval(0.0, 1.0), Interval(0.0, 1.0)


def middle_band_density():
    # all mass uniform on (0.25, 0.75)^2, on a quarter-aligned 4x4 grid
    w = np.zeros((4, 4))
    w[1:3, 1:3] = 1.0
    return make_grid_density(*unit_rect(), w)


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
            ("x_rect", 1, float("inf"), NonFiniteInput),
            ("y_rect", 0, float("nan"), NonFiniteInput),
        ],
    )
    def test_non_finite_from_dict(self, key, index, value, error):
        d = middle_band_density().to_dict()
        d[key][index] = value
        with pytest.raises(error):
            GridDensity.from_dict(d)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_total_mass_overflow(self):
        with pytest.raises(NonFiniteInput):
            make_grid_density(*unit_rect(), np.full((2, 2), 1e308))

    def test_empty_rect(self):
        with pytest.raises(EmptyRect):
            uniform_density(Interval(0, 0), Interval(0, 1))

    def test_normalization_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = make_grid_density(*unit_rect(), rng.random((3, 5)))
            assert abs(rho.cell_probabilities().sum() - 1.0) < 1e-12

    def test_json_round_trip(self):
        rho = middle_band_density()
        again = GridDensity.from_dict(rho.to_dict())
        assert np.array_equal(again.weights, rho.weights)
        assert again.x_rect == rho.x_rect


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
