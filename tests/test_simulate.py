import io
import tracemalloc

import numpy as np
import pytest

from bellhop import simulate
from bellhop.chsh import PAIRS, ChshFamily, optimize_family, saturating_family
from bellhop.density import make_grid_density, uniform_density
from bellhop.errors import ConfigInvalid, InsufficientTrials
from bellhop.intervals import Interval
from bellhop.observables import make_observable, setting_interval
from bellhop.simulate import (
    ExperimentConfig,
    ExperimentSummary,
    PairCounts,
    estimate,
    run_experiment,
)


def uniform_family():
    return ChshFamily(*[
        uniform_density(Interval(float(a), a + 1.0), Interval(float(b), b + 1.0))
        for a, b in PAIRS
    ])


def unaligned_family():
    """3x5 grids: the thresholds cut columns, whose outcomes need eval_many."""
    rng = np.random.default_rng(35)
    return ChshFamily(*[
        make_grid_density(setting_interval(a), setting_interval(b), rng.random((3, 5)) + 0.1)
        for a, b in PAIRS
    ])


def reference_blocks(config, seed, size):
    """The per-point engine that outcome tables replaced: settings by
    rng.choice, each outcome by eval_many, every block scattered into trial
    order.  Yields (sums, settings, x, y, a, b) per block."""
    rng = np.random.default_rng(seed)
    pairs = [
        (config.family.observables(alpha, beta), rho)
        for (alpha, beta), rho in zip(PAIRS, config.family.densities())
    ]
    for start in range(0, size, simulate._BLOCK):
        n = min(simulate._BLOCK, size - start)
        settings = rng.choice(4, size=n, p=config.setting_probabilities)
        xs, ys, avals, bvals = (np.empty(n) for _ in range(4))
        sums = np.empty((len(PAIRS), 4), dtype=np.int64)
        for pair_index, ((f, g), rho) in enumerate(pairs):
            idx = np.flatnonzero(settings == pair_index)
            x, y = simulate.sample_many(rho, rng, len(idx))[:2]
            a, da = f.eval_many(x)
            b, db = g.eval_many(y)
            bad = np.flatnonzero(~(da & db))
            while len(bad):
                rx, ry = simulate.sample_many(rho, rng, len(bad))[:2]
                x[bad], y[bad] = rx, ry
                a2, da2 = f.eval_many(rx)
                b2, db2 = g.eval_many(ry)
                a[bad], b[bad] = a2, b2
                bad = bad[~(da2 & db2)]
            sums[pair_index] = len(idx), (a * b).sum(), a.sum(), b.sum()
            xs[idx], ys[idx] = x, y
            avals[idx], bvals[idx] = a, b
        yield sums, settings, xs, ys, avals, bvals


def reference_run(config):
    """(summary, event log text) of config by reference_blocks."""
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_workers)
    rows, totals = ["trial,alpha,beta,x,y,a,b\n"], 0
    for seed, size in zip(seeds, simulate._chunk_sizes(config.n_trials, config.n_workers)):
        for sums, settings, *columns in reference_blocks(config, seed, size):
            totals = totals + sums
            for s, x, y, a, b in zip(settings.tolist(), *(c.tolist() for c in columns)):
                rows.append("%d,%d,%d,%.17g,%.17g,%+d,%+d\n" % (len(rows) - 1, *PAIRS[s], x, y, a, b))
    counts = tuple(PairCounts(*row) for row in totals.tolist())
    return ExperimentSummary(config.n_trials, counts), "".join(rows)


def snapping(sample):
    """sample_many with about a third of the x draws moved onto their
    column's lower edge and a third of the y draws onto their row's upper
    edge: breakpoints, domain ends and plain grid lines."""
    def draw(rho, rng, n):
        xs, ys, ix, iy = sample(rho, rng, n)
        snap_x, snap_y = (ys * 1024) % 1 < 0.3, (xs * 1024) % 1 < 0.3
        xs = np.where(snap_x, rho.x_edges()[ix], xs)
        ys = np.where(snap_y, rho.y_edges()[iy + 1], ys)
        return xs, ys, ix, iy
    return draw


class TestConfig:
    def test_zero_trials(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(family=uniform_family(), n_trials=0, master_seed=1)

    def test_bad_probabilities(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(
                family=uniform_family(), n_trials=10, master_seed=1,
                setting_probabilities=(0.5, 0.5, 0.5, 0.5),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability(self, bad):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(
                family=uniform_family(), n_trials=10, master_seed=1,
                setting_probabilities=(bad, 0.25, 0.25, 0.5),
            )

    @pytest.mark.parametrize("seed", [-5, 1.5, True])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(family=uniform_family(), n_trials=10, master_seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("n_trials", 2.5), ("n_trials", True), ("n_trials", 10.0), ("n_trials", -1),
        ("n_workers", 1.5), ("n_workers", True), ("n_workers", 0),
    ])
    def test_bad_count(self, field, value):
        counts = {"n_trials": 10, "n_workers": 1, field: value}
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(family=uniform_family(), master_seed=1, **counts)

    @pytest.mark.parametrize("p", [
        None, "abcd", (True, False, False, False), (0.25, 0.25, 0.5), [0.25] * 5,
        (0.25, 0.25, 0.25, "0.25"), (0.25, 0.25, 0.25, 0.25j), {0.25, 0.5, 0.125, 0.0625},
    ], ids=["none", "str", "bools", "three", "five", "text", "complex", "set"])
    def test_probabilities_not_four_reals(self, p):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(family=uniform_family(), n_trials=10, master_seed=1,
                             setting_probabilities=p)

    def test_probabilities_of_any_real_type_accepted(self):
        p = [np.float64(0.5), 0, np.float32(0.25), 0.25]
        config = ExperimentConfig(family=uniform_family(), n_trials=100, master_seed=1,
                                  setting_probabilities=p)
        assert run_experiment(config).counts[1].trials == 0

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig(family=uniform_family(), n_trials=np.int64(10),
                                  master_seed=np.uint64(1), n_workers=np.int32(1))
        assert run_experiment(config).n_trials == 10


class TestRunExperiment:
    def test_saturating_family_is_exact(self):
        config = ExperimentConfig(
            family=saturating_family(), n_trials=100_000, master_seed=7
        )
        report = estimate(run_experiment(config))
        # density support only covers sign-definite regions: S is exactly 4
        assert report.s_value == 4.0
        assert report.s_se == 0.0

    def test_uniform_family_near_zero(self):
        config = ExperimentConfig(family=uniform_family(), n_trials=100_000,
                                  master_seed=3)
        report = estimate(run_experiment(config))
        for pair in report.pairs:
            assert abs(pair.correlator) < 4 * pair.correlator_se

    def test_no_detection_loophole(self):
        config = ExperimentConfig(family=uniform_family(), n_trials=10_001,
                                  master_seed=5, n_workers=3)
        summary = run_experiment(config)
        assert sum(c.trials for c in summary.counts) == 10_001
        for c in summary.counts:
            assert abs(c.sum_ab) <= c.trials

    def test_bit_identical_reruns(self):
        for workers in (1, 4):
            config = ExperimentConfig(family=uniform_family(), n_trials=5000,
                                      master_seed=11, n_workers=workers)
            assert run_experiment(config) == run_experiment(config)

    def test_worker_count_changes_partition_deterministically(self):
        c1 = ExperimentConfig(family=uniform_family(), n_trials=5000,
                              master_seed=11, n_workers=1)
        c2 = ExperimentConfig(family=uniform_family(), n_trials=5000,
                              master_seed=11, n_workers=2)
        assert run_experiment(c2) == run_experiment(c2)
        assert run_experiment(c1) == run_experiment(c1)

    def test_event_log_format(self):
        config = ExperimentConfig(family=uniform_family(), n_trials=50,
                                  master_seed=2)
        sink = io.StringIO()
        run_experiment(config, event_log=sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "trial,alpha,beta,x,y,a,b"
        assert len(lines) == 51
        for k, line in enumerate(lines[1:]):
            trial, alpha, beta, x, y, a, b = line.split(",")
            assert int(trial) == k
            assert a in ("+1", "-1") and b in ("+1", "-1")
            assert float(alpha) < float(x) < float(alpha) + 1

    def test_substreams_independent_across_seeds(self):
        # worker 1 of seed 0 must not replay worker 0 of seed 1
        def rows(seed):
            sink = io.StringIO()
            run_experiment(ExperimentConfig(family=uniform_family(), n_trials=2000,
                                            master_seed=seed, n_workers=2), sink)
            return [line.split(",", 1)[1] for line in sink.getvalue().splitlines()[1:]]

        assert rows(0)[1000:] != rows(1)[:1000]

    def test_memory_bounded_by_block(self):
        config = ExperimentConfig(family=saturating_family(), n_trials=1_000_000,
                                  master_seed=4)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_logged_and_unlogged_summaries_agree(self, workers):
        config = ExperimentConfig(family=uniform_family(), n_trials=2 * simulate._BLOCK + 3,
                                  master_seed=8, n_workers=workers)
        assert run_experiment(config, event_log=io.StringIO()) == run_experiment(config)

    def test_event_log_matches_summary_and_draws(self):
        config = ExperimentConfig(family=uniform_family(), n_trials=simulate._BLOCK + 9,
                                  master_seed=6)
        sink = io.StringIO()
        summary = run_experiment(config, event_log=sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        sums = {pair: [0, 0, 0, 0] for pair in PAIRS}
        for _, alpha, beta, _, _, a, b in rows:
            acc = sums[int(alpha), int(beta)]
            for k, v in enumerate((1, int(a) * int(b), int(a), int(b))):
                acc[k] += v
        assert [PairCounts(*sums[pair]) for pair in PAIRS] == list(summary.counts)

        seed = np.random.SeedSequence(config.master_seed).spawn(1)[0]
        xs, ys = [], []
        for _, settings, draws in simulate._blocks(config, seed, config.n_trials):
            # trial positions grouped by pair, each pair's in trial (= draw) order
            order = np.argsort(settings, kind="stable")
            for out, column in ((xs, 0), (ys, 1)):
                block = np.empty(len(settings))
                block[order] = np.concatenate([draw[column] for draw in draws])
                out += block.tolist()
        assert [float(row[3]) for row in rows] == xs
        assert [float(row[4]) for row in rows] == ys

    def test_locality(self):
        # Alice's outcome depends on (alpha, x) only: changing Bob's setting
        # cannot change it for the same x
        a0 = make_observable(0.0, "x")
        for x in (0.1, 0.5, 0.9):
            assert a0.eval(x) == a0.eval(x)

    def test_error_scaling(self):
        # |ê - exact| shrinks like 1/sqrt(n): log-log slope within -0.5 ± 0.2
        family = uniform_family()
        sizes = (2000, 20_000, 200_000)
        mean_errs = []
        for n in sizes:
            errs = []
            for seed in range(25):
                config = ExperimentConfig(family=family, n_trials=n,
                                          master_seed=1000 + seed)
                report = estimate(run_experiment(config))
                errs.append(abs(report.pairs[0].correlator))
            mean_errs.append(np.mean(errs))
        slope = np.polyfit(np.log(sizes), np.log(mean_errs), 1)[0]
        assert -0.7 < slope < -0.3


class TestOutcomeTables:
    FAMILIES = {
        "saturating": saturating_family,
        "grid8": lambda: optimize_family((0.7, 0.7, 0.7, -0.7), (8, 8))[0],
        "unaligned3x5": unaligned_family,
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("p", [(0.1, 0.2, 0.3, 0.4), (0.5, 0.5, 0.0, 0.0)])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_per_point_engine(self, monkeypatch, family, p, workers):
        monkeypatch.setattr(simulate, "_BLOCK", 1000)  # several blocks and a partial one
        config = ExperimentConfig(family=self.FAMILIES[family](), n_trials=4321,
                                  master_seed=12, setting_probabilities=p, n_workers=workers)
        want_summary, want_log = reference_run(config)
        assert run_experiment(config) == want_summary
        sink = io.StringIO()
        assert run_experiment(config, event_log=sink) == want_summary
        assert sink.getvalue() == want_log

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_points_on_edges_match_per_point_engine(self, monkeypatch, family):
        # edge points take the eval_many path; breakpoints among them are redrawn
        monkeypatch.setattr(simulate, "sample_many", snapping(simulate.sample_many))
        config = ExperimentConfig(family=self.FAMILIES[family](), n_trials=3000,
                                  master_seed=13, n_workers=2)
        want_summary, want_log = reference_run(config)
        sink = io.StringIO()
        assert run_experiment(config, event_log=sink) == want_summary
        assert sink.getvalue() == want_log
        assert run_experiment(config) == want_summary

    def test_point_on_breakpoint_edge_is_undefined(self):
        rv, edges = make_observable(0.0), np.arange(5) / 4
        table = rv.column_values(edges)
        xs = np.array([0.25, 0.25, 0.75, 0.0, 1.0, 0.5, 0.5, 0.6, 0.1])
        cols = np.array([0, 1, 2, 0, 3, 1, 2, 2, 0])
        got = simulate._outcomes(rv, table, edges, xs, cols)
        assert np.isnan(got[:5]).all()
        assert got[5:].tolist() == [1.0, 1.0, 1.0, -1.0]


class TestEstimate:
    def _summary(self, counts):
        return ExperimentSummary(sum(c.trials for c in counts), tuple(counts))

    def test_degenerate_variance(self):
        counts = [PairCounts(4, 4, 0, 0)] * 4
        report = estimate(self._summary(counts))
        assert report.pairs[0].correlator == 1.0
        assert report.pairs[0].correlator_se == 0.0

    def test_half_and_half(self):
        counts = [PairCounts(2, 0, 0, 0)] * 4
        report = estimate(self._summary(counts))
        assert report.pairs[0].correlator == 0.0
        assert report.pairs[0].correlator_se == pytest.approx(1 / np.sqrt(2))

    def test_insufficient_trials(self):
        counts = [PairCounts(1, 1, 1, 1)] * 4
        with pytest.raises(InsufficientTrials):
            estimate(self._summary(counts))

    def test_propagated_error(self):
        counts = [PairCounts(2, 0, 0, 0)] * 4
        report = estimate(self._summary(counts))
        assert report.s_se == pytest.approx(np.sqrt(4 * 0.5))
