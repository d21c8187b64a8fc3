import dataclasses
import hashlib
import io
import json
import operator
import time
import tracemalloc
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellhop import simulate
from bellhop.chsh import (
    MAX_GRID, PAIRS, SIGNS, ChshFamily, optimize_family, saturating_family,
)
from bellhop.density import GridDensity
from bellhop.errors import ConfigInvalid, InsufficientTrials
from bellhop.intervals import Interval
from bellhop.observables import setting_interval
from bellhop.cli import main
from bellhop.steprv import PartialRV
from bellhop.simulate import (
    ExperimentConfig,
    ExperimentSummary,
    PairCounts,
    estimate,
    run_experiment,
)
import exact
from test_density import check_log_table


def uniform_family():
    return ChshFamily(*[
        GridDensity(Interval(float(a), a + 1.0), Interval(float(b), b + 1.0), [[1.0]])
        for a, b in PAIRS
    ])


def unaligned_family():
    """3x5 grids: the thresholds cut grid columns, so the cells are refined."""
    rng = np.random.default_rng(35)
    return ChshFamily(*[
        GridDensity(setting_interval(a), setting_interval(b), rng.random((3, 5)) + 0.1)
        for a, b in PAIRS
    ])


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


def sliver_family():
    """Pair 00 on a 196x1 grid with weight on columns 49-146 only, the other
    pairs uniform.  Column 49 starts one ulp below the threshold 0.25, so the
    class a = -1 has an exact probability of about 6e-17 on a sliver with no
    float strictly inside it."""
    w = np.zeros((196, 1))
    w[49:147] = 1.0
    return ChshFamily(GridDensity(setting_interval(0), setting_interval(0), w), *[
        GridDensity(setting_interval(a), setting_interval(b), [[1.0]]) for a, b in PAIRS[1:]
    ])


def sub_rectangle_family():
    """mixed_grid_family with rho00 on (0.25, 0.75) × (0, 1): a rectangle that a0 and b0
    cover a.e. without spanning a0's domain, on which a0 is +1."""
    w = np.random.default_rng(24).random((3, 5)) + 0.1
    rho00 = GridDensity(Interval(0.25, 0.75), setting_interval(0), w)
    return dataclasses.replace(mixed_grid_family(), rho00=rho00)


def tiny_x_family():
    """The saturating family with rho00 on (0, 1e-6) × (0, 1): pair 00's x lies below 1e-4,
    where the event log's floats are Python's "%.17g" and not the kernel's."""
    rho00 = GridDensity(Interval(0.0, 1e-6), setting_interval(0), [[1.0]])
    return dataclasses.replace(saturating_family(), rho00=rho00)


def per_point(family, log: str) -> ExperimentSummary:
    """The summary a log's rows reduce to, with every logged outcome checked
    against the pair's observables evaluated one point at a time."""
    rows = np.loadtxt(log.splitlines()[1:], delimiter=",", ndmin=2)
    trial, alpha, beta, x, y, a, b = rows.T
    assert np.array_equal(trial, np.arange(len(rows)))
    counts = []
    for p_alpha, p_beta in PAIRS:
        sel = (alpha == p_alpha) & (beta == p_beta)
        f, g = family.observables(p_alpha, p_beta)
        (fa, f_ok), (gb, g_ok) = f.eval_many(x[sel]), g.eval_many(y[sel])
        assert f_ok.all() and g_ok.all()  # no point on a breakpoint
        assert np.array_equal(fa, a[sel]) and np.array_equal(gb, b[sel])
        counts.append(PairCounts(*(int(v) for v in (
            sel.sum(), (fa * gb).sum(), fa.sum(), gb.sum()))))
    return ExperimentSummary(len(rows), tuple(counts))


class Snapping(np.random.Generator):
    """A generator whose uniforms land on 0 or just below 1 two times in
    three, so the points placed with them fall on a cell's lower edge or
    round onto its upper one.  Every other draw is default_rng's."""

    snapped = 0

    def random(self, size=None):
        u = super().random(size)
        low, high = u < 1 / 3, u > 2 / 3
        Snapping.snapped += int(low.sum() + high.sum())
        return np.where(low, 0.0, np.where(high, np.nextafter(1.0, 0.0), u))


def logged(config):
    """(summary, log text) of a logged run."""
    sink = io.StringIO()
    return run_experiment(config, event_log=sink), sink.getvalue()


class TestConfig:
    def test_zero_trials(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(family=uniform_family(), n_trials=0, master_seed=1)

    @pytest.mark.parametrize("family", ["nope", None])
    def test_family_not_a_family(self, family):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(family=family, n_trials=10, master_seed=1)

    def test_bad_probabilities(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(
                family=uniform_family(), n_trials=10, master_seed=1,
                setting_probabilities=(0.5, 0.5, 0.5, 0.5),
            )

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"),
        pytest.param(10**400, id="huge-int"), pytest.param(-10**400, id="-huge-int"),
    ])
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

    def test_trial_cap_is_int64_max(self):
        family = uniform_family()
        config = ExperimentConfig(family=family, n_trials=2**63 - 1, master_seed=1)
        assert config.n_trials == simulate.MAX_TRIALS
        for n_trials in (2**63, 2**64 + 1):
            with pytest.raises(ConfigInvalid):
                ExperimentConfig(family=family, n_trials=n_trials, master_seed=1)

    def test_worker_cap(self):
        # checked without running: each worker costs about 90 µs of set-up
        family = uniform_family()
        config = ExperimentConfig(family=family, n_trials=10, master_seed=1,
                                  n_workers=simulate.MAX_WORKERS)
        assert config.n_workers == 1024
        with pytest.raises(ConfigInvalid, match="at most 1024"):
            ExperimentConfig(family=family, n_trials=10, master_seed=1,
                             n_workers=simulate.MAX_WORKERS + 1)

    def test_probabilities_stored_as_a_tuple_of_floats(self):
        # a list, a tuple and a 1-d array give one hashable config
        family = uniform_family()
        p = (0.125, 0.25, 0.375, 0.25)
        configs = [ExperimentConfig(family, 1000, 1, setting_probabilities=q)
                   for q in (p, list(p), np.array(p), [np.float32(v) for v in p])]
        for config in configs:
            assert config.setting_probabilities == p
            assert all(type(v) is float for v in config.setting_probabilities)
            assert config == configs[0] and hash(config) == hash(configs[0])
        assert len({ExperimentConfig(family, 1000, 1, setting_probabilities=[0.25] * 4),
                     ExperimentConfig(family, 1000, 1)}) == 1

    @pytest.mark.parametrize("p", [
        np.full((2, 2), 0.25), np.array(0.25), np.array([True, False, False, False]),
        np.array(["0.25"] * 4), np.full(5, 0.2),
    ], ids=["2-d", "0-d", "bools", "strings", "five"])
    def test_probability_arrays_not_four_reals(self, p):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(family=uniform_family(), n_trials=10, master_seed=1,
                             setting_probabilities=p)

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
        assert run_experiment(c1) != run_experiment(c2)

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
            fields = (int(trial), int(alpha), int(beta), float(x), float(y), int(a), int(b))
            assert line == "%d,%d,%d,%.17g,%.17g,%+d,%+d" % fields

    def test_substreams_independent_across_seeds(self):
        # worker 1 of seed 0 must not replay worker 0 of seed 1
        def rows(seed):
            sink = io.StringIO()
            run_experiment(ExperimentConfig(family=uniform_family(), n_trials=2000,
                                            master_seed=seed, n_workers=2), sink)
            return [line.split(",", 1)[1] for line in sink.getvalue().splitlines()[1:]]

        assert rows(0)[1000:] != rows(1)[:1000]

    def test_memory_bounded_by_block(self):
        # a logged run holds one block's rows at a time, not the whole log
        class Discard:
            def write(self, text):
                return len(text)

        config = ExperimentConfig(family=optimize_family((0.5,) * 4, (32, 32))[0],
                                  n_trials=2 * simulate._BLOCK + 1, master_seed=4)
        tracemalloc.start()
        try:
            run_experiment(config, event_log=Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_memory_bounded_without_log(self):
        # counts, not trials: 1e9 trials in one draw take kilobytes
        config = ExperimentConfig(family=optimize_family((0.5,) * 4, (32, 32))[0],
                                  n_trials=10**9, master_seed=4)
        tracemalloc.start()
        try:
            summary = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(c.trials for c in summary.counts) == 10**9
        assert peak < 2**20

    def test_trial_cap_runs_in_one_draw(self):
        # one count draw per worker, whatever the trial count
        config = ExperimentConfig(family=saturating_family(), n_trials=simulate.MAX_TRIALS,
                                  master_seed=1)
        start = time.perf_counter()
        summary = run_experiment(config)
        assert time.perf_counter() - start < 1.0
        assert sum(c.trials for c in summary.counts) == simulate.MAX_TRIALS
        assert all(c.sum_ab == c.trials or c.sum_ab == -c.trials for c in summary.counts)

    @pytest.mark.parametrize("n_trials, workers", [
        (10**9, 1), (2 * 10**9 - 1, 2), (simulate.MAX_TRIALS, simulate.MAX_WORKERS),
    ])
    def test_log_limit(self, n_trials, workers):
        # a logged worker takes fewer than 1e9 trials; checked before the
        # header is written, so no large log is ever drawn
        config = ExperimentConfig(family=saturating_family(), n_trials=n_trials,
                                  master_seed=1, n_workers=workers)
        sink = io.StringIO()
        with pytest.raises(ConfigInvalid, match="fewer than 1e9 trials per worker"):
            run_experiment(config, event_log=sink)
        assert sink.getvalue() == ""

    def test_table_checks_the_log(self):
        # the one set-up of a logged run: the per-worker limit, then the table, built once
        too_many = ExperimentConfig(family=saturating_family(), n_trials=10**9, master_seed=1)
        with pytest.raises(ConfigInvalid, match="fewer than 1e9 trials per worker"):
            too_many._table
        with pytest.raises(ConfigInvalid, match="too thin for the event log's points"):
            ExperimentConfig(sliver_family(), 1000, 1)._table
        config = ExperimentConfig(family=saturating_family(), n_trials=2 * 10**9 - 2,
                                  master_seed=1, n_workers=2)
        assert config._table is config._table

    def test_one_table_per_family(self):
        # a seed sweep over one family builds its event-log table once
        family = saturating_family()
        first, second = (ExperimentConfig(family, 1000, seed)._table for seed in (1, 2))
        assert first is second

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_logged_and_unlogged_summaries_agree(self, workers):
        # every worker logs more than one block; the mixed grids share some axes, not all
        for family in (optimize_family((0.5,) * 4, (8, 8))[0], mixed_grid_family()):
            config = ExperimentConfig(family=family, n_trials=3 * simulate._BLOCK + 5,
                                      master_seed=8, n_workers=workers)
            assert logged(config)[0] == run_experiment(config)

    def test_grid_cap(self):
        # 262 144 cells a pair: the count draw does not grow with them, and the event log,
        # the only path that refines them, writes every row in order as Python's % would
        family = optimize_family(SIGNS, (MAX_GRID, MAX_GRID))[0]
        start = time.perf_counter()
        summary = run_experiment(ExperimentConfig(family, 10**9, 1, n_workers=2))
        assert time.perf_counter() - start < 60
        assert sum(c.trials for c in summary.counts) == 10**9
        config = ExperimentConfig(family, 100_000, 1, n_workers=2)
        summary, log = logged(config)
        assert summary == run_experiment(config)
        lines = log.splitlines()
        assert len(lines) == 100_001
        for k, line in enumerate(lines[1:]):
            _, alpha, beta, x, y, a, b = line.split(",")
            fields = (k, int(alpha), int(beta), float(x), float(y), int(a), int(b))
            assert line == "%d,%d,%d,%.17g,%.17g,%+d,%+d" % fields

    def test_event_log_matches_summary_and_draws(self):
        config = ExperimentConfig(family=uniform_family(), n_trials=simulate._BLOCK + 9,
                                  master_seed=6)
        summary, log = logged(config)
        rows = [line.split(",") for line in log.splitlines()[1:]]
        sums = {pair: [0, 0, 0, 0] for pair in PAIRS}
        for _, alpha, beta, _, _, a, b in rows:
            acc = sums[int(alpha), int(beta)]
            for k, v in enumerate((1, int(a) * int(b), int(a), int(b))):
                acc[k] += v
        assert [PairCounts(*sums[pair]) for pair in PAIRS] == list(summary.counts)

        # the rows come in shuffled order, as i.i.d. trials would: a row's
        # pair equals the previous row's with probability 1/4
        pairs = [(alpha, beta) for _, alpha, beta, *_ in rows]
        repeats = sum(p == q for p, q in zip(pairs, pairs[1:]))
        n = len(pairs) - 1
        assert abs(repeats / n - 0.25) < 6 * np.sqrt(0.25 * 0.75 / n)

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
        # several blocks per worker, partial ones too
        monkeypatch.setattr(simulate, "_BLOCK", 400)
        config = ExperimentConfig(family=self.FAMILIES[family](), n_trials=4321,
                                  master_seed=12, setting_probabilities=p, n_workers=workers)
        summary, log = logged(config)
        assert summary == run_experiment(config) == per_point(config.family, log)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_points_on_edges_match_per_point_engine(self, monkeypatch, family):
        # points that fall on a cell edge, breakpoints among them, are redrawn
        # in their cell, so each logged outcome is the observable's there
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Snapping(np.random.PCG64(seed)))
        Snapping.snapped = 0
        config = ExperimentConfig(family=self.FAMILIES[family](), n_trials=3000,
                                  master_seed=13, n_workers=2)
        summary, log = logged(config)
        assert Snapping.snapped > 3000
        assert summary == run_experiment(config) == per_point(config.family, log)


class TestLogTally:
    """A logged run's summary is its own log's tally: each pair's trials, Σab, Σa and Σb
    counted from the CSV rows' (alpha, beta, a, b), with no engine code."""

    FAMILIES = {
        "saturating": saturating_family,
        "interior32": lambda: optimize_family((0.7, 0.7, 0.7, -0.7), (32, 32))[0],
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_summary_is_the_rows_tally(self, family, workers):
        config = ExperimentConfig(self.FAMILIES[family](), 20_001, 33, n_workers=workers)
        summary, log = logged(config)
        lines = log.splitlines()[1:]
        fields = operator.itemgetter(1, 2, 5, 6)  # alpha, beta, a, b
        seen = Counter(tuple(map(int, fields(line.split(",")))) for line in lines)
        tally = {pair: [0, 0, 0, 0] for pair in PAIRS}
        for (alpha, beta, a, b), n in seen.items():
            for i, w in enumerate((1, a * b, a, b)):
                tally[alpha, beta][i] += w * n
        assert len(lines) == 20_001 and len(seen) > len(PAIRS)
        assert summary == ExperimentSummary(
            len(lines), tuple(PairCounts(*tally[pair]) for pair in PAIRS))


class TestSharedAxes:
    FAMILIES = {
        "grid32": lambda: optimize_family((0.5, -0.25, 1.0, 0.0), (32, 32))[0],
        "saturating": saturating_family,
        "unaligned3x5": unaligned_family,
        "mixed": mixed_grid_family,
    }

    # summaries of 1 000 003 trials, seed 29, at 1, 2 and 3 workers
    PINNED = {
        ("mixed", 1): [(249823, -5691, 18579, -32331), (249716, -6302, -14908, -48950),
                       (250975, 9955, -6903, 50241), (249489, -14817, 25231, 34269)],
        ("mixed", 2): [(250275, -5475, 18041, -31661), (249946, -6106, -14794, -49146),
                       (250335, 9449, -6869, 50193), (249447, -14415, 25193, 33887)],
        ("mixed", 3): [(250248, -5222, 17852, -31822), (250028, -6882, -14248, -49358),
                       (250085, 9465, -7557, 50259), (249642, -15048, 25720, 33842)],
        ("grid32", 1): [(99877, 50129, 95, -457), (199696, -49926, -208, -66),
                        (301054, 301054, -140, -140), (399376, 556, 186, -258)],
        ("grid32", 2): [(100190, 50408, -212, -82), (199994, -49748, -90, -180),
                        (300444, 300444, 316, 316), (399375, -19, -435, -521)],
        ("grid32", 3): [(100173, 50115, -431, -573), (200069, -50381, 327, -399),
                        (300157, 300157, -53, -53), (399604, 1120, -696, -364)],
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cells_match_per_pair_reference(self, family):
        # the event log's rows against the exact cells of each pair: each class's cells in
        # order, their corners bit for bit, their probabilities given the class and the
        # class's one line
        check_log_table(self.FAMILIES[family]())

    @pytest.mark.parametrize("family, workers", sorted(PINNED))
    def test_pinned_summaries(self, family, workers):
        p = (0.25,) * 4 if family == "mixed" else (0.1, 0.2, 0.3, 0.4)
        config = ExperimentConfig(self.FAMILIES[family](), 1_000_003, 29, p, workers)
        summary = run_experiment(config)
        assert [tuple(vars(c).values()) for c in summary.counts] == self.PINNED[family, workers]

    @pytest.mark.parametrize("family, seed, trials, workers, digest", [
        (mixed_grid_family, 19, 140_001, 2,
         "341368c83efbd26057ba1ae9b1635f3ede30bc608c63b742aa29e3cdbe7b643e"),
        # pair 00's cells clipped at its rectangle's ends, inside a0's domain
        (sub_rectangle_family, 24, 140_001, 2,
         "d277194dda74cae5770313239095138ec2086b34616ed356480c01b788407473"),
        # perfbench mc-eventlog's family at 1 worker; the last block ends past a 4096- and an
        # 8192-row edge
        (saturating_family, 31, 2 * 65536 + 8193, 1,
         "c56b428ce9904f00c9d0d9ae21fb7d02fccc1ce47da0dc0b1ca4c5cabcf79255"),
    ], ids=["mixed", "sub_rectangle", "saturating"])
    def test_pinned_event_log(self, family, seed, trials, workers, digest):
        # each worker logs more than one block
        config = ExperimentConfig(family(), trials, seed, n_workers=workers)
        assert -(-trials // workers) > simulate._BLOCK
        summary, log = logged(config)
        assert hashlib.sha256(log.encode()).hexdigest() == digest
        assert summary == run_experiment(config)


class TestClassLawCache:
    """The class law, computed once per family object and shared by every run of it."""

    FAMILIES = {**TestSharedAxes.FAMILIES, "sliver": sliver_family}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_read_only_tuple(self, family):
        family = self.FAMILIES[family]()
        law = family._class_law
        assert type(law) is tuple and all(type(pair) is tuple for pair in law)
        assert family._class_law is law
        for array in (array for pair in law for array in pair):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                array += 1

    # SHA-256 of each family's law arrays' bytes, pair by pair in PAIRS order
    LAW_DIGESTS = {
        "grid32": "ed07a1d9281c626e6333e4b115fdc4d17bf1cf6349b7dc36d49a96b5c8a474c5",
        "mixed": "100aca266351856c94d74f5b56df98ddb5164fb7501c6c9aa15b823a6033140a",
        "saturating": "1dbcc8102d63f2bb2797f5af78350ac1fb67d23069679335c018dfbbacd0f279",
        "sliver": "8623f77af28cc972981935f7cc30996ba85ad6f715d9538067e7482a8c9f2f58",
        "unaligned3x5": "9a7f940094254d55a1dac9b4ef55e90e5cbc41b382f165c9c2dd3e8e616920d5",
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bit_equal_to_uncached(self, family):
        # the pinned bits of the law the pinned summaries and logs were drawn from
        law = self.FAMILIES[family]()._class_law
        assert [(array.dtype, array.shape) for pair in law for array in pair] == [
            (np.int64, (2,)), (np.int64, (2,)), (np.float64, (2, 2))] * len(PAIRS)
        digest = hashlib.sha256(b"".join(array.tobytes() for pair in law for array in pair))
        assert digest.hexdigest() == self.LAW_DIGESTS[family]

    def test_replaced_family_gets_its_own_law(self):
        family = self.FAMILIES["grid32"]()
        law = family._class_law
        uniform = GridDensity(setting_interval(0), setting_interval(0), [[1.0]])
        other = dataclasses.replace(family, rho00=uniform)
        assert other._class_law is not law and family._class_law is law
        assert other._class_law[0][2].tolist() == [[0.25, 0.25], [0.25, 0.25]]
        assert law[0][2].tolist() != other._class_law[0][2].tolist()
        for got, want in zip(other._class_law[1:], law[1:]):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_law_computed_once_per_family(self, monkeypatch):
        # two observables a pair, four pairs: 8 calls, all for the first summary
        calls = []
        value_lengths = PartialRV.value_lengths

        def counted(rv, edges):
            calls.append(rv)
            return value_lengths(rv, edges)

        monkeypatch.setattr(PartialRV, "value_lengths", counted)
        family = unaligned_family()
        run_experiment(ExperimentConfig(family, 10_000, 1))
        assert len(calls) == 8
        run_experiment(ExperimentConfig(family, 10_000, 2, n_workers=2))
        logged_config = ExperimentConfig(family, 10_000, 3)
        logged_config._table
        logged(logged_config)
        assert len(calls) == 8


class TestSubRectangle:
    """A density on part of its pair's domains: the exact correlators and the runs agree."""

    def test_monte_carlo_agrees_with_exact(self):
        family = sub_rectangle_family()
        assert family._class_law[0][0].tolist() == [1]
        report = estimate(run_experiment(ExperimentConfig(family, 10**6, 24, n_workers=2)))
        for pair, e in zip(report.pairs, family.expectations(), strict=True):
            assert abs(pair.correlator - e) <= 6 * pair.correlator_se

    def test_logged_points_inside_the_rectangle(self):
        family = sub_rectangle_family()
        summary, log = logged(ExperimentConfig(family, 20_000, 24, n_workers=2))
        rows = np.loadtxt(log.splitlines()[1:], delimiter=",", ndmin=2)
        _, alpha, beta, x, y, _, _ = rows.T
        pair00 = (alpha == 0) & (beta == 0)
        assert pair00.sum() > 4000
        assert ((x[pair00] > 0.25) & (x[pair00] < 0.75)).all()
        assert ((y[pair00] > 0) & (y[pair00] < 1)).all()
        assert per_point(family, log) == summary


class TestUnplaceableClass:
    def test_exact_law_has_the_sliver(self):
        # the law gives a = -1 the sliver's mass, as the exact law does, and no event-log
        # cell can hold it
        family = sliver_family()
        a, _, classes = family._class_law[0]
        cells = exact.cells(*family.observables(0, 0), family.rho00)
        law = exact.class_law(cells)
        assert 0 < classes[a == -1].sum() < 1e-16
        assert 0 < sum(p.value for (u, _), p in law.items() if u == -1) < 1e-16
        assert not any(c.log_mass for (u, _), cs in cells.items() if u == -1 for c in cs)

    def test_summary_runs(self):
        summary = run_experiment(ExperimentConfig(sliver_family(), 10**6, 1))
        assert sum(c.trials for c in summary.counts) == 10**6

    def test_log_refused(self):
        sink = io.StringIO()
        with pytest.raises(ConfigInvalid, match=r"pair \(0,0\) class \(a, b\) = \(-1, -1\)"):
            run_experiment(ExperimentConfig(sliver_family(), 1000, 1), event_log=sink)
        assert sink.getvalue() == ""
        check_log_table(sliver_family())  # the whole text, the oracle's first empty class

    def test_cli_refuses_log(self, tmp_path, capsys):
        family, log = tmp_path / "sliver.json", tmp_path / "events.csv"
        family.write_text(json.dumps(sliver_family().to_dict()))
        argv = ["simulate", "--family", str(family), "--trials", "1000", "--seed", "1"]
        assert main([*argv, "--log", str(log)]) == 2
        assert not log.exists()
        assert "too thin for the event log's points" in capsys.readouterr().err
        assert main(argv) == 0


# the longest "%.17g" texts: 24 bytes, an event-log float field's width
LONGEST = (-2.2250738585072014e-308, -4.9406564584124654e-324, -1.7976931348623157e308)


def g17(values) -> list:
    """The event log's text of each value, as str."""
    return [text.decode() for text in simulate._g17(np.array(values, dtype=float)).tolist()]


class TestFloatText:
    """The event log writes each float as "%.17g" % v, all by _g17: Dekker's exact product
    in [1e-4, 2), Python's % elsewhere."""

    @settings(max_examples=300)
    @given(st.lists(st.floats(1e-4, 2.0, exclude_max=True), min_size=1, max_size=40))
    def test_kernel_matches_percent(self, values):
        text = simulate._g17(np.array(values)).tolist()
        assert [t.decode() for t in text] == ["%.17g" % v for v in values]

    def test_fixed_cases(self):
        powers = [10.0**k for k in range(-4, 1)]
        values = [
            np.nextafter(1e-4, 0), 1e-4,  # Python's %, then the kernel
            *(np.nextafter(p, to) for p in powers for to in (0.0, 2.0)), *powers,
            1.0, np.nextafter(2.0, 0), 2.0, 0.0, 5e-324, 0.5, 0.999999999999999,
            # the longest %.17g texts, 24 bytes: the field never truncates
            *LONGEST,
            # Python's % also writes values of 2 and more and every negative value
            2.5, 10.0, 123456.78901234567, 1e16, 1e17, 1e22, 1.7976931348623157e308,
            -0.0, -5e-324, -1e-5, -0.5, -1.0, -1.9999999999999998, -2.0, -1e300,
        ]
        # every float within 5000 ulps of each end of the kernel's range and each power of ten
        # in it: Dekker's product is exact only if each float64 operation rounds to nearest
        steps = np.arange(-5000, 5001)
        for edge in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 2.0):
            bits = np.array([edge]).view(np.int64) + steps
            values += bits.view(float).tolist()
        assert {len("%.17g" % v) for v in LONGEST} == {24}
        assert g17(values) == ["%.17g" % v for v in values]

    def test_ties_round_half_to_even(self):
        # j / 2**(17 - k), j odd, between 10**k and 10**(k + 1) has 18 significant digits,
        # the last a 5: %.17g rounds it half to even
        rng = np.random.default_rng(25)
        values = []
        for k in range(-4, 1):
            scale = 2 ** (17 - k)
            lo = -(-scale * 10**4 // 10 ** (4 - k))
            hi = min(scale * 10**5 // 10 ** (4 - k), 2 * scale)
            j = rng.integers(lo, hi, 2000) | 1
            values += (j[j < hi] / scale).tolist()
        for v in values:
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert g17(values) == ["%.17g" % v for v in values]

    def test_logged_run_below_kernel_range(self):
        # pair 00's x is Python's %, every other float the kernel's: the same text
        summary, log = logged(ExperimentConfig(tiny_x_family(), 20_000, 25, n_workers=2))
        lines = log.splitlines()[1:]
        assert len(lines) == 20_000
        small = 0
        for line in lines:
            trial, alpha, beta, x, y, a, b = line.split(",")
            fields = (int(trial), int(alpha), int(beta), float(x), float(y), int(a), int(b))
            assert line == "%d,%d,%d,%.17g,%.17g,%+d,%+d" % fields
            small += float(x) < 1e-4
        assert 4000 < small < 6000
        assert per_point(tiny_x_family(), log) == summary


class TestLineMatrix:
    """_format_block writes each slice as one matrix of fixed-width byte fields: every line
    is "%d,%d,%d,%.17g,%.17g,%+d,%+d\n" of the trial, the row's pair and class and its point,
    up to the largest trial a logged config can write."""

    # a valid logged config has fewer than _LOG_LIMIT trials in each of at most MAX_WORKERS
    # workers, numbered from 0
    LARGEST = simulate.MAX_WORKERS * (simulate._LOG_LIMIT - 1) - 1

    @staticmethod
    def block(n, seed=9):
        """n rows of the saturating family's table, their points, each row's (alpha, beta,
        a, b), and a few points in Python's % range, the longest among them."""
        family = saturating_family()
        table = simulate._log_table(family)
        kinds = [(alpha, beta, u, v) for (alpha, beta), (a, b, _) in zip(PAIRS, family._class_law)
                 for u in a.tolist() for v in b.tolist()]
        rng = np.random.default_rng(seed)
        left = simulate._counts(rng, family._class_law, np.full(4, 0.25), 10 * n)
        rows, points = simulate.sample_many(table, rng, n, left)
        odd = np.array([*LONGEST, -0.5, 2.5, 1e-5, 0.0, 1e22])
        row = rng.integers(n)
        points[row] = odd[:2]  # x and y both in Python's % range
        rest = np.delete(np.arange(points.size), [2 * row, 2 * row + 1])
        at = rng.choice(rest, min(len(odd) - 2, rest.size), replace=False)
        points.reshape(-1)[at] = odd[2:2 + len(at)]
        return table, rows, points, [kinds[k] for k in table.kinds[rows].tolist()]

    def test_largest_trial_fits(self):
        ExperimentConfig(saturating_family(), self.LARGEST + 1, 1,
                         n_workers=simulate.MAX_WORKERS)._table
        with pytest.raises(ConfigInvalid, match="fewer than 1e9 trials per worker"):
            ExperimentConfig(saturating_family(), self.LARGEST + 2, 1,
                             n_workers=simulate.MAX_WORKERS)._table
        assert len(str(self.LARGEST)) == 13
        assert 4 * simulate._TRIAL_WORDS == 16

    # one row, a slice, and two slices' rows in one call
    @pytest.mark.parametrize("n", [1, simulate._SLICE, 2 * simulate._SLICE])
    @pytest.mark.parametrize("first", [0, 9_995, 99_999_995, 10**12 - 5, LARGEST])
    def test_lines_match_the_spec(self, first, n):
        table, rows, points, kinds = self.block(n)
        want = ["%d,%d,%d,%.17g,%.17g,%+d,%+d\n" % (first + k, alpha, beta, x, y, a, b)
                for k, ((alpha, beta, a, b), (x, y)) in enumerate(zip(kinds, points.tolist()))]
        for layout in (points, np.asfortranarray(points)):  # x and y kept apart in either
            text = simulate._format_block(table, first, rows, layout)
            assert text.splitlines(keepends=True) == want

    def test_slice_memory(self):
        # one slice's traced peak: the matrix, its text and _g17's temporaries of both columns
        table, rows, points, _ = self.block(simulate._SLICE)
        simulate._format_block(table, 0, rows, points)  # _digit_words' tables, built once
        tracemalloc.start()
        try:
            simulate._format_block(table, 10**6, rows, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * 2**20


def test_numpy_streams_pinned():
    # every pinned summary and event log rests on these raw draws from a worker's substream
    rng = np.random.default_rng(np.random.SeedSequence(1).spawn(2)[1])
    draws = [
        rng.multinomial(1000, [0.25] * 4).tolist(),  # setting counts
        rng.multinomial(500, [0.125, 0.375, 0.5, 0.0]).tolist(),  # class counts
        rng.multivariate_hypergeometric(np.array([5, 10, 15, 20]), 25).tolist(),
        rng.permutation(10).tolist(),
        [x.hex() for x in rng.random(3).tolist()],
    ]
    assert draws == [
        [253, 253, 263, 231],
        [61, 200, 239, 0],
        [1, 6, 8, 10],
        [6, 5, 2, 1, 7, 8, 9, 0, 3, 4],
        ["0x1.b0e6431832bddp-1", "0x1.6357474564ad0p-1", "0x1.60de88e594a88p-2"],
    ], (f"numpy {np.__version__}'s random streams moved (pins made with numpy 2.4.6): "
        "bellhop's pinned outputs follow numpy's draws, not a change in bellhop")


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
