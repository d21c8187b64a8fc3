import hashlib
import io
import json
import time
import tracemalloc

import numpy as np
import pytest

from bellhop import simulate
from bellhop.chsh import PAIRS, ChshFamily, optimize_family, saturating_family
from bellhop.density import ROUND_OFF, GridDensity
from bellhop.errors import ConfigInvalid, InsufficientTrials
from bellhop.intervals import Interval
from bellhop.observables import make_observable, setting_interval
from bellhop.cli import main
from bellhop.simulate import (
    ExperimentConfig,
    ExperimentSummary,
    PairCounts,
    estimate,
    run_experiment,
)
from test_density import per_pair_cells


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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_logged_and_unlogged_summaries_agree(self, workers):
        # every worker logs more than one block
        config = ExperimentConfig(family=optimize_family((0.5,) * 4, (8, 8))[0],
                                  n_trials=3 * simulate._BLOCK + 5, master_seed=8,
                                  n_workers=workers)
        assert logged(config)[0] == run_experiment(config)

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


class TestSharedAxes:
    FAMILIES = {
        "grid32": lambda: optimize_family((0.5, -0.25, 1.0, 0.0), (32, 32))[0],
        "saturating": saturating_family,
        "unaligned3x5": unaligned_family,
        "mixed": mixed_grid_family,
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cells_match_per_pair_reference(self, family):
        # the event log's rows: each class's cells in order, their corners bit
        # for bit and their probabilities given the class
        family = self.FAMILIES[family]()
        table = simulate._log_table(family, simulate._class_law(family))
        row, split = 0, iter(table.split)
        for c in per_pair_cells(family):
            for u in c.a_values:
                for v in c.b_values:
                    in_a, in_b = c.a == u, c.b == v
                    p = c.probs[np.ix_(in_a, in_b)].reshape(-1)
                    rows = slice(row, row + len(p))
                    for corners, xe, ye in ((table.lo, c.x_edges[:-1], c.y_edges[:-1]),
                                            (table.hi, c.x_edges[1:], c.y_edges[1:])):
                        want = np.meshgrid(xe[in_a], ye[in_b], indexing="ij")
                        assert np.array_equal(corners[rows], np.stack(want, -1).reshape(-1, 2))
                    assert np.abs(next(split) - p / (p.sum() or 1.0)).max() <= ROUND_OFF
                    row += len(p)
        assert row == len(table.lo) == len(table.templates) and next(split, None) is None

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

    @pytest.mark.parametrize("family, workers", sorted(PINNED))
    def test_pinned_summaries(self, family, workers):
        p = (0.25,) * 4 if family == "mixed" else (0.1, 0.2, 0.3, 0.4)
        config = ExperimentConfig(self.FAMILIES[family](), 1_000_003, 29, p, workers)
        summary = run_experiment(config)
        assert [tuple(vars(c).values()) for c in summary.counts] == self.PINNED[family, workers]

    def test_pinned_event_log(self):
        # 140 001 trials at 2 workers: each worker logs more than one block
        config = ExperimentConfig(mixed_grid_family(), 140_001, 19, n_workers=2)
        assert -(-config.n_trials // 2) > simulate._BLOCK
        summary, log = logged(config)
        assert hashlib.sha256(log.encode()).hexdigest() == (
            "341368c83efbd26057ba1ae9b1635f3ede30bc608c63b742aa29e3cdbe7b643e")
        assert summary == run_experiment(config)


class TestUnplaceableClass:
    def test_exact_law_has_the_sliver(self):
        a, _, classes = simulate._class_law(sliver_family())[0]
        assert 0 < classes[a == -1].sum() < 1e-16
        assert (per_pair_cells(sliver_family())[0].classes[0] == 0).all()

    def test_summary_runs(self):
        summary = run_experiment(ExperimentConfig(sliver_family(), 10**6, 1))
        assert sum(c.trials for c in summary.counts) == 10**6

    def test_log_refused(self):
        sink = io.StringIO()
        with pytest.raises(ConfigInvalid, match=r"pair \(0,0\) class \(a, b\) = \(-1, -1\)"):
            run_experiment(ExperimentConfig(sliver_family(), 1000, 1), event_log=sink)
        assert sink.getvalue() == ""

    def test_cli_refuses_log(self, tmp_path, capsys):
        family, log = tmp_path / "sliver.json", tmp_path / "events.csv"
        family.write_text(json.dumps(sliver_family().to_dict()))
        argv = ["simulate", "--family", str(family), "--trials", "1000", "--seed", "1"]
        assert main([*argv, "--log", str(log)]) == 2
        assert not log.exists()
        assert "too thin for the event log's points" in capsys.readouterr().err
        assert main(argv) == 0


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
