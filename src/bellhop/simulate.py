"""Monte-Carlo reproduction of the two-party protocol.

Every trial: draw a setting pair (free choice), draw a hidden-variable pair
(x, y) from that pair's density, read off both ±1 outcomes.  Every trial
produces a full outcome pair, so there is no detection loophole by
construction.  Trials are pre-partitioned into contiguous per-worker chunks;
worker i draws from child i of SeedSequence(master_seed).spawn(n_workers), so
substreams are independent across workers and seeds, and a summary is
bit-identical for a fixed (seed, workers) regardless of scheduling.  Each
worker draws, reduces and (with a log) writes _BLOCK trials at a time, so
memory is bounded by the block size, not by n_trials.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, TextIO, Tuple

import numpy as np

from .chsh import PAIRS, ChshFamily, chsh_value
from .density import ROUND_OFF, sample_many
from .errors import ConfigInvalid, InsufficientTrials

_BLOCK = 1 << 16  # trials drawn, reduced and logged at a time per worker


def _is_int(value) -> bool:
    """An integer in the numbers sense, with bool counted as not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    family: ChshFamily
    n_trials: int
    master_seed: int
    setting_probabilities: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    n_workers: int = 1

    def __post_init__(self):
        if not _is_int(self.n_trials) or self.n_trials <= 0:
            raise ConfigInvalid("n_trials must be a positive integer")
        if not _is_int(self.n_workers) or self.n_workers <= 0:
            raise ConfigInvalid("n_workers must be a positive integer")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigInvalid("master_seed must be a non-negative integer")
        p = self.setting_probabilities
        if len(p) != 4 or not all(math.isfinite(q) and q >= 0 for q in p):
            raise ConfigInvalid("need 4 finite nonnegative setting probabilities")
        if abs(sum(p) - 1.0) > ROUND_OFF:
            raise ConfigInvalid("setting probabilities must sum to 1")


@dataclass(frozen=True)
class PairCounts:
    """Streaming accumulators for one setting pair."""

    trials: int = 0
    sum_ab: int = 0
    sum_a: int = 0
    sum_b: int = 0


@dataclass(frozen=True)
class ExperimentSummary:
    n_trials: int
    counts: Tuple[PairCounts, PairCounts, PairCounts, PairCounts]


@dataclass(frozen=True)
class PairEstimate:
    trials: int
    correlator: float
    correlator_se: float
    mean_a: float
    mean_b: float


@dataclass(frozen=True)
class EstimateReport:
    pairs: Tuple[PairEstimate, PairEstimate, PairEstimate, PairEstimate]
    s_value: float
    s_se: float


def _chunk_sizes(n_trials: int, n_workers: int) -> list[int]:
    base, extra = divmod(n_trials, n_workers)
    return [base + (1 if i < extra else 0) for i in range(n_workers)]


def _blocks(config: ExperimentConfig, seed: np.random.SeedSequence, size: int):
    """One worker's trials on its own substream, _BLOCK trials at a time.

    Yields (sums, settings, x, y, a, b) per block: sums[p] is pair p's
    (trials, sum_ab, sum_a, sum_b), the rest are the block's trials in order.
    """
    rng = np.random.default_rng(seed)
    pairs = [
        (config.family.observables(alpha, beta), rho)
        for (alpha, beta), rho in zip(PAIRS, config.family.densities())
    ]
    for start in range(0, size, _BLOCK):
        n = min(_BLOCK, size - start)
        settings = rng.choice(4, size=n, p=config.setting_probabilities)
        xs, ys, avals, bvals = (np.empty(n) for _ in range(4))
        sums = np.empty((len(PAIRS), 4), dtype=np.int64)
        for pair_index, ((f, g), rho) in enumerate(pairs):
            idx = np.flatnonzero(settings == pair_index)
            x, y = sample_many(rho, rng, len(idx))
            a, da = f.eval_many(x)
            b, db = g.eval_many(y)
            bad = np.flatnonzero(~(da & db))
            while len(bad):  # threshold hit: reject and redraw
                rx, ry = sample_many(rho, rng, len(bad))
                x[bad], y[bad] = rx, ry
                a2, da2 = f.eval_many(rx)
                b2, db2 = g.eval_many(ry)
                a[bad], b[bad] = a2, b2
                bad = bad[~(da2 & db2)]
            # ±1 values, so the sums are exact.  Not a @ b: a BLAS dot per block
            # wakes OpenBLAS threads that take the cores from the other workers.
            sums[pair_index] = len(idx), (a * b).sum(), a.sum(), b.sum()
            xs[idx], ys[idx] = x, y
            avals[idx], bvals[idx] = a, b
        yield sums, settings, xs, ys, avals, bvals


def _write_block(log: TextIO, first: int, settings, xs, ys, avals, bvals) -> None:
    """One write of the block's rows, numbered from first."""
    labels = [f"{alpha},{beta}" for alpha, beta in PAIRS]
    log.write("".join(
        "%d,%s,%.17g,%.17g,%+d,%+d\n" % row
        for row in zip(
            range(first, first + len(settings)), [labels[s] for s in settings.tolist()],
            xs.tolist(), ys.tolist(), avals.astype(np.int64).tolist(),
            bvals.astype(np.int64).tolist(),
        )
    ))


def run_experiment(
    config: ExperimentConfig, event_log: Optional[TextIO] = None
) -> ExperimentSummary:
    """Run all trials; optionally stream a per-trial CSV audit log."""
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_workers)
    sizes = _chunk_sizes(config.n_trials, config.n_workers)
    if event_log is None:
        def worker_sums(seed, size):
            return sum(sums for sums, *_ in _blocks(config, seed, size))
        with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
            totals = sum(pool.map(worker_sums, seeds, sizes))
    else:
        event_log.write("trial,alpha,beta,x,y,a,b\n")
        totals = trial = 0
        for seed, size in zip(seeds, sizes):
            for sums, settings, *columns in _blocks(config, seed, size):
                _write_block(event_log, trial, settings, *columns)
                totals, trial = totals + sums, trial + len(settings)
    # n_trials > 0, so some block was summed and totals is an array
    return ExperimentSummary(
        config.n_trials, tuple(PairCounts(*row) for row in totals.tolist())
    )


def estimate(summary: ExperimentSummary) -> EstimateReport:
    """Correlator and marginal estimates with standard errors, plus Ŝ."""
    pairs = []
    for c in summary.counts:
        if c.trials < 2:
            raise InsufficientTrials(f"pair with {c.trials} trial(s)")
        e = c.sum_ab / c.trials
        se = math.sqrt(max(0.0, 1.0 - e * e) / c.trials)
        pairs.append(
            PairEstimate(c.trials, e, se, c.sum_a / c.trials, c.sum_b / c.trials)
        )
    s = chsh_value(*(p.correlator for p in pairs))
    s_se = math.sqrt(sum(p.correlator_se**2 for p in pairs))
    return EstimateReport(tuple(pairs), s, s_se)
