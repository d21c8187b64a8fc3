"""Monte-Carlo reproduction of the two-party protocol.

Every trial: draw a setting pair (free choice), draw a hidden-variable pair
(x, y) from that pair's density, read off both ±1 outcomes.  Every trial
produces a full outcome pair, so there is no detection loophole by
construction.  Trials are pre-partitioned into contiguous per-worker chunks
with substream seed master_seed XOR worker_index and merged in worker order,
so a summary is bit-identical for a fixed (seed, workers) regardless of
scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, TextIO, Tuple

import numpy as np

from .chsh import PAIRS, ChshFamily, chsh_value
from .density import ROUND_OFF, sample_many
from .errors import ConfigInvalid, InsufficientTrials

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ExperimentConfig:
    family: ChshFamily
    n_trials: int
    master_seed: int
    setting_probabilities: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    n_workers: int = 1

    def __post_init__(self):
        if self.n_trials <= 0:
            raise ConfigInvalid("n_trials must be positive")
        if self.n_workers <= 0:
            raise ConfigInvalid("n_workers must be positive")
        p = self.setting_probabilities
        if len(p) != 4 or any(q < 0 for q in p):
            raise ConfigInvalid("need 4 nonnegative setting probabilities")
        if abs(sum(p) - 1.0) > ROUND_OFF:
            raise ConfigInvalid("setting probabilities must sum to 1")


@dataclass(frozen=True)
class PairCounts:
    """Streaming accumulators for one setting pair."""

    trials: int = 0
    sum_ab: int = 0
    sum_a: int = 0
    sum_b: int = 0

    def merged(self, other: "PairCounts") -> "PairCounts":
        return PairCounts(
            self.trials + other.trials,
            self.sum_ab + other.sum_ab,
            self.sum_a + other.sum_a,
            self.sum_b + other.sum_b,
        )


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


def _run_chunk(config: ExperimentConfig, worker_index: int, size: int):
    """One worker's contiguous block of trials on its own substream."""
    rng = np.random.default_rng((config.master_seed ^ worker_index) & _MASK64)
    settings = rng.choice(4, size=size, p=config.setting_probabilities)
    xs = np.empty(size)
    ys = np.empty(size)
    avals = np.empty(size)
    bvals = np.empty(size)
    counts = []
    for pair_index, ((alpha, beta), rho) in enumerate(
        zip(PAIRS, config.family.densities())
    ):
        f, g = config.family.observables(alpha, beta)
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
        xs[idx], ys[idx] = x, y
        avals[idx], bvals[idx] = a, b
        counts.append(
            PairCounts(
                trials=len(idx),
                sum_ab=int(round(float(np.dot(a, b)))),
                sum_a=int(round(float(a.sum()))),
                sum_b=int(round(float(b.sum()))),
            )
        )
    return counts, settings, xs, ys, avals, bvals


def run_experiment(
    config: ExperimentConfig, event_log: Optional[TextIO] = None
) -> ExperimentSummary:
    """Run all trials; optionally stream a per-trial CSV audit log."""
    sizes = _chunk_sizes(config.n_trials, config.n_workers)
    if config.n_workers == 1:
        results = [_run_chunk(config, 0, sizes[0])]
    else:
        with ThreadPoolExecutor(max_workers=config.n_workers) as pool:
            futures = [
                pool.submit(_run_chunk, config, i, size)
                for i, size in enumerate(sizes)
            ]
            results = [fut.result() for fut in futures]

    totals = [PairCounts(), PairCounts(), PairCounts(), PairCounts()]
    for counts, *_ in results:
        totals = [t.merged(c) for t, c in zip(totals, counts)]

    if event_log is not None:
        event_log.write("trial,alpha,beta,x,y,a,b\n")
        trial = 0
        for _, settings, xs, ys, avals, bvals in results:
            for k in range(len(settings)):
                alpha, beta = PAIRS[settings[k]]
                event_log.write(
                    f"{trial},{alpha},{beta},{xs[k]:.17g},{ys[k]:.17g},"
                    f"{int(avals[k]):+d},{int(bvals[k]):+d}\n"
                )
                trial += 1

    return ExperimentSummary(config.n_trials, tuple(totals))


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
