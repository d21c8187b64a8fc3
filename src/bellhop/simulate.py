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

A block draws its settings as one uniform each, compared with the setting
CDF: the same draws rng.choice makes, pinned here.  Each pair's points come
with the grid cell they were drawn in, and an observable is constant on
every grid column that no breakpoint cuts, so an outcome is read from the
pair's outcome table (PartialRV.column_values) at the point's column.  Only
points in a cut column or on a column edge are evaluated with eval_many; a
point on a breakpoint has no outcome and is redrawn.  The summary needs only
per-pair sums, so trials are scattered back into trial order only for the
log.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, TextIO, Tuple

import numpy as np

from .chsh import PAIRS, ChshFamily, chsh_value
from .density import ROUND_OFF, _is_int, _is_real, sample_many
from .errors import ConfigInvalid, InsufficientTrials
from .steprv import PartialRV

_BLOCK = 1 << 16  # trials drawn, reduced and logged at a time per worker


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
        if not (isinstance(p, Sequence) and len(p) == 4 and all(map(_is_real, p))):
            raise ConfigInvalid("setting probabilities must be a sequence of 4 real numbers")
        if not all(math.isfinite(q) and q >= 0 for q in p):
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


def _outcomes(rv: PartialRV, table: np.ndarray, edges: np.ndarray, xs, cols):
    """rv at each point xs[i] of grid column cols[i], NaN where rv is undefined.

    A point strictly inside its column takes the column's table entry
    (rv.column_values(edges)).  A point in a NaN column, or exactly on one of
    its column's edges, is evaluated by rv.eval_many instead.
    """
    values = table[cols]
    slow = np.flatnonzero(np.isnan(values) | (xs == edges[cols]) | (xs == edges[1:][cols]))
    if len(slow):
        v, defined = rv.eval_many(xs[slow])
        values[slow] = np.where(defined, v, np.nan)
    return values


def _blocks(config: ExperimentConfig, seed: np.random.SeedSequence, size: int):
    """One worker's trials on its own substream, _BLOCK trials at a time.

    Yields (sums, settings, draws) per block: sums[p] is pair p's
    (trials, sum_ab, sum_a, sum_b), settings the block's pair indices in
    trial order, and draws[p] pair p's (x, y, a, b) in the order drawn.
    """
    rng = np.random.default_rng(seed)
    # rng.choice(4, p=p) element for element: a uniform u picks the number of
    # cdf entries <= u, and cdf[3] is exactly 1.
    cdf = np.cumsum(np.asarray(config.setting_probabilities, dtype=float))
    cdf /= cdf[-1]
    pairs = []
    for (alpha, beta), rho in zip(PAIRS, config.family.densities()):
        f, g = config.family.observables(alpha, beta)
        xe, ye = rho.x_edges(), rho.y_edges()
        pairs.append((rho, (f, f.column_values(xe), xe), (g, g.column_values(ye), ye)))
    for start in range(0, size, _BLOCK):
        n = min(_BLOCK, size - start)
        settings = (rng.random(n) >= cdf[:3, None]).sum(axis=0)
        counts = np.bincount(settings, minlength=len(PAIRS)).tolist()
        sums = np.empty((len(PAIRS), 4), dtype=np.int64)
        draws = []
        for pair_index, (count, (rho, fx, gy)) in enumerate(zip(counts, pairs)):
            x, y, ix, iy = sample_many(rho, rng, count)
            a, b = _outcomes(*fx, x, ix), _outcomes(*gy, y, iy)
            bad = np.flatnonzero(np.isnan(a) | np.isnan(b))
            while len(bad):  # threshold hit: reject and redraw
                rx, ry, rix, riy = sample_many(rho, rng, len(bad))
                x[bad], y[bad] = rx, ry
                a2, b2 = _outcomes(*fx, rx, rix), _outcomes(*gy, ry, riy)
                a[bad], b[bad] = a2, b2
                bad = bad[np.isnan(a2) | np.isnan(b2)]
            # ±1 values, so the sums are exact.  Not a @ b: a BLAS dot per block
            # wakes OpenBLAS threads that take the cores from the other workers.
            sums[pair_index] = count, (a * b).sum(), a.sum(), b.sum()
            draws.append((x, y, a, b))
        yield sums, settings, draws


def _write_block(log: TextIO, first: int, settings, draws) -> None:
    """One write of the block's rows in trial order, numbered from first."""
    columns = np.empty((4, len(settings)))  # x, y, a, b
    for pair_index, draw in enumerate(draws):
        columns[:, np.flatnonzero(settings == pair_index)] = draw
    xs, ys, avals, bvals = columns
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
            for sums, settings, draws in _blocks(config, seed, size):
                _write_block(event_log, trial, settings, draws)
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
