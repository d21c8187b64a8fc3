"""Monte-Carlo reproduction of the two-party protocol.

Every trial: draw a setting pair (free choice), draw a hidden-variable pair
(x, y) from that pair's density, read off both ±1 outcomes, so there is no
detection loophole by construction.

A summary needs only each pair's trials, Σab, Σa and Σb, so the engine draws
counts, not trials.  A pair's cells are its density's grid refined by both
observables' breakpoints (GridDensity.refine), so both outcomes are constant
on each cell (PartialRV.column_values).  Each worker draws once: the pairs
get Multinomial(size, setting probabilities) trials, each pair's cells
Multinomial counts of those, and the sums are the cell counts contracted
with the outcome tables, exactly, in int64, so even MAX_TRIALS trials take
about a millisecond.  (numpy's binomial keeps every low bit of a count up
to about 2**54 trials per pair; above that counts share their low bits, an
error of about 2**-21 standard deviations.)  Worker i draws its contiguous
share of the trials from child i of SeedSequence(master_seed).spawn(
n_workers), so substreams are independent across workers and seeds and a
summary is bit-identical for a fixed (seed, workers).  Workers run one
after another.

The event log continues each worker's generator after its counts, so a
summary is the same with and without it.  Each block of _BLOCK rows takes
its (pair, cell) composition from the worker's remaining counts
(multivariate hypergeometric), shuffles it and places a uniform point
strictly inside each cell: exactly the law of i.i.d. trials.  Those draws
need a total below _LOG_LIMIT = 1e9, so a logged worker takes fewer trials
than that, and more workers split a larger run.  Memory is bounded by the
block size and the cell count, not by n_trials.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, TextIO, Tuple

import numpy as np

from .chsh import PAIRS, ChshFamily, chsh_value
from .density import ROUND_OFF, _is_int, _is_real
from .errors import ConfigInvalid, InsufficientTrials

_BLOCK = 1 << 16  # event-log rows drawn and written at a time
_LOG_LIMIT = 10**9  # logged trials per worker: the hypergeometric draws' total
MAX_TRIALS = 2**63 - 1  # counts and sums are int64
MAX_WORKERS = 1024  # about 0.1 s of per-worker set-up


@dataclass(frozen=True)
class ExperimentConfig:
    family: ChshFamily
    n_trials: int
    master_seed: int
    setting_probabilities: Tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    n_workers: int = 1

    def __post_init__(self):
        if not _is_int(self.n_trials) or not 0 < self.n_trials <= MAX_TRIALS:
            raise ConfigInvalid("n_trials must be a positive integer of at most 2**63 - 1")
        if not _is_int(self.n_workers) or not 0 < self.n_workers <= MAX_WORKERS:
            raise ConfigInvalid(f"n_workers must be a positive integer of at most {MAX_WORKERS}")
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
    """One setting pair's trials and its sums of a·b, a and b over them."""

    trials: int
    sum_ab: int
    sum_a: int
    sum_b: int


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


class _Cells(NamedTuple):
    """One pair's refined cells: their edges, probabilities and outcomes."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    probs: np.ndarray  # (len(a), len(b)), sums to 1
    a: np.ndarray  # Alice's ±1 outcome per x-cell, int64
    b: np.ndarray  # Bob's ±1 outcome per y-cell, int64


def _cells(family: ChshFamily) -> List[_Cells]:
    """Each pair's _Cells, in PAIRS order."""
    out = []
    for (alpha, beta), rho in zip(PAIRS, family.densities()):
        f, g = family.observables(alpha, beta)
        xe, ye, probs = rho.refine(f.breakpoints(), g.breakpoints())
        a, b = (rv.column_values(e).astype(np.int64) for rv, e in ((f, xe), (g, ye)))
        out.append(_Cells(xe, ye, probs, a, b))
    return out


def _counts(rng: np.random.Generator, cells, p: np.ndarray, size: int) -> List[np.ndarray]:
    """size trials' cell counts, one array per pair."""
    settings = rng.multinomial(size, p).tolist()
    return [
        rng.multinomial(n, c.probs.reshape(-1)).reshape(c.probs.shape)
        for n, c in zip(settings, cells)
    ]


def _sums(cells, counts) -> np.ndarray:
    """(trials, sum_ab, sum_a, sum_b) per pair from its cell counts k."""
    return np.array([
        (k.sum(), c.a @ k @ c.b, c.a @ k.sum(axis=1), k.sum(axis=0) @ c.b)
        for c, k in zip(cells, counts)
    ], dtype=np.int64)


class _LogTable(NamedTuple):
    """One row per (pair, cell), pairs in PAIRS order and cells row-major."""

    lo: np.ndarray  # (rows, 2): the cell's lower (x, y) corner
    hi: np.ndarray  # (rows, 2): its upper corner
    templates: list  # the row's CSV line, its trial and (x, y) left as %d,%.17g,%.17g


def _log_table(cells) -> _LogTable:
    lo, hi, templates = [], [], []
    for (alpha, beta), c in zip(PAIRS, cells):
        corners = np.stack(np.meshgrid(c.x_edges, c.y_edges, indexing="ij"), axis=-1)
        lo.append(corners[:-1, :-1].reshape(-1, 2))
        hi.append(corners[1:, 1:].reshape(-1, 2))
        templates += [f"%d,{alpha},{beta},%.17g,%.17g,{a:+d},{b:+d}\n"
                      for a in c.a.tolist() for b in c.b.tolist()]
    return _LogTable(np.concatenate(lo), np.concatenate(hi), templates)


def sample_many(table: _LogTable, rng: np.random.Generator, n: int, left: np.ndarray):
    """One event-log block of n trials, taken from a worker's left counts per
    table row (reduced in place): each trial's table row and (x, y), in trial
    order.  The composition is multivariate hypergeometric, the order a
    uniform permutation and each point uniform strictly inside its cell; a
    point that rounds onto an edge is drawn again in its cell, an event of
    probability zero, so no point lands on a breakpoint."""
    taken = rng.multivariate_hypergeometric(left, n)
    left -= taken
    rows = rng.permutation(np.repeat(np.arange(len(left)), taken))
    lo, hi = table.lo[rows], table.hi[rows]
    points = lo + rng.random(lo.shape) * (hi - lo)
    while (redo := (points <= lo) | (points >= hi)).any():
        points[redo] = lo[redo] + rng.random(int(redo.sum())) * (hi[redo] - lo[redo])
    return rows, points


def _format_block(table: _LogTable, first: int, rows, points) -> str:
    """The block's CSV rows, numbered from first, as one string."""
    n = len(rows)
    fields = [None] * (3 * n)
    fields[0::3] = range(first, first + n)
    fields[1::3], fields[2::3] = points.T.tolist()
    return "".join([table.templates[r] for r in rows.tolist()]) % tuple(fields)


def _check_log_limit(config: ExperimentConfig) -> None:
    """ConfigInvalid if a logged run of config gives a worker _LOG_LIMIT trials or more."""
    if -(-config.n_trials // config.n_workers) >= _LOG_LIMIT:
        raise ConfigInvalid("an event log needs fewer than 1e9 trials per worker: "
                            "use more workers")


def run_experiment(
    config: ExperimentConfig, event_log: Optional[TextIO] = None
) -> ExperimentSummary:
    """Run all trials; optionally stream a per-trial CSV audit log."""
    if event_log is not None:
        _check_log_limit(config)
    base, extra = divmod(config.n_trials, config.n_workers)
    cells = _cells(config.family)
    p = np.divide(config.setting_probabilities, math.fsum(config.setting_probabilities))
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_workers)
    if event_log is not None:
        table = _log_table(cells)
        event_log.write("trial,alpha,beta,x,y,a,b\n")
    totals, trial = np.zeros((len(PAIRS), 4), dtype=np.int64), 0
    for worker, seed in enumerate(seeds):
        size = base + (worker < extra)
        rng = np.random.default_rng(seed)
        counts = _counts(rng, cells, p, size)
        totals += _sums(cells, counts)
        if event_log is None:
            continue
        left = np.concatenate([k.reshape(-1) for k in counts])
        for start in range(0, size, _BLOCK):
            n = min(_BLOCK, size - start)
            rows, points = sample_many(table, rng, n, left)
            event_log.write(_format_block(table, trial, rows, points))
            trial += n
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
