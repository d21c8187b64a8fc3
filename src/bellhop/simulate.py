"""Monte-Carlo reproduction of the two-party protocol.

Every trial: draw a setting pair (free choice), draw a hidden-variable pair
(x, y) from that pair's density, read off both ±1 outcomes, so there is no
detection loophole by construction.

A summary needs only each pair's trials, Σab, Σa and Σb, so each worker draws
once: the pairs get Multinomial(size, setting probabilities) trials, and each
pair's at most 2×2 outcome classes (a, b) Multinomial counts of those, from
their exact law (_class_law).  The class counts, summed over the workers, are
contracted once with the outcome values, exactly, in int64.  (numpy's binomial
keeps every low bit of a count up to about 2**54 trials per pair; above that
counts share their low bits, an error of about 2**-21 standard deviations.)
Worker i draws from child i of SeedSequence(master_seed).spawn(n_workers), so
substreams are independent across workers and seeds and a summary is
bit-identical for a fixed (seed, workers).  Workers run one after another.

The event log continues each worker's generator after its counts, so a
summary is the same with and without it.  Only the log refines each pair's
grid by both observables' breakpoints (_log_table), so both outcomes are
constant on each cell, and draws each block of _BLOCK rows from the remaining
class counts (sample_many): exactly the law of i.i.d. trials.  Those draws
need a total below _LOG_LIMIT = 1e9, so a logged worker takes fewer trials
than that, and more workers split a larger run.  Memory is bounded by the
block size and the cell count, not by n_trials.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, TextIO, Tuple

import numpy as np

from .chsh import PAIRS, ChshFamily, chsh_value
from .density import ROUND_OFF, _refine_axis
from .errors import ConfigInvalid, InsufficientTrials, _finite, _is_int, _is_real

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
        if not isinstance(self.family, ChshFamily):
            raise ConfigInvalid(f"family must be a ChshFamily, got {type(self.family).__name__}")
        if not _is_int(self.n_trials) or not 0 < self.n_trials <= MAX_TRIALS:
            raise ConfigInvalid("n_trials must be a positive integer of at most 2**63 - 1")
        if not _is_int(self.n_workers) or not 0 < self.n_workers <= MAX_WORKERS:
            raise ConfigInvalid(f"n_workers must be a positive integer of at most {MAX_WORKERS}")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigInvalid("master_seed must be a non-negative integer")
        p = self.setting_probabilities
        p = p.tolist() if isinstance(p, np.ndarray) and p.ndim == 1 else p
        if not (isinstance(p, Sequence) and len(p) == 4 and all(map(_is_real, p))):
            raise ConfigInvalid("setting probabilities must be a sequence of 4 real numbers")
        if not (_finite(*p) and min(p) >= 0):
            raise ConfigInvalid("need 4 finite nonnegative setting probabilities")
        if abs(sum(p) - 1.0) > ROUND_OFF:
            raise ConfigInvalid("setting probabilities must sum to 1")
        object.__setattr__(self, "setting_probabilities", tuple(map(float, p)))

    @cached_property
    def _table(self) -> "_LogTable":
        """The family's event-log table, built once per config (_check_log_limit)."""
        return _log_table(self.family, _class_law(self.family))


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


def _class_law(family: ChshFamily) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each pair's (a_values, b_values, classes), in PAIRS order: both sides'
    sorted distinct outcomes, as int64, and P(a = a_values[i], b = b_values[j])
    = Aᵀ·W·B normalized, A[g, i] the length of grid column g where a = a_values[i]."""
    law = []
    for (alpha, beta), rho in zip(PAIRS, family.densities()):
        f, g = family.observables(alpha, beta)
        a_values, a_lengths = f.value_lengths(rho.x_edges())
        b_values, b_lengths = g.value_lengths(rho.y_edges())
        classes = a_lengths.T @ rho.weights @ b_lengths
        law.append((a_values.astype(np.int64), b_values.astype(np.int64), classes / classes.sum()))
    return law


def _counts(rng: np.random.Generator, law, p: np.ndarray, size: int) -> List[np.ndarray]:
    """size trials' outcome-class counts, one array per pair, shaped as its classes."""
    settings = rng.multinomial(size, p).tolist()
    return [rng.multinomial(n, classes.reshape(-1)).reshape(classes.shape)
            for n, (_, _, classes) in zip(settings, law)]


def _sums(law, counts) -> np.ndarray:
    """(trials, sum_ab, sum_a, sum_b) per pair from its class counts k."""
    return np.array([
        (k.sum(), a @ k @ b, a @ k.sum(axis=1), k.sum(axis=0) @ b)
        for (a, b, _), k in zip(law, counts)
    ], dtype=np.int64)


class _LogTable(NamedTuple):
    """One row per (pair, class, cell): pairs in PAIRS order, the rest row-major."""

    lo: np.ndarray  # (rows, 2): the cell's lower (x, y) corner
    hi: np.ndarray  # (rows, 2): its upper corner
    templates: list  # the row's CSV line, its trial and (x, y) left as %d,%.17g,%.17g
    split: list  # per (pair, class), as the counts: its cells' probabilities given it, or 0s


def _log_table(family: ChshFamily, law) -> _LogTable:
    """A cell's probability given its class is its grid weight × area over the class's sum;
    ConfigInvalid if a class has mass but only cells too thin for a float strictly inside."""
    lo, hi, templates, split = [], [], [], []
    for (alpha, beta), rho, (a_values, b_values, classes) in zip(PAIRS, family.densities(), law):
        f, g = family.observables(alpha, beta)
        x_edges, x_cells, x_widths = _refine_axis(rho.x_edges(), rho.x_rect, f.breakpoints())
        y_edges, y_cells, y_widths = _refine_axis(rho.y_edges(), rho.y_rect, g.breakpoints())
        probs = rho.weights[np.ix_(x_cells, y_cells)] * np.outer(x_widths, y_widths)
        a, b = f.column_values(x_edges), g.column_values(y_edges)
        for i, u in enumerate(a_values.tolist()):
            for j, v in enumerate(b_values.tolist()):
                ix, iy = np.nonzero(np.outer(a == u, b == v))  # the class's cells, row-major
                p = probs[ix, iy]
                if classes[i, j] > 0 and not p.any():
                    raise ConfigInvalid(f"pair ({alpha},{beta}) class (a, b) = ({u:+d}, {v:+d}) "
                                        "lies on cells too thin for the event log's points")
                lo.append(np.stack([x_edges[ix], y_edges[iy]], axis=-1))
                hi.append(np.stack([x_edges[ix + 1], y_edges[iy + 1]], axis=-1))
                templates += [f"%d,{alpha},{beta},%.17g,%.17g,{u:+d},{v:+d}\n"] * len(p)
                split.append(p / (p.sum() or 1.0))
    return _LogTable(np.concatenate(lo), np.concatenate(hi), templates, split)


def sample_many(table: _LogTable, rng: np.random.Generator, n: int, left: np.ndarray):
    """One event-log block of n trials, taken from a worker's left counts per
    (pair, class) (reduced in place): each trial's table row and (x, y), in
    trial order.  The classes are multivariate hypergeometric, each class's
    cells Multinomial, the order a uniform permutation and each point uniform
    strictly inside its cell; a point that rounds onto an edge is drawn again
    in its cell (probability zero), so no point lands on a breakpoint."""
    taken = rng.multivariate_hypergeometric(left, n)
    left -= taken
    per_cell = np.concatenate([rng.multinomial(k, q) if k else np.zeros(len(q), np.int64)
                               for k, q in zip(taken.tolist(), table.split)])
    rows = rng.permutation(np.repeat(np.arange(len(per_cell)), per_cell))
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


def _check_log_limit(config: ExperimentConfig) -> _LogTable:
    """config's event-log table, built before bellhop simulate opens the file; ConfigInvalid if
    _log_table cannot place a class or a worker of a logged run gets _LOG_LIMIT trials or more."""
    if -(-config.n_trials // config.n_workers) >= _LOG_LIMIT:
        raise ConfigInvalid("an event log needs fewer than 1e9 trials per worker: "
                            "use more workers")
    return config._table


def run_experiment(
    config: ExperimentConfig, event_log: Optional[TextIO] = None
) -> ExperimentSummary:
    """Run all trials; optionally stream a per-trial CSV audit log."""
    base, extra = divmod(config.n_trials, config.n_workers)
    law = _class_law(config.family)
    p = np.divide(config.setting_probabilities, math.fsum(config.setting_probabilities))
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_workers)
    if event_log is not None:
        table = _check_log_limit(config)
        event_log.write("trial,alpha,beta,x,y,a,b\n")
    totals, trial = [0] * len(PAIRS), 0
    for worker, seed in enumerate(seeds):
        size = base + (worker < extra)
        rng = np.random.default_rng(seed)
        counts = _counts(rng, law, p, size)
        totals = [t + k for t, k in zip(totals, counts)]
        if event_log is None:
            continue
        left = np.concatenate([k.reshape(-1) for k in counts])
        for start in range(0, size, _BLOCK):
            n = min(_BLOCK, size - start)
            rows, points = sample_many(table, rng, n, left)
            event_log.write(_format_block(table, trial, rows, points))
            trial += n
    counts = tuple(PairCounts(*row) for row in _sums(law, totals).tolist())
    return ExperimentSummary(config.n_trials, counts)


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
