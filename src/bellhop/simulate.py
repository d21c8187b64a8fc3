"""Monte-Carlo reproduction of the two-party protocol.

Every trial: draw a setting pair (free choice), draw a hidden-variable pair
(x, y) from that pair's density, read off both ±1 outcomes, so there is no
detection loophole by construction.

A summary needs only each pair's trials, Σab, Σa and Σb, so each worker draws
once: the pairs get Multinomial(size, setting probabilities) trials, and each
pair's at most 2×2 outcome classes (a, b) Multinomial counts of those, from
their exact law (ChshFamily._class_law: read-only arrays that the family's
constructor computes with its moments, on rectangles that each pair's
observables cover a.e.).  A worker's counts are one flat int64 vector, each
pair's classes row-major in PAIRS order (the event log's (pair, class) order);
the workers' vectors are summed in place, and each pair's sums are read from
the total once, in exact Python integers.  (numpy's binomial keeps every low
bit of a count up to about 2**54 trials per pair; above that counts share
their low bits, an error of about 2**-21 standard deviations.)
Worker i draws from child i of SeedSequence(master_seed).spawn(n_workers), so
substreams are independent across workers and seeds and a summary is
bit-identical for a fixed (seed, workers).  Workers run one after another.

The event log continues each worker's generator after its counts, so a
summary is the same with and without it.  Only the log splits each pair's
grid into cells, each the nonempty overlap of a grid column (row) and a piece
of Alice's (Bob's) observable (PartialRV._overlap_cells), so both outcomes are
constant on each cell, and draws each block of _BLOCK rows from the remaining
class counts (sample_many, which gathers the rows' cell corners with take):
exactly the law of i.i.d. trials.  Its floats are exactly Python's "%.17g" text,
all from _g17: in [1e-4, 2), which holds every point of the observables'
rectangles (0, 2) but those within 1e-4 of 0, it rounds Dekker's exact float64
product x·5**n (exact as each operation rounds to nearest, as in IEEE 754 and
numpy's ufuncs), and Python's % writes the rest.
Those draws need a total below _LOG_LIMIT = 1e9, so ExperimentConfig._table,
the log's one set-up, refuses a worker that many trials (more workers split it).
Each slice of _SLICE = 4096 rows is written as one uint8 matrix, a line a row, of
NUL-padded fixed-width fields: the trial as four-digit words (wide enough for any
trial below MAX_WORKERS · _LOG_LIMIT), the row's (pair, class) bytes ",α,β," and
",±1,±1" with the newline from the table, and x's and y's 24 bytes from one _g17
call over both columns; the NULs are dropped once, and the slice is decoded and
written once.  Memory is bounded by the block size and the cell count, not by
n_trials.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional, TextIO, Tuple

import numpy as np

from .chsh import PAIRS, ChshFamily, chsh_value
from .density import ROUND_OFF
from .errors import ConfigInvalid, InsufficientTrials, _finite, _is_int, _is_real

_BLOCK = 1 << 16  # event-log rows drawn at a time
_SLICE = 4096  # event-log rows formatted and written at a time: a traced peak of 2.0 MiB
_LOG_LIMIT = 10**9  # logged trials per worker: the hypergeometric draws' total
MAX_TRIALS = 2**63 - 1  # class counts are int64
MAX_WORKERS = 1024  # about 25 µs of set-up a worker: 25 ms a call at the cap
# a logged trial's number is below MAX_WORKERS · _LOG_LIMIT: 13 digits, four 4-digit words
_TRIAL_WORDS = -(-len(str(MAX_WORKERS * _LOG_LIMIT - 1)) // 4)


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

    @property
    def _table(self) -> "_LogTable":
        """A logged run's one set-up, read by bellhop simulate before it opens the file:
        ConfigInvalid if a worker gets _LOG_LIMIT trials or more or _log_table cannot place
        a class, else the family's event-log table, built once per family."""
        if -(-self.n_trials // self.n_workers) >= _LOG_LIMIT:
            raise ConfigInvalid("an event log needs fewer than 1e9 trials per worker: "
                                "use more workers")
        return _log_table(self.family)


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


def _counts(rng: np.random.Generator, law, p: np.ndarray, size: int) -> np.ndarray:
    """size trials' class counts, one int64 vector: each pair's, row-major, in PAIRS order."""
    settings = rng.multinomial(size, p).tolist()
    return np.concatenate([rng.multinomial(n, classes.reshape(-1))
                           for n, (_, _, classes) in zip(settings, law)])


def _sums(law, counts: np.ndarray) -> Tuple[PairCounts, ...]:
    """Each pair's trials, sum_ab, sum_a and sum_b from the flat class counts, in Python ints."""
    k, sums = iter(counts.tolist()), []
    for a, b, _ in law:
        t = ab = sa = sb = 0
        for u in a.tolist():
            for v in b.tolist():
                n = next(k)
                t, ab, sa, sb = t + n, ab + u * v * n, sa + u * n, sb + v * n
        sums.append(PairCounts(t, ab, sa, sb))
    return tuple(sums)


class _LogTable(NamedTuple):
    """One row per (pair, class, cell): pairs in PAIRS order, the rest row-major."""

    lo: np.ndarray  # (rows, 2): the cell's lower (x, y) corner
    hi: np.ndarray  # (rows, 2): its upper corner
    kinds: np.ndarray  # (rows,): the row's (pair, class), an index into lines and split
    lines: np.ndarray  # (kinds, width) uint8 per (pair, class): its CSV line's fixed bytes,
    # NUL where _format_block writes the trial (4·_TRIAL_WORDS bytes), x and y (24 each)
    split: list  # per (pair, class), as the counts: its cells' probabilities given it, or 0s


@functools.lru_cache(maxsize=1)  # the last family's table: a seed sweep builds it once
def _log_table(family: ChshFamily) -> _LogTable:
    """A cell's probability given its class is its grid weight × area over the class's sum;
    ConfigInvalid if a class has mass but only cells too thin for a float strictly inside."""
    cells, lines, split = [], [], []  # cells: per (pair, class), its corners' edges
    trial, point = "\0" * (4 * _TRIAL_WORDS), "\0" * 24
    law = family._class_law
    for (alpha, beta), rho, (a_values, b_values, classes) in zip(PAIRS, family.densities(), law):
        f, g = family.observables(alpha, beta)
        x_lo, x_hi, x_cells, x_widths, a = f._overlap_cells(rho.x_edges())
        y_lo, y_hi, y_cells, y_widths, b = g._overlap_cells(rho.y_edges())
        probs = rho.weights[np.ix_(x_cells, y_cells)] * np.outer(x_widths, y_widths)
        for i, u in enumerate(a_values.tolist()):
            ix = (a == u).nonzero()[0]
            a_probs = probs[ix]
            for j, v in enumerate(b_values.tolist()):
                iy = (b == v).nonzero()[0]  # the class's cells are ix × iy, row-major
                p = a_probs[:, iy].reshape(-1)
                if classes[i, j] > 0 and not p.any():
                    raise ConfigInvalid(f"pair ({alpha},{beta}) class (a, b) = ({u:+d}, {v:+d}) "
                                        "lies on cells too thin for the event log's points")
                cells.append((x_lo[ix], x_hi[ix], y_lo[iy], y_hi[iy]))
                lines.append(f"{trial},{alpha},{beta},{point},{point},{u:+d},{v:+d}\n")
                split.append(p / (p.sum() or 1.0))
    sizes = [len(p) for p in split]
    lo, hi = np.empty((sum(sizes), 2)), np.empty((sum(sizes), 2))
    start = 0
    for (x_lo, x_hi, y_lo, y_hi), size in zip(cells, sizes):
        for corners, x, y in ((lo, x_lo, y_lo), (hi, x_hi, y_hi)):
            grid = corners[start:start + size].reshape(len(x), len(y), 2)
            grid[..., 0], grid[..., 1] = x[:, None], y
        start += size
    kinds = np.repeat(np.arange(len(split), dtype=np.uint8), sizes)  # at most 4 × 2 × 2 kinds
    lines = np.frombuffer("".join(lines).encode(), np.uint8).reshape(len(lines), -1)
    return _LogTable(lo, hi, kinds, lines, split)


def sample_many(table: _LogTable, rng: np.random.Generator, n: int, left: np.ndarray):
    """One event-log block of n trials, taken from a worker's left counts per
    (pair, class) (reduced in place): each trial's table row and (x, y), in
    trial order.  The classes are multivariate hypergeometric, each class's
    cells Multinomial, the order a uniform permutation and each point uniform
    strictly inside its cell; a point that rounds onto an edge is drawn again
    in its cell (probability zero), so no point lands on a breakpoint."""
    taken = rng.multivariate_hypergeometric(left, n)
    left -= taken
    per_cell = np.concatenate([rng.multinomial(k, q) for k, q in zip(taken.tolist(), table.split)])
    rows = rng.permutation(np.repeat(np.arange(len(per_cell)), per_cell))
    lo, hi = table.lo.take(rows, axis=0), table.hi.take(rows, axis=0)
    points = lo + rng.random(lo.shape) * (hi - lo)
    while (redo := (points <= lo) | (points >= hi)).any():
        points[redo] = lo[redo] + rng.random(int(redo.sum())) * (hi[redo] - lo[redo])
    return rows, points


# "%.17g" % x for x in [_G17_LO, 2), exactly (_g17).  Its 17 digits are D = x·10**n rounded
# half to even, n = 16 - k, k = ⌊log10 x⌋ in [-4, 0], counted by four comparisons: 1e-3, 1e-2,
# 0.1 and 1.0 are each at or just above their power of ten.  Dekker's product of Veltkamp's
# 26-bit halves gives x·5**n = p + err exactly, as each float64 operation rounds to nearest
# (IEEE 754, as numpy's ufuncs do).  p·2**n >= 10**16 > 2**53 is an even integer, so D =
# p·2**n + rint(err·2**n), ties to even.  A row of text is "c.", c = ⌊x⌋, and 22 fraction
# digits (D shifted by k), trailing zeros cut to NUL, as six 4-byte words: 24 bytes.
_G17_LO = 1e-4  # from here %.17g writes x as 0.000ddd…, not in exponent form
_POW5 = np.array([5**n for n in range(21)], dtype=float)  # exact: 5**20 < 2**53
_POW10 = np.array([10**n for n in range(7)], dtype=np.int64)
_E16 = 10**16


@functools.cache
def _digit_words():
    """(groups, heads) of uint32 text words, built on first use.  groups[g]: the four digits
    of g (0 <= g < 10**4), groups[10**4 + g] the same with trailing zeros cut to NUL (all NUL
    for g = 0), groups[2·10**4 + g] with leading zeros cut (a lone "0" kept for g = 0).
    heads[200·z + 100·c + h]: "c." and the two digits of h (0 <= h < 100), cut if z is 1
    (the "." too if h is 0)."""
    g = np.arange(10**4)
    digits = (ord("0") + g[:, None] // 10 ** np.arange(3, -1, -1) % 10).astype(np.uint8)
    kept = np.maximum.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    cut = digits * kept
    trimmed = digits * np.maximum.accumulate(digits != ord("0"), axis=1)
    trimmed[0, 3] = ord("0")
    heads = np.zeros((2, 2, 100, 4), np.uint8)
    heads[:, 0, :, 0], heads[:, 1, :, 0] = ord("0"), ord("1")
    heads[0, :, :, 1], heads[1, :, 1:, 1] = ord("."), ord(".")
    heads[0, :, :, 2:], heads[1, :, :, 2:] = digits[:100, 2:], cut[:100, 2:]
    groups = np.concatenate([digits, cut, trimmed]).view(np.uint32).reshape(-1)
    return groups, heads.view(np.uint32).reshape(-1)


def _split(a: np.ndarray, d: int):
    """a // d and a % d, for a >= 0 (np.divmod takes a slower path)."""
    q = a // d
    return q, a - q * d


def _halves(a: np.ndarray):
    """Veltkamp's split: a = high + low, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _g17(x: np.ndarray) -> np.ndarray:
    """"%.17g" % v for each v of x, as an S24 array; Python's % writes v outside [_G17_LO, 2)."""
    groups, heads = _digit_words()
    fast = (x >= _G17_LO) & (x < 2.0)
    v = np.where(fast, x, 1.0)
    k = (v >= 1e-3).astype(np.int32) + (v >= 1e-2) + (v >= 0.1) + (v >= 1.0) - 4
    n = 16 - k
    five = _POW5.take(n)
    p = v * five
    (vh, vl), (fh, fl) = _halves(v), _halves(five)
    err = ((vh * fh - p) + vh * fl + vl * fh) + vl * fl  # v·five = p + err
    # no float in [1e-4, 2) lies within 5e-18 of a power of ten below it, so D < 10**17
    d = np.ldexp(p, n).astype(np.int64) + np.rint(np.ldexp(err, n)).astype(np.int64)
    one = k == 0  # v in [1, 2)
    d -= one * _E16
    # the fraction's 22 digits d·10**(6 + k): 2 + 8 in high, 12 in low, 4 to a word
    scale = _POW10.take(6 + k)
    high, low = _split(d, 10**12)
    carry, low = _split(low * scale, 10**12)
    h, high = _split(high * scale + carry, 10**8)
    g3, low = _split(low, 10**8)
    g4, g5 = _split(low, 10**4)
    g1, g2 = _split(high, 10**4)
    words = np.empty((len(x), 6), np.uint32)
    zero = np.ones(len(x), np.int64)  # 1 while every digit after the word is 0: cut its zeros
    for j, g in ((5, g5), (4, g4), (3, g3), (2, g2), (1, g1)):
        words[:, j] = groups.take(g + zero * 10**4)
        zero &= g == 0
    words[:, 0] = heads.take(h + one * 100 + zero * 200)
    text = words.view("S24").reshape(-1)
    for i in np.flatnonzero(~fast).tolist():
        text[i] = b"%.17g" % x[i]
    return text


def _trial_words(first: int, n: int) -> np.ndarray:
    """first, …, first + n − 1 as (n, _TRIAL_WORDS) uint32 words of four digits each, most
    significant first: the words before the first nonzero one NUL, that one with its leading
    zeros cut, the last word a lone "0" for trial 0.  The trials are consecutive, so the rows
    of one trial // 10**4 share every word but the last, which are consecutive entries of one
    table: groups[2·10**4 + g] where the last word leads (trials below 10**4), else [g]."""
    groups, _ = _digit_words()
    words = np.zeros((n, _TRIAL_WORDS), np.uint32)  # rows a faulty run skips stay NUL
    for start in range(-(first % 10**4), n, 10**4):  # rows lo…hi: trial // 10**4 is top
        top, lo, hi = (first + start) // 10**4, max(start, 0), min(start + 10**4, n)
        head = (b"%d" % top if top else b"").rjust(4 * _TRIAL_WORDS - 4, b"\0")
        words[lo:hi].view(f"V{4 * _TRIAL_WORDS}")[:] = head + bytes(4)  # the last word below
        at = lo - start + (0 if top else 2 * 10**4)
        words[lo:hi, -1] = groups[at:at + hi - lo]
    return words


def _format_block(table: _LogTable, first: int, rows, points) -> str:
    """The rows' CSV lines, numbered from first, as one string: one NUL-padded byte row per
    line, each kind's fixed bytes from table.lines, the NULs dropped once."""
    n, x = len(rows), 4 * _TRIAL_WORDS + 5  # x's 24 bytes follow the trial's and ",α,β,"
    lines = table.lines.take(table.kinds.take(rows), axis=0)
    lines[:, :x - 5] = _trial_words(first, n).view(np.uint8).reshape(n, -1)
    text = _g17(points.reshape(-1)).view(np.uint8).reshape(n, 48)  # each row's x, then y
    lines[:, x:x + 24], lines[:, x + 25:x + 49] = text[:, :24], text[:, 24:]  # y after ","
    return lines.tobytes().translate(None, b"\0").decode()


def run_experiment(
    config: ExperimentConfig, event_log: Optional[TextIO] = None
) -> ExperimentSummary:
    """Run all trials; optionally stream a per-trial CSV audit log."""
    base, extra = divmod(config.n_trials, config.n_workers)
    law = config.family._class_law
    p = np.divide(config.setting_probabilities, math.fsum(config.setting_probabilities))
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.n_workers)
    if event_log is not None:
        table = config._table
        event_log.write("trial,alpha,beta,x,y,a,b\n")
    total, trial = 0, 0  # 0 + the first worker's counts is a new array: the log may use counts up
    for worker, seed in enumerate(seeds):
        size = base + (worker < extra)
        rng = np.random.default_rng(seed)
        counts = _counts(rng, law, p, size)
        total += counts
        if event_log is None:
            continue
        for start in range(0, size, _BLOCK):
            n = min(_BLOCK, size - start)
            rows, points = sample_many(table, rng, n, counts)  # takes its rows out of counts
            for at in range(0, n, _SLICE):
                event_log.write(_format_block(table, trial + at, rows[at:at + _SLICE],
                                              points[at:at + _SLICE]))
            trial += n
    return ExperimentSummary(config.n_trials, _sums(law, total))


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
