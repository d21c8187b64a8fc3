"""Random variables as step functions defined only on part of an axis.

A PartialRV exists only on its DomainSet.  Same-axis sums, differences and
products exist only where both operands do; where that is nowhere the
combination is not a zero function but a function that does not exist at
all, and combine raises EmptyDomain.

_overlap is the one overlap rule of an interval and a piece: value_lengths,
_overlap_cells, combine and density._correlators all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Tuple

import numpy as np

from .errors import (
    ArityMismatch,
    AxisMismatch,
    EmptyDomain,
    MalformedInput,
    NonFiniteInput,
    NonMonotoneBoundaries,
    OutOfDomain,
    UndefinedPoint,
    _finite,
    _is_real,
    _show,
)
from .intervals import DomainSet, Interval

_OPS = {"sum": np.add, "difference": np.subtract, "product": np.multiply}


@dataclass(frozen=True)
class PartialRV:
    """Piecewise-constant function on a union of open intervals of one axis.

    pieces exactly partition the domain; every breakpoint between pieces is
    excluded (the function is undefined there).  pieces must be a sequence of
    (Interval, value) pairs, and their ends and values real numbers (errors._is_real), else
    MalformedInput, and finite floats (errors._finite), else NonFiniteInput.  Pieces
    must be nonempty, sorted and disjoint as the float64 values that eval_many and
    integration compute with, touching allowed, else NonMonotoneBoundaries: two
    integer ends that round to one float, such as 2**53 and 2**53 + 1, make an empty
    piece.  With no pieces at all there is no function, and EmptyDomain is raised.
    """

    pieces: Tuple[Tuple[Interval, float], ...]
    axis_label: str

    def __post_init__(self):
        if not isinstance(self.pieces, Sequence):  # an iterator would be read up by one check
            raise MalformedInput("pieces must be a sequence of (Interval, value) pairs, got "
                                 f"{type(self.pieces).__name__}")
        if not self.pieces:
            raise EmptyDomain(f"no pieces on axis {_show(self.axis_label)}: no function exists")
        try:
            numbers = [x for iv, v in self.pieces for x in (iv.lo, iv.hi, v)]
        except (TypeError, ValueError, AttributeError):  # not (Interval, value) pairs
            raise MalformedInput(f"pieces {_show(self.pieces)} on axis {_show(self.axis_label)} "
                                 "are not (Interval, value) pairs") from None
        if not (real := all(map(_is_real, numbers))) or not _finite(*numbers):
            raise (NonFiniteInput if real else MalformedInput)(
                f"pieces {_show(self.pieces)} on axis {_show(self.axis_label)} not finite floats")
        prev_hi = -math.inf
        for iv, _ in self.pieces:  # compared as the floats that _rows makes
            if not prev_hi <= (lo := float(iv.lo)) < (hi := float(iv.hi)):
                raise NonMonotoneBoundaries(
                    f"piece {iv!r} is empty or starts before the previous one ends"
                )
            prev_hi = hi

    @property
    def domain(self) -> DomainSet:
        return DomainSet(tuple(iv for iv, _ in self.pieces))

    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(sorted({x for iv, _ in self.pieces for x in (iv.lo, iv.hi)}))

    def eval(self, x: float) -> float:
        """eval_many at the single point x: UndefinedPoint on a breakpoint, OutOfDomain
        outside the domain, NonFiniteInput for a point that is no finite float and
        MalformedInput for one that is no real number."""
        if not _is_real(x):
            raise MalformedInput(f"{self.axis_label}={_show(x)} is not a real number")
        if not _finite(x):
            raise NonFiniteInput(f"{self.axis_label}={_show(x)} not finite")
        values, defined = self.eval_many(np.array([x]))
        if defined[0]:
            return float(values[0])
        if x in self.breakpoints():
            raise UndefinedPoint(f"{self.axis_label}={_show(x)} is an excluded breakpoint")
        raise OutOfDomain(f"{self.axis_label}={_show(x)} outside domain {self.domain!r}")

    def eval_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation.

        Returns (values, defined) where defined[i] is False when xs[i] is
        outside the domain or on an excluded breakpoint; values there are 0.
        """
        los, his, values = _rows((self,))
        # side="right" puts no index past len - 1; only points left of los[0] need lifting to 0
        idx = np.maximum(np.searchsorted(los, xs, side="right") - 1, 0)
        defined = (xs > los[idx]) & (xs < his[idx])
        return np.where(defined, values[idx], 0.0), defined

    def _overlap_cells(self, edges: np.ndarray) -> tuple[np.ndarray, ...]:
        """(lo, hi, column, width, value) per nonempty cell ∩ piece of _overlap, in axis
        order: its ends, its cell i, its length (0 where no float lies strictly inside) and
        the piece's value."""
        lo, hi, values = _overlap(edges[:-1], edges[1:], (self,))
        column, piece = (lo < hi).nonzero()
        lo, hi = lo[column, piece], hi[column, piece]
        return lo, hi, column, np.where(np.nextafter(lo, hi) < hi, hi - lo, 0.0), values[piece]

    def value_lengths(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distinct, lengths): the sorted values self takes on the cells
        (edges[i], edges[i+1]), and lengths[i, k] the length of cell i where self = distinct[k]."""
        lo, hi, values = _overlap(edges[:-1], edges[1:], (self,))
        # not np.unique, whose first call imports numpy.ma: 10-27 ms of a process's set-up
        distinct = np.array(sorted(set(values[(lo < hi).any(axis=0)].tolist())))
        return distinct, np.maximum(hi - lo, 0.0) @ (values[:, None] == distinct)


def _rows(rvs) -> np.ndarray:
    """Rows los, his, values: the pieces of rvs as float64 arrays, rv by rv in piece order,
    so integer ends or values past int64, such as 10**20, are read as floats."""
    return np.array([(iv.lo, iv.hi, v) for rv in rvs for iv, v in rv.pieces], dtype=float).T


def _overlap(los: np.ndarray, his: np.ndarray, rvs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, values): interval (los[i], his[i]) ∩ piece j of rvs, in _rows' order, is
    (lo[i, j], hi[i, j]), empty unless lo[i, j] < hi[i, j], and values the pieces' values;
    an end that ties as ±0 is the piece's, as numpy's maximum and minimum keep the second."""
    piece_los, piece_his, values = _rows(rvs)
    return np.maximum(los[:, None], piece_los), np.minimum(his[:, None], piece_his), values


def make_step(boundaries: Sequence[float], values: Sequence[float], axis_label: str) -> PartialRV:
    """Build a step function with the given breakpoints, all excluded: value i, kept as
    given, on (boundaries[i], boundaries[i+1]), the pieces checked by PartialRV.

    boundaries and values are sequences or 1-d numpy arrays, else MalformedInput naming
    the argument, with one value fewer than boundaries, else ArityMismatch."""
    for name, arg in (("boundaries", boundaries), ("values", values)):
        if not (isinstance(arg, Sequence) or isinstance(arg, np.ndarray) and arg.ndim == 1):
            raise MalformedInput(f"{name} must be a sequence, got {type(arg).__name__}")
    bs = list(boundaries)
    if len(values) != len(bs) - 1:
        raise ArityMismatch(f"{len(values)} values for {len(bs)} boundaries")
    pieces = tuple((Interval(lo, hi), v) for lo, hi, v in zip(bs, bs[1:], values))
    return PartialRV(pieces, axis_label)


def combine(f: PartialRV, g: PartialRV, op: str) -> PartialRV:
    """Pointwise op where both operands exist.

    Each nonempty intersection of a piece of g with a piece of f (_overlap's rule, lo < hi,
    the rule of Interval.intersect, so deriv and combine agree on whether a sum exists,
    even on a piece one ulp wide) is a piece with op of their values; in g's piece order,
    then f's, they are sorted and disjoint, and an end that ties as ±0 is f's.  ValueError
    for an op not in _OPS, MalformedInput for an operand that is not a PartialRV (before
    AxisMismatch), and NonFiniteInput, with no numpy warning, for a value that overflows.
    """
    if not isinstance(op, str) or op not in _OPS:
        raise ValueError(f"unknown op {_show(op)}")
    for h in (f, g):
        if not isinstance(h, PartialRV):
            raise MalformedInput(f"operand of type {type(h).__name__} is not a PartialRV")
    if f.axis_label != g.axis_label:
        raise AxisMismatch(f"{_show(f.axis_label)} vs {_show(g.axis_label)}")
    g_los, g_his, g_values = _rows((g,))
    lo, hi, f_values = _overlap(g_los, g_his, (f,))
    i, j = (lo < hi).nonzero()
    if not i.size:
        raise EmptyDomain(
            f"{f.domain!r} ∩ {g.domain!r} = ∅: the {op} does not exist"
        )
    with np.errstate(over="ignore"):  # PartialRV refuses a value that overflows
        values = _OPS[op](f_values[j], g_values[i])
    pieces = zip(lo[i, j].tolist(), hi[i, j].tolist(), values.tolist())
    return PartialRV(tuple((Interval(lo, hi), v) for lo, hi, v in pieces), f.axis_label)
