"""Random variables as step functions defined only on part of an axis.

A PartialRV exists only on its DomainSet.  Same-axis sums, differences and
products exist only where both operands do; where that is nowhere the
combination is not a zero function but a function that does not exist at
all, and combine raises EmptyDomain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

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

_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": lambda u, v: u + v,
    "difference": lambda u, v: u - v,
    "product": lambda u, v: u * v,
}


@dataclass(frozen=True)
class PartialRV:
    """Piecewise-constant function on a union of open intervals of one axis.

    pieces exactly partition the domain; every breakpoint between pieces is
    excluded (the function is undefined there).  Piece ends and values must be
    real numbers (MalformedInput) and finite floats (NonFiniteInput), and pieces
    nonempty, sorted and disjoint, touching allowed (NonMonotoneBoundaries).
    With no pieces at all there is no function, and EmptyDomain is raised.
    """

    pieces: Tuple[Tuple[Interval, float], ...]
    axis_label: str

    def __post_init__(self):
        if not self.pieces:
            raise EmptyDomain(f"no pieces on axis {_show(self.axis_label)}: no function exists")
        numbers = [x for iv, v in self.pieces for x in (iv.lo, iv.hi, v)]
        if not (real := all(map(_is_real, numbers))) or not _finite(*numbers):
            raise (NonFiniteInput if real else MalformedInput)(
                f"pieces {_show(self.pieces)} on axis {_show(self.axis_label)} not finite floats")
        prev_hi = -math.inf
        for iv, _ in self.pieces:
            if not prev_hi <= iv.lo < iv.hi:
                raise NonMonotoneBoundaries(
                    f"piece {iv!r} is empty or starts before the previous one ends"
                )
            prev_hi = iv.hi

    @property
    def domain(self) -> DomainSet:
        return DomainSet(tuple(iv for iv, _ in self.pieces))

    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(sorted({x for iv, _ in self.pieces for x in (iv.lo, iv.hi)}))

    def _arrays(self) -> np.ndarray:
        """Rows los, his, values: the pieces as float64 arrays, in piece order."""
        return np.array([(iv.lo, iv.hi, v) for iv, v in self.pieces], dtype=float).T

    def eval(self, x: float) -> float:
        """eval_many at the single point x; raises where that leaves x undefined."""
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
        los, his, values = self._arrays()
        # side="right" puts no index past len - 1; only points left of los[0] need lifting to 0
        idx = np.maximum(np.searchsorted(los, xs, side="right") - 1, 0)
        defined = (xs > los[idx]) & (xs < his[idx])
        return np.where(defined, values[idx], 0.0), defined

    def _overlap(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(overlap, values): overlap[i, j] is the length of cell
        (edges[i], edges[i+1]) ∩ piece j, values the pieces' values."""
        los, his, values = self._arrays()
        lo, hi = np.maximum(edges[:-1, None], los), np.minimum(edges[1:, None], his)
        return np.maximum(hi - lo, 0.0), values

    def cell_integrals(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per cell (edges[i], edges[i+1]): the integral of self over the cell
        and the measure of the domain inside it."""
        overlap, values = self._overlap(edges)
        return overlap @ values, overlap.sum(axis=1)

    def value_lengths(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distinct, lengths): the sorted values self takes on the cells
        (edges[i], edges[i+1]), and lengths[i, k] the length of cell i where self = distinct[k]."""
        overlap, values = self._overlap(edges)
        distinct = np.unique(values[overlap.any(axis=0)])
        return distinct, overlap @ (values[:, None] == distinct)

    def column_values(self, edges: np.ndarray) -> np.ndarray:
        """Per cell (edges[i], edges[i+1]): the value of the piece that holds
        the whole open cell, or NaN where no piece does (a breakpoint cuts
        the cell or part of it lies outside the domain)."""
        los, his, values = self._arrays()
        # holds[i, j]: piece j holds cell i; pieces are disjoint, so at most one
        # holds a nonempty cell
        holds = (edges[:-1, None] >= los) & (edges[1:, None] <= his)
        return np.where(holds.any(axis=1), values[holds.argmax(axis=1)], np.nan)


def make_step(boundaries: Sequence[float], values: Sequence[float], axis_label: str) -> PartialRV:
    """Build a step function with the given breakpoints, all excluded: value i
    on (boundaries[i], boundaries[i+1]), the pieces checked by PartialRV."""
    bs = list(boundaries)
    if len(values) != len(bs) - 1:
        raise ArityMismatch(f"{len(values)} values for {len(bs)} boundaries")
    pieces = tuple((Interval(lo, hi), v) for lo, hi, v in zip(bs, bs[1:], values))
    return PartialRV(pieces, axis_label)


def combine(f: PartialRV, g: PartialRV, op: str) -> PartialRV:
    """Pointwise op where both operands exist.

    The cells between consecutive breakpoints of either operand are the
    candidate pieces: on each, each operand is defined throughout or
    nowhere.  The result keeps the cells where both are, so its domain
    excludes every breakpoint of either operand.
    """
    if op not in _OPS:
        raise ValueError(f"unknown op {_show(op)}")
    if f.axis_label != g.axis_label:
        raise AxisMismatch(f"{_show(f.axis_label)} vs {_show(g.axis_label)}")
    cuts = np.array(sorted({*f.breakpoints(), *g.breakpoints()}))
    los, his = cuts[:-1], cuts[1:]
    mids = 0.5 * los + 0.5 * his  # cannot overflow, and strictly inside when a float fits
    f_values, f_defined = f.eval_many(mids)
    g_values, g_defined = g.eval_many(mids)
    both = f_defined & g_defined
    if not both.any():
        raise EmptyDomain(
            f"{f.domain!r} ∩ {g.domain!r} = ∅: the {op} does not exist"
        )
    with np.errstate(over="ignore"):  # PartialRV refuses a value that overflows
        values = _OPS[op](f_values[both], g_values[both])
    pieces = zip(los[both].tolist(), his[both].tolist(), values.tolist())
    return PartialRV(tuple((Interval(lo, hi), v) for lo, hi, v in pieces), f.axis_label)
