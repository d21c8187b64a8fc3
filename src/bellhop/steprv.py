"""Random variables as step functions defined only on part of an axis.

A PartialRV exists only on its DomainSet.  Same-axis sums, differences and
products exist only on the intersection of the operands' domains; when that
intersection is empty the combination is not a zero function but a function
that does not exist at all, and combine raises EmptyDomain.
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
    NonFiniteInput,
    NonMonotoneBoundaries,
    OutOfDomain,
    UndefinedPoint,
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
    excluded (the function is undefined there).  The pieces must be nonempty,
    sorted and disjoint (touching is allowed), else NonMonotoneBoundaries.
    """

    pieces: Tuple[Tuple[Interval, float], ...]
    axis_label: str

    def __post_init__(self):
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
        pts = set()
        for iv, _ in self.pieces:
            pts.add(iv.lo)
            pts.add(iv.hi)
        return tuple(sorted(pts))

    def _arrays(self) -> np.ndarray:
        """Rows los, his, values: the pieces as arrays, in piece order."""
        return np.array([(iv.lo, iv.hi, v) for iv, v in self.pieces]).T

    def eval(self, x: float) -> float:
        """eval_many at the single point x; raises where that leaves x undefined."""
        if not math.isfinite(x):
            raise NonFiniteInput(f"{self.axis_label}={x!r} not finite")
        values, defined = self.eval_many(np.array([x]))
        if defined[0]:
            return float(values[0])
        if x in self.breakpoints():
            raise UndefinedPoint(f"{self.axis_label}={x!r} is an excluded breakpoint")
        raise OutOfDomain(f"{self.axis_label}={x!r} outside domain {self.domain!r}")

    def eval_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation.

        Returns (values, defined) where defined[i] is False when xs[i] is
        outside the domain or on an excluded breakpoint; values there are 0.
        """
        los, his, values = self._arrays()
        idx = np.clip(np.searchsorted(los, xs, side="right") - 1, 0, len(los) - 1)
        defined = (xs > los[idx]) & (xs < his[idx])
        return np.where(defined, values[idx], 0.0), defined

    def cell_integrals(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per cell (edges[i], edges[i+1]): the integral of self over the cell
        and the measure of the domain inside it."""
        los, his, values = self._arrays()
        overlap = _overlap(edges[:-1], edges[1:], los, his)
        return overlap @ values, overlap.sum(axis=1)

    def shift(self, alpha: float) -> "PartialRV":
        moved = tuple((iv.shift(alpha), v) for iv, v in self.pieces)
        return PartialRV(moved, self.axis_label)


def _overlap(lo: np.ndarray, hi: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Length of (lo[i], hi[i]) ∩ (los[j], his[j]) for every i and j."""
    return np.clip(np.minimum(hi[:, None], his) - np.maximum(lo[:, None], los), 0.0, None)


def make_step(boundaries: Sequence[float], values: Sequence[float], axis_label: str) -> PartialRV:
    """Build a step function with the given breakpoints, all excluded."""
    bs = list(boundaries)
    if not all(map(math.isfinite, [*bs, *values])):
        raise NonFiniteInput(f"boundaries {bs} or values {list(values)} not finite")
    if any(b1 >= b2 for b1, b2 in zip(bs, bs[1:])) or len(bs) < 2:
        raise NonMonotoneBoundaries(f"boundaries not strictly increasing: {bs}")
    if len(values) != len(bs) - 1:
        raise ArityMismatch(f"{len(values)} values for {len(bs)} boundaries")
    pieces = tuple(
        (Interval(bs[i], bs[i + 1]), float(values[i])) for i in range(len(values))
    )
    return PartialRV(pieces, axis_label)


def combine(f: PartialRV, g: PartialRV, op: str) -> PartialRV:
    """Pointwise op on the intersection of the domains.

    The result's domain excludes every breakpoint of either operand: the
    combination is undefined wherever one operand is.
    """
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    if f.axis_label != g.axis_label:
        raise AxisMismatch(f"{f.axis_label!r} vs {g.axis_label!r}")
    common = f.domain.intersect(g.domain)
    if common.is_empty():
        raise EmptyDomain(
            f"{f.domain!r} ∩ {g.domain!r} = ∅: the {op} does not exist"
        )
    cuts = [p for p in f.breakpoints() + g.breakpoints() if common.contains(p)]
    refined = common.split_at(cuts).intervals
    mids = np.array([0.5 * (iv.lo + iv.hi) for iv in refined])
    values = _OPS[op](f.eval_many(mids)[0], g.eval_many(mids)[0])
    return PartialRV(tuple(zip(refined, values.tolist())), f.axis_label)
