"""Random variables as step functions defined only on part of an axis.

A PartialRV exists only on its DomainSet.  Same-axis sums, differences and
products exist only on the intersection of the operands' domains; when that
intersection is empty the combination is not a zero function but a function
that does not exist at all, and combine raises EmptyDomain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import (
    ArityMismatch,
    AxisMismatch,
    EmptyDomain,
    NonMonotoneBoundaries,
    OutOfDomain,
    UndefinedPoint,
)
from .intervals import DomainSet, Interval

_OPS: dict[str, Callable[[float, float], float]] = {
    "sum": lambda u, v: u + v,
    "difference": lambda u, v: u - v,
    "product": lambda u, v: u * v,
}


@dataclass(frozen=True)
class PartialRV:
    """Piecewise-constant function on a union of open intervals of one axis.

    pieces exactly partition the domain; every breakpoint between pieces is
    excluded (the function is undefined there).
    """

    pieces: Tuple[Tuple[Interval, float], ...]
    axis_label: str

    @property
    def domain(self) -> DomainSet:
        return DomainSet(tuple(iv for iv, _ in self.pieces))

    def breakpoints(self) -> Tuple[float, ...]:
        pts = set()
        for iv, _ in self.pieces:
            pts.add(iv.lo)
            pts.add(iv.hi)
        return tuple(sorted(pts))

    def eval(self, x: float) -> float:
        for iv, value in self.pieces:
            if iv.contains(x):
                return value
        if x in self.breakpoints():
            raise UndefinedPoint(f"{self.axis_label}={x!r} is an excluded breakpoint")
        raise OutOfDomain(f"{self.axis_label}={x!r} outside domain {self.domain!r}")

    def eval_many(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation.

        Returns (values, defined) where defined[i] is False when xs[i] is
        outside the domain or on an excluded breakpoint; values there are 0.
        """
        los = np.array([iv.lo for iv, _ in self.pieces])
        his = np.array([iv.hi for iv, _ in self.pieces])
        vals = np.array([v for _, v in self.pieces])
        idx = np.searchsorted(los, xs, side="right") - 1
        idx_clipped = np.clip(idx, 0, len(los) - 1)
        defined = (idx >= 0) & (xs > los[idx_clipped]) & (xs < his[idx_clipped])
        out = np.where(defined, vals[idx_clipped], 0.0)
        return out, defined

    def shift(self, alpha: float) -> "PartialRV":
        moved = tuple((iv.shift(alpha), v) for iv, v in self.pieces)
        return PartialRV(moved, self.axis_label)


def make_step(boundaries: Sequence[float], values: Sequence[float], axis_label: str) -> PartialRV:
    """Build a step function with the given breakpoints, all excluded."""
    bs = list(boundaries)
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
    refined = common.split_at(cuts)
    fn = _OPS[op]
    pieces = []
    for iv in refined.intervals:
        mid = 0.5 * (iv.lo + iv.hi)
        pieces.append((iv, fn(f.eval(mid), g.eval(mid))))
    return PartialRV(tuple(pieces), f.axis_label)
