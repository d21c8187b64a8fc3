"""Exact algebra of finite unions of open real intervals.

A DomainSet is where a partial random variable exists.  It is the algebra
of the two questions "where do both exist" that are asked about domains
alone: deriv's existence analysis and the common-domain check of
chsh.classical_bound_check.  steprv.combine, which needs values as well,
asks it of each cell between the operands' breakpoints by the same rule: two
open intervals overlap iff max(lo) < min(hi).

All endpoint comparisons are exact binary-float comparisons: the
breakpoints that occur here (quarters, integers) are exactly representable,
so no tolerance is needed or wanted.

Touching intervals such as (0, 0.25) and (0.25, 1) are deliberately NOT
merged: the shared endpoint is an excluded point where the function is
undefined.  Normalization only merges genuinely overlapping intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .errors import _finite, _is_int, _is_real, _show


@dataclass(frozen=True, order=True)
class Interval:
    """Open interval (lo, hi); empty iff hi <= lo."""

    lo: float
    hi: float

    def is_empty(self) -> bool:
        return self.hi <= self.lo

    @property
    def length(self) -> float:
        return self.hi - self.lo if self.hi > self.lo else 0.0

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __repr__(self) -> str:
        # each real end as its shortest text that reads back as the same float; a non-number
        # and an integer past the float range go to _show
        lo, hi = (_show(x) if not _is_real(x) or _is_int(x) and not _finite(x)
                  else repr(float(x)).removesuffix(".0") for x in (self.lo, self.hi))
        return f"({lo},{hi})"


@dataclass(frozen=True)
class DomainSet:
    """Normalized finite union of disjoint, sorted, nonempty open intervals."""

    intervals: Tuple[Interval, ...]

    @staticmethod
    def of(intervals: Iterable[Interval]) -> "DomainSet":
        """Normalize: drop empties, sort, merge overlaps (never mere touches)."""
        parts = sorted(iv for iv in intervals if not iv.is_empty())
        merged: list[Interval] = []
        for iv in parts:
            if merged and iv.lo < merged[-1].hi:
                last = merged.pop()
                merged.append(Interval(last.lo, max(last.hi, iv.hi)))
            else:
                merged.append(iv)
        return DomainSet(tuple(merged))

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    def measure(self) -> float:
        return sum(iv.length for iv in self.intervals)

    def intersect(self, other: "DomainSet") -> "DomainSet":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                c = a.intersect(b)
                if not c.is_empty():
                    out.append(c)
        return DomainSet(tuple(out))  # sorted and disjoint, as both operands are

    def __repr__(self) -> str:
        if not self.intervals:
            return "∅"
        return "∪".join(repr(iv) for iv in self.intervals)
