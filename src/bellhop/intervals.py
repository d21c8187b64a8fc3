"""Exact algebra of finite unions of open real intervals.

A DomainSet is where a partial random variable exists.  All endpoint
comparisons are exact binary-float comparisons: the breakpoints that occur
here (quarters, integers) are exactly representable, so no tolerance is
needed or wanted.

Touching intervals such as (0, 0.25) and (0.25, 1) are deliberately NOT
merged: the shared endpoint is an excluded point where the function is
undefined.  Normalization only merges genuinely overlapping intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple


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

    def shift(self, delta: float) -> "Interval":
        return Interval(self.lo + delta, self.hi + delta)

    def __repr__(self) -> str:
        return f"({self.lo:g},{self.hi:g})"


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

    @staticmethod
    def empty() -> "DomainSet":
        return DomainSet(())

    @staticmethod
    def interval(lo: float, hi: float) -> "DomainSet":
        return DomainSet.of([Interval(lo, hi)])

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
        return DomainSet.of(out)

    def shift(self, delta: float) -> "DomainSet":
        return DomainSet(tuple(iv.shift(delta) for iv in self.intervals))

    def split_at(self, points: Iterable[float]) -> "DomainSet":
        """Exclude each point, splitting any interval it falls strictly inside."""
        pieces = list(self.intervals)
        for p in sorted(set(points)):
            out = []
            for iv in pieces:
                if iv.contains(p):
                    out.append(Interval(iv.lo, p))
                    out.append(Interval(p, iv.hi))
                else:
                    out.append(iv)
            pieces = out
        return DomainSet(tuple(iv for iv in pieces if not iv.is_empty()))

    def __repr__(self) -> str:
        if not self.intervals:
            return "∅"
        return "∪".join(repr(iv) for iv in self.intervals)
