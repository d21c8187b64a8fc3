"""Exact algebra of open real intervals and of their finite unions.

deriv asks "where do both exist" of Intervals: a symbol's domain is one open
interval, and two open intervals overlap iff max(lo) < min(hi).  A DomainSet
is a step function's domain, a union of such intervals, as PartialRV.domain
reports it; steprv.combine, which needs values as well, asks the question of
each piece of one operand and each of the other by the same rule (steprv._overlap).

All endpoint comparisons are exact binary-float comparisons: the
breakpoints that occur here (quarters, integers) are exactly representable,
so no tolerance is needed or wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import _finite, _is_int, _is_real, _show


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); empty iff hi <= lo."""

    lo: float
    hi: float

    def is_empty(self) -> bool:
        return self.hi <= self.lo

    @property
    def length(self) -> float:
        return self.hi - self.lo if self.hi > self.lo else 0.0

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
    """Union of open intervals, as PartialRV checks its pieces: sorted, disjoint and
    nonempty, touching allowed (a shared end is an excluded point).  The constructor
    does not check it."""

    intervals: Tuple[Interval, ...]

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
