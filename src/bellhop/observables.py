"""The concrete ±1 observables and the logarithmic comfort curve.

This module is the one home of the observable's facts: a[alpha] exists only
on setting_interval(alpha) = (alpha, alpha+1), changes sign at thresholds(alpha)
and is -1 on the outer quarter bands and +1 on the middle half.  The sign
changes are hard-coded at alpha+1/4 and alpha+3/4: 16*x*(1-x) = 3 factors as
(4x-1)(4x-3) = 0, so the thresholds are exact binary floats and no root
finding (hence no tolerance) is involved.
"""

from __future__ import annotations

import math

from .errors import OutOfDomain
from .intervals import Interval
from .steprv import PartialRV, make_step


def setting_interval(alpha: float) -> Interval:
    """(alpha, alpha+1): the span on which the observable for setting alpha exists."""
    lo = float(alpha)
    return Interval(lo, lo + 1.0)


def make_observable(alpha: float, axis_label: str = "x") -> PartialRV:
    """Step function -1/+1/-1 on the quarter bands of setting_interval(alpha)."""
    span = setting_interval(alpha)
    boundaries = (span.lo, *thresholds(span.lo), span.hi)
    return make_step(boundaries, (-1.0, 1.0, -1.0), axis_label)


def thresholds(alpha: float) -> tuple[float, float]:
    """The two sign-change points of make_observable(alpha)."""
    return (alpha + 0.25, alpha + 0.75)


def log_curve(alpha: float, x: float) -> float:
    """ln(16*t*(1-t)/3) with t = x - alpha; defined for 0 < t < 1."""
    t = x - alpha
    if not 0.0 < t < 1.0:
        raise OutOfDomain(f"x-alpha={t!r} outside (0,1)")
    return math.log(16.0 * t * (1.0 - t) / 3.0)
