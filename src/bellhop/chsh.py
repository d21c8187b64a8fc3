"""CHSH functional, trivial-bound saturation, and the common-domain contrast.

Four unrelated densities, one per setting pair, make the four correlators
independently tunable: the only surviving bound is |S| <= 4, and it is
saturated with all marginal means exactly zero.  When all four observables
share one domain and one density, the classical argument applies and
|S| <= 2; classical_bound_check embodies that contrast.  It takes the
textbook CHSH step S = E[a0·(b0 + b1)] + E[a1·(b0 − b1)], integrating each
observable once and pairing each of Alice's two with both of Bob's, and that
pairing is the one place the common-domain assumption enters.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from .density import ROUND_OFF, GridDensity, _axis_integrals, _fields, _integrate, _same_measure
from .errors import (
    DomainMismatch, GridMisaligned, InputOutOfRange, MalformedInput, NonFiniteInput, _finite,
    _is_int, _is_real, _show,
)
from .intervals import Interval
from .observables import make_observable, setting_interval
from .steprv import PartialRV, make_step

PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1))  # (alpha, beta) order used throughout
MAX_GRID = 512  # cells a side of optimize_family's grid: 78 MB of RSS, an 11.5 MB family file
SIGNS = (1, 1, 1, -1)  # each pair's sign in S, in PAIRS order: the targets that saturate |S| = 4
# ((a0, a1), (b0, b1)): the family's four observables, by side and then setting, built once
OBSERVABLES = tuple(tuple(make_observable(float(s), axis) for s in (0, 1)) for axis in "xy")


@dataclass(frozen=True)
class ChshFamily:
    """One density per setting pair, each on its pair's unit rectangle."""

    rho00: GridDensity
    rho10: GridDensity
    rho01: GridDensity
    rho11: GridDensity

    def __post_init__(self):
        for (alpha, beta), rho in zip(PAIRS, self.densities()):
            want_x, want_y = setting_interval(alpha), setting_interval(beta)
            if rho.x_rect != want_x or rho.y_rect != want_y:
                raise DomainMismatch(
                    f"rho{alpha}{beta} rectangle {rho.x_rect!r}×{rho.y_rect!r} "
                    f"does not match {want_x!r}×{want_y!r}"
                )

    def densities(self) -> Tuple[GridDensity, ...]:
        return tuple(getattr(self, f"rho{alpha}{beta}") for alpha, beta in PAIRS)

    def observables(self, alpha: int, beta: int) -> Tuple[PartialRV, PartialRV]:
        return OBSERVABLES[0][alpha], OBSERVABLES[1][beta]

    @cached_property
    def _moments(self) -> Tuple[Tuple[float, float, float], ...]:
        """(E[ab], E[a], E[b]) per pair in PAIRS order, each under its own
        density; integrated once, as the fields and weights cannot change."""
        return tuple(
            _integrate(*self.observables(alpha, beta), rho)
            for (alpha, beta), rho in zip(PAIRS, self.densities())
        )

    def summary(self) -> dict:
        """The expectations block of a family record, as a fresh dict."""
        es = self.expectations()
        marginals = {}
        for (alpha, beta), (_, e_a, e_b) in zip(PAIRS, self._moments):
            marginals[f"a{alpha}|{alpha}{beta}"] = e_a
            marginals[f"b{beta}|{alpha}{beta}"] = e_b
        return {
            **{f"e{alpha}{beta}": e for (alpha, beta), e in zip(PAIRS, es)},
            "S": chsh_value(*es),
            "marginals": marginals,
        }

    def expectations(self) -> Tuple[float, float, float, float]:
        return tuple(e_ab for e_ab, _, _ in self._moments)

    def marginals(self) -> Dict[str, float]:
        """All eight marginal means, each under its own pair's density."""
        return self.summary()["marginals"]

    def to_dict(self) -> dict:
        out = {
            f"rho{alpha}{beta}": rho.to_dict()
            for (alpha, beta), rho in zip(PAIRS, self.densities())
        }
        out["expectations"] = self.summary()
        return out

    @staticmethod
    def from_dict(d: dict) -> "ChshFamily":
        """Parse a family record; a stored expectations block must match.

        The block is optional.  When present it must hold the four e..
        values, S and the eight marginals as to_dict writes them, each within
        1e-9 of the values the weights give, else MalformedInput.
        """
        keys = [f"rho{alpha}{beta}" for alpha, beta in PAIRS]
        family = ChshFamily(*map(GridDensity.from_dict, _fields(d, "family", keys)))
        if "expectations" in d:
            _check_stored(d["expectations"], family.summary(), "expectations")
        return family


# How far a family file's stored expectations may be from its weights' values.
_STORED_TOLERANCE = 1e-9


def _check_stored(stored, want: dict, what: str) -> None:
    """MalformedInput unless stored has want's keys with values within
    _STORED_TOLERANCE of want's, nested dicts included."""
    for key, value, expected in zip(want, _fields(stored, what, want), want.values()):
        if isinstance(expected, dict):
            _check_stored(value, expected, f"{what} {key}")
            continue
        # bounds, not a difference, so a huge integer cannot overflow
        lo, hi = expected - _STORED_TOLERANCE, expected + _STORED_TOLERANCE
        if not (_is_real(value) and lo <= value <= hi):
            raise MalformedInput(f"{what} {key} = {_show(value)}, but the weights give {expected}")


def chsh_value(e00: float, e10: float, e01: float, e11: float) -> float:
    """Signed CHSH combination e00 + e10 + e01 - e11."""
    for e in (e00, e10, e01, e11):
        if not (_is_real(e) and abs(e) <= 1.0 + ROUND_OFF):  # a NaN is out of range too
            raise InputOutOfRange(f"correlator {_show(e)} is not a real number in [-1, 1]")
    return e00 + e10 + e01 - e11


def _band_signs(n: int) -> np.ndarray:
    """Observable value per grid column for a quarter-aligned n-cell grid."""
    return OBSERVABLES[0][0].column_values(np.arange(n + 1) / n)


def saturating_family() -> ChshFamily:
    """Four densities reaching S = 4 with all eight marginals exactly zero.

    optimize_family's 4x4 family: for target +1 the mass sits uniformly on
    the (+,+) and (-,-) cells, for target -1 on the (+,-) and (-,+) cells.
    Every number is an exact binary float.
    """
    return optimize_family(SIGNS)[0]


def optimize_family(
    targets: Sequence[float], grid: Tuple[int, int] = (4, 4)
) -> Tuple[ChshFamily, Tuple[float, float, float, float]]:
    """Densities whose four correlators hit the given targets, in closed form.

    targets are four real numbers in [-1, 1], one correlator per pair in
    PAIRS order (InputOutOfRange otherwise); grid is two positive multiples
    of 4 (GridMisaligned otherwise), so the quarter-point thresholds fall on
    cell boundaries, and at most MAX_GRID (InputOutOfRange otherwise, before
    any allocation).  Returns the family and its exact correlators.

    Pair (alpha, beta) with target t gets the density 1 + t*c, where
    c[i, j] is the product of the two observables' signs on cell (i, j).  On
    a quarter-aligned grid each observable is +1 on half of its columns and
    -1 on the other half, so c is orthogonal to the constraint rows (the
    total and both marginals) and c*c = 1: the mass is 1, both marginals are
    0 and the correlator is t, while |t| <= 1 keeps 1 + t*c >= 0.  It is the
    limit of projected ascent from the uniform density, which moves only
    along c and never clips.
    """
    if isinstance(targets, np.ndarray):
        targets = targets.tolist()
    if not (
        isinstance(targets, Sequence) and len(targets) == len(PAIRS)
        and all(_is_real(t) and -1 <= t <= 1 for t in targets)
    ):
        raise InputOutOfRange(f"need four real targets in [-1, 1], got {_show(targets)}")
    if not (
        isinstance(grid, Sequence) and len(grid) == 2
        and all(_is_int(n) and n > 0 and n % 4 == 0 for n in grid)
    ):
        raise GridMisaligned(f"grid {_show(grid)} is not two positive multiples of 4")
    if max(grid) > MAX_GRID:
        raise InputOutOfRange(f"grid {_show(grid)} has more than {MAX_GRID} cells a side")
    nx, ny = grid
    c = np.outer(_band_signs(nx), _band_signs(ny))
    family = ChshFamily(*(
        GridDensity(setting_interval(alpha), setting_interval(beta), 1.0 + float(t) * c)
        for (alpha, beta), t in zip(PAIRS, targets)
    ))
    return family, family.expectations()


def random_classical_instance(rng: np.random.Generator):
    """Random ±1 step functions on shared domains plus a random density.

    Feeds the randomized |S| <= 2 oracle suite: all four observables live on
    (0,1) (modulo excluded breakpoints), so the classical bound applies.
    """

    def random_rv(axis: str) -> PartialRV:
        k = int(rng.integers(0, 4))
        cuts = np.unique(rng.random(k))
        boundaries = [0.0, *cuts.tolist(), 1.0]
        values = rng.choice([-1.0, 1.0], size=len(boundaries) - 1)
        return make_step(boundaries, values, axis)

    a0, a1 = random_rv("x"), random_rv("x")
    b0, b1 = random_rv("y"), random_rv("y")
    nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    rho = GridDensity(Interval(0.0, 1.0), Interval(0.0, 1.0), rng.random((nx, ny)) + 1e-3)
    return a0, a1, b0, b1, rho


def _same_domain(f: PartialRV, g: PartialRV) -> bool:
    """m(f) = m(g) = m(f ∩ g), each within _same_measure's slack."""
    f_domain, g_domain = f.domain, g.domain
    common = f_domain.intersect(g_domain).measure()
    return _same_measure(f_domain.measure(), common) and _same_measure(g_domain.measure(), common)


def classical_bound_check(
    a0: PartialRV, a1: PartialRV, b0: PartialRV, b1: PartialRV, rho: GridDensity
) -> float:
    """S from ONE shared density over a common pair of domains; |S| <= 2.

    Each observable is integrated once per grid cell of its axis, and S is
    the textbook CHSH factorization E[a0·(b0 + b1)] + E[a1·(b0 − b1)]: a0
    and a1 are each paired with both b0 and b1 under the one density.  That
    step needs all four observables on one domain, so DomainMismatch is
    raised when a0, a1 (or b0, b1) do not share theirs, or when one does not
    cover rho's rectangle.  This is exactly the obstruction that blocks the
    bound for disjoint domains.
    """
    for f, g, side in ((a0, a1, "Alice's"), (b0, b1, "Bob's")):
        if not _same_domain(f, g):
            raise DomainMismatch(f"{f.domain!r} vs {g.domain!r} on {side} axis")
    xe, ye = rho.x_edges(), rho.y_edges()
    with np.errstate(over="ignore", invalid="ignore"):
        i_aw = [_axis_integrals(rv, xe, rho.x_rect, "x") @ rho.weights for rv in (a0, a1)]
        i_b = [_axis_integrals(rv, ye, rho.y_rect, "y") for rv in (b0, b1)]
        # The common-domain assumption is used here: one density and one pair of
        # domains, so each a[alpha] integral is paired with both b[beta] integrals.
        es = [float(i_aw[alpha] @ i_b[beta]) for alpha, beta in PAIRS]
    if not _finite(*es):
        raise NonFiniteInput("correlators of the observables under the density overflow")
    return chsh_value(*es)
