"""CHSH functional, trivial-bound saturation, and the common-domain contrast.

Four unrelated densities, one per setting pair, make the four correlators
independently tunable: the only surviving bound is |S| <= 4, and it is
saturated with all marginal means exactly zero.  When one density lies where
all four observables exist almost everywhere, the classical argument applies
and |S| <= 2; classical_bound_check embodies that contrast.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .density import ROUND_OFF, GridDensity, _correlators, _fields, _integrate
from .errors import (
    DomainMismatch, GridMisaligned, InputOutOfRange, MalformedInput, _is_int, _is_real, _show,
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
    """One density per setting pair, on a rectangle its pair's observables cover a.e.

    Each field must be a GridDensity, else MalformedInput naming it.  The constructor
    integrates each pair once, and expectations, marginals, summary and to_dict read
    that pass.  Where the domain rule fails it raises DomainMismatch naming the pair,
    such as "rho10: x-rectangle (0,1) not a.e. inside domain
    (1,1.25)∪(1.25,1.75)∪(1.75,2)"; a rectangle inside the domains, such as
    (0.25, 0.75) × (0, 1) for pair 00, is accepted.  _moments holds (E[ab], E[a], E[b])
    per pair in PAIRS order and _class_law each pair's (a_values, b_values, classes),
    both sides' sorted distinct outcomes as int64 and P(a = a_values[i], b = b_values[j])
    = Aᵀ·W·B normalized, A[g, i] the length of grid column g where a = a_values[i], as
    read-only arrays.  The law is its own product, not _correlators', as the pinned
    summaries and logs were drawn from that product's rounding, and class lengths
    cannot overflow.
    """

    rho00: GridDensity
    rho10: GridDensity
    rho01: GridDensity
    rho11: GridDensity

    def __post_init__(self):
        moments, law = [], []
        for (alpha, beta), rho in zip(PAIRS, self.densities()):
            if not isinstance(rho, GridDensity):
                raise MalformedInput(f"rho{alpha}{beta} must be a GridDensity, "
                                     f"got {type(rho).__name__}")
            f, g = self.observables(alpha, beta)
            try:
                moments.append(_integrate(f, g, rho))
            except DomainMismatch as err:
                raise DomainMismatch(f"rho{alpha}{beta}: {err}") from None
            a_values, a_lengths = f.value_lengths(rho.x_edges())
            b_values, b_lengths = g.value_lengths(rho.y_edges())
            classes = a_lengths.T @ rho.weights @ b_lengths
            pair = (a_values.astype(np.int64), b_values.astype(np.int64), classes / classes.sum())
            for array in pair:
                array.setflags(write=False)
            law.append(pair)
        object.__setattr__(self, "_moments", tuple(moments))
        object.__setattr__(self, "_class_law", tuple(law))

    def __reduce__(self):
        """Copy or pickle through the constructor, so a copy computes its own moments and law."""
        return ChshFamily, self.densities()

    def densities(self) -> Tuple[GridDensity, ...]:
        return tuple(getattr(self, f"rho{alpha}{beta}") for alpha, beta in PAIRS)

    def observables(self, alpha: int, beta: int) -> Tuple[PartialRV, PartialRV]:
        return OBSERVABLES[0][alpha], OBSERVABLES[1][beta]

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
    """Signed CHSH combination e00 + e10 + e01 - e11 of four real, non-bool correlators in
    [-1, 1] (within ROUND_OFF), else InputOutOfRange."""
    for e in (e00, e10, e01, e11):
        if not (_is_real(e) and abs(e) <= 1.0 + ROUND_OFF):  # a NaN is out of range too
            raise InputOutOfRange(f"correlator {_show(e)} is not a real number in [-1, 1]")
    return e00 + e10 + e01 - e11


def _band_signs(n: int) -> np.ndarray:
    """a0's value per column of a quarter-aligned n-cell grid on (0, 1), read at the
    column midpoints, which lie inside a0's quarter bands."""
    return OBSERVABLES[0][0].eval_many((np.arange(n) + 0.5) / n)[0]


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
    any allocation).  Each is a sequence or a 1-d numpy array.  Returns the
    family and its exact correlators.

    Pair (alpha, beta) with target t gets the density 1 + t*c, where
    c[i, j] is the product of the two observables' signs on cell (i, j).  On
    a quarter-aligned grid each observable is +1 on half of its columns and
    -1 on the other half, so c is orthogonal to the constraint rows (the
    total and both marginals) and c*c = 1: the mass is 1, both marginals are
    0 and the correlator is t, while |t| <= 1 keeps 1 + t*c >= 0.  It is the
    limit of projected ascent from the uniform density, which moves only
    along c and never clips.
    """
    targets, grid = (x.tolist() if isinstance(x, np.ndarray) else x for x in (targets, grid))
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
        cuts = sorted(set(rng.random(k).tolist()))  # not np.unique, which imports numpy.ma
        boundaries = [0.0, *cuts, 1.0]
        # rng.choice([-1.0, 1.0], size=...)'s draws, without its per-call overhead
        values = np.array([-1.0, 1.0])[rng.integers(0, 2, size=len(boundaries) - 1)]
        return make_step(boundaries, values, axis)

    a0, a1 = random_rv("x"), random_rv("x")
    b0, b1 = random_rv("y"), random_rv("y")
    nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    rho = GridDensity(Interval(0.0, 1.0), Interval(0.0, 1.0), rng.random((nx, ny)) + 1e-3)
    return a0, a1, b0, b1, rho


def classical_bound_check(
    a0: PartialRV, a1: PartialRV, b0: PartialRV, b1: PartialRV, rho: GridDensity
) -> float:
    """S from ONE shared density on whose rectangle all four observables exist a.e.; |S| <= 2.

    Each observable is integrated once per grid cell of its axis, and S is
    the textbook CHSH factorization E[a0·(b0 + b1)] + E[a1·(b0 − b1)], whose
    integrand lies in [-2, 2] pointwise.  DomainMismatch, as for a family's
    pair, when an observable does not cover rho's rectangle a.e.: the
    obstruction that blocks the bound for disjoint domains.  Outside the
    rectangle the domains may differ, and an observable gives, bit for bit, the
    S of its pieces cut to the rectangle.  NonFiniteInput when a correlator
    overflows.
    """
    # The one-density assumption is used here: each a[alpha] integral is paired with both
    # b[beta] integrals, which holds because all four observables cover rho's rectangle a.e.
    es = _correlators((a0, a1), (b0, b1), rho)
    return chsh_value(*(es[alpha][beta] for alpha, beta in PAIRS))
