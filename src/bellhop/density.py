"""Piecewise-constant joint densities on a rectangle, with exact integration
and O(1)-per-draw sampling.

Both the observables and the densities are piecewise constant, so every
expectation is a finite sum over the grid cells of per-cell integrals of the
observables.  There is no quadrature error; excluded breakpoints have
measure zero and are ignored.  Sampling picks a cell with Walker's alias
method, from a table each density builds on its first draw, then a uniform
point in the cell.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import (
    DomainMismatch,
    EmptyRect,
    MalformedInput,
    NegativeWeight,
    NonFiniteInput,
    ZeroTotalMass,
)
from .intervals import Interval
from .steprv import PartialRV

# Slack for float round-off in sums of masses, probabilities and correlators.
ROUND_OFF = 1e-12


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Normalized nx-by-ny piecewise-constant density on x_rect × y_rect.

    weights[ix, iy] is the density value on the (ix, iy) cell; the row-major
    flattening (ix*ny + iy) matches the JSON wire format.
    """

    x_rect: Interval
    y_rect: Interval
    weights: np.ndarray  # shape (nx, ny), nonnegative, integrates to 1

    def __post_init__(self):
        self.weights.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.weights.shape[0]

    @property
    def ny(self) -> int:
        return self.weights.shape[1]

    @property
    def cell_width(self) -> float:
        return (self.x_rect.hi - self.x_rect.lo) / self.nx

    @property
    def cell_height(self) -> float:
        return (self.y_rect.hi - self.y_rect.lo) / self.ny

    def x_edges(self) -> np.ndarray:
        return self.x_rect.lo + self.cell_width * np.arange(self.nx + 1)

    def y_edges(self) -> np.ndarray:
        return self.y_rect.lo + self.cell_height * np.arange(self.ny + 1)

    def cell_probabilities(self) -> np.ndarray:
        return self.weights * (self.cell_width * self.cell_height)

    @cached_property
    def _alias(self) -> Tuple[np.ndarray, np.ndarray]:
        """(keep, alias) over the row-major cells, built on the first draw.

        Threads that race on the first draw each build the same table (the
        build is deterministic), and the last one built stays cached.
        """
        return _alias_table(self.cell_probabilities().reshape(-1))

    def to_dict(self) -> dict:
        return {
            "x_rect": [self.x_rect.lo, self.x_rect.hi],
            "y_rect": [self.y_rect.lo, self.y_rect.hi],
            "nx": self.nx,
            "ny": self.ny,
            "weights": [float(w) for w in self.weights.reshape(-1)],
        }

    @staticmethod
    def from_dict(d: dict) -> "GridDensity":
        x_rect, y_rect, nx, ny, weights = _fields(
            d, "density", ("x_rect", "y_rect", "nx", "ny", "weights")
        )
        for key, n in (("nx", nx), ("ny", ny)):
            if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
                raise MalformedInput(f"density {key} must be a positive integer, got {n!r}")
        x_lo, x_hi = _reals(x_rect, 2, "x_rect").tolist()
        y_lo, y_hi = _reals(y_rect, 2, "y_rect").tolist()
        w = _reals(weights, nx * ny, "weights").reshape(nx, ny)
        return make_grid_density(Interval(x_lo, x_hi), Interval(y_lo, y_hi), w)


def _reals(value, n: int, key: str) -> np.ndarray:
    """A density field that must be a list of n numbers, as floats."""
    if not (
        isinstance(value, (list, tuple)) and len(value) == n
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise MalformedInput(f"density {key} must be a list of {n} numbers")
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise NonFiniteInput(f"density {key} not finite: {exc}") from exc


def _fields(d, what: str, keys) -> list:
    """d[key] for each key, or MalformedInput naming what is wrong with d."""
    if not isinstance(d, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise MalformedInput(f"{what} lacks key(s) {', '.join(missing)}")
    return [d[key] for key in keys]


def make_grid_density(x_rect: Interval, y_rect: Interval, weights) -> GridDensity:
    """Rescale nonnegative weights so the density integrates to 1.

    A NaN or infinite weight, total mass, rectangle endpoint or rescaled
    weight raises NonFiniteInput instead of becoming a NaN, infinite or
    all-zero density.
    """
    if x_rect.is_empty() or y_rect.is_empty():
        raise EmptyRect(f"{x_rect!r} × {y_rect!r}")
    w = np.array(weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise MalformedInput(f"weights must be a 2-d array with cells, got shape {w.shape}")
    if np.any(w < 0):
        raise NegativeWeight("density weights must be nonnegative")
    nx, ny = w.shape
    cell_area = (x_rect.length / nx) * (y_rect.length / ny)
    # an overflow gives inf, which the checks below reject as NonFiniteInput
    with np.errstate(over="ignore"):
        total = float(np.sum(w)) * cell_area
    if not all(map(math.isfinite, (x_rect.lo, x_rect.hi, y_rect.lo, y_rect.hi, total))):
        raise NonFiniteInput(f"weights or rectangle {x_rect!r} × {y_rect!r} not finite")
    if total <= 0.0:
        raise ZeroTotalMass("density weights sum to zero")
    with np.errstate(over="ignore"):
        w /= total
    if not np.isfinite(w).all():  # the cells are too small for their mass
        raise NonFiniteInput(f"density on {x_rect!r} × {y_rect!r} overflows")
    return GridDensity(x_rect, y_rect, w)


def uniform_density(x_rect: Interval, y_rect: Interval) -> GridDensity:
    """Single-cell density with constant value 1/area."""
    return make_grid_density(x_rect, y_rect, np.ones((1, 1)))


def _axis_integrals(rv: PartialRV, edges: np.ndarray, rect: Interval, axis: str):
    """rv's integral over each grid cell of one axis; rv must exist a.e. on rect."""
    integrals, covered = rv.cell_integrals(edges)
    if abs(covered.sum() - rect.length) > ROUND_OFF:
        raise DomainMismatch(
            f"{axis}-rectangle {rect!r} not a.e. inside domain {rv.domain!r}"
        )
    return integrals


def _integrate(f: PartialRV, g: PartialRV, rho: GridDensity):
    """Exact (E[fg], E[f], E[g]) under rho from per-cell integrals."""
    xe, ye = rho.x_edges(), rho.y_edges()
    i_f = _axis_integrals(f, xe, rho.x_rect, "x")
    i_g = _axis_integrals(g, ye, rho.y_rect, "y")
    w = rho.weights
    return float(i_f @ w @ i_g), float(i_f @ w @ np.diff(ye)), float(np.diff(xe) @ w @ i_g)


def expectation(f: PartialRV, g: PartialRV, rho: GridDensity) -> float:
    """Exact ∬ f(x) g(y) ρ(x,y) dx dy."""
    return _integrate(f, g, rho)[0]


def marginal_means(f: PartialRV, g: PartialRV, rho: GridDensity) -> Tuple[float, float]:
    """Exact (∬ f ρ, ∬ g ρ)."""
    _, e_f, e_g = _integrate(f, g, rho)
    return e_f, e_g


def _alias_table(probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vose's alias table (Walker 1977; Vose 1991) for cell probabilities probs.

    Column i of the K = len(probs) equal columns is cell i with probability
    keep[i] and cell alias[i] otherwise, so cell c is drawn with probability
    (keep[c] + sum of 1 - keep[i] over the i with alias[i] = c) / K.  A
    zero-probability cell has keep 0 and is no cell's alias.
    """
    k = len(probs)
    scaled = (probs * k).tolist()
    keep, alias = [1.0] * k, list(range(k))
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        keep[s], alias[s] = scaled[s], big
        scaled[big] = (scaled[big] + scaled[s]) - 1.0
        if scaled[big] < 1.0:
            small.append(large.pop())
    # Columns left over are full up to round-off: keep 1, alias themselves.
    return np.array(keep), np.array(alias, dtype=np.intp)


def sample_many(rho: GridDensity, rng: np.random.Generator, n: int):
    """Draw n points from rho: a cell by the alias method, then a uniform
    point within the cell.

    Three uniforms per point.  The first, times K cells, picks column
    i = floor(u*K) and keeps cell i when its fraction u*K - i is below
    keep[i], else takes alias[i]; the other two place the point in the cell.
    """
    keep, alias = rho._alias
    k = len(keep)
    j = rng.random(n) * k
    i = np.minimum(j.astype(np.intp), k - 1)
    cells = np.where(j - i < keep[i], i, alias[i])
    ix, iy = np.divmod(cells, rho.ny)
    xs = rho.x_rect.lo + (ix + rng.random(n)) * rho.cell_width
    ys = rho.y_rect.lo + (iy + rng.random(n)) * rho.cell_height
    return xs, ys
