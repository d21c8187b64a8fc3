"""Piecewise-constant joint densities on a rectangle, with exact integration.

Both the observables and the densities are piecewise constant, so every
expectation is a finite sum over the grid cells of per-cell integrals of the
observables.  There is no quadrature error; excluded breakpoints have
measure zero and are ignored.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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
        try:
            x_lo, x_hi = map(float, x_rect)
            y_lo, y_hi = map(float, y_rect)
            w = np.asarray(weights, dtype=float).reshape(operator.index(nx), operator.index(ny))
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"density field of wrong type or shape: {exc}") from exc
        return make_grid_density(Interval(x_lo, x_hi), Interval(y_lo, y_hi), w)


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

    A NaN or infinite weight, total mass or rectangle endpoint raises
    NonFiniteInput instead of becoming a NaN or all-zero density.
    """
    if x_rect.is_empty() or y_rect.is_empty():
        raise EmptyRect(f"{x_rect!r} × {y_rect!r}")
    w = np.array(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError("weights must be a 2-d array")
    if np.any(w < 0):
        raise NegativeWeight("density weights must be nonnegative")
    nx, ny = w.shape
    cell_area = (x_rect.length / nx) * (y_rect.length / ny)
    total = float(np.sum(w)) * cell_area
    if not all(map(math.isfinite, (x_rect.lo, x_rect.hi, y_rect.lo, y_rect.hi, total))):
        raise NonFiniteInput(f"weights or rectangle {x_rect!r} × {y_rect!r} not finite")
    if total <= 0.0:
        raise ZeroTotalMass("density weights sum to zero")
    return GridDensity(x_rect, y_rect, w / total)


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


def sample_many(rho: GridDensity, rng: np.random.Generator, n: int):
    """Draw n points from rho: cell by cumulative-weight inversion, then
    uniform within the cell."""
    probs = rho.cell_probabilities().reshape(-1)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    cells = np.searchsorted(cum, rng.random(n), side="right")
    ix, iy = np.divmod(cells, rho.ny)
    xs = rho.x_rect.lo + (ix + rng.random(n)) * rho.cell_width
    ys = rho.y_rect.lo + (iy + rng.random(n)) * rho.cell_height
    return xs, ys
