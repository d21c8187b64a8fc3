"""Piecewise-constant joint densities on a rectangle, with exact integration.

Both the observables and the densities are piecewise constant, so every
expectation is a finite sum over cells refined against the observables'
breakpoints.  There is no quadrature error; excluded breakpoints have
measure zero and are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainMismatch, EmptyRect, NegativeWeight, NonFiniteInput, ZeroTotalMass
from .intervals import DomainSet, Interval
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
        nx, ny = int(d["nx"]), int(d["ny"])
        weights = np.asarray(d["weights"], dtype=float).reshape(nx, ny)
        return make_grid_density(
            Interval(*map(float, d["x_rect"])),
            Interval(*map(float, d["y_rect"])),
            weights,
        )


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


def _check_covered(rv: PartialRV, rect: Interval, axis: str) -> None:
    covered = rv.domain.intersect(DomainSet.interval(rect.lo, rect.hi)).measure()
    if abs(covered - rect.length) > ROUND_OFF:
        raise DomainMismatch(
            f"{axis}-rectangle {rect!r} not a.e. inside domain {rv.domain!r}"
        )


def _refined_axis(rv: PartialRV, grid_edges: np.ndarray, rect: Interval):
    """Edges refined against rv's breakpoints, plus per-cell rv values."""
    cuts = [p for p in rv.breakpoints() if rect.lo < p < rect.hi]
    edges = np.unique(np.concatenate([grid_edges, np.asarray(cuts)]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.array([rv.eval(m) for m in mids])
    grid_idx = np.clip(np.searchsorted(grid_edges, mids) - 1, 0, len(grid_edges) - 2)
    return edges, vals, grid_idx


def _integrate(f: PartialRV, g: PartialRV, rho: GridDensity):
    """Exact (E[fg], E[f], E[g]) under rho by breakpoint refinement."""
    _check_covered(f, rho.x_rect, "x")
    _check_covered(g, rho.y_rect, "y")
    xe, fv, xi = _refined_axis(f, rho.x_edges(), rho.x_rect)
    ye, gv, yi = _refined_axis(g, rho.y_edges(), rho.y_rect)
    ax = np.diff(xe)
    ay = np.diff(ye)
    w = rho.weights[np.ix_(xi, yi)]
    mass = w * np.outer(ax, ay)
    e_fg = float(fv @ mass @ gv)
    e_f = float(fv @ mass.sum(axis=1))
    e_g = float(mass.sum(axis=0) @ gv)
    return e_fg, e_f, e_g


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
