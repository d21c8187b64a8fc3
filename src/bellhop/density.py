"""Piecewise-constant joint densities on a rectangle, with exact integration.

Both the observables and the densities are piecewise constant, so every
expectation is a finite sum over the grid cells of per-cell integrals of the
observables.  There is no quadrature error; excluded breakpoints have
measure zero and are ignored.  With class indicators in place of values, the
same contraction gives the outcome-class law the Monte-Carlo engine draws.
_refine_axis cuts one axis of the grid also at given breakpoints, so that an
observable is constant on every refined cell, for the event log's points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    EmptyRect,
    MalformedInput,
    NegativeWeight,
    NonFiniteInput,
    ZeroTotalMass,
    _finite,
    _is_int,
    _is_real,
    _show,
)
from .intervals import Interval
from .steprv import PartialRV

# Slack for float round-off in sums of masses, probabilities and correlators.
ROUND_OFF = 1e-12


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Normalized nx-by-ny piecewise-constant density on x_rect × y_rect.

    weights[ix, iy] is the density value on the (ix, iy) cell; the row-major
    flattening (ix*ny + iy) matches the JSON wire format.  The constructor
    rescales the given nonnegative weights so the density integrates to 1 and
    keeps a read-only copy, its mass summed over the cells' float edges.  A
    weight, total mass, rectangle endpoint or rescaled weight that is not a
    finite float raises NonFiniteInput instead of becoming a NaN, infinite or
    all-zero density, and edges that are not strictly increasing MalformedInput.
    """

    x_rect: Interval
    y_rect: Interval
    weights: np.ndarray  # shape (nx, ny), nonnegative, integrates to 1

    def __post_init__(self):
        x_rect, y_rect = self.x_rect, self.y_rect
        if x_rect.is_empty() or y_rect.is_empty():
            raise EmptyRect(f"{x_rect!r} × {y_rect!r}")
        w = np.array(self.weights)
        # numpy keeps numbers it has no type for, such as 10**400, as objects
        if w.dtype == object and not _finite(*filter(_is_real, w.flat)):
            raise NonFiniteInput(f"weights on {x_rect!r} × {y_rect!r} not finite")
        w = w.astype(float, copy=False)
        if w.ndim != 2 or w.size == 0:
            raise MalformedInput(f"weights must be a 2-d array with cells, got shape {w.shape}")
        if np.any(w < 0):
            raise NegativeWeight("density weights must be nonnegative")
        nx, ny = w.shape
        total = np.inf  # an end that is not finite gives no cell area
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN
            if _finite(x_rect.lo, x_rect.hi, y_rect.lo, y_rect.hi, float(w.sum())):
                dx, dy = (e[1:] - e[:-1] for e in (_edges(x_rect, nx), _edges(y_rect, ny)))
                total = float((w * (dx[:, None] * dy)).sum())
            if not _finite(total):
                raise NonFiniteInput(f"weights or rectangle {x_rect!r} × {y_rect!r} not finite")
            if min(dx.min(), dy.min()) <= 0.0:
                raise MalformedInput(f"{nx}x{ny} cells on {x_rect!r} × {y_rect!r} are too "
                                     "narrow for floats: some edges coincide")
            if total <= 0.0:
                raise ZeroTotalMass("density weights sum to zero")
            w /= total
        if not np.isfinite(w).all():  # the cells are too small for their mass
            raise NonFiniteInput(f"density on {x_rect!r} × {y_rect!r} overflows")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def nx(self) -> int:
        return self.weights.shape[0]

    @property
    def ny(self) -> int:
        return self.weights.shape[1]

    def x_edges(self) -> np.ndarray:
        return _edges(self.x_rect, self.nx)

    def y_edges(self) -> np.ndarray:
        return _edges(self.y_rect, self.ny)

    def to_dict(self) -> dict:
        return {
            "x_rect": [self.x_rect.lo, self.x_rect.hi],
            "y_rect": [self.y_rect.lo, self.y_rect.hi],
            "nx": self.nx,
            "ny": self.ny,
            "weights": self.weights.reshape(-1).tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "GridDensity":
        x_rect, y_rect, nx, ny, weights = _fields(
            d, "density", ("x_rect", "y_rect", "nx", "ny", "weights")
        )
        for key, n in (("nx", nx), ("ny", ny)):
            if not _is_int(n) or n < 1:
                raise MalformedInput(f"density {key} must be a positive integer, got {_show(n)}")
        x_lo, x_hi = _reals(x_rect, 2, "x_rect").tolist()
        y_lo, y_hi = _reals(y_rect, 2, "y_rect").tolist()
        w = _reals(weights, nx * ny, "weights").reshape(nx, ny)
        return GridDensity(Interval(x_lo, x_hi), Interval(y_lo, y_hi), w)


def _edges(rect: Interval, n: int) -> np.ndarray:
    """The edges of n equal cells on rect: lo + k·(length / n), the last one hi."""
    edges = rect.lo + rect.length / n * np.arange(n + 1)
    edges[-1] = rect.hi
    return edges


def _refine_axis(grid: np.ndarray, rect: Interval, cuts):
    """Edges of grid cut also at the cuts inside rect, with each refined
    cell's grid cell and its width, 0 where no float lies strictly inside."""
    edges = np.unique(np.concatenate([grid, [c for c in cuts if rect.lo < c < rect.hi]]))
    lo, hi = edges[:-1], edges[1:]
    cells = np.minimum(np.searchsorted(grid, lo, side="right") - 1, len(grid) - 2)
    return edges, cells, np.where(np.nextafter(lo, hi) < hi, hi - lo, 0.0)


def _reals(value, n: int, key: str) -> np.ndarray:
    """A density field that must be a list of n numbers that floats hold exactly."""
    if not (isinstance(value, (list, tuple)) and len(value) == n and all(map(_is_real, value))):
        raise MalformedInput(f"density {key} must be a list of {_show(n)} numbers")
    # only a non-float can lack a float; a NaN or ±inf is left to GridDensity
    if not _finite(*value) and not _finite(*(v for v in value if not isinstance(v, float))):
        raise NonFiniteInput(f"density {key} not finite: int too large to convert to float")
    if any(isinstance(v, int) and float(v) != v for v in value):  # 2**53 + 1 would round
        raise MalformedInput(f"density {key} holds an integer that no float equals")
    return np.array(value, dtype=float)


def _fields(d, what: str, keys) -> list:
    """d[key] for each key, or MalformedInput naming what is wrong with d."""
    if not isinstance(d, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [key for key in keys if key not in d]
    if missing:
        raise MalformedInput(f"{what} lacks key(s) {', '.join(missing)}")
    return [d[key] for key in keys]


def _same_measure(a: float, b: float) -> bool:
    """a = b within ROUND_OFF of the larger magnitude: the "almost everywhere" slack."""
    return abs(a - b) <= ROUND_OFF * max(abs(a), abs(b))


def _axis_integrals(rv: PartialRV, edges: np.ndarray, rect: Interval, axis: str):
    """rv's integral over each grid cell of one axis; rv must exist a.e. on rect."""
    integrals, covered = rv.cell_integrals(edges)
    if not _same_measure(float(covered.sum()), rect.length):
        raise DomainMismatch(f"{axis}-rectangle {rect!r} not a.e. inside domain {rv.domain!r}")
    return integrals


def _integrate(f: PartialRV, g: PartialRV, rho: GridDensity):
    """Exact (E[fg], E[f], E[g]) under rho from per-cell integrals; NonFiniteInput on overflow."""
    xe, ye, w = rho.x_edges(), rho.y_edges(), rho.weights
    with np.errstate(over="ignore", invalid="ignore"):
        i_fw = _axis_integrals(f, xe, rho.x_rect, "x") @ w
        i_g = _axis_integrals(g, ye, rho.y_rect, "y")
        moments = float(i_fw @ i_g), float(i_fw @ np.diff(ye)), float(np.diff(xe) @ w @ i_g)
    if not _finite(*moments):
        raise NonFiniteInput(f"moments of {f.domain!r} × {g.domain!r} overflow")
    return moments


def expectation(f: PartialRV, g: PartialRV, rho: GridDensity) -> float:
    """Exact ∬ f(x) g(y) ρ(x,y) dx dy."""
    return _integrate(f, g, rho)[0]
