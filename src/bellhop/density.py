"""Piecewise-constant joint densities on a rectangle, with exact integration.

Both the observables and the densities are piecewise constant, so every
expectation is a finite sum over the grid cells of per-cell integrals of the
observables.  There is no quadrature error; excluded breakpoints have
measure zero and are ignored.  _correlators is the one place where the
observables' per-cell integrals meet the weights (the outcome-class law is
ChshFamily's own product), and holds the exact layer's one overflow check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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
from .steprv import PartialRV, _overlap

# Slack for float round-off in sums of masses, probabilities and correlators.
ROUND_OFF = 1e-12


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Normalized nx-by-ny piecewise-constant density on x_rect × y_rect.

    weights[ix, iy] is the density value on the (ix, iy) cell; the row-major
    flattening (ix*ny + iy) matches the JSON wire format.  A uniform density is
    GridDensity(x_rect, y_rect, [[1.0]]).  The constructor rescales the given
    nonnegative weights so the density integrates to 1 and keeps a read-only copy,
    its mass summed over the cells' float edges, those edges, read-only, for x_edges
    and y_edges to return without rebuilding them, and its rectangle's ends as
    floats, so x_rect, x_edges and to_dict agree and from_dict(to_dict()), through
    JSON too, holds for every accepted rectangle, 2**53 + 1 or np.float32 ends among
    them.

    A rectangle that is not an Interval, or a weight or rectangle end that is no
    number (errors._is_real: text and bools are not), raises MalformedInput, and so
    do weights that are no 2-d array with cells.  An empty side raises EmptyRect, a
    negative weight NegativeWeight and all-zero weights ZeroTotalMass.  A weight,
    total mass, rectangle endpoint or rescaled weight that is not a finite float
    raises NonFiniteInput instead of becoming a NaN, infinite or all-zero density,
    and edges that are not strictly increasing, as for 8 cells on (1e16, 1e16 + 4),
    MalformedInput.  A deep copy is the density itself, and unpickling restores the
    weights' and edges' bits, read-only, without renormalizing.
    """

    x_rect: Interval
    y_rect: Interval
    weights: np.ndarray  # shape (nx, ny), nonnegative, integrates to 1

    def __post_init__(self):
        x_rect, y_rect = self.x_rect, self.y_rect
        for key, rect in (("x_rect", x_rect), ("y_rect", y_rect)):
            if not isinstance(rect, Interval):
                raise MalformedInput(f"{key} must be an Interval, got {type(rect).__name__}")
        if not all(map(_is_real, (x_rect.lo, x_rect.hi, y_rect.lo, y_rect.hi))):
            raise MalformedInput(f"rectangle {x_rect!r} × {y_rect!r} has an end that is no number")
        if x_rect.is_empty() or y_rect.is_empty():
            raise EmptyRect(f"{x_rect!r} × {y_rect!r}")
        w = self.weights
        if not (isinstance(w, np.ndarray) and w.dtype.kind in "fiu"):
            # value by value, as numpy would read "1.5" or True as a float
            w = np.array(w, dtype=object)
            if not all(map(_is_real, w.flat)):
                raise MalformedInput(f"weights on {x_rect!r} × {y_rect!r} must be numbers")
            if not _finite(*(v for v in w.flat if not isinstance(v, float))):  # 10**400
                raise NonFiniteInput(f"weights on {x_rect!r} × {y_rect!r} not finite")
        w = np.array(w, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise MalformedInput(f"weights must be a 2-d array with cells, got shape {w.shape}")
        if np.any(w < 0):
            raise NegativeWeight("density weights must be nonnegative")
        nx, ny = w.shape
        total = np.inf  # an end that is not finite gives no cell area
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN
            if _finite(x_rect.lo, x_rect.hi, y_rect.lo, y_rect.hi, float(w.sum())):
                # kept as the floats it computes with, once _finite: float(10**400) raises
                x_rect, y_rect = (Interval(float(r.lo), float(r.hi)) for r in (x_rect, y_rect))
                xe, ye = _edges(x_rect, nx), _edges(y_rect, ny)
                dx, dy = xe[1:] - xe[:-1], ye[1:] - ye[:-1]
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
        for array in (w, xe, ye):
            array.setflags(write=False)
        for key, value in (("x_rect", x_rect), ("y_rect", y_rect), ("weights", w),
                           ("_x_edges", xe), ("_y_edges", ye)):
            object.__setattr__(self, key, value)

    def __deepcopy__(self, memo) -> "GridDensity":
        return self  # immutable: its weights are read-only

    def __setstate__(self, state: dict) -> None:
        """Unpickle without the constructor, whose renormalization could change the weights'
        bits, and make the weights and edges read-only again."""
        for key in ("weights", "_x_edges", "_y_edges"):
            state[key].setflags(write=False)
        self.__dict__.update(state)

    @property
    def nx(self) -> int:
        return self.weights.shape[0]

    @property
    def ny(self) -> int:
        return self.weights.shape[1]

    def x_edges(self) -> np.ndarray:
        return self._x_edges

    def y_edges(self) -> np.ndarray:
        return self._y_edges

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


def _reals(value, n: int, key: str) -> np.ndarray:
    """A density field that must be a list of n numbers that floats hold exactly."""
    shaped = isinstance(value, (list, tuple)) and len(value) == n
    if shaped and set(map(type, value)) == {float}:
        return np.array(value, dtype=float)  # every rule below holds; NaN, ±inf are GridDensity's
    if not (shaped and all(map(_is_real, value))):
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


def _correlators(fs, gs, rho: GridDensity) -> list:
    """[[E[f·g] for g in gs] for f in fs] under rho, f on x and g on y, None the constant 1,
    each as (i_f @ W) @ i_g: the one contraction with the weights.  The pieces of fs and then
    gs are overlapped once with the x cells and then the y cells, and each observable's
    integrals, bit for bit what integrating it alone gives, and covered length are read
    from its own block of those lengths; a side of only None needs no pieces.
    DomainMismatch names the first of fs, then of gs, not defined a.e. on its side of rho's
    rectangle (_same_measure), and NonFiniteInput an overflow."""
    xe, ye, w, nx = rho.x_edges(), rho.y_edges(), rho.weights, rho.nx
    rvs = [rv for rv in (*fs, *gs) if rv is not None]
    ends = [0, *accumulate(len(rv.pieces) for rv in rvs)]
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.concatenate((xe, ye))
        lo, hi, values = _overlap(grid[:-1], grid[1:], rvs)
        lengths = np.maximum(hi - lo, 0.0)
        # per rv, its covered length on the x cells, on row nx (x's last edge to y's first,
        # no cell) and on the y cells
        covered = np.add.reduceat(np.add.reduceat(lengths, (0, nx, nx + 1)), ends[:-1], axis=1)
        blocks = iter(zip(ends, ends[1:], covered.T.tolist()))
        i_f, i_g = [], []
        for side, out, edges, rect, axis, cells, row in (
                (fs, i_f, xe, rho.x_rect, "x", lengths[:nx], 0),
                (gs, i_g, ye, rho.y_rect, "y", lengths[nx + 1:], 2)):
            for rv in side:
                if rv is None:
                    out.append(np.diff(edges))
                    continue
                i, j, on = next(blocks)
                if not _same_measure(on[row], rect.length):
                    raise DomainMismatch(
                        f"{axis}-rectangle {rect!r} not a.e. inside domain {rv.domain!r}")
                out.append(cells[:, i:j] @ values[i:j])
        es = [[float(fw @ ig) for ig in i_g] for fw in (i @ w for i in i_f)]
    if not _finite(*(e for row in es for e in row)):
        raise NonFiniteInput(f"correlators on {rho.x_rect!r} × {rho.y_rect!r} overflow")
    return es


def _integrate(f: PartialRV, g: PartialRV, rho: GridDensity):
    """Exact (E[fg], E[f], E[g]) under rho from per-cell integrals; NonFiniteInput on overflow."""
    (fg, f1), (g1, _) = _correlators((f, None), (g, None), rho)
    return fg, f1, g1


def expectation(f: PartialRV, g: PartialRV, rho: GridDensity) -> float:
    """Exact ∬ f(x) g(y) ρ(x,y) dx dy: DomainMismatch unless f and g cover rho's rectangle
    a.e., NonFiniteInput when the moment overflows."""
    return _integrate(f, g, rho)[0]
