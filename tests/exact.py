"""Exact oracles for the exact layer and the event log's table, in Fractions.

Every observable is a step function and every density is piecewise constant, so each
moment, class probability and event-log cell probability is a finite sum of products of
floats: a dyadic rational that fractions.Fraction holds exactly.  Each function here
computes one from its definition and a pair's own inputs (its pieces' float ends and
values, its grid's float edges and its float weights), with no code of bellhop's exact
layer.  Each value comes with M, the sum of its terms' magnitudes, for the comparison
rule `within`: a float that bellhop computes must lie within (nx + ny + k)·ε·M of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

EPS = Fraction(1, 2**53)  # float64's unit round-off


class Exact(NamedTuple):
    value: Fraction
    magnitude: Fraction  # M: the sum of the |terms| whose sum is value


class Overlap(NamedTuple):
    """One nonempty overlap of a grid cell and a piece of an observable."""

    lo: float  # its ends, each a grid edge or a piece end
    hi: float
    cell: int
    value: float  # the piece's value
    length: Fraction  # hi - lo
    inside: bool  # some float lies strictly between lo and hi


class Cell(NamedTuple):
    """One event-log cell of a pair: an x overlap × a y overlap."""

    lo: tuple  # its lower (x, y) corner
    hi: tuple  # its upper corner
    mass: Fraction  # weight × area
    log_mass: Fraction  # mass, or 0 unless a float lies strictly inside on both axes


def overlaps(rv, edges) -> list:
    """Each nonempty overlap of a cell (edges[i], edges[i+1]) and a piece of rv, in axis order."""
    edges = [float(e) for e in edges]
    out = []
    for i, (e0, e1) in enumerate(zip(edges, edges[1:])):
        for iv, v in rv.pieces:
            lo, hi = max(e0, float(iv.lo)), min(e1, float(iv.hi))
            if lo < hi:
                inside = math.nextafter(lo, hi) < hi
                out.append(Overlap(lo, hi, i, float(v), Fraction(hi) - Fraction(lo), inside))
    return out


def terms(rho, *rvs) -> int:
    """nx + ny + k for the rule `within`: k counts the observables' pieces."""
    return rho.nx + rho.ny + sum(len(rv.pieces) for rv in rvs)


def within(got: float, want: Exact, n: int) -> bool:
    """|got − want| ≤ n·ε·M: exact equality where M is 0."""
    return abs(Fraction(got) - want.value) <= n * EPS * want.magnitude


def _weights(rho) -> list:
    return [[Fraction(w) for w in row] for row in rho.weights.tolist()]


def _widths(edges) -> list:
    edges = [Fraction(float(e)) for e in edges]
    return [hi - lo for lo, hi in zip(edges, edges[1:])]


def _cell_integrals(rv, edges) -> tuple:
    """∫ rv and ∫ |rv| over each cell, and the measure of rv's domain on all cells."""
    integral, magnitude = [Fraction(0)] * (len(edges) - 1), [Fraction(0)] * (len(edges) - 1)
    covered = Fraction(0)
    for o in overlaps(rv, edges):
        integral[o.cell] += o.length * Fraction(o.value)
        magnitude[o.cell] += o.length * abs(Fraction(o.value))
        covered += o.length
    return integral, magnitude, covered


def _moment(w, x, y) -> Exact:
    """Σ w[i, j]·x[i]·y[j] and its M, from per-cell (integral, magnitude) on each axis."""
    value = magnitude = Fraction(0)
    for w_i, xi, mxi in zip(w, *x):
        value += xi * sum(w_ij * yj for w_ij, yj in zip(w_i, y[0]))
        magnitude += mxi * sum(w_ij * yj for w_ij, yj in zip(w_i, y[1]))
    return Exact(value, magnitude)


def moments(f, g, rho):
    """(E[fg], E[f], E[g]) under rho, f on x and g on y: Σ w[i, j]·∫_i f·∫_j g and the like;
    None unless f and g cover their sides of rho's rectangle up to a finite set."""
    *i_f, x_covered = _cell_integrals(f, rho.x_edges())
    *i_g, y_covered = _cell_integrals(g, rho.y_edges())
    dx, dy = _widths(rho.x_edges()), _widths(rho.y_edges())
    if x_covered != sum(dx) or y_covered != sum(dy):
        return None
    w = _weights(rho)
    return _moment(w, i_f, i_g), _moment(w, i_f, (dy, dy)), _moment(w, (dx, dx), i_g)


def cells(f, g, rho) -> dict:
    """The event-log cells of one pair, keyed by their outcomes (a, b) in row-major order,
    each class's cells in row-major order too: x overlaps in axis order, then y overlaps."""
    xs, ys, w = overlaps(f, rho.x_edges()), overlaps(g, rho.y_edges()), _weights(rho)
    a_values, b_values = sorted({o.value for o in xs}), sorted({o.value for o in ys})
    out = {(u, v): [] for u in a_values for v in b_values}
    for ox in xs:
        for oy in ys:
            mass = w[ox.cell][oy.cell] * ox.length * oy.length
            log_mass = mass if ox.inside and oy.inside else Fraction(0)
            out[ox.value, oy.value].append(Cell((ox.lo, oy.lo), (ox.hi, oy.hi), mass, log_mass))
    return out


def class_law(cells: dict) -> dict:
    """P(a = u, b = v) for each class (u, v) of cells, each an Exact whose M is itself."""
    masses = {key: sum(c.mass for c in class_cells) for key, class_cells in cells.items()}
    total = sum(masses.values())
    return {key: Exact(mass / total, mass / total) for key, mass in masses.items()}
