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

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .density import (
    ROUND_OFF,
    GridDensity,
    _axis_integrals,
    _fields,
    _integrate,
    make_grid_density,
)
from .errors import (
    DomainMismatch,
    GridMisaligned,
    InputOutOfRange,
    NonConvergence,
)
from .intervals import Interval
from .observables import make_observable, setting_interval
from .steprv import PartialRV, make_step

PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1))  # (alpha, beta) order used throughout


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
        return make_observable(float(alpha), "x"), make_observable(float(beta), "y")

    def moments(self) -> Tuple[Tuple[float, float, float], ...]:
        """(E[ab], E[a], E[b]) per pair in PAIRS order, each under its own density."""
        return tuple(
            _integrate(*self.observables(alpha, beta), rho)
            for (alpha, beta), rho in zip(PAIRS, self.densities())
        )

    def expectations(self) -> Tuple[float, float, float, float]:
        return tuple(e_ab for e_ab, _, _ in self.moments())

    def marginals(self) -> Dict[str, float]:
        """All eight marginal means, each under its own pair's density."""
        return _marginal_table(self.moments())

    def to_dict(self) -> dict:
        moments = self.moments()
        es = [e_ab for e_ab, _, _ in moments]
        out = {
            f"rho{alpha}{beta}": rho.to_dict()
            for (alpha, beta), rho in zip(PAIRS, self.densities())
        }
        out["expectations"] = {
            **{f"e{alpha}{beta}": e for (alpha, beta), e in zip(PAIRS, es)},
            "S": chsh_value(*es),
            "marginals": _marginal_table(moments),
        }
        return out

    @staticmethod
    def from_dict(d: dict) -> "ChshFamily":
        keys = [f"rho{alpha}{beta}" for alpha, beta in PAIRS]
        return ChshFamily(*map(GridDensity.from_dict, _fields(d, "family", keys)))


def _marginal_table(moments) -> Dict[str, float]:
    out = {}
    for (alpha, beta), (_, e_a, e_b) in zip(PAIRS, moments):
        out[f"a{alpha}|{alpha}{beta}"] = e_a
        out[f"b{beta}|{alpha}{beta}"] = e_b
    return out


def chsh_value(e00: float, e10: float, e01: float, e11: float) -> float:
    """Signed CHSH combination e00 + e10 + e01 - e11."""
    for e in (e00, e10, e01, e11):
        if abs(e) > 1.0 + ROUND_OFF:
            raise InputOutOfRange(f"correlator {e!r} outside [-1, 1]")
    return e00 + e10 + e01 - e11


def _band_signs(n: int) -> np.ndarray:
    """Observable value per grid column for a quarter-aligned n-cell grid."""
    return make_observable(0.0).column_values(np.arange(n + 1) / n)


def saturating_family() -> ChshFamily:
    """Four densities reaching S = 4 with all eight marginals exactly zero.

    For target +1 half the mass sits uniformly on (+,+) cells (middle band
    times middle band) and half on (-,-) cells; for target -1 the mass sits
    on (+,-) and (-,+) instead.  Quarter-aligned 4x4 grids keep every number
    an exact binary float.
    """
    signs = _band_signs(4)
    rhos = []
    for (alpha, beta), target in zip(PAIRS, (1.0, 1.0, 1.0, -1.0)):
        match = np.outer(signs, signs) == target
        weights = np.where(match, 2.0, 0.0)
        rhos.append(
            make_grid_density(setting_interval(alpha), setting_interval(beta), weights)
        )
    return ChshFamily(*rhos)


def _affine_projector(A: np.ndarray, b: np.ndarray):
    gram_inv = np.linalg.inv(A @ A.T)

    def project(m: np.ndarray) -> np.ndarray:
        return m - A.T @ (gram_inv @ (A @ m - b))

    return project


def _optimize_pair(
    alpha: int, beta: int, target: float, nx: int, ny: int, eps: float, max_iter: int
) -> Tuple[GridDensity, float]:
    """Drive one pair's correlator to its target by projected ascent.

    Cell masses are pushed along the correlator gradient toward the target,
    then re-projected onto {sum = 1, both marginals = 0} and the nonnegative
    orthant by alternating projections.
    """
    fa = _band_signs(nx)
    gb = _band_signs(ny)
    c = np.outer(fa, gb).reshape(-1)
    n = nx * ny
    A = np.stack([np.ones(n), np.repeat(fa, ny), np.tile(gb, nx)])
    b = np.array([1.0, 0.0, 0.0])
    project = _affine_projector(A, b)

    m = np.full(n, 1.0 / n)
    e_prev = float(m @ c)
    # c is orthogonal to all three constraint rows, so an unclipped step of
    # eta*(target-e)/|c|^2 along c moves the correlator by eta*(target-e)
    eta = 0.5 / float(c @ c)
    for _ in range(max_iter):
        m = m + eta * (target - e_prev) * c
        for _ in range(200):
            m = project(m)
            if m.min() >= -ROUND_OFF:
                break
            m = np.clip(m, 0.0, None)
        e = float(m @ c)
        if abs(e - e_prev) < eps:
            e_prev = e
            break
        e_prev = e
    else:
        raise NonConvergence(
            f"pair ({alpha},{beta}) target {target}: correlator still moving "
            f"after {max_iter} iterations"
        )

    m = np.clip(m, 0.0, None)
    cell_area = (1.0 / nx) * (1.0 / ny)
    rho = make_grid_density(
        setting_interval(alpha), setting_interval(beta), m.reshape(nx, ny) / cell_area
    )
    return rho, e_prev


def optimize_family(
    targets: Sequence[float],
    grid: Tuple[int, int] = (4, 4),
    eps: float = 1e-9,
    max_iter: int = 10_000,
) -> Tuple[ChshFamily, Tuple[float, float, float, float]]:
    """Find densities whose four correlators hit the given targets.

    Each pair is optimized independently: its density appears in exactly one
    CHSH term, so the objective is separable.  Grids must be multiples of 4
    so the quarter-point thresholds fall on cell boundaries.  The targets are
    one finite correlator in [-1, 1] per pair, in PAIRS order.
    """
    nx, ny = grid
    if nx <= 0 or ny <= 0 or nx % 4 or ny % 4:
        raise GridMisaligned(f"grid {grid} not a positive multiple of 4 per axis")
    targets = tuple(map(float, targets))
    if len(targets) != len(PAIRS) or not all(-1.0 <= t <= 1.0 for t in targets):
        raise InputOutOfRange(f"need four targets in [-1, 1], got {targets}")
    rhos = []
    achieved = []
    for (alpha, beta), target in zip(PAIRS, targets):
        rho, e = _optimize_pair(alpha, beta, target, nx, ny, eps, max_iter)
        rhos.append(rho)
        achieved.append(e)
    return ChshFamily(*rhos), tuple(achieved)


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
    rho = make_grid_density(
        Interval(0.0, 1.0), Interval(0.0, 1.0), rng.random((nx, ny)) + 1e-3
    )
    return a0, a1, b0, b1, rho


def _same_domain(f: PartialRV, g: PartialRV) -> bool:
    """m(f) = m(g) = m(f ∩ g) within ROUND_OFF."""
    f_domain, g_domain = f.domain, g.domain
    common = f_domain.intersect(g_domain).measure()
    return (
        abs(f_domain.measure() - common) <= ROUND_OFF
        and abs(g_domain.measure() - common) <= ROUND_OFF
    )


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
    if not _same_domain(a0, a1):
        raise DomainMismatch(f"{a0.domain!r} vs {a1.domain!r} on Alice's axis")
    if not _same_domain(b0, b1):
        raise DomainMismatch(f"{b0.domain!r} vs {b1.domain!r} on Bob's axis")
    xe, ye = rho.x_edges(), rho.y_edges()
    i_aw = [_axis_integrals(rv, xe, rho.x_rect, "x") @ rho.weights for rv in (a0, a1)]
    i_b = [_axis_integrals(rv, ye, rho.y_rect, "y") for rv in (b0, b1)]
    # The common-domain assumption is used here: one density and one pair of
    # domains, so each a[alpha] integral is paired with both b[beta] integrals.
    return chsh_value(*(float(i_aw[alpha] @ i_b[beta]) for alpha, beta in PAIRS))
