"""Solution containers and tie-break helpers shared by solvers and oracles,
and the radius loop of every general solver: `best_radius` over one batch
solve, solve(radii) -> [(union weight, chosen), ...], which each solver
drives through `in_chunks` within the one cell budget CELLS. A solver that
can bound the weight of a radius cheaply passes that bound, and the loop
solves the radii best bound first and stops where no bound can win."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .geom import DEFAULT_TOL, Disk, TolerancePolicy, is_covered

__all__ = [
    "ValidationFailureError",
    "LineCenter",
    "SiteCenter",
    "Placement",
    "union_coverage",
    "line_placement",
    "site_placement",
    "selection_key",
    "best_upto_two",
    "CELLS",
    "BOUND_STEP",
    "in_chunks",
    "best_radius",
]

# Radii per solve call when a bound orders them: few enough that the
# bound can stop the loop early, enough that a batch kernel stays batched.
BOUND_STEP = 64

# Cells per chunk of radii. Every array of a chunk has at most a few times
# this many cells, so a solve's memory stays flat.
CELLS = 1 << 14


class ValidationFailureError(RuntimeError):
    """A solver chose a pairwise-infeasible selection (a bug)."""


@dataclass(frozen=True)
class LineCenter:
    x: float
    line_index: int = 0


@dataclass(frozen=True)
class SiteCenter:
    site_id: int
    x: float
    y: float


@dataclass(frozen=True)
class Placement:
    radius: float
    centers: tuple
    total_weight: float
    covered_blue: frozenset
    covered_red: frozenset


def union_coverage(disks, points, tol: TolerancePolicy = DEFAULT_TOL):
    """Union-coverage weight plus covered id sets; each point counted once."""
    weight = 0.0
    blue_ids = set()
    red_ids = set()
    for p in points:
        if any(is_covered(p, d, tol) for d in disks):
            weight += p.weight
            (blue_ids if p.is_blue else red_ids).add(p.id)
    return weight, frozenset(blue_ids), frozenset(red_ids)


def line_placement(points, lines, lam, centers, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Placement for centers on horizontal lines, weight recomputed as union."""
    disks = [Disk(c.x, lines[c.line_index], lam) for c in centers]
    weight, blue_ids, red_ids = union_coverage(disks, points, tol)
    return Placement(lam, tuple(centers), weight, blue_ids, red_ids)


def site_placement(points, sites, lam, site_ids, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    centers = tuple(SiteCenter(i, sites[i][0], sites[i][1]) for i in sorted(site_ids))
    disks = [Disk(c.x, c.y, lam) for c in centers]
    weight, blue_ids, red_ids = union_coverage(disks, points, tol)
    return Placement(lam, centers, weight, blue_ids, red_ids)


def selection_key(weight: float, center_keys) -> tuple:
    """Canonical comparison key for equally deep searches; minimize it.

    Rule: largest weight first, then fewest centers, then the selection
    whose largest center key is smallest, continuing leftward. The solvers
    call it; the brute-force oracle writes the same rule out on its own, so
    that chosen centers agree, not just optimal values.
    """
    return (-weight, len(center_keys), tuple(sorted(center_keys, reverse=True)))


def best_upto_two(rows: int, row, w, pairs) -> list:
    """Per row, the `selection_key` minimum over the empty selection, each
    single center and each pair given, as its weight and its centers'
    positions in the row, ascending. row gives each center's row, ascending,
    and w its weight; a row's centers follow their keys' order. pairs yields
    blocks (i, j, weight) of centers i < j of a row, folded as they come.
    The least code wins a tie: size, then largest position, then the other."""
    pos = np.arange(len(row)) - np.searchsorted(row, row)
    size = len(row) + 1
    bw, bc = np.zeros(rows), np.zeros(rows, dtype=np.int64)  # the empty selection

    def fold(at, weight, code):
        was = bw.copy()
        np.maximum.at(bw, at, weight)
        bc[bw > was] = 3 * size * size  # above every set's code
        tie = weight == bw[at]
        np.minimum.at(bc, at[tie], code[tie])

    fold(row, w, size * size + pos * size)
    for i, j, weight in pairs:
        fold(row[i], weight, 2 * size * size + pos[j] * size + pos[i])
    count, rest = np.divmod(bc, size * size)
    return [(weight, ((), (hi,), (lo, hi))[c]) for weight, c, hi, lo in
            zip(bw.tolist(), count.tolist(), (rest // size).tolist(), (rest % size).tolist())]


def in_chunks(lams, cells_per_radius: int, chunk) -> list:
    """For each radius, (0.0, ()) when lam <= 0, else what chunk gives for
    it: the positive radii go to chunk(array of radii), in order, as many
    at a time as fit CELLS cells at cells_per_radius each (at least one)."""
    lams = np.asarray(lams, dtype=float)
    out = [(0.0, ())] * len(lams)
    live = (lams > 0).nonzero()[0]
    step = max(1, CELLS // cells_per_radius)
    for a in range(0, len(live), step):
        at = live[a: a + step]
        for r, res in zip(at.tolist(), chunk(lams[at])):
            out[r] = res
    return out


def best_radius(groups, solve, can_win=None, bound=None):
    """The radius loop of every solver: (weight, radius, chosen) of the
    first radius of the largest weight, as a full evaluation gives, where
    solve(radii) gives (weight, chosen) per radius and bound(radii) an
    upper bound on that weight (+inf without a bound). A radius can beat
    the best when its bound is larger, or equal at a smaller radius. Of
    the ascending (radius, first) groups, the first radii are solved in
    (-bound, radius) order, in calls of BOUND_STEP radii and any that
    follow at the same bound, until one cannot beat the best, nor can any
    after it; without a bound that is one call. Then, in one more call,
    ascending, every other radius that can beat the best of the first
    radii and can_win(radius, that best); the callers' can_win holds
    there for the first radius of the largest weight. That radius can
    always beat the best, so it is solved and wins: each solve is exact,
    so solving more radii than a one-by-one loop cannot change which."""
    caps = bound([v for v, _ in groups]) if bound else [math.inf] * len(groups)
    best = None

    def beats(weight, v) -> bool:  # (-weight, v) sorts before (-best weight, best radius)
        return best is None or weight > best[0] or (weight == best[0] and v < best[1])

    def take(lams):
        nonlocal best
        for v, (weight, chosen) in zip(lams, solve(lams)):
            if beats(weight, v):
                best = (weight, v, chosen)

    order = sorted((-cap, v) for (v, first), cap in zip(groups, caps) if first)
    i = 0
    while i < len(order):
        stop = len(order) if best is None else bisect.bisect_left(order, (-best[0], best[1]), i)
        if stop == i:
            break
        j = min(stop, i + BOUND_STEP)
        j = min(stop, bisect.bisect_left(order, (order[j - 1][0], math.inf), j))
        take([v for _, v in order[i:j]])
        i = j
    admitted = [v for (v, first), cap in zip(groups, caps)
                if not first and beats(cap, v) and can_win(v, best)]
    if admitted:
        take(admitted)
    return best
