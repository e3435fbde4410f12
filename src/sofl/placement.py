"""Solution containers and tie-break helpers shared by solvers and oracles,
and the radius loop of every general solver: `best_radius` over one batch
solve, solve(radii) -> [(union weight, chosen), ...], which each solver
drives through `in_chunks` within the one cell budget CELLS."""

from __future__ import annotations

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
    "CELLS",
    "in_chunks",
    "best_radius",
]

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


def best_radius(groups, solve, can_win=None):
    """The radius loop of every solver: (weight, radius, chosen) of the
    first radius of the largest weight, as a full evaluation gives, where
    solve(radii) gives (weight, chosen) per radius. Of the ascending
    (radius, first) groups, every first radius is solved in one solve call,
    then each other one, ascending, if can_win(radius, best): it could have
    more weight, or as much at a smaller radius."""
    firsts = [v for v, first in groups if first]
    best = None
    for v, (weight, chosen) in zip(firsts, solve(firsts)):
        if best is None or weight > best[0]:
            best = (weight, v, chosen)
    for v, first in groups:
        if not first and can_win(v, best):
            weight, chosen = solve([v])[0]
            if weight > best[0] or (weight == best[0] and v < best[1]):
                best = (weight, v, chosen)
    return best
