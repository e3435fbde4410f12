"""Solution containers and tie-break helpers shared by solvers and oracles."""

from __future__ import annotations

from dataclasses import dataclass

from .geom import DEFAULT_TOL, Disk, TolerancePolicy, is_covered

__all__ = [
    "ValidationFailureError",
    "LineCenter",
    "SiteCenter",
    "Placement",
    "empty_placement",
    "union_coverage",
    "line_placement",
    "site_placement",
    "selection_key",
    "best_radius",
]


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


def empty_placement(lam: float = 0.0) -> Placement:
    return Placement(lam, (), 0.0, frozenset(), frozenset())


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


def best_radius(groups, kernel, can_win=None, map=map):
    """The radius loop of every solver: (weight, radius, chosen) of the
    first radius of the largest kernel(radius) = (weight, chosen), as a full
    evaluation gives. Of the ascending (radius, first) groups, every first
    radius is solved through map, then each other one, ascending, if
    can_win(radius, best): it could have more weight, or as much at a
    smaller radius."""
    firsts = [v for v, first in groups if first]
    best = None
    for v, (weight, chosen) in zip(firsts, map(kernel, firsts)):
        if best is None or weight > best[0]:
            best = (weight, v, chosen)
    for v, first in groups:
        if not first and can_win(v, best):
            weight, chosen = kernel(v)
            if weight > best[0] or (weight == best[0] and v < best[1]):
                best = (weight, v, chosen)
    return best
