"""Full single-line pipeline plus the two special-case reweightings.

The general solve returns what a full evaluation of the k-aware candidate
set gives: the placement with the largest weight, at the smallest candidate
radius among ties. It solves every standard radius but only those chain
gains whose placement could be lost before the next standard radius is
solved (`placement.best_radius`). The special cases are handled by reweighting:
to cover all blues while touching as few reds as possible, give each red a
small negative weight and each blue more than all reds combined; to cover as
many blues as possible while covering no red, give each blue a small
positive weight and each red less than all blues combined.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .candidates import KIND_CHAIN, MERGE_EPS, candidate_radii_line, line_contacts, with_gains
from .geom import DEFAULT_TOL, TolerancePolicy
from .klink import line_geometry, solve_radius
from .placement import LineCenter, Placement, best_radius, line_placement

__all__ = [
    "InvalidDeltaError",
    "VariantSpec",
    "SpecialResult",
    "solve_csofl",
    "reduce_allblue_minred",
    "reduce_maxblue_nored",
    "solve_special",
]


class InvalidDeltaError(ValueError):
    """A reduction delta with the wrong sign."""


@dataclass(frozen=True)
class VariantSpec:
    """Which special objective to solve."""

    name: str  # "allblue-minred" or "maxblue-nored"


@dataclass(frozen=True)
class SpecialResult:
    placement: Placement
    blue_covered: int
    red_covered: int
    all_blue_covered: bool


def solve_csofl(points, line_y: float = 0.0, k: int = 1,
                tol: TolerancePolicy = DEFAULT_TOL, jobs: int = 1) -> Placement:
    """Max-weight placement of at most k disks of a common minimum radius.

    `best_radius` over `candidate_radii_line(..., k=k)` with the kernel
    `klink.solve_radius`. Let c_{i+1} be the standard radius after a chain
    gain g (see `line_contacts`). Unless a loss falls in
    [g - MERGE_EPS, c_{i+1}), every placement feasible at g is feasible at
    c_{i+1}, so g can win only if g < best radius <= c_{i+1}. The first
    radii are the standard ones, each gain with such a loss and the last
    radius, which nothing after it stands in for; with jobs > 1 they run in
    a pool of at most `os.cpu_count()` processes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    standard = candidate_radii_line(points, line_y, tol)
    gains, losses = line_contacts(points, line_y, k)
    std = [c.value for c in standard]
    radii = with_gains(standard, gains)

    def upper(g: float) -> float:  # c_{i+1}, or inf past the last standard radius
        i = bisect.bisect_right(std, g)
        return std[i] if i < len(std) else math.inf

    def lost(g: float) -> bool:  # a loss in [g - MERGE_EPS, c_{i+1})
        return bisect.bisect_left(losses, g - MERGE_EPS) < bisect.bisect_left(losses, upper(g))

    def can_win(g: float, best) -> bool:
        return g < best[1] <= upper(g)

    groups = [(c.value, c.kind != KIND_CHAIN or c is radii[-1] or lost(c.value)) for c in radii]
    kernel = functools.partial(solve_radius, line_geometry(points, line_y), k=k, tol=tol)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        _, lam, xs = best_radius(groups, kernel, can_win)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pool_map = functools.partial(pool.map, chunksize=max(1, len(groups) // (4 * workers)))
            _, lam, xs = best_radius(groups, kernel, can_win, pool_map)
    return line_placement(points, [line_y], lam, tuple(LineCenter(x) for x in xs), tol)


def reduce_allblue_minred(points, delta: float = -1.0):
    """Reweight so every blue outweighs all reds together: red -> delta,
    blue -> -(#red)*delta + 1."""
    if delta >= 0:
        raise InvalidDeltaError("allblue-minred reduction needs delta < 0")
    n_red = sum(1 for p in points if not p.is_blue)
    blue_w = -n_red * delta + 1.0
    return [
        dataclasses.replace(p, weight=blue_w if p.is_blue else delta) for p in points
    ]


def reduce_maxblue_nored(points, delta: float = 1.0):
    """Reweight so any red loss dwarfs all blues: blue -> delta,
    red -> -(#blue)*delta - 1."""
    if delta <= 0:
        raise InvalidDeltaError("maxblue-nored reduction needs delta > 0")
    n_blue = sum(1 for p in points if p.is_blue)
    red_w = -n_blue * delta - 1.0
    return [
        dataclasses.replace(p, weight=delta if p.is_blue else red_w) for p in points
    ]


def solve_special(points, line_y: float, k: int, variant: VariantSpec,
                  tol: TolerancePolicy = DEFAULT_TOL) -> SpecialResult:
    """Solve a special objective via its reduction and report plain counts.

    For allblue-minred the returned flag records whether every blue point
    ended up covered; it can be False only when no k disks of any candidate
    radius can cover all blues at once.
    """
    if variant.name == "allblue-minred":
        reduced = reduce_allblue_minred(points)
    elif variant.name == "maxblue-nored":
        reduced = reduce_maxblue_nored(points)
    else:
        raise ValueError(f"not a special variant: {variant.name!r}")
    placement = solve_csofl(reduced, line_y, k, tol)
    blue_ids = {p.id for p in points if p.is_blue}
    return SpecialResult(
        placement=placement,
        blue_covered=len(placement.covered_blue),
        red_covered=len(placement.covered_red),
        all_blue_covered=placement.covered_blue == frozenset(blue_ids),
    )
