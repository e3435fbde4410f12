"""Full single-line pipeline plus the two special-case reweightings.

The general solve returns what a full evaluation of the k-aware candidate
set gives: the placement with the largest weight, at the smallest candidate
radius among ties. It solves every standard radius but only those chain
gains whose placement could be lost before the next standard radius is
solved (`placement.best_radius`): the first radii in one `klink.solve_radii`
call, the admitted gains in one more. The special cases are
handled by reweighting:
to cover all blues while touching as few reds as possible, give each red a
small negative weight and each blue more than all reds combined; to cover as
many blues as possible while covering no red, give each blue a small
positive weight and each red less than all blues combined.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .candidates import MERGE_EPS, line_losses, line_radii
from .geom import DEFAULT_TOL, TolerancePolicy
from .klink import line_geometry, solve_radii
from .placement import LineCenter, Placement, best_radius, line_placement

__all__ = [
    "SpecialResult",
    "solve_csofl",
    "reduce_allblue_minred",
    "reduce_maxblue_nored",
    "solve_special",
]


@dataclass(frozen=True)
class SpecialResult:
    placement: Placement
    blue_covered: int
    red_covered: int
    all_blue_covered: bool


def solve_csofl(points, line_y: float = 0.0, k: int = 1,
                tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Max-weight placement of at most k disks of a common minimum radius.

    `best_radius` over `line_radii(..., k=k)`, solved by
    `klink.solve_radii`. Let c_{i+1} be the standard radius after a chain
    gain g (see `line_contacts`). Unless a loss falls in
    [g - MERGE_EPS, c_{i+1}), every placement feasible at g is feasible at
    c_{i+1}, so g can win only if g < best radius <= c_{i+1}. The first
    radii are the standard ones, each gain with such a loss and the last
    radius, which nothing after it stands in for; they are solved in one
    call, in chunks. The gains that can win against the best of them go
    in a second call, and a winning gain g* is among them: the best of the
    first radii weighs no more than g* (g* wins) and no less (its
    placement stays feasible up to c_{i+1}), so its radius is in
    (g*, c_{i+1}].
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    values, standard = line_radii(points, line_y, k)
    losses = line_losses(points, line_y, k)
    std = values[standard]
    # c_{i+1} of each radius, or inf past the last standard radius
    upper = np.append(std, math.inf)[np.searchsorted(std, values, "right")]
    # a loss in [g - MERGE_EPS, c_{i+1})
    lost = np.searchsorted(losses, values - MERGE_EPS) < np.searchsorted(losses, upper)
    first = standard | lost
    first[-1] = True
    upper_of = dict(zip(values.tolist(), upper.tolist()))

    def can_win(g: float, best) -> bool:
        return g < best[1] <= upper_of[g]

    groups = list(zip(values.tolist(), first.tolist()))
    geo = line_geometry(points, line_y)
    _, lam, xs = best_radius(groups, lambda lams: solve_radii(geo, lams, k, tol), can_win)
    return line_placement(points, [line_y], lam, tuple(LineCenter(x) for x in xs), tol)


def reduce_allblue_minred(points):
    """Reweight so every blue outweighs all reds together: red -> -1,
    blue -> #red + 1."""
    blue_w = sum(1 for p in points if not p.is_blue) + 1.0
    return [dataclasses.replace(p, weight=blue_w if p.is_blue else -1.0) for p in points]


def reduce_maxblue_nored(points):
    """Reweight so any red loss dwarfs all blues: blue -> 1,
    red -> -#blue - 1."""
    red_w = -sum(1 for p in points if p.is_blue) - 1.0
    return [dataclasses.replace(p, weight=1.0 if p.is_blue else red_w) for p in points]


def solve_special(points, line_y: float, k: int, variant: str,
                  tol: TolerancePolicy = DEFAULT_TOL) -> SpecialResult:
    """Solve a special objective via its reduction and report plain counts.

    For allblue-minred the returned flag records whether every blue point
    ended up covered; it can be False only when no k disks of any candidate
    radius can cover all blues at once.
    """
    if variant == "allblue-minred":
        reduced = reduce_allblue_minred(points)
    elif variant == "maxblue-nored":
        reduced = reduce_maxblue_nored(points)
    else:
        raise ValueError(f"not a special variant: {variant!r}")
    placement = solve_csofl(reduced, line_y, k, tol)
    blue_ids = {p.id for p in points if p.is_blue}
    return SpecialResult(
        placement=placement,
        blue_covered=len(placement.covered_blue),
        red_covered=len(placement.covered_red),
        all_blue_covered=placement.covered_blue == frozenset(blue_ids),
    )
