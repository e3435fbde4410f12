"""Full single-line pipeline plus the two special-case reweightings.

The general solve returns what a full evaluation of the k-aware candidate
set gives: the placement with the largest weight, at the smallest candidate
radius among ties. It solves every standard radius but only those chain
gains whose placement could be lost before the next standard radius is
solved (see `solve_csofl`). The special cases are handled by reweighting:
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .candidates import KIND_CHAIN, MERGE_EPS, candidate_radii_line, line_contacts, with_gains
from .geom import DEFAULT_TOL, TolerancePolicy
from .klink import line_geometry, solve_radius
from .placement import LineCenter, Placement, line_placement

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
    """Which special objective to solve and the base weight magnitude."""

    name: str  # "allblue-minred" or "maxblue-nored"
    delta: float | None = None

    def resolved_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return -1.0 if self.name == "allblue-minred" else 1.0


@dataclass(frozen=True)
class SpecialResult:
    placement: Placement
    blue_covered: int
    red_covered: int
    all_blue_covered: bool


def _solve_all(geo, radii, k, tol, jobs):
    """(union weight, centers) of `solve_radius` for every radius."""
    kernel = functools.partial(solve_radius, geo, k=k, tol=tol)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(kernel, radii, chunksize=max(1, len(radii) // (4 * jobs))))
    return [kernel(lam) for lam in radii]


def solve_csofl(points, line_y: float = 0.0, k: int = 1,
                tol: TolerancePolicy = DEFAULT_TOL, jobs: int = 1) -> Placement:
    """Max-weight placement of at most k disks of a common minimum radius.

    The result equals a full evaluation of `candidate_radii_line(..., k=k)`
    in ascending order with strict improvements only, but a chain gain
    (a radius where a run of touching disks starts to fit, see
    `line_contacts`) is solved only when it can matter:

    - every standard radius is solved;
    - a gain strictly between standard radii c_i < c_{i+1} is solved when a
      loss falls in (gain, c_{i+1}), or, past the last standard radius, when
      a loss follows it or it is the last gain; otherwise every placement
      feasible at the gain is still feasible at the next solved radius;
    - then the unsolved gains between the best radius and the standard
      radius below it are solved in ascending order, and the first that
      reaches the best weight wins.

    A loss within MERGE_EPS of the gain counts; one at the next standard
    radius does not, since the placement is still feasible there. Radii
    are compared by the union weight `solve_radius` returns, and only the
    returned radius gets a `Placement`. With jobs > 1 the first two groups
    run in a process pool; the result does not depend on jobs.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    standard = candidate_radii_line(points, line_y, tol)
    gains, losses = line_contacts(points, line_y, k)
    std = [c.value for c in standard]
    pending = [c.value for c in with_gains(standard, gains) if c.kind == KIND_CHAIN]
    solve, rest = [], []
    for g in pending:
        nxt = bisect.bisect_right(std, g)
        upper = std[nxt] if nxt < len(std) else math.inf
        i = bisect.bisect_left(losses, g - MERGE_EPS)
        lost = i < len(losses) and losses[i] < upper
        (solve if lost or (upper == math.inf and g == pending[-1]) else rest).append(g)
    geo = line_geometry(points, line_y)
    radii = sorted(std + solve)
    results = _solve_all(geo, radii, k, tol, jobs)
    best = 0
    for i in range(1, len(results)):
        if results[i][0] > results[best][0]:
            best = i
    lam, (weight, xs) = radii[best], results[best]
    below = bisect.bisect_left(std, lam) - 1
    for g in rest:
        if below >= 0 and std[below] < g < lam:
            g_weight, g_xs = solve_radius(geo, g, k, tol)
            if g_weight >= weight:
                lam, xs = g, g_xs
                break
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
    delta = variant.resolved_delta()
    if variant.name == "allblue-minred":
        reduced = reduce_allblue_minred(points, delta)
    elif variant.name == "maxblue-nored":
        reduced = reduce_maxblue_nored(points, delta)
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
