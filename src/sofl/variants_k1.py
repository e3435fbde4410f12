"""Specialized single-disk algorithms for the unweighted objectives.

maxblue_nored_*: smallest line-centered disk covering as many blue points as
possible with no red point strictly inside (boundary reds are harmless).
The naive version scans every bisector candidate directly. The fast version
exploits the fact that a circle through a fixed point p and centered on the
line is ordered by its center abscissa: whether another point sits strictly
inside depends only on how the center compares with the crossing of the p-r
bisector. Per blue anchor p it therefore sorts the bisector crossings of p
with every red once, and counts reds inside each candidate circle through p
with two logarithmic lookups instead of a full scan.

allblue_minred: smallest disk covering every blue while minimizing the
number of reds strictly inside. The covering radius at center x is the
distance to the farthest blue, so the search walks the farthest-blue owner
map along the line. Candidate centers are the owner breakpoints, the
in-cell radius minimizers (the owner's projection, clamped), and the
owner-red bisector crossings inside each cell, which is exactly where a red
enters or leaves the covering disk. When the breakpoints alone would have
given a worse red count, that instance is logged as a finding.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .geom import (
    DEFAULT_TOL,
    DegenerateInputError,
    Disk,
    Region,
    TolerancePolicy,
    center_on_line_through,
    classify,
    dist2,
)

__all__ = [
    "PairCircle",
    "FarthestCellBreaks",
    "AllBlueOutcome",
    "pair_disk",
    "maxblue_nored_naive",
    "maxblue_nored_fast",
    "farthest_breaks",
    "allblue_minred",
    "allblue_minred_details",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairCircle:
    p_id: int
    q_id: int
    center_x: float
    radius: float


@dataclass(frozen=True)
class FarthestCellBreaks:
    """Piecewise farthest-blue owner along the line: the initial owner and
    the breakpoints where ownership changes (owner valid to the right)."""

    first_owner: int
    breaks: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class AllBlueOutcome:
    best: tuple[float, float, int]
    fvd_only: tuple[float, float, int] | None
    fvd_only_suboptimal: bool


def pair_disk(u, v, line_y: float = 0.0) -> PairCircle | None:
    """Canonical disk through two points centered on the line.

    The radius is always measured from the lower-id point, so every caller
    that reports this circle reports bit-identical numbers.
    """
    res = center_on_line_through(u, v, line_y)
    if res is None:
        return None
    cx, _ = res
    a = u if u.id <= v.id else v
    rad = math.sqrt(dist2(cx, line_y, a.x, a.y))
    return PairCircle(min(u.id, v.id), max(u.id, v.id), cx, rad)


def _feasible_blue_count(disk: Disk, blues, reds, tol) -> int | None:
    """Blue count of a disk, or None when a red sits strictly inside."""
    for r in reds:
        if classify(r, disk, tol) is Region.INSIDE:
            return None
    return sum(1 for b in blues if classify(b, disk, tol) is not Region.OUTSIDE)


def maxblue_nored_naive(points, tol: TolerancePolicy = DEFAULT_TOL):
    """Scan all bisector and vertical candidates; keep the disk covering the
    most blues with no red strictly inside, smallest radius first, then
    smallest center. Returns (center_x, radius, blue_count) or None."""
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    disks = []
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            try:
                pc = pair_disk(p, q)
            except DegenerateInputError:
                continue
            if pc is not None:
                disks.append((pc.center_x, pc.radius))
    disks.extend((b.x, b.y) for b in blues)
    best = None
    best_key = None
    for cx, rad in disks:
        count = _feasible_blue_count(Disk(cx, 0.0, rad), blues, reds, tol)
        if not count:
            continue
        key = (-count, rad, cx)
        if best_key is None or key < best_key:
            best_key = key
            best = (cx, rad, count)
    return best


def maxblue_nored_fast(points, tol: TolerancePolicy = DEFAULT_TOL):
    """Same contract and output as maxblue_nored_naive.

    Per blue anchor p, the bisector crossings of p with the reds on each
    side are sorted once; the number of reds strictly inside any candidate
    circle through p is then two binary searches. Reds sharing x with p
    have no crossing and are checked directly; a red exactly on a candidate
    boundary is not inside, hence the slack-shifted lookups.
    """
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    best = None
    best_key = None
    for p in blues:
        right_keys: list[float] = []
        left_keys: list[float] = []
        degen: list = []
        for r in reds:
            if r.x == p.x:
                degen.append(r)
                continue
            res = center_on_line_through(p, r, 0.0)
            if res is None:
                continue
            (right_keys if r.x > p.x else left_keys).append(res[0])
        right_keys.sort()
        left_keys.sort()

        cands: list[tuple[float, float]] = [(p.x, p.y)]  # circle through p alone
        for q in blues:
            if q.id == p.id:
                continue
            try:
                pc = pair_disk(p, q)
            except DegenerateInputError:
                continue
            if pc is not None:
                cands.append((pc.center_x, pc.radius))
        for r in reds:
            try:
                pc = pair_disk(p, r)
            except DegenerateInputError:
                continue
            if pc is not None:
                cands.append((pc.center_x, pc.radius))

        for cx, rad in cands:
            slack = tol.x_slack(cx)
            inside = bisect_left(right_keys, cx - slack)
            inside += len(left_keys) - bisect_right(left_keys, cx + slack)
            if inside:
                continue
            disk = Disk(cx, 0.0, rad)
            if any(classify(r, disk, tol) is Region.INSIDE for r in degen):
                continue
            count = sum(1 for b in blues if classify(b, disk, tol) is not Region.OUTSIDE)
            if not count:
                continue
            key = (-count, rad, cx)
            if best_key is None or key < best_key:
                best_key = key
                best = (cx, rad, count)
    return best


def _farthest_owner(blues, x: float):
    best = blues[0]
    best_d2 = dist2(x, 0.0, best.x, best.y)
    for b in blues[1:]:
        d2 = dist2(x, 0.0, b.x, b.y)
        if d2 > best_d2:
            best, best_d2 = b, d2
    return best


def farthest_breaks(blue_points, tol: TolerancePolicy = DEFAULT_TOL) -> FarthestCellBreaks:
    """Farthest-blue owner map restricted to the line.

    Owners can only change where two blues are equidistant from the line
    point, so the bisector crossings of all blue pairs delimit the regions;
    each region's owner is found by probing its midpoint.
    """
    blues = list(blue_points)
    if not blues:
        raise ValueError("at least one blue point is required")
    crossings: list[float] = []
    for i, p in enumerate(blues):
        for q in blues[i + 1 :]:
            try:
                res = center_on_line_through(p, q, 0.0)
            except DegenerateInputError:
                continue
            if res is not None:
                insort(crossings, res[0])
    merged: list[float] = []
    for x in crossings:
        if merged and tol.close(x, merged[-1]):
            continue
        merged.append(x)
    if not merged:
        return FarthestCellBreaks(_farthest_owner(blues, 0.0).id, ())
    probes = [merged[0] - 1.0]
    probes += [(a + b) / 2.0 for a, b in zip(merged, merged[1:])]
    probes.append(merged[-1] + 1.0)
    owners = [_farthest_owner(blues, x).id for x in probes]
    breaks = []
    for i in range(len(merged)):
        if owners[i + 1] != owners[i]:
            breaks.append((merged[i], owners[i + 1]))
    return FarthestCellBreaks(owners[0], tuple(breaks))


def _covering_eval(x: float, blues, reds, tol):
    r2 = max(dist2(x, 0.0, b.x, b.y) for b in blues)
    rad = math.sqrt(r2)
    disk = Disk(x, 0.0, rad)
    count = sum(1 for r in reds if classify(r, disk, tol) is Region.INSIDE)
    return (count, rad, x)


def allblue_minred_details(points, tol: TolerancePolicy = DEFAULT_TOL) -> AllBlueOutcome:
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    if not blues:
        raise ValueError("at least one blue point is required")
    fb = farthest_breaks(blues, tol)
    by_id = {p.id: p for p in points}

    INF = float("inf")
    bounds = [-INF] + [x for x, _ in fb.breaks] + [INF]
    owners = [fb.first_owner] + [owner for _, owner in fb.breaks]

    cand_xs: list[float] = [x for x, _ in fb.breaks]
    for ci, owner_id in enumerate(owners):
        lo, hi = bounds[ci], bounds[ci + 1]
        owner = by_id[owner_id]
        cand_xs.append(min(max(owner.x, lo), hi))
        for r in reds:
            try:
                res = center_on_line_through(owner, r, 0.0)
            except DegenerateInputError:
                continue
            if res is None:
                continue
            slack = tol.x_slack(res[0])
            if lo - slack <= res[0] <= hi + slack:
                cand_xs.append(res[0])

    cand_xs.sort()
    uniq: list[float] = []
    for x in cand_xs:
        if uniq and tol.close(x, uniq[-1]):
            continue
        uniq.append(x)

    best = min(_covering_eval(x, blues, reds, tol) for x in uniq)
    fvd_only = None
    if fb.breaks:
        fvd_only = min(_covering_eval(x, blues, reds, tol) for x, _ in fb.breaks)
    suboptimal = fvd_only is not None and fvd_only[0] > best[0]
    if suboptimal:
        log.warning(
            "farthest-map breakpoints alone are suboptimal here: %d reds vs %d",
            fvd_only[0],
            best[0],
        )

    def as_result(t):
        count, rad, x = t
        return (x, rad, count)

    return AllBlueOutcome(
        as_result(best),
        as_result(fvd_only) if fvd_only is not None else None,
        suboptimal,
    )


def allblue_minred(points, tol: TolerancePolicy = DEFAULT_TOL):
    """Smallest disk covering every blue with the fewest reds strictly
    inside; returns (center_x, radius, red_count)."""
    return allblue_minred_details(points, tol).best
