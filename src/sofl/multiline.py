"""Placement across several horizontal lines for a common radius.

Candidate centers per line are the influence-interval endpoints plus chains
of hops at center distance exactly 2*lam: along a line a hop moves 2*lam in
x, across two lines closer than 2*lam it moves the reduced offset
sqrt(4*lam^2 - dy^2). Selection is an exact depth-first search over the
x-sorted candidates with an optimistic bound, because non-overlap between
centers on different lines is a pairwise Euclidean constraint that a simple
left-to-right link cannot capture. The returned placement is re-validated
pairwise and its weight recomputed as union coverage.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np

from .candidates import candidate_radii_tlines, check_lines, radius_groups
from .geom import (
    DEFAULT_TOL,
    TolerancePolicy,
    centers_compatible,
    coverage_mask,
)
from .klink import interval_ends, line_geometry
from .placement import LineCenter, Placement, empty_placement, line_placement, selection_key

__all__ = [
    "ValidationFailureError",
    "multiline_centers",
    "solve_tlines_fixed_radius",
    "solve_tlines",
]


class ValidationFailureError(RuntimeError):
    """The search returned a pairwise-infeasible selection (a bug)."""


def multiline_centers(points, lines, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL,
                      geos=None):
    """Candidate centers across lines: endpoints, hop chains, sentinels.

    geos holds each line's `klink.line_geometry` of the points; a radius
    loop builds it once per solve.
    """
    lines = check_lines(lines)
    if lam <= 0:
        raise ValueError("candidate centers require a positive radius")
    if geos is None:
        geos = [line_geometry(points, ly) for ly in lines]

    endpoints: list[tuple[float, int]] = []
    for li, geo in enumerate(geos):
        endpoints.extend((x, li) for x in interval_ends(geo, lam, tol)[1].tolist())

    per_line: list[list[float]] = [[] for _ in lines]

    def add(x: float, li: int) -> bool:
        row = per_line[li]
        i = bisect_left(row, x)
        for j in (i - 1, i):
            if 0 <= j < len(row) and tol.close(row[j], x):
                return False
        insort(row, x)
        return True

    if not endpoints:
        for li in range(len(lines)):
            add(0.0, li)
            add(2.0 * k * lam, li)
    else:
        frontier = []
        for x, li in sorted(endpoints):
            if add(x, li):
                frontier.append((x, li))
        need2 = 4.0 * lam * lam
        band = tol.band(need2)
        for _ in range(k - 1):
            nxt = []
            for x, li in frontier:
                hops = [(x - 2.0 * lam, li), (x + 2.0 * lam, li)]
                for lj, ly in enumerate(lines):
                    if lj == li:
                        continue
                    dy2 = (ly - lines[li]) ** 2
                    if dy2 - need2 > band:
                        continue
                    off = math.sqrt(max(0.0, need2 - dy2))
                    hops.append((x - off, lj))
                    hops.append((x + off, lj))
                for hx, hl in hops:
                    if add(hx, hl):
                        nxt.append((hx, hl))
            frontier = nxt
        margin = 2.0 * k * lam
        lo = min(x for x, _ in endpoints) - margin
        hi = max(x for x, _ in endpoints) + margin
        for li in range(len(lines)):
            add(lo, li)
            add(hi, li)

    out = [LineCenter(x, li) for li, row in enumerate(per_line) for x in row]
    out.sort(key=lambda c: (c.x, c.line_index))
    return out


def _search_best(points, lines, lam, k, centers, tol):
    """Exact DFS over candidates; returns the canonical best index tuple."""
    point_w = [p.weight for p in points]
    masks = []
    weights = []
    gains = []  # optimistic per-center gain: its covered positive weight
    # geom.is_covered for every center and point at once, in the same float
    # operations; weights are summed in point order like geom.disk_weight.
    px = np.array([p.x for p in points], dtype=float)
    py = np.array([p.y for p in points], dtype=float)
    dx = px[:, None] - np.array([c.x for c in centers])[None, :]
    dy = py[:, None] - np.array([lines[c.line_index] for c in centers])[None, :]
    blue = np.array([p.is_blue for p in points], dtype=bool)
    r2 = lam * lam
    for row in coverage_mask((dx * dx + dy * dy) - r2, blue, tol.band(r2)).T.tolist():
        m = 0
        w = 0.0
        gain = 0.0
        for i, hit in enumerate(row):
            if hit:
                m |= 1 << i
                w += point_w[i]
                if point_w[i] > 0:
                    gain += point_w[i]
        masks.append(m)
        weights.append(w)
        gains.append(gain)

    # Centers whose own disk nets nothing can never improve a union of
    # non-overlapping disks, and the fewest-centers tie rule drops them.
    order = [i for i in range(len(centers)) if weights[i] > 0]

    def union_weight(mask: int) -> float:
        total = 0.0
        i = 0
        while mask:
            if mask & 1:
                total += point_w[i]
            mask >>= 1
            i += 1
        return total

    best_key = None
    best_ids: tuple[int, ...] = ()

    def consider(chosen: list[int], mask: int):
        nonlocal best_key, best_ids
        w = union_weight(mask)
        if best_key is not None and -w > best_key[0]:
            return  # cannot tie or win
        key = selection_key(w, [centers[i].sort_key() for i in chosen])
        if best_key is None or key < best_key:
            best_key = key
            best_ids = tuple(chosen)

    coords = [(centers[i].x, lines[centers[i].line_index]) for i in range(len(centers))]

    def rec(pos: int, chosen: list[int], mask: int, current: float):
        nonlocal best_key
        consider(chosen, mask)
        if len(chosen) == k or pos >= len(order):
            return
        budget = k - len(chosen)
        top = sorted((gains[i] for i in order[pos:]), reverse=True)[:budget]
        if best_key is not None and current + sum(top) < -best_key[0]:
            return
        for at in range(pos, len(order)):
            ci = order[at]
            if all(
                centers_compatible(coords[ci], coords[cj], lam, tol) for cj in chosen
            ):
                chosen.append(ci)
                rec(at + 1, chosen, mask | masks[ci], union_weight(mask | masks[ci]))
                chosen.pop()

    rec(0, [], 0, 0.0)
    return best_ids


def solve_tlines_fixed_radius(points, lines, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL,
                              geos=None) -> Placement:
    """Best placement of at most k radius-lam disks centered on the lines
    (geos as in `multiline_centers`)."""
    lines = check_lines(lines)
    if k < 1:
        raise ValueError("k must be at least 1")
    if lam <= 0.0:
        return empty_placement(max(lam, 0.0))
    centers = multiline_centers(points, lines, lam, k, tol, geos)
    best_ids = _search_best(points, lines, lam, k, centers, tol)
    chosen = [centers[i] for i in best_ids]
    for i, a in enumerate(chosen):
        for b in chosen[i + 1 :]:
            pa = (a.x, lines[a.line_index])
            pb = (b.x, lines[b.line_index])
            if not centers_compatible(pa, pb, lam, tol):
                raise ValidationFailureError(f"overlapping selection {a} / {b}")
    chosen.sort(key=lambda c: (c.x, c.line_index))
    return line_placement(points, lines, lam, chosen, tol)


def solve_tlines(points, lines, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Candidate-radius loop over all lines with the standard objective.

    The result equals a full evaluation of the k-aware candidate set in
    ascending order with strict improvements only. Standard radii are solved
    first; a radius that only a chain gain produced is then solved, in
    ascending order, unless the blue weight within reach of some line
    cannot beat the incumbent (less weight, or equal weight at a larger
    radius).
    """
    lines = check_lines(lines)
    groups = radius_groups(candidate_radii_tlines(points, lines, tol, k))
    geos = [line_geometry(points, ly) for ly in lines]
    best = None
    for v, standard in groups:
        if standard:
            pl = solve_tlines_fixed_radius(points, lines, v, k, tol, geos)
            if best is None or pl.total_weight > best.total_weight:
                best = pl
    blues = [(min((p.y - ly) ** 2 for ly in lines), p.weight) for p in points if p.is_blue]
    for v, standard in groups:
        if standard:
            continue
        r2 = v * v
        reach = sum(w for dy2, w in blues if dy2 - r2 <= tol.band(r2))
        if reach < best.total_weight or (reach <= best.total_weight and v > best.radius):
            continue
        pl = solve_tlines_fixed_radius(points, lines, v, k, tol, geos)
        if pl.total_weight > best.total_weight or (
            pl.total_weight == best.total_weight and v < best.radius
        ):
            best = pl
    return best
