"""Brute-force reference solvers used by the test suite and `sofl check`.

These share only geometry predicates, the near-duplicate merge and the
candidate radius generators with the optimized code: `classify`,
`centers_compatible` (called once per center pair and radius, into a pair
table), for coverage one `coverage_mask` table per radius in `classify`'s
float operations, packed by `bitsets`, and `merge_keep`. Candidate centers
come from grids of their own that chain both ways from every endpoint, a
superset of the solvers' rightward chains (`klink` module docstring). Every
optimum comes from explicit subset enumeration, under the solvers' tie
rule written out on its own. The only shortcuts taken are
sound dominance: disks at pairwise distance >= 2*lam are disjoint, so a
center whose own disk nets a non-positive weight can never improve a
selection and is skipped; for the special counts a center that covers no
blue is skipped, and for max-blue also one that covers a red.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import (
    candidate_radii_discrete,
    candidate_radii_line,
    candidate_radii_tlines,
    radius_groups,
)
from .geom import (
    DEFAULT_TOL,
    Disk,
    Region,
    TolerancePolicy,
    bitsets,
    centers_compatible,
    classify,
    coverage_mask,
    merge_keep,
)
from .variants_k1 import pair_disk

__all__ = [
    "TooLargeError",
    "OracleResult",
    "brute_fixed_radius",
    "brute_csofl",
    "brute_k1_maxblue",
    "brute_k1_allblue",
    "brute_tlines",
    "brute_discrete",
    "brute_special_counts",
]


class TooLargeError(ValueError):
    """Instance exceeds the oracle's enumeration guards."""


@dataclass(frozen=True)
class OracleResult:
    weight: float
    radius: float
    placements: tuple  # chosen center coordinates (x, y) or site ids
    counts: tuple[int, int]  # covered (blue, red)


def _masks(points, centers, lam, tol) -> list[int]:
    """Per center, the int bitmask of the points its radius-lam disk covers
    (bit i for points[i]), from one centers x points table in the float
    operations of `classify`."""
    p = np.array([(q.x, q.y) for q in points], dtype=float).reshape(-1, 2)
    dx, dy = (p - np.array(centers, dtype=float).reshape(-1, 1, 2)).transpose(2, 0, 1)
    r2 = lam * lam
    s = dx * dx + dy * dy - r2
    blue = np.array([q.is_blue for q in points], dtype=bool)
    return bitsets(coverage_mask(s, blue, tol.band(r2)))


def _pair_table(centers, lam, k, tol) -> list[int]:
    """Per center, the int bitmask of the centers compatible with it (bit j
    for centers[j]), by one scalar `centers_compatible` call per pair; all
    zero for k = 1, where a selection never holds a pair."""
    rows = [0] * len(centers)
    for i, a in enumerate(centers if k > 1 else ()):
        for j in range(i + 1, len(centers)):
            if centers_compatible(a, centers[j], lam, tol):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def brute_fixed_radius(points, centers, lam: float, k: int,
                       tol: TolerancePolicy = DEFAULT_TOL,
                       max_centers: int = 20, max_k: int = 4) -> OracleResult:
    """Exhaustive search over all feasible subsets of at most k centers.

    The tie key is written out here rather than taken from
    `placement.selection_key`, so that this reference stays independent of
    the solvers' copy of the rule.
    """
    if len(centers) > max_centers:
        raise TooLargeError(f"{len(centers)} centers exceeds the guard {max_centers}")
    if k > max_k:
        raise TooLargeError(f"k={k} exceeds the guard {max_k}")
    centers = sorted(centers)
    n = len(points)
    masks = _masks(points, centers, lam, tol)
    point_w = [p.weight for p in points]
    weight_cache: dict[int, float] = {0: 0.0}

    def union_weight(mask: int) -> float:
        got = weight_cache.get(mask)
        if got is None:
            got = sum((point_w[i] for i in range(n) if mask >> i & 1), 0.0)
            weight_cache[mask] = got
        return got

    compat = _pair_table(centers, lam, k, tol)
    best_key = (0.0, 0, ())
    best: tuple[tuple[int, ...], int] = ((), 0)

    def rec(start: int, chosen: list[int], mask: int, allowed: int):
        nonlocal best_key, best
        head = (-union_weight(mask), len(chosen))
        if head <= best_key[:2]:  # can tie or win; only then build the center key
            key = (*head, tuple(sorted((centers[i] for i in chosen), reverse=True)))
            if key < best_key:
                best_key = key
                best = tuple(chosen), mask
        if len(chosen) == k:
            return
        for i in range(start, len(centers)):
            if allowed >> i & 1:
                chosen.append(i)
                rec(i + 1, chosen, mask | masks[i], allowed & compat[i])
                chosen.pop()

    rec(0, [], 0, (1 << len(centers)) - 1)
    ids, mask = best
    nb = sum(1 for i, p in enumerate(points) if mask >> i & 1 and p.is_blue)
    counts = (nb, mask.bit_count() - nb)
    return OracleResult(union_weight(mask), lam, tuple(centers[i] for i in ids), counts)


def _ends(points, line_y, lam, tol) -> np.ndarray:
    """The influence-interval endpoints px -+ sqrt(lam^2 - dy^2) of the
    points within lam of the line y = line_y (dy^2 - lam^2 <= band)."""
    px = np.array([p.x for p in points], dtype=float)
    dy2 = (np.array([p.y for p in points], dtype=float) - line_y) ** 2
    lam2 = lam * lam
    near = dy2 - lam2 <= tol.band(lam2)
    h = np.sqrt(np.maximum(0.0, lam2 - dy2[near]))
    return np.concatenate([px[near] - h, px[near] + h])


def _center_grid(points, lines, lam, k, tol):
    """Candidate centers (x, y) of radius lam on the lines: every
    influence-interval endpoint, k - 1 generations of hops both ways from
    every value of the generation before (2*lam along its line,
    sqrt(4*lam^2 - dy^2) onto each line within 2*lam), so that a narrower
    solver grid cannot narrow this one, and on each line a sentinel 2k*lam
    beyond the outermost endpoints on each side; merged per line by
    `merge_keep`. With nothing in reach, 0 and 2k*lam on each line."""
    gen = [_ends(points, ly, lam, tol) for ly in lines]
    margin = 2.0 * k * lam
    if not any(len(x) for x in gen):
        return [(x, ly) for ly in lines for x in (0.0, margin)]
    every = np.concatenate(gen)
    rows = [[x, [every.min() - margin, every.max() + margin]] for x in gen]
    need2 = 4.0 * lam * lam
    hops = []  # (from line, to line, offset)
    for a, ya in enumerate(lines):
        for b, yb in enumerate(lines):
            dy2 = (yb - ya) ** 2
            if a == b:
                hops.append((a, b, 2.0 * lam))
            elif dy2 - need2 <= tol.band(need2):
                hops.append((a, b, float(np.sqrt(max(0.0, need2 - dy2)))))
    for _ in range(k - 1):
        gen = [np.concatenate([gen[a] + s * d for a, to, d in hops if to == b for s in (-1.0, 1.0)])
               for b in range(len(lines))]
        for row, x in zip(rows, gen):
            row.append(x)
    out = []
    for row, ly in zip(rows, lines):
        x = np.sort(np.concatenate(row), kind="stable")
        out += [(v, ly) for v in x[merge_keep(x, tol.x_slacks(x))].tolist()]
    return out


def brute_csofl(points, line_y: float, k: int, tol: TolerancePolicy = DEFAULT_TOL,
                max_n: int = 8, max_k: int = 3) -> OracleResult:
    """Candidate-radius loop over exhaustive fixed-radius searches.

    Every radius of the k-aware candidate set is tried, chain gains
    included; nothing is pruned.
    """
    if len(points) > max_n:
        raise TooLargeError(f"n={len(points)} exceeds the guard {max_n}")
    if k > max_k:
        raise TooLargeError(f"k={k} exceeds the guard {max_k}")
    best = OracleResult(0.0, 0.0, (), (0, 0))
    for cand in candidate_radii_line(points, line_y, k):
        lam = cand.value
        if lam <= 0.0:
            continue
        grid = _center_grid(points, [line_y], lam, k, tol)
        useful = [
            c
            for c, m in zip(grid, _masks(points, grid, lam, tol))
            if sum(p.weight for i, p in enumerate(points) if m >> i & 1) > 0
        ]
        res = brute_fixed_radius(
            points, useful, lam, k, tol, max_centers=len(useful), max_k=max_k
        )
        if res.weight > best.weight:
            best = res
    return best


def _k1_candidate_disks(points, include_vertical=True):
    blues = [p for p in points if p.is_blue]
    disks = []
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if not p.is_blue and not q.is_blue:
                continue
            try:
                pc = pair_disk(p, q)
            except ValueError:
                continue
            if pc is not None:
                disks.append((pc.center_x, pc.radius))
    if include_vertical:
        disks.extend((b.x, b.y) for b in blues)
    return disks


def brute_k1_maxblue(points, tol: TolerancePolicy = DEFAULT_TOL, max_n: int = 12):
    """Reference for the single-disk max-blue objective; same tuple contract
    as the optimized algorithms (a -0.0 center returned as 0.0), or None
    when nothing feasible exists."""
    if len(points) > max_n:
        raise TooLargeError(f"n={len(points)} exceeds the guard {max_n}")
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    best = None
    best_key = None
    for cx, rad in _k1_candidate_disks(points):
        d = Disk(cx, 0.0, rad)
        if any(classify(r, d, tol) is Region.INSIDE for r in reds):
            continue
        count = sum(1 for b in blues if classify(b, d, tol) is not Region.OUTSIDE)
        if not count:
            continue
        key = (-count, rad, cx)
        if best_key is None or key < best_key:
            best_key = key
            best = (cx, rad, count)
    return None if best is None else (best[0] + 0.0, best[1], best[2])


def brute_k1_allblue(points, tol: TolerancePolicy = DEFAULT_TOL, max_n: int = 12):
    """Reference for the single-disk cover-all-blues objective."""
    if len(points) > max_n:
        raise TooLargeError(f"n={len(points)} exceeds the guard {max_n}")
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    if not blues:
        raise ValueError("at least one blue point is required")
    best = None
    best_key = None
    for cx, rad in _k1_candidate_disks(points):
        d = Disk(cx, 0.0, rad)
        if any(classify(b, d, tol) is Region.OUTSIDE for b in blues):
            continue
        count = sum(1 for r in reds if classify(r, d, tol) is Region.INSIDE)
        key = (count, rad, cx)
        if best_key is None or key < best_key:
            best_key = key
            best = (cx, rad, count)
    return best


def brute_tlines(points, lines, k: int, tol: TolerancePolicy = DEFAULT_TOL,
                 max_centers: int = 16, max_k: int = 3) -> OracleResult:
    """Candidate-radius loop over exhaustive multi-line subset search."""
    if k > max_k:
        raise TooLargeError(f"k={k} exceeds the guard {max_k}")
    best = OracleResult(0.0, 0.0, (), (0, 0))
    lines = list(lines)
    for lam, _ in radius_groups(candidate_radii_tlines(points, lines, k)):
        if lam <= 0.0:
            continue
        coords = _center_grid(points, lines, lam, k, tol)
        if len(coords) > max_centers:
            raise TooLargeError(
                f"{len(coords)} candidate centers exceeds the guard {max_centers}"
            )
        res = brute_fixed_radius(points, coords, lam, k, tol,
                                 max_centers=max_centers, max_k=max_k)
        if res.weight > best.weight:
            best = res
    return best


def brute_discrete(sites, points, k: int, tol: TolerancePolicy = DEFAULT_TOL,
                   max_sites: int = 10, max_k: int = 4) -> OracleResult:
    """Exhaustive subset search over sites for each candidate radius."""
    sites = tuple(tuple(s) for s in sites)
    if len(sites) > max_sites:
        raise TooLargeError(f"s={len(sites)} exceeds the guard {max_sites}")
    if k > max_k:
        raise TooLargeError(f"k={k} exceeds the guard {max_k}")
    best = OracleResult(0.0, 0.0, (), (0, 0))
    for cand in candidate_radii_discrete(points, sites):
        lam = cand.value
        if lam <= 0.0:
            continue
        res = brute_fixed_radius(points, list(sites), lam, k, tol,
                                 max_centers=max_sites, max_k=max_k)
        if res.weight > best.weight:
            best = res
    return best


def brute_special_counts(points, line_y: float, k: int, variant: str,
                         tol: TolerancePolicy = DEFAULT_TOL,
                         max_n: int = 8, max_k: int = 3):
    """Reference counts for the special objectives with k disks.

    For "maxblue-nored": (max blue count with zero reds covered). For
    "allblue-minred": (feasible, min red count over selections covering all
    blues); feasible is False when no k disks cover every blue at any
    candidate radius.
    """
    if len(points) > max_n:
        raise TooLargeError(f"n={len(points)} exceeds the guard {max_n}")
    if k > max_k:
        raise TooLargeError(f"k={k} exceeds the guard {max_k}")
    all_blue_mask = sum(1 << i for i, p in enumerate(points) if p.is_blue)
    best_blue = 0
    best_red = None
    for cand in candidate_radii_line(points, line_y, k):
        lam = cand.value
        if lam <= 0.0:
            continue
        grid, blue_masks, red_masks = [], [], []
        line_grid = _center_grid(points, [line_y], lam, k, tol)
        for c, m in zip(line_grid, _masks(points, line_grid, lam, tol)):
            bm = m & all_blue_mask
            rm = m & ~all_blue_mask
            if bm == 0 or (rm and variant == "maxblue-nored"):
                continue  # dominated, see the module docstring
            grid.append(c)
            blue_masks.append(bm)
            red_masks.append(rm)

        compat = _pair_table(grid, lam, k, tol)

        def rec(start, used, bm, rm, allowed):
            nonlocal best_blue, best_red
            if variant == "maxblue-nored":
                if rm == 0 and bm.bit_count() > best_blue:
                    best_blue = bm.bit_count()
            elif bm == all_blue_mask:
                nred = rm.bit_count()
                if best_red is None or nred < best_red:
                    best_red = nred
            if used == k:
                return
            for i in range(start, len(grid)):
                if allowed >> i & 1:
                    rec(i + 1, used + 1, bm | blue_masks[i], rm | red_masks[i], allowed & compat[i])

        rec(0, 0, 0, 0, (1 << len(grid)) - 1)
    if variant == "maxblue-nored":
        return best_blue
    return (best_red is not None), best_red
