"""Brute-force reference solvers used by the test suite and `sofl check`.

These share only geometry predicates, the near-duplicate merge, the
candidate radius generators and the single-disk candidate circle with the
optimized code: `classify`, for coverage `coverage_mask` in `classify`'s
float operations, for center pairs `compatible_table` in those of
`centers_compatible`, `bitsets`, `point_order_sums`, `merge_keep`, and
`variants_k1.pair_disk` for the k = 1 references. Candidate centers come
from grids of their own that chain both ways from every endpoint, a
superset of the solvers' rightward chains (`klink` module docstring).

Each brute builds its tables for all its candidate radii at once, in
chunks of radii (`_tables`): per chunk one center grid, one points x
centers coverage table packed into a bitmask per center, one point-order
sum per center, and one centers x centers pair table per radius over the
centers that pass the dominance filter. Each table has at most TABLE
cells, a quarter of `placement.CELLS`, since a chunk holds about four
arrays of a table's size at once.

Every optimum comes from explicit subset enumeration (`_results`, or
`brute_special_counts`' own objective), under the solvers' tie rule
written out on its own. The only shortcuts taken are
sound dominance: disks at pairwise distance >= 2*lam are disjoint, so a
center whose own disk nets a non-positive weight can never improve a
selection and is skipped; for the special counts a center that covers no
blue is skipped, and for max-blue also one that covers a red.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import discrete_radii, line_radii, tlines_radii
from .geom import (
    DEFAULT_TOL,
    Disk,
    Region,
    TolerancePolicy,
    bitsets,
    classify,
    compatible_table,
    coverage_mask,
    merge_keep,
    point_order_sums,
)
from .placement import CELLS
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

# Cells of one table of a chunk of radii: a chunk holds about four arrays
# of a table's size at once, within the one budget placement.CELLS.
TABLE = CELLS // 4


class TooLargeError(ValueError):
    """Instance exceeds the oracle's enumeration guards."""


@dataclass(frozen=True)
class OracleResult:
    weight: float
    radius: float
    placements: tuple  # chosen center coordinates (x, y) or site ids
    counts: tuple[int, int]  # covered (blue, red)


def _coverage(points, x, y, r2, tol):
    """The points x centers `coverage_mask` table of the centers (x[j], y[j])
    with squared radii r2[j], in the float operations of `classify`, and
    per center the weight of the points it covers summed in point order."""
    p = np.array([(q.x, q.y, q.weight) for q in points], dtype=float).reshape(-1, 3)
    s = p[:, :1] - x
    s *= s
    dy2 = p[:, 1:2] - y
    dy2 *= dy2
    s += dy2
    s -= r2
    blue = np.array([q.is_blue for q in points], dtype=bool)
    cov = coverage_mask(s, blue[:, None], tol.bands(r2))
    del s, dy2  # before point_order_sums builds a table of its own
    return cov, point_order_sums(cov, p[:, 2])


def _pair_rows(x, y, row, lams, tol) -> list[int]:
    """Per center, the int bitmask of the centers of its radius compatible
    with it (bit j for the j-th center of radius lams[row]), rows
    ascending: per radius one centers x centers `compatible_table`, padded
    to the most centers m of a radius, TABLE // m^2 radii at a time."""
    count = np.bincount(row, minlength=len(lams))
    pos = np.arange(len(row)) - (np.cumsum(count) - count)[row]
    m = count.max(initial=0)
    step = max(1, TABLE // max(1, m * m))
    rows = []
    for a in range(0, len(lams), step):
        at = (a <= row) & (row < a + step)
        r, p = row[at] - a, pos[at]
        cx, cy = np.zeros((2, len(lams[a: a + step]), m))
        cx[r, p], cy[r, p] = x[at], y[at]
        dx = cx[:, :, None] - cx[:, None, :]
        dy2 = cy[:, :, None] - cy[:, None, :]
        same = dy2 == 0.0
        dy2 *= dy2
        dy2 += dx * dx
        ok = compatible_table(same, np.abs(dx, out=dx), dy2, lams[a: a + step, None, None], tol)
        rows += bitsets(ok[r, p] & (np.arange(m) < count[row[at], None]))
    return rows


def _tables(points, lams, k, tol, lines=None, sites=(), keep=None, max_centers=None):
    """Per radius of lams, in order: (lam, centers, masks, compat), its
    centers as (x, y) ascending, per center the bitmask of the points it
    covers (`_coverage`) and, for k > 1, of the centers compatible with it
    (`_pair_rows`; all zero for k = 1, where a selection never holds a
    pair), bit i for points[i] and bit j for the j-th center.

    The centers are the sites at every radius, or else `_center_grids` on
    the lines, where a radius with more than max_centers raises
    `TooLargeError`. The radii go in chunks whose coverage table, and
    every array of their grid, has at most TABLE cells. keep(cov, sums)
    selects the centers that are not dominated (module docstring) by their
    column of the coverage table and point-order sum, before the masks are
    packed and the pair tables built."""
    n = len(points)
    if lines is None:
        sites = sorted(sites)
        sx, sy = np.array(sites, dtype=float).reshape(-1, 2).T
        cells = max(1, n) * max(1, len(sites))

        def grid(lam):
            each = len(lam)
            return (np.tile(sx, each), np.tile(sy, each), np.arange(each).repeat(len(sites)),
                    sites * each)
    else:  # raw grid values: 2n endpoints a line, each hopping to 2t, 2 sentinels a line
        t = len(lines)
        cells = max(1, n) * (2 * n * t * sum((2 * t) ** g for g in range(k)) + 2 * t)

        def grid(lam):
            return _center_grids(points, lines, lam, k, tol)
    step = max(1, TABLE // cells)
    for a in range(0, len(lams), step):
        part = lams[a: a + step]
        lam = np.array(part, dtype=float)
        x, y, row, centers = grid(lam)
        count = np.bincount(row, minlength=len(part))
        if max_centers is not None and (count > max_centers).any():
            over = count[count > max_centers][0]
            raise TooLargeError(f"{over} candidate centers exceeds the guard {max_centers}")
        cov, sums = _coverage(points, x, y, (lam * lam)[row], tol)
        if keep is not None:
            on = keep(cov, sums)
            x, y, row, cov = x[on], y[on], row[on], cov[:, on]
            centers = [c for c, o in zip(centers, on.tolist()) if o]
        masks = bitsets(cov.T)
        compat = _pair_rows(x, y, row, lam, tol) if k > 1 else [0] * len(centers)
        cut = np.searchsorted(row, np.arange(len(part) + 1)).tolist()
        for r, v in enumerate(part):
            i, j = cut[r], cut[r + 1]
            yield v, centers[i:j], masks[i:j], compat[i:j]


def _results(points, k: int, tables):
    """Per (lam, centers, masks, compat) of tables, the `OracleResult` of
    the best selection of at most k pairwise compatible centers: every
    subset in depth-first order, under the tie key written out here rather
    than taken from `placement.selection_key`, so that this reference stays
    independent of the solvers' copy of the rule. Union weights are summed
    in point order, memoized per covered-point bitmask."""
    point_w = [p.weight for p in points]
    blue = sum(1 << i for i, p in enumerate(points) if p.is_blue)
    weight_cache: dict[int, float] = {0: 0.0}

    def union_weight(mask: int) -> float:
        got = weight_cache.get(mask)
        if got is None:
            got = sum((w for i, w in enumerate(point_w) if mask >> i & 1), 0.0)
            weight_cache[mask] = got
        return got

    for lam, centers, masks, compat in tables:
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
        nb = (mask & blue).bit_count()
        yield OracleResult(union_weight(mask), lam, tuple(centers[i] for i in ids),
                           (nb, mask.bit_count() - nb))


def _best(results) -> OracleResult:
    """The first result of the largest positive weight, else no selection
    at radius 0."""
    return max([OracleResult(0.0, 0.0, (), (0, 0)), *results], key=lambda r: r.weight)


def brute_fixed_radius(points, centers, lam: float, k: int,
                       tol: TolerancePolicy = DEFAULT_TOL,
                       max_centers: int = 20, max_k: int = 4) -> OracleResult:
    """Exhaustive search over all feasible subsets of at most k centers:
    `_results` at one radius."""
    if len(centers) > max_centers:
        raise TooLargeError(f"{len(centers)} centers exceeds the guard {max_centers}")
    if k > max_k:
        raise TooLargeError(f"k={k} exceeds the guard {max_k}")
    return next(_results(points, k, _tables(points, [lam], k, tol, sites=centers)))


def _positive(groups) -> list[float]:
    """The positive radii of a family's (value, standard) radius groups."""
    value = groups[0]
    return value[value > 0.0].tolist()


def _center_grids(points, lines, lam, k, tol):
    """Candidate centers of the radii lam (an array) on the lines, as flat
    x, y and row (index into lam) arrays sorted by (row, x, y), and as
    (x, line) tuples. Per radius: the influence-interval endpoints
    px -+ sqrt(lam^2 - dy^2) of the points within lam of a line
    (dy^2 - lam^2 <= band), k - 1 generations of hops both ways from every
    value of the generation before (2*lam along its line,
    sqrt(4*lam^2 - dy^2) onto each line within 2*lam), so that a narrower
    solver grid cannot narrow this one, and on each line a sentinel 2k*lam
    beyond the outermost endpoints on each side; merged per (radius, line)
    by one `merge_keep` call with the first value of each flagged. With
    nothing in reach, 0 and 2k*lam on each line, unmerged."""
    t, ly = len(lines), np.array(lines, dtype=float)
    px = np.array([p.x for p in points], dtype=float)
    dy2 = (np.array([p.y for p in points], dtype=float) - ly[:, None]) ** 2
    lam2 = (lam * lam)[:, None, None]
    near = dy2 - lam2 <= tol.bands(lam2)  # radius, line, point
    h = np.sqrt(np.maximum(0.0, lam2 - dy2))
    r, li, i = near.nonzero()
    x, key = np.concatenate([px[i] - h[near], px[i] + h[near]]), np.tile(r * t + li, 2)
    xs, keys = [x], [key]
    if k > 1:  # hop offsets by radius, from line and to line; nan out of reach
        need2 = (4.0 * lam * lam)[:, None, None]
        ldy2 = np.array([[(yb - ya) ** 2 for yb in lines] for ya in lines], dtype=float)
        off = np.sqrt(np.maximum(0.0, need2 - ldy2))
        off[ldy2 - need2 > tol.bands(need2)] = np.nan
        off[:, range(t), range(t)] = (2.0 * lam)[:, None]
        off = np.concatenate([off, -off], axis=2)
    for _ in range(k - 1):
        x = (x[:, None] + off[key // t, key % t]).ravel()
        key = ((key // t * t)[:, None] + np.tile(range(t), 2)).ravel()
        x, key = x[~np.isnan(x)], key[~np.isnan(x)]
        xs.append(x)
        keys.append(key)
    margin = 2.0 * k * lam
    some = near.any(axis=(1, 2))
    lo = np.where(some, np.min(px - h, axis=(1, 2), where=near, initial=np.inf) - margin, 0.0)
    hi = np.where(some, np.max(px + h, axis=(1, 2), where=near, initial=-np.inf) + margin, margin)
    xs.append(np.repeat(np.stack([lo, hi], axis=1), t, axis=0).ravel())
    keys.append(np.repeat(np.arange(len(lam) * t), 2))
    x, key = np.concatenate(xs), np.concatenate(keys)
    o = np.lexsort((x, key))
    x, key = x[o], key[o]
    start = ~some[key // t]
    start[1:] |= key[1:] != key[:-1]
    keep = merge_keep(x, tol.x_slacks(x), start)
    x, row, li = x[keep], key[keep] // t, key[keep] % t
    o = np.lexsort((ly[li], x, row))
    x, row, li = x[o], row[o], li[o]
    return x, ly[li], row, list(zip(x.tolist(), [lines[j] for j in li.tolist()]))


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
    lams = _positive(line_radii(points, line_y, k))
    return _best(_results(points, k, _tables(points, lams, k, tol, [line_y],
                                             keep=lambda cov, sums: sums > 0)))


def _k1_candidate_disks(points):
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
    disks.extend((p.x, p.y) for p in points if p.is_blue)
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
    lines = list(lines)
    lams = _positive(tlines_radii(points, lines, k))
    return _best(_results(points, k, _tables(points, lams, k, tol, lines, max_centers=max_centers)))


def brute_discrete(sites, points, k: int, tol: TolerancePolicy = DEFAULT_TOL,
                   max_sites: int = 10, max_k: int = 4) -> OracleResult:
    """Exhaustive subset search over sites for each candidate radius."""
    sites = tuple(tuple(s) for s in sites)
    if len(sites) > max_sites:
        raise TooLargeError(f"s={len(sites)} exceeds the guard {max_sites}")
    if k > max_k:
        raise TooLargeError(f"k={k} exceeds the guard {max_k}")
    lams = _positive(discrete_radii(points, sites))
    return _best(_results(points, k, _tables(points, lams, k, tol, sites=sites)))


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

    blue = np.array([p.is_blue for p in points], dtype=bool)

    def keep(cov, sums):  # dominated, see the module docstring
        on = cov[blue].any(axis=0)
        return on & ~cov[~blue].any(axis=0) if variant == "maxblue-nored" else on

    lams = _positive(line_radii(points, line_y, k))
    for _, grid, masks, compat in _tables(points, lams, k, tol, [line_y], keep=keep):
        blue_masks = [m & all_blue_mask for m in masks]
        red_masks = [m & ~all_blue_mask for m in masks]

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
