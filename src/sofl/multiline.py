"""Placement across several horizontal lines for a common radius.

Candidate centers per line are the influence-interval endpoints plus chains
of hops at center distance exactly 2*lam: along a line a hop moves 2*lam in
x, across two lines closer than 2*lam it moves the reduced offset
sqrt(4*lam^2 - dy^2); each generation of hops is one numpy batch. Selection
is an exact depth-first search over the x-sorted candidates with an
optimistic bound, because non-overlap between centers on different lines is
a pairwise Euclidean constraint that a simple left-to-right link cannot
capture. The per-radius kernel `_solve_radius` runs on each line's geometry,
built once per solve; numpy gives each candidate its covered points and the
candidates compatible with it as int bitsets, so a node ANDs bitsets instead
of testing pairs. The kernel re-validates its selection pairwise with the
scalar `geom.centers_compatible` and returns its union weight, so the radius
loop (`placement.best_radius`) builds one `Placement`, for the one it returns.
"""

from __future__ import annotations

import math

import numpy as np

from .candidates import candidate_radii_tlines, check_lines, radius_groups
from .geom import (
    DEFAULT_TOL,
    TolerancePolicy,
    bitsets,
    centers_compatible,
    compatible_table,
    coverage_mask,
    point_order_sums,
)
from .klink import interval_ends, line_geometry
from .placement import LineCenter, Placement, ValidationFailureError, best_radius, line_placement, selection_key

__all__ = [
    "multiline_centers",
    "solve_tlines_fixed_radius",
    "solve_tlines",
]


def _admit(kx, kl, cx, cl, tol: TolerancePolicy):
    """Keep mask of the candidates cx on lines cl, in insertion order: a
    value is kept iff it is not `tol.close` to a value already kept on its
    line, among kx on lines kl or the candidates kept before it.

    Kept values are pairwise farther apart than their slack, and a value
    further along in sorted order is farther away by more than its slack
    can grow, so a value close to some kept value is close to a sorted
    neighbour. Runs of close sorted neighbours thus decide independently. A
    run whose ends are close is all mutually close, and its earliest value
    alone is kept; any other run is decided value by value.
    """
    keep = np.zeros(len(cx), dtype=bool)
    x = np.concatenate([kx, cx])
    li = np.concatenate([kl, cl])
    o = np.lexsort((x, li))
    x, li = x[o], li[o]
    rank = o - len(kx)  # insertion order; the kept values come first
    slack = tol.x_slacks(x)
    brk = np.ones(len(x), dtype=bool)
    brk[1:] = (x[1:] - x[:-1] > np.maximum(slack[1:], slack[:-1])) | (li[1:] != li[:-1])
    if brk.all():
        keep[:] = True
        return keep
    start = brk.nonzero()[0]
    last = np.append(start[1:], len(x)) - 1
    tight = x[last] - x[start] <= np.maximum(slack[last], slack[start])
    first = np.minimum.reduceat(rank, start)
    run = np.cumsum(brk) - 1
    won = rank[(rank == first[run]) & tight[run]]
    keep[won[won >= 0]] = True
    for r in (~tight).nonzero()[0].tolist():
        got: list[float] = []
        for at in sorted(range(start[r], last[r] + 1), key=rank.__getitem__):
            if rank[at] < 0:
                got.append(x[at])
            elif not any(tol.close(v, x[at]) for v in got):
                got.append(x[at])
                keep[rank[at]] = True
    return keep


def _hop_table(lines, lam: float, tol: TolerancePolicy):
    """Hop offsets and target lines per source line (rows), in the order a
    value's hops are admitted: -2*lam, +2*lam on its own line, then -off,
    +off on each line closer than 2*lam; padded with target -1."""
    need2 = 4.0 * lam * lam
    band = tol.band(need2)
    off, to = [], []
    for li, ly in enumerate(lines):
        hops = [(2.0 * lam, li)]
        for lj, ly2 in enumerate(lines):
            dy2 = (ly2 - ly) ** 2
            if lj != li and dy2 - need2 <= band:
                hops.append((math.sqrt(max(0.0, need2 - dy2)), lj))
        hops += [(0.0, -1)] * (len(lines) - len(hops))
        off.append([v for d, _ in hops for v in (-d, d)])
        to.append([lj for _, lj in hops for _ in (0, 1)])
    return np.array(off), np.array(to)


def _candidates(geos, lines, lam: float, k: int, tol: TolerancePolicy):
    """Candidate centers across lines as x and line index arrays, sorted by
    (x, line): endpoints, hop chains, sentinels.

    geos holds each line's `klink.line_geometry` of the points. The
    endpoints are admitted in (x, line) order, then k - 1 generations of
    hops (`_hop_table`) from the values the previous generation admitted,
    then each line's two sentinels; `_admit` drops near-duplicates of every
    batch.
    """
    t = len(lines)
    margin = 2.0 * k * lam
    ends = [interval_ends(geo, lam, tol)[1] for geo in geos]
    ex = np.concatenate(ends)
    el = np.repeat(np.arange(t), [len(e) for e in ends])
    kx, kl = np.empty(0), np.empty(0, dtype=int)

    def admit(cx, cl):
        nonlocal kx, kl
        keep = _admit(kx, kl, cx, cl, tol)
        kx, kl = np.concatenate([kx, cx[keep]]), np.concatenate([kl, cl[keep]])
        return cx[keep], cl[keep]

    pair = np.array([li for li in range(t) for _ in (0, 1)])
    if not len(ex):
        admit(np.array([0.0, margin] * t), pair)
    else:
        o = np.lexsort((el, ex))
        bx, bl = ex[o], el[o]
        if k > 1:
            off, to = _hop_table(lines, lam, tol)
        for _ in range(k - 1):
            fx, fl = admit(bx, bl)
            tf = to[fl]
            ok = tf >= 0
            bx, bl = (fx[:, None] + off[fl])[ok], tf[ok]
        # The sentinels come after the last batch in insertion order.
        sx = np.array([ex.min() - margin, ex.max() + margin] * t)
        admit(np.concatenate([bx, sx]), np.concatenate([bl, pair]))

    o = np.lexsort((kl, kx))
    return kx[o], kl[o]


def multiline_centers(points, lines, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL):
    """Candidate centers across lines (`_candidates`) as `LineCenter`s."""
    lines = check_lines(lines)
    if lam <= 0:
        raise ValueError("candidate centers require a positive radius")
    xs, li = _candidates([line_geometry(points, ly) for ly in lines], lines, lam, k, tol)
    return [LineCenter(x, i) for x, i in zip(xs.tolist(), li.tolist())]


def _coverage(xs, px, dy2, blue, lam: float, tol: TolerancePolicy):
    """geom.is_covered for every point (row) and center (column) of one
    line."""
    r2 = lam * lam
    s = px[:, None] - xs[None, :]
    s *= s
    s += dy2[:, None]
    s -= r2
    return coverage_mask(s, blue[:, None], tol.band(r2))


def _coverage_table(geos, xs, li, lam, tol):
    """The searched candidates as indices into xs, and per searched position
    its gain (covered positive weight) and its covered points as a bitset.
    Each line's columns come from `_coverage` of its geometry, and
    weights are summed in point order like `geom.disk_weight`. A center
    whose own disk nets nothing can never improve a union of non-overlapping
    disks, and the fewest-centers tie rule drops it, so only the others are
    searched."""
    px, blue, w = geos[0].px, geos[0].blue, geos[0].w
    cov = np.empty((len(px), len(xs)), dtype=bool)
    for i, geo in enumerate(geos):
        on = li == i
        cov[:, on] = _coverage(xs[on], px, geo.dy2, blue, lam, tol)
    order = np.flatnonzero(point_order_sums(cov, w) > 0)
    cov = cov[:, order]
    gains = point_order_sums(cov & (w > 0)[:, None], w).tolist()
    return order, gains, bitsets(cov.T)


def _compat_table(cx, cy, lam, tol) -> list[int]:
    """Per center, the centers compatible with it as a bitset over
    positions, decided by `geom.compatible_table`."""
    dx = cx[:, None] - cx[None, :]
    dy = cy[:, None] - cy[None, :]
    same = cy[:, None] == cy[None, :]
    return bitsets(compatible_table(same, np.abs(dx), dx * dx + dy * dy, lam, tol))


def _search_best(geos, lines, lam, k, xs, li, tol):
    """Exact DFS over the searched candidates in (x, line) order; returns
    the best union weight, summed in point order like `union_coverage`, and
    the indices into xs of the canonical best selection, ascending.

    A node carries the bitset of later positions compatible with every
    chosen center (the AND of their `_compat_table` rows) and walks its set
    bits in ascending order; the bits left after the one taken are the
    later positions. A child is searched on unless its weight plus the
    largest gains still to come cannot reach the incumbent's weight.
    """
    order, gains, masks = _coverage_table(geos, xs, li, lam, tol)
    point_w = geos[0].w.tolist()
    keys = list(zip(xs[order].tolist(), li[order].tolist()))
    m = len(order)
    compat: list[int] = []
    # top[pos][b]: the sum of the b largest gains among positions pos..,
    # added largest first. A child has chosen one center, so b < k.
    top = [[0.0] * k] * (m + 1)
    if k > 1:
        compat = _compat_table(xs[order], np.array(lines)[li[order]], lam, tol)
        largest: list[float] = []
        for pos in range(m - 1, -1, -1):
            largest = sorted(largest + [gains[pos]], reverse=True)[: k - 1]
            top[pos] = [sum(largest[:b]) for b in range(k)]

    weights: dict[int, float] = {}  # union weight per covered-point bitset

    def union_weight(mask: int) -> float:
        total = weights.get(mask)
        if total is None:
            total = 0.0
            rest = mask
            while rest:
                low = rest & -rest
                total += point_w[low.bit_length() - 1]
                rest ^= low
            weights[mask] = total
        return total

    best_key = selection_key(0.0, [])  # the empty selection
    best_ids: tuple[int, ...] = ()

    def rec(chosen: list[int], mask: int, allowed: int):
        nonlocal best_key, best_ids
        budget = k - len(chosen) - 1  # left after one more center
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            at = low.bit_length() - 1
            chosen.append(at)
            nxt = mask | masks[at]
            w = union_weight(nxt)
            if -w <= best_key[0]:  # can tie or win
                key = selection_key(w, [keys[i] for i in chosen])
                if key < best_key:
                    best_key = key
                    best_ids = tuple(chosen)
            rest = allowed & compat[at] if budget else 0
            if rest and w + top[at + 1][budget] >= -best_key[0]:
                rec(chosen, nxt, rest)
            chosen.pop()

    rec([], 0, (1 << m) - 1)
    return -best_key[0], order[list(best_ids)]


def _solve_radius(geos, lines, lam: float, k: int, tol: TolerancePolicy):
    """Best selection of at most k radius-lam disks centered on the lines:
    its union weight and its centers as (x, line index) pairs, ascending.
    The selection is re-validated pairwise with the scalar
    `geom.centers_compatible`."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if lam <= 0.0:
        return 0.0, ()
    xs, li = _candidates(geos, lines, lam, k, tol)
    weight, ids = _search_best(geos, lines, lam, k, xs, li, tol)
    chosen = tuple(zip(xs[ids].tolist(), li[ids].tolist()))
    for i, (ax, al) in enumerate(chosen):
        for bx, bl in chosen[i + 1 :]:
            if not centers_compatible((ax, lines[al]), (bx, lines[bl]), lam, tol):
                raise ValidationFailureError(f"overlapping selection {(ax, al)} / {(bx, bl)}")
    return weight, chosen


def _placement(points, lines, lam: float, chosen, tol: TolerancePolicy) -> Placement:
    return line_placement(points, lines, max(lam, 0.0), tuple(LineCenter(*c) for c in chosen), tol)


def solve_tlines_fixed_radius(points, lines, lam: float, k: int,
                              tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Best placement of at most k radius-lam disks centered on the lines."""
    lines = check_lines(lines)
    _, chosen = _solve_radius([line_geometry(points, ly) for ly in lines], lines, lam, k, tol)
    return _placement(points, lines, lam, chosen, tol)


def solve_tlines(points, lines, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Max-weight placement of at most k disks centered on the lines:
    `best_radius` over the radius groups of `candidate_radii_tlines` with
    the kernel `_solve_radius`, the standard groups first. A chain-gain
    radius can win only if the blue weight within reach of some line beats
    the best so far: more weight, or as much at a smaller radius."""
    lines = check_lines(lines)
    groups = radius_groups(candidate_radii_tlines(points, lines, tol, k))
    geos = [line_geometry(points, ly) for ly in lines]
    blues = [(min((p.y - ly) ** 2 for ly in lines), p.weight) for p in points if p.is_blue]

    def can_win(v: float, best) -> bool:
        r2 = v * v
        reach = sum(w for dy2, w in blues if dy2 - r2 <= tol.band(r2))
        return reach > best[0] or (reach == best[0] and v < best[1])

    _, lam, chosen = best_radius(groups, lambda v: _solve_radius(geos, lines, v, k, tol), can_win)
    return _placement(points, lines, lam, chosen, tol)
