"""Placement across several horizontal lines for a common radius.

Candidate centers per line are the influence-interval endpoints plus
rightward chains of hops at center distance exactly 2*lam: along a line a
hop moves 2*lam in x, across two lines closer than 2*lam it moves the
reduced offset sqrt(4*lam^2 - dy^2). Leftward hops are not needed for
exact coverage, by the left-shift argument of the `klink` module
docstring; a radius whose band is wider than the default one
(`klink.two_sided`) hops both ways. Selection is exact: array maxima for
budgets of one and two, and beyond them a depth-first search with an
optimistic bound, because non-overlap between centers on different lines is
a pairwise Euclidean constraint that a simple left-to-right link cannot
capture.

`_solve_radii` solves a chunk of radii at once, one row per radius, on each
line's geometry, built once per solve:
- candidates: every row's endpoints (`klink._ends`), hop generations and
  sentinels, merged per (row, line) in one `geom.merge_keep` call; the
  `klink.two_sided` radii go in chunks of their own (`klink.by_sides`);
- tables: one points x candidates coverage mask gives each candidate its
  weight as a point-order column sum;
- budgets of one and two: per row, the `selection_key` minimum over the
  singles and the compatible pairs, weighed by their union
  (`placement.best_upto_two`, which discrete shares). No pair table is
  built: two disks that do not touch cover no common point, so a strict
  pair weighs the sum of its disks' weights, and each candidate's best
  strict partner on each line is a running maximum up to one
  `searchsorted` cut; only the pairs near touching are listed and weighed
  by their union (`_partners`);
- k >= 3: per row, a Python DFS (`_search`) seeded with the best single,
  where a node ANDs int bitsets of covered points and compatible later
  candidates (`_pairs`, in blocks) instead of testing center pairs. Union
  weights are memoized per covered-point bitset for a whole solve, since
  they do not depend on the radius; they are the same point-order float
  sums as the array ones.
`placement.in_chunks` gives a chunk as many radii as fit `placement.CELLS`
coverage cells; the radius loop (`placement.best_radius`) solves the
first radii in one call and the chain radii it admits in one more. Every
selection is re-validated pairwise with the scalar
`geom.centers_compatible`. The kernel returns its union weight, so the
radius loop builds one `Placement`, for the radius it returns.
"""

from __future__ import annotations

import numpy as np

from .candidates import check_lines, tlines_radii
from .geom import (
    DEFAULT_TOL,
    TolerancePolicy,
    bitsets,
    centers_compatible,
    compatible_table,
    coverage_mask,
    merge_keep,
    point_order_sums,
)
from . import placement
from .klink import _ends, by_sides, line_geometry
from .placement import (
    LineCenter,
    Placement,
    ValidationFailureError,
    best_radius,
    best_upto_two,
    in_chunks,
    line_placement,
    selection_key,
)

__all__ = [
    "solve_tlines",
]


def _stacked(geos):
    """The points against every line at once: the `klink.LineGeometry` of
    the first line with the squared heights over all lines, shape (t, n)."""
    return geos[0]._replace(dy2=np.stack([geo.dy2 for geo in geos]))


def _hop_tables(lines, lams, tol: TolerancePolicy, both: bool):
    """Per radius and source line, the rightward hop offsets and target
    lines: +2*lam on its own line, then +off on each line closer than
    2*lam, off = sqrt(4*lam^2 - dy^2); with both, then the same hops
    leftward. Target -1 marks a line out of reach. Shapes (radii, t, t),
    or (radii, t, 2t) with both."""
    t = len(lines)
    to = [[li] + [lj for lj in range(t) if lj != li] for li in range(t)]
    dy2 = np.array([[(lines[lj] - lines[li]) ** 2 for lj in row] for li, row in enumerate(to)])
    need2 = (4.0 * lams * lams)[:, None, None]
    off = np.sqrt(np.maximum(0.0, need2 - dy2))
    off[..., 0] = (2.0 * lams)[:, None]
    reach = dy2 - need2 <= tol.bands(need2)
    reach[..., 0] = True
    to = np.where(reach, to, -1)
    if both:
        return np.concatenate([off, -off], axis=2), np.concatenate([to, to], axis=2)
    return off, to


def _candidates(geo, lines, lams, k: int, tol: TolerancePolicy, both: bool):
    """Candidate centers of positive radii across lines, as x, radius
    (row) and line index arrays sorted by (row, x, line): endpoints, hop
    chains, rightward or with both also leftward, sentinels.

    geo holds the points against every line (`_stacked`). Per row, the raw
    values are the endpoints (`klink._ends`), k - 1 generations of hops
    (`_hop_tables`) from every value of the generation before, and each
    line's two sentinels: at most 2tn(1 + h + ... + h^(k-1)) + 2t values,
    with h = t hops per value, or 2t with both. They are sorted stably by
    (row, line, x) and merged in one `geom.merge_keep` call with the first
    value of each (row, line) flagged, as `klink._centers` merges its rows.
    """
    t, rows = len(lines), len(lams)
    _, ends = _ends(geo, lams[:, None], tol)
    ends = ends.reshape(rows, -1)  # per row: line, point, l/r
    live = ends < np.inf
    er, at = live.nonzero()
    bx, bk = ends[live], er * t + at // (ends.shape[1] // t)
    xs, ks = [bx], [bk]
    if k > 1:
        off, to = _hop_tables(lines, lams, tol, both)
    for _ in range(k - 1):
        fr, fl = np.divmod(bk, t)
        tf = to[fr, fl]
        ok = tf >= 0
        bx, bk = (bx[:, None] + off[fr, fl])[ok], (fr[:, None] * t + tf)[ok]
        xs.append(bx)
        ks.append(bk)
    # A row with nothing in reach has only 0 and 2*k*lam on each line.
    margin = 2.0 * k * lams
    some = live.any(axis=1)
    lo = np.where(some, ends.min(axis=1, initial=np.inf) - margin, 0.0)
    hi = np.where(some, np.max(ends, axis=1, where=live, initial=-np.inf) + margin, margin)
    xs.append(np.repeat(np.stack([lo, hi], axis=1), t, axis=0).ravel())
    ks.append(np.repeat(np.arange(rows * t), 2))
    x, key = np.concatenate(xs), np.concatenate(ks)
    o = np.lexsort((x, key))
    x, key = x[o], key[o]
    start = np.ones(len(x), dtype=bool)
    start[1:] = key[1:] != key[:-1]
    keep = merge_keep(x, tol.x_slacks(x), start)
    x, (row, line) = x[keep], np.divmod(key[keep], t)
    o = np.lexsort((line, x, row))
    return x[o], row[o], line[o]


def _coverage(geo, lams, xs, row, li, tol: TolerancePolicy):
    """`geom.is_covered` of every point (row of the mask) by every center
    (column)."""
    r2 = (lams * lams)[row]
    s = geo.px[:, None] - xs
    s *= s
    s += geo.dy2[li].T
    s -= r2
    return coverage_mask(s, geo.blue[:, None], tol.bands(r2))


def _pairs(xs, ys, row, lams, tol: TolerancePolicy, cells: int):
    """The compatible pairs of centers i < j of a row (rows ascending), as
    blocks of i and j, each of about `placement.CELLS` / cells pairs. Each
    pair is decided at its row's radius by `geom.compatible_table`."""
    pos = np.arange(len(row)) - np.searchsorted(row, row)
    later = np.bincount(row, minlength=len(lams))[row] - pos - 1
    block = max(1, placement.CELLS // cells)
    cuts = np.searchsorted(np.cumsum(later), np.arange(block, later.sum(), block))
    for a in np.split(np.arange(len(row)), cuts):
        i = np.repeat(a, later[a])
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later[a]) - later[a], later[a])
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        ok = compatible_table(ys[i] == ys[j], np.abs(dx), dx * dx + dy * dy, lams[row[i]], tol)
        yield i[ok], j[ok]


def _cuts(lines, lams, xs, row, li, tol: TolerancePolicy):
    """The (row, line, x) order o of the centers and, per line a and center
    j, shape (t, m): where line a's centers of j's row start in o, the
    `_partners` cuts strict <= close after that start, whether a is j's
    line, dy^2, and the threshold of `geom.compatible_table` on |dx| (one
    line) or d2 (across), in its float operations."""
    t, rows = len(lines), len(lams)
    group = row * t + li
    size = np.bincount(group, minlength=rows * t)
    q = row * t + np.arange(t)[:, None]  # the group of line a in the row of j
    base = (np.cumsum(size) - size)[q]
    same = li == np.arange(t)[:, None]
    two, r2 = 2.0 * lams, lams * lams
    far2 = (4.0 * (r2 + tol.bands(r2)) * (1.0 + 2.0 ** -20))[row]
    need = 4.0 * lams * lams
    one, across = (two - tol.x_slacks(two))[row], (need - tol.bands(need))[row]
    dy2 = (np.asarray(lines)[:, None] - np.asarray(lines)[li]) ** 2
    dx0 = xs - xs.min()
    span = 2.0 * (dx0.max() + 2.0 * far2.max() ** 0.5 + np.abs(one).max()) + 1e-300  # keeps groups apart
    key = group * span + dx0
    o = np.argsort(key, kind="stable")
    slack = 2.0 ** -40 * (np.abs(xs) + (rows * t + 1) * span)
    wide = np.sqrt(np.maximum(2.0 ** -38 * far2, far2 * (1.0 + 2.0 ** -38) - dy2)) + slack
    narrow = np.where(same, one, np.sqrt(np.maximum(0.0, across * (1.0 - 2.0 ** -38) - dy2))) - slack
    cuts = np.searchsorted(key[o], q * span + dx0 - np.stack([wide, narrow]), "right") - base
    strict, close = np.minimum(np.maximum(cuts, 0), size[q])
    return o, base, strict, close, same, dy2, np.where(same, one, across)


def _partners(geo, lines, lams, xs, row, li, w, cov, tol: TolerancePolicy):
    """The pairs of searched centers i < j of a row that can be a budget of
    two's best, as blocks (i, j, weight) for `placement.best_upto_two`.

    A covered point lies within sqrt(lam^2 + band) of its center, so two
    centers more than twice that apart (d2 > far2, with room for rounding)
    are compatible and share no covered point: the pair weighs w_i + w_j.
    For a center j and a line a, dy away, line a's centers left of x_j by
    more than sqrt(far2 - dy^2) are such strict partners, and none within
    the gap where compatibility ends (2*lam less the slack on one line,
    sqrt(4*lam^2 - band - dy^2) across) is compatible. Both are prefixes of
    line a's x order, cut by one `searchsorted` of keys group * span + x at
    gaps widened and narrowed by far more than the rounding of the gaps and
    the keys. A pair is found from its right center, or both at one x.

    For a fixed j, `best_upto_two` ranks partners of one weight by their
    position, so the best strict partner is a running maximum of (weight,
    -position), and one pair per (j, a) gives it. The centers between the
    cuts are listed, kept in the float operations of `geom.compatible_table`
    and weighed by their union in point order. w_i + w_j is that union sum
    only when `geo.exact`; otherwise the strict pairs within the rounding
    margin of their row's best sum are listed instead, so every weight is a
    union sum, as an enumeration of all compatible pairs gives it."""
    t, m, rows = len(lines), len(row), len(lams)
    o, base, strict, close, same, dy2, thr = _cuts(lines, lams, xs, row, li, tol)
    by_rank = np.argsort(-w, kind="stable")  # weight descending, then position
    rank = np.empty(m, dtype=np.intp)
    rank[by_rank] = np.arange(m)
    top = np.maximum.accumulate((row * t + li)[o] * m + (m - 1 - rank[o]))  # restarts per group: groups ascend
    has = strict > 0
    bi, bj = by_rank[m - 1 - top[(base + strict - 1)[has]] % m], has.nonzero()[1]
    pair_w = w[bi] + w[bj]
    lo, given = strict, (np.minimum(bi, bj), np.maximum(bi, bj), pair_w)
    if not geo.exact:
        best = np.full(rows, -np.inf)
        np.maximum.at(best, row[bj], pair_w)
        floor = best - (4 * len(geo.w) + 8) * 2.0 ** -52 * float(np.abs(geo.w).sum())
        rival = np.zeros((t, m), dtype=bool)  # (a, j) with a strict pair within the margin
        rival[has] = pair_w >= floor[row[bj]]
        lo, given = np.where(rival, 0, strict), (bi[:0], bj[:0], pair_w[:0])
    count = (close - lo).ravel()
    listed = count.nonzero()[0]
    count = count[listed]
    block = max(1, placement.CELLS // max(8, len(geo.w)))  # pairs per n x pairs union table
    bounds = np.searchsorted(np.cumsum(count), np.arange(block, count.sum(), block))
    for part in np.split(np.arange(len(listed)), bounds):
        at = np.repeat(listed[part], count[part])
        walk = lo.ravel()[at] + np.arange(len(at)) - np.repeat(np.cumsum(count[part]) - count[part], count[part])
        i, j = o[base.ravel()[at] + walk], at % m
        dx = xs[i] - xs[j]
        # Where the slack passes 2*lam this lists (j, j), which loses to j alone.
        keep = np.where(same.ravel()[at], np.abs(dx), dx * dx + dy2.ravel()[at]) >= thr.ravel()[at]
        if not geo.exact:
            keep &= (walk >= strict.ravel()[at]) | (w[i] + w[j] >= floor[row[j]])
        i, j = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
        yield (np.concatenate([given[0], i]), np.concatenate([given[1], j]),
               np.concatenate([given[2], point_order_sums(cov[:, i] | cov[:, j], geo.w)]))
        given = (bi[:0], bj[:0], pair_w[:0])


def _tables(geo, lines, lams, xs, row, li, k: int, tol: TolerancePolicy):
    """Tables of the centers xs on lines li at radii lams[row], rows
    ascending: the searched centers as indices into xs; per row the
    `placement.best_upto_two` pick over the single searched centers and,
    at k = 2, their compatible pairs (`_partners`), as its union weight
    and its positions in the row, ascending; and for k >= 3, per searched
    center, its gain (covered positive weight), its covered points as a
    bitset and its compatible later centers of the row as a bitset over
    positions (`_pairs`).

    Weights are summed in point order like `geom.disk_weight`, a listed
    pair's over the union of its two mask columns. A center whose own disk
    nets nothing can never improve a union of non-overlapping disks, and
    the fewest-centers tie rule drops it, so only the others are searched.
    Positions follow the (x, line) keys. At k >= 3 the best pair costs
    more than the search it spares, so the search starts from the best
    single.
    """
    cov = _coverage(geo, lams, xs, row, li, tol)
    sums = point_order_sums(cov, geo.w)
    order = np.flatnonzero(sums > 0)
    cov, row, w = cov[:, order], row[order], sums[order]
    pairs, search = (), None
    if k == 2 and len(order):
        pairs = _partners(geo, lines, lams, xs[order], row, li[order], w, cov, tol)
    elif k > 2:
        pos = np.arange(len(row)) - np.searchsorted(row, row)
        bits = np.zeros((len(row), np.bincount(row).max(initial=0)), dtype=bool)
        for i, j in _pairs(xs[order], np.array(lines)[li[order]], row, lams, tol, 8):
            bits[i, pos[j]] = True
        gains = point_order_sums(cov & (geo.w > 0)[:, None], geo.w)
        search = gains.tolist(), bitsets(cov.T), bitsets(bits)
    return order, best_upto_two(len(lams), row, w, pairs), search


class _UnionWeights(dict):
    """Union weight per covered-point bitset, summed in point order like
    `union_coverage`. It does not depend on the radius, so one serves a
    whole solve."""

    def __init__(self, w):
        super().__init__()
        self.w = w.tolist()
        self.positive = sum(1 << i for i, x in enumerate(self.w) if x > 0)

    def __missing__(self, mask: int) -> float:
        total = 0.0
        rest = mask
        while rest:
            low = rest & -rest
            total += self.w[low.bit_length() - 1]
            rest ^= low
        self[mask] = total
        return total


def _search(keys, gains, masks, compat, k: int, weights: _UnionWeights, incumbent):
    """Exact DFS over one row's searched centers in (x, line) order; returns
    the best union weight and the positions of the canonical best
    selection, ascending. It starts from incumbent, a compatible selection
    no worse than the empty one, given as its union weight and positions,
    ascending.

    A node carries the bitset of later positions compatible with every
    chosen center (the AND of their compatibility rows) and walks its set
    bits in ascending order; the bits left after the one taken are the
    later positions. A child is searched on only if a later center covers
    a positive point it does not (negative terms never raise a point-order
    sum), and its weight plus the largest gains still to come beats the
    incumbent's, or ties it while the incumbent has more centers than it.
    """
    m = len(masks)
    # top[pos][b]: the sum of the b largest gains among positions pos..,
    # added largest first. A child has chosen one center, so b < k.
    # fresh[pos]: the positive points covered by a center at pos or later.
    top = [[0.0] * k] * (m + 1)
    fresh = [0] * (m + 1)
    largest: list[float] = []
    for pos in range(m - 1, -1, -1):
        largest = sorted(largest + [gains[pos]], reverse=True)[: k - 1]
        top[pos] = [sum(largest[:b]) for b in range(k)]
        fresh[pos] = fresh[pos + 1] | masks[pos] & weights.positive
    best_ids: tuple[int, ...] = incumbent[1]
    best_key = selection_key(incumbent[0], [keys[i] for i in best_ids])

    def rec(chosen: list[int], mask: int, allowed: int):
        nonlocal best_key, best_ids
        budget = k - len(chosen) - 1  # left after one more center
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            at = low.bit_length() - 1
            chosen.append(at)
            nxt = mask | masks[at]
            w = weights[nxt]
            if -w <= best_key[0]:  # can tie or win
                key = selection_key(w, [keys[i] for i in chosen])
                if key < best_key:
                    best_key = key
                    best_ids = tuple(chosen)
            rest = allowed & compat[at] if budget else 0
            if rest and fresh[at + 1] & ~nxt:
                bound = w + top[at + 1][budget]
                if bound > -best_key[0] or bound == -best_key[0] and best_key[1] > len(chosen):
                    rec(chosen, nxt, rest)
            chosen.pop()

    rec([], 0, (1 << m) - 1)
    return -best_key[0], best_ids


def _solve_chunk(geo, lines, lams, k: int, tol: TolerancePolicy, weights: _UnionWeights, both: bool):
    """`_solve_radii` of positive radii, all of one `klink.two_sided`
    value, on the `_stacked` geometry."""
    xs, row, li = _candidates(geo, lines, lams, k, tol, both)
    order, picks, search = _tables(geo, lines, lams, xs, row, li, k, tol)
    ends = np.cumsum(np.bincount(row[order], minlength=len(lams))).tolist()
    cx, cl = xs[order].tolist(), li[order].tolist()
    out = []
    a = 0
    for r, b in enumerate(ends):
        keys = list(zip(cx[a:b], cl[a:b]))
        weight, ids = picks[r]
        if search:
            gains, masks, compat = search
            weight, ids = _search(keys, gains[a:b], masks[a:b], compat[a:b], k, weights, (weight, ids))
        chosen = tuple(keys[i] for i in ids)
        lam = float(lams[r])
        for i, (ax, al) in enumerate(chosen):
            for bx, bl in chosen[i + 1:]:
                if not centers_compatible((ax, lines[al]), (bx, lines[bl]), lam, tol):
                    raise ValidationFailureError(f"overlapping selection {(ax, al)} / {(bx, bl)}")
        out.append((weight, chosen))
        a = b
    return out


def _solve_radii(geos, lines, lams, k: int, tol: TolerancePolicy, weights: _UnionWeights | None = None):
    """For each radius lam, the best selection of at most k radius-lam disks
    centered on the lines: its union weight and its centers as (x, line
    index) pairs, ascending; (0.0, ()) when lam <= 0. Each selection is
    re-validated pairwise with the scalar `geom.centers_compatible`.

    A radius has n points times its raw candidates (`_candidates`) in
    coverage cells: at most 2tn endpoints times 1 + h + ... + h^(k-1) for
    the hop generations, h = t, or 2t where the radius is
    `klink.two_sided`, plus 2t sentinels. weights memoizes union weights
    across chunks; pass one per solve."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if weights is None:
        weights = _UnionWeights(geos[0].w)
    t, n = len(lines), len(geos[0].px)
    geo = _stacked(geos)

    def solve(part, both: bool):
        raw = 2 * t * n * sum((2 * t if both else t) ** g for g in range(k)) + 2 * t
        return in_chunks(part, max(1, n) * raw,
                         lambda chunk: _solve_chunk(geo, lines, chunk, k, tol, weights, both))

    return by_sides(lams, tol, solve)


def solve_tlines(points, lines, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Max-weight placement of at most k disks centered on the lines:
    `best_radius` over the radius groups of `tlines_radii`,
    solved by `_solve_radii` with one union-weight memo. A chain-gain
    radius can win only if the blue weight within reach of some line beats
    the best so far: more weight, or as much at a smaller radius. The
    test grows stricter as the best improves, so judging every chain radius
    against the best of the first radii admits a superset of what a
    one-by-one loop would."""
    lines = check_lines(lines)
    groups = list(zip(*(a.tolist() for a in tlines_radii(points, lines, k))))
    geos = [line_geometry(points, ly) for ly in lines]
    blues = [(min((p.y - ly) ** 2 for ly in lines), p.weight) for p in points if p.is_blue]

    def can_win(v: float, best) -> bool:
        r2 = v * v
        reach = sum(w for dy2, w in blues if dy2 - r2 <= tol.band(r2))
        return reach > best[0] or (reach == best[0] and v < best[1])

    weights = _UnionWeights(geos[0].w)
    _, lam, chosen = best_radius(groups, lambda lams: _solve_radii(geos, lines, lams, k, tol, weights),
                                 can_win)
    return line_placement(points, lines, lam, tuple(LineCenter(*c) for c in chosen), tol)
