"""Single-line fixed-radius machinery: influence intervals, the candidate
center grid, and the budgeted center-selection dynamic program, as one
numpy kernel over a chunk of radii.

For a fixed radius lam, every point within lam of the line contributes an
influence interval of center positions whose disk covers it. Candidate
centers are the interval endpoints plus copies shifted right by multiples
of 2*lam, because a chain of touching disks may hang off a single contact,
plus two far-away sentinel positions that can never cover anything.

Rightward copies suffice for exact coverage. Sweep any selection left to
right and slide each disk left along its line while its covered point set
stays the same. It stops at an influence-interval endpoint, where a point
reaches its boundary, or touching a disk to its left (at 2*lam on its own
line, at sqrt(4*lam^2 - dy^2) on another line); a disk to its right never
blocks it. Sliding keeps the weight and the center count and lowers the
descending center tuple, so the `selection_key` minimum among the best
selections is fully left-shifted: every center is an endpoint or a
rightward chain of touching hops from one. The t-lines candidates of
`multiline` rest on the same argument.

Under the tolerance band a blue's covered interval reaches past its
endpoints, by up to sqrt(band) for a tangent point, so a slide can stop
short of every endpoint, where only a leftward chain from a point further
right lands. So every radius whose band is wider, relative to lam^2, than
the default eps * lam^2 (`two_sided`: a larger eps, or lam < 1, where the
band's absolute floor applies) also gets copies shifted left, the
candidates of the two-sided generator that preceded this one (README,
"Numerical policy").

Choosing at most k centers with pairwise gap >= 2*lam so as to maximize
covered weight is then a two-index DP: phi(i, j) looks at the first i+1
centers with j picks left and either skips center i or takes it on top of
the best solution ending at p[i], the rightmost center at gap >= 2*lam to
its left.

`solve_radii` solves a chunk of radii at once, one row per radius, on
per-point arrays built once per instance (`line_geometry`):
- centers: each row's raw centers are sorted stably, then all rows are
  merged in one `geom.merge_keep` call that always keeps a row's first
  value, so no row merges into another; rows are padded with +inf;
- coverage as ranges: in floats s = (px - x)^2 + dy^2 - lam^2 is unimodal
  in x, so the centers covering a point form one run [lo, hi) of its sorted
  row. A `searchsorted` guess is fixed up exactly with the predicate of
  `geom.coverage_mask`. One search serves every row: the complex key
  row + 1j*x sorts by (row, x), exactly;
- center weights: when every weight is an integer and their absolute sum
  is at most 2^53 (`geom.sums_are_exact`), every partial sum is exact, so a
  prefix sum of +w at lo and -w at hi gives the point-order sums;
  otherwise every (point, center) pair of the ranges is summed in point
  order;
- predecessors by one search and an exact fix-up, bounded at the row
  start; the DP layers over the padded rows; a backtrack of at most k
  steps for every row at once;
- the union weight of the chosen disks, from the ranges of the chosen
  centers.
Every step makes the same float operations as the scalar geometry
predicates and sums weights in point order, so the results equal a scalar
evaluation bit for bit. `placement.in_chunks` gives a chunk as many
radii as fit `placement.CELLS` raw centers (at least one) and answers
lam <= 0 itself. `by_sides` keeps the `two_sided` radii in chunks of
their own.

A radius loop compares the returned union weights and recomputes one
union, for the `Placement` of the radius it returns.

Ties are broken deterministically: maximum weight, then fewest centers,
then the selection whose largest center is smallest (continuing leftward).
The brute-force oracle applies the same rule.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geom import DEFAULT_TOL, TolerancePolicy, coverage_mask, merge_keep, sums_are_exact
from .placement import in_chunks

__all__ = [
    "LineGeometry",
    "line_geometry",
    "solve_radii",
]


class LineGeometry(NamedTuple):
    """Per-point arrays of one instance against one line, in point order."""

    px: np.ndarray
    dy2: np.ndarray  # squared height over the line
    blue: np.ndarray
    w: np.ndarray
    exact: bool  # `sums_are_exact(w)`


def line_geometry(points, line_y: float) -> LineGeometry:
    pts = list(points)
    w = np.array([p.weight for p in pts], dtype=float)
    return LineGeometry(
        np.array([p.x for p in pts], dtype=float),
        (np.array([p.y for p in pts], dtype=float) - line_y) ** 2,
        np.array([p.is_blue for p in pts], dtype=bool),
        w,
        sums_are_exact(w),
    )


def _check(k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")


def _reach(dy2, lam2, band):
    """Whether each point is within lam of the line, and the half-width
    sqrt(lam^2 - dy^2) of its influence interval (0 when tangent)."""
    return dy2 - lam2 <= band, np.sqrt(np.maximum(0.0, lam2 - dy2))


def _ends(geo: LineGeometry, lams, tol: TolerancePolicy):
    """Per radius (row) and point (column): whether the point is within lam
    of the line, and its influence interval as l, r, +inf out of reach."""
    lam2 = (lams * lams)[:, None]
    reach, h = _reach(geo.dy2, lam2, tol.bands(lam2))
    ends = np.empty(reach.shape + (2,))
    ends[..., 0] = geo.px - h
    ends[..., 1] = geo.px + h
    ends[~reach] = np.inf
    return reach, ends


def two_sided(lams, tol: TolerancePolicy) -> np.ndarray:
    """Whether each radius keeps the leftward chains: where its band is
    wider, relative to lam^2, than the default one (module docstring)."""
    r2 = lams * lams
    return tol.bands(r2) > DEFAULT_TOL.eps * r2


def by_sides(lams, tol: TolerancePolicy, solve) -> list:
    """solve(radii, both) on the positive `two_sided` radii (both) and on
    the others apart; the results come in the order of lams."""
    lams = np.asarray(lams, dtype=float)
    both = (lams > 0) & two_sided(lams, tol)
    out = [(0.0, ())] * len(lams)
    for side in (False, True):
        at = np.flatnonzero(both == side)
        if len(at):
            for i, res in zip(at.tolist(), solve(lams[at], side)):
                out[i] = res
    return out


def _centers(ends, lams, k: int, tol: TolerancePolicy, both: bool):
    """Merged candidate centers per row, ascending and padded with +inf, and
    each row's count.

    ends holds each row's intervals as l, r per point, +inf out of reach.
    The raw list of a row is every endpoint followed by its shifts by +1,
    ..., +(k - 1) times 2*lam, and with both also by -1, ..., -(k - 1)
    times 2*lam (module docstring), then the two sentinels: at most 2kn + 2
    values, or 2(2k - 1)n + 2 with both. It is sorted stably, so among
    equal values the first in that order is kept. A row with nothing in
    reach keeps its two sentinels, 0 and 2*k*lam, unmerged.
    """
    rows, n = ends.shape[:2]
    shifts = np.arange(1 - k if both else 1, k)
    shifts = shifts[shifts != 0]
    raw = np.empty((rows, n, 2, 1 + len(shifts)))
    raw[..., 0] = ends
    raw[..., 1:] = ends[..., None] + (2.0 * shifts) * lams[:, None, None, None]
    margin = 2.0 * k * lams
    live = np.isfinite(ends[..., 0])
    some = live.any(axis=1)
    first = np.where(some, ends[..., 0].min(axis=1, initial=np.inf) - margin, 0.0)
    last = np.max(ends[..., 1], axis=1, where=live, initial=-np.inf)
    last = np.where(some, last + margin, margin)
    raw = np.concatenate([raw.reshape(rows, -1), first[:, None], last[:, None]], axis=1)
    raw.sort(axis=1, kind="stable")
    count = 2 + 2 * (1 + len(shifts)) * live.sum(axis=1)
    flat = raw[np.arange(raw.shape[1]) < count[:, None]]
    ends_at = np.cumsum(count)
    start = np.zeros(len(flat), dtype=bool)
    start[ends_at - count] = True
    start[ends_at[~some] - 1] = True
    keep = merge_keep(flat, tol.x_slacks(flat), start)
    row = np.repeat(np.arange(rows), count)[keep]
    m = np.bincount(row, minlength=rows)
    xs = np.full((rows, m.max()), np.inf)
    xs[row, np.arange(len(row)) - (np.cumsum(m) - m)[row]] = flat[keep]
    return xs, m


def _keys(row, x):
    """row + 1j*x, built without arithmetic so that x = inf stays exact;
    complex values sort by (row, x)."""
    out = np.empty(np.broadcast(row, x).shape, dtype=complex)
    out.real = row
    out.imag = x
    return out


def _first(j, m, pred):
    """The first index in [0, m) at which the monotone (false, then true)
    pred holds, else m, stepped to from the guess j."""
    while True:
        down = (j > 0) & pred(np.maximum(j - 1, 0))
        up = (j < m) & ~pred(np.minimum(j, m - 1))
        if not (down | up).any():
            return j
        j = j - down + up


def _ranges(keys, xs, m, row, px, dy2, blue, r2, band):
    """Per (row, point) pair, the run [lo, hi) of the row's centers whose
    disk covers the point (`geom.is_covered`).

    The centers x < px that cover the point are a suffix of those, and the
    ones at x >= px a prefix. So lo, the first center with x >= px or
    covering, and hi, the first with x > px and not covering, are monotone
    searches, and the covered centers are [lo, hi) when lo covers, else
    none.
    """
    fx = xs.ravel()
    base = row * xs.shape[1]
    mr = m[row]

    def covers(j):
        s = px - fx[base + j]
        s *= s
        s += dy2
        s -= r2
        return coverage_mask(s, blue, band)

    hb = np.sqrt(np.maximum(0.0, r2 - dy2 + np.where(blue, band, -band)))
    lo = np.searchsorted(keys, _keys(row, px - hb), "left") - base
    hi = np.searchsorted(keys, _keys(row, px + hb), "right") - base
    lo = _first(lo, mr, lambda j: (fx[base + j] >= px) | covers(j))
    hi = _first(hi, mr, lambda j: (fx[base + j] > px) & ~covers(j))
    return lo, np.where((lo < hi) & covers(np.minimum(lo, mr - 1)), hi, lo)


def _center_weights(row, lo, hi, w, shape, exact: bool):
    """Covered weight of every center, as a (rows, centers) array: the sum
    over the (row, point) pairs whose range holds the center, in point
    order."""
    rows, cols = shape
    if exact:
        at = row * (cols + 1)
        d = (np.bincount(at + lo, w, rows * (cols + 1))
             - np.bincount(at + hi, w, rows * (cols + 1)))
        return np.cumsum(d.reshape(rows, cols + 1), axis=1)[:, :cols]
    n = hi - lo
    pair = np.repeat(np.arange(len(lo)), n)
    col = lo[pair] + np.arange(len(pair)) - np.repeat(np.cumsum(n) - n, n)
    return np.bincount(row[pair] * cols + col, w[pair], rows * cols).reshape(shape)


def _predecessors(keys, xs, need):
    """p[r, i] = rightmost j < i with xs[r, i] - xs[r, j] >= need[r], else
    -1; padding gets p = i - 1.

    searchsorted gives a guess. The predicate "closer than need", evaluated
    in floats, is monotone in j, so `_first` steps from the guess to the
    first j < i where it holds, and p is the index before. p[i] < i holds
    even when the bound is not positive (tiny lam).
    """
    rows, cols = xs.shape
    fx = xs.ravel()
    base = np.arange(rows)[:, None] * cols
    need = need[:, None]
    i = np.arange(cols)
    guess = np.searchsorted(keys, _keys(np.arange(rows)[:, None], xs - need), "right")
    with np.errstate(invalid="ignore"):  # inf - inf between two pads
        return _first(np.minimum(guess - base, i), i, lambda j: xs - fx[base + j] < need) - 1


def _dp_layers(w, p, k: int):
    """Budget layers 1..k of the DP along each row, each as (weight, rank,
    taken) arrays over the centers, where rank = k + 1 - centers used.

    Layer j at i is the best (weight, -centers) over the first i+1 centers
    and at most j picks: a running maximum, from the empty selection, of the
    takes layer_{j-1}[p[i]] + (w[i], -1). A take replaces the running best
    only when strictly better, so ties keep the earlier choice. The weight
    part is a running maximum of floats. The count part is a running
    maximum of one integer key: how often the weight maximum has risen,
    then the rank of a take that reaches the maximum (0 for one that does
    not).
    """
    radix = k + 2
    rows, cols = w.shape
    prev_w = np.zeros((rows, cols + 1))  # column 0 is the empty selection
    prev_r = np.full((rows, cols + 1), k + 1)
    take_w = prev_w.copy()
    take_r = prev_r.copy()
    rises = np.zeros((rows, cols + 1), dtype=np.intp)
    at = p + 1 + np.arange(rows)[:, None] * (cols + 1)  # p[i] in the flat layer
    layers = []
    for _ in range(k):
        np.add(prev_w.ravel()[at], w, out=take_w[:, 1:])
        np.subtract(prev_r.ravel()[at], 1, out=take_r[:, 1:])
        prev_w = np.maximum.accumulate(take_w, axis=1)
        np.cumsum(prev_w[:, 1:] > prev_w[:, :-1], axis=1, out=rises[:, 1:])
        key = rises * radix + np.where(take_w == prev_w, take_r, 0)
        best = np.maximum.accumulate(key, axis=1)
        prev_r = best % radix
        layers.append((prev_w[:, 1:], prev_r[:, 1:], key[:, 1:] > best[:, :-1]))
    return layers


def _backtrack(layers, p, last):
    """Chosen indices per row, as a (rows, k) array ascending along each
    row, -1 where fewer were chosen: per layer from the top, the last taken
    center at or before the current index (from `last`), then its
    predecessor."""
    rows = np.arange(len(p))
    cols = np.arange(p.shape[1])
    i = last
    picks = []
    for _, _, taken in reversed(layers):
        at = np.maximum.accumulate(np.where(taken, cols, -1), axis=1)
        hit = np.where(i >= 0, at[rows, i], -1)
        picks.append(hit)
        i = np.where(hit >= 0, p[rows, hit], -1)
    return np.stack(picks[::-1], axis=1)


def _coverage_rows(geo: LineGeometry, lams, k: int, tol: TolerancePolicy, both: bool):
    """Centers, coverage ranges and center weights of positive radii: xs
    and m as `_centers` gives them, their search keys, the (row, point
    index) of every point in reach with its range [lo, hi), and the center
    weights."""
    reach, ends = _ends(geo, lams, tol)
    xs, m = _centers(ends, lams, k, tol, both)
    row, idx = reach.nonzero()
    r2 = lams * lams
    keys = _keys(np.arange(len(lams))[:, None], xs).ravel()
    lo, hi = _ranges(keys, xs, m, row, geo.px[idx], geo.dy2[idx], geo.blue[idx],
                     r2[row], tol.bands(r2)[row])
    weights = _center_weights(row, lo, hi, geo.w[idx], xs.shape, geo.exact)
    return xs, m, keys, row, idx, lo, hi, weights


def _solve_chunk(geo: LineGeometry, lams, k: int, tol: TolerancePolicy, both: bool):
    """`solve_radii` of positive radii, all of one `two_sided` value."""
    xs, m, keys, row, idx, lo, hi, weights = _coverage_rows(geo, lams, k, tol, both)
    two = 2.0 * lams
    p = _predecessors(keys, xs, two - tol.x_slacks(two))
    chosen = _backtrack(_dp_layers(weights, p, k), p, m - 1)
    pick = chosen[row]
    hit = ((pick >= lo[:, None]) & (pick < hi[:, None])).any(axis=1)
    union = np.bincount(row, np.where(hit, geo.w[idx], 0.0), len(lams)).tolist()
    out = []
    for r, (c, x) in enumerate(zip(chosen.tolist(), xs.tolist())):
        c = [j for j in c if j >= 0]
        out.append((union[r], tuple(x[j] for j in c)) if c else (0.0, ()))
    return out


def solve_radii(geo: LineGeometry, lams, k: int,
                tol: TolerancePolicy = DEFAULT_TOL) -> list[tuple[float, tuple[float, ...]]]:
    """For each radius lam, the best selection of at most k radius-lam disks
    centered on the line: its union weight and its center abscissae,
    ascending; (0.0, ()) when lam <= 0 or nothing is within lam of the
    line. A radius has at most 2kn + 2 raw centers, or 2(2k - 1)n + 2 where
    it is `two_sided` (`_centers`)."""
    _check(k)
    return by_sides(lams, tol, lambda part, both: in_chunks(
        part, 2 * (2 * k - 1 if both else k) * len(geo.px) + 2,
        lambda chunk: _solve_chunk(geo, chunk, k, tol, both)))
