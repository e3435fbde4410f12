"""Single-line fixed-radius machinery: influence intervals, the candidate
center grid, and the budgeted center-selection dynamic program, as one
numpy kernel.

For a fixed radius lam, every point within lam of the line contributes an
influence interval of center positions whose disk covers it. Candidate
centers are the interval endpoints plus copies shifted by multiples of
2*lam on both sides, because a chain of touching disks may hang off a
single contact, plus two far-away sentinel positions that can never cover
anything. Choosing at most k centers with pairwise gap >= 2*lam so as to
maximize covered weight is then a two-index DP: phi(i, j) looks at the
first i+1 centers with j picks left and either skips center i or takes it
on top of the best solution ending at p[i], the rightmost center at gap
>= 2*lam to its left.

`solve_radius` runs every step with numpy on per-point arrays built once
per instance (`line_geometry`): a stable sort and the near-duplicate
merge of the centers (`geom.merge_keep`), a dense points x centers coverage
mask, `searchsorted` predecessors with an exact fix-up, one pass per
budget layer of the DP, and a backtrack of at most k steps. It returns the
union weight of the chosen disks, taken from the mask rows of the chosen
centers, so a radius loop compares union weights and recomputes one union,
for the `Placement` of the radius it returns. Every step makes the same
float operations as the scalar geometry predicates and sums weights in
point order, so the results equal a scalar evaluation bit for bit.

Ties are broken deterministically: maximum weight, then fewest centers,
then the selection whose largest center is smallest (continuing leftward).
The brute-force oracle applies the same rule.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geom import DEFAULT_TOL, TolerancePolicy, coverage_mask, merge_keep, point_order_sums
from .placement import LineCenter, Placement, line_placement

__all__ = [
    "LineGeometry",
    "line_geometry",
    "interval_ends",
    "candidate_centers",
    "solve_radius",
    "solve_fixed_radius",
]


class LineGeometry(NamedTuple):
    """Per-point arrays of one instance against one line, in point order."""

    px: np.ndarray
    dy2: np.ndarray  # squared height over the line
    blue: np.ndarray
    w: np.ndarray


def line_geometry(points, line_y: float) -> LineGeometry:
    pts = list(points)
    return LineGeometry(
        np.array([p.x for p in pts], dtype=float),
        (np.array([p.y for p in pts], dtype=float) - line_y) ** 2,
        np.array([p.is_blue for p in pts], dtype=bool),
        np.array([p.weight for p in pts], dtype=float),
    )


def _reach(dy2, lam: float, tol: TolerancePolicy):
    """Indices of the points within lam of the line, and their half-widths
    h = sqrt(lam^2 - dy^2)."""
    lam2 = lam * lam
    idx = (dy2 - lam2 <= tol.band(lam2)).nonzero()[0]
    return idx, np.sqrt(np.maximum(0.0, lam2 - dy2[idx]))


def _check(lam: float, k: int) -> None:
    if lam <= 0:
        raise ValueError("center sequence requires a positive radius")
    if k < 1:
        raise ValueError("k must be at least 1")


def _centers(ends, lam: float, k: int, tol: TolerancePolicy):
    """Merged candidate centers, ascending.

    ends holds each reaching point's interval as l, r in point order. The
    raw list is every endpoint followed by its shifts by -1, +1, -2, +2, ...
    times 2*lam, then the two sentinels; it is stable-sorted, so among equal
    values the first in that order is kept. With nothing in reach the two
    sentinels alone remain.
    """
    margin = 2.0 * k * lam
    if not len(ends):
        return np.array([0.0, margin])
    offs = np.array([2.0 * j * lam for j in range(1, k)])
    raw = np.empty(len(ends) * (2 * k - 1) + 2)
    grid = raw[:-2].reshape(len(ends), 2 * k - 1)
    grid[:, 0] = ends
    grid[:, 1::2] = ends[:, None] - offs
    grid[:, 2::2] = ends[:, None] + offs
    raw[-2] = ends[0::2].min() - margin
    raw[-1] = ends[1::2].max() + margin
    xs = raw[np.argsort(raw, kind="stable")]
    return xs[merge_keep(xs, tol.x_slacks(xs))]


def interval_ends(geo: LineGeometry, lam: float, tol: TolerancePolicy = DEFAULT_TOL):
    """Indices of the points within lam of the line, and their influence
    intervals as l, r in point order."""
    idx, h = _reach(geo.dy2, lam, tol)
    px = geo.px[idx]
    ends = np.empty(2 * len(idx))
    ends[0::2] = px - h
    ends[1::2] = px + h
    return idx, ends


def candidate_centers(geo: LineGeometry, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL):
    """Indices of the points within lam of the line, and the merged
    candidate centers of radius lam and budget k, ascending."""
    _check(lam, k)
    idx, ends = interval_ends(geo, lam, tol)
    return idx, _centers(ends, lam, k, tol)


def _coverage(xs, px, dy2, blue, lam: float, tol: TolerancePolicy):
    """geom.is_covered for every point (row) and center (column)."""
    r2 = lam * lam
    s = px[:, None] - xs[None, :]
    s *= s
    s += dy2[:, None]
    s -= r2
    return coverage_mask(s, blue, tol.band(r2))


def _predecessors(xs, lam: float, tol: TolerancePolicy):
    """p[i] = rightmost j < i with xs[i] - xs[j] >= 2*lam (less the slack),
    else -1.

    searchsorted gives a guess. The predicate, evaluated in floats, is
    monotone in j, so stepping up while the next index satisfies it and down
    while the current one fails gives the exact answer. p[i] < i holds even
    when the bound is not positive (tiny lam).
    """
    need = 2.0 * lam - tol.x_slack(2.0 * lam)
    i = np.arange(len(xs))
    p = np.minimum(np.searchsorted(xs, xs - need, side="right") - 1, i - 1)
    while True:
        up = (xs - xs[p + 1] >= need) & (p + 1 < i)
        down = (xs - xs[p] < need) & (p >= 0)  # xs[-1] is masked out
        if not (up | down).any():
            return p
        p = p + up - down


def _dp_layers(w, p, k: int):
    """Budget layers 1..k of the DP, each as (weight, rank, taken) arrays
    over the centers, where rank = k + 1 - centers used.

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
    m = len(w)
    prev_w = np.zeros(m + 1)  # index 0 is the empty selection
    prev_r = np.full(m + 1, k + 1)
    take_w = np.zeros(m + 1)
    take_r = np.full(m + 1, k + 1)
    rises = np.zeros(m + 1, dtype=np.intp)
    p1 = p + 1
    layers = []
    for _ in range(k):
        np.add(prev_w[p1], w, out=take_w[1:])
        np.subtract(prev_r[p1], 1, out=take_r[1:])
        prev_w = np.maximum.accumulate(take_w)
        np.cumsum(prev_w[1:] > prev_w[:-1], out=rises[1:])
        key = rises * radix + np.where(take_w == prev_w, take_r, 0)
        best = np.maximum.accumulate(key)
        prev_r = best % radix
        layers.append((prev_w[1:], prev_r[1:], key[1:] > best[:-1]))
    return layers


def _backtrack(layers, p) -> list[int]:
    """Chosen indices, left to right: per layer from the top, the last
    taken center at or before the current index, then its predecessor."""
    chosen = []
    i = len(p) - 1
    for _, _, taken in reversed(layers):
        hits = taken[: i + 1].nonzero()[0]
        if not len(hits):
            break
        i = int(hits[-1])
        chosen.append(i)
        i = int(p[i])
    chosen.reverse()
    return chosen


def solve_radius(geo: LineGeometry, lam: float, k: int,
                 tol: TolerancePolicy = DEFAULT_TOL) -> tuple[float, tuple[float, ...]]:
    """Best selection of at most k radius-lam disks centered on the line:
    its union weight and its center abscissae, ascending."""
    if lam <= 0.0:
        return 0.0, ()
    idx, xs = candidate_centers(geo, lam, k, tol)
    if not len(idx):
        return 0.0, ()
    cov = _coverage(xs, geo.px[idx], geo.dy2[idx], geo.blue[idx], lam, tol)
    w = geo.w[idx]
    p = _predecessors(xs, lam, tol)
    chosen = _backtrack(_dp_layers(point_order_sums(cov, w), p, k), p)
    if not chosen:
        return 0.0, ()
    union = cov[:, chosen].any(axis=1, keepdims=True)
    return float(point_order_sums(union, w)[0]), tuple(xs[chosen].tolist())


def solve_fixed_radius(points, line_y: float, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Best placement of at most k radius-lam disks centered on one line."""
    _, xs = solve_radius(line_geometry(points, line_y), lam, k, tol)
    return line_placement(points, [line_y], max(lam, 0.0), tuple(LineCenter(x) for x in xs), tol)
