"""Specialized single-disk algorithms for the unweighted objectives.

maxblue_nored_fast: smallest line-centered disk covering as many blue
points as possible with no red point strictly inside (boundary reds are
harmless). A circle through a fixed point p and centered on the line is
ordered by its center abscissa: whether another point sits strictly inside
depends only on how the center compares with the crossing of the p-r
bisector. So a candidate through p is red-free when p's nearest red
crossing on either side does not pass its center, and the scan takes the
blue anchors in chunks of rows, every candidate circle through each anchor
of a chunk at once, without counting the reds inside.

allblue_minred: smallest disk covering every blue while minimizing the
number of reds strictly inside. The covering radius at center x is the
distance to the farthest blue, so the search walks the farthest-blue owner
map along the line. `farthest_breaks` builds that map from one batch of
blue-pair crossings and finds each region's owner by `argmax` over blocks
of probe points, so no probes x blues matrix is held whole. Candidate
centers are the owner breakpoints, the in-cell radius minimizers (the
owner's projection, clamped), and the owner-red bisector crossings inside
each cell, which is exactly where a red enters or leaves the covering
disk; all of them are evaluated in one blocked pass. The breakpoints alone
are not enough: `scripts/allblue_findings.py` lists instances where they
give more reds.

The kernels repeat the float operations of `center_on_line_through`,
`pair_disk` and `classify` elementwise and keep the first of equally
good candidates in the scalar scan order, so their results are the scalar
ones bit for bit, as Python floats and ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import placement
from .geom import (
    DEFAULT_TOL,
    TolerancePolicy,
    center_on_line_through,
    dist2,
    merge_keep,
)

__all__ = [
    "PairCircle",
    "FarthestCellBreaks",
    "pair_disk",
    "maxblue_nored_fast",
    "farthest_breaks",
    "allblue_minred",
]


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


def _cross_x(px, py, qx, qy):
    """`center_on_line_through(p, q, 0.0)`'s abscissa for every pair, in the
    same float operations; the pairs must have px != qx."""
    return (qy - py) * (qy + py) / (2.0 * (qx - px)) + (qx + px) / 2.0


def _first_min(*keys) -> int:
    """Index of the first lexicographic minimum of the key columns, the one
    a strict `<` scan in order keeps."""
    idx = np.arange(len(keys[0]))
    for key in keys:
        v = key[idx]
        idx = idx[v == v.min()]
    return int(idx[0])


def _xy(points) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([p.x for p in points], dtype=float),
            np.array([p.y for p in points], dtype=float))


def _s(px, py, cx, r2):
    """`classify`'s s = dist2(p, (cx, 0.0)) - r^2, broadcast over points and
    centers."""
    dx = px - cx
    return dx * dx + py * py - r2


def maxblue_nored_fast(points, tol: TolerancePolicy = DEFAULT_TOL):
    """The disk covering the most blues with no red strictly inside, among
    all bisector and vertical candidates; smallest radius first, then
    smallest center. Returns (center_x, radius, blue_count) or None; a
    center of -0.0 is returned as 0.0, since the candidate order decides
    which of two equal keys is kept.

    The blue anchors are taken in chunks of placement.CELLS // n, one row
    per anchor p. A row's candidate circles through p are p's own (center
    p.x, radius p.y) and `pair_disk(p, q)` for every point q off p's
    vertical, blues first. A red is strictly inside a candidate exactly
    when its p-red bisector crossing lies beyond the center, by more than
    the center's slack (a red on the boundary is not inside), on the red's
    side of p; so a candidate is red-free when the nearest crossing on
    either side does not. Reds sharing x with p have no crossing and are
    tested with `classify`'s band. Only the red-free candidates count
    their covered blues, and the first best of all rows, in row order, is
    kept.
    """
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    x, y = _xy(blues + reds)
    ids = np.array([q.id for q in blues + reds], dtype=np.int64)
    nb = len(blues)
    bx, by, rx, ry = x[:nb], y[:nb], x[nb:], y[nb:]
    best = None  # the (-count, rad, cx) key of the first best candidate
    step = max(1, placement.CELLS // max(1, len(x)))
    for lo in range(0, nb, step):
        px, py = bx[lo:lo + step, None], by[lo:lo + step, None]
        live = np.concatenate((np.ones_like(px, dtype=bool), x != px), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # off live, masked
            cx = np.concatenate((px, _cross_x(px, py, x, y)), axis=1)
            right = np.where(rx > px, cx[:, 1 + nb:], np.inf).min(axis=1, initial=np.inf, keepdims=True)
            left = np.where(rx < px, cx[:, 1 + nb:], -np.inf).max(axis=1, initial=-np.inf, keepdims=True)
            slack = tol.x_slacks(cx)
            row, col = np.nonzero(live & ~(right < cx - slack) & ~(left > cx + slack))
        cx, px, py, q = cx[row, col], px[row, 0], py[row, 0], col - 1  # q = -1: p's own circle
        low = ids[q] < ids[lo + row]  # pair_disk measures from the lower-id point
        dx = cx - np.where(low, x[q], px)
        ay = np.where(low, y[q], py)
        rad = np.where(q < 0, py, np.sqrt(dx * dx + ay * ay))
        cx, rad = cx[:, None], rad[:, None]
        r2 = rad * rad
        band = tol.bands(r2)
        ok = ~((_s(rx, ry, cx, r2) < -band) & (rx == px[:, None])).any(axis=1)
        count = (_s(bx, by, cx[ok], r2[ok]) <= band[ok]).sum(axis=1)
        hit = count > 0
        if not hit.any():
            continue
        cx, rad, count = cx[ok, 0][hit], rad[ok, 0][hit], count[hit]
        i = _first_min(-count, rad, cx)
        key = (-int(count[i]), float(rad[i]), float(cx[i]))
        if best is None or key < best:
            best = key
    return None if best is None else (best[2] + 0.0, best[1], -best[0])


# Rows per block of a line points x blues matrix. A farthest map has up to
# one probe per blue pair, about 20k against 200 blues.
_CHUNK = 256


def _blue_d2(xs: np.ndarray, bx: np.ndarray, by: np.ndarray):
    """Yield (block offset, dist2(x, 0.0, b.x, b.y) for x in the block and
    every blue b) over blocks of `_CHUNK` line points."""
    for lo in range(0, len(xs), _CHUNK):
        dx = xs[lo:lo + _CHUNK, None] - bx
        yield lo, dx * dx + by * by


def _merged(xs: np.ndarray, tol) -> np.ndarray:
    """xs sorted, less each value within its slack of the last kept one."""
    xs = np.sort(xs, kind="stable")
    return xs[merge_keep(xs, tol.x_slacks(xs))]


def farthest_breaks(blue_points, tol: TolerancePolicy = DEFAULT_TOL) -> FarthestCellBreaks:
    """Farthest-blue owner map restricted to the line.

    Owners can only change where two blues are equidistant from the line
    point, so the bisector crossings of all blue pairs (one batch over the
    pairs i < j off a common vertical) delimit the regions; each region's
    owner is the first farthest blue from its midpoint, found by `argmax`
    over blocks of probes.
    """
    blues = list(blue_points)
    if not blues:
        raise ValueError("at least one blue point is required")
    bx, by = _xy(blues)
    ids = np.array([b.id for b in blues], dtype=np.int64)
    k = np.arange(len(blues))
    i, j = ((k[:, None] < k) & (bx[:, None] != bx)).nonzero()  # row-major, as i < j loops
    merged = _merged(_cross_x(bx[i], by[i], bx[j], by[j]), tol)
    if len(merged):
        probes = np.concatenate(([merged[0] - 1.0], (merged[:-1] + merged[1:]) / 2.0,
                                 [merged[-1] + 1.0]))
    else:
        probes = np.zeros(1)
    owners = np.empty(len(probes), dtype=np.int64)
    for lo, d2 in _blue_d2(probes, bx, by):
        owners[lo:lo + len(d2)] = ids[d2.argmax(axis=1)]
    change = (owners[1:] != owners[:-1]).nonzero()[0]
    breaks = zip(merged[change].tolist(), owners[change + 1].tolist())
    return FarthestCellBreaks(int(owners[0]), tuple(breaks))


def _covering_eval(xs: np.ndarray, bx, by, rx, ry, tol):
    """Per center x, the radius of the smallest disk covering every blue
    and the number of reds strictly inside it, as `classify` decides."""
    rad = np.empty(len(xs))
    count = np.empty(len(xs), dtype=np.int64)
    for lo, d2 in _blue_d2(xs, bx, by):
        r = np.sqrt(d2.max(axis=1))[:, None]
        r2 = r * r
        s = _s(rx, ry, xs[lo:lo + len(r), None], r2)
        rad[lo:lo + len(r)] = r[:, 0]
        count[lo:lo + len(r)] = (s < -tol.bands(r2)).sum(axis=1)
    i = _first_min(count, rad, xs)
    return (float(xs[i]), float(rad[i]), int(count[i]))


def allblue_minred(points, tol: TolerancePolicy = DEFAULT_TOL):
    """Smallest disk covering every blue with the fewest reds strictly
    inside; returns (center_x, radius, red_count)."""
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    if not blues:
        raise ValueError("at least one blue point is required")
    fb = farthest_breaks(blues, tol)
    by_id = {p.id: p for p in points}
    bx, by = _xy(blues)
    rx, ry = _xy(reds)

    brk = np.array([x for x, _ in fb.breaks], dtype=float)
    ox, oy = _xy([by_id[fb.first_owner]] + [by_id[owner] for _, owner in fb.breaks])
    lo = np.concatenate(([-math.inf], brk))
    hi = np.concatenate((brk, [math.inf]))
    # Where clipping and min(max(owner.x, lo), hi) differ, in a zero's sign,
    # the bound is a breakpoint and so already an earlier candidate.
    clamp = np.clip(ox, lo, hi)
    # The owner-red crossings inside (within slack of) each cell, after the
    # cell's clamped owner and in red order.
    cell, r = (ox[:, None] != rx).nonzero()
    cross = _cross_x(ox[cell], oy[cell], rx[r], ry[r])
    slack = tol.x_slacks(cross)
    near = (lo[cell] - slack <= cross) & (cross <= hi[cell] + slack)
    cells = np.concatenate((np.arange(len(ox)), cell[near]))
    xs = np.concatenate((clamp, cross[near]))[np.argsort(cells, kind="stable")]

    return _covering_eval(_merged(np.concatenate((brk, xs)), tol), bx, by, rx, ry, tol)
