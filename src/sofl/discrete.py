"""Budgeted placement at candidate sites in convex position.

Chosen sites of any solution lie in convex position (they are a subset of a
convex ring), so their adjacency structure is an outerplanar triangulation
that can be grown by a chord recursion: fix three chosen sites as the
starting triangle, then repeatedly attach a next site inside a contiguous
arc of the remaining ring, splitting both the arc and the leftover disk
budget between the two new chords. A site is admitted only while it keeps
distance 2*lam from the three anchors of its triangle, which mirrors how a
new triangle is attached to an existing triangulation. That guard does not
literally imply pairwise feasibility of the whole selection, so the final
set is re-validated and the solver falls back to plain subset enumeration
in the (never yet observed) case the guard proves too weak.

Budgets of one or two disks are handled by direct enumeration; the chord
recursion needs three anchors to start from.

`solve_discrete` builds the geometry of a solve once (`_geometry`): the
site x site squared distances, |dx| and same-height flags, the point x site
squared distances, the colours and weights, and every ring arc. One radius
is then a few numpy operations (the coverage mask, the site weights as
point-order sums, the table of compatible site pairs, converted once to
lists) plus the chord recursion over plain lists (`_solve_radius`). Every
step makes the same float operations as the scalar predicates
`geom.is_covered` and `geom.centers_compatible` and sums weights in point
order, so the results equal a scalar evaluation bit for bit. A radius
returns the union weight of its chosen sites, taken from their mask
columns, so the radius loop (`placement.best_radius`) compares union
weights and builds one `Placement` per solve, for the radius it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .candidates import candidate_radii_discrete
from .geom import DEFAULT_TOL, TolerancePolicy, compatible_table, coverage_mask, point_order_sums
from .placement import Placement, best_radius, empty_placement, selection_key, site_placement

__all__ = [
    "ConvexPositionError",
    "SiteRing",
    "canonical_ring",
    "solve_discrete_fixed_radius",
    "solve_discrete",
]


class ConvexPositionError(ValueError):
    """Candidate sites are not in strictly convex position."""


@dataclass(frozen=True)
class SiteRing:
    """Candidate sites in strictly convex position, ordered clockwise."""

    sites: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return len(self.sites)


def _cross(o, p, q) -> float:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def canonical_ring(sites) -> SiteRing:
    """Clockwise strictly convex ring starting at the lexicographic minimum.

    Raises ConvexPositionError for duplicates, collinear triples, or any
    point not on the hull.
    """
    pts = [(float(x), float(y)) for x, y in sites]
    if len(set(pts)) != len(pts):
        raise ConvexPositionError("duplicate candidate sites")
    if len(pts) <= 2:
        return SiteRing(tuple(sorted(pts)))
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: (-math.atan2(p[1] - cy, p[0] - cx), p))
    start = pts.index(min(pts))
    ring = pts[start:] + pts[:start]
    s = len(ring)
    for i in range(s):
        if _cross(ring[i], ring[(i + 1) % s], ring[(i + 2) % s]) >= 0:
            raise ConvexPositionError("sites must be in strictly convex position")
    return SiteRing(tuple(ring))




def _arc_between(s: int, after: int, before: int) -> tuple[int, ...]:
    """Ring indices strictly between `after` and `before`, clockwise."""
    out = []
    i = (after + 1) % s
    while i != before:
        out.append(i)
        i = (i + 1) % s
    return tuple(out)


class _Geometry(NamedTuple):
    """Site and point arrays of one solve, shared by every radius."""

    ring: tuple[tuple[float, float], ...]
    d2: np.ndarray  # site x site squared distances
    adx: np.ndarray  # site x site |dx|
    same: np.ndarray  # site x site: same height
    pd2: np.ndarray  # point x site squared distances
    blue: np.ndarray
    w: np.ndarray
    arcs: tuple  # arcs[a][b] == _arc_between(s, a, b)


def _geometry(ring, points) -> _Geometry:
    ring = tuple(ring)
    s = len(ring)
    pts = list(points)
    sx = np.array([x for x, _ in ring], dtype=float)
    sy = np.array([y for _, y in ring], dtype=float)
    dx = sx[:, None] - sx[None, :]
    dy = sy[:, None] - sy[None, :]
    px = np.array([p.x for p in pts], dtype=float)[:, None] - sx[None, :]
    py = np.array([p.y for p in pts], dtype=float)[:, None] - sy[None, :]
    return _Geometry(
        ring,
        dx * dx + dy * dy,
        np.abs(dx),
        sy[:, None] == sy[None, :],
        px * px + py * py,
        np.array([p.is_blue for p in pts], dtype=bool),
        np.array([p.weight for p in pts], dtype=float),
        tuple(tuple(_arc_between(s, a, b) for b in range(s)) for a in range(s)),
    )


def _coverage(geo: _Geometry, lam: float, tol: TolerancePolicy) -> np.ndarray:
    """`is_covered` for every point (row) and site (column) at radius lam."""
    r2 = lam * lam
    return coverage_mask(geo.pd2 - r2, geo.blue[:, None], tol.band(r2))


def _pair_table(geo: _Geometry, lam: float, tol: TolerancePolicy) -> list[list[bool]]:
    """ok[i][j]: `centers_compatible` of sites i and j at radius lam, in the
    same float operations (linear in x at the same height)."""
    return compatible_table(geo.same, geo.adx, geo.d2, lam, tol).tolist()


class _ChordSolver:
    """Chord recursion over the site weights w and the pair table ok."""

    def __init__(self, w, ok):
        self.w = w
        self.ok = ok
        self.memo: dict[tuple, float] = {}
        self.choice: dict[tuple, tuple[int, int] | None] = {}

    def gamma(self, a: int, b: int, apex: int, arc: tuple[int, ...], budget: int) -> float:
        """Best weight added inside arc, across the chord (a, b) from apex,
        with at most budget more sites."""
        if budget == 0 or not arc:
            return 0.0
        key = (a, b, apex, arc, budget)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        best = 0.0  # placing nothing more is always allowed
        pick = None
        ok_a, ok_b, ok_apex = self.ok[a], self.ok[b], self.ok[apex]
        for m, cand in enumerate(arc):
            if not (ok_a[cand] and ok_b[cand] and ok_apex[cand]):
                continue
            left = arc[:m]  # between b and cand
            right = arc[m + 1 :]  # between cand and a
            for kp in range(budget):
                val = (
                    self.w[cand]
                    + self.gamma(a, cand, b, right, kp)
                    + self.gamma(cand, b, a, left, budget - 1 - kp)
                )
                if val > best:
                    best = val
                    pick = (cand, kp)
        self.memo[key] = best
        self.choice[key] = pick
        return best

    def collect(self, a: int, b: int, apex: int, arc: tuple[int, ...], budget: int, out: list[int]):
        if budget == 0 or not arc:
            return
        pick = self.choice.get((a, b, apex, arc, budget))
        if pick is None:
            return
        cand, kp = pick
        m = arc.index(cand)
        out.append(cand)
        self.collect(a, cand, b, arc[m + 1 :], kp, out)
        self.collect(cand, b, a, arc[:m], budget - 1 - kp, out)


def _enumerate_best(sites, w, ok, k, max_subsets=200_000):
    """Canonical best over all pairwise compatible subsets of at most k
    sites: its site ids and its `selection_key`."""
    s = len(sites)
    total = sum(math.comb(s, j) for j in range(min(k, s) + 1))
    if total > max_subsets:
        raise RuntimeError(f"enumeration fallback too large ({total} subsets)")
    best_ids: tuple[int, ...] = ()
    best_key = (0.0, 0, ())  # the empty selection
    for size in range(1, min(k, s) + 1):
        for combo in combinations(range(s), size):
            if not all(ok[a][b] for a, b in combinations(combo, 2)):
                continue
            weight = sum(w[i] for i in combo)
            if -weight > best_key[0]:
                continue  # cannot tie or win
            key = selection_key(weight, [sites[i] for i in combo])
            if key < best_key:
                best_key = key
                best_ids = combo
    return best_ids, best_key


def _solve_radius(geo: _Geometry, lam: float, k: int, tol: TolerancePolicy):
    """Best selection of at most k radius-lam disks at the ring sites: its
    union weight and its site ids, ascending."""
    if lam <= 0.0:
        return 0.0, ()
    ring = geo.ring
    s = len(ring)
    cov = _coverage(geo, lam, tol)
    w = point_order_sums(cov, geo.w).tolist()
    ok = _pair_table(geo, lam, tol)

    best_ids, best_key = _enumerate_best(ring, w, ok, min(k, 2))

    if k >= 3 and s >= 3:
        dp = _ChordSolver(w, ok)
        for a in range(s):
            ok_a = ok[a]
            for b in range(s):
                if a == b or not ok_a[b]:
                    continue
                ok_b = ok[b]
                outer = geo.arcs[b][a]
                for apex in geo.arcs[a][b]:
                    if not (ok_a[apex] and ok_b[apex]):
                        continue
                    val = w[a] + w[apex] + w[b] + dp.gamma(a, b, apex, outer, k - 3)
                    if -val > best_key[0]:
                        continue  # cannot tie or win
                    ids = [a, apex, b]
                    dp.collect(a, b, apex, outer, k - 3, ids)
                    key = selection_key(val, [ring[i] for i in ids])
                    if key < best_key:
                        best_key = key
                        best_ids = tuple(sorted(ids))

    chosen = tuple(sorted(best_ids))
    if not all(ok[a][b] for a, b in combinations(chosen, 2)):
        # The three-anchor guard missed a far pair; recover exactly.
        chosen, _ = _enumerate_best(ring, w, ok, k)
        chosen = tuple(sorted(chosen))
    union = cov[:, list(chosen)].any(axis=1, keepdims=True)
    return float(point_order_sums(union, geo.w)[0]), chosen


def solve_discrete_fixed_radius(sites, points, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Best placement of at most k radius-lam disks at the given ring sites."""
    ring = sites.sites if isinstance(sites, SiteRing) else tuple(sites)
    if k < 1:
        raise ValueError("k must be at least 1")
    if lam <= 0.0:
        return empty_placement(max(lam, 0.0))
    _, chosen = _solve_radius(_geometry(ring, points), lam, k, tol)
    return site_placement(points, ring, lam, chosen, tol)


def solve_discrete(sites, points, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """`best_radius` over `candidate_radii_discrete`, every radius solved:
    the first radius of the largest union weight, as one `Placement`."""
    ring = sites if isinstance(sites, SiteRing) else canonical_ring(sites)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= len(ring):
        raise ValueError("k must be smaller than the number of sites")
    geo = _geometry(ring.sites, points)
    radii = [(c.value, True) for c in candidate_radii_discrete(points, ring.sites, tol)]
    _, lam, chosen = best_radius(radii, lambda v: _solve_radius(geo, v, k, tol))
    return site_placement(points, ring.sites, lam, chosen, tol)
