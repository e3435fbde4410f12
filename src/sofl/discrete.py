"""Budgeted placement at candidate sites in convex position.

Chosen sites of any solution lie in convex position (they are a subset of a
convex ring), so every triangulation of them is outerplanar and has an ear.
The chord recursion grows one from an ear triangle: it attaches a next site
d across a chord (a, b), inside the arc of the ring beyond it, and splits
the arc and the leftover disk budget between the two new chords. d must
keep distance 2*lam from a, b and the apex c across the chord, and must not
lie inside circle(a, b, c) by more than the float error of the in-circle
test (`_admission`, built once per solve). Every Delaunay triangulation of a
chosen set stays reachable, and its closest pair is an edge, so the edge
checks suffice. Where d lies inside by less, the angles of (a, c, b, d) at
a and b sum to nearly 180 degrees, so the flipped diagonal (c, d) is still
no shorter than one of the checked edges. The pairwise check of the result
stays only as a detector that raises `ValidationFailureError`. Budgets of
one or two disks need one pass over the site weights and the pair table
(`_best_upto_two`).

`solve_discrete` builds the geometry of a solve once (`_geometry`): the
site x site squared distances, |dx| and same-height flags, the point x site
squared distances, the colours and weights, and every ring arc. One radius
is then a few numpy operations (the coverage mask, the site weights as
point-order sums, the table of compatible site pairs, converted once to
lists) plus the chord recursion over plain lists (`_solve_radius`).
`_solve_radii` runs it on each radius through `placement.in_chunks`, which
answers lam <= 0. Every step makes the same float operations as the scalar
predicates `geom.is_covered` and `geom.centers_compatible` and sums weights
in point order, so the results equal a scalar evaluation bit for bit. A
radius returns the union weight of its chosen sites, taken from their mask
columns, so the radius loop (`placement.best_radius`) compares union
weights and builds one `Placement` per solve, for the radius it returns.
The loop visits the radii best bound first and skips those whose bound
cannot win; `_blue_bound` gives every radius's bound from one coverage
table per chunk of radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .candidates import candidate_radii_discrete
from .geom import (DEFAULT_TOL, TolerancePolicy, bitsets, compatible_table, coverage_mask, point_order_sums,
                   sums_are_exact)
from .placement import Placement, ValidationFailureError, best_radius, in_chunks, selection_key, site_placement

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


@dataclass(frozen=True)
class _Geometry:
    """Site and point arrays of one solve, shared by every radius."""

    ring: tuple[tuple[float, float], ...]
    d2: np.ndarray  # site x site squared distances
    adx: np.ndarray  # site x site |dx|
    same: np.ndarray  # site x site: same height
    pd2: np.ndarray  # point x site squared distances
    blue: np.ndarray
    w: np.ndarray
    arcs: tuple  # arcs[a][b] == _arc_between(s, a, b)

    @cached_property
    def adm(self) -> list:
        """`_admission` of the ring; only the chord recursion (k >= 3) reads it."""
        return _admission(self.ring)


# Shewchuk's static error bound of the float in-circle determinant
# (iccerrboundA in "Adaptive Precision Floating-Point Arithmetic and Fast
# Robust Geometric Predicates", 1997).
_ICC_ERRBOUND = (10.0 + 96.0 * 2.0**-53) * 2.0**-53


def _admission(ring) -> list:
    """adm[a][b][c]: bitset of the sites d that may enter across chord (a, b)
    from apex c: all but those whose float in-circle determinant, evaluated
    as Shewchuk's `incircle`, exceeds its static error bound. The recursion
    asks only for apexes c in arcs[a][b], counter-clockwise from (a, b) on
    the clockwise ring, where that proves d strictly inside circle(a, b, c)."""
    s = len(ring)
    sx, sy = np.array(ring, dtype=float).reshape(s, 2).T
    ex = sx[:, None] - sx[None, :]  # ex[i, d] = x_i - x_d
    ey = sy[:, None] - sy[None, :]
    lift = ex * ex + ey * ey
    p = ex[:, None, :] * ey[None, :, :]  # p[i, j, d] = ex[i, d] * ey[j, d]
    q = p.transpose(1, 0, 2)
    cross = p - q  # cross[c, a, d] == -cross[a, c, d], exactly
    perm = np.abs(p) + np.abs(q)  # symmetric in its first two indices
    la = lift[:, None, None, :]  # lift[a, d], as [a, b, c, d]
    lb = lift[:, None, :]  # lift[b, d]
    det = la * cross - lb * cross[:, None] + lift * cross[:, :, None]
    bound = la * perm + lb * perm[:, None] + lift * perm[:, :, None]
    bits = bitsets(~(det > _ICC_ERRBOUND * bound).reshape(s**3, s))
    return [[bits[i : i + s] for i in range(a * s * s, (a + 1) * s * s, s)] for a in range(s)]


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
    """Chord recursion over the site weights w, pair table ok and `_admission` table adm."""

    def __init__(self, w, ok, adm):
        self.w = w
        self.ok = ok
        self.adm = adm
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
        adm = self.adm[a][b][apex]
        for m, cand in enumerate(arc):
            if not (adm >> cand & 1 and ok_a[cand] and ok_b[cand] and ok_apex[cand]):
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


def _best_upto_two(ring, w, ok, k: int):
    """Site ids and `selection_key` of the best of the empty selection, the
    single sites and, for k >= 2, the compatible pairs, a pair weighing the
    sum of its site weights."""
    sets = [((), 0.0)] + [((i,), wi) for i, wi in enumerate(w)]
    if k >= 2:
        sets += [((i, j), wi + w[j]) for i, wi in enumerate(w)
                 for j in range(i + 1, len(w)) if ok[i][j]]
    top = max(v for _, v in sets)
    key, ids = min((selection_key(top, [ring[i] for i in ids]), ids) for ids, v in sets if v == top)
    return ids, key


def _solve_radius(geo: _Geometry, lam: float, k: int, tol: TolerancePolicy):
    """Best selection of at most k disks of radius lam > 0 at the ring
    sites: its union weight and its site ids, ascending."""
    ring = geo.ring
    s = len(ring)
    cov = _coverage(geo, lam, tol)
    w = point_order_sums(cov, geo.w).tolist()
    ok = _pair_table(geo, lam, tol)
    best_ids, best_key = _best_upto_two(ring, w, ok, k)

    if k >= 3 and s >= 3:
        dp = _ChordSolver(w, ok, geo.adm)
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
    for a, b in combinations(chosen, 2):
        if not ok[a][b]:
            raise ValidationFailureError(f"sites {a} and {b} chosen closer than 2 * {lam!r}")
    union = cov[:, list(chosen)].any(axis=1, keepdims=True)
    return float(point_order_sums(union, geo.w)[0]), chosen


def _solve_radii(geo: _Geometry, lams, k: int, tol: TolerancePolicy):
    """`_solve_radius` of each radius; (0.0, ()) when lam <= 0. A radius
    has one coverage cell per point and site."""
    return in_chunks(lams, max(1, geo.pd2.size),
                     lambda chunk: [_solve_radius(geo, lam, k, tol) for lam in chunk.tolist()])


def solve_discrete_fixed_radius(sites, points, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Best placement of at most k radius-lam disks at the given ring sites."""
    ring = sites.sites if isinstance(sites, SiteRing) else tuple(sites)
    if k < 1:
        raise ValueError("k must be at least 1")
    _, chosen = _solve_radii(_geometry(ring, points), [lam], k, tol)[0]
    return site_placement(points, ring, max(lam, 0.0), chosen, tol)


def _blue_bound(geo: _Geometry, lams, k: int, tol: TolerancePolicy) -> list[float]:
    """Per radius, an upper bound on the union weight of any k sites: the sum
    of the k largest site blue weights, each blue counted at a site in the
    float test of `_coverage`. Every blue the union counts is counted at a
    chosen site, a blue covered by two sites twice, and reds only lower the
    union, so this holds under any tolerance. When `sums_are_exact`, both
    sums are exact (a rounded top-k sum stays at least any union weight of
    at most 2^53). Otherwise the bound is widened by (k+1)(n+k+1) * sum|w| *
    2^-52: twice the first-order rounding error of the union's n-term sum,
    of the site sums and of their k-term sum, which also covers the
    rounding of the addition. A radius has one cell per point and site."""
    n, s = geo.pd2.shape
    wb = np.where(geo.blue, geo.w, 0.0)
    margin = 0.0
    if not sums_are_exact(geo.w):
        margin = (k + 1) * (n + k + 1) * float(np.abs(geo.w).sum()) * 2.0**-52

    def chunk(lams):
        r2 = lams * lams
        cov = coverage_mask(geo.pd2[:, None] - r2[:, None], True, tol.bands(r2)[:, None])
        sums = point_order_sums(cov.reshape(n, len(lams) * s), wb).reshape(len(lams), s)
        return [(sum(sorted(row)[-k:]) + margin, ()) for row in sums.tolist()]

    return [b for b, _ in in_chunks(lams, max(1, geo.pd2.size), chunk)]


def solve_discrete(sites, points, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """`best_radius` over `candidate_radii_discrete`, ordered by
    `_blue_bound`: the first radius of the largest union weight, as one
    `Placement`."""
    ring = sites if isinstance(sites, SiteRing) else canonical_ring(sites)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= len(ring):
        raise ValueError("k must be smaller than the number of sites")
    geo = _geometry(ring.sites, points)
    radii = [(c.value, True) for c in candidate_radii_discrete(points, ring.sites)]
    _, lam, chosen = best_radius(radii, lambda lams: _solve_radii(geo, lams, k, tol),
                                 bound=lambda lams: _blue_bound(geo, lams, k, tol))
    return site_placement(points, ring.sites, lam, chosen, tol)
