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
stays only as a detector that raises `ValidationFailureError`.

`solve_discrete` builds the geometry of a solve once (`_geometry`): the
site x site squared distances, |dx| and same-height flags, the point x site
squared distances, the colours and weights, and every ring arc.
`_solve_radii` hands the radii to `placement.in_chunks`, which answers
lam <= 0, and `_solve_chunk` solves each chunk from one set of tables
(`_tables`): the points x radii x sites coverage mask, the site weights as
its point-order sums, and the radii x sites x sites pair table. Every entry
makes the float operations of the scalar predicates `geom.is_covered` and
`geom.centers_compatible`, so the results equal a scalar evaluation bit for
bit. Budgets of one or two disks are array maxima over the single sites and
the compatible pairs; `selection_key` is built only for the sets that tie.
Larger budgets run the chord recursion over plain lists, per radius, only
from the anchor roots whose weight bound can still tie the best. A radius
returns the union weight of its chosen sites, taken from their mask
columns, so the radius loop (`placement.best_radius`) compares union
weights and builds one `Placement` per solve, for the radius it returns.
The loop visits the radii best bound first and skips those whose bound
cannot win; `_blue_bound` gives every radius's bound from the same tables.
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

    @cached_property
    def pairs(self) -> np.ndarray:
        """Rows i and j of the site pairs i < j."""
        return np.array(np.triu_indices(len(self.ring), 1))


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


def _tables(geo: _Geometry, lams: np.ndarray, tol: TolerancePolicy, weights: np.ndarray):
    """A chunk of radii lams > 0 in the float operations of the scalar
    predicates: the points x radii x sites `is_covered` mask, its column
    sums of weights in point order (radii x sites) and the radii x sites x
    sites `centers_compatible` table."""
    n, s = geo.pd2.shape
    r2 = lams * lams
    cov = coverage_mask(geo.pd2[:, None] - r2[:, None], geo.blue[:, None, None], tol.bands(r2)[:, None])
    sums = point_order_sums(cov.reshape(n, len(lams) * s), weights).reshape(len(lams), s)
    return cov, sums, compatible_table(geo.same, geo.adx, geo.d2, lams[:, None, None], tol)


def _thirds(geo: _Geometry, ok: np.ndarray):
    """Row, i and j of each compatible pair i < j of a radii x sites x sites
    pair table, and the mask of the sites m > j compatible with both."""
    pi, pj = geo.pairs
    at, p = ok[:, pi, pj].nonzero()
    i, j = pi[p], pj[p]
    return at, i, j, ok[at, i] & ok[at, j] & (np.arange(len(geo.ring)) > j[:, None])


def _cells(geo: _Geometry, k: int) -> int:
    """Cells of one radius in a chunk: n*s of coverage, s*s of pairs and,
    for k >= 3, s(s-1)(s-2)/2 of anchor roots."""
    s = len(geo.ring)
    return max(1, geo.pd2.size + s * s + (s * (s - 1) * (s - 2) // 2 if k >= 3 else 0))


def _anchor_roots(geo: _Geometry, w: np.ndarray, ok: np.ndarray, top: np.ndarray, g: np.ndarray) -> list:
    """Per radius, [a, b, apex, base] of the pairwise compatible anchor roots
    (apex in arcs[a][b]) whose base w[a] + w[apex] + w[b] plus g reaches top
    and the largest base: the best weight reaches both, as the recursion
    adds at least 0.0. A compatible triple i < j < m is the root of
    (i, m, j), (j, i, m) and (m, j, i)."""
    at, i, j, third = _thirds(geo, ok)
    q, m = third.nonzero()
    at, i, j = np.tile(at[q], 3), i[q], j[q]
    roots = np.array([[i, j, m], [m, i, j], [j, m, i]]).reshape(3, -1)  # a, b, apex
    base = w[at, roots[0]] + w[at, roots[2]] + w[at, roots[1]]  # in that float order
    least = top.copy()
    np.maximum.at(least, at, base)
    keep = (base + g[at] >= least[at]).nonzero()[0]
    out = [[] for _ in top]
    for r, *root in zip(at[keep].tolist(), *roots[:, keep].tolist(), base[keep].tolist()):
        out[r].append(root)
    return out


class _ChordSolver:
    """Chord recursion over the site weights w, pair table ok and the
    `_admission` table and arcs of geo."""

    def __init__(self, w, ok, geo: _Geometry):
        self.w = w
        self.ok = ok
        self.adm = geo.adm
        self.arcs = geo.arcs
        self.memo: dict[tuple, float] = {}
        self.choice: dict[tuple, tuple[int, int] | None] = {}

    def gamma(self, a: int, b: int, apex: int, budget: int) -> float:
        """Best weight added inside arcs[b][a], across the chord (a, b) from
        apex, with at most budget more sites."""
        arc = self.arcs[b][a]
        if budget == 0 or not arc:
            return 0.0
        key = (a, b, apex, budget)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        best = 0.0  # placing nothing more is always allowed
        pick = None
        ok_a, ok_b, ok_apex = self.ok[a], self.ok[b], self.ok[apex]
        adm = self.adm[a][b][apex]
        for cand in arc:
            if not (adm >> cand & 1 and ok_a[cand] and ok_b[cand] and ok_apex[cand]):
                continue
            for kp in range(budget):
                val = (
                    self.w[cand]
                    + self.gamma(a, cand, b, kp)  # the arc between cand and a
                    + self.gamma(cand, b, a, budget - 1 - kp)  # between b and cand
                )
                if val > best:
                    best = val
                    pick = (cand, kp)
        self.memo[key] = best
        self.choice[key] = pick
        return best

    def collect(self, a: int, b: int, apex: int, budget: int, out: list[int]):
        pick = self.choice.get((a, b, apex, budget))
        if pick is None:
            return
        cand, kp = pick
        out.append(cand)
        self.collect(a, cand, b, kp, out)
        self.collect(cand, b, a, budget - 1 - kp, out)


def _solve_chunk(geo: _Geometry, lams: np.ndarray, k: int, tol: TolerancePolicy):
    """Best selection of at most k disks at the ring sites at each radius
    of lams > 0: its union weight and its site ids, ascending."""
    ring = geo.ring
    s = len(ring)
    cov, w, ok = _tables(geo, lams, tol, geo.w)
    rows = range(len(lams))
    # Budgets of one and two: the single sites and the compatible pairs.
    pi, pj = geo.pairs if k >= 2 else geo.pairs[:, :0]
    sets = [(i,) for i in range(s)] + list(zip(pi.tolist(), pj.tolist()))
    vals = np.concatenate((w, np.where(ok[:, pi, pj], w[:, pi] + w[:, pj], -np.inf)), axis=1)
    top = vals.max(axis=1, initial=0.0)
    tied = [[] for _ in rows]
    for r, c in zip(*((vals == top[:, None]) & (top > 0)[:, None]).nonzero()):
        tied[r].append(sets[c])
    best = [min((selection_key(v, [ring[i] for i in ids]), ids) for ids in ids_list) if ids_list
            else (selection_key(0.0, []), ()) for v, ids_list in zip(top.tolist(), tied)]

    if k >= 3 and s >= 3:
        # Roots are visited by descending base while base + g, g bounding
        # what the recursion adds, can tie the best: 0 at k = 3, else the
        # k - 3 largest positive site weights if every float sum of k site
        # weights is exact, else inf.
        g = np.zeros(len(lams)) if k == 3 else np.full(len(lams), np.inf)
        if k > 3 and sums_are_exact(k * geo.w):
            g = np.array([sum(sorted(row)[3 - k:]) for row in np.maximum(w, 0.0).tolist()])
        for r, gr, visits in zip(rows, g.tolist(), _anchor_roots(geo, w, ok, top, g)):
            if not visits:
                continue
            best_key, best_ids = best[r]
            dp = _ChordSolver(w[r].tolist(), ok[r].tolist(), geo)
            for a, b, apex, v in sorted(visits, key=lambda root: -root[3]):
                if v + gr < -best_key[0]:
                    break  # no later root can tie or win
                val = v + dp.gamma(a, b, apex, k - 3)
                if val < -best_key[0]:
                    continue  # cannot tie or win
                ids = [a, apex, b]
                dp.collect(a, b, apex, k - 3, ids)
                key = selection_key(val, [ring[i] for i in ids])
                if key < best_key:
                    best_key, best_ids = key, tuple(sorted(ids))
            best[r] = best_key, best_ids

    chosen = [tuple(sorted(ids)) for _, ids in best]
    pick = np.zeros((len(lams), s), dtype=bool)
    for r, lam, ids in zip(rows, lams.tolist(), chosen):
        for a, b in combinations(ids, 2):
            if not ok[r, a, b]:
                raise ValidationFailureError(f"sites {a} and {b} chosen closer than 2 * {lam!r}")
        pick[r, list(ids)] = True
    union = (cov & pick).any(axis=2)
    return list(zip(point_order_sums(union, geo.w).tolist(), chosen))


def _solve_radii(geo: _Geometry, lams, k: int, tol: TolerancePolicy):
    """`_solve_chunk` of each chunk of radii; (0.0, ()) when lam <= 0."""
    return in_chunks(lams, _cells(geo, k), lambda chunk: _solve_chunk(geo, chunk, k, tol))


def _blue_bound(geo: _Geometry, lams, k: int, tol: TolerancePolicy) -> list[float]:
    """Per radius, an upper bound on the union weight of any selection the
    solve can return: the sum of the j largest site blue weights, in the
    float test of `_tables`, where j is k, or 2 if no three sites are
    pairwise compatible at that radius, or 1 if no two are (a selection is
    pairwise compatible in the same table). Every blue the union counts is
    counted at a chosen site, a blue covered by two sites twice, and reds
    only lower the union, so this holds under any tolerance. When
    `sums_are_exact`, both sums are exact (a rounded top-j sum stays at
    least any union weight of at most 2^53). Otherwise the bound is widened
    by (k+1)(n+k+1) * sum|w| * 2^-52: twice the first-order rounding error
    of the union's n-term sum, of the site sums and of their k-term sum,
    which also covers the rounding of the addition."""
    n, s = geo.pd2.shape
    wb = np.where(geo.blue, geo.w, 0.0)
    margin = 0.0
    if not sums_are_exact(geo.w):
        margin = (k + 1) * (n + k + 1) * float(np.abs(geo.w).sum()) * 2.0**-52

    def chunk(lams):
        _, sums, ok = _tables(geo, lams, tol, wb)
        at, _, _, third = _thirds(geo, ok)
        cap = np.ones(len(lams), dtype=int)
        cap[at] = min(k, 2)
        cap[at[third.any(axis=1)]] = k
        return [(sum(sorted(row)[-j:]) + margin, ()) for row, j in zip(sums.tolist(), cap.tolist())]

    return [b for b, _ in in_chunks(lams, _cells(geo, k), chunk)]


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
