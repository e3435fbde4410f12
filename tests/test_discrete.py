import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from sofl.candidates import candidate_radii_discrete
from sofl import discrete
from sofl.discrete import (
    ConvexPositionError,
    _ChordSolver,
    _blue_bound,
    _geometry,
    _solve_radii,
    _tables,
    canonical_ring,
    solve_discrete,
)
from sofl.geom import (
    DEFAULT_TOL,
    Disk,
    TolerancePolicy,
    centers_compatible,
    disk_weight,
    dist2,
    is_covered,
    sums_are_exact,
)
from sofl.oracle import brute_discrete
from conftest import (
    B,
    R,
    discrete_pair_table,
    pool_instances,
    random_instance,
    reference_blue_bound,
    rescaled,
    solve_discrete_fixed_radius,
    thin_ring_instance,
)


SQUARE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
BOUND_POLICIES = (DEFAULT_TOL, TolerancePolicy(5e-7), TolerancePolicy(1e-4))


def site_weights(sites, points, lam, tol=DEFAULT_TOL):
    """Covered weight of a radius-lam disk at every site, as the solver's
    chunk tables compute it."""
    geo = _geometry(sites, points)
    return _tables(geo, np.array([lam]), tol, geo.w)[1][0].tolist()


def test_canonical_ring_clockwise_from_min():
    ring = canonical_ring(SQUARE)
    assert ring == ((0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0))


def test_canonical_ring_rejects_collinear():
    with pytest.raises(ConvexPositionError):
        canonical_ring([(0, 0), (1, 0), (2, 0)])


def test_canonical_ring_rejects_interior_point():
    with pytest.raises(ConvexPositionError):
        canonical_ring([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])


def test_canonical_ring_rejects_duplicates():
    with pytest.raises(ConvexPositionError):
        canonical_ring([(0, 0), (4, 0), (0, 0)])


def test_solve_discrete_rejects_a_collinear_ring():
    # The solver canonicalizes every ring it is given, as the parser does.
    sites = ((0, 0), (1, 1), (2, 2), (3, 3))
    with pytest.raises(ConvexPositionError):
        solve_discrete(sites, [B(0, 1, 1, 1.0), B(1, 3, 3, 1.0)], 2)


def test_canonical_ring_is_idempotent():
    # A parsed ring is canonical already, so the solver's second pass keeps
    # its order and the site ids the parser gave; so do its rotations and
    # its reversal.
    rings = [inst.sites for seed in range(200) if (inst := thin_ring_instance(seed)) is not None]
    rings += [random_instance(seed, 1, 1, variant="discrete", s=3 + seed % 14).sites for seed in range(100)]
    assert len(rings) > 150
    for ring in rings:
        assert canonical_ring(ring) == ring, ring
        for i in range(len(ring)):
            assert canonical_ring((ring[i:] + ring[:i])[::-1]) == ring, (ring, i)


def test_site_weights():
    w = site_weights([(0.0, 0.0)], [B(0, 0, 0.5, 2.0)], 1.0)
    assert w == [2.0]
    w = site_weights([(0.0, 0.0)], [R(0, 0, 1, -3.0)], 1.0)
    assert w == [0.0]  # boundary red is open-interior excluded
    w = site_weights([(0.0, 0.0)], [B(0, 50, 50, 2.0)], 1.0)
    assert w == [0.0]


def test_site_weights_float_weights_match_scalar():
    # Non-integer weights: the sums must be taken in point order to match.
    ring = canonical_ring([(0, 0), (10, 0), (12, 8), (5, 13), (-2, 8)])
    on_circle = R(0, 3.0, 4.0, -2.5)  # exactly 5 from (0, 0): excluded
    in_band = B(1, 10.0, 5.0 + 1e-9, 1.25)  # just past 5 from (10, 0): included
    w = dict(zip(ring, site_weights(ring, [on_circle, in_band], 5.0)))
    assert w[(0.0, 0.0)] == 0.0 and w[(10.0, 0.0)] == 1.25
    rng = random.Random(11)
    for n in (3, 8, 40):
        pts = [on_circle, in_band]
        for i in range(2, n):
            x, y = rng.uniform(-4, 14), rng.uniform(-4, 16)
            if rng.random() < 0.5:
                pts.append(B(i, x, y, rng.uniform(0.1, 9)))
            else:
                pts.append(R(i, x, y, -rng.uniform(0.1, 9)))
        for lam in (2.5, 5.0, 7.5):
            expect = [disk_weight(Disk(x, y, lam), pts) for x, y in ring]
            assert site_weights(ring, pts, lam) == expect


def test_pair_table_matches_centers_compatible():
    # (0, 0)-(4, 0) and (-3, 4)-(7, 4) share a height; (0, 0)-(-3, 4) and
    # (4, 0)-(7, 4) are 5 apart.
    ring = canonical_ring([(0, 0), (4, 0), (7, 4), (2, 9), (-3, 4)])
    geo = _geometry(ring, ())
    for tol in (DEFAULT_TOL, TolerancePolicy(1e-4), TolerancePolicy(0.0)):
        lams = [0.5, 2.5, 3.0, 5.0]
        for gap in (4.0, 10.0):
            # exactly 2*lam, and 2*lam less half the slack
            lams += [gap / 2, (gap + tol.x_slack(gap) / 2) / 2]
        # one row per radius in the chunk table, and the per-radius reference
        tables = _tables(geo, np.array(lams), tol, geo.w)[2].tolist()
        for lam, table in zip(lams, tables):
            assert table == [[centers_compatible(a, b, lam, tol) for b in ring] for a in ring]
            assert discrete_pair_table(geo, lam, tol) == table
        assert discrete_pair_table(geo, 2.0, tol)[ring.index((0.0, 0.0))][ring.index((4.0, 0.0))]


def zeta(candidate_xy, anchors_xy) -> float:
    """Minimum distance from a candidate site to the three anchor sites."""
    cx, cy = candidate_xy
    return math.sqrt(min(dist2(cx, cy, ax, ay) for ax, ay in anchors_xy))


def test_zeta():
    assert zeta((0.0, 0.0), [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)]) == 0.0
    assert zeta((0.0, 0.0), [(5.0, 0.0), (0.0, 3.0), (0.0, 4.0)]) == 3.0
    side = 2.0
    tri = [(0.0, 0.0), (side, 0.0), (side / 2, side * math.sqrt(3) / 2)]
    assert zeta(tri[0], tri[1:]) == pytest.approx(side)


def test_square_uniform_k4():
    ring = canonical_ring([(0, 0), (10, 0), (10, 10), (0, 10)])
    pts = [B(i, x, y, 1.0) for i, (x, y) in enumerate(ring)]
    pl = solve_discrete_fixed_radius(ring, pts, 1.0, 4)
    assert pl.total_weight == 4.0
    assert len(pl.centers) == 4


def test_chord_recursion_base_cases():
    ring = canonical_ring([(0, 0), (10, 0), (10, 10), (0, 10)])
    geo = _geometry(ring, ())
    w = [1.0, 1.0, 1.0, 1.0]
    dp = _ChordSolver(w, discrete_pair_table(geo, 1.0, DEFAULT_TOL), geo)
    # gamma(a, b, apex, budget) fills the arc arcs[b][a]
    assert geo.arcs[1][3] == (2,) and geo.arcs[0][1] == ()
    assert dp.gamma(3, 1, 0, 0) == 0.0  # exhausted budget adds nothing
    assert dp.gamma(1, 0, 2, 2) == 0.0  # empty arc adds nothing
    # one budget left: the single arc site is admissible and worth its weight
    assert dp.gamma(3, 1, 0, 1) == 1.0
    # inadmissible when the radius grows past half the anchor spacing
    tight = _ChordSolver(w, discrete_pair_table(geo, 6.0, DEFAULT_TOL), geo)
    assert tight.gamma(3, 1, 0, 1) == 0.0
    # A thin rhombus: across its short diagonal the far site is outside the
    # circle of the near triangle and enters; across its long diagonal it
    # is inside and is rejected, at a radius where every pair is compatible.
    ring = canonical_ring([(-10, 0), (0, 1), (10, 0), (0, -1)])
    assert ring == ((-10.0, 0.0), (0.0, 1.0), (10.0, 0.0), (0.0, -1.0))
    geo = _geometry(ring, ())
    ok = discrete_pair_table(geo, 0.5, DEFAULT_TOL)
    assert all(ok[i][j] for i, j in combinations(range(4), 2))
    thin = _ChordSolver(w, ok, geo)
    assert geo.arcs[3][1] == (0,) and geo.arcs[2][0] == (3,)
    assert thin.gamma(1, 3, 2, 1) == 1.0
    assert thin.gamma(0, 2, 1, 1) == 0.0


def exact_incircle(a, b, c, d) -> Fraction:
    """The in-circle determinant of (a, b, c, d) in exact arithmetic: > 0 iff
    d is strictly inside the circle through a counter-clockwise (a, b, c)."""
    rows = []
    for px, py in (a, b, c):
        dx, dy = Fraction(px) - Fraction(d[0]), Fraction(py) - Fraction(d[1])
        rows.append((dx, dy, dx * dx + dy * dy))
    (ax, ay, al), (bx, by, bl), (cx, cy, cl) = rows
    return al * (bx * cy - cx * by) + bl * (cx * ay - ax * cy) + cl * (ax * by - bx * ay)


def test_admission_rejects_only_sites_strictly_inside():
    # Every entry the recursion reads: chord (a, b), apex c in arcs[a][b],
    # entering site d in arcs[b][a]. (a, b, c) is counter-clockwise, and a
    # rejected d is strictly inside circle(a, b, c) by exact arithmetic. An
    # admitted d strictly inside is within float error of the circle: the
    # flipped diagonal (c, d) is no shorter than the shortest side of the
    # quadrilateral (a, c, b, d), so the edge checks bound it.
    rings = [inst.sites for seed in range(80)
             if (inst := thin_ring_instance(seed)) is not None and len(inst.sites) <= 8]
    rings += [random_instance(seed, 1, 1, variant="discrete", s=5 + seed % 4).sites
              for seed in range(24)]
    rejected = admitted_inside = 0
    for ring in rings:
        geo = _geometry(ring, ())
        for a, b in permutations(range(len(ring)), 2):
            for c in geo.arcs[a][b]:
                pa, pb, pc = ring[a], ring[b], ring[c]
                orient = ((Fraction(pb[0]) - Fraction(pa[0])) * (Fraction(pc[1]) - Fraction(pa[1]))
                          - (Fraction(pb[1]) - Fraction(pa[1])) * (Fraction(pc[0]) - Fraction(pa[0])))
                assert orient > 0
                for d in geo.arcs[b][a]:
                    inside = exact_incircle(pa, pb, pc, ring[d]) > 0
                    if not geo.adm[a][b][c] >> d & 1:
                        rejected += 1
                        assert inside, (ring, a, b, c, d)
                    elif inside:
                        admitted_inside += 1
                        sides = [dist2(*p, *q) for p, q in ((pa, pc), (pc, pb), (pb, ring[d]), (ring[d], pa))]
                        assert dist2(*pc, *ring[d]) >= min(sides), (ring, a, b, c, d)
    assert len(rings) >= 40 and rejected > 1000 and admitted_inside > 0


def _bound_cases():
    """(sites, points, k) of the bound's soundness test: the thin rings of
    `golden_discrete_thin` (seeds 0..119) and seeded generator rings, both
    with s <= 8, and a blue at the tangent point of two touching sites with
    reds on and within the band of a boundary; each also with float
    weights, and scaled by 2^-20 and 2^20 in coordinates and weights."""
    rng = random.Random(3)
    insts = [inst for seed in range(120) if (inst := thin_ring_instance(seed)) is not None
             and len(inst.sites) <= 8]
    insts += [random_instance(700 + seed, 4 + seed % 8, min(1 + seed % 4, 4 + seed % 5),
                              variant="discrete", s=5 + seed % 4) for seed in range(16)]
    # At radius 2 sites 0 and 1 touch at blue 0; red 2 is on the boundary
    # of site 1 and red 3 inside it by less than the band (4e-9).
    tangent = [B(0, 2, 0, 5.0), B(1, 0, 10, 3.0), R(2, 6, 0, -1.0), R(3, 4, 2 - 1e-10, -2.0),
               B(4, 4, 2 + 1e-10, 1.0), R(5, 1, 9, -1.0)]
    cases = [(inst.sites, inst.points, inst.k) for inst in insts]
    cases += [([(0, 0), (4, 0), (4, 10), (0, 10)], tangent, k) for k in (1, 2, 3)]
    for sites, points, k in cases:
        floats = [p.weight * rng.choice((0.1, 0.7, 1 / 3, 3.0)) for p in points]
        for weights in ([p.weight for p in points], floats):
            for scale in (1.0, 2.0**-20, 2.0**20):
                yield (*rescaled(sites, points, weights, scale), k)


def test_blue_bound_is_at_least_every_union_weight():
    # At every candidate radius the bound is at least the union weight of
    # every selection the solve can return: at most k sites, pairwise
    # compatible by the scalar `centers_compatible`, with coverage by the
    # scalar `is_covered` and the union summed in point order, each under
    # the bound's own policy. The bound counts no more sites than fit
    # pairwise, so radii where only one or two of the k fit must occur, on
    # the exact and on the margin path. At radius <= 0 the solve places
    # nothing, so the bound need only be >= 0.
    cases = 0
    capped = Counter()
    for sites, points, k in _bound_cases():
        ring = canonical_ring(sites)
        s = len(ring)
        radii = [c.value for c in candidate_radii_discrete(points, ring)]
        geo = _geometry(ring, points)
        w = np.array([p.weight for p in points])
        subsets = [c for r in range(1, k + 1) for c in combinations(range(s), r)]
        inc = np.zeros((s, len(subsets)), dtype=int)
        pairs = np.zeros((s * s, len(subsets)), dtype=int)
        for j, c in enumerate(subsets):
            inc[list(c), j] = 1
            pairs[[a * s + b for a, b in combinations(c, 2)], j] = 1
        for tol in BOUND_POLICIES:
            for lam, bound in zip(radii, _blue_bound(geo, radii, k, tol)):
                if lam <= 0:
                    assert bound >= 0.0
                    continue
                apart = np.array([[a == b or centers_compatible(a, b, lam, tol) for b in ring] for a in ring])
                fits = (~apart).ravel().astype(int) @ pairs == 0
                most = max(len(c) for c, f in zip(subsets, fits) if f)
                if most < k:
                    capped[most, sums_are_exact(geo.w)] += 1
                cov = np.array([[is_covered(p, Disk(x, y, lam), tol) for x, y in ring] for p in points])
                union = cov.astype(int) @ inc[:, fits] > 0
                top = np.cumsum(np.where(union, w[:, None], 0.0), axis=0)[-1].max()
                assert bound >= top, (sites, points, k, lam, tol)
            cases += 1
    assert cases > 300
    assert all(capped[most, exact] for most in (1, 2) for exact in (True, False)), capped


def _pool_bound_cases():
    """(sites, points, small) of every discrete instance of the `sites` and
    `small-check` pools, scaled by 1, 2^-20 and 2^20 in coordinates and
    weights, and of `_bound_cases`; small flags the `small-check` ones."""
    for name in ("sites", "small-check"):
        for inst in pool_instances("discrete", name):
            for scale in (1.0, 2.0**-20, 2.0**20):
                yield (*rescaled(inst.sites, inst.points, [p.weight for p in inst.points], scale),
                       name == "small-check")
    for sites, points, _ in _bound_cases():
        yield sites, points, False


def test_blue_bound_equals_the_table_bound():
    # The threshold bound against the per-radius tables it replaced
    # (`reference_blue_bound`), at every candidate radius, for k from 1 to
    # min(4, s - 1), under each policy. Where `sums_are_exact` they are
    # equal bit for bit. Otherwise the site sums are added in another
    # order: the two stay within the rounding margin of each other, and on
    # the `small-check` instances the bound is at least the union weight
    # the solve returns at every radius. (Every selection's union weight
    # is checked by brute force on `_bound_cases` above.)
    compared = Counter()
    for sites, points, small in _pool_bound_cases():
        ring = canonical_ring(sites)
        geo = _geometry(ring, points)
        radii = [c.value for c in candidate_radii_discrete(points, ring)]
        exact = sums_are_exact(geo.w)
        for tol in BOUND_POLICIES:
            for k in range(1, min(4, len(ring) - 1) + 1):
                got = _blue_bound(geo, radii, k, tol)
                expect = reference_blue_bound(geo, radii, k, tol)
                if exact:
                    assert got == expect, (sites, points, k, tol)
                    compared["exact"] += 1
                    continue
                margin = (k + 1) * (len(points) + k + 1) * float(np.abs(geo.w).sum()) * 2.0**-52
                assert all(abs(a - b) <= margin for a, b in zip(got, expect)), (sites, points, k, tol)
                if small:
                    solved = [w for w, _ in _solve_radii(geo, radii, k, tol)]
                    assert all(b >= w for b, w in zip(got, solved)), (sites, points, k, tol)
                    compared["solved"] += 1
                compared["inexact"] += 1
    assert compared["exact"] > 2000 and compared["inexact"] > 1000 and compared["solved"] > 500, compared


def test_blue_bound_builds_no_tables(monkeypatch):
    # On the discrete pool instances the bound neither builds the chunk
    # tables nor lists the compatible triples, and gives the reference's
    # values.
    cases = []
    for inst in pool_instances("discrete", "sites", "small-check"):
        ring = canonical_ring(inst.sites)
        geo = _geometry(ring, inst.points)
        radii = [c.value for c in candidate_radii_discrete(inst.points, ring)]
        cases.append((geo, radii, inst.k, reference_blue_bound(geo, radii, inst.k)))

    def refuse(*args):
        raise AssertionError("tables built")

    monkeypatch.setattr(discrete, "_tables", refuse)
    monkeypatch.setattr(discrete, "_thirds", refuse)
    for geo, radii, k, expect in cases:
        assert _blue_bound(geo, radii, k, DEFAULT_TOL) == expect
    assert len(cases) == 13 + 64


def _near(v: float, steps: int = 2) -> list[float]:
    """v and the floats up to steps ulps either side of it."""
    out = [v]
    for direction in (-math.inf, math.inf):
        x = v
        for _ in range(steps):
            x = math.nextafter(x, direction)
            out.append(x)
    return out


def test_blue_bound_at_threshold_edges():
    # Where a one-ulp error in a threshold would move a bound, under each
    # policy. At lam = 2.5 the pair that decides j is exactly 2*lam apart:
    # the farthest pair (k = 2) or the shortest side of the widest triangle
    # (k = 3), at one height or across heights, also with the x of its
    # second site moved one ulp either way. Blues lie on every site, and at
    # distance exactly lam from site (0, 0) and one ulp either side. The
    # radii are lam and, per blue and site and per site pair, the radius
    # where the policy's test flips, each with the floats 2 ulps around it.
    # The bound must equal the per-radius tables' at each.
    rings = [  # (sites, k, the moved site)
        ([(0.0, 0.0), (5.0, 0.0), (4.0, 1.0), (1.0, 1.0)], 2, 1),
        ([(0.0, 0.0), (2.5, 1.0), (3.0, 4.0), (0.5, 3.0)], 2, 2),
        ([(0.0, 0.0), (2.5, -0.5), (5.0, 0.0), (2.5, 5.0)], 3, 2),
        ([(0.0, 0.0), (2.0, -1.5), (6.0, -1.0), (3.0, 4.0)], 3, 3),
    ]
    edge = [(x, -2.0) for x in (-1.5, math.nextafter(-1.5, -math.inf), math.nextafter(-1.5, math.inf))]
    edge += [(0.0, 2.5), (0.0, math.nextafter(2.5, 0.0)), (math.nextafter(0.0, 1.0), 2.5)]
    moves = 0
    for base, k, moved in rings:
        for direction in (0.0, -math.inf, math.inf):
            x, y = base[moved]
            sites = base[:moved] + [(math.nextafter(x, direction) if direction else x, y)] + base[moved + 1:]
            points = [B(i, x, y, 1.0 + i) for i, (x, y) in enumerate(sites + edge)]
            ring = canonical_ring(sites)
            geo = _geometry(ring, points)
            for tol in BOUND_POLICIES:
                eps = tol.eps
                edges = [2.5]
                for d in geo.pd2.ravel().tolist():
                    edges += [math.sqrt(d), math.sqrt(d / (1.0 + eps))]
                for i, j in combinations(range(len(ring)), 2):
                    edges += [math.sqrt(geo.d2[i, j]) / 2.0, math.sqrt(geo.d2[i, j] / (4.0 * (1.0 - eps)))]
                    if geo.same[i, j]:
                        edges += [geo.adx[i, j] / 2.0, geo.adx[i, j] / (2.0 * (1.0 - eps))]
                radii = sorted({r for v in edges for r in _near(v)})
                got = _blue_bound(geo, radii, k, tol)
                assert got == reference_blue_bound(geo, radii, k, tol), (sites, k, tol)
                moves += sum(a != b for a, b in zip(got, got[1:]))
    assert moves > 250, moves


def test_no_incircle_table_at_k3(monkeypatch):
    # At k = 3 the recursion has no budget left after the anchor root, so
    # it never reads the in-circle table; at k = 4 the table is built once
    # per solve.
    cases = [inst for inst in pool_instances("discrete", "sites") if inst.k in (3, 4)]
    expect = [solve_discrete(inst.sites, inst.points, inst.k) for inst in cases]
    built = []
    admission = discrete._admission

    def counted(ring):
        built.append(ring)
        return admission(ring)

    def refuse(ring):
        raise AssertionError("in-circle table built at k = 3")

    for inst, placement in zip(cases, expect):
        monkeypatch.setattr(discrete, "_admission", refuse if inst.k == 3 else counted)
        built.clear()
        assert solve_discrete(inst.sites, inst.points, inst.k) == placement
        assert len(built) == (inst.k == 4)
    assert {inst.k for inst in cases} == {3, 4}


def test_k1_best_single_site():
    ring = canonical_ring(SQUARE)
    pts = [B(0, 0, 0.5, 3.0), B(1, 4, 0.5, 1.0)]
    pl = solve_discrete_fixed_radius(ring, pts, 0.5, 1)
    assert pl.total_weight == 3.0
    assert [c.site_id for c in pl.centers] == [0]


def test_pairwise_guard_blocks_second_disk():
    ring = canonical_ring(SQUARE)
    pts = [B(0, 0, 0.5, 1.0), B(1, 4, 0.5, 1.0)]
    # radius 2.5: all site pairs on a side are 4 < 5 apart except diagonals
    pl = solve_discrete_fixed_radius(ring, pts, 2.5, 2)
    for a, b in combinations(pl.centers, 2):
        assert dist2(a.x, a.y, b.x, b.y) >= (2 * 2.5) ** 2 - 1e-6


def test_solve_square_two_corners():
    pts = [B(0, 0, 0.5, 1.0), B(1, 4, 0.5, 1.0)]
    pl = solve_discrete(SQUARE, pts, 2)
    assert pl.radius == 0.5
    assert pl.total_weight == 2.0
    assert sorted((c.x, c.y) for c in pl.centers) == [(0.0, 0.0), (4.0, 0.0)]


def test_solve_all_red():
    pts = [R(0, 1, 1), R(1, 3, 3)]
    pl = solve_discrete(SQUARE, pts, 2)
    assert pl.radius == 0.0 and pl.total_weight == 0.0


def test_solve_single_blue_distance():
    pts = [B(0, 0, 1, 1.0)]
    pl = solve_discrete(SQUARE, pts, 1)
    assert pl.radius == 1.0  # nearest site is (0,0)


def test_k_must_be_smaller_than_sites():
    with pytest.raises(ValueError):
        solve_discrete(SQUARE, [B(0, 1, 1)], 4)


def test_oracle_equivalence_batch():
    for seed in range(60):
        s = 5 + seed % 5
        k = 1 + seed % 4
        inst = random_instance(seed, 2 + seed % 6, k, variant="discrete", s=s)
        pl = solve_discrete(inst.sites, inst.points, inst.k)
        ref = brute_discrete(inst.sites, inst.points, inst.k)
        assert pl.total_weight == ref.weight, f"seed {seed}"
        assert pl.radius == ref.radius, f"seed {seed}"
        for a, b in combinations(pl.centers, 2):
            assert centers_compatible((a.x, a.y), (b.x, b.y), pl.radius)


def test_weight_monotone_in_k():
    for seed in range(15):
        inst = random_instance(seed, 6, 1, variant="discrete", s=7)
        weights = [
            solve_discrete(inst.sites, inst.points, k).total_weight for k in (1, 2, 3, 4)
        ]
        assert weights == sorted(weights)


def test_full_size_solves_pinned():
    # s >= 12 is past brute_discrete's site guard, so these pin the solver's
    # own radius, weight and site ids on two full-size generator instances.
    cases = [
        (1, 12, 3, 6.4557858395331955, 58.0, [2, 4, 6]),
        (3, 14, 4, 5.026255242359107, 33.0, [0, 4, 6, 9]),
    ]
    for seed, s, k, radius, weight, ids in cases:
        inst = random_instance(seed, 20, k, variant="discrete", s=s)
        pl = solve_discrete(inst.sites, inst.points, inst.k)
        assert pl.radius == radius, f"seed {seed}"
        assert pl.total_weight == weight, f"seed {seed}"
        assert [c.site_id for c in pl.centers] == ids, f"seed {seed}"


def test_chosen_sites_convex_subset_connected():
    # chosen sites on a convex ring always admit the chord structure; check
    # that an oracle-verified optimum is pairwise feasible and ring-ordered
    inst = random_instance(5, 8, 3, variant="discrete", s=8)
    pl = solve_discrete(inst.sites, inst.points, inst.k)
    ids = [c.site_id for c in pl.centers]
    assert ids == sorted(ids)
