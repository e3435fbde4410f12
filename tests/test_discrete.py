import math
import random
from itertools import combinations

import pytest

from sofl.discrete import (
    ConvexPositionError,
    _ChordSolver,
    _coverage,
    _geometry,
    _pair_table,
    canonical_ring,
    solve_discrete,
    solve_discrete_fixed_radius,
)
from sofl.geom import (
    DEFAULT_TOL,
    Disk,
    TolerancePolicy,
    centers_compatible,
    disk_weight,
    dist2,
    point_order_sums,
)
from sofl.oracle import brute_discrete
from conftest import B, R, random_instance


SQUARE = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]


def site_weights(sites, points, lam, tol=DEFAULT_TOL):
    """Covered weight of a radius-lam disk at every site, as the solver's
    per-radius step computes it."""
    geo = _geometry(sites, points)
    return point_order_sums(_coverage(geo, lam, tol), geo.w).tolist()


def test_canonical_ring_clockwise_from_min():
    ring = canonical_ring(SQUARE)
    assert ring.sites == ((0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0))


def test_canonical_ring_rejects_collinear():
    with pytest.raises(ConvexPositionError):
        canonical_ring([(0, 0), (1, 0), (2, 0)])


def test_canonical_ring_rejects_interior_point():
    with pytest.raises(ConvexPositionError):
        canonical_ring([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])


def test_canonical_ring_rejects_duplicates():
    with pytest.raises(ConvexPositionError):
        canonical_ring([(0, 0), (4, 0), (0, 0)])


def test_site_weights():
    w = site_weights([(0.0, 0.0)], [B(0, 0, 0.5, 2.0)], 1.0)
    assert w == [2.0]
    w = site_weights([(0.0, 0.0)], [R(0, 0, 1, -3.0)], 1.0)
    assert w == [0.0]  # boundary red is open-interior excluded
    w = site_weights([(0.0, 0.0)], [B(0, 50, 50, 2.0)], 1.0)
    assert w == [0.0]


def test_site_weights_float_weights_match_scalar():
    # Non-integer weights: the sums must be taken in point order to match.
    ring = canonical_ring([(0, 0), (10, 0), (12, 8), (5, 13), (-2, 8)]).sites
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
    ring = canonical_ring([(0, 0), (4, 0), (7, 4), (2, 9), (-3, 4)]).sites
    geo = _geometry(ring, ())
    for tol in (DEFAULT_TOL, TolerancePolicy(1e-4), TolerancePolicy(0.0)):
        lams = [0.5, 2.5, 3.0, 5.0]
        for gap in (4.0, 10.0):
            # exactly 2*lam, and 2*lam less half the slack
            lams += [gap / 2, (gap + tol.x_slack(gap) / 2) / 2]
        for lam in lams:
            table = _pair_table(geo, lam, tol)
            assert table == [[centers_compatible(a, b, lam, tol) for b in ring] for a in ring]
        assert _pair_table(geo, 2.0, tol)[ring.index((0.0, 0.0))][ring.index((4.0, 0.0))]


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
    pts = [B(i, x, y, 1.0) for i, (x, y) in enumerate(ring.sites)]
    pl = solve_discrete_fixed_radius(ring, pts, 1.0, 4)
    assert pl.total_weight == 4.0
    assert len(pl.centers) == 4


def test_chord_recursion_base_cases():
    ring = canonical_ring([(0, 0), (10, 0), (10, 10), (0, 10)])
    geo = _geometry(ring.sites, ())
    w = [1.0, 1.0, 1.0, 1.0]
    dp = _ChordSolver(w, _pair_table(geo, 1.0, DEFAULT_TOL))
    arc = (2,)
    assert dp.gamma(0, 1, 3, arc, 0) == 0.0  # exhausted budget adds nothing
    assert dp.gamma(0, 1, 3, (), 2) == 0.0  # empty arc adds nothing
    # one budget left: the single arc site is admissible and worth its weight
    assert dp.gamma(1, 3, 0, arc, 1) == 1.0
    # inadmissible when the radius grows past half the anchor spacing
    tight = _ChordSolver(w, _pair_table(geo, 6.0, DEFAULT_TOL))
    assert tight.gamma(1, 3, 0, arc, 1) == 0.0


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
