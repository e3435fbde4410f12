import dataclasses
import math
import random
from itertools import combinations

import numpy as np
import pytest

from sofl.candidates import candidate_radii_line
from sofl.geom import DEFAULT_TOL, Disk, TolerancePolicy, disk_weight
from sofl import placement
from sofl.klink import (
    _backtrack,
    _centers,
    _dp_layers,
    _keys,
    _predecessors,
    line_geometry,
    solve_radii,
)
from sofl.placement import union_coverage
from sofl.solver import reduce_allblue_minred, reduce_maxblue_nored, solve_csofl
from conftest import (
    B,
    R,
    edge_weight,
    interval_ends,
    kernel_sides,
    line_centers_and_weights,
    random_instance,
    reference_solve_radius,
    solve_fixed_radius,
    tol_edge_instance,
)


def brute_best_subsets(xs, w, lam, k):
    """All optimal (value, subset) pairs by raw enumeration."""
    need = 2.0 * lam - DEFAULT_TOL.x_slack(2.0 * lam)
    best = 0.0
    sets = [()]
    idx = range(len(xs))
    for size in range(1, k + 1):
        for combo in combinations(idx, size):
            if all(xs[b] - xs[a] >= need for a, b in zip(combo, combo[1:])):
                val = sum(w[i] for i in combo)
                if val > best:
                    best = val
                    sets = [combo]
                elif val == best:
                    sets.append(combo)
    return best, sets


def canonical(sets, xs):
    return min(sets, key=lambda c: (len(c), tuple(sorted((xs[i] for i in c), reverse=True))))


def intervals(points, lam):
    """(l, r) per point within lam of the line y = 0, in point order."""
    _, ends = interval_ends(line_geometry(points, 0.0), lam)
    return list(zip(ends[0::2].tolist(), ends[1::2].tolist()))


def centers(points, lam, k):
    return tuple(line_centers_and_weights(points, 0.0, lam, k)[0])


def grid(ends, lam, k, both=False):
    """`_centers` of one row of interval ends given as l, r, l, r, ..."""
    xs, m = _centers(np.reshape(ends, (1, -1, 2)), np.array([lam]), k, DEFAULT_TOL, both)
    return xs[0, : m[0]]


def pred_array(xs, lam):
    """`_predecessors` of one row of centers."""
    xs = np.array([xs], dtype=float)
    two = np.array([2.0 * lam])
    return _predecessors(_keys(0, xs).ravel(), xs, two - DEFAULT_TOL.x_slacks(two))[0]


def predecessors(xs, lam):
    """`_predecessors` as a list, None where there is no predecessor."""
    return [j if j >= 0 else None for j in pred_array(xs, lam).tolist()]


def best_links(xs, w, lam, k):
    """The kernel's DP and backtrack: best total weight over at most k
    centers at gap >= 2*lam, and the chosen indices."""
    p = pred_array(xs, lam)[None]
    layers = _dp_layers(np.array([w], dtype=float), p, k)
    chosen = _backtrack(layers, p, np.array([len(xs) - 1]))[0]
    return float(layers[-1][0][0, -1]), [j for j in chosen.tolist() if j >= 0]


# --- influence intervals ---------------------------------------------------


def test_interval_basic():
    ((l, r),) = intervals([B(0, 3, 1)], 2.0)
    assert l == pytest.approx(3 - math.sqrt(3))
    assert r == pytest.approx(3 + math.sqrt(3))


def test_interval_tangent():
    ((l, r),) = intervals([B(0, 3, 1)], 1.0)
    assert (l, r) == (3.0, 3.0)


def test_interval_out_of_reach():
    assert intervals([B(0, 3, 2)], 1.0) == []


# --- center sequence -------------------------------------------------------


def test_sequence_k1():
    assert centers([B(0, 1, 1)], 1.0, 1) == pytest.approx((-1.0, 1.0, 3.0))  # interval [1,1] degenerate


def test_sequence_k1_interval():
    _, ends = interval_ends(line_geometry([B(0, 1, 1)], 0.0), math.sqrt(2))
    xs = grid(ends, 1.0, 1)
    assert tuple(xs.tolist()) == pytest.approx((-2.0, 0.0, 2.0, 4.0))


def test_sequence_k2_shifts_merge():
    _, ends = interval_ends(line_geometry([B(0, 1, 1)], 0.0), math.sqrt(2))
    # interval is [0, 2]; with lam=1, k=2 the shift of 0 merges into 2
    xs = tuple(grid(ends, 1.0, 2).tolist())
    assert xs == pytest.approx((-4.0, 0.0, 2.0, 4.0, 6.0))
    # the sentinels, 2*k*lam beyond the outermost endpoints, come first and last
    assert xs[0] == ends.min() - 4.0
    assert xs[-1] == ends.max() + 4.0
    # chained both ways, the shifts interleave
    assert tuple(grid(ends, 1.0, 2, both=True).tolist()) == pytest.approx((-4.0, -2.0, 0.0, 2.0, 4.0, 6.0))


def test_sequence_empty_intervals():
    assert centers([], 1.0, 2) == (0.0, 4.0)


def test_sequence_merges_against_last_kept_value():
    # 0.6e-9 merges into 0.0; 1.2e-9 is within the slack of 0.6e-9 but not
    # of 0.0, the last kept value, so it stays.
    ends = np.array([0.0, 0.6e-9, 1.2e-9, 5.0])
    xs = grid(ends, 1.0, 1)
    assert tuple(xs.tolist()) == (-2.0, 0.0, 1.2e-09, 5.0, 7.0)


def test_sequence_strictly_increasing():
    for seed in range(15):
        inst = random_instance(seed, 8, 3)
        for cand in candidate_radii_line(inst.points):
            if cand.value <= 0:
                continue
            xs = centers(inst.points, cand.value, 3)
            assert all(a < b for a, b in zip(xs, xs[1:]))


# --- weights and predecessors ----------------------------------------------


def test_weight_array_values():
    pts = [B(0, 1, 1, 5.0), R(1, 1.2, 0.4, -2.0)]
    xs, w = line_centers_and_weights(pts, 0.0, 1.0, 1)
    assert w[0] == 0.0 and w[-1] == 0.0  # sentinels never cover
    i = xs.index(1.0)
    assert w[i] == 3.0  # blue on boundary plus red strictly inside


def test_weight_array_bulk_matches_scalar():
    rng = random.Random(7)
    pts = []
    for i in range(40):  # above the numpy threshold
        if rng.random() < 0.5:
            pts.append(B(i, rng.randint(0, 30), rng.randint(1, 8), rng.randint(1, 9)))
        else:
            pts.append(R(i, rng.randint(0, 30), rng.randint(1, 8), -rng.randint(1, 9)))
    xs, bulk = line_centers_and_weights(pts, 0.0, 3.0, 2)
    scalar = [disk_weight(Disk(x, 0.0, 3.0), pts) for x in xs]
    assert bulk == scalar


def test_weight_array_float_weights_match_scalar():
    # Non-integer weights: the sums must be taken in point order to match.
    rng = random.Random(13)
    for n in (3, 5, 40):
        pts = []
        for i in range(n):
            if rng.random() < 0.5:
                pts.append(B(i, rng.randint(0, 30), rng.randint(1, 8), rng.uniform(0.1, 9)))
            else:
                pts.append(R(i, rng.randint(0, 30), rng.randint(1, 8), -rng.uniform(0.1, 9)))
        for lam in (2.5, 3.0, 8.0):
            xs, bulk = line_centers_and_weights(pts, 0.0, lam, 2)
            assert bulk == [disk_weight(Disk(x, 0.0, lam), pts) for x in xs]


def test_predecessor_tiny_lambda():
    # 2*lam is below the slack, so every earlier center qualifies; p[i] < i.
    assert predecessors((0.0, 1.0, 2.0), 1e-10) == [None, 0, 1]


def test_predecessor_examples():
    assert predecessors((0.0, 1.9, 4.0), 1.0) == [None, None, 1]
    assert predecessors((0.0, 2.0, 4.0), 1.0) == [None, 0, 1]
    assert predecessors((0.0,), 1.0) == [None]


def test_predecessor_matches_definition():
    rng = random.Random(3)
    for _ in range(50):
        xs = sorted(rng.sample(range(100), rng.randint(1, 20)))
        xs = tuple(float(x) for x in xs)
        lam = rng.uniform(0.5, 5)
        p = predecessors(xs, lam)
        need = 2 * lam - DEFAULT_TOL.x_slack(2 * lam)
        for i, x in enumerate(xs):
            want = [j for j in range(i) if x - xs[j] >= need]
            assert p[i] == (max(want) if want else None)


# --- the DP ----------------------------------------------------------------


def test_dp_example():
    xs = (0.0, 2.0, 4.0, 6.0, 8.0)
    w = [0.0, 5.0, -2.0, 7.0, 0.0]
    value, chosen = best_links(xs, w, 1.0, 2)
    ref, _sets = brute_best_subsets(xs, w, 1.0, 2)
    assert ref == 12.0
    assert value == 12.0
    assert [w[i] for i in chosen] == [5.0, 7.0]


def test_dp_k1_is_max():
    w = [0.0, 5.0, -2.0, 7.0, 0.0]
    xs = (0.0, 2.0, 4.0, 6.0, 8.0)
    value, chosen = best_links(xs, w, 1.0, 1)
    assert value == 7.0 and chosen == [3]


def test_dp_all_nonpositive():
    xs = (0.0, 2.0, 4.0)
    w = [-1.0, 0.0, -3.0]
    value, chosen = best_links(xs, w, 1.0, 2)
    assert value == 0.0 and chosen == []


def test_dp_matches_enumeration_with_canonical_ties():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(2, 18)
        xs = tuple(sorted(rng.uniform(0, 20) for _ in range(m)))
        if any(b - a < 1e-6 for a, b in zip(xs, xs[1:])):
            continue
        w = [float(rng.randint(-5, 9)) for _ in range(m)]
        lam = rng.uniform(0.3, 4)
        k = rng.randint(1, 3)
        value, chosen = best_links(xs, w, lam, k)
        ref, sets = brute_best_subsets(xs, w, lam, k)
        assert value == ref
        assert tuple(chosen) == canonical(sets, xs)


def test_phi_monotone_in_index():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randint(2, 12)
        xs = tuple(sorted(rng.uniform(0, 20) for _ in range(m)))
        w = [float(rng.randint(-5, 9)) for _ in range(m)]
        p = pred_array(xs, 1.0)[None]
        for (col,), _, _ in _dp_layers(np.array([w]), p, 3):
            assert all(b >= a for a, b in zip(col, col[1:]))


# --- edge weights and the concave Monge inequality --------------------------


def test_edge_weight_rules():
    w = [3.0, 4.0, 0.0]
    assert edge_weight(0, 1, (0.0, 1.5, 10.0), w, 1.0) == math.inf
    xs = (0.0, 2.0, 10.0)
    assert edge_weight(0, 1, xs, w, 1.0) == -7.0
    assert edge_weight(0, 2, xs, w, 1.0) == -3.0


def test_concave_monge_on_random_instances():
    checked = 0
    for seed in range(100):
        inst = random_instance(seed, 6, 2)
        cands = candidate_radii_line(inst.points)
        cand = cands[seed % len(cands)]
        if cand.value <= 0:
            cand = cands[-1]
        lam = cand.value
        xs, w = line_centers_and_weights(inst.points, 0.0, lam, 2)
        m = len(xs)
        for i in range(m - 3):
            for j in range(i + 2, m - 1):
                lhs = edge_weight(i, j, xs, w, lam) + edge_weight(i + 1, j + 1, xs, w, lam)
                rhs = edge_weight(i, j + 1, xs, w, lam) + edge_weight(i + 1, j, xs, w, lam)
                assert lhs <= rhs
                checked += 1
    assert checked >= 10_000


# --- fixed-radius solves ----------------------------------------------------


def test_fixed_radius_single_blue():
    pl = solve_fixed_radius([B(0, 0, 1)], 0.0, 1.0, 1)
    assert pl.total_weight == 1.0
    assert [c.x for c in pl.centers] == [0.0]


def test_fixed_radius_red_blocks():
    pts = [R(0, 0, 0.5, -9.0), B(1, 0, 1, 1.0)]
    pl = solve_fixed_radius(pts, 0.0, 1.0, 1)
    assert pl.total_weight == 0.0
    assert pl.centers == ()


def test_fixed_radius_two_disks():
    pts = [B(0, -5, 1), B(1, 5, 1)]
    pl = solve_fixed_radius(pts, 0.0, 1.0, 2)
    assert pl.total_weight == 2.0
    assert sorted(c.x for c in pl.centers) == [-5.0, 5.0]


def test_solve_radius_reports_union_weight():
    # The DP adds disk weights, so the blue pair at the tangent point of two
    # touching disks counts twice there (score 8); the reported weight is
    # the union's.
    pts = [B(0, -2, 1e-6, 2), B(1, -2, 1e-6, 2), B(2, 0, 4, 1)]
    weight, xs = solve_radii(line_geometry(pts, 0.0), [4.0], 2)[0]
    assert xs == pytest.approx((-6.0, 2.0))
    disks = [Disk(x, 0.0, 4.0) for x in xs]
    assert weight == union_coverage(disks, pts)[0] == 4.0
    assert solve_fixed_radius(pts, 0.0, 4.0, 2).total_weight == weight


def test_fixed_radius_zero_lambda():
    pl = solve_fixed_radius([B(0, 0, 1)], 0.0, 0.0, 1)
    assert pl.total_weight == 0.0 and pl.centers == ()


def test_double_coverage_impossible():
    for seed in range(30):
        inst = random_instance(seed, 7, 3)
        for cand in candidate_radii_line(inst.points)[::3]:
            pl = solve_fixed_radius(inst.points, 0.0, cand.value, 3)
            disks = [Disk(c.x, 0.0, pl.radius) for c in pl.centers]
            from sofl.geom import is_covered

            for p in inst.points:
                assert sum(1 for d in disks if is_covered(p, d)) <= 1


def test_monotone_in_k():
    for seed in range(20):
        inst = random_instance(seed, 7, 1)
        for cand in candidate_radii_line(inst.points)[::4]:
            weights = [
                solve_fixed_radius(inst.points, 0.0, cand.value, k).total_weight
                for k in (1, 2, 3)
            ]
            assert weights == sorted(weights)


def test_endpoint_optimality_when_positive():
    # some optimal placement touches an interval endpoint whenever weight > 0
    for seed in range(40):
        inst = random_instance(seed, 6, 2)
        for cand in candidate_radii_line(inst.points)[::2]:
            lam = cand.value
            if lam <= 0:
                continue
            xs, w = line_centers_and_weights(inst.points, 0.0, lam, 2)
            value, _ = best_links(xs, w, lam, 2)
            if value <= 0:
                continue
            _, sets = brute_best_subsets(xs, w, lam, 2)
            ends = set(interval_ends(line_geometry(inst.points, 0.0), lam)[1].tolist())
            endpoint_idx = {i for i, x in enumerate(xs) if x in ends}
            assert any(any(i in endpoint_idx for i in s) for s in sets)


# --- the chunked kernel against the dense single-radius one ----------------


def _reweighted(points, weights):
    return [dataclasses.replace(p, weight=w if p.is_blue else -w) for p, w in zip(points, weights)]


def _transformed(points, scale, sign):
    return [dataclasses.replace(p, x=sign * scale * p.x, y=scale * p.y) for p in points]


def _kernel_cases():
    """(points, k) pairs: generator csofl instances and both reductions,
    tolerance-edge instances, float weights, integer weights whose absolute
    sum is 2^53 and just past it, each also scaled by 2^-20 and 2^20 and
    mirrored."""
    rng = random.Random(41)
    for seed in range(12):
        k = 1 + seed % 4
        pts = random_instance(seed, 3 + seed, k).points
        yield pts, k
        yield reduce_allblue_minred(pts), k
        yield reduce_maxblue_nored(pts), k
        yield _reweighted(pts, [rng.choice((0.1, 0.2, 0.7, 1 / 3, 1e16, 3.0)) for _ in pts]), k
    for seed in (912, 1436, 1622, 1840, 2521):
        yield tol_edge_instance(seed).points, 2
    pts = random_instance(7, 8, 2).points
    big = [2.0**50] * 8
    yield _reweighted(pts, big), 3
    big[0] += 1.0
    yield _reweighted(pts, big), 3


def test_solve_radii_equals_dense_reference(monkeypatch):
    # Pins repr, not just ==, since `sofl solve` prints what the kernel
    # returns. Each list of radii is solved in one chunk, then in chunks of
    # 7, most lists not a multiple of it.
    exact = set()
    for base, k in _kernel_cases():
        for scale, sign in ((1.0, 1.0), (2.0**-20, -1.0), (2.0**20, 1.0)):
            pts = _transformed(base, scale, sign)
            geo = line_geometry(pts, 0.0)
            exact.add(geo.exact)
            low = min(abs(p.y) for p in pts if p.y) / 2.0  # reaches nothing
            lams = [-1.0, 0.0, low] + [c.value for c in candidate_radii_line(pts, 0.0, k=k)]
            want = repr([reference_solve_radius(geo, lam, k, both=kernel_sides(lam)) for lam in lams])
            for rows in (len(lams), 7):
                monkeypatch.setattr(placement, "CELLS", rows * (2 * k * len(pts) + 2))
                assert repr(solve_radii(geo, lams, k)) == want, (k, scale, sign, rows)
    assert exact == {True, False}


def test_centers_keep_weight_and_count_of_the_two_sided_reference():
    # The kernel's centers, shifted rightward only where the band is the
    # default one (`two_sided`), must lose nothing: at every candidate
    # radius the weight and the center count equal those over centers
    # shifted both ways. Generator instances also run with both reductions,
    # seeds 845, 863 and 1637 among them, where rightward shifts alone lose
    # weight at 1e-4; the tolerance-edge instances put points within 1e-5
    # of the line.
    cases = []
    for seed in [*range(40), 845, 863, 1637]:
        k = 1 + seed % 4
        pts = random_instance(seed, 3 + seed % 10, k).points
        cases += [(pts, k), (reduce_allblue_minred(pts), k), (reduce_maxblue_nored(pts), k)]
    cases += [(tol_edge_instance(seed).points, 2) for seed in range(300)]
    for tol in (DEFAULT_TOL, TolerancePolicy(5e-7), TolerancePolicy(1e-4)):
        for pts, k in cases:
            geo = line_geometry(pts, 0.0)
            lams = [c.value for c in candidate_radii_line(pts, 0.0, k=k)]
            for lam, (weight, xs) in zip(lams, solve_radii(geo, lams, k, tol)):
                ref_weight, ref_xs = reference_solve_radius(geo, lam, k, tol)
                assert (weight, len(xs)) == (ref_weight, len(ref_xs)), (pts, k, lam, tol)


def test_seed_863_keeps_its_radius_at_a_wide_band():
    # At eps 1e-4 the best pair of disks at lam = 8 covers a tangent blue
    # only through the band, at a center that only a leftward shift
    # reaches. Rightward shifts alone give weight 13 there, and the solve
    # then moves to lam 8.0003246344.
    pts = random_instance(863, 6, 4).points
    tol = TolerancePolicy(1e-4)
    assert solve_radii(line_geometry(pts, 0.0), [8.0], 4, tol)[0][0] == 16.0
    pl = solve_csofl(pts, 0.0, 4, tol)
    assert (pl.total_weight, pl.radius) == (16.0, 8.0)


def test_exact_sums_guard():
    pts = random_instance(7, 8, 2).points
    big = [2.0**50] * 8
    assert line_geometry(_reweighted(pts, big), 0.0).exact
    big[0] += 1.0
    assert not line_geometry(_reweighted(pts, big), 0.0).exact
    assert not line_geometry(_reweighted(pts, [0.5] + [1.0] * 7), 0.0).exact
