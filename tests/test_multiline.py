import math
import random
from itertools import combinations

import numpy as np
import pytest

from sofl.candidates import candidate_radii_tlines
from sofl.geom import DEFAULT_TOL, Disk, TolerancePolicy, centers_compatible, is_covered, point_order_sums
from sofl.instance import emit_result, generate, parse_instance
from sofl import placement
from sofl.klink import line_geometry
import sofl.multiline
from sofl.multiline import (
    _UnionWeights,
    _coverage,
    _search,
    _solve_radii,
    _stacked,
    _tables,
    solve_tlines,
)
from sofl.oracle import TooLargeError, _center_grids, brute_fixed_radius, brute_tlines
from sofl.placement import LineCenter, line_placement, selection_key, union_coverage
from sofl.solver import solve_csofl
from conftest import (
    B,
    R,
    radius_groups,
    random_instance,
    kernel_sides,
    line_centers_and_weights,
    multiline_centers,
    pool_instances,
    reference_compatible_pairs,
    reference_pair_tables,
    reference_tlines_candidates,
    reference_tlines_solve_radius,
    solve_tlines_fixed_radius,
    wide_tlines_text,
)

# 1e-4 gives a slack of 1e-3 at |x| = 10, the middle of the generator's coordinates.
POLICIES = (DEFAULT_TOL, TolerancePolicy(1e-4), TolerancePolicy(0.0))


def test_centers_single_line_match_klink():
    pts = [B(0, 1, 1), R(1, 4, 2, -2.0)]
    lam, k = 1.5, 2
    ml = multiline_centers(pts, [0.0], lam, k)
    xs, _ = line_centers_and_weights(pts, 0.0, lam, k)
    assert [c.line_index for c in ml] == [0] * len(ml)
    assert [c.x for c in ml] == pytest.approx(xs)


def test_cross_line_hops():
    # endpoint at x=0 on line 0; second line at dy=1 with lam=1 gives the
    # rightward cross candidate at +sqrt(3), and no leftward one
    pts = [B(0, 0, 1)]
    ml = multiline_centers(pts, [0.0, 1.0], 1.0, 2)
    on_line1 = sorted(c.x for c in ml if c.line_index == 1)
    assert any(abs(x - math.sqrt(3)) < 1e-9 for x in on_line1)
    assert not any(abs(x + math.sqrt(3)) < 1e-9 for x in on_line1)


def test_no_cross_line_hops_when_far():
    pts = [B(0, 0, 1)]
    ml = multiline_centers(pts, [0.0, 10.0], 1.0, 2)
    hop_xs = {round(c.x, 6) for c in ml if c.line_index == 1}
    # only sentinels land on the far line
    assert hop_xs <= {round(0.0 - 4.0, 6), round(0.0 + 4.0, 6)}


def test_fixed_radius_one_disk_per_line():
    pts = [B(0, 0, 1), B(1, 0, 9)]
    pl = solve_tlines_fixed_radius(pts, [0.0, 10.0], 1.0, 2)
    assert pl.total_weight == 2.0
    assert sorted((c.x, c.line_index) for c in pl.centers) == [(0.0, 0), (0.0, 1)]


def test_fixed_radius_stacked_blues_conflict():
    # lines one apart, lam=1: centers above each other are 1 < 2*lam apart
    pts = [B(0, 0, 0.5, 1.0), B(1, 0, 1.5, 1.0)]
    pl = solve_tlines_fixed_radius(pts, [0.0, 1.0], 1.0, 2)
    assert len(pl.centers) == 1
    ref = brute_tlines(pts, [0.0, 1.0], 2, max_centers=60)
    assert pl.total_weight == ref.weight


def test_fixed_radius_zero_lambda():
    pl = solve_tlines_fixed_radius([B(0, 0, 1)], [0.0], 0.0, 1)
    assert pl.total_weight == 0.0 and pl.centers == ()


def test_t1_equivalence():
    for seed in range(100):
        inst = random_instance(seed, 2 + seed % 5, 1 + seed % 2)
        a = solve_csofl(inst.points, 0.0, inst.k)
        b = solve_tlines(inst.points, [0.0], inst.k)
        assert a.total_weight == b.total_weight, f"seed {seed}"
        assert a.radius == b.radius, f"seed {seed}"
        ax = [c.x for c in a.centers]
        bx = [c.x for c in b.centers]
        assert len(ax) == len(bx)
        assert all(abs(p - q) <= 1e-9 * max(1, abs(p)) for p, q in zip(ax, bx))


def test_fixed_radius_matches_oracle():
    done = 0
    seed = 0
    while done < 100 and seed < 400:
        seed += 1
        inst = random_instance(seed, 1 + seed % 3, 1 + seed % 3, variant="tlines", t=2 + seed % 2)
        values = sorted({c.value for c in candidate_radii_tlines(inst.points, inst.lines)})
        for lam in values[1:3]:
            cents = multiline_centers(inst.points, inst.lines, lam, inst.k)
            if not 0 < len(cents) <= 16:
                continue
            pl = solve_tlines_fixed_radius(inst.points, inst.lines, lam, inst.k)
            coords = [(c.x, inst.lines[c.line_index]) for c in cents]
            ref = brute_fixed_radius(inst.points, coords, lam, inst.k, max_k=3)
            assert pl.total_weight == ref.weight, f"seed {seed} lam {lam}"
            done += 1
    assert done >= 100


def test_full_solve_matches_oracle_when_small():
    done = 0
    seed = 0
    while done < 25 and seed < 300:
        seed += 1
        inst = random_instance(seed, 1 + seed % 3, 1, variant="tlines", t=2)
        try:
            ref = brute_tlines(inst.points, inst.lines, inst.k)
        except TooLargeError:
            continue  # some radius exceeded the oracle's center guard
        pl = solve_tlines(inst.points, inst.lines, inst.k)
        assert pl.total_weight == ref.weight, f"seed {seed}"
        assert pl.radius == ref.radius, f"seed {seed}"
        done += 1
    assert done >= 25


def test_output_always_pairwise_feasible():
    for seed in range(60):
        inst = random_instance(seed, 3, 2, variant="tlines", t=2)
        pl = solve_tlines(inst.points, inst.lines, inst.k)
        coords = [(c.x, inst.lines[c.line_index]) for c in pl.centers]
        for a, b in combinations(coords, 2):
            assert centers_compatible(a, b, pl.radius)


def test_union_weight_recomputation():
    for seed in range(40):
        inst = random_instance(seed, 3, 2, variant="tlines", t=2)
        pl = solve_tlines(inst.points, inst.lines, inst.k)
        disks = [Disk(c.x, inst.lines[c.line_index], pl.radius) for c in pl.centers]
        expect = sum(
            p.weight for p in inst.points if any(is_covered(p, d) for d in disks)
        )
        assert pl.total_weight == expect


def test_all_red_zero():
    pts = [R(0, 0, 1), R(1, 3, 3)]
    pl = solve_tlines(pts, [0.0, 2.0], 2)
    assert pl.radius == 0.0 and pl.total_weight == 0.0


def assert_tables_match_scalar(points, lines, lams, centers, tol):
    """The tables of the centers at every radius of lams, one row each,
    against `is_covered`, `disk_weight`, `centers_compatible` and
    `union_coverage`, center by center and pair by pair: the searched
    centers, the k = 3 search tables, each compatible pair
    (`conftest.reference_compatible_pairs`) and its union weight, and each
    row's best single (k = 1 and 3) and best single or pair (k = 2), the
    `selection_key` minimum over position keys.
    Returns the searched indices and the compatibility rows of the first
    radius."""
    geo = _stacked([line_geometry(points, ly) for ly in lines])
    m = len(centers)
    xs = np.tile([c.x for c in centers], len(lams))
    li = np.tile([c.line_index for c in centers], len(lams))
    row = np.repeat(np.arange(len(lams)), m)
    lams = np.array(lams)
    order, ones, (gains, masks, compat) = _tables(geo, lines, lams, xs, row, li, 3, tol)
    assert len(order) == len(gains) == len(masks) == len(compat)
    one, two = (_tables(geo, lines, lams, xs, row, li, k, tol) for k in (1, 2))
    assert (one[0].tolist(), one[1], one[2]) == (order.tolist(), ones, None)
    assert (two[0].tolist(), two[2]) == (order.tolist(), None)
    # Each compatible pair's union weight as the k = 2 tables sum it.
    table = _coverage(geo, lams, xs, row, li, tol)[:, order]
    unions = {}
    for i, j in reference_compatible_pairs(xs[order], np.array(lines)[li[order]], row[order], lams, tol, 8):
        union = point_order_sums(table[:, i] | table[:, j], geo.w)
        unions.update(zip(zip(order[i].tolist(), order[j].tolist()), union.tolist()))
    xy = [(c.x, lines[c.line_index]) for c in centers]
    first = None
    for r, lam in enumerate(lams.tolist()):
        disks = [Disk(x, y, lam) for x, y in xy]
        net = [sum(p.weight for p in points if is_covered(p, d, tol)) for d in disks]
        on = [g - r * m for g in order.tolist() if g // m == r]
        assert on == [i for i in range(m) if net[i] > 0], (r, tol)
        at = [g for g in range(len(order)) if order[g] // m == r]
        best = best_one = selection_key(0.0, []), ()
        for a, g in enumerate(at):
            cov = [is_covered(p, disks[on[a]], tol) for p in points]
            assert masks[g] == sum(1 << i for i, hit in enumerate(cov) if hit)
            assert gains[g] == sum(p.weight for p, hit in zip(points, cov) if hit and p.weight > 0)
            got = [bool(compat[g] >> b & 1) for b in range(len(on))]
            expect = [b > a and centers_compatible(xy[on[a]], xy[on[b]], lam, tol) for b in range(len(on))]
            assert got == expect, (a, tol, lam)
            best_one = min(best_one, (selection_key(net[on[a]], [a]), (a,)))
            best = min(best, best_one)
            for b in range(a + 1, len(on)):
                pair = (r * m + on[a], r * m + on[b])
                assert (pair in unions) == expect[b], (pair, tol, lam)
                if expect[b]:
                    weight = union_coverage([disks[on[a]], disks[on[b]]], points, tol)[0]
                    assert unions.pop(pair).hex() == weight.hex(), (pair, tol, lam)
                    best = min(best, (selection_key(weight, [a, b]), (a, b)))
        assert ones[r] == (-best_one[0][0], best_one[1]), (r, tol, lam)
        assert two[1][r] == (-best[0][0], best[1]), (r, tol, lam)
        if first is None:
            first = on, [compat[g] for g in at]
    assert not unions
    return first


def test_compat_bitsets_touching_pairs():
    # lam = 5; lines 3 and 6 above line 0 give cross offsets sqrt(91) and
    # exactly 8, the same line exactly 2*lam = 10; each center also gets a
    # variant just inside and just outside the slack.
    lam = 5.0
    lines = [0.0, 3.0, 6.0]
    for tol in POLICIES:
        nudge = max(tol.x_slack(10.0), 1e-12)
        xs = {0: [0.0, 10.0, 10.0 - nudge / 2, 10.0 - 2 * nudge, -10.0]}
        xs[1] = [math.sqrt(91.0), -math.sqrt(91.0), math.sqrt(91.0) - 2 * nudge]
        xs[2] = [8.0, -8.0, 8.0 - nudge / 2, 8.0 - 2 * nudge]
        centers = [LineCenter(x, li) for li, row in xs.items() for x in row]
        points = [B(i, c.x, lines[c.line_index]) for i, c in enumerate(centers)]
        order, compat = assert_tables_match_scalar(points, lines, [lam, 4.0, 6.0], centers, tol)
        assert order == list(range(len(centers)))
        # (0, 0) touches (10, 0) and (8, 6), and overlaps (10 - 2*nudge, 0)
        assert [compat[0] >> b & 1 for b in (1, 8, 3)] == [1, 1, 0]


def test_compat_bitsets_match_scalar_on_instances():
    for seed in range(30):
        inst = random_instance(seed, 3 + seed % 4, 1 + seed % 3, variant="tlines", t=2 + seed % 2)
        radii = sorted({c.value for c in candidate_radii_tlines(inst.points, inst.lines, k=inst.k)})
        for lam in [v for v in radii if v > 0][:4]:
            for tol in POLICIES:
                cents = multiline_centers(inst.points, inst.lines, lam, inst.k, tol)
                assert_tables_match_scalar(inst.points, inst.lines, [lam, 2 * lam], cents, tol)


def assert_kernel_weights_are_unions(points, lines, k, tol=DEFAULT_TOL):
    """At every candidate radius, the kernel's weight is the union
    weight `line_placement` recomputes for its selection, bit for bit."""
    geos = [line_geometry(points, ly) for ly in lines]
    for lam, _ in radius_groups(candidate_radii_tlines(points, lines, k)):
        weight, chosen = _solve_radii(geos, lines, [lam], k, tol)[0]
        centers = tuple(LineCenter(x, li) for x, li in chosen)
        pl = line_placement(points, lines, max(lam, 0.0), centers, tol)
        assert weight.hex() == pl.total_weight.hex(), (lam, chosen)


def test_kernel_weight_is_union_weight_on_instances():
    for seed in range(24):
        inst = random_instance(seed, 3 + seed % 4, 1 + seed % 3, variant="tlines", t=2 + seed % 2)
        for tol in POLICIES:
            assert_kernel_weights_are_unions(inst.points, inst.lines, inst.k, tol)


def test_kernel_weight_is_union_weight_float_weights():
    # Weights spread over many magnitudes, so that a sum in any other order
    # than point order would round differently.
    for seed in range(24):
        rng = random.Random(seed)
        lines = [0.0, 1.5, 3.0][: rng.choice([2, 3])]
        pts = []
        for i in range(rng.randint(3, 6)):
            w = rng.uniform(0.1, 1.0) * 10.0 ** rng.randint(-8, 8)
            x, y = rng.uniform(-4, 4), rng.choice(lines) + rng.uniform(-2, 2)
            pts.append(B(i, x, y, w) if rng.random() < 0.6 else R(i, x, y, -w))
        assert_kernel_weights_are_unions(pts, lines, rng.choice([1, 2, 3]))


def test_solve_tlines_builds_one_placement(monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(args[2])
        return line_placement(*args, **kw)

    monkeypatch.setattr(sofl.multiline, "line_placement", counted)
    for seed in range(6):
        inst = random_instance(seed, 5, 2, variant="tlines", t=2)
        calls.clear()
        pl = solve_tlines(inst.points, inst.lines, inst.k)
        assert calls == [pl.radius], f"seed {seed}"


def hexed(pairs):
    return [(x.hex(), li) for x, li in pairs]


def kernel_centers(points, lines, lam, k, tol):
    geos = [line_geometry(points, ly) for ly in lines]
    xs, li = reference_tlines_candidates(geos, lines, lam, k, tol, kernel_sides(lam, tol))
    return zip(xs.tolist(), li.tolist())


def test_centers_match_reference_loop():
    # Integer x and heights within 1e-6 of a line make hops land on each
    # other and near each other; the 5e-7 policy (a slack of 2e-6 at
    # |x| = 4) chains such near-duplicates into runs that are not all
    # mutually close.
    policies = POLICIES + (TolerancePolicy(5e-7), TolerancePolicy(1e-6))
    for seed in range(60):
        rng = random.Random(seed)
        lines = sorted(rng.sample(range(6), rng.choice([2, 3])))
        k = rng.choice([1, 2, 3])
        pts = []
        for i in range(rng.randint(1, 5)):
            y = rng.choice(lines) + rng.choice([0.0, 1e-6, -1e-6, 1.0, 2.0])
            w = rng.randint(1, 9)
            x = rng.randint(-4, 4)
            pts.append(B(i, x, y, w) if rng.random() < 0.6 else R(i, x, y, -w))
        for tol in policies:
            for lam in (0.5, 1.0, 1.5, 2.0, 2.5, 1 + 1e-6, 2.0000005):
                got = [(c.x, c.line_index) for c in multiline_centers(pts, lines, lam, k, tol)]
                ref = kernel_centers(pts, lines, lam, k, tol)
                assert hexed(got) == hexed(ref), (seed, tol, lam)


def test_centers_match_reference_loop_on_instances():
    for seed in range(40):
        inst = random_instance(seed, 1 + seed % 7, 1 + seed % 4, variant="tlines", t=1 + seed % 3)
        radii = sorted({c.value for c in candidate_radii_tlines(inst.points, inst.lines, k=inst.k)})
        for lam in [v for v in radii if v > 0][:6] + [1e-10, 3.25]:
            for tol in POLICIES:
                got = multiline_centers(inst.points, inst.lines, lam, inst.k, tol)
                ref = kernel_centers(inst.points, inst.lines, lam, inst.k, tol)
                assert hexed((c.x, c.line_index) for c in got) == hexed(ref), (seed, tol, lam)


@pytest.mark.parametrize(
    "n, k, expect",
    [
        (8, 4, '{"lambda": 9.0625, "weight": 21.0, "centers": [{"x": 2.9375, "line": 0}, '
               '{"x": 19.6562207944, "line": 1}], "covered_blue": [0, 2, 3, 4, 6], '
               '"covered_red": [5]}\n'),
        (12, 3, '{"lambda": 24.920072231, "weight": 34.0, "centers": [{"x": -14.8396859884, '
                '"line": 0}, {"x": 37.9, "line": 1}], "covered_blue": [0, 2, 3, 4, 6, 8, 9, 10], '
                '"covered_red": [11]}\n'),
    ],
)
def test_heavy_tail_instances_pinned(n, k, expect):
    # The two slowest t=2 generator instances of the DFS era; the JSON is
    # what the scalar-check search printed.
    inst = parse_instance(generate(1, n, k, "tlines", t=2))
    pl = solve_tlines(inst.points, inst.lines, inst.k)
    assert emit_result(pl, "json") == expect
    assert pl.radius == {8: 9.0625, 12: 24.920072231034965}[n]


def test_hops_keep_weight_and_count_of_the_two_sided_reference():
    # The kernel's hops, rightward where the band is the default one
    # (`klink.two_sided`), must lose nothing: at every candidate radius the
    # weight and the center count equal those over hops both ways. The
    # policies are those of the kernel tests; the wide instances put points
    # within 1e-6 of a line; t = k = 4 is left out for the superset's size.
    cases = [random_instance(seed, 3 + seed % 4, 1 + seed // 3 % 3, variant="tlines", t=1 + seed % 3)
             for seed in range(45)]
    cases += [parse_instance(wide_tlines_text(seed)) for seed in range(32) if seed % 4 != 3]
    for inst in cases:
        geos = [line_geometry(inst.points, ly) for ly in inst.lines]
        radii = [v for v, _ in radius_groups(candidate_radii_tlines(inst.points, inst.lines, inst.k))]
        for tol in (DEFAULT_TOL, TolerancePolicy(5e-7), TolerancePolicy(1e-4)):
            for lam, (weight, chosen) in zip(radii, _solve_radii(geos, inst.lines, radii, inst.k, tol)):
                ref_weight, ref_chosen = reference_tlines_solve_radius(geos, inst.lines, lam, inst.k, tol)
                assert (weight, len(chosen)) == (ref_weight, len(ref_chosen)), (inst, lam, tol)


@pytest.mark.parametrize("seed", [2, 6, 10, 15, 18, 22, 27, 30])
def test_wide_k4_seeds_match_the_oracle_search(seed):
    # These k = 4 seeds of `golden_tlines_wide.txt` win at lam below
    # 1.1e-6, where the band's absolute floor makes the kernel hop both ways
    # (`klink.two_sided`). `sofl check` stops at its k <= 3 guard here, so
    # the oracle's exhaustive fixed-radius search runs directly, over the
    # oracle's own candidates; centers whose own disk nets nothing are
    # dropped, as `brute_csofl` drops them.
    inst = parse_instance(wide_tlines_text(seed))
    lines = inst.lines
    best = (0.0, 0.0)
    for lam, _ in radius_groups(candidate_radii_tlines(inst.points, lines, inst.k)):
        if lam <= 0:
            continue
        cents = _center_grids(inst.points, lines, np.array([lam]), inst.k, DEFAULT_TOL)[3]
        useful = [c for c in cents
                  if sum(p.weight for p in inst.points if is_covered(p, Disk(*c, lam), DEFAULT_TOL)) > 0]
        res = brute_fixed_radius(inst.points, useful, lam, inst.k, max_centers=len(useful))
        if res.weight > best[0]:
            best = (res.weight, lam)
    pl = solve_tlines(inst.points, lines, inst.k)
    assert (pl.total_weight, pl.radius) == best


def _scaled(points, lines, f):
    """The points and lines with every coordinate times f, a power of two."""
    pts = [(B if p.is_blue else R)(p.id, p.x * f, p.y * f, p.weight) for p in points]
    return pts, [y * f for y in lines]


def _kernel_cases():
    """(points, lines, k) for the chunked kernel: integer x and heights
    within 1e-6 of a line, as in `test_centers_match_reference_loop`, with
    k cycling over 1-4 and the coordinates scaled by 1, 2^20 or 2^-20; then
    two-point instances at 2^-20, where the tolerance band covers the blue
    point from every candidate (at k = 4, 143 searched candidates), points
    out of reach of both lines at small radii, and no points at all. k >= 3
    gets fewer points and lines."""
    for seed in range(36):
        rng = random.Random(seed)
        k = 1 + seed % 4
        lines = sorted(rng.sample(range(6), rng.choice([1, 2] if k > 2 else [1, 2, 3])))
        pts = []
        for i in range(rng.randint(1, 3 if k > 2 else 5)):
            y = rng.choice(lines) + rng.choice([0.0, 1e-6, -1e-6, 1.0, 2.0])
            w = rng.randint(1, 9)
            x = rng.randint(-4, 4)
            pts.append(B(i, x, y, w) if rng.random() < 0.6 else R(i, x, y, -w))
        yield (*_scaled(pts, lines, (1.0, 2.0 ** 20, 2.0 ** -20)[seed % 3]), k)
    yield (*_scaled([B(0, 0, 0, 5), R(1, 2, 1, -3)], [0.0, 1.0], 2.0 ** -20), 3)
    yield (*_scaled([B(0, 0, 3, 8), R(1, 3, 3 + 1e-6, -9)], [3.0, 4.0], 2.0 ** -20), 4)
    yield [B(0, 0, 10), R(1, 3, -9), B(2, 5, 12, 2.5)], [0.0, 1.0], 2
    yield [], [0.0, 1.0], 3


def test_search_equals_exhaustive_enumeration():
    # Random search tables with small integer weights, so weights tie often
    # and counts tie too: `_search`, with its tie and fresh-point prunes,
    # returns the selection_key minimum over every compatible selection of
    # at most k positions (the empty one included).
    ties = 0
    for seed in range(400):
        rng = random.Random(seed)
        n, m, k = rng.randint(1, 5), rng.randint(1, 9), rng.randint(1, 4)
        w = np.array([rng.choice([-3.0, -1.0, 1.0, 2.0]) for _ in range(n)])
        weights = _UnionWeights(w)
        if seed % 2:
            masks = [rng.getrandbits(n) for _ in range(m)]
        else:  # one point each: sums tie exactly and often meet the bound
            masks = [1 << rng.randrange(n) for _ in range(m)]
        gains = [sum(w[i] for i in range(n) if m_ >> i & 1 and w[i] > 0) for m_ in masks]
        compat = [sum(1 << j for j in range(i + 1, m) if rng.random() < 0.6) for i in range(m)]
        keys = sorted((float(rng.randint(-3, 3)), rng.randint(0, 1)) for _ in range(m))
        best, best_ids, seen = selection_key(0.0, []), (), set()
        valid = [(0.0, ())]
        for size in range(1, k + 1):
            for ids in combinations(range(m), size):
                if all(compat[i] >> j & 1 for i, j in combinations(ids, 2)):
                    union = 0
                    for i in ids:
                        union |= masks[i]
                    key = selection_key(weights[union], [keys[i] for i in ids])
                    ties += key[:2] in seen
                    seen.add(key[:2])
                    if key < selection_key(0.0, []):
                        valid.append((weights[union], ids))
                    if key < best:
                        best, best_ids = key, ids
        assert _search(keys, gains, masks, compat, k, weights, (0.0, ())) == (-best[0], best_ids), seed
        # From any compatible selection that beats the empty one: the same
        # weight and center keys (these keys repeat; a kernel row's never do).
        weight, ids = _search(keys, gains, masks, compat, k, weights, rng.choice(valid))
        assert (weight, [keys[i] for i in ids]) == (-best[0], [keys[i] for i in best_ids]), seed
    assert ties > 1000


def test_solve_radii_equals_per_radius_reference(monkeypatch):
    # Every radius list is solved as one chunk, then in chunks of 1 and 7,
    # and compared by repr with the per-radius kernel of `conftest`. The
    # lists hold radii <= 0 and radii where nothing is within reach of any
    # line; the 5e-7 policy (a slack of 2e-6 at |x| = 4) chains hops into
    # runs that are not all mutually close.
    monkeypatch.setattr(placement, "CELLS", 1 << 30)
    for pts, lines, k in _kernel_cases():
        scale = max(abs(y) for y in lines) or 1.0
        for tol in (DEFAULT_TOL, TolerancePolicy(5e-7)):
            radii = [v for v, _ in radius_groups(candidate_radii_tlines(pts, lines, k))]
            radii += [0.0, -1.0, 0.5 * scale, 1e-3 * scale]
            geos = [line_geometry(pts, ly) for ly in lines]
            expect = repr([reference_tlines_solve_radius(geos, lines, v, k, tol, kernel_sides(v, tol))
                           for v in radii])
            assert repr(_solve_radii(geos, lines, radii, k, tol)) == expect, (pts, lines, k, tol)
            for size in (1, 7):
                got = []
                for a in range(0, len(radii), size):
                    got += _solve_radii(geos, lines, radii[a: a + size], k, tol)
                assert repr(got) == expect, (pts, lines, k, tol, size)


def test_first_radii_go_through_one_solve(monkeypatch):
    # solve_tlines solves every first radius in one `_solve_radii` call,
    # then, in one more call, exactly the chain radii that can_win admits.
    calls, admitted = [], []
    solve_radii = sofl.multiline._solve_radii
    loop = sofl.multiline.best_radius

    def counted(geos, lines, lams, *args):
        calls.append(list(lams))
        return solve_radii(geos, lines, lams, *args)

    def spied(groups, solve, can_win):
        def judged(v, best):
            won = can_win(v, best)
            if won:
                admitted.append(v)
            return won
        return loop(groups, solve, judged)

    monkeypatch.setattr(sofl.multiline, "_solve_radii", counted)
    monkeypatch.setattr(sofl.multiline, "best_radius", spied)
    chains = won = 0
    for seed in range(12):
        inst = random_instance(seed, 6, 2 + seed % 2, variant="tlines", t=2)
        calls.clear()
        admitted.clear()
        solve_tlines(inst.points, inst.lines, inst.k)
        groups = radius_groups(candidate_radii_tlines(inst.points, inst.lines, inst.k))
        assert calls[0] == [v for v, first in groups if first], seed
        assert calls[1:] == ([admitted] if admitted else []), seed
        assert set(admitted) <= {v for v, first in groups if not first}, seed
        chains += sum(1 for _, first in groups if not first)
        won += len(admitted)
    assert 0 < won < chains


def _tie_cases():
    """(points, lines) whose selections tie: blues mirrored about x = 0 at
    heights on and between the lines, so that a pair ties its mirror image
    and a single covering two blues ties a pair, with a red at x = 0 in
    half the cases; integer weights, then weights 0.1, 0.2 and 0.3, whose
    sums depend on their order."""
    for seed in range(16):
        rng = random.Random(seed)
        lines = [0.0, 2.0][: 1 + seed % 2]
        pts = []
        for i in range(rng.randint(1, 3)):
            x, y = rng.randint(1, 4), rng.choice(lines) + rng.choice([0.0, 0.5, 1.0])
            w = rng.choice([1.0, 2.0]) if seed < 8 else rng.choice([0.1, 0.2, 0.3])
            pts += [B(2 * i, -x, y, w), B(2 * i + 1, x, y, w)]
        if seed % 4 > 1:
            pts.append(R(len(pts), 0, lines[-1], -1.0))
        yield pts, lines


def _ties_at(points, lines, lam, tol=DEFAULT_TOL):
    """Whether, among the kernel's candidates at lam, the best single ties
    the best compatible pair, and whether two pairs tie at the best pair
    weight; by scalar `union_coverage`."""
    cents = [(c.x, lines[c.line_index]) for c in multiline_centers(points, lines, lam, 2, tol)]
    disks = [Disk(x, y, lam) for x, y in cents]
    ones = [union_coverage([d], points, tol)[0] for d in disks]
    twos = [union_coverage([disks[a], disks[b]], points, tol)[0] for a, b in combinations(range(len(cents)), 2)
            if ones[a] > 0 < ones[b] and centers_compatible(cents[a], cents[b], lam, tol)]
    top = max(twos, default=-math.inf)
    return max(ones, default=0.0) == top > 0, twos.count(top) > 1 and top > 0


def test_array_picks_equal_the_reference_search_on_ties():
    # Budgets of one and two are array maxima per chunk (`_tables`), and
    # k = 3 seeds the DFS with the best single; every radius must equal the
    # per-radius reference kernel by repr, weight bits and chosen centers,
    # also where the band makes radii chain both ways (`klink.two_sided`).
    policies = (DEFAULT_TOL, TolerancePolicy(5e-7), TolerancePolicy(1e-4))
    ties = np.zeros(2, dtype=int)
    for pts, lines in _tie_cases():
        geos = [line_geometry(pts, ly) for ly in lines]
        for k in (1, 2, 3):
            radii = [v for v, _ in radius_groups(candidate_radii_tlines(pts, lines, k))] + [1.5, 2.5]
            for tol in policies:
                got = _solve_radii(geos, lines, radii, k, tol)
                expect = [reference_tlines_solve_radius(geos, lines, v, k, tol, kernel_sides(v, tol))
                          for v in radii]
                assert repr(got) == repr(expect), (pts, lines, k, tol)
            if k == 2:
                ties += np.sum([_ties_at(pts, lines, v) for v in radii if v > 0], axis=0, dtype=int)
    # radii where a single ties the best pair, and where pairs tie
    assert ties.min() > 20, ties


def test_budgets_up_to_two_never_search(monkeypatch):
    # At k <= 2 the DFS does not run: every such t-lines instance of the
    # `tlines` and `small-check` pools solves with `_search` refusing, to
    # the placement it has with `_search` in place.
    cases = [inst for inst in pool_instances("tlines", "tlines", "small-check") if inst.k <= 2]
    expect = [solve_tlines(inst.points, inst.lines, inst.k) for inst in cases]

    def refuse(*args):
        raise AssertionError("the DFS ran at k <= 2")

    monkeypatch.setattr(sofl.multiline, "_search", refuse)
    assert [solve_tlines(inst.points, inst.lines, inst.k) for inst in cases] == expect
    assert len(cases) == 56


def test_budgets_of_two_list_no_pair_table(monkeypatch):
    # At k = 2 with exact weights, not every compatible pair of searched
    # centers is listed (`_compatible`), only those between each center's
    # strict and close cuts: on every such t-lines instance of the `tlines`
    # and `small-check` pools, fewer than a quarter of the compatible pairs
    # the reference enumeration counts, to the same placements.
    cases = [inst for inst in pool_instances("tlines", "tlines", "small-check") if inst.k == 2]
    expect = [solve_tlines(inst.points, inst.lines, inst.k) for inst in cases]
    partners, compatible = sofl.multiline._partners, sofl.multiline._compatible
    count = {"listed": 0, "compatible": 0}

    def counted_partners(geo, lines, lams, xs, row, li, w, cov, tol):
        assert geo.exact
        ys = np.array(lines)[li]
        count["compatible"] += sum(len(i) for i, _ in reference_compatible_pairs(xs, ys, row, lams, tol, 8))
        return partners(geo, lines, lams, xs, row, li, w, cov, tol)

    def counted_compatible(*args):
        for i, j in compatible(*args):
            count["listed"] += len(i)
            yield i, j

    monkeypatch.setattr(sofl.multiline, "_partners", counted_partners)
    monkeypatch.setattr(sofl.multiline, "_compatible", counted_compatible)
    assert [solve_tlines(inst.points, inst.lines, inst.k) for inst in cases] == expect
    assert len(cases) == 24
    assert 0 < 4 * count["listed"] < count["compatible"], count


def _pair_cases():
    """(points, lines) for budgets of two: half-integer x, heights on,
    between and 1e-6 off one to three lines, 70% blue, each scaled by 1,
    2^20 or 2^-20 (where the band's floor makes every radius chain both
    ways); weights 1 or 2, so that pairs tie often, and in every third case
    weights spread over seven magnitudes, whose sums are not exact."""
    for seed in range(60):
        rng = random.Random(seed)
        lines = sorted(rng.sample([0.0, 1.0, 2.0, 4.0], rng.choice([1, 2, 3])))
        pts = []
        for i in range(rng.randint(2, 7)):
            x = rng.randint(-5, 5) + rng.choice([0.0, 0.5])
            y = rng.choice(lines) + rng.choice([0.0, 0.0, 0.5, 1.0, -1.0, 1e-6])
            w = rng.choice([1.0, 2.0]) if seed % 3 else rng.choice([0.1, 0.2, 0.3]) * 10.0 ** rng.randint(-3, 3)
            pts.append(B(i, x, y, w) if rng.random() < 0.7 else R(i, x, y, -w))
        yield _scaled(pts, lines, (1.0, 2.0 ** 20, 2.0 ** -20)[seed // 3 % 3])


def test_budgets_of_two_equal_the_pair_enumeration(monkeypatch):
    # `_solve_radii` at k = 2 against the same kernel with `_tables`
    # replaced by the enumeration of every compatible pair, weighed by its
    # union (`conftest.reference_pair_tables`), by repr: every first and
    # chain radius and two more, under tolerances whose slack makes
    # touching centers compatible and whose band covers points from both
    # disks. Picks of a pair whose union is not the sum of its two disks'
    # weights, and picks where the weights are not exact, must occur.
    policies = (DEFAULT_TOL, TolerancePolicy(5e-7), TolerancePolicy(1e-4))
    shared = inexact = 0
    for pts, lines in _pair_cases():
        geos = [line_geometry(pts, ly) for ly in lines]
        scale = max(abs(y) for y in lines) or 1.0
        radii = [v for v, _ in radius_groups(candidate_radii_tlines(pts, lines, 2))] + [1.5 * scale, 2.5 * scale]
        for tol in policies:
            got = _solve_radii(geos, lines, radii, 2, tol)
            with monkeypatch.context() as mp:
                mp.setattr(sofl.multiline, "_tables", reference_pair_tables)
                expect = _solve_radii(geos, lines, radii, 2, tol)
            assert repr(got) == repr(expect), (pts, lines, tol)
            for lam, (weight, chosen) in zip(radii, got):
                if len(chosen) == 2:
                    alone = [line_placement(pts, lines, lam, (LineCenter(*c),), tol).total_weight for c in chosen]
                    shared += weight != sum(alone)
                    inexact += not geos[0].exact
    assert shared > 20 and inexact > 100, (shared, inexact)


def test_budgets_of_three_equal_the_reference_on_the_pair_cases():
    # At k = 3 the compatibility bitsets come from the same cuts as budgets
    # of two (`_compatible` from lo = 0). On the cases and policies of
    # `test_budgets_of_two_equal_the_pair_enumeration` (weights that are
    # not exact sums, scales where radii chain both ways), `_solve_radii`
    # equals the per-radius reference kernel, whose compatibility table
    # tests every pair, by repr: at every first and chain radius and two
    # more with at most 200 candidates, solved as one list. Wider radii
    # (about a thousand candidates where the 2^-20 cases chain both ways)
    # take the reference DFS seconds each.
    policies = (DEFAULT_TOL, TolerancePolicy(5e-7), TolerancePolicy(1e-4))
    solved = np.zeros(3, dtype=int)  # radii, two-sided radii, radii with inexact weights
    for pts, lines in _pair_cases():
        geos = [line_geometry(pts, ly) for ly in lines]
        scale = max(abs(y) for y in lines) or 1.0
        radii = [v for v, _ in radius_groups(candidate_radii_tlines(pts, lines, 3))] + [1.5 * scale, 2.5 * scale]
        for tol in policies:
            small = [v for v in radii if v <= 0 or len(multiline_centers(pts, lines, v, 3, tol)) <= 200]
            got = _solve_radii(geos, lines, small, 3, tol)
            expect = [reference_tlines_solve_radius(geos, lines, v, 3, tol, kernel_sides(v, tol)) for v in small]
            assert repr(got) == repr(expect), (pts, lines, tol)
            sides = [kernel_sides(v, tol) for v in small]
            solved += [len(small), sum(sides), 0 if geos[0].exact else len(small)]
    assert solved.min() > 500, solved


def test_budgets_of_two_on_touching_centers():
    # The centers of `test_compat_bitsets_touching_pairs`, touching on one
    # line and across lines, nudged just inside and just outside the slack,
    # and at the compatibility thresholds, with points at the centers and at the tangent points, where
    # the band lets both disks cover them; integer and float weights, red
    # tangent points too. The k = 2 tables equal the pair enumeration.
    lam = 5.0
    lines = [0.0, 3.0, 6.0]
    for tol in POLICIES + (TolerancePolicy(5e-7),):
        nudge = max(tol.x_slack(10.0), 1e-12)
        xs = {0: [0.0, 10.0, 10.0 - nudge / 2, 10.0 - 2 * nudge, -10.0]}
        xs[1] = [math.sqrt(91.0), -math.sqrt(91.0), math.sqrt(91.0) - 2 * nudge]
        xs[2] = [8.0, -8.0, 8.0 - nudge / 2, 8.0 - 2 * nudge]
        # At the compatibility thresholds from (0, 0) exactly, and an ulp
        # either side of the one across lines.
        xs[0].append(10.0 - tol.x_slack(10.0))
        at = math.sqrt(100.0 - tol.band(100.0) - 9.0)
        xs[1] += [at, math.nextafter(at, math.inf), math.nextafter(at, -math.inf)]
        centers = [LineCenter(x, li) for li, row in xs.items() for x in row]
        tangents = [(5.0, 0.0), (math.sqrt(91.0) / 2, 1.5), (4.0, 3.0), (-5.0, 0.0), (-4.0, 3.0)]
        for weights in ([1.0, 2.0, 1.0], [0.1, 0.3, 0.7]):
            points = [B(i, c.x, lines[c.line_index], weights[i % 3]) for i, c in enumerate(centers)]
            for x, y in tangents:
                i = len(points)
                points.append(B(i, x, y, weights[i % 3]) if i % 2 else R(i, x, y, -weights[i % 3]))
            geo = _stacked([line_geometry(points, ly) for ly in lines])
            rows = [lam, 4.0, 6.0, lam * (1 + 1e-10)]
            # Then every pair of centers alone in a row at lam: it is picked
            # exactly when it is compatible.
            pairs = list(combinations(centers, 2))
            for lams, cs in ((rows, centers * len(rows)), ([lam] * len(pairs), [c for p in pairs for c in p])):
                size = len(cs) // len(lams)
                ax, li = np.array([c.x for c in cs]), np.array([c.line_index for c in cs])
                row = np.repeat(np.arange(len(lams)), size)
                got = _tables(geo, lines, np.array(lams), ax, row, li, 2, tol)
                expect = reference_pair_tables(geo, lines, np.array(lams), ax, row, li, 2, tol)
                assert got[0].tolist() == expect[0].tolist() and repr(got[1:]) == repr(expect[1:]), (tol, weights)


# --- ROADMAP item 3: chained contacts across lines -------------------------------

# On generate(62, 6, 2, "tlines", t=2), `solve_tlines` and
# `brute_tlines(max_centers=200)` both find weight 16 first at
# 7.236097782030803. These two centers reach it at 6.26, where they touch
# across the two lines (2 * 6.26 apart). That radius comes from a chain of
# contacts across lines, which no candidate generator yields. The witness is
# checked with the scalar predicates alone, so the xfail below can flip only
# once the solver finds a radius this small.
ITEM3_CENTERS = (LineCenter(14.214614887482256, 0), LineCenter(22.91808545961611, 1))


def test_item3_witness_centers_reach_the_weight_below_the_solvers_radius():
    inst = parse_instance(generate(62, 6, 2, "tlines", t=2))
    (ax, al), (bx, bl) = ((c.x, inst.lines[c.line_index]) for c in ITEM3_CENTERS)
    assert centers_compatible((ax, al), (bx, bl), 6.26)
    assert line_placement(inst.points, inst.lines, 6.26, ITEM3_CENTERS).total_weight == 16.0


@pytest.mark.xfail(raises=AssertionError, reason="ROADMAP item 3: no candidate radius for a contact across lines")
def test_item3_witness_solve_tlines_finds_the_smaller_radius():
    inst = parse_instance(generate(62, 6, 2, "tlines", t=2))
    pl = solve_tlines(inst.points, inst.lines, inst.k)
    assert pl.total_weight == 16.0 and pl.radius <= 6.26
