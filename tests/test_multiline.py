import math
import random
from itertools import combinations

import numpy as np
import pytest

from sofl.candidates import candidate_radii_tlines, radius_groups
from sofl.geom import DEFAULT_TOL, Disk, TolerancePolicy, centers_compatible, is_covered
from sofl.instance import emit_result, generate, parse_instance
from sofl.klink import candidate_centers, line_geometry
import sofl.multiline
from sofl.multiline import (
    _compat_table,
    _coverage_table,
    _solve_radius,
    multiline_centers,
    solve_tlines,
    solve_tlines_fixed_radius,
)
from sofl.oracle import TooLargeError, brute_fixed_radius, brute_tlines
from sofl.placement import LineCenter, line_placement
from sofl.solver import solve_csofl
from conftest import B, R, random_instance, reference_multiline_centers

# 1e-4 gives a slack of 1e-3 at |x| = 10, the middle of the generator's coordinates.
POLICIES = (DEFAULT_TOL, TolerancePolicy(1e-4), TolerancePolicy(0.0))


def test_centers_single_line_match_klink():
    pts = [B(0, 1, 1), R(1, 4, 2, -2.0)]
    lam, k = 1.5, 2
    ml = multiline_centers(pts, [0.0], lam, k)
    _, xs = candidate_centers(line_geometry(pts, 0.0), lam, k)
    assert [c.line_index for c in ml] == [0] * len(ml)
    assert [c.x for c in ml] == pytest.approx(xs.tolist())


def test_cross_line_hops():
    # endpoint at x=0 on line 0; second line at dy=1 with lam=1 gives
    # cross candidates at +-sqrt(3)
    pts = [B(0, 0, 1)]
    ml = multiline_centers(pts, [0.0, 1.0], 1.0, 2)
    on_line1 = sorted(c.x for c in ml if c.line_index == 1)
    assert any(abs(x - math.sqrt(3)) < 1e-9 for x in on_line1)
    assert any(abs(x + math.sqrt(3)) < 1e-9 for x in on_line1)


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


def assert_tables_match_scalar(points, lines, lam, centers, tol):
    """The search tables against `is_covered` and `centers_compatible`,
    pair by pair; returns the searched indices and the compatibility rows."""
    geos = [line_geometry(points, ly) for ly in lines]
    xs = np.array([c.x for c in centers])
    li = np.array([c.line_index for c in centers])
    order, _, masks = _coverage_table(geos, xs, li, lam, tol)
    cx, cy = xs[order], np.array(lines)[li[order]]
    compat = _compat_table(cx, cy, lam, tol)
    xy = [(centers[i].x, lines[centers[i].line_index]) for i in order]
    assert xy == list(zip(cx.tolist(), cy.tolist()))
    for a, (ax, ay) in enumerate(xy):
        cov = [is_covered(p, Disk(ax, ay, lam), tol) for p in points]
        assert masks[a] == sum(1 << i for i, hit in enumerate(cov) if hit)
        row = [bool(compat[a] >> b & 1) for b in range(len(xy))]
        expect = [centers_compatible(xy[a], q, lam, tol) for q in xy]
        assert row[:a] + row[a + 1 :] == expect[:a] + expect[a + 1 :], (a, tol)
    return order.tolist(), compat


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
        order, compat = assert_tables_match_scalar(points, lines, lam, centers, tol)
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
                assert_tables_match_scalar(inst.points, inst.lines, lam, cents, tol)


def assert_kernel_weights_are_unions(points, lines, k, tol=DEFAULT_TOL):
    """At every candidate radius, `_solve_radius`'s weight is the union
    weight `line_placement` recomputes for its selection, bit for bit."""
    geos = [line_geometry(points, ly) for ly in lines]
    for lam, _ in radius_groups(candidate_radii_tlines(points, lines, tol, k)):
        weight, chosen = _solve_radius(geos, lines, lam, k, tol)
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
                ref = reference_multiline_centers(pts, lines, lam, k, tol)
                assert hexed(got) == hexed(ref), (seed, tol, lam)


def test_centers_match_reference_loop_on_instances():
    for seed in range(40):
        inst = random_instance(seed, 1 + seed % 7, 1 + seed % 4, variant="tlines", t=1 + seed % 3)
        radii = sorted({c.value for c in candidate_radii_tlines(inst.points, inst.lines, k=inst.k)})
        for lam in [v for v in radii if v > 0][:6] + [1e-10, 3.25]:
            for tol in POLICIES:
                got = multiline_centers(inst.points, inst.lines, lam, inst.k, tol)
                ref = reference_multiline_centers(inst.points, inst.lines, lam, inst.k, tol)
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
