import math
from itertools import combinations

import pytest

from sofl.candidates import candidate_radii_tlines
from sofl.geom import Disk, centers_compatible, is_covered
from sofl.klink import candidate_centers, line_geometry
from sofl.multiline import (
    multiline_centers,
    solve_tlines,
    solve_tlines_fixed_radius,
)
from sofl.oracle import TooLargeError, brute_fixed_radius, brute_tlines
from sofl.solver import solve_csofl
from conftest import B, R, random_instance


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
