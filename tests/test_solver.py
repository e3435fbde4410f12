import dataclasses
import math

import pytest

from sofl.oracle import brute_csofl, brute_special_counts
from sofl.solver import (
    SpecialResult,
    reduce_allblue_minred,
    reduce_maxblue_nored,
    solve_csofl,
    solve_special,
)
from conftest import B, R, increasing_root, random_instance


def test_single_blue():
    pl = solve_csofl([B(0, 0, 1)], 0.0, 1)
    assert pl.radius == 1.0 and pl.total_weight == 1.0
    assert [c.x for c in pl.centers] == [0.0]


def test_all_red_zero():
    pl = solve_csofl([R(0, 1, 1), R(1, 2, 2)], 0.0, 2)
    assert pl.radius == 0.0 and pl.total_weight == 0.0 and pl.centers == ()


def test_two_blue_two_disks():
    pl = solve_csofl([B(0, 0, 1), B(1, 4, 1)], 0.0, 2)
    assert pl.radius == 1.0 and pl.total_weight == 2.0
    assert sorted(c.x for c in pl.centers) == [0.0, 4.0]


def test_weight_never_negative():
    for seed in range(30):
        inst = random_instance(seed, 8, 2, red_fraction=0.8)
        assert solve_csofl(inst.points, 0.0, inst.k).total_weight >= 0.0


def test_oracle_equivalence_batch():
    # the full 200-instance run lives in the acceptance suite
    for seed in range(40):
        inst = random_instance(seed, 2 + seed % 7, 1 + seed % 3)
        pl = solve_csofl(inst.points, 0.0, inst.k)
        ref = brute_csofl(inst.points, 0.0, inst.k)
        assert pl.total_weight == ref.weight
        assert pl.radius == ref.radius
        assert [c.x for c in pl.centers] == [x for x, _ in ref.placements]


def test_scale_invariance_of_argmax():
    for seed in range(10):
        inst = random_instance(seed, 6, 2)
        base = solve_csofl(inst.points, 0.0, 2)
        scaled_pts = [dataclasses.replace(p, weight=3.0 * p.weight) for p in inst.points]
        scaled = solve_csofl(scaled_pts, 0.0, 2)
        assert scaled.radius == base.radius
        assert [c.x for c in scaled.centers] == [c.x for c in base.centers]
        assert scaled.total_weight == pytest.approx(3.0 * base.total_weight)


def _h(lam, y):
    return math.sqrt(lam * lam - y * y)


def test_chain_contact_pins_radius_seed47():
    # One disk at the left end of blue (17,7)'s interval, the next exactly
    # 2*lam to its right with blue (20,5) on its boundary.
    lam = increasing_root(lambda l: 3 + _h(l, 5) + _h(l, 7) - 2 * l, 7.0, 20.0)
    inst = random_instance(47, 7, 2)
    pl = solve_csofl(inst.points, 0.0, 2)
    assert pl.total_weight == 12.0
    assert pl.radius == pytest.approx(lam, rel=1e-12)
    ref = brute_csofl(inst.points, 0.0, 2)
    assert (ref.weight, ref.radius) == (pl.total_weight, pl.radius)


def test_chain_contact_past_standard_radii_seed1480():
    # Weight 12 needs two touching disks holding blues (11,8) and (15,5);
    # they first fit beyond the largest standard radius.
    lam = increasing_root(lambda l: 4 + _h(l, 5) + _h(l, 8) - 2 * l, 8.0, 30.0)
    inst = random_instance(1480, 6, 2)
    pl = solve_csofl(inst.points, 0.0, 2)
    assert pl.total_weight == 12.0
    assert pl.radius == pytest.approx(lam, rel=1e-12)
    ref = brute_csofl(inst.points, 0.0, 2)
    assert (ref.weight, ref.radius) == (pl.total_weight, pl.radius)


def test_chain_gain_lost_before_next_standard_radius():
    # Two touching disks first hold blues 0, 1 and 4 and red 3 at the gain
    # 5.0574; red 2 blocks the chain again at the loss 5.0735, before the
    # next standard radius 6.4031, so that radius cannot stand in for it.
    pts = [B(0, -7, 5, 2), B(1, -8, 4, 1), R(2, 7, 2, -4), R(3, -7, 1, -2), B(4, 5, 4, 1)]
    pl = solve_csofl(pts, 0.0, 2)
    ref = brute_csofl(pts, 0.0, 2)
    assert pl.total_weight == ref.weight == 2.0
    assert pl.radius == ref.radius == pytest.approx(5.057438560245589, rel=1e-12)


# --- reductions --------------------------------------------------------------


def test_reduce_allblue():
    pts = [R(0, 0, 1), R(1, 1, 1), R(2, 2, 1), B(3, 3, 1), B(4, 4, 1)]
    out = reduce_allblue_minred(pts)
    assert [p.weight for p in out] == [-1.0, -1.0, -1.0, 4.0, 4.0]


def test_reduce_allblue_no_red():
    out = reduce_allblue_minred([B(0, 0, 1)])
    assert out[0].weight == 1.0


def test_reduce_maxblue():
    pts = [B(0, 0, 1), B(1, 1, 1), R(2, 2, 1)]
    out = reduce_maxblue_nored(pts)
    assert [p.weight for p in out] == [1.0, 1.0, -3.0]


def test_reduce_maxblue_no_red():
    out = reduce_maxblue_nored([B(0, 0, 1)])
    assert out[0].weight == 1.0


# --- special solves ----------------------------------------------------------


def test_special_maxblue_red_below_blue():
    # any disk reaching the blue strictly contains the red below it
    res = solve_special([B(0, 0, 2), R(1, 0, 1)], 0.0, 1, "maxblue-nored")
    assert res.blue_covered == 0 and res.red_covered == 0


def test_special_maxblue_pair():
    res = solve_special([B(0, -1, 1), B(1, 1, 1)], 0.0, 1, "maxblue-nored")
    assert res.blue_covered == 2 and res.red_covered == 0


def test_special_allblue_example():
    res = solve_special(
        [B(0, -1, 1), B(1, 1, 1), R(2, 0, 2)], 0.0, 1, "allblue-minred"
    )
    assert res.all_blue_covered and res.red_covered == 0
    assert res.placement.radius == pytest.approx(2.0**0.5)


def test_special_never_covers_red_maxblue():
    for seed in range(25):
        inst = random_instance(seed, 8, 1 + seed % 2, variant="maxblue-nored")
        res = solve_special(inst.points, 0.0, inst.k, "maxblue-nored")
        assert res.red_covered == 0
        ref_blue = brute_special_counts(inst.points, 0.0, inst.k, "maxblue-nored")
        assert res.blue_covered == ref_blue


def test_special_allblue_matches_oracle_when_feasible():
    hits = 0
    for seed in range(60):
        inst = random_instance(seed, 7, 1 + seed % 2, variant="allblue-minred")
        feasible, ref_red = brute_special_counts(inst.points, 0.0, inst.k, "allblue-minred")
        res = solve_special(inst.points, 0.0, inst.k, "allblue-minred")
        if feasible:
            assert res.all_blue_covered
            assert res.red_covered == ref_red
            hits += 1
        else:
            assert not res.all_blue_covered
    assert hits >= 20


def test_special_result_shape():
    res = solve_special([B(0, 0, 1)], 0.0, 1, "allblue-minred")
    assert isinstance(res, SpecialResult)
    assert res.all_blue_covered and res.blue_covered == 1
