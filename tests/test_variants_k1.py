import importlib.util
import math
import pathlib
import random

import pytest

from sofl.geom import Disk, Region, TolerancePolicy, center_on_line_through, classify, dist2
from sofl.instance import generate, parse_instance
from sofl.oracle import brute_k1_allblue, brute_k1_maxblue
from sofl.variants_k1 import (
    allblue_minred,
    farthest_breaks,
    maxblue_nored_fast,
    pair_disk,
)
from conftest import (
    B,
    R,
    maxblue_nored_naive,
    pair_red_counts,
    random_instance,
    red_onin_test,
    reference_allblue_minred_details,
    reference_farthest_breaks,
    reference_maxblue_nored_fast,
)


# --- the on-or-inside test ---------------------------------------------------


def test_red_onin_inside():
    assert red_onin_test(B(0, 0, 1), B(1, 2, 1), R(2, 1, 0.5))


def test_red_onin_outside():
    assert not red_onin_test(B(0, 0, 1), B(1, 2, 1), R(2, 1, 5))


def test_red_onin_boundary_counts():
    # r coincides with q, so it lies on the circle
    assert red_onin_test(B(0, 0, 1), B(1, 2, 1), R(2, 2, 1))


def test_red_onin_agrees_with_distance():
    rng = random.Random(99)
    agree = 0
    total = 100_000
    for _ in range(total):
        p = B(0, rng.uniform(-20, 20), rng.uniform(0.1, 10))
        q = B(1, rng.uniform(-20, 20), rng.uniform(0.1, 10))
        r = R(2, rng.uniform(-20, 20), rng.uniform(0.1, 10))
        if p.x == q.x or p.x == r.x:
            continue
        res = center_on_line_through(p, q, 0.0)
        if res is None:
            continue
        cx, rad = res
        direct = dist2(r.x, r.y, cx, 0.0) <= rad * rad
        assert red_onin_test(p, q, r) == direct
        agree += 1
    assert agree > 0.99 * total


def test_pair_red_counts_match_direct():
    for seed in range(20):
        inst = random_instance(seed, 9, 1)
        blues = [p for p in inst.points if p.is_blue]
        reds = [p for p in inst.points if not p.is_blue]
        counts = pair_red_counts(inst.points)
        for (pid, qid), c in counts.items():
            p = inst.points[pid]
            q = inst.points[qid]
            res = center_on_line_through(p, q, 0.0)
            assert res is not None
            cx, rad = res
            direct = sum(
                1 for r in reds if dist2(r.x, r.y, cx, 0.0) <= rad * rad * (1 + 1e-12)
            )
            assert c.n1 + c.n2 == direct


# --- max blue, no red --------------------------------------------------------


def test_maxblue_two_blues():
    out = maxblue_nored_naive([B(0, -1, 1), B(1, 1, 1)])
    assert out == (0.0, pytest.approx(math.sqrt(2)), 2)


def test_maxblue_infeasible():
    assert maxblue_nored_naive([B(0, 0, 2), R(1, 0, 1)]) is None
    assert maxblue_nored_fast([B(0, 0, 2), R(1, 0, 1)]) is None


def test_maxblue_single_blue_vertical():
    out = maxblue_nored_naive([B(0, 0, 1)])
    assert out == (0.0, 1.0, 1)


def test_maxblue_boundary_red_allowed():
    # red on the candidate boundary does not block feasibility
    pts = [B(0, 0, 2), R(1, 0.5, 1)]
    naive = maxblue_nored_naive(pts)
    fast = maxblue_nored_fast(pts)
    assert naive is not None and naive == fast
    cx, rad, count = naive
    assert count == 1
    assert classify(pts[1], Disk(cx, 0.0, rad)) is not Region.INSIDE


def test_fast_equals_naive_and_oracle():
    for seed in range(120):
        inst = random_instance(seed, 2 + seed % 11, 1, red_fraction=0.45)
        naive = maxblue_nored_naive(inst.points)
        fast = maxblue_nored_fast(inst.points)
        ref = brute_k1_maxblue(inst.points)
        assert naive == fast == ref, f"seed {seed}"


def test_fast_equals_naive_cocircular():
    # all three points on one circle centered on the line, integer coords
    pts = [B(0, 3, 4), B(1, -3, 4), R(2, 0, 5)]
    assert maxblue_nored_naive(pts) == maxblue_nored_fast(pts)


# --- farthest owner map --------------------------------------------------------


def test_breaks_symmetric_pair():
    fb = farthest_breaks([B(0, -1, 1), B(1, 1, 1)])
    assert len(fb.breaks) == 1
    x, owner = fb.breaks[0]
    assert x == pytest.approx(0.0)
    assert {fb.first_owner, owner} == {0, 1}


def test_breaks_single_blue():
    fb = farthest_breaks([B(0, 5, 2)])
    assert fb.breaks == () and fb.first_owner == 0


def test_breaks_match_grid_owner_scan():
    blues = [B(0, -2, 1), B(1, 0, 3), B(2, 2, 1)]
    fb = farthest_breaks(blues)

    def owner_at(x):
        return max(blues, key=lambda b: (dist2(x, 0, b.x, b.y), -b.id)).id

    xs = [x for x, _ in fb.breaks]
    for i, (lo, hi) in enumerate(zip([-50.0] + xs, xs + [50.0])):
        mid = (lo + hi) / 2
        expected = fb.first_owner if i == 0 else fb.breaks[i - 1][1]
        assert owner_at(mid) == expected


def test_breaks_adjacent_owners_equidistant():
    for seed in range(25):
        inst = random_instance(seed, 8, 1, red_fraction=0.2)
        blues = [p for p in inst.points if p.is_blue]
        if not blues:
            continue
        fb = farthest_breaks(blues)
        by_id = {b.id: b for b in blues}
        prev = fb.first_owner
        for x, owner in fb.breaks:
            a, b = by_id[prev], by_id[owner]
            assert dist2(x, 0, a.x, a.y) == pytest.approx(dist2(x, 0, b.x, b.y), abs=1e-6)
            prev = owner


# --- all blue, min red ---------------------------------------------------------


def test_allblue_red_avoidable():
    out = allblue_minred([B(0, -1, 1), B(1, 1, 1), R(2, 0, 2)])
    assert out[0] == pytest.approx(0.0)
    assert out[1] == pytest.approx(math.sqrt(2))
    assert out[2] == 0


def test_allblue_single_blue_far_reds():
    pts = [B(0, 0, 1), R(1, 10, 1), R(2, -10, 1)]
    out = allblue_minred(pts)
    assert out == (0.0, 1.0, 0)


def test_allblue_red_unavoidable():
    out = allblue_minred([B(0, -1, 1), B(1, 1, 1), R(2, 0, 0.5)])
    assert out[2] == 1


def test_allblue_covers_all_blue_and_matches_oracle():
    for seed in range(120):
        inst = random_instance(seed, 2 + seed % 9, 1, red_fraction=0.5)
        blues = [p for p in inst.points if p.is_blue]
        if not blues:
            continue
        cx, rad, count = allblue_minred(inst.points)
        d = Disk(cx, 0.0, rad)
        assert all(classify(b, d) is not Region.OUTSIDE for b in blues)
        ref = brute_k1_allblue(inst.points)
        assert count == ref[2], f"seed {seed}"


def test_allblue_beats_every_bisector_candidate():
    for seed in range(40):
        inst = random_instance(seed, 8, 1, red_fraction=0.5)
        pts = inst.points
        blues = [p for p in pts if p.is_blue]
        reds = [p for p in pts if not p.is_blue]
        if not blues:
            continue
        _, _, count = allblue_minred(pts)
        xs = []
        for i, p in enumerate(blues):
            for q in blues[i + 1:]:
                try:
                    res = center_on_line_through(p, q, 0.0)
                except ValueError:
                    continue
                if res:
                    xs.append(res[0])
            for r in reds:
                try:
                    res = center_on_line_through(p, r, 0.0)
                except ValueError:
                    continue
                if res:
                    xs.append(res[0])
        for x in xs:
            r2 = max(dist2(x, 0, b.x, b.y) for b in blues)
            d = Disk(x, 0.0, math.sqrt(r2))
            cand = sum(1 for r in reds if classify(r, d) is Region.INSIDE)
            assert count <= cand


def test_allblue_details_reports_fvd_gap():
    # two far blues pin a single breakpoint; two reds craft a dip between
    # their crossings with the right-hand owner, away from every breakpoint
    pts = [
        B(0, 0, 1),
        B(1, 4, 1),
        R(2, -0.1, 0.6245),  # inside left of x=3, crossing near 3
        R(3, 3, 5.2915),     # inside right of x=6, crossing near 6
    ]
    details = reference_allblue_minred_details(pts)
    assert details.best == allblue_minred(pts)
    assert details.best[2] <= (details.fvd_only[2] if details.fvd_only else 99)


def test_allblue_findings_script(capsys):
    # The script computes the breakpoint-only answer on its own; on the
    # first 40 seeds it finds six instances, and the solver repairs each.
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "allblue_findings.py"
    spec = importlib.util.spec_from_file_location("allblue_findings", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(40) == 6
    found = [line for line in capsys.readouterr().out.splitlines() if line.startswith("seed ")]
    assert [int(line.split()[1].rstrip(":")) for line in found] == [3, 17, 19, 22, 30, 32]
    assert all(line.endswith("; repaired)") for line in found)


def test_pair_disk_canonical_anchor():
    pc = pair_disk(R(3, 1, 2), B(1, 0, 1))
    assert pc.p_id == 1 and pc.q_id == 3
    # radius measured from the lower-id point
    assert pc.radius == math.sqrt(dist2(pc.center_x, 0, 0, 1))


# --- the numpy kernels against their scalar references ------------------------


def _adversarial_rows(seed):
    """(x, y, is_blue) rows of one adversarial k = 1 instance: a dense
    integer grid full of coincident points, reds straight above blues,
    blues in equal-x pairs, a single blue among reds, or a wide grid whose
    farthest map has more probes than one block."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind in (0, 4):
        span = rng.randint(2, 5) if kind == 0 else 40
        text = generate(seed, rng.randint(1, 60), 1, "maxblue-nored",
                        red_fraction=rng.choice((0.2, 0.5, 0.8)), coord_range=span)
        return [(p.x, p.y, p.is_blue) for p in parse_instance(text).points]
    blues = [(float(rng.randint(0, 6)), float(rng.randint(1, 4)))
             for _ in range(1 if kind == 3 else rng.randint(2, 12))]
    if kind == 2:
        blues += [(x, float(rng.randint(1, 4))) for x, _ in blues]
    reds = [(x, y + rng.choice((0.5, 1.0, 2.0))) for x, y in blues if rng.random() < 0.6]
    reds += [(float(rng.randint(0, 6)), float(rng.randint(1, 4)))
             for _ in range(rng.randint(0, 8))]
    rows = [(x, y, True) for x, y in blues] + [(x, y, False) for x, y in reds]
    rng.shuffle(rows)
    return rows


def _copies(rows):
    """The instance, mirrored, translated and scaled by 2^20 and 2^-20."""
    for fx, fy in ((lambda x: x, lambda y: y),
                   (lambda x: -x, lambda y: y),
                   (lambda x: x + 0.1, lambda y: y),
                   (lambda x: x * 2.0**20, lambda y: y * 2.0**20),
                   (lambda x: x * 2.0**-20, lambda y: y * 2.0**-20)):
        yield [(B if blue else R)(i, fx(x), fy(y)) for i, (x, y, blue) in enumerate(rows)]


def _same(got, ref):
    return got == ref and repr(got) == repr(ref)


def test_kernels_equal_scalar_references():
    # The kernels must return the scalar loops' tuples bit for bit and as
    # Python floats and ints, which `sofl check` prints with repr. At eps = 0
    # the integer grids put points exactly on candidate boundaries and
    # crossings exactly on the lookup keys.
    # Mirrored, the circle of radius 5 about x = 0 through (0, 5) and (3, 4)
    # is both an anchor's own candidate at x = -0.0 and a pair's at 0.0.
    cocircular = [[(0.0, 5.0, True), (3.0, 4.0, True)],
                  [(0.0, 5.0, True), (3.0, 4.0, True), (-4.0, 3.0, False), (4.0, 3.0, True)]]
    for seed, rows in enumerate(cocircular + [_adversarial_rows(s) for s in range(60)]):
        for c, pts in enumerate(_copies(rows)):
            tol = TolerancePolicy((1e-9, 0.0)[(seed + c) % 2])
            got, ref = maxblue_nored_fast(pts, tol), reference_maxblue_nored_fast(pts, tol)
            assert _same(got, ref), (seed, c)
            blues = [p for p in pts if p.is_blue]
            if not blues:
                continue
            got, ref = farthest_breaks(blues, tol), reference_farthest_breaks(blues, tol)
            assert _same(got, ref), (seed, c)
            got = allblue_minred(pts, tol)
            assert _same(got, reference_allblue_minred_details(pts, tol).best), (seed, c)
