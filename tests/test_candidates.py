import dataclasses
import math

import pytest

from sofl import candidates
from sofl.candidates import (
    KIND_BLUE,
    KIND_BLUE_RED,
    KIND_CHAIN,
    KIND_POINT_SITE,
    KIND_ZERO,
    MERGE_EPS,
    candidate_radii_discrete,
    candidate_radii_line,
    candidate_radii_tlines,
    line_contacts,
)
from sofl.geom import Disk, Region, classify
from conftest import B, R, increasing_root, random_instance


def values(cands):
    return [c.value for c in cands]


def test_two_blues():
    cands = candidate_radii_line([B(0, 0, 1), B(1, 2, 1)])
    assert values(cands) == pytest.approx([0.0, 1.0, math.sqrt(2)])


def test_all_red_only_zero():
    cands = candidate_radii_line([R(0, 0, 1), R(1, 5, 2)])
    assert values(cands) == [0.0]
    assert cands[0].kind == KIND_ZERO


def test_blue_red_pair():
    cands = candidate_radii_line([B(0, 0, 1), R(1, 1, 2)])
    assert values(cands) == pytest.approx([0.0, 1.0, math.sqrt(5)])
    assert [c.kind for c in cands] == [KIND_ZERO, KIND_BLUE, KIND_BLUE_RED]


def test_empty_input():
    assert values(candidate_radii_line([])) == [0.0]


def test_duplicate_radii_merged():
    cands = candidate_radii_line([B(0, 0, 1), B(1, 10, 1)])
    assert values(cands).count(1.0) == 1


def test_counting_bound():
    for seed in range(25):
        inst = random_instance(seed, 8, 1)
        nb = sum(1 for p in inst.points if p.is_blue)
        nr = len(inst.points) - nb
        cands = candidate_radii_line(inst.points)
        assert len(cands) <= 1 + nb + nb * (nb - 1) // 2 + nb * nr


def test_witness_property():
    for seed in range(20):
        inst = random_instance(seed, 7, 1)
        by_id = {p.id: p for p in inst.points}
        for c in candidate_radii_line(inst.points):
            if c.kind == KIND_ZERO:
                continue
            if c.kind == KIND_BLUE:
                p = by_id[c.ids[0]]
                d = Disk(p.x, 0.0, c.value)
                assert classify(p, d) is Region.ON_BOUNDARY
            else:
                p, q = (by_id[i] for i in c.ids)
                # the disk of this radius centered where the pair is equidistant
                # has both points on its boundary
                from sofl.geom import center_on_line_through

                cx, r = center_on_line_through(p, q, 0.0)
                assert r == c.value
                d = Disk(cx, 0.0, r)
                assert classify(p, d) is Region.ON_BOUNDARY
                assert classify(q, d) is Region.ON_BOUNDARY


def test_tlines_single_line_matches_line():
    pts = [B(0, 1, 2), R(1, 4, 1), B(2, 6, 3)]
    one = candidate_radii_line(pts, 0.0)
    t = candidate_radii_tlines(pts, [0.0])
    assert values(t) == values(one)
    assert [c.kind for c in t] == [c.kind for c in one]


def test_tlines_height_per_line():
    cands = candidate_radii_tlines([B(0, 0, 1)], [0.0, 2.0])
    assert values(cands) == pytest.approx([0.0, 1.0, 1.0])
    assert [c.line_index for c in cands] == [None, 0, 1]


def test_tlines_vertical_pair_no_center():
    cands = candidate_radii_tlines([B(0, 0, 3), R(1, 0, 1)], [0.0])
    assert values(cands) == pytest.approx([0.0, 3.0])


def test_tlines_point_on_line_merges_into_zero():
    cands = candidate_radii_tlines([B(0, 5, 0)], [0.0])
    assert values(cands) == [0.0]


def test_discrete_single():
    cands = candidate_radii_discrete([B(0, 0, 1)], [(0.0, 0.0)])
    assert values(cands) == [0.0, 1.0]
    assert cands[1].kind == KIND_POINT_SITE


def test_discrete_pairwise_distances():
    pts = [B(0, 0, 1), R(1, 3, 0)]
    sites = [(0.0, 0.0), (4.0, 0.0)]
    cands = candidate_radii_discrete(pts, sites)
    assert values(cands) == pytest.approx([0.0, 1.0, 3.0, math.sqrt(17)])


def test_discrete_empty_points():
    assert values(candidate_radii_discrete([], [(0.0, 0.0)])) == [0.0]


def test_sorted_and_unique():
    for seed in range(10):
        inst = random_instance(seed, 8, 1)
        vals = values(candidate_radii_line(inst.points))
        assert vals == sorted(vals)
        assert all(b - a > 1e-9 for a, b in zip(vals, vals[1:]))


def test_chain_gain_far_past_standard_radii():
    # Two touching disks hold (0,10) and (1,10) from the outside once
    # 1 + 2*sqrt(lam^2 - 100) = 2*lam, far past the pair radius ~10.0125.
    lam = increasing_root(lambda l: 1.0 + 2.0 * math.sqrt(l * l - 100.0) - 2.0 * l, 10.0, 1000.0)
    pts = [B(0, 0, 10), B(1, 1, 10)]
    chain = [c for c in candidate_radii_line(pts, k=2) if c.kind == KIND_CHAIN]
    assert [c.ids for c in chain] == [(0, 1, 1)]
    assert chain[0].value == pytest.approx(lam, rel=1e-12)
    assert lam == pytest.approx(100.25, rel=1e-12)
    assert values(candidate_radii_line(pts)) == values(candidate_radii_line(pts, k=2))[:-1]


def test_contacts_empty_for_one_disk():
    inst = random_instance(5, 8, 1)
    assert line_contacts(inst.points, 0.0, 1) == ([], [])


def test_red_pair_losses():
    # Reds at (0,3) and (10,3): one disk fits between them until
    # 10 - 2h = 0 (lam = sqrt(34)), two touching disks until 10 - 2h = 2*lam
    # (lam = 3.4); neither contact is ever a gain.
    gains, losses = line_contacts([R(0, 0, 3), R(1, 10, 3)], 0.0, 2)
    assert gains == []
    assert losses == pytest.approx([3.4, math.sqrt(34.0)], rel=1e-12)


def test_chain_gains_are_contacts():
    # At each gain a run of m+1 touching disks exactly spans L_a .. R_b, and
    # the slack R_b - L_a - 2*m*lam grows through zero there.
    def slack(a, b, m, lam):
        ha = math.sqrt(max(0.0, lam * lam - a.y * a.y))
        hb = math.sqrt(max(0.0, lam * lam - b.y * b.y))
        left = a.x - ha if a.is_blue else a.x + ha
        right = b.x + hb if b.is_blue else b.x - hb
        return right - left - 2 * m * lam

    checked = 0
    for seed in range(20):
        inst = random_instance(seed, 7, 3)
        by_id = {p.id: p for p in inst.points}
        gains, losses = line_contacts(inst.points, 0.0, 3)
        assert losses == sorted(losses)
        for g in gains:
            a, b, m = by_id[g.ids[0]], by_id[g.ids[1]], g.ids[2]
            assert 1 <= m <= 2
            assert slack(a, b, m, g.value) == pytest.approx(0.0, abs=1e-8 * g.value)
            assert slack(a, b, m, g.value * (1 + 1e-6)) > slack(a, b, m, g.value * (1 - 1e-6))
            checked += 1
    assert checked >= 20


def _shared_pass_cases():
    """(points, lines, k) of seeded t-lines instances, t 1-3 and k 1-3,
    each also with a blue on its first line and with a red stacked
    vertically over its first point."""
    for seed in range(36):
        t, k = 1 + seed % 3, 1 + seed // 3 % 3
        inst = random_instance(700 + seed, 4 + seed % 4, k, "tlines", t=t)
        p = inst.points[0]
        yield inst.points, inst.lines, k
        yield [*inst.points, B(90, p.x + 1.5, inst.lines[0], 2.0)], inst.lines, k
        yield [*inst.points, R(91, p.x, p.y + 2.5)], inst.lines, k


def test_one_contacts_pass_equals_a_pass_per_line():
    # One `_contacts` pass over all lines gives each line the repr of a
    # `line_contacts` call for that line alone, and `candidate_radii_tlines`
    # the radii it gave when each line made its own call.
    cases = gains = 0
    for points, lines, k in _shared_pass_cases():
        candidates._contacts.cache_clear()
        shared = candidates._contacts(candidates._points_key(points), tuple(lines), k)
        radii = candidate_radii_tlines(points, lines, k)
        candidates._contacts.cache_clear()
        ref = [candidates.CandidateRadius(0.0, KIND_ZERO)]
        for li, ly in enumerate(lines):
            own = line_contacts(points, ly, k)
            assert repr(tuple(map(list, shared[li]))) == repr(own), (points, lines, k, li)
            tagged = [dataclasses.replace(g, line_index=li) for g in own[0]]
            std = candidates._sorted_unique(candidates._line_entries(points, ly, li))
            ref += [e for e in candidates.with_gains(std, tagged) if e.value > MERGE_EPS]
            gains += len(own[0])
        assert repr(radii) == repr(sorted(ref, key=candidates._entry_key)), (points, lines, k)
        cases += 1
    assert cases == 108 and gains > 100, gains
