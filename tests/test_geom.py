import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sofl.candidates import MERGE_EPS
from sofl.geom import (
    Color,
    ColoredPoint,
    DegenerateInputError,
    Disk,
    Region,
    TolerancePolicy,
    center_on_line_through,
    classify,
    disk_weight,
    dist2,
    is_covered,
    merge_keep,
)
from conftest import B, R

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
height = st.floats(min_value=0.01, max_value=100, allow_nan=False, allow_infinity=False)


def test_classify_boundary():
    assert classify(B(0, 0, 1), Disk(0, 0, 1)) is Region.ON_BOUNDARY


def test_classify_inside():
    assert classify(B(0, 0, 0.5), Disk(0, 0, 1)) is Region.INSIDE


def test_classify_outside():
    assert classify(B(0, 3, 0), Disk(0, 0, 1)) is Region.OUTSIDE


def test_blue_boundary_covered():
    assert is_covered(B(0, 0, 1), Disk(0, 0, 1))


def test_red_boundary_not_covered():
    assert not is_covered(R(0, 0, 1), Disk(0, 0, 1))


def test_red_interior_covered():
    assert is_covered(R(0, 0, 0.5), Disk(0, 0, 1))


def test_disk_weight_mixed():
    pts = [B(0, 0, 0.5, 3.0), R(1, 0.2, 0.2, -1.0)]
    assert disk_weight(Disk(0, 0, 1), pts) == 2.0


def test_disk_weight_boundary_red_excluded():
    assert disk_weight(Disk(0, 0, 1), [R(0, 0, 1, -5.0)]) == 0.0


def test_disk_weight_zero_radius():
    assert disk_weight(Disk(0, 0, 0), [B(0, 1, 1), R(1, 0.5, 0.5)]) == 0.0
    # a blue exactly at the center still counts
    assert disk_weight(Disk(2, 0, 0), [B(0, 2, 0)]) == 1.0


def test_center_horizontal_pair():
    cx, r = center_on_line_through(B(0, 0, 1), B(1, 2, 1), 0.0)
    assert cx == pytest.approx(1.0)
    assert r == pytest.approx(math.sqrt(2))
    assert math.isclose(dist2(cx, 0, 0, 1), dist2(cx, 0, 2, 1))


def test_center_skew_pair():
    cx, r = center_on_line_through(B(0, 0, 1), B(1, 1, 2), 0.0)
    assert cx == pytest.approx(2.0)
    assert r == pytest.approx(math.sqrt(5))
    assert math.isclose(dist2(cx, 0, 0, 1), dist2(cx, 0, 1, 2))


def test_center_vertical_pair_none():
    assert center_on_line_through(B(0, 0, 1), B(1, 0, 2), 0.0) is None


def test_center_mirrored_pair_none():
    assert center_on_line_through((0.0, 1.0), (0.0, -1.0), 0.0) is None


def test_center_coincident_raises():
    with pytest.raises(DegenerateInputError):
        center_on_line_through((1.0, 1.0), (1.0, 1.0), 0.0)


def test_center_equidistance_bulk():
    rng = random.Random(20240811)
    for _ in range(1000):
        p = (rng.uniform(-50, 50), rng.uniform(0.1, 30))
        q = (rng.uniform(-50, 50), rng.uniform(0.1, 30))
        line_y = rng.uniform(-5, 5)
        if p[0] == q[0]:
            continue
        cx, r = center_on_line_through(p, q, line_y)
        dp = math.sqrt(dist2(cx, line_y, *p))
        dq = math.sqrt(dist2(cx, line_y, *q))
        assert abs(dp - dq) <= 1e-9 * max(1.0, r)


def test_tolerance_modes():
    tol = TolerancePolicy(1e-6)
    assert tol.band(1e9) == pytest.approx(1e3)
    assert tol.band(0.5) == tol.x_slack(-0.5) == 1e-6
    assert tol.x_slack(-1e3) == pytest.approx(1e-3)
    for eps in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TolerancePolicy(eps)


def scalar_keep(xs, close) -> list[bool]:
    """The sequential merge, one value at a time: drop a value close to the
    last kept one."""
    keep, last = [], None
    for x in xs:
        keep.append(last is None or not close(x, last))
        if keep[-1]:
            last = x
    return keep


def near_runs(rng, slack) -> list[float]:
    """Ascending values in runs whose steps are a fraction of the slack, or
    zero (an exact tie), so a run can span several slacks."""
    x = rng.choice([1e-3, 1.0, 1e3]) * rng.uniform(-50, 50)
    xs = []
    for _ in range(rng.randint(2, 40)):
        if rng.random() < 0.2:
            x += rng.uniform(1, 5) * slack(x) * 10
        else:
            x += rng.choice([0.0, 0.3, 0.5, 0.9, 1.0, 1.1]) * slack(x)
        xs.append(x)
    return xs


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 0.0])
def test_merge_keep_equals_scalar_loop_tolerance(eps):
    tol = TolerancePolicy(eps)
    rng = random.Random(eps)

    def close(v, last):  # the scalar tolerance test of two values
        return abs(v - last) <= tol.x_slack(max(abs(v), abs(last)))

    for _ in range(300):
        xs = near_runs(rng, lambda x: tol.x_slack(x) or 1e-9)
        got = merge_keep(np.array(xs), tol.x_slacks(np.array(xs)))
        assert got.tolist() == scalar_keep(xs, close), xs


def test_merge_keep_equals_scalar_loop_radii():
    rng = random.Random(5)
    for _ in range(300):
        xs = [abs(x) for x in near_runs(rng, lambda x: MERGE_EPS)]
        xs.sort()
        got = merge_keep(np.array(xs), np.full(len(xs), MERGE_EPS))
        assert got.tolist() == scalar_keep(xs, lambda v, last: v - last <= MERGE_EPS), xs


def test_merge_keep_short_inputs():
    assert merge_keep(np.zeros(0), np.zeros(0)).tolist() == []
    assert merge_keep(np.array([2.0]), np.array([1.0])).tolist() == [True]
    assert merge_keep(np.array([2.0, 2.0]), np.zeros(2)).tolist() == [True, False]


def test_point_weight_signs_enforced():
    with pytest.raises(ValueError):
        ColoredPoint(0, 0, 1, Color.BLUE, -2.0)
    with pytest.raises(ValueError):
        ColoredPoint(0, 0, 1, Color.RED, 2.0)


@given(coord, height, coord, st.floats(min_value=0, max_value=50))
@settings(deadline=None, max_examples=200)
def test_coverage_asymmetry_on_boundary(px, py, cx, extra):
    # any point at exact distance r from the center: blue in, red out
    r = math.sqrt(dist2(px, py, cx, 0.0))
    d = Disk(cx, 0.0, r)
    assert is_covered(B(0, px, py), d)
    assert not is_covered(R(0, px, py), d)


@given(coord, height, coord, st.floats(min_value=0, max_value=10),
       st.floats(min_value=0, max_value=10))
@settings(deadline=None, max_examples=200)
def test_classify_monotone_in_radius(px, py, cx, r, dr):
    before = classify(B(0, px, py), Disk(cx, 0.0, r))
    after = classify(B(0, px, py), Disk(cx, 0.0, r + dr))
    rank = {Region.OUTSIDE: 0, Region.ON_BOUNDARY: 1, Region.INSIDE: 2}
    assert rank[after] >= rank[before] or after is Region.ON_BOUNDARY


@given(st.integers(0, 2**30))
@settings(deadline=None, max_examples=100)
def test_disk_weight_additive_over_disjoint(seed):
    rng = random.Random(seed)
    pts = []
    for i in range(rng.randint(0, 12)):
        if rng.random() < 0.5:
            pts.append(B(i, rng.uniform(-5, 5), rng.uniform(0.1, 5), rng.uniform(0.1, 9)))
        else:
            pts.append(R(i, rng.uniform(-5, 5), rng.uniform(0.1, 5), -rng.uniform(0.1, 9)))
    cut = rng.randint(0, len(pts))
    d = Disk(rng.uniform(-5, 5), 0.0, rng.uniform(0, 6))
    assert disk_weight(d, pts) == pytest.approx(
        disk_weight(d, pts[:cut]) + disk_weight(d, pts[cut:])
    )
