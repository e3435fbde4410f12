import ast
import itertools
import math
import pathlib
import random

import pytest

import sofl.oracle
from sofl.candidates import candidate_radii_line, candidate_radii_tlines, radius_groups
from sofl.geom import DEFAULT_TOL, Disk, TolerancePolicy, is_covered
from sofl.instance import parse_instance
from sofl.klink import line_geometry
from sofl.oracle import (
    TooLargeError,
    _center_grid,
    _masks,
    brute_csofl,
    brute_discrete,
    brute_fixed_radius,
    brute_k1_maxblue,
    brute_tlines,
)
from conftest import (
    B,
    R,
    random_instance,
    reference_brute_fixed_radius,
    reference_tlines_candidates,
    tol_edge_instance,
    wide_tlines_text,
)


def test_empty_subset_floor():
    res = brute_fixed_radius([R(0, 0, 0.5, -5.0)], [(0.0, 0.0)], 1.0, 1)
    assert res.weight == 0.0 and res.placements == ()


def test_single_positive_center():
    res = brute_fixed_radius([B(0, 0, 0.5, 5.0)], [(0.0, 0.0)], 1.0, 1)
    assert res.weight == 5.0 and res.placements == ((0.0, 0.0),)
    assert res.counts == (1, 0)


def test_selects_compatible_pair():
    # center weights 0, 5, -2, 7, 0 along the grid; best pair nets 12
    pts = [B(0, 2, 0.5, 5.0), R(1, 4, 0.5, -2.0), B(2, 6, 0.5, 7.0)]
    centers = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.0, 0.0), (8.0, 0.0)]
    res = brute_fixed_radius(pts, centers, 1.0, 2)
    assert res.weight == 12.0
    assert res.placements == ((2.0, 0.0), (6.0, 0.0))


def test_guard_centers():
    with pytest.raises(TooLargeError):
        brute_fixed_radius([], [(float(i), 0.0) for i in range(25)], 1.0, 1)


def test_guard_k():
    with pytest.raises(TooLargeError):
        brute_fixed_radius([], [(0.0, 0.0)], 1.0, 5)


def test_brute_csofl_guards():
    pts = [B(i, i, 1) for i in range(9)]
    with pytest.raises(TooLargeError):
        brute_csofl(pts, 0.0, 1)
    with pytest.raises(TooLargeError):
        brute_csofl(pts[:3], 0.0, 4)


def test_brute_k1_guard():
    pts = [B(i, i, 1) for i in range(13)]
    with pytest.raises(TooLargeError):
        brute_k1_maxblue(pts)


def test_brute_tlines_guard():
    pts = [B(i, i, 1) for i in range(6)]
    with pytest.raises(TooLargeError):
        brute_tlines(pts, [0.0, 1.0], 2)


def test_brute_discrete_guard():
    sites = [(float(i), float(i * i)) for i in range(11)]
    with pytest.raises(TooLargeError):
        brute_discrete(sites, [], 1)


def test_brute_csofl_examples():
    res = brute_csofl([B(0, 0, 1)], 0.0, 1)
    assert res.weight == 1.0 and res.radius == 1.0
    res = brute_csofl([R(0, 1, 1), R(1, 2, 1)], 0.0, 2)
    assert res.weight == 0.0 and res.radius == 0.0
    res = brute_csofl([B(0, 0, 1), B(1, 4, 1)], 0.0, 2)
    assert res.weight == 2.0 and res.radius == 1.0


def _copy(points, f, sx):
    """The points with x times sx * f and y times f."""
    return [(B if p.is_blue else R)(p.id, sx * p.x * f, p.y * f, p.weight) for p in points]


def assert_masks_match_is_covered(points, centers, lam, tol):
    masks = _masks(points, centers, lam, tol)
    assert len(masks) == len(centers)
    for (cx, cy), m in zip(centers, masks):
        disk = Disk(cx, cy, lam)
        got = [m >> i & 1 for i in range(len(points) + 1)]
        assert got == [int(is_covered(p, disk, tol)) for p in points] + [0], (cx, cy, lam, tol)
    return masks


def test_masks_match_is_covered_bit_for_bit():
    # The tolerance-edge family at its first candidate radii and the
    # oracle's line centers, then points placed around a radius-5f disk:
    # exactly on its boundary (3-4-5 offsets) and half a band and two bands
    # inside and outside it; each copy scaled by 1 or 2^+-20 and mirrored.
    policies = (DEFAULT_TOL, TolerancePolicy(5e-7), TolerancePolicy(0.0))
    for seed, f, sx in itertools.product(range(40), (1.0, 2.0 ** 20, 2.0 ** -20), (1.0, -1.0)):
        pts = _copy(tol_edge_instance(seed).points, f, sx)
        tol = policies[seed % 3]
        for cand in candidate_radii_line(pts, 0.0, 2)[:4]:
            if cand.value > 0:
                centers = _center_grid(pts, [0.0], cand.value, 2, tol)
                assert_masks_match_is_covered(pts, centers, cand.value, tol)
    for f, sx, tol in itertools.product((1.0, 2.0 ** 20, 2.0 ** -20), (1.0, -1.0), policies):
        lam = 5.0 * f
        band = tol.band(lam * lam)
        ring = [(3.0, 4.0), (-4.0, 3.0), (0.0, -5.0), (5.0, 0.0)]
        pts = [B(i, (x + 1.0) * f * sx, y * f) for i, (x, y) in enumerate(ring)]
        pts += [R(i + 4, p.x, p.y) for i, p in enumerate(pts)]
        for c in (-2.0, -0.5, 0.5, 2.0):
            x = (1.0 * f + math.sqrt(max(0.0, lam * lam + c * band))) * sx
            pts += [B(len(pts), x, 0.0), R(len(pts) + 1, x, 0.0)]
        centers = [(sx * f, 0.0), (0.0, 0.0), (sx * f, f), (-sx * 9.0 * f, 0.0)]
        masks = assert_masks_match_is_covered(pts, centers, lam, tol)
        assert masks[0] & 0xFF == 0x0F  # the ring: blues covered, reds not


def _tie_instance(seed):
    """Four centers a < b < c < d of which only {a, d} and {b, c} are
    compatible pairs, each covering its own blue, weighted so that both
    pairs net the same: depth-first order meets {a, d} first, and the
    center key picks {b, c}, whose largest center is smaller. Each copy is
    scaled by a power of two, mirrored and shifted, and gets three far-off
    points, at k = 3 one of them under a center of its own. Returns the
    instance and {b, c}."""
    rng = random.Random(seed)
    f, sx, ox = 2.0 ** rng.randint(-3, 3), rng.choice([1.0, -1.0]), rng.randint(-4, 4)

    def at(x, y):
        return (sx * x + ox) * f, y * f

    wb, wc = rng.randint(1, 4), rng.randint(1, 4)
    wa = rng.randint(1, wb + wc - 1)
    ws = [wa, wb, wc, wb + wc - wa]
    base = [at(0.0, 0.0), at(0.1, 1.0), at(1.9, 0.0), at(2.0, 1.0)]
    pts = [B(i, x, y, w) for i, ((x, y), w) in enumerate(zip(base, ws))]
    centers = list(base)
    k = 2 + seed % 2
    for x in rng.sample(range(10, 20), 3):
        w = rng.randint(1, 3)
        pts.append(B(len(pts), *at(x, 0.0), w) if rng.random() < 0.7 else R(len(pts), *at(x, 0.0), -w))
    if k == 3:  # one far-off center, which the third disk may take
        centers.append((pts[-1].x, pts[-1].y))
    rng.shuffle(centers)
    return pts, centers, f, k, {base[1], base[2]}


def test_lazy_tie_key_equals_eager_key():
    for seed in range(60):
        pts, centers, lam, k, bc = _tie_instance(seed)
        for tol in (DEFAULT_TOL, TolerancePolicy(0.0)):
            got = brute_fixed_radius(pts, centers, lam, k, tol)
            assert got == reference_brute_fixed_radius(pts, centers, lam, k, tol), (seed, tol)
            assert bc <= set(got.placements), (seed, tol)


# The names `sofl.oracle` may import, by module. A new name here is a new
# piece of code the oracle shares with the solvers; `placement` and the
# solver kernels stay out, so solver-oracle agreement keeps meaning
# something.
ORACLE_IMPORTS = {
    "candidates": {"candidate_radii_discrete", "candidate_radii_line",
                   "candidate_radii_tlines", "radius_groups"},
    "geom": {"DEFAULT_TOL", "Disk", "Region", "TolerancePolicy", "bitsets",
             "centers_compatible", "classify", "coverage_mask", "merge_keep"},
    "variants_k1": {"pair_disk"},
}


def test_center_grid_is_the_two_sided_reference():
    # The oracle builds its centers on its own, hopping both ways from every
    # endpoint; value for value they are the two-sided reference of
    # `conftest`, which the kernels' per-radius weights are held against.
    # Heights within 1e-6 of a line and the 5e-7 and 1e-4 policies make
    # near-duplicates that the merge must treat alike.
    for seed in range(30):
        inst = random_instance(seed, 2 + seed % 5, 1 + seed % 3, variant="tlines", t=1 + seed % 3)
        cases = [(inst.points, inst.lines, inst.k), (inst.points, [0.0], inst.k)]
        cases.append((parse_instance(wide_tlines_text(seed)).points, [0.0, 1.0], 2))
        for (pts, lines, k), tol in itertools.product(cases, (DEFAULT_TOL, TolerancePolicy(5e-7),
                                                              TolerancePolicy(1e-4))):
            geos = [line_geometry(pts, ly) for ly in lines]
            for lam, _ in radius_groups(candidate_radii_tlines(pts, lines, k))[:8]:
                if lam > 0:
                    xs, li = reference_tlines_candidates(geos, lines, lam, k, tol)
                    want = sorted((x.hex(), lines[i]) for x, i in zip(xs.tolist(), li.tolist()))
                    got = sorted((x.hex(), y) for x, y in _center_grid(pts, lines, lam, k, tol))
                    assert got == want, (seed, lines, lam, tol)


def test_oracle_imports_only_the_allowlist():
    tree = ast.parse(pathlib.Path(sofl.oracle.__file__).read_text())
    relative, absolute = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(a.name for a in node.names)
    assert relative == ORACLE_IMPORTS
    assert absolute == {"__future__", "dataclasses", "numpy"}
