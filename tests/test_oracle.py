import ast
import itertools
import math
import pathlib
import random

import numpy as np
import pytest

import sofl.oracle
from sofl.candidates import (
    candidate_radii_discrete,
    candidate_radii_line,
    candidate_radii_tlines,
)
from sofl.cli import EXIT_TOO_LARGE, main
from sofl.geom import DEFAULT_TOL, Disk, TolerancePolicy, bitsets, centers_compatible, is_covered
from sofl.instance import generate, parse_instance
from sofl.klink import line_geometry
from sofl.oracle import (
    OracleResult,
    TooLargeError,
    _center_grids,
    _coverage,
    _tables,
    brute_csofl,
    brute_discrete,
    brute_fixed_radius,
    brute_k1_maxblue,
    brute_special_counts,
    brute_tlines,
)
from conftest import (
    B,
    R,
    radius_groups,
    random_instance,
    reference_brute_fixed_radius,
    reference_tlines_candidates,
    thin_ring_instance,
    tol_edge_instance,
    wide_tlines_text,
)


def test_empty_subset_floor():
    res = brute_fixed_radius([R(0, 0, 0.5, -5.0)], [(0.0, 0.0)], 1.0, 1)
    assert res.weight == 0.0 and res.placements == ()
    res = brute_fixed_radius([R(0, 0, 0.5, -5.0)], [], 1.0, 2)
    assert res == OracleResult(0.0, 1.0, (), (0, 0))


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
    xy = np.array(centers, dtype=float).reshape(-1, 2)
    cov, _ = _coverage(points, xy[:, 0], xy[:, 1], np.full(len(xy), lam * lam), tol)
    masks = bitsets(cov.T)
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
                centers = _center_grids(pts, [0.0], np.array([cand.value]), 2, tol)[3]
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
# piece of code the oracle shares with the solvers; from `placement` only
# the cell budget, and the solver kernels (`klink`, `multiline`,
# `discrete`, `solver`) stay out, so solver-oracle agreement keeps meaning
# something.
ORACLE_IMPORTS = {
    "candidates": {"discrete_radii", "line_radii", "tlines_radii"},
    "geom": {"DEFAULT_TOL", "Disk", "Region", "TolerancePolicy", "bitsets",
             "classify", "compatible_table", "coverage_mask", "merge_keep",
             "point_order_sums"},
    "placement": {"CELLS"},
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
                    grid = _center_grids(pts, lines, np.array([lam]), k, tol)[3]
                    got = sorted((x.hex(), y) for x, y in grid)
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


def _table_cases():
    """(points, radii, k, lines, sites) with every positive candidate radius:
    tolerance-edge seeds on one line; wide t-lines pins at k = 2, leaving
    out seeds 1 and 5, whose four-line grids hold up to 475 centers a
    radius (15M pairs for the scalar predicate); thin discrete rings."""
    for seed in range(30):
        pts = tol_edge_instance(seed).points
        yield pts, [c.value for c in candidate_radii_line(pts, 0.0, 2)], 2, [0.0], ()
    for seed in (0, 2, 3, 4, 6, 7, 8, 10):
        inst = parse_instance(wide_tlines_text(seed))
        groups = radius_groups(candidate_radii_tlines(inst.points, inst.lines, 2))
        yield inst.points, [v for v, _ in groups], 2, list(inst.lines), ()
    for seed in range(16):
        inst = thin_ring_instance(seed)
        if inst is not None:
            radii = [c.value for c in candidate_radii_discrete(inst.points, inst.sites)]
            yield inst.points, radii, inst.k, None, inst.sites


def test_tables_match_scalar_predicates_at_every_radius():
    # The tables the subset search reads, built for all candidate radii of
    # a call at once, in chunks: at every radius each center's packed mask
    # is scalar `is_covered` bit for bit, and its pair row is scalar
    # `centers_compatible` against every center of that radius, itself
    # included. Extends `test_masks_match_is_covered_bit_for_bit`.
    for (pts, radii, k, lines, sites), eps in itertools.product(_table_cases(), (1e-9, 5e-7, 1e-4)):
        tol = TolerancePolicy(eps)
        for lam, centers, masks, compat in _tables(pts, [v for v in radii if v > 0], k, tol,
                                                   lines, sites):
            for c, mask, row in zip(centers, masks, compat):
                disk = Disk(*c, lam)
                got = [mask >> i & 1 for i in range(len(pts) + 1)]
                assert got == [int(is_covered(p, disk, tol)) for p in pts] + [0], (c, lam, eps)
                got = [row >> j & 1 for j in range(len(centers) + 1)]
                want = [int(centers_compatible(c, d, lam, tol)) for d in centers] + [0]
                assert got == want, (c, lam, eps)


def _brute_calls():
    """Seeded calls of every radius-looping brute, at eps 1e-9 and 1e-4."""
    for eps in (1e-9, 1e-4):
        tol = TolerancePolicy(eps)
        for seed in range(12):
            inst = tol_edge_instance(seed)
            yield brute_csofl, (inst.points, 0.0, inst.k, tol)
            inst = random_instance(seed, 3 + seed % 6, 1 + seed % 3)
            yield brute_csofl, (inst.points, 0.0, inst.k, tol)
            variant = ("maxblue-nored", "allblue-minred")[seed % 2]
            inst = random_instance(seed, 3 + seed % 6, 1 + seed // 2 % 3, variant=variant)
            yield brute_special_counts, (inst.points, 0.0, inst.k, variant, tol)
            inst = random_instance(seed, 3 + seed % 6, 1 + seed % 3, variant="discrete", s=5 + seed % 4)
            yield brute_discrete, (inst.sites, inst.points, inst.k, tol)
            inst = random_instance(seed, 1 + seed % 3, 1 + seed // 3 % 2, variant="tlines", t=1 + seed % 2)
            yield brute_tlines, (inst.points, inst.lines, inst.k, tol)
        for seed in (0, 2, 4, 6):
            inst = thin_ring_instance(seed)
            if inst is not None:
                yield brute_discrete, (inst.sites, inst.points, min(inst.k, 3), tol)


def _outcome(brute, args):
    try:
        return repr(brute(*args))
    except TooLargeError as exc:
        return f"TooLargeError: {exc}"


def test_results_do_not_depend_on_the_chunking(monkeypatch):
    # A budget of one cell puts every radius in a chunk of its own, for the
    # coverage and the pair tables alike; the results must not change.
    calls = list(_brute_calls())
    default = [_outcome(*call) for call in calls]
    assert any("TooLargeError" in got for got in default)
    monkeypatch.setattr(sofl.oracle, "TABLE", 1)
    assert [_outcome(*call) for call in calls] == default


GUARD_TLINES = generate(23, 4, 1, "tlines", t=3)


@pytest.mark.parametrize("table", [None, 1])
def test_tlines_guard_names_the_first_radius_past_it(monkeypatch, table, tmp_path, capsys):
    # Of this instance's 20 candidate radii, ascending, the seventh is the
    # first whose grid has more than 16 centers: 17, where the largest grid
    # has 29. The guard names that first count, however the radii are
    # chunked, and `sofl check` exits 3 before any solve.
    if table is not None:
        monkeypatch.setattr(sofl.oracle, "TABLE", table)
    inst = parse_instance(GUARD_TLINES)
    lams = [v for v, _ in radius_groups(candidate_radii_tlines(inst.points, inst.lines, inst.k))]
    counts = [len(_center_grids(inst.points, inst.lines, np.array([v]), inst.k, DEFAULT_TOL)[3])
              for v in lams if v > 0]
    first = next(c for c in counts if c > 16)
    assert (len(counts), counts.index(first), first, max(counts)) == (20, 6, 17, 29)
    with pytest.raises(TooLargeError, match="^17 candidate centers exceeds the guard 16$"):
        brute_tlines(inst.points, inst.lines, inst.k)
    path = tmp_path / "guard.txt"
    path.write_text(GUARD_TLINES)
    assert main(["check", "--input", str(path)]) == EXIT_TOO_LARGE
    assert "solver" not in capsys.readouterr().out
