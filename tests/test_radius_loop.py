"""The shared radius loop `placement.best_radius` and the three solvers on
it: each solve must equal a full evaluation, which solves every candidate
radius with the solver's kernel and keeps the first radius of the largest
weight. This pins the pruning rules of csofl and t-lines."""

import pytest

from sofl import discrete, multiline
from sofl.candidates import (
    candidate_radii_discrete,
    candidate_radii_line,
    candidate_radii_tlines,
    radius_groups,
)
from sofl.discrete import solve_discrete
from sofl.geom import DEFAULT_TOL
from sofl.klink import line_geometry, solve_radius
from sofl.multiline import solve_tlines
from sofl.oracle import brute_csofl, brute_discrete
from sofl.placement import LineCenter, best_radius, line_placement, site_placement
from sofl.solver import solve_csofl
from conftest import B, random_instance, tol_edge_instance


def full_evaluation(radii, kernel):
    """(radius, chosen) of the first radius of the largest kernel weight."""
    best = None
    for lam in radii:
        weight, chosen = kernel(lam)
        if best is None or weight > best[0]:
            best = (weight, lam, chosen)
    return best[1], best[2]


def full_csofl(points, k, tol=DEFAULT_TOL):
    geo = line_geometry(points, 0.0)
    radii = [c.value for c in candidate_radii_line(points, 0.0, tol, k)]
    lam, xs = full_evaluation(radii, lambda v: solve_radius(geo, v, k, tol))
    return line_placement(points, [0.0], lam, tuple(LineCenter(x) for x in xs), tol)


def full_tlines(points, lines, k, tol=DEFAULT_TOL):
    geos = [line_geometry(points, ly) for ly in lines]
    radii = [v for v, _ in radius_groups(candidate_radii_tlines(points, lines, tol, k))]
    lam, chosen = full_evaluation(radii, lambda v: multiline._solve_radius(geos, lines, v, k, tol))
    return line_placement(points, lines, lam, tuple(LineCenter(*c) for c in chosen), tol)


def full_discrete(sites, points, k, tol=DEFAULT_TOL):
    ring = discrete.canonical_ring(sites).sites
    geo = discrete._geometry(ring, points)
    radii = [c.value for c in candidate_radii_discrete(points, ring, tol)]
    lam, chosen = full_evaluation(radii, lambda v: discrete._solve_radius(geo, v, k, tol))
    return site_placement(points, ring, lam, chosen, tol)


# --- best_radius ---------------------------------------------------------------


def table_kernel(weights, solved):
    def kernel(lam):
        solved.append(lam)
        return weights[lam], (lam,)

    return kernel


def test_best_radius_first_radius_of_largest_weight():
    solved = []
    kernel = table_kernel({0.0: 0.0, 1.0: 3.0, 2.0: 5.0, 3.0: 5.0}, solved)
    groups = [(0.0, True), (1.0, True), (2.0, True), (3.0, True)]
    assert best_radius(groups, kernel) == (5.0, 2.0, (2.0,))
    assert solved == [0.0, 1.0, 2.0, 3.0]


def test_best_radius_other_radii_only_when_they_can_win():
    solved, asked = [], []
    weights = {0.0: 0.0, 1.0: 4.0, 1.5: 4.0, 2.0: 4.0, 2.5: 9.0, 3.0: 2.0}
    groups = [(0.0, True), (1.0, False), (1.5, False), (2.0, True), (2.5, False), (3.0, True)]

    def can_win(lam, best):
        asked.append((lam, best[:2]))
        return lam != 2.5

    # The firsts give (4.0, 2.0). Radius 1.0 ties at a smaller radius and
    # wins, 1.5 ties at a larger one and loses, 2.5 is never solved.
    assert best_radius(groups, table_kernel(weights, solved), can_win) == (4.0, 1.0, (1.0,))
    assert solved == [0.0, 2.0, 3.0, 1.0, 1.5]
    assert asked == [(1.0, (4.0, 2.0)), (1.5, (4.0, 1.0)), (2.5, (4.0, 1.0))]


def test_best_radius_maps_the_first_radii_only():
    mapped = []

    def spy_map(fn, radii):
        mapped.append(list(radii))
        return map(fn, radii)

    weights = {0.0: 0.0, 1.0: 1.0, 2.0: 2.0}
    groups = [(0.0, True), (1.0, False), (2.0, True)]
    best = best_radius(groups, table_kernel(weights, []), lambda lam, best: True, map=spy_map)
    assert best == (2.0, 2.0, (2.0,))
    assert mapped == [[0.0, 2.0]]


# --- every solve equals a full evaluation --------------------------------------


def test_solve_csofl_equals_full_evaluation():
    for seed in range(60):
        n, k = 3 + seed % 8, 1 + seed // 8 % 3
        inst = random_instance(300 + seed, n, k)
        assert solve_csofl(inst.points, 0.0, k) == full_csofl(inst.points, k), seed


def test_solve_tlines_equals_full_evaluation():
    # On seeds 80, 93 and 105 a chain gain below the best standard radius
    # ties its weight and wins: the reach rule's tie clause lets it through.
    for seed in [*range(80, 92), 93, 105]:
        n, k, t = 4 + seed % 4, 2 + seed // 4 % 2, 2 + seed // 8 % 2
        inst = random_instance(seed, n, k, "tlines", t=t)
        assert solve_tlines(inst.points, inst.lines, k) == full_tlines(inst.points, inst.lines, k)


def test_solve_discrete_equals_full_evaluation():
    for seed in range(24):
        n, k, s = 3 + seed % 6, 1 + seed % 3, 5 + seed // 6 % 3
        inst = random_instance(500 + seed, n, k, "discrete", s=s)
        assert solve_discrete(inst.sites, inst.points, k) == full_discrete(inst.sites, inst.points, k)


# --- ROADMAP item 1: the DPs double-count touching disks -------------------------


@pytest.mark.xfail(reason="ROADMAP item 1: the line DP double-counts a tangent point")
def test_line_witness_fixed_radius():
    # Two disks at -6 and 2 touch at (-2, 0); the DP counts the two blues
    # there in both, 8 in all, against 5 for one disk at 0.
    points = [B(0, -2, 1e-6, 2.0), B(1, -2, 1e-6, 2.0), B(2, 0, 4, 1.0)]
    weight, xs = solve_radius(line_geometry(points, 0.0), 4.0, 2, DEFAULT_TOL)
    assert (weight, xs) == (5.0, (0.0,))


@pytest.mark.xfail(reason="ROADMAP item 1: the chord DP double-counts a tangent point")
def test_discrete_witness():
    # At radius 2 the sites (0,0) and (4,0) touch at blue 0; the DP counts
    # it twice, prefers that pair and reports its union weight 5, so the
    # solver finds weight 8 only at radius 4.
    sites = [(0, 0), (4, 0), (4, 10), (0, 10)]
    points = [B(0, 2, 0, 5.0), B(1, 0, 10, 3.0)]
    pl = solve_discrete(sites, points, 2)
    ref = brute_discrete(sites, points, 2)
    assert (pl.total_weight, pl.radius) == (ref.weight, ref.radius) == (8.0, 2.0)


DEFECT_SEEDS = [1622, 1840, 2521]


@pytest.mark.parametrize("seed", DEFECT_SEEDS)
def test_oracle_equals_full_evaluation_on_defect_seeds(seed):
    inst = tol_edge_instance(seed)
    full = full_csofl(inst.points, inst.k)
    ref = brute_csofl(inst.points, 0.0, inst.k)
    assert (full.total_weight, full.radius) == (ref.weight, ref.radius)


@pytest.mark.xfail(reason="ROADMAP item 1: chain pruning trusts the DP at c_{i+1}")
@pytest.mark.parametrize("seed", DEFECT_SEEDS)
def test_solve_csofl_matches_oracle_on_defect_seeds(seed):
    # The solver returns a larger radius than the oracle and a full
    # evaluation: the pruning skips a gain whose placement the DP loses at
    # the next standard radius.
    inst = tol_edge_instance(seed)
    pl = solve_csofl(inst.points, 0.0, inst.k)
    ref = brute_csofl(inst.points, 0.0, inst.k)
    assert (pl.total_weight, pl.radius) == (ref.weight, ref.radius)


# Seed 1436: the pruned solve, a full evaluation and the oracle all differ.


@pytest.mark.xfail(reason="ROADMAP item 1: chain pruning trusts the DP at c_{i+1}")
def test_solve_csofl_equals_full_evaluation_seed1436():
    # The solver returns weight 13 at 4.99999999998, a full evaluation 13
    # at 4.0357.
    inst = tol_edge_instance(1436)
    assert solve_csofl(inst.points, 0.0, inst.k) == full_csofl(inst.points, inst.k)


@pytest.mark.xfail(reason="ROADMAP item 1: the line DP double-counts a tangent point")
def test_oracle_equals_full_evaluation_seed1436():
    # A full evaluation gives weight 13, the oracle 15 at 4.1.
    inst = tol_edge_instance(1436)
    full = full_csofl(inst.points, inst.k)
    ref = brute_csofl(inst.points, 0.0, inst.k)
    assert (full.total_weight, full.radius) == (ref.weight, ref.radius)
