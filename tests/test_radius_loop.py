"""The shared radius loop `placement.best_radius` and the three solvers on
it: each solve must equal a full evaluation, which solves every candidate
radius with the solver's kernel and keeps the first radius of the largest
weight. This pins the pruning rules of csofl and t-lines."""

import math
import pathlib
import random

import pytest

from sofl import discrete, klink, multiline, placement, solver
from sofl.candidates import (
    candidate_radii_discrete,
    candidate_radii_line,
    candidate_radii_tlines,
)
from sofl.discrete import solve_discrete
from sofl.geom import DEFAULT_TOL, TolerancePolicy
from sofl.klink import line_geometry, solve_radii
from sofl.multiline import solve_tlines
from sofl.oracle import brute_csofl, brute_discrete
from sofl.placement import LineCenter, best_radius, line_placement, site_placement
from sofl.solver import solve_csofl
from conftest import (B, radius_groups, random_instance, reference_discrete_solve_radius, rescaled,
                      thin_ring_instance, tol_edge_instance)


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
    radii = [c.value for c in candidate_radii_line(points, 0.0, k)]
    lam, xs = full_evaluation(radii, lambda v: solve_radii(geo, [v], k, tol)[0])
    return line_placement(points, [0.0], lam, tuple(LineCenter(x) for x in xs), tol)


def full_tlines(points, lines, k, tol=DEFAULT_TOL):
    geos = [line_geometry(points, ly) for ly in lines]
    radii = [v for v, _ in radius_groups(candidate_radii_tlines(points, lines, k))]
    lam, chosen = full_evaluation(radii, lambda v: multiline._solve_radii(geos, lines, [v], k, tol)[0])
    return line_placement(points, lines, lam, tuple(LineCenter(*c) for c in chosen), tol)


def full_discrete(sites, points, k, tol=DEFAULT_TOL):
    ring = discrete.canonical_ring(sites)
    geo = discrete._geometry(ring, points)
    radii = [c.value for c in candidate_radii_discrete(points, ring)]
    lam, chosen = full_evaluation(radii, lambda v: discrete._solve_radii(geo, [v], k, tol)[0])
    return site_placement(points, ring, lam, chosen, tol)


# --- best_radius ---------------------------------------------------------------


def table_solve(weights, calls):
    """A batch solve over a weight table; records the radii of each call."""
    def solve(lams):
        calls.append(list(lams))
        return [(weights[lam], (lam,)) for lam in lams]

    return solve


def test_best_radius_first_radius_of_largest_weight():
    calls = []
    solve = table_solve({0.0: 0.0, 1.0: 3.0, 2.0: 5.0, 3.0: 5.0}, calls)
    groups = [(0.0, True), (1.0, True), (2.0, True), (3.0, True)]
    assert best_radius(groups, solve) == (5.0, 2.0, (2.0,))
    assert calls == [[0.0, 1.0, 2.0, 3.0]]


def test_best_radius_other_radii_only_when_they_can_win():
    calls, asked = [], []
    weights = {0.0: 0.0, 1.0: 4.0, 1.5: 4.0, 2.0: 4.0, 2.5: 9.0, 3.0: 2.0}
    groups = [(0.0, True), (1.0, False), (1.5, False), (2.0, True), (2.5, False), (3.0, True)]

    def can_win(lam, best):
        asked.append((lam, best[:2]))
        return lam != 2.5

    # The firsts give (4.0, 2.0), and can_win judges every other radius
    # against it. 1.0 and 1.5 are admitted and solved in one call: 1.0
    # ties at a smaller radius and wins, 1.5 ties at a larger one and
    # loses. 2.5 is never solved.
    assert best_radius(groups, table_solve(weights, calls), can_win) == (4.0, 1.0, (1.0,))
    assert calls == [[0.0, 2.0, 3.0], [1.0, 1.5]]
    assert asked == [(1.0, (4.0, 2.0)), (1.5, (4.0, 2.0)), (2.5, (4.0, 2.0))]


def test_best_radius_solves_the_first_radii_in_one_call():
    calls = []
    weights = {0.0: 0.0, 1.0: 1.0, 2.0: 2.0}
    groups = [(0.0, True), (1.0, False), (2.0, True)]
    best = best_radius(groups, table_solve(weights, calls), lambda lam, best: True)
    assert best == (2.0, 2.0, (2.0,))
    assert calls == [[0.0, 2.0], [1.0]]


def bounded_solve(weights, bounds, calls):
    """A table solve that records each call and asserts, for every radius
    of a call, that its bound could beat the best result returned before
    the call: a larger bound, or an equal one at a smaller radius."""
    best = []

    def solve(lams):
        for lam in lams:
            assert not best or (-bounds[lam], lam) < best[0], (lam, best)
        calls.append(list(lams))
        out = [(weights[lam], (lam,)) for lam in lams]
        best[:] = [min([*best, *((-w, lam) for w, (lam,) in out)])]
        return out

    return solve


def full_table(weights, radii):
    """best_radius's result over every radius: the first of the largest weight."""
    top = max(weights[v] for v in radii)
    v = min(v for v in radii if weights[v] == top)
    return (top, v, (v,))


def test_best_radius_bound_order_and_ties(monkeypatch):
    # In (-bound, radius) order: 6; 3 and 4, one bound; then 1, 2 and 5 at
    # bound 5, which ties the best (5 at 3): 1 and 2 are smaller radii and
    # are solved, 5 is a larger one and stops the loop; 0 is never solved.
    monkeypatch.setattr(placement, "BOUND_STEP", 1)
    weights = {0.0: 0.0, 1.0: 3.0, 2.0: 5.0, 3.0: 5.0, 4.0: 4.0, 5.0: 5.0, 6.0: 2.0}
    bounds = {0.0: 0.0, 1.0: 5.0, 2.0: 5.0, 3.0: 6.0, 4.0: 6.0, 5.0: 5.0, 6.0: 9.0}
    calls = []
    groups = [(v, True) for v in weights]
    best = best_radius(groups, bounded_solve(weights, bounds, calls),
                       bound=lambda lams: [bounds[v] for v in lams])
    assert best == full_table(weights, weights) == (5.0, 2.0, (2.0,))
    assert calls == [[6.0], [3.0, 4.0], [1.0, 2.0]]


def test_best_radius_bound_at_zero_weight(monkeypatch):
    # Every weight is 0, so radius 0 wins. Radius 2 comes first by its
    # bound; then 0 and 1, which tie the best at smaller radii, share a
    # call, and 3 is never solved.
    monkeypatch.setattr(placement, "BOUND_STEP", 1)
    weights = {0.0: 0.0, 1.0: 0.0, 2.0: 0.0, 3.0: 0.0}
    bounds = {0.0: 0.0, 1.0: 0.0, 2.0: 4.0, 3.0: 0.0}
    calls = []
    groups = [(v, True) for v in weights]
    best = best_radius(groups, bounded_solve(weights, bounds, calls),
                       bound=lambda lams: [bounds[v] for v in lams])
    assert best == (0.0, 0.0, (0.0,))
    assert calls == [[2.0], [0.0, 1.0]]


def test_best_radius_without_bound_keeps_its_calls():
    # No bound counts every bound as +inf: one call for the first radii,
    # in ascending order, then one for the other radii that can win, and a
    # bound of +inf everywhere makes the same calls.
    weights = {0.0: 0.0, 1.0: 4.0, 1.5: 4.0, 2.0: 4.0, 2.5: 9.0, 3.0: 2.0}
    groups = [(0.0, True), (1.0, False), (1.5, False), (2.0, True), (2.5, False), (3.0, True)]
    results = []
    for bound in (None, lambda lams: [math.inf] * len(lams)):
        calls = []
        best = best_radius(groups, table_solve(weights, calls), lambda lam, best: lam != 2.5, bound)
        results.append((best, calls))
    assert results[0] == results[1] == ((4.0, 1.0, (1.0,)), [[0.0, 2.0, 3.0], [1.0, 1.5]])


def test_best_radius_bound_prunes_other_radii():
    # A radius that is not first is asked can_win only if its bound can
    # beat the best of the first radii, (4.0, 2.0): 1.0 and 1.5 tie it at
    # smaller radii and share a call, 2.5 is below it.
    weights = {0.0: 0.0, 1.0: 4.0, 1.5: 4.0, 2.0: 4.0, 2.5: 3.0}
    bounds = {0.0: 0.0, 1.0: 4.0, 1.5: 4.0, 2.0: 5.0, 2.5: 3.5}
    groups = [(0.0, True), (1.0, False), (1.5, False), (2.0, True), (2.5, False)]
    calls, asked = [], []

    def can_win(lam, best):
        asked.append(lam)
        return True

    best = best_radius(groups, bounded_solve(weights, bounds, calls), can_win,
                       lambda lams: [bounds[v] for v in lams])
    assert best == (4.0, 1.0, (1.0,))
    assert calls == [[2.0, 0.0], [1.0, 1.5]]
    assert asked == [1.0, 1.5]


@pytest.mark.parametrize("step", [1, 3, 64])
def test_best_radius_bound_equals_full_evaluation(monkeypatch, step):
    # Random tables with many equal weights and bounds: the result equals a
    # full evaluation, and no radius is solved whose bound could not beat
    # the best when its call was made (asserted inside the solve).
    monkeypatch.setattr(placement, "BOUND_STEP", step)
    rng = random.Random(step)
    skipped = 0
    for _ in range(300):
        radii = sorted(rng.sample(range(400), rng.randint(1, 150)))
        weights = {float(v): float(rng.randint(0, 6)) for v in radii}
        weights[float(radii[0])] = 0.0
        bounds = {v: w + rng.choice((0, 0, 1, 3)) for v, w in weights.items()}
        calls = []
        best = best_radius([(v, True) for v in weights], bounded_solve(weights, bounds, calls),
                           bound=lambda lams: [bounds[v] for v in lams])
        assert best == full_table(weights, weights)
        skipped += len(weights) - sum(map(len, calls))
    assert skipped > 0


# --- the chunk driver ------------------------------------------------------------


def _batch_kernel(name):
    """(module, solve, positive candidate radii) of one solver's batch
    kernel on a small instance with a blue point on a line or at a site, so
    that a kernel asked at radius 0 would cover it."""
    if name == "klink":
        pts = [*random_instance(3, 6, 2).points, B(99, 1.5, 0.0, 4.0)]
        geo = line_geometry(pts, 0.0)
        radii = [c.value for c in candidate_radii_line(pts, 0.0, 2)]
        return klink, lambda lams: klink.solve_radii(geo, lams, 2), radii
    if name == "multiline":
        inst = random_instance(5, 5, 2, "tlines", t=2)
        pts = [*inst.points, B(99, 1.5, inst.lines[1], 4.0)]
        geos = [line_geometry(pts, ly) for ly in inst.lines]
        radii = [v for v, _ in radius_groups(candidate_radii_tlines(pts, inst.lines, 2))]
        return multiline, lambda lams: multiline._solve_radii(geos, inst.lines, lams, 2, DEFAULT_TOL), radii
    inst = random_instance(7, 5, 3, "discrete", s=6)
    ring = discrete.canonical_ring(inst.sites)
    pts = [*inst.points, B(99, *ring[2], 4.0)]
    geo = discrete._geometry(ring, pts)
    radii = [c.value for c in candidate_radii_discrete(pts, ring)]
    return discrete, lambda lams: discrete._solve_radii(geo, lams, 3, DEFAULT_TOL), radii


@pytest.mark.parametrize("name", ["klink", "multiline", "discrete"])
def test_nonpositive_radii_among_positive_at_any_chunk_size(monkeypatch, name):
    # Zero and negative radii mixed among positive ones, in one call, with
    # chunks of 1, 2 and all the positive radii: the same repr as solving
    # radius by radius, (0.0, ()) at every radius <= 0, and the positive
    # radii, in order, in chunks of the size the cell budget allows.
    module, solve, radii = _batch_kernel(name)
    pos = [v for v in radii if v > 0][:6]
    lams = [-1.0, pos[0], 0.0, pos[1], pos[2], -0.0, pos[3], -pos[4], pos[4], 0.0, pos[5]]
    one_by_one = [solve([v])[0] for v in lams]
    assert all(res == (0.0, ()) for v, res in zip(lams, one_by_one) if v <= 0)
    assert any(weight > 0 for weight, _ in one_by_one)
    cells, chunks = [], []
    real = module.in_chunks

    def spy(lams, cells_per_radius, chunk):
        cells.append(cells_per_radius)

        def sized(part):
            chunks.append(part.tolist())
            return chunk(part)

        return real(lams, cells_per_radius, sized)

    monkeypatch.setattr(module, "in_chunks", spy)
    solve([1.0])
    for size in (1, 2, len(pos)):
        monkeypatch.setattr(placement, "CELLS", size * cells[0])
        chunks.clear()
        assert repr(solve(lams)) == repr(one_by_one), size
        assert chunks == [pos[a: a + size] for a in range(0, len(pos), size)], size


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


def unbounded_loop(groups, solve, can_win):
    """The radius loop as it was before bounds: the first radii in one
    call, then each other radius, ascending, that can_win against the best
    so far, in a call of its own."""
    firsts = [v for v, first in groups if first]
    best = None
    for v, (weight, chosen) in zip(firsts, solve(firsts)):
        if best is None or weight > best[0]:
            best = (weight, v, chosen)
    for v, first in groups:
        if not first and can_win(v, best):
            weight, chosen = solve([v])[0]
            if weight > best[0] or (weight == best[0] and v < best[1]):
                best = (weight, v, chosen)
    return best


@pytest.mark.parametrize("name", ["csofl", "tlines"])
def test_unbounded_solvers_make_the_same_solve_calls(monkeypatch, name):
    # csofl and t-lines pass no bound: best_radius must return the result
    # of the sequential loop before bounds, with exactly two solve calls:
    # the first radii, then, if any, every other radius that can_win
    # against the best of the first radii, ascending. On generator
    # instances and the tolerance-edge fuzz, at eps 1e-9 and 1e-4.
    module = solver if name == "csofl" else multiline
    counts = {"solves": 0, "batches": 0, "batched": 0}

    def spy(groups, solve, can_win=None, bound=None):
        assert bound is None
        calls, want = [], []

        def recorded(log):
            def run(lams):
                log.append(list(lams))
                return solve(lams)
            return run

        best = best_radius(groups, recorded(calls), can_win)
        assert best == unbounded_loop(groups, recorded(want), can_win)
        firsts = [v for v, first in groups if first]
        top = None
        for v, (weight, chosen) in zip(firsts, solve(firsts)):
            if top is None or weight > top[0]:
                top = (weight, v, chosen)
        admitted = [v for v, first in groups if not first and can_win(v, top)]
        assert calls == [firsts] + ([admitted] if admitted else [])
        counts["solves"] += 1
        counts["batches"] += bool(admitted)
        counts["batched"] += len(admitted) > 1
        return best

    monkeypatch.setattr(module, "best_radius", spy)
    for tol in (DEFAULT_TOL, TolerancePolicy(1e-4)):
        if name == "csofl":
            for seed in range(60):
                n, k = 3 + seed % 8, 1 + seed // 8 % 3
                solve_csofl(random_instance(300 + seed, n, k).points, 0.0, k, tol)
            for seed in range(300):
                solve_csofl(tol_edge_instance(seed).points, 0.0, 2, tol)
        else:
            for seed in [*range(80, 92), 93, 105]:
                n, k, t = 4 + seed % 4, 2 + seed // 4 % 2, 2 + seed // 8 % 2
                inst = random_instance(seed, n, k, "tlines", t=t)
                solve_tlines(inst.points, inst.lines, k, tol)
            for seed in range(300):
                solve_tlines(tol_edge_instance(seed).points, (0.0, 2.0), 2, tol)
    assert counts["batches"] and counts["batched"], counts


def _discrete_cases():
    """(sites, points, k): generator rings with integer weights, the same
    with float weights, with unit weights (many equal weights across
    radii), and each of those scaled by 2^-20 and 2^20 in coordinates and
    weights."""
    rng = random.Random(5)
    for seed in range(30):
        s = 5 + seed % 5
        k = min(1 + seed % 4, s - 1)
        inst = random_instance(600 + seed, 3 + seed % 10, k, "discrete", s=s)
        sign = [1.0 if p.is_blue else -1.0 for p in inst.points]
        floats = [c * rng.choice((0.1, 0.2, 0.7, 1 / 3, 1e16, 3.0)) for c in sign]
        for weights in ([p.weight for p in inst.points], floats, sign):
            for scale in (1.0, 2.0**-20, 2.0**20):
                yield (*rescaled(inst.sites, inst.points, weights, scale), k)


def test_solve_discrete_equals_full_evaluation_under_the_bound(monkeypatch):
    # The bound skips radii, so the pruned solve must still return exactly
    # what solving every radius returns, on the exact and the margin path.
    # Calls of 4 radii let it skip radii on these small instances too.
    monkeypatch.setattr(placement, "BOUND_STEP", 4)
    solved, total = [0], [0]
    real = discrete._solve_radii

    def counted(geo, lams, k, tol):
        solved[0] += len(lams)
        return real(geo, lams, k, tol)

    for sites, points, k in _discrete_cases():
        full = full_discrete(sites, points, k)
        monkeypatch.setattr(discrete, "_solve_radii", counted)
        pl = solve_discrete(sites, points, k)
        monkeypatch.setattr(discrete, "_solve_radii", real)
        total[0] += len(candidate_radii_discrete(points, discrete.canonical_ring(sites)))
        assert repr(pl) == repr(full), (sites, points, k)
    assert solved[0] < total[0], (solved, total)


def test_discrete_chunk_kernel_equals_per_radius_reference(monkeypatch):
    # At every candidate radius, and at radii <= 0 among them, the chunk
    # kernel gives the repr of the per-radius kernel of `conftest`: on
    # `_discrete_cases` and the rings of `golden_discrete_thin.txt`, at eps
    # 1e-9 and 1e-4, in chunks of the default cell budget, and at 1e-9 also
    # in chunks of one radius.
    golden = pathlib.Path(__file__).resolve().parent / "golden_discrete_thin.txt"
    seeds = [int(line.split("=")[1]) for line in golden.read_text().splitlines() if line.startswith("# seed=")]
    cases = [*_discrete_cases(), *((inst.sites, inst.points, inst.k) for inst in map(thin_ring_instance, seeds))]
    default = placement.CELLS
    radii_seen = 0
    for sites, points, k in cases:
        ring = discrete.canonical_ring(sites)
        geo = discrete._geometry(ring, points)
        radii = [c.value for c in candidate_radii_discrete(points, ring)]
        radii[len(radii) // 2: len(radii) // 2] = [0.0, -1.0]
        for tol, budgets in ((DEFAULT_TOL, (default, 1)), (TolerancePolicy(1e-4), (default,))):
            expect = repr([reference_discrete_solve_radius(geo, v, k, tol) for v in radii])
            for cells in budgets:
                monkeypatch.setattr(placement, "CELLS", cells)
                assert repr(discrete._solve_radii(geo, radii, k, tol)) == expect, (sites, points, k, tol, cells)
        radii_seen += len(radii)
    assert len(cases) > 300 and radii_seen > 10000


def test_capped_bound_skips_radii_at_k3(monkeypatch):
    # generate(14, 12, 3, "discrete", s=8) has 97 candidate radii. At the
    # large ones fewer than three sites fit pairwise, and the bound counts
    # only those that fit: a top-3 bound without that cap solves 90 of the
    # 97. The pruned solve still returns what solving every radius returns.
    inst = random_instance(14, 12, 3, "discrete", s=8)
    total = len(candidate_radii_discrete(inst.points, discrete.canonical_ring(inst.sites)))
    solved = [0]
    real = discrete._solve_radii

    def counted(geo, lams, k, tol):
        solved[0] += len(lams)
        return real(geo, lams, k, tol)

    full = full_discrete(inst.sites, inst.points, inst.k)
    monkeypatch.setattr(discrete, "_solve_radii", counted)
    pl = solve_discrete(inst.sites, inst.points, inst.k)
    assert repr(pl) == repr(full)
    assert total == 97 and solved[0] < 90, solved


# --- ROADMAP item 1: the DPs double-count touching disks -------------------------


@pytest.mark.xfail(reason="ROADMAP item 1: the line DP double-counts a tangent point")
def test_line_witness_fixed_radius():
    # Two disks at -6 and 2 touch at (-2, 0); the DP counts the two blues
    # there in both, 8 in all, against 5 for one disk at 0.
    points = [B(0, -2, 1e-6, 2.0), B(1, -2, 1e-6, 2.0), B(2, 0, 4, 1.0)]
    weight, xs = solve_radii(line_geometry(points, 0.0), [4.0], 2, DEFAULT_TOL)[0]
    assert (weight, xs) == (5.0, (0.0,))


@pytest.mark.xfail(reason="ROADMAP item 1: a discrete pair weighs the sum of its site weights, "
                          "so a tangent point counts twice")
def test_discrete_witness():
    # At radius 2 the sites (0,0) and (4,0) touch at blue 0. The pair weight
    # discrete gives `placement.best_upto_two` is the sum of its site
    # weights, which counts that blue twice; so the pair wins and reports
    # its union weight 5, and the solver finds weight 8 only at radius 4.
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
