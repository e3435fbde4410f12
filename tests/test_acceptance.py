"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or plain `pytest -v`; the
lines also land in the -rP summary).
"""

import math
import time
from itertools import combinations

import numpy as np

from sofl.candidates import candidate_radii_line, candidate_radii_tlines
from sofl.cli import EXIT_OK
from sofl.cli import main as cli_main
from sofl.geom import (
    DEFAULT_TOL,
    Disk,
    Region,
    center_on_line_through,
    centers_compatible,
    classify,
    dist2,
)
from sofl.instance import format_instance, generate, parse_instance
from sofl.multiline import solve_tlines
from sofl.oracle import (
    brute_csofl,
    brute_discrete,
    brute_fixed_radius,
    brute_k1_allblue,
    brute_k1_maxblue,
    brute_special_counts,
)
from sofl.solver import solve_csofl, solve_special
from sofl.variants_k1 import allblue_minred, maxblue_nored_fast
from sofl.discrete import solve_discrete
from conftest import (
    edge_weight,
    line_centers_and_weights,
    maxblue_nored_naive,
    multiline_centers,
    random_instance,
    reference_allblue_minred_details,
    solve_tlines_fixed_radius,
)

GOLDEN_DIR = "golden"


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}" + (f" :: {detail}" if detail else "")
    print(line)
    assert ok, line


# --- criterion 1: oracle equivalence, general variant ------------------------


def test_c1_oracle_equivalence_general():
    t0 = time.perf_counter()
    for seed in range(200):
        n = 2 + seed % 7
        k = 1 + seed % 3
        inst = random_instance(seed, n, k)
        pl = solve_csofl(inst.points, 0.0, inst.k)
        ref = brute_csofl(inst.points, 0.0, inst.k)
        assert pl.total_weight == ref.weight, f"seed {seed}: weight mismatch"
        assert pl.radius == ref.radius, f"seed {seed}: radius mismatch"
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: solve_csofl == brute_csofl on 200 instances",
        elapsed < 60.0,
        f"200/200 exact, {elapsed:.1f}s",
    )


# --- criterion 2: concave Monge property --------------------------------------


def test_c2_concave_monge():
    violations = 0
    quadruples = 0
    for seed in range(100):
        inst = random_instance(seed, 6, 2)
        cands = candidate_radii_line(inst.points)
        lam = cands[1 + seed % (len(cands) - 1)].value if len(cands) > 1 else 0.0
        if lam <= 0:
            continue
        xs, w = line_centers_and_weights(inst.points, 0.0, lam, 2)
        m = len(xs)
        for i in range(m - 3):
            for j in range(i + 2, m - 1):
                lhs = edge_weight(i, j, xs, w, lam) + edge_weight(i + 1, j + 1, xs, w, lam)
                rhs = edge_weight(i, j + 1, xs, w, lam) + edge_weight(i + 1, j, xs, w, lam)
                quadruples += 1
                if not lhs <= rhs:
                    violations += 1
    report(
        "criterion 2: concave Monge inequality on sampled quadruples",
        quadruples >= 10_000 and violations == 0,
        f"{quadruples} quadruples, {violations} violations",
    )


# --- criterion 3: candidate-radius completeness -------------------------------


def _sweep_weight(px, py, w_arr, is_blue, lam, k, tol=DEFAULT_TOL):
    """Best fixed-radius weight from the same construction rules, vectorized."""
    if lam <= 0:
        return 0.0
    lam2 = lam * lam
    band = tol.band(lam2)
    dy2 = py * py
    reach = dy2 - lam2 <= band
    if not reach.any():
        return 0.0
    h = np.sqrt(np.maximum(0.0, lam2 - dy2[reach]))
    ends = np.concatenate([px[reach] - h, px[reach] + h])
    offs = 2.0 * lam * np.arange(-(k - 1), k)
    xs = (ends[:, None] + offs[None, :]).ravel()
    margin = 2.0 * k * lam
    xs = np.concatenate([xs, [ends.min() - margin, ends.max() + margin]])
    xs.sort()
    s = (px[None, :] - xs[:, None]) ** 2 + dy2[None, :] - lam2
    covered = np.where(is_blue[None, :], s <= band, s < -band)
    w = covered.astype(float) @ w_arr
    need = 2.0 * lam - tol.x_slack(2.0 * lam)
    p = np.searchsorted(xs, xs - need, side="right") - 1
    prev = np.zeros(len(xs) + 1)
    cur = np.zeros(len(xs))
    for _ in range(k):
        take = prev[p + 1] + w
        cur = np.maximum(np.maximum.accumulate(take), 0.0)
        prev = np.concatenate([[0.0], cur])
    return float(cur[-1])


def test_c3_candidate_completeness():
    worst_gap = 0.0
    radius_misses = []
    for seed in range(50):
        n = 2 + seed % 7
        k = 1 + seed % 2
        inst = random_instance(seed, n, k)
        px = np.array([p.x for p in inst.points])
        py = np.array([p.y for p in inst.points])
        w_arr = np.array([p.weight for p in inst.points])
        is_blue = np.array([p.is_blue for p in inst.points])
        cands = [c.value for c in candidate_radii_line(inst.points, k=k)]
        opt = solve_csofl(inst.points, 0.0, k)

        hi_end = max(cands) * 1.02 + 0.1
        grid = np.linspace(0.0, hi_end, 10_000)
        weights = [_sweep_weight(px, py, w_arr, is_blue, lam, k) for lam in grid]
        w_sweep = max(weights)
        worst_gap = max(worst_gap, w_sweep - opt.total_weight)
        assert w_sweep - opt.total_weight <= 1e-6, f"seed {seed}: sweep beats candidates"

        first = next(i for i, w in enumerate(weights) if w == w_sweep)
        lo = grid[first - 1] if first > 0 else 0.0
        hi = grid[first]
        for _ in range(60):  # local refinement of the first transition
            mid = (lo + hi) / 2.0
            if _sweep_weight(px, py, w_arr, is_blue, mid, k) >= w_sweep:
                hi = mid
            else:
                lo = mid
        nearest = min(abs(hi - c) for c in cands)
        if nearest > 1e-6:
            radius_misses.append((seed, k, float(hi), float(nearest)))
    # Radius clause: the first radius reaching the best weight is a k-aware candidate.
    report(
        "criterion 3: sweep never beats candidates; refined radius is a candidate",
        not radius_misses,
        f"weight clause 50/50 (max gap {worst_gap:.2e}); radius clause misses: "
        f"{radius_misses or 'none'}",
    )


# --- criterion 4: k=1 max-blue equivalences -----------------------------------


def test_c4_k1_equivalence():
    for seed in range(200):
        n = 2 + seed % 11
        inst = random_instance(seed, n, 1, red_fraction=0.45)
        naive = maxblue_nored_naive(inst.points)
        fast = maxblue_nored_fast(inst.points)
        ref = brute_k1_maxblue(inst.points)
        assert naive == fast == ref, f"seed {seed}: {naive} / {fast} / {ref}"

    import random as _random

    from conftest import B, R, red_onin_test

    rng = _random.Random(424242)
    checked = 0
    while checked < 100_000:
        p = (rng.uniform(-20, 20), rng.uniform(0.1, 10))
        q = (rng.uniform(-20, 20), rng.uniform(0.1, 10))
        r = (rng.uniform(-20, 20), rng.uniform(0.1, 10))
        if p[0] == q[0] or p[0] == r[0]:
            continue
        res = center_on_line_through(p, q, 0.0)
        if res is None:
            continue
        cx, rad = res
        claim = red_onin_test(B(0, *p), B(1, *q), R(2, *r))
        direct = dist2(r[0], r[1], cx, 0.0) <= rad * rad
        assert claim == direct
        checked += 1
    report(
        "criterion 4: fast == naive == oracle (200 instances), claim test on 1e5 triples",
        True,
        "all tuples equal; 100000 triples agree with direct distances",
    )


# --- criterion 5: all-blue min-red --------------------------------------------


def test_c5_allblue_minred():
    findings = 0
    for seed in range(200):
        n = 2 + seed % 9
        inst = random_instance(seed, n, 1, red_fraction=0.5)
        blues = [p for p in inst.points if p.is_blue]
        if not blues:
            continue
        cx, rad, count = allblue_minred(inst.points)
        d = Disk(cx, 0.0, rad)
        assert all(classify(b, d) is not Region.OUTSIDE for b in blues), f"seed {seed}"
        ref = brute_k1_allblue(inst.points)
        assert count == ref[2], f"seed {seed}: {count} != {ref[2]}"
        if reference_allblue_minred_details(inst.points).fvd_only_suboptimal:
            findings += 1
    report(
        "criterion 5: allblue_minred covers all blues and matches the oracle",
        True,
        f"200 seeds; documented finding: breakpoint-only candidates suboptimal on "
        f"{findings} instances (extra per-cell candidates repaired them)",
    )


# --- criterion 6: special-case reductions -------------------------------------


def test_c6_reductions():
    feasible_checked = 0
    seed = 0
    while feasible_checked < 100 and seed < 500:
        seed += 1
        n = 2 + seed % 7
        k = 1 + seed % 2
        inst = random_instance(seed, n, k, variant="allblue-minred")
        feasible, ref_red = brute_special_counts(inst.points, 0.0, k, "allblue-minred")
        res = solve_special(inst.points, 0.0, k, "allblue-minred")
        if not feasible:
            assert not res.all_blue_covered, f"seed {seed}"
            continue
        assert res.all_blue_covered, f"seed {seed}: blue left uncovered"
        assert res.red_covered == ref_red, f"seed {seed}: {res.red_covered} != {ref_red}"
        feasible_checked += 1
    assert feasible_checked == 100

    for seed in range(100):
        n = 2 + seed % 7
        k = 1 + seed % 2
        inst = random_instance(seed, n, k, variant="maxblue-nored")
        res = solve_special(inst.points, 0.0, k, "maxblue-nored")
        ref_blue = brute_special_counts(inst.points, 0.0, k, "maxblue-nored")
        assert res.red_covered == 0, f"seed {seed}: red covered"
        assert res.blue_covered == ref_blue, f"seed {seed}: {res.blue_covered} != {ref_blue}"
    report(
        "criterion 6: reductions reach oracle-optimal counts",
        True,
        "100 feasible all-blue instances and 100 max-blue instances match",
    )


# --- criterion 7: t-lines ------------------------------------------------------


def test_c7_tlines():
    for seed in range(100):
        inst = random_instance(seed, 2 + seed % 5, 1 + seed % 2)
        a = solve_csofl(inst.points, 0.0, inst.k)
        b = solve_tlines(inst.points, [0.0], inst.k)
        assert a.total_weight == b.total_weight and a.radius == b.radius, f"seed {seed}"

    done = 0
    seed = 0
    while done < 100 and seed < 600:
        seed += 1
        t = 2 + seed % 2
        k = 1 + seed % 3
        inst = random_instance(seed, 1 + seed % 3, k, variant="tlines", t=t)
        values = sorted({c.value for c in candidate_radii_tlines(inst.points, inst.lines)})
        for lam in values[1:3]:
            cents = multiline_centers(inst.points, inst.lines, lam, k)
            if not 0 < len(cents) <= 16:
                continue
            pl = solve_tlines_fixed_radius(inst.points, inst.lines, lam, k)
            coords = [(c.x, inst.lines[c.line_index]) for c in cents]
            ref = brute_fixed_radius(inst.points, coords, lam, k, max_k=3)
            assert pl.total_weight == ref.weight, f"seed {seed} lam {lam}"
            for a, b in combinations(pl.centers, 2):
                pa = (a.x, inst.lines[a.line_index])
                pb = (b.x, inst.lines[b.line_index])
                assert centers_compatible(pa, pb, lam)
            done += 1
    assert done >= 100
    report(
        "criterion 7: t-lines equals the line solver at t=1 and the oracle at fixed radius",
        True,
        f"100 t=1 equivalences; {done} fixed-radius comparisons, all pairwise feasible",
    )


# --- criterion 8: discrete convex-position DP ----------------------------------


def test_c8_discrete():
    for seed in range(200):
        s = 4 + seed % 7
        k = min(1 + seed % 4, s - 1)
        n = 2 + seed % 9
        inst = random_instance(seed, n, k, variant="discrete", s=s)
        pl = solve_discrete(inst.sites, inst.points, inst.k)
        ref = brute_discrete(inst.sites, inst.points, inst.k)
        assert pl.total_weight == ref.weight, f"seed {seed}"
        assert pl.radius == ref.radius, f"seed {seed}"
        for a, b in combinations(pl.centers, 2):
            assert centers_compatible((a.x, a.y), (b.x, b.y), pl.radius), f"seed {seed}"
    report(
        "criterion 8: discrete solver equals exhaustive search on 200 instances",
        True,
        "weights and radii exact; selections pairwise >= 2*lambda",
    )


# --- criterion 9: determinism, round-trip, golden corpus -----------------------


def test_c9_determinism_roundtrip_golden():
    import pathlib

    for variant, kw in (
        ("csofl", {}),
        ("tlines", {"t": 2}),
        ("discrete", {"s": 5}),
        ("maxblue-nored", {}),
    ):
        assert generate(11, 5, 1, variant, **kw) == generate(11, 5, 1, variant, **kw)

    golden = sorted(pathlib.Path(GOLDEN_DIR).glob("*.txt"))
    assert len(golden) == 30, f"expected 30 golden instances, found {len(golden)}"
    t0 = time.perf_counter()
    for path in golden:
        text = path.read_text()
        inst = parse_instance(text)
        assert parse_instance(format_instance(inst)) == inst, path.name
        rc = cli_main(["check", "--input", str(path)])
        assert rc == EXIT_OK, f"{path.name}: check exit {rc}"
    elapsed = time.perf_counter() - t0
    report(
        "criterion 9: generator determinism, canonical round-trip, golden corpus",
        elapsed < 120.0,
        f"30 golden instances green in {elapsed:.1f}s",
    )


# --- criterion 10: loose scaling sanity ----------------------------------------


def test_c10_scaling():
    times = {}
    for n in (20, 40, 80):
        inst = random_instance(42, n, 2)
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            solve_csofl(inst.points, 0.0, 2)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    r1 = times[40] / max(times[20], 1e-9)
    r2 = times[80] / max(times[40], 1e-9)
    report(
        "criterion 10: doubling n scales polynomially",
        r1 <= 20.0 and r2 <= 20.0,
        f"t(20)={times[20]:.3f}s t(40)={times[40]:.3f}s t(80)={times[80]:.3f}s "
        f"ratios {r1:.1f}x, {r2:.1f}x (<= 20x)",
    )
