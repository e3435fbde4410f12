import dataclasses
import importlib.util
import math
import pathlib
import random
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from sofl import discrete, multiline
from sofl.candidates import (
    KIND_BLUE,
    KIND_BLUE_BLUE,
    KIND_BLUE_RED,
    KIND_CHAIN,
    KIND_POINT_SITE,
    KIND_ZERO,
    MERGE_EPS,
    CandidateRadius,
    check_lines,
    line_contacts,
)
from sofl.discrete import _ChordSolver, canonical_ring
from sofl.geom import (
    DEFAULT_TOL,
    Color,
    ColoredPoint,
    DegenerateInputError,
    Disk,
    Region,
    TolerancePolicy,
    bitsets,
    center_on_line_through,
    centers_compatible,
    classify,
    compatible_table,
    coverage_mask,
    dist2,
    is_covered,
    merge_keep,
    point_order_sums,
    sums_are_exact,
)
from sofl.instance import SemanticError, generate, parse_instance
from sofl.klink import _coverage_rows, _reach, line_geometry, solve_radii, two_sided
from sofl.oracle import OracleResult
from sofl.placement import (LineCenter, Placement, ValidationFailureError, best_upto_two, in_chunks,
                            line_placement, selection_key, site_placement)
from sofl.variants_k1 import FarthestCellBreaks, pair_disk


def B(i, x, y, w=1.0):
    return ColoredPoint(i, x, y, Color.BLUE, w)


def R(i, x, y, w=-1.0):
    return ColoredPoint(i, x, y, Color.RED, w)


def increasing_root(f, lo, hi):
    """Bisection root of an increasing f with f(lo) < 0 <= f(hi)."""
    assert f(lo) < 0 <= f(hi)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


def empty_placement(lam=0.0):
    return Placement(lam, (), 0.0, frozenset(), frozenset())


def rescaled(sites, points, weights, scale):
    """A discrete instance with the given point weights, its coordinates and
    weights then multiplied by scale."""
    return ([(scale * x, scale * y) for x, y in sites],
            [dataclasses.replace(p, x=scale * p.x, y=scale * p.y, weight=scale * w)
             for p, w in zip(points, weights)])


def interval_ends(geo, lam, tol=DEFAULT_TOL):
    """Indices of the points within lam of the line of geo
    (`klink.LineGeometry`), and their influence intervals as l, r in point
    order."""
    lam2 = lam * lam
    reach, h = _reach(geo.dy2, lam2, tol.band(lam2))
    idx = reach.nonzero()[0]
    ends = np.empty(2 * len(idx))
    ends[0::2] = geo.px[idx] - h[idx]
    ends[1::2] = geo.px[idx] + h[idx]
    return idx, ends


def line_centers_and_weights(points, line_y, lam, k, tol=DEFAULT_TOL):
    """The candidate centers of one line and the disk weight at each, as
    `klink.solve_radii` builds them."""
    lams = np.array([lam])
    xs, m, *_, weights = _coverage_rows(line_geometry(points, line_y), lams, k, tol,
                                        bool(two_sided(lams, tol)[0]))
    return xs[0, : m[0]].tolist(), weights[0, : m[0]].tolist()


def edge_weight(i, j, xs, w, lam, tol=DEFAULT_TOL):
    """Link cost of the selection graph for the concave Monge check: +inf
    when centers i < j are too close, otherwise -(w[i] + w[j])."""
    if not i < j:
        raise ValueError("edge requires i < j")
    if xs[j] - xs[i] < 2.0 * lam - tol.x_slack(2.0 * lam):
        return math.inf
    return -(w[i] + w[j])


def random_instance(seed, n, k, variant="csofl", **kw):
    """Deterministic instance via the documented generator."""
    return parse_instance(generate(seed, n, k, variant, **kw))


def tol_edge_instance(seed):
    """The tolerance-edge fuzz of ROADMAP item 1: csofl with k = 2, n in
    [2, 5], x in [-4, 4], 60% blue, weights 1..9 and heights drawn from
    {1e-5, 1e-6, randint(1, 4)}, all from `random.Random(seed)`. The
    benchmark's `small-check` workload draws the same instances."""
    rng = random.Random(seed)
    rows = ["variant csofl", "k 2"]
    for _ in range(rng.randint(2, 5)):
        blue = rng.random() < 0.6
        x = rng.randint(-4, 4)
        y = rng.choice([1e-5, 1e-6, rng.randint(1, 4)])
        w = rng.randint(1, 9)
        rows.append(f"{'B' if blue else 'R'} {x} {y!r} {w if blue else -w}")
    return parse_instance("\n".join(rows) + "\n")


def _entry_key(e: CandidateRadius):
    return (e.value, -1 if e.line_index is None else e.line_index, e.kind, e.ids)


def _radius_keep(values):
    """`merge_keep` of ascending radii at the absolute MERGE_EPS."""
    vs = np.array(values, dtype=float)
    return merge_keep(vs, np.full(len(vs), MERGE_EPS))


def _sorted_unique(entries):
    """Entries sorted by `_entry_key`, less each one within MERGE_EPS of the
    last kept value."""
    entries = sorted(entries, key=_entry_key)
    keep = _radius_keep([e.value for e in entries])
    return [e for e, kept in zip(entries, keep.tolist()) if kept]


def _line_entries(points, line_y: float, line_index):
    entries = []
    for p in points:
        if p.is_blue:
            entries.append(CandidateRadius(abs(p.y - line_y), KIND_BLUE, (p.id,), line_index))
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            if not p.is_blue and not q.is_blue:
                continue  # red-red contacts never pin the radius
            b, other = (p, q) if p.is_blue else (q, p)
            try:
                res = center_on_line_through(b, other, line_y)
            except DegenerateInputError:
                continue
            if res is None:
                continue
            kind = KIND_BLUE_BLUE if other.is_blue else KIND_BLUE_RED
            entries.append(CandidateRadius(res[1], kind, (b.id, other.id), line_index))
    return entries


def _with_gains(standard, gains):
    """Merge ascending gains into sorted, MERGE_EPS-separated standard radii:
    a gain within MERGE_EPS of a standard radius is dropped, and the others
    are merged among themselves like any radius list."""
    s = np.array([-math.inf] + [e.value for e in standard] + [math.inf])
    g = np.array([e.value for e in gains], dtype=float)
    i = np.searchsorted(s, g)
    far = (g - s[i - 1] > MERGE_EPS) & (s[i] - g > MERGE_EPS)
    rest = [e for e, f in zip(gains, far.tolist()) if f]
    keep = _radius_keep([e.value for e in rest])
    rest = [e for e, kept in zip(rest, keep.tolist()) if kept]
    return sorted([*standard, *rest], key=lambda e: e.value)


def reference_candidate_radii_line(points, line_y: float = 0.0, k: int = 1):
    """`candidates.candidate_radii_line` built entry by entry with scalar
    `center_on_line_through` calls."""
    standard = _sorted_unique([CandidateRadius(0.0, KIND_ZERO)] + _line_entries(points, line_y, None))
    if k < 2:
        return standard
    return _with_gains(standard, line_contacts(points, line_y, k)[0])


def reference_candidate_radii_tlines(points, lines, k: int = 1):
    """`candidates.candidate_radii_tlines` as per-line scalar references,
    with each line's gains from its own `line_contacts` call."""
    out = [CandidateRadius(0.0, KIND_ZERO)]
    for li, ly in enumerate(check_lines(lines)):
        std = _sorted_unique(_line_entries(points, ly, li))
        gains = [dataclasses.replace(g, line_index=li) for g in line_contacts(points, ly, k)[0]]
        # a point sitting exactly on its line folds into the global zero
        out.extend(e for e in _with_gains(std, gains) if e.value > MERGE_EPS)
    out.sort(key=_entry_key)
    return out


def reference_candidate_radii_discrete(points, sites):
    """`candidates.candidate_radii_discrete` built entry by entry."""
    entries = [CandidateRadius(0.0, KIND_ZERO)]
    for p in points:
        for si, (sx, sy) in enumerate(sites):
            entries.append(CandidateRadius(math.sqrt(dist2(p.x, p.y, sx, sy)), KIND_POINT_SITE, (p.id, si)))
    return _sorted_unique(entries)


def radius_groups(entries) -> list[tuple[float, bool]]:
    """(value, standard) per MERGE_EPS group of candidate radii, ascending:
    each group's smallest value, standard when any member is not a chain
    gain (`candidates.tlines_radii` of a list)."""
    entries = sorted(entries, key=lambda e: e.value)
    vs = np.array([e.value for e in entries], dtype=float)
    starts = _radius_keep(vs).nonzero()[0]
    standard = np.array([e.kind != KIND_CHAIN for e in entries], dtype=bool)
    return list(zip(vs[starts].tolist(), np.logical_or.reduceat(standard, starts).tolist()))


def thin_ring_text(seed):
    """The thin-ring discrete family of ROADMAP item 3, as instance text:
    s in [6, 10] sites at sorted uniform angles a, each at
    (round(20 cos a), round(20 e sin a 5) / 5) with e drawn from
    {0.05, 0.1, 0.2, 0.35}, k in [3, min(5, s - 1)], and 4-12 points, 70%
    blue, |w| 1..9, x in [-22, 22] and y in [-6, 6], all from
    `random.Random(seed)`. The rounding makes some rings non-convex, which
    the parser rejects (`thin_ring_instance`)."""
    rng = random.Random(seed)
    s = rng.randint(6, 10)
    k = rng.randint(3, min(5, s - 1))
    e = rng.choice([0.05, 0.1, 0.2, 0.35])
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(s))
    rows = ["variant discrete", f"k {k}"]
    for a in angles:
        rows.append(f"site {round(20 * math.cos(a))!r} {round(20 * e * math.sin(a) * 5) / 5!r}")
    for _ in range(rng.randint(4, 12)):
        blue = rng.random() < 0.7
        w = rng.randint(1, 9)
        x, y = rng.randint(-22, 22), rng.randint(-6, 6)
        rows.append(f"{'B' if blue else 'R'} {x} {y} {w if blue else -w}")
    return "\n".join(rows) + "\n"


def thin_ring_instance(seed):
    """The parsed `thin_ring_text(seed)`, or None when its sites are not in
    strictly convex position."""
    try:
        return parse_instance(thin_ring_text(seed))
    except SemanticError:
        return None


def pool_instances(variant, *names):
    """The parsed instances of one variant in the benchmark pools of the
    given workloads, from `perfbench/workloads.py`, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    wl = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = wl  # its dataclasses look their module up
    spec.loader.exec_module(wl)
    return [parse_instance(wl.instance_text(generate, st, i))
            for name in names for st, i in wl.pool_keys(name) if st.variant == variant]


def wide_tlines_text(seed):
    """A t-lines instance as text, from `random.Random(seed)`: t cycles over
    1 and 4 and k over 1 and 4; heights are distinct integers in [-4, 4];
    3-7 points, or 2 when t = k = 4, whose search is the slowest, 65% blue,
    with y a line height plus one of 0, +-1e-6, 5e-7 or an integer in
    [-3, 3], x an integer in [-6, 6] plus 0, 0.5 or 1e-6, and |w| drawn from
    [0.1, 9.9] rounded to 1, 3 or 7 decimals."""
    rng = random.Random(seed)
    t = (1, 4)[seed % 2]
    k = (1, 4)[seed // 2 % 2]
    lines = sorted(rng.sample(range(-4, 5), t))
    rows = ["variant tlines", f"k {k}", "lines " + " ".join(str(y) for y in lines)]
    for _ in range(2 if t == k == 4 else rng.randint(3, 7)):
        y = rng.choice(lines) + rng.choice([0.0, 1e-6, -1e-6, 5e-7, float(rng.randint(-3, 3))])
        x = rng.randint(-6, 6) + rng.choice([0.0, 0.5, 1e-6])
        w = round(rng.uniform(0.1, 9.9), rng.choice([1, 3, 7]))
        blue = rng.random() < 0.65
        rows.append(f"{'B' if blue else 'R'} {x!r} {y!r} {w if blue else -w!r}")
    return "\n".join(rows) + "\n"


@pytest.fixture
def mk_points():
    return B, R


@dataclass(frozen=True)
class BisectorCounts:
    """Reds on-or-inside a pair circle, split by which side of the anchor
    the red lies on; n1 counts reds right of the anchor, n2 left of it."""

    n1: int
    n2: int


def red_onin_test(p, q, r, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Whether r lies on or inside the line-centered circle through p and q.

    Decided from bisector-crossing comparisons where they are defined; the
    vertical p-r configuration falls back to the direct distance test.
    """
    res = center_on_line_through(p, q, 0.0)
    if res is None:
        raise DegenerateInputError("circle through p and q is undefined")
    cx, rad = res
    direct = None
    try:
        direct = center_on_line_through(p, r, 0.0)
    except DegenerateInputError:
        pass
    if direct is None:
        s = dist2(r.x, r.y, cx, 0.0) - rad * rad
        return s <= tol.band(rad * rad)
    xpr = direct[0]
    if p.x < r.x:
        return cx >= xpr
    return cx <= xpr


def pair_red_counts(points, tol: TolerancePolicy = DEFAULT_TOL):
    """For every ordered blue pair (p, q), the split count of reds on or
    inside the circle through them. Quadratic reference implementation."""
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    out: dict[tuple[int, int], BisectorCounts] = {}
    for p in blues:
        for q in blues:
            if q.id == p.id:
                continue
            try:
                if center_on_line_through(p, q, 0.0) is None:
                    continue
            except DegenerateInputError:
                continue
            n1 = n2 = 0
            for r in reds:
                if r.x == p.x:
                    if red_onin_test(p, q, r, tol):
                        n1 += 1
                elif red_onin_test(p, q, r, tol):
                    if p.x < r.x:
                        n1 += 1
                    else:
                        n2 += 1
            out[(p.id, q.id)] = BisectorCounts(n1, n2)
    return out


# --- scalar references of the k = 1 kernels ----------------------------------


def _feasible_blue_count(disk: Disk, blues, reds, tol) -> int | None:
    """Blue count of a disk, or None when a red sits strictly inside."""
    for r in reds:
        if classify(r, disk, tol) is Region.INSIDE:
            return None
    return sum(1 for b in blues if classify(b, disk, tol) is not Region.OUTSIDE)


def maxblue_nored_naive(points, tol: TolerancePolicy = DEFAULT_TOL):
    """Scan all bisector and vertical candidates; keep the disk covering the
    most blues with no red strictly inside, smallest radius first, then
    smallest center. Returns (center_x, radius, blue_count) or None; a
    center of -0.0 is returned as 0.0, since the candidate order decides
    which of two equal keys is kept."""
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    disks = []
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            try:
                pc = pair_disk(p, q)
            except DegenerateInputError:
                continue
            if pc is not None:
                disks.append((pc.center_x, pc.radius))
    disks.extend((b.x, b.y) for b in blues)
    best = None
    best_key = None
    for cx, rad in disks:
        count = _feasible_blue_count(Disk(cx, 0.0, rad), blues, reds, tol)
        if not count:
            continue
        key = (-count, rad, cx)
        if best_key is None or key < best_key:
            best_key = key
            best = (cx, rad, count)
    return None if best is None else (best[0] + 0.0, best[1], best[2])


def reference_maxblue_nored_fast(points, tol: TolerancePolicy = DEFAULT_TOL):
    """`variants_k1.maxblue_nored_fast` as a scalar loop: per blue anchor p,
    the p-red bisector crossings sorted per side of p, then every candidate
    circle through p (p's own, then `pair_disk` with each blue and each
    red) counts its reds inside with two `bisect` calls."""
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    best = None
    best_key = None
    for p in blues:
        right_keys: list[float] = []
        left_keys: list[float] = []
        degen: list = []
        for r in reds:
            if r.x == p.x:
                degen.append(r)
                continue
            res = center_on_line_through(p, r, 0.0)
            if res is None:
                continue
            (right_keys if r.x > p.x else left_keys).append(res[0])
        right_keys.sort()
        left_keys.sort()

        cands: list[tuple[float, float]] = [(p.x, p.y)]  # circle through p alone
        for q in blues:
            if q.id == p.id:
                continue
            try:
                pc = pair_disk(p, q)
            except DegenerateInputError:
                continue
            if pc is not None:
                cands.append((pc.center_x, pc.radius))
        for r in reds:
            try:
                pc = pair_disk(p, r)
            except DegenerateInputError:
                continue
            if pc is not None:
                cands.append((pc.center_x, pc.radius))

        for cx, rad in cands:
            slack = tol.x_slack(cx)
            inside = bisect_left(right_keys, cx - slack)
            inside += len(left_keys) - bisect_right(left_keys, cx + slack)
            if inside:
                continue
            disk = Disk(cx, 0.0, rad)
            if any(classify(r, disk, tol) is Region.INSIDE for r in degen):
                continue
            count = sum(1 for b in blues if classify(b, disk, tol) is not Region.OUTSIDE)
            if not count:
                continue
            key = (-count, rad, cx)
            if best_key is None or key < best_key:
                best_key = key
                best = (cx, rad, count)
    return None if best is None else (best[0] + 0.0, best[1], best[2])


def _farthest_owner(blues, x: float):
    best = blues[0]
    best_d2 = dist2(x, 0.0, best.x, best.y)
    for b in blues[1:]:
        d2 = dist2(x, 0.0, b.x, b.y)
        if d2 > best_d2:
            best, best_d2 = b, d2
    return best


def _merged(xs, tol) -> list[float]:
    xs = np.sort(np.array(xs, dtype=float), kind="stable")
    return xs[merge_keep(xs, tol.x_slacks(xs))].tolist()


def reference_farthest_breaks(blues, tol: TolerancePolicy = DEFAULT_TOL):
    """`variants_k1.farthest_breaks` as a scalar loop: the merged blue-pair
    crossings, and each region's owner by a strict `>` scan at its
    midpoint."""
    crossings: list[float] = []
    for i, p in enumerate(blues):
        for q in blues[i + 1:]:
            try:
                res = center_on_line_through(p, q, 0.0)
            except DegenerateInputError:
                continue
            if res is not None:
                crossings.append(res[0])
    merged = _merged(crossings, tol)
    if not merged:
        return FarthestCellBreaks(_farthest_owner(blues, 0.0).id, ())
    probes = [merged[0] - 1.0]
    probes += [(a + b) / 2.0 for a, b in zip(merged, merged[1:])]
    probes.append(merged[-1] + 1.0)
    owners = [_farthest_owner(blues, x).id for x in probes]
    breaks = []
    for i in range(len(merged)):
        if owners[i + 1] != owners[i]:
            breaks.append((merged[i], owners[i + 1]))
    return FarthestCellBreaks(owners[0], tuple(breaks))


def _covering_eval(x: float, blues, reds, tol):
    r2 = max(dist2(x, 0.0, b.x, b.y) for b in blues)
    rad = math.sqrt(r2)
    disk = Disk(x, 0.0, rad)
    count = sum(1 for r in reds if classify(r, disk, tol) is Region.INSIDE)
    return (count, rad, x)


@dataclass(frozen=True)
class AllBlueOutcome:
    """The k = 1 all-blue answer, the answer of the farthest-map breakpoints
    alone (None when there are none), and whether that one has more reds."""

    best: tuple[float, float, int]
    fvd_only: tuple[float, float, int] | None
    fvd_only_suboptimal: bool


def reference_allblue_minred_details(points, tol: TolerancePolicy = DEFAULT_TOL):
    """`variants_k1.allblue_minred` as a scalar loop over the owner cells of
    `reference_farthest_breaks` and their candidate centers, with the
    breakpoint-only answer beside it."""
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    fb = reference_farthest_breaks(blues, tol)
    by_id = {p.id: p for p in points}
    bounds = [-math.inf] + [x for x, _ in fb.breaks] + [math.inf]
    owners = [fb.first_owner] + [owner for _, owner in fb.breaks]
    cand_xs: list[float] = [x for x, _ in fb.breaks]
    for ci, owner_id in enumerate(owners):
        lo, hi = bounds[ci], bounds[ci + 1]
        owner = by_id[owner_id]
        cand_xs.append(min(max(owner.x, lo), hi))
        for r in reds:
            try:
                res = center_on_line_through(owner, r, 0.0)
            except DegenerateInputError:
                continue
            if res is None:
                continue
            slack = tol.x_slack(res[0])
            if lo - slack <= res[0] <= hi + slack:
                cand_xs.append(res[0])
    best = min(_covering_eval(x, blues, reds, tol) for x in _merged(cand_xs, tol))
    fvd_only = None
    if fb.breaks:
        fvd_only = min(_covering_eval(x, blues, reds, tol) for x, _ in fb.breaks)
    suboptimal = fvd_only is not None and fvd_only[0] > best[0]
    return AllBlueOutcome(best[::-1], fvd_only[::-1] if fvd_only else None, suboptimal)


# --- the dense single-radius line kernel -------------------------------------


def _sorted_merge(xs, tol):
    """xs sorted stably, keeping a value when it is farther than the larger
    of the two slacks from the last value kept."""
    kept = []
    for x in sorted(xs):
        if not kept or x - kept[-1] > max(tol.x_slack(x), tol.x_slack(kept[-1])):
            kept.append(x)
    return kept


def kernel_sides(lam, tol=DEFAULT_TOL) -> bool:
    """Whether the kernels chain both ways at radius lam (`klink.two_sided`)."""
    return bool(lam > 0 and two_sided(np.array([lam]), tol)[0])


def reference_line_centers(ends, lam, k, tol=DEFAULT_TOL, both=True):
    """`klink._centers` of one radius as a scalar loop over the interval
    ends l, r, l, r, ...: each end followed by its shifts by +2*lam, ...,
    +2(k - 1)*lam, with both also by -2*lam, ..., -2(k - 1)*lam, then the
    two sentinels, merged by `_sorted_merge`; with no ends, the two
    sentinels 0 and 2*k*lam, unmerged."""
    margin = 2.0 * k * lam
    ends = list(ends)
    if not ends:
        return [0.0, margin]
    shifts = [j for j in range(1 - k if both else 1, k) if j]
    raw = [x for e in ends for x in [e] + [e + (2.0 * j) * lam for j in shifts]]
    raw += [min(ends[0::2]) - margin, max(ends[1::2]) + margin]
    return _sorted_merge(raw, tol)


def _reference_predecessors(xs, lam, tol):
    need = 2.0 * lam - tol.x_slack(2.0 * lam)
    i = np.arange(len(xs))
    p = np.minimum(np.searchsorted(xs, xs - need, side="right") - 1, i - 1)
    while True:
        up = (xs - xs[p + 1] >= need) & (p + 1 < i)
        down = (xs - xs[p] < need) & (p >= 0)
        if not (up | down).any():
            return p
        p = p + up - down


def _reference_dp_taken(w, p, k):
    radix = k + 2
    m = len(w)
    prev_w = np.zeros(m + 1)
    prev_r = np.full(m + 1, k + 1)
    take_w = np.zeros(m + 1)
    take_r = np.full(m + 1, k + 1)
    rises = np.zeros(m + 1, dtype=np.intp)
    layers = []
    for _ in range(k):
        np.add(prev_w[p + 1], w, out=take_w[1:])
        np.subtract(prev_r[p + 1], 1, out=take_r[1:])
        prev_w = np.maximum.accumulate(take_w)
        np.cumsum(prev_w[1:] > prev_w[:-1], out=rises[1:])
        key = rises * radix + np.where(take_w == prev_w, take_r, 0)
        best = np.maximum.accumulate(key)
        prev_r = best % radix
        layers.append(key[1:] > best[:-1])
    return layers


def reference_solve_radius(geo, lam, k, tol=DEFAULT_TOL, both=True):
    """One radius of the line kernel as the dense kernel `klink.solve_radii`
    replaced: a points x centers coverage mask, weights summed in point
    order down its columns, and one DP pass per budget layer over one
    radius, on the centers of `reference_line_centers`. Shifted both ways
    they are a superset of the kernel's rightward ones, up to which
    near-duplicate is kept; with both = `kernel_sides(lam, tol)` they are
    the kernel's own."""
    if lam <= 0.0:
        return 0.0, ()
    lam2 = lam * lam
    idx = (geo.dy2 - lam2 <= tol.band(lam2)).nonzero()[0]
    if not len(idx):
        return 0.0, ()
    h = np.sqrt(np.maximum(0.0, lam2 - geo.dy2[idx]))
    ends = np.empty(2 * len(idx))
    ends[0::2] = geo.px[idx] - h
    ends[1::2] = geo.px[idx] + h
    xs = np.array(reference_line_centers(ends, lam, k, tol, both))
    s = geo.px[idx][:, None] - xs[None, :]
    s *= s
    s += geo.dy2[idx][:, None]
    s -= lam2
    cov = coverage_mask(s, geo.blue[idx][:, None], tol.band(lam2))
    w = geo.w[idx]
    p = _reference_predecessors(xs, lam, tol)
    chosen = []
    i = len(p) - 1
    for taken in reversed(_reference_dp_taken(point_order_sums(cov, w), p, k)):
        hits = taken[: i + 1].nonzero()[0]
        if not len(hits):
            break
        i = int(hits[-1])
        chosen.append(i)
        i = int(p[i])
    chosen.reverse()
    if not chosen:
        return 0.0, ()
    union = cov[:, chosen].any(axis=1, keepdims=True)
    return float(point_order_sums(union, w)[0]), tuple(xs[chosen].tolist())


# --- the per-radius t-lines kernel -------------------------------------------


def reference_tlines_candidates(geos, lines, lam, k, tol=DEFAULT_TOL, both=True):
    """`multiline._candidates` of one radius as a scalar loop: per line,
    its endpoints, k - 1 generations of hops from every value of the
    generation before (+2*lam on the same line, then +sqrt(4*lam^2 - dy^2)
    on each line in reach, ascending; with both, then the same hops
    leftward), and the two sentinels, merged by `_sorted_merge`; x and line
    index arrays sorted by (x, line). Hopping both ways gives a superset of
    the kernel's rightward candidates, up to which near-duplicate is kept;
    with both = `kernel_sides(lam, tol)` they are the kernel's own."""
    per_line = [[] for _ in lines]
    gen = [(x, li) for li, geo in enumerate(geos) for x in interval_ends(geo, lam, tol)[1].tolist()]
    ends = [x for x, _ in gen]
    need2 = 4.0 * lam * lam
    for _ in range(k):
        nxt = []
        for x, li in gen:
            per_line[li].append(x)
            hops = [(2.0 * lam, li)]
            for lj, ly in enumerate(lines):
                dy2 = (ly - lines[li]) ** 2
                if lj != li and dy2 - need2 <= tol.band(need2):
                    hops.append((math.sqrt(max(0.0, need2 - dy2)), lj))
            nxt += [(x + sign * off, lj) for sign in ((1.0, -1.0) if both else (1.0,))
                    for off, lj in hops]
        gen = nxt
    margin = 2.0 * k * lam
    for row in per_line:
        row += [min(ends) - margin, max(ends) + margin] if ends else [0.0, margin]
    got = sorted((x, li) for li, row in enumerate(per_line) for x in _sorted_merge(row, tol))
    return np.array([x for x, _ in got]).reshape(-1), np.array([li for _, li in got], dtype=int)


def _reference_coverage_table(geos, xs, li, lam, tol):
    px, blue, w = geos[0].px, geos[0].blue, geos[0].w
    r2 = lam * lam
    cov = np.empty((len(px), len(xs)), dtype=bool)
    for i, geo in enumerate(geos):
        on = li == i
        s = px[:, None] - xs[on][None, :]
        s *= s
        s += geo.dy2[:, None]
        s -= r2
        cov[:, on] = coverage_mask(s, blue[:, None], tol.band(r2))
    order = np.flatnonzero(point_order_sums(cov, w) > 0)
    cov = cov[:, order]
    gains = point_order_sums(cov & (w > 0)[:, None], w).tolist()
    return order, gains, bitsets(cov.T)


def _reference_compat_table(cx, cy, lam, tol):
    dx = cx[:, None] - cx[None, :]
    dy = cy[:, None] - cy[None, :]
    same = cy[:, None] == cy[None, :]
    return bitsets(compatible_table(same, np.abs(dx), dx * dx + dy * dy, lam, tol))


def _reference_search_best(geos, lines, lam, k, xs, li, tol):
    order, gains, masks = _reference_coverage_table(geos, xs, li, lam, tol)
    point_w = geos[0].w.tolist()
    positive = sum(1 << i for i, x in enumerate(point_w) if x > 0)
    keys = list(zip(xs[order].tolist(), li[order].tolist()))
    m = len(order)
    compat = []
    top = [[0.0] * k] * (m + 1)
    if k > 1:
        compat = _reference_compat_table(xs[order], np.array(lines)[li[order]], lam, tol)
        largest = []
        for pos in range(m - 1, -1, -1):
            largest = sorted(largest + [gains[pos]], reverse=True)[: k - 1]
            top[pos] = [sum(largest[:b]) for b in range(k)]
    weights = {}

    def union_weight(mask):
        total = weights.get(mask)
        if total is None:
            total = 0.0
            rest = mask
            while rest:
                low = rest & -rest
                total += point_w[low.bit_length() - 1]
                rest ^= low
            weights[mask] = total
        return total

    best_key = selection_key(0.0, [])
    best_ids = ()

    def rec(chosen, mask, allowed):
        nonlocal best_key, best_ids
        budget = k - len(chosen) - 1
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            at = low.bit_length() - 1
            chosen.append(at)
            nxt = mask | masks[at]
            w = union_weight(nxt)
            if -w <= best_key[0]:
                key = selection_key(w, [keys[i] for i in chosen])
                if key < best_key:
                    best_key = key
                    best_ids = tuple(chosen)
            rest = allowed & compat[at] if budget else 0
            # An extension needs a positive point no chosen disk covers,
            # and the best key it could reach, weight w + top with one
            # more center, must not lose to the incumbent's.
            fresh = any(masks[j] & positive & ~nxt for j in range(at + 1, m))
            if rest and fresh and (-(w + top[at + 1][budget]), len(chosen) + 1) <= best_key[:2]:
                rec(chosen, nxt, rest)
            chosen.pop()

    rec([], 0, (1 << m) - 1)
    return -best_key[0], order[list(best_ids)]


def reference_tlines_solve_radius(geos, lines, lam, k, tol=DEFAULT_TOL, both=True):
    """One radius of `multiline._solve_radii` as the per-radius kernel it
    replaced: candidates (`reference_tlines_candidates`, hopping both ways
    or as both says), a dense coverage table and a full compatibility
    table of one radius, sorted-list top-gain bounds, and a DFS with a
    union-weight memo of its own, which prunes as `_search` does."""
    if lam <= 0.0:
        return 0.0, ()
    xs, li = reference_tlines_candidates(geos, lines, lam, k, tol, both)
    weight, ids = _reference_search_best(geos, lines, lam, k, xs, li, tol)
    chosen = tuple(zip(xs[ids].tolist(), li[ids].tolist()))
    for i, (ax, al) in enumerate(chosen):
        for bx, bl in chosen[i + 1:]:
            if not centers_compatible((ax, lines[al]), (bx, lines[bl]), lam, tol):
                raise ValidationFailureError(f"overlapping selection {(ax, al)} / {(bx, bl)}")
    return weight, chosen


def reference_pair_tables(geo, lines, lams, xs, row, li, k, tol=DEFAULT_TOL):
    """`multiline._tables` at k = 2 as it was before budgets of two searched
    their partners: every compatible pair of searched centers of a row,
    from the blocks of `multiline._pairs`, weighed by the point-order sum
    over the union of its two mask columns (an n x pairs table per block)
    and folded by `best_upto_two`."""
    assert k == 2
    cov = multiline._coverage(geo, lams, xs, row, li, tol)
    sums = point_order_sums(cov, geo.w)
    order = np.flatnonzero(sums > 0)
    cov, row = cov[:, order], row[order]
    ys = np.array(lines)[li[order]]
    pairs = ((i, j, point_order_sums(cov[:, i] | cov[:, j], geo.w))
             for i, j in multiline._pairs(xs[order], ys, row, lams, tol, max(8, len(geo.w))))
    return order, best_upto_two(len(lams), row, sums[order], pairs), None


def reference_brute_fixed_radius(points, centers, lam, k, tol=DEFAULT_TOL):
    """`oracle.brute_fixed_radius` as it was before its coverage became one
    table and its tie key lazy: masks from scalar `is_covered` calls, and
    the full (weight, count, centers) key built at every node."""
    centers = sorted(centers)
    n = len(points)
    masks = []
    for x, y in centers:
        d = Disk(x, y, lam)
        m = 0
        for i, p in enumerate(points):
            if is_covered(p, d, tol):
                m |= 1 << i
        masks.append(m)
    point_w = [p.weight for p in points]
    best_key = (0.0, 0, ())
    best = ()

    def rec(start, chosen, mask):
        nonlocal best_key, best
        key = (
            -sum(point_w[i] for i in range(n) if mask >> i & 1),
            len(chosen),
            tuple(sorted((centers[i] for i in chosen), reverse=True)),
        )
        if key < best_key:
            best_key = key
            best = tuple(chosen)
        if len(chosen) == k:
            return
        for i in range(start, len(centers)):
            if all(centers_compatible(centers[i], centers[j], lam, tol) for j in chosen):
                chosen.append(i)
                rec(i + 1, chosen, mask | masks[i])
                chosen.pop()

    rec(0, [], 0)
    chosen_centers = tuple(centers[i] for i in best)
    disks = [Disk(x, y, lam) for x, y in chosen_centers]
    weight = 0.0
    nb = nr = 0
    for p in points:
        if any(is_covered(p, d, tol) for d in disks):
            weight += p.weight
            if p.is_blue:
                nb += 1
            else:
                nr += 1
    return OracleResult(weight, lam, chosen_centers, (nb, nr))


def discrete_pair_table(geo, lam, tol=DEFAULT_TOL):
    """ok[i][j]: `centers_compatible` of sites i and j at radius lam, in the
    same float operations (linear in x at the same height), as lists."""
    return compatible_table(geo.same, geo.adx, geo.d2, lam, tol).tolist()


def _reference_best_upto_two(ring, w, ok, k):
    """Site ids and `selection_key` of the best of the empty selection, the
    single sites and, for k >= 2, the compatible pairs, a pair weighing the
    sum of its site weights."""
    sets = [((), 0.0)] + [((i,), wi) for i, wi in enumerate(w)]
    if k >= 2:
        sets += [((i, j), wi + w[j]) for i, wi in enumerate(w)
                 for j in range(i + 1, len(w)) if ok[i][j]]
    top = max(v for _, v in sets)
    key, ids = min((selection_key(top, [ring[i] for i in ids]), ids) for ids, v in sets if v == top)
    return ids, key


def reference_discrete_solve_radius(geo, lam, k, tol=DEFAULT_TOL):
    """One radius of `discrete._solve_radii` of a `discrete._Geometry` as
    the per-radius kernel the chunk kernel replaced: its own coverage mask,
    site weights and pair table, the best of at most two sites, and the
    chord recursion from every ordered anchor root (a, b, apex), compatible
    pairwise; (0.0, ()) at lam <= 0."""
    if lam <= 0:
        return 0.0, ()
    ring = geo.ring
    s = len(ring)
    r2 = lam * lam
    cov = coverage_mask(geo.pd2 - r2, geo.blue[:, None], tol.band(r2))  # `is_covered`, point x site
    w = point_order_sums(cov, geo.w).tolist()
    ok = discrete_pair_table(geo, lam, tol)
    best_ids, best_key = _reference_best_upto_two(ring, w, ok, k)
    if k >= 3 and s >= 3:
        dp = _ChordSolver(w, ok, geo)
        for a in range(s):
            for b in range(s):
                if a == b or not ok[a][b]:
                    continue
                for apex in geo.arcs[a][b]:
                    if not (ok[a][apex] and ok[b][apex]):
                        continue
                    val = w[a] + w[apex] + w[b] + dp.gamma(a, b, apex, k - 3)
                    if -val > best_key[0]:
                        continue  # cannot tie or win
                    ids = [a, apex, b]
                    dp.collect(a, b, apex, k - 3, ids)
                    key = selection_key(val, [ring[i] for i in ids])
                    if key < best_key:
                        best_key = key
                        best_ids = tuple(sorted(ids))
    chosen = tuple(sorted(best_ids))
    for a, b in combinations(chosen, 2):
        if not ok[a][b]:
            raise ValidationFailureError(f"sites {a} and {b} chosen closer than 2 * {lam!r}")
    union = cov[:, list(chosen)].any(axis=1, keepdims=True)
    return float(point_order_sums(union, geo.w)[0]), chosen


def reference_blue_bound(geo, lams, k, tol=DEFAULT_TOL):
    """`discrete._blue_bound` as per-radius tables give it: per chunk of
    radii the coverage, site blue weights in point order and pair table of
    `discrete._tables`, and the pairwise compatible triples of
    `discrete._thirds`; per radius the sum of the j largest site weights,
    j = k, 2 or 1 as three, two or one sites fit pairwise, plus the same
    rounding margin; 0.0 at lam <= 0."""
    n, _ = geo.pd2.shape
    wb = np.where(geo.blue, geo.w, 0.0)
    margin = 0.0
    if not sums_are_exact(geo.w):
        margin = (k + 1) * (n + k + 1) * float(np.abs(geo.w).sum()) * 2.0**-52

    def chunk(lams):
        _, sums, ok = discrete._tables(geo, lams, tol, wb)
        at, _, _, third = discrete._thirds(geo, ok)
        cap = np.ones(len(lams), dtype=int)
        cap[at] = min(k, 2)
        cap[at[third.any(axis=1)]] = k
        return [(sum(sorted(row)[-j:]) + margin, ()) for row, j in zip(sums.tolist(), cap.tolist())]

    return [b for b, _ in in_chunks(lams, discrete._cells(geo, k), chunk)]


# --- per-radius entries ------------------------------------------------------
# Each solver's radius kernel at one given radius, as a `Placement`; the
# solvers themselves only call their kernels from their radius loops.


def solve_fixed_radius(points, line_y: float, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Best placement of at most k radius-lam disks centered on one line."""
    _, xs = solve_radii(line_geometry(points, line_y), [lam], k, tol)[0]
    return line_placement(points, [line_y], max(lam, 0.0), tuple(LineCenter(x) for x in xs), tol)


def multiline_centers(points, lines, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL):
    """Candidate centers across lines (`multiline._candidates` of one
    radius) as `LineCenter`s."""
    lines = check_lines(lines)
    if lam <= 0:
        raise ValueError("candidate centers require a positive radius")
    geo = multiline._stacked([line_geometry(points, ly) for ly in lines])
    lams = np.array([lam], dtype=float)
    xs, _, li = multiline._candidates(geo, lines, lams, k, tol, bool(two_sided(lams, tol)[0]))
    return [LineCenter(x, i) for x, i in zip(xs.tolist(), li.tolist())]


def solve_tlines_fixed_radius(points, lines, lam: float, k: int,
                              tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Best placement of at most k radius-lam disks centered on the lines."""
    lines = check_lines(lines)
    _, chosen = multiline._solve_radii([line_geometry(points, ly) for ly in lines], lines, [lam], k, tol)[0]
    return line_placement(points, lines, max(lam, 0.0), tuple(LineCenter(*c) for c in chosen), tol)


def solve_discrete_fixed_radius(sites, points, lam: float, k: int, tol: TolerancePolicy = DEFAULT_TOL) -> Placement:
    """Best placement of at most k radius-lam disks at the given ring sites."""
    ring = canonical_ring(sites)
    if k < 1:
        raise ValueError("k must be at least 1")
    _, chosen = discrete._solve_radii(discrete._geometry(ring, points), [lam], k, tol)[0]
    return site_placement(points, ring, max(lam, 0.0), chosen, tol)
