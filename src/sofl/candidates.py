"""Enumeration of the finite candidate radius sets for each placement setting.

A positive optimal radius is always pinned by a critical contact. For one
disk on a line that is a single blue point at its height over the line, or
a blue-blue or blue-red pair equidistant from some line center; these are
the standard radii. With k >= 2 disks on a line a chain can pin it too: a
run of exactly touching disks whose leftmost disk is held by one point and
whose rightmost is held by another (see `line_contacts`), which gives
O(n^2 k) more radii. In the discrete setting the radius is pinned by a
demand point on the boundary of a disk at a candidate site. Red-red contacts
of a single disk never pin the radius because such a disk can shrink until a
blue point takes over, and site-site half distances cannot pin it either.

Radius lists are sorted and merged by `geom.merge_keep` at the absolute
MERGE_EPS, whatever the tolerance policy, so the generators take none: a
radius within MERGE_EPS of the last kept one is dropped.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    Color,
    DegenerateInputError,
    center_on_line_through,
    dist2,
    merge_keep,
)

__all__ = [
    "CandidateRadius",
    "candidate_radii_line",
    "candidate_radii_tlines",
    "candidate_radii_discrete",
    "line_contacts",
    "radius_groups",
    "check_lines",
    "KIND_ZERO",
    "KIND_BLUE",
    "KIND_BLUE_BLUE",
    "KIND_BLUE_RED",
    "KIND_POINT_SITE",
    "KIND_CHAIN",
    "MERGE_EPS",
]

MERGE_EPS = 1e-9  # absolute merge tolerance for near-equal radii

KIND_ZERO = "zero"
KIND_BLUE = "single-blue"
KIND_BLUE_BLUE = "blue-blue"
KIND_BLUE_RED = "blue-red"
KIND_POINT_SITE = "point-site"
KIND_CHAIN = "chain"


@dataclass(frozen=True)
class CandidateRadius:
    value: float
    kind: str
    ids: tuple[int, ...] = ()
    line_index: int | None = None


def _entry_key(e: CandidateRadius):
    return (e.value, -1 if e.line_index is None else e.line_index, e.kind, e.ids)


def _radius_keep(values):
    """`geom.merge_keep` of ascending radii at the absolute MERGE_EPS."""
    vs = np.array(values, dtype=float)
    return merge_keep(vs, np.full(len(vs), MERGE_EPS))


def _sorted_unique(entries):
    """Entries sorted by `_entry_key`, less each one within MERGE_EPS of the
    last kept value."""
    entries = sorted(entries, key=_entry_key)
    keep = _radius_keep([e.value for e in entries])
    return [e for e, kept in zip(entries, keep.tolist()) if kept]


def radius_groups(entries) -> list[tuple[float, bool]]:
    """(value, standard) per MERGE_EPS group of candidate radii, ascending:
    each group's smallest value, standard when any member is not a chain
    gain. A group starts at each value `_radius_keep` keeps."""
    entries = sorted(entries, key=lambda e: e.value)
    vs = np.array([e.value for e in entries], dtype=float)
    starts = _radius_keep(vs).nonzero()[0]
    standard = np.array([e.kind != KIND_CHAIN for e in entries], dtype=bool)
    return list(zip(vs[starts].tolist(), np.logical_or.reduceat(standard, starts).tolist()))


def check_lines(lines) -> list[float]:
    """Line heights as floats; raises ValueError unless there is at least
    one and they are strictly increasing."""
    ys = [float(y) for y in lines]
    if not ys:
        raise ValueError("at least one line is required")
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise ValueError("lines must be strictly increasing")
    return ys


def _line_entries(points, line_y: float, line_index: int | None):
    entries = []
    for p in points:
        if p.is_blue:
            entries.append(
                CandidateRadius(abs(p.y - line_y), KIND_BLUE, (p.id,), line_index)
            )
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
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


def candidate_radii_line(points, line_y: float = 0.0, k: int = 1):
    """Sorted, deduplicated candidate radii for at most k disks on one line.

    Always contains zero; empty input yields exactly that. The standard
    radii come first on ties; with k >= 2 the gains of `line_contacts`
    follow as KIND_CHAIN entries (k = 1 adds none).
    """
    entries = [CandidateRadius(0.0, KIND_ZERO)]
    entries += _line_entries(points, line_y, None)
    standard = _sorted_unique(entries)
    if k < 2:
        return standard
    return with_gains(standard, line_contacts(points, line_y, k)[0])


def with_gains(standard, gains):
    """Merge ascending gains into sorted, MERGE_EPS-separated standard radii:
    a gain within MERGE_EPS of a standard radius is dropped, and the others
    are merged among themselves like any radius list. The result stays
    MERGE_EPS-separated, and a standard radius is never displaced by a gain."""
    s = np.array([-math.inf] + [e.value for e in standard] + [math.inf])
    g = np.array([e.value for e in gains], dtype=float)
    i = np.searchsorted(s, g)
    far = (g - s[i - 1] > MERGE_EPS) & (s[i] - g > MERGE_EPS)
    rest = [e for e, f in zip(gains, far.tolist()) if f]
    keep = _radius_keep([e.value for e in rest])
    rest = [e for e, kept in zip(rest, keep.tolist()) if kept]
    return sorted([*standard, *rest], key=lambda e: e.value)


# Row-normalized units: an eigenvalue within _ROOT_NEAR of the real axis,
# and not below a point's height by more, is polished; it is kept if the
# unsquared slack then is within _ROOT_RESIDUAL of zero. Squaring makes
# roots multiple (points at equal heights give triple ones), and the
# eigenvalues of a root of multiplicity j spread by about eps**(1/j).
_ROOT_NEAR = 1e-3
_ROOT_RESIDUAL = 1e-9
_NEWTON_STEPS = 6
_SIDE = 1e-7  # relative offset at which a root's two sides are compared


def _slack(lam, d, ya, yb, sa, sb, two_m):
    """R_b - L_a - 2*m*lam and its derivative in lam (h is taken as 0 below
    a point's height, and is exactly 0 at it)."""
    ha = np.sqrt(np.maximum((lam - ya) * (lam + ya), 0.0))
    hb = np.sqrt(np.maximum((lam - yb) * (lam + yb), 0.0))
    fp = sa * lam / np.maximum(ha, 1e-300) + sb * lam / np.maximum(hb, 1e-300) - two_m
    return d + sa * ha + sb * hb - two_m * lam, fp


def _real_roots(coef):
    """Row index and real part of each nearly real root, batched.

    coef holds one polynomial per row, highest power first, with a nonzero
    leading coefficient; the roots are the companion matrices' eigenvalues.
    """
    rows, deg = coef.shape[0], coef.shape[1] - 1
    if rows == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    comp = np.zeros((rows, deg, deg))
    comp[:, 0, :] = -coef[:, 1:] / coef[:, :1]
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    ev = np.linalg.eigvals(comp)
    real = np.abs(ev.imag) <= _ROOT_NEAR * (1.0 + np.abs(ev.real))
    row, col = np.nonzero(real)
    return row, ev.real[row, col]


def line_contacts(points, line_y: float = 0.0, k: int = 1):
    """Radii at which a run of exactly touching disks starts or stops fitting.

    With h_p(lam) = sqrt(lam^2 - (y_p - line_y)^2), the leftmost disk of a
    run of m+1 touching disks is held from the left by L_a = x_a - h_a for a
    blue a it covers, or x_a + h_a for a red a it keeps outside; the
    rightmost is held from the right by R_b = x_b + h_b for a blue b, or
    x_b - h_b for a red b. The run fits while the slack R_b - L_a - 2*m*lam
    is nonnegative. A contact is a root of the slack with
    lam >= max(|y_a - line_y|, |y_b - line_y|): a gain where the slack grows
    through zero, so a placement becomes feasible there, and a loss where it
    shrinks; a root where the slack only touches zero is both.

    Returns (gains, losses): the gains for m = 1..k-1 as KIND_CHAIN entries
    with ids (a, b, m), sorted by value, and the losses for m = 0..k-1 as
    sorted floats. Contacts at m = 0 that involve a blue are the standard
    pair radii and are left out. Both lists are empty for k < 2.

    Two squarings turn a slack root into a root of a quartic in lam (a cubic
    for m = 1, a quadratic in lam^2 for m = 0); every row is normalized to
    unit scale, solved in one batched eigenvalue pass, polished by Newton
    steps on the unsquared slack, and kept only if that slack vanishes.

    Results are cached per geometry (ids, coordinates and colours, the
    lines and k), not per weight: `sofl check` asks for the same contacts in
    the solver and the oracle, and the reweighted special variants share
    them. This is the one-line case of `_contacts`, which solves the
    contacts of every line of a t-lines instance in one pass.
    """
    ((gains, losses),) = _contacts(_points_key(points), (float(line_y),), k)
    return list(gains), list(losses)


def _points_key(points):
    """The cache key of the points in `_contacts`: (id, x, y, colour) each."""
    return tuple((p.id, p.x, p.y, p.color) for p in points)


@functools.lru_cache(maxsize=16)
def _contacts(pts, lines, k):
    """`line_contacts` of the points on each of the lines, in one pass, as
    (gains, losses) tuples per line. Every line has the same pair rows,
    line after line; each row is solved and polished on its own, so a
    line's contacts are those of a pass on that line alone."""
    n, t = len(pts), len(lines)
    if k < 2 or n < 2:
        return (((), ()),) * t
    ids = np.array([p[0] for p in pts])
    x = np.array([p[1] for p in pts], dtype=float)
    y = np.abs(np.array([[float(p[2]) - ly for p in pts] for ly in lines])).ravel()
    blue = np.array([p[3] is Color.BLUE for p in pts])
    sign = np.where(blue, 1.0, -1.0)
    pa, pb = np.nonzero(~np.eye(n, dtype=bool))
    red_red = ~blue[pa] & ~blue[pb]
    ia = np.concatenate(([pa[red_red]] + [pa] * (k - 1)) * t)
    ib = np.concatenate(([pb[red_red]] + [pb] * (k - 1)) * t)
    m = np.concatenate(
        ([np.zeros(int(red_red.sum()), dtype=int)]
         + [np.full(len(pa), j) for j in range(1, k)]) * t
    )
    # A row's heights are y[fa] and y[fb]: y holds the lines one after another.
    fa, fb, line = ia, ib, None
    if t > 1:
        line = np.repeat(np.arange(t), len(ia) // t)
        fa, fb = ia + n * line, ib + n * line

    # Row-normalized data: the slack is homogeneous of degree one in
    # (lam, d, y), so each row is solved at unit scale and scaled back.
    d = x[ib] - x[ia]
    ya, yb = y[fa], y[fb]
    scale = np.maximum(np.maximum(np.abs(d), ya), yb)
    ok = scale > 0
    ia, ib, m, d, scale = ia[ok], ib[ok], m[ok], d[ok] / scale[ok], scale[ok]
    ya, yb = ya[ok] / scale, yb[ok] / scale
    if line is not None:
        line = line[ok]
    ya2, yb2 = ya * ya, yb * yb
    two_m = 2.0 * m

    # Squared twice with u = 2*m*lam - d: 4u^2(lam^2 - yb2) = (u^2 + ya2 - yb2)^2,
    # and u^2 = A lam^2 + B lam + C.
    a_, b_, c_ = two_m * two_m, -2.0 * two_m * d, d * d
    s2 = 2.0 * (ya2 + yb2)
    dy = ya2 - yb2
    coef = np.stack([
        4.0 * a_ - a_ * a_,
        4.0 * b_ - 2.0 * a_ * b_,
        4.0 * c_ - s2 * a_ - b_ * b_ - 2.0 * a_ * c_,
        -s2 * b_ - 2.0 * b_ * c_,
        -s2 * c_ - c_ * c_ - dy * dy,
    ], axis=1)
    row_parts, lam_parts = [], []
    for sel, lead in ((m >= 2, 0), (m == 1, 1)):
        rows = np.nonzero(sel & (coef[:, lead] != 0.0))[0]
        r, lam = _real_roots(coef[rows, lead:])
        row_parts.append(rows[r])
        lam_parts.append(lam)
    rows = np.nonzero((m == 0) & (c_ > 0.0))[0]
    lam2 = -coef[rows, 4] / coef[rows, 2]
    row_parts.append(rows[lam2 >= 0.0])
    lam_parts.append(np.sqrt(lam2[lam2 >= 0.0]))
    row = np.concatenate(row_parts)
    lam = np.concatenate(lam_parts)

    lam0 = np.maximum(ya[row], yb[row])
    near = lam >= lam0 - _ROOT_NEAR
    row, lam, lam0 = row[near], np.maximum(lam[near], lam0[near]), lam0[near]
    args = (d[row], ya[row], yb[row], sign[ia[row]], sign[ib[row]], two_m[row])
    for _ in range(_NEWTON_STEPS):
        f, fp = _slack(lam, *args)
        step = np.divide(f, fp, out=np.zeros_like(f), where=fp != 0.0)
        nxt = np.maximum(lam - step, lam0)
        if np.array_equal(nxt, lam):
            break
        lam = nxt
    # Eigenvalues of one multiple root polish to the same value: keep one.
    keep = np.nonzero(np.abs(_slack(lam, *args)[0]) <= _ROOT_RESIDUAL)[0]
    keep = keep[np.lexsort((lam[keep], row[keep]))]
    dup = np.zeros(len(keep), dtype=bool)
    dup[1:] = (np.diff(row[keep]) == 0) & (np.diff(lam[keep]) == 0)
    keep = keep[~dup]
    row, lam = row[keep], lam[keep]
    args = tuple(a[keep] for a in args)
    # The slack just below and just above the root; a root where it does
    # not change sign only touches zero and counts as both.
    below = _slack(lam * (1.0 - _SIDE), *args)[0]
    above = _slack(lam * (1.0 + _SIDE), *args)[0]
    touch = np.sign(below) == np.sign(above)
    gain = (above > below) | touch
    loss = (above < below) | touch
    lam = lam * scale[row]

    chain = gain & (m[row] >= 1)
    at = None if line is None else line[row]
    out = []
    for li in range(t):
        g, lost = (chain, loss) if at is None else (chain & (at == li), loss & (at == li))
        gains = sorted(
            (
                CandidateRadius(v, KIND_CHAIN, (a, b, j))
                for v, a, b, j in zip(
                    lam[g].tolist(), ids[ia[row[g]]].tolist(), ids[ib[row[g]]].tolist(),
                    m[row[g]].tolist())
            ),
            key=_entry_key,
        )
        out.append((tuple(gains), tuple(np.unique(lam[lost]).tolist())))
    return tuple(out)


def candidate_radii_tlines(points, lines, k: int = 1):
    """Per-line candidate radii, each entry tagged with its line index.

    Each line contributes what `candidate_radii_line` gives for it, chain
    gains along that line included when k >= 2. Chains that hop between
    lines are not enumerated. Duplicated values across lines are kept (they
    differ in provenance); the solver deduplicates by value before solving.
    """
    lines = check_lines(lines)
    contacts = _contacts(_points_key(points), tuple(lines), k)
    out = [CandidateRadius(0.0, KIND_ZERO)]
    for li, (ly, (gains, _)) in enumerate(zip(lines, contacts)):
        es = _sorted_unique(_line_entries(points, ly, li))
        gains = [dataclasses.replace(g, line_index=li) for g in gains]
        # a point sitting exactly on its line folds into the global zero
        out.extend(e for e in with_gains(es, gains) if e.value > MERGE_EPS)
    out.sort(key=_entry_key)
    return out


def candidate_radii_discrete(points, sites):
    """Zero plus every point-to-site distance, sorted and deduplicated."""
    if not sites:
        raise ValueError("at least one candidate site is required")
    entries = [CandidateRadius(0.0, KIND_ZERO)]
    for p in points:
        for si, (sx, sy) in enumerate(sites):
            entries.append(
                CandidateRadius(
                    math.sqrt(dist2(p.x, p.y, sx, sy)), KIND_POINT_SITE, (p.id, si)
                )
            )
    return _sorted_unique(entries)
