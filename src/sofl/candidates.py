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

Each family is built in a few numpy calls as parallel arrays (`_Table`: a
value, a kind code, ids and a line per radius), every line of a t-lines
instance at once, in the float operations of `geom.center_on_line_through`
and `geom.dist2`. Radius lists are sorted by (value, line, kind, ids), no
line (-1) first, and merged by `geom.merge_keep` at the absolute MERGE_EPS,
whatever the tolerance policy, so the generators take none: a radius within
MERGE_EPS of the last kept one is dropped. The solvers and the oracle take a
family as radius groups, ascending (value, standard) arrays (`line_radii`,
`tlines_radii`, `discrete_radii`), so no per-radius object is built; the
`candidate_radii_*` lists of `CandidateRadius` are made from the same
arrays, with each radius's provenance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import placement
from .geom import Color, merge_keep, row_keys

__all__ = [
    "CandidateRadius",
    "candidate_radii_line",
    "candidate_radii_tlines",
    "candidate_radii_discrete",
    "line_radii",
    "tlines_radii",
    "discrete_radii",
    "line_contacts",
    "line_losses",
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

# Kind codes in the order of the names, so that codes sort as the names do;
# _WIDTH is the number of ids a kind carries.
_KINDS = tuple(sorted((KIND_ZERO, KIND_BLUE, KIND_BLUE_BLUE, KIND_BLUE_RED, KIND_POINT_SITE, KIND_CHAIN)))
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_WIDTH = tuple({KIND_ZERO: 0, KIND_BLUE: 1, KIND_CHAIN: 3}.get(kind, 2) for kind in _KINDS)


@dataclass(frozen=True)
class CandidateRadius:
    value: float
    kind: str
    ids: tuple[int, ...] = ()
    line_index: int | None = None


class _Table(NamedTuple):
    """Candidate radii as parallel arrays: the values, and per radius an int
    row of _COLUMNS (line index, -1 for none; kind code; three ids, of which
    a kind uses the first _WIDTH, the others 0)."""

    value: np.ndarray
    meta: np.ndarray

    def take(self, at) -> _Table:
        return _Table(self.value[at], self.meta[at])


_COLUMNS = 5
_LINE, _KIND, _ID = 0, 1, 2


def _cat(*tables: _Table) -> _Table:
    return _Table(np.concatenate([t.value for t in tables]), np.concatenate([t.meta for t in tables]))


def _order(t: _Table, line_first: bool) -> np.ndarray:
    """The order of t by (value, line, kind, ids), or by line first."""
    m = t.meta
    outer, inner = (m[:, _LINE], t.value) if line_first else (t.value, m[:, _LINE])
    return np.lexsort((m[:, _ID + 2], m[:, _ID + 1], m[:, _ID], m[:, _KIND], inner, outer))


def _merged(t: _Table, order=None, start=None) -> _Table:
    """t in the given order (ascending in value per line), less each radius
    within MERGE_EPS of the last kept one; start flags the first radius of
    each line when there are several (`geom.merge_keep`)."""
    value = t.value if order is None else t.value[order]
    keep = merge_keep(value, np.full(len(value), MERGE_EPS), start)
    return _Table(value[keep], t.meta[keep if order is None else order[keep]])


def _entries(t: _Table, tagged: bool) -> list[CandidateRadius]:
    """t as a list, tagged with the line indices or not."""
    return [CandidateRadius(v, _KINDS[m[_KIND]], tuple(m[_ID:_ID + _WIDTH[m[_KIND]]]),
                            m[_LINE] if tagged and m[_LINE] >= 0 else None)
            for v, m in zip(t.value.tolist(), t.meta.tolist())]


def check_lines(lines) -> list[float]:
    """Line heights as floats; raises ValueError unless there is at least
    one and they are strictly increasing."""
    ys = [float(y) for y in lines]
    if not ys:
        raise ValueError("at least one line is required")
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise ValueError("lines must be strictly increasing")
    return ys


def _points_key(points):
    """The cache key of the points in `_contacts` and `_groups`: (id, x, y,
    colour) each."""
    return tuple((p.id, p.x, p.y, p.color) for p in points)


def _arrays(pts):
    """ids, x, y and blue of the points of a `_points_key`, as arrays."""
    return (np.array([p[0] for p in pts], dtype=np.int64), np.array([p[1] for p in pts], dtype=float),
            np.array([p[2] for p in pts], dtype=float), np.array([p[3] is Color.BLUE for p in pts], dtype=bool))


def _standard(pts, lines, zero: bool, provenance: bool) -> _Table:
    """The standard radii of the points on each of the lines (line index
    0, 1, ...), by line and merged per line: each blue's height, and for
    each pair i < j with a blue and off a common vertical the distance from
    the blue (b) to their center on the line (`center_on_line_through(b,
    other)`); zero adds a KIND_ZERO radius to every line. Without
    provenance, kinds and ids are left 0: the kept values are the same,
    whichever of equal values is kept."""
    ids, x, y, blue = _arrays(pts)
    at = np.arange(len(x))
    # in the order of a double loop; red-red pairs never pin the radius
    i, j = np.nonzero((at[:, None] < at) & (blue[:, None] | blue) & (x[:, None] != x))
    b = np.where(blue[i], i, j)
    o = i + j - b
    ly = np.array(lines)[:, None]
    xb, xo, yb, yo = x[b], x[o], y[b] - ly, y[o] - ly
    cx = (yo - yb) * (yo + yb) / (2.0 * (xo - xb)) + (xo + xb) / 2.0
    dx = cx - xb
    z, nb = int(zero), int(blue.sum())
    value = np.zeros((len(lines), z + nb + len(b)))
    value[:, z:z + nb] = np.abs(y[blue] - ly)
    value[:, z + nb:] = np.sqrt(dx * dx + yb * yb)  # yb * yb is dy * dy of `dist2`
    t, n = value.shape
    start = None if t == 1 else np.arange(t * n) % max(1, n) == 0  # each line's n radii, once by line
    meta = np.zeros((t, n, _COLUMNS), dtype=np.int64)
    meta[..., _LINE] = np.arange(t)[:, None]
    if not provenance:
        value.sort(axis=1)
        return _merged(_Table(value.ravel(), meta.reshape(-1, _COLUMNS)), start=start)
    meta[:, :z, _KIND] = _CODE[KIND_ZERO]
    meta[:, z:z + nb, _KIND] = _CODE[KIND_BLUE]
    meta[:, z:z + nb, _ID] = ids[blue]
    meta[:, z + nb:, _KIND] = np.where(blue[o], _CODE[KIND_BLUE_BLUE], _CODE[KIND_BLUE_RED])
    meta[:, z + nb:, _ID] = ids[b]
    meta[:, z + nb:, _ID + 1] = ids[o]
    table = _Table(value.ravel(), meta.reshape(-1, _COLUMNS))
    return _merged(table, _order(table, line_first=True), start)


def _with_gains(std: _Table, gains: _Table) -> _Table:
    """The chain gains of `_contacts` merged into the standard radii of
    their lines, which are sorted by line and MERGE_EPS-separated per line:
    a gain within MERGE_EPS of a standard radius of its line is dropped,
    and the others are merged among themselves like any radius list. The
    result is sorted by line and value, still MERGE_EPS-separated per line,
    and a standard radius is never displaced by a gain."""
    if not len(gains.value):
        return std
    value, line = gains.value, gains.meta[:, _LINE]
    at = np.searchsorted(row_keys(std.meta[:, _LINE], std.value), row_keys(line, value))
    sv, sl = np.append(std.value, 0.0), np.append(std.meta[:, _LINE], -1)  # at - 1 = -1 and at = len meet -1
    far = ((sl[at - 1] != line) | (value - sv[at - 1] > MERGE_EPS)) & \
        ((sl[at] != line) | (sv[at] - value > MERGE_EPS))
    line = line[far]
    start = np.ones(len(line), dtype=bool)
    start[1:] = line[1:] != line[:-1]
    table = _cat(std, _merged(gains.take(far), start=start))
    return table.take(_order(table, line_first=True))


# Row-normalized units: an eigenvalue within _ROOT_NEAR of the real axis,
# and not below a point's height by more, is polished; it is kept if the
# unsquared slack then is within _ROOT_RESIDUAL of zero. Squaring makes
# roots multiple (points at equal heights give triple ones), and the
# eigenvalues of a root of multiplicity j spread by about eps**(1/j).
_ROOT_NEAR = 1e-3
_ROOT_RESIDUAL = 1e-9
_NEWTON_STEPS = 6
_SIDE = 1e-7  # relative offset at which a root's two sides are compared
_ROW_CELLS = 16  # cells per row of a `_contacts` chunk: its companion matrix


def _slack(lam, d, ya, yb, sa, sb, two_m, slope: bool = False):
    """R_b - L_a - 2*m*lam, and with slope its derivative in lam too (h is
    taken as 0 below a point's height, and is exactly 0 at it)."""
    ha = np.sqrt(np.maximum((lam - ya) * (lam + ya), 0.0))
    hb = np.sqrt(np.maximum((lam - yb) * (lam + yb), 0.0))
    f = d + sa * ha + sb * hb - two_m * lam
    if not slope:
        return f
    return f, sa * lam / np.maximum(ha, 1e-300) + sb * lam / np.maximum(hb, 1e-300) - two_m


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
    unit scale, solved in batched eigenvalue passes, polished by Newton
    steps on the unsquared slack, and kept only if that slack vanishes.

    Results are cached per geometry (ids, coordinates and colours, the
    lines and k), not per weight: `sofl check` asks for the same contacts in
    the solver and the oracle, and the reweighted special variants share
    them. This is the one-line case of `_contacts`, which solves the
    contacts of every line of a t-lines instance in one pass.
    """
    gains, (losses,) = _contacts(_points_key(points), (float(line_y),), k)
    return _entries(gains, tagged=False), losses.tolist()


def line_losses(points, line_y: float = 0.0, k: int = 1) -> np.ndarray:
    """The losses of `line_contacts`, as a sorted array."""
    return _contacts(_points_key(points), (float(line_y),), k)[1][0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=16)
def _contacts(pts, lines, k):
    """`line_contacts` of the points on each of the lines, in one pass, as
    read-only arrays: the gains of every line as a table sorted by line,
    then by (value, ids), and the losses of each line. Every line has the
    same pair rows, line after line, solved in chunks of placement.CELLS
    cells at _ROW_CELLS a row; each row is solved and polished on its own,
    so a line's contacts are those of a pass on that line alone, and memory
    stays flat in n."""
    n, t = len(pts), len(lines)
    if k < 2 or n < 2:
        gains = _Table(np.zeros(0), np.zeros((0, _COLUMNS), dtype=np.int64))
        return _Table(*map(_frozen, gains)), tuple(_frozen(np.zeros(0)) for _ in lines)
    ids, x, y, blue = _arrays(pts)
    y = np.abs(y - np.array(lines)[:, None]).ravel()  # the lines one after another
    sign = np.where(blue, 1.0, -1.0)
    # Pair q is (a, b) = (q // (n - 1), the (q % (n - 1))-th point other than a).
    ra, rb = np.nonzero(~blue[:, None] & ~blue & ~np.eye(n, dtype=bool))
    red_red = ra * (n - 1) + rb - (rb > ra)
    # A line's rows: its red-red pairs at m = 0, then every pair at m = 1, ..., k - 1.
    pairs = n * (n - 1)
    per_line = len(red_red) + (k - 1) * pairs
    step = max(1, placement.CELLS // _ROW_CELLS)
    parts = []
    for lo in range(0, t * per_line, step):
        line, r = np.divmod(np.arange(lo, min(lo + step, t * per_line)), per_line)
        m, pair = np.divmod(r - len(red_red), pairs)  # m = -1 on the red-red rows
        early = m < 0
        pair[early] = red_red[r[early]]
        a, c = np.divmod(pair, n - 1)
        parts.append(_roots(a, c + (c >= a), m + 1, line, x, y, sign, n))
    line, a, b, m, lam, gain, loss = (np.concatenate(c) for c in zip(*parts))

    chain = (gain & (m >= 1)).nonzero()[0]
    meta = np.zeros((len(chain), _COLUMNS), dtype=np.int64)
    meta[:, _LINE], meta[:, _KIND] = line[chain], _CODE[KIND_CHAIN]
    meta[:, _ID], meta[:, _ID + 1], meta[:, _ID + 2] = ids[a[chain]], ids[b[chain]], m[chain]
    gains = _Table(lam[chain], meta)
    gains = gains.take(_order(gains, line_first=True))
    return (_Table(*map(_frozen, gains)),
            tuple(_frozen(np.unique(lam[loss & (line == li)])) for li in range(t)))


def _roots(ia, ib, m, line, x, y, sign, n):
    """The contacts of a chunk of rows, each the pair (ia, ib) at hop count
    m on a line: (line, a, b, m, lam, gain, loss) per root."""
    # Row-normalized data: the slack is homogeneous of degree one in
    # (lam, d, y), so each row is solved at unit scale and scaled back.
    d = x[ib] - x[ia]
    ya, yb = y[ia + n * line], y[ib + n * line]
    scale = np.maximum(np.maximum(np.abs(d), ya), yb)
    ok = scale > 0
    ia, ib, m, line, d, scale = ia[ok], ib[ok], m[ok], line[ok], d[ok] / scale[ok], scale[ok]
    ya, yb = ya[ok] / scale, yb[ok] / scale
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
        f, fp = _slack(lam, *args, slope=True)
        step = np.divide(f, fp, out=np.zeros_like(f), where=fp != 0.0)
        nxt = np.maximum(lam - step, lam0)
        if (nxt == lam).all():
            break
        lam = nxt
    else:
        f = _slack(lam, *args)
    # Eigenvalues of one multiple root polish to the same value: keep one.
    keep = np.nonzero(np.abs(f) <= _ROOT_RESIDUAL)[0]
    keep = keep[np.lexsort((lam[keep], row[keep]))]
    dup = np.zeros(len(keep), dtype=bool)
    dup[1:] = (np.diff(row[keep]) == 0) & (np.diff(lam[keep]) == 0)
    keep = keep[~dup]
    row, lam = row[keep], lam[keep]
    args = tuple(a[keep] for a in args)
    # The slack just below and just above the root; a root where it does
    # not change sign only touches zero and counts as both.
    below, above = _slack(lam * np.array([[1.0 - _SIDE], [1.0 + _SIDE]]), *args)
    touch = np.sign(below) == np.sign(above)
    return (line[row], ia[row], ib[row], m[row], lam * scale[row],
            (above > below) | touch, (above < below) | touch)


def _lines_table(pts, lines: tuple, k: int, tagged: bool, provenance: bool) -> _Table:
    """`candidate_radii_tlines` (tagged) or, on one line,
    `candidate_radii_line` of a `_points_key` as a table (see `_standard`
    for provenance)."""
    table = _standard(pts, lines, not tagged, provenance)
    if k >= 2:
        table = _with_gains(table, _contacts(pts, lines, k)[0])
    if not tagged:
        return table
    # a point sitting exactly on its line folds into the global zero, first
    table = table.take(table.value > MERGE_EPS)
    zero = np.zeros((1, _COLUMNS), dtype=np.int64)
    zero[0, _LINE], zero[0, _KIND] = -1, _CODE[KIND_ZERO]
    return _cat(_Table(np.zeros(1), zero), table.take(_order(table, line_first=False)))


# `sofl check` asks for the same radii in the solver and then in the oracle,
# so the last result is kept.
@functools.lru_cache(maxsize=1)
def _groups(pts, lines: tuple, k: int, tagged: bool):
    """(value, standard) per MERGE_EPS group of `_lines_table`'s radii, as
    ascending read-only arrays: each group's smallest value, standard when
    any member is not a chain gain. A group starts at each value
    `merge_keep` keeps."""
    t = _lines_table(pts, lines, k, tagged, provenance=False)
    order = np.argsort(t.value, kind="stable")
    value = t.value[order]
    starts = merge_keep(value, np.full(len(value), MERGE_EPS)).nonzero()[0]
    return _frozen(value[starts]), _frozen(np.logical_or.reduceat(t.meta[order, _KIND] != _CODE[KIND_CHAIN], starts))


def candidate_radii_line(points, line_y: float = 0.0, k: int = 1):
    """Sorted, deduplicated candidate radii for at most k disks on one line.

    Always contains zero; empty input yields exactly that. The standard
    radii come first on ties; with k >= 2 the gains of `line_contacts`
    follow as KIND_CHAIN entries (k = 1 adds none).
    """
    return _entries(_lines_table(_points_key(points), (float(line_y),), k, False, True), tagged=False)


def line_radii(points, line_y: float = 0.0, k: int = 1):
    """The values of `candidate_radii_line`, ascending and MERGE_EPS
    apart, and whether each is standard (not a chain gain), as read-only
    arrays."""
    return _groups(_points_key(points), (float(line_y),), k, False)


def candidate_radii_tlines(points, lines, k: int = 1):
    """Per-line candidate radii, each entry tagged with its line index.

    Each line contributes what `candidate_radii_line` gives for it, chain
    gains along that line included when k >= 2. Chains that hop between
    lines are not enumerated. Duplicated values across lines are kept (they
    differ in provenance); the solver deduplicates by value before solving.
    """
    return _entries(_lines_table(_points_key(points), tuple(check_lines(lines)), k, True, True), tagged=True)


def tlines_radii(points, lines, k: int = 1):
    """(value, standard) per MERGE_EPS group of `candidate_radii_tlines`,
    as ascending read-only arrays (`_groups`)."""
    return _groups(_points_key(points), tuple(check_lines(lines)), k, True)


def _discrete_table(points, sites) -> _Table:
    """`candidate_radii_discrete` as a table."""
    if not sites:
        raise ValueError("at least one candidate site is required")
    ids, x, y, _ = _arrays(_points_key(points))
    s = np.array(sites, dtype=float).reshape(-1, 2)
    dx, dy = x[:, None] - s[:, 0], y[:, None] - s[:, 1]
    value = np.zeros(1 + dx.size)
    value[1:] = np.sqrt(dx * dx + dy * dy).ravel()
    meta = np.zeros((len(value), _COLUMNS), dtype=np.int64)
    meta[:, _LINE], meta[0, _KIND], meta[1:, _KIND] = -1, _CODE[KIND_ZERO], _CODE[KIND_POINT_SITE]
    pair = meta[1:].reshape(dx.shape + (_COLUMNS,))
    pair[..., _ID], pair[..., _ID + 1] = ids[:, None], np.arange(len(s))
    table = _Table(value, meta)
    return _merged(table, _order(table, line_first=False))


def candidate_radii_discrete(points, sites):
    """Zero plus every point-to-site distance, sorted and deduplicated."""
    return _entries(_discrete_table(points, sites), tagged=False)


def discrete_radii(points, sites):
    """The values of `candidate_radii_discrete`, ascending and MERGE_EPS
    apart, and whether each is standard (all are), as arrays."""
    t = _discrete_table(points, sites)
    return t.value, np.ones(len(t.value), dtype=bool)
