"""Core geometry: colored demand points, disks, and boundary-aware coverage.

Coverage is asymmetric by design: a blue point is served by the closed disk,
while a red point is harmed only by the open interior, so a red point exactly
on the boundary is not covered. Every squared-distance comparison is routed
through a TolerancePolicy so that boundary decisions stay consistent across
modules.

Near-equal candidate values are merged by one rule, `merge_keep`: in
ascending order, a value within its slack of the last kept value is
dropped. A start mask keeps flagged values, so the rows of a chunk,
laid end to end with each row's first value flagged, merge in one call
without merging into each other. It merges klink's centers (a chunk of
radii, one row each), multiline's centers and the oracle's center grids
(one row per radius and line) and the candidate center abscissae of
`variants_k1.allblue_minred` (slack `tol.x_slacks`), and every candidate
radius list (an absolute `candidates.MERGE_EPS`). `candidates._contacts`
drops only exactly equal roots.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Color",
    "Region",
    "ColoredPoint",
    "TolerancePolicy",
    "Disk",
    "DEFAULT_TOL",
    "DegenerateInputError",
    "dist2",
    "classify",
    "is_covered",
    "disk_weight",
    "coverage_mask",
    "point_order_sums",
    "sums_are_exact",
    "bitsets",
    "merge_keep",
    "row_keys",
    "center_on_line_through",
    "centers_compatible",
    "compatible_table",
]


class Color(enum.Enum):
    BLUE = "B"
    RED = "R"


class Region(enum.Enum):
    INSIDE = "inside"
    ON_BOUNDARY = "boundary"
    OUTSIDE = "outside"


class DegenerateInputError(ValueError):
    """A geometric construction was requested for coincident input points."""


@dataclass(frozen=True)
class ColoredPoint:
    id: int
    x: float
    y: float
    color: Color
    weight: float

    def __post_init__(self):
        if self.color is Color.BLUE and not self.weight > 0:
            raise ValueError(f"blue point {self.id} must have positive weight")
        if self.color is Color.RED and not self.weight < 0:
            raise ValueError(f"red point {self.id} must have negative weight")

    @property
    def is_blue(self) -> bool:
        return self.color is Color.BLUE


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative epsilon policy for boundary decisions: squared distances
    get the band eps * max(1, r^2), unsquared linear quantities the slack
    eps * max(1, |x|)."""

    eps: float = 1e-9

    def __post_init__(self):
        if not 0 <= self.eps < math.inf:  # also rejects nan
            raise ValueError(f"eps must be finite and nonnegative, not {self.eps!r}")

    def band(self, r2: float) -> float:
        return self.eps * max(1.0, r2)

    def x_slack(self, scale: float) -> float:
        return self.eps * max(1.0, abs(scale))

    def x_slacks(self, xs: np.ndarray) -> np.ndarray:
        """`x_slack` of every value. For a >= b, a - b <= max(slack of a,
        slack of b) is exactly a - b <= x_slack(max(|a|, |b|)), since
        eps * max(1, .) is monotone."""
        return self.eps * np.maximum(1.0, np.abs(xs))

    def bands(self, r2s: np.ndarray) -> np.ndarray:
        """`band` of every squared radius."""
        return self.eps * np.maximum(1.0, r2s)


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("disk radius must be nonnegative")


def dist2(ax: float, ay: float, bx: float, by: float) -> float:
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy


def classify(point, disk: Disk, tol: TolerancePolicy = DEFAULT_TOL) -> Region:
    """Place a point inside, on, or outside a disk, with a boundary band."""
    r2 = disk.r * disk.r
    s = dist2(point.x, point.y, disk.cx, disk.cy) - r2
    if abs(s) <= tol.band(r2):
        return Region.ON_BOUNDARY
    return Region.INSIDE if s < 0 else Region.OUTSIDE


def is_covered(point: ColoredPoint, disk: Disk, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    region = classify(point, disk, tol)
    if point.color is Color.BLUE:
        return region is not Region.OUTSIDE
    return region is Region.INSIDE


def disk_weight(disk: Disk, points, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Total signed weight of the points covered by one disk (linear scan)."""
    return sum(p.weight for p in points if is_covered(p, disk, tol))


def coverage_mask(s: np.ndarray, blue, band) -> np.ndarray:
    """`is_covered` of point-disk pairs, given s = dist2 - r^2 and
    band = tol.band(r^2) as `classify` computes them; blue and band
    broadcast against s (blue[:, None] for a points x disks matrix)."""
    return np.where(blue, s <= band, s < -band)


def point_order_sums(cov: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Covered weight per column of a points x disks mask, summed over the
    rows in point order like `disk_weight`, so any float weights give the
    same sums."""
    if not len(cov):
        return np.zeros(cov.shape[1])
    v = np.where(cov, w[:, None], 0.0)
    np.cumsum(v, axis=0, out=v)
    return v[-1]


def sums_are_exact(w: np.ndarray) -> bool:
    """Whether every float sum of any of the weights w, added in any order,
    is exact: all are integers and their absolute sum is at most 2^53."""
    ws = w.tolist()
    return all(v.is_integer() for v in ws) and sum(abs(int(v)) for v in ws) <= 2**53


def bitsets(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int with bit j set for column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def merge_keep(xs: np.ndarray, slack: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Keep mask of the sequential merge of ascending xs: a value is dropped
    when its distance to the last kept value is at most the larger of their
    two slacks (coincident values are merged, never perturbed).

    The values flagged in `start` are always kept. So several ascending
    rows, laid end to end, merge in one call with each row's first value
    flagged: no value is compared with an earlier row.

    The guess compares each value with its predecessor. It can only be wrong
    right after a dropped value, where the last kept value lies further back
    (a run of near-equal values can span more than the slack). Those
    positions are checked against the last kept value, and the first wrong
    one is flipped until none is; flips move strictly rightward, so every
    other position keeps its correct guess.
    """
    keep = np.ones(len(xs), dtype=bool)
    keep[1:] = xs[1:] - xs[:-1] > np.maximum(slack[1:], slack[:-1])
    if start is not None:
        keep |= start
    while True:
        after = (~keep[:-1]).nonzero()[0] + 1
        if start is not None:
            after = after[~start[after]]
        if not len(after):
            return keep
        last = np.maximum.accumulate(np.where(keep, np.arange(len(xs)), 0))[after - 1]
        far = xs[after] - xs[last] > np.maximum(slack[after], slack[last])
        wrong = after[far != keep[after]]
        if not len(wrong):
            return keep
        keep[wrong[0]] = not keep[wrong[0]]


def row_keys(row, x) -> np.ndarray:
    """row + 1j*x, built without arithmetic so that x = inf stays exact;
    complex values sort by (row, x), so the ascending rows of a table, laid
    end to end, take one `searchsorted` for lookups in any of them."""
    out = np.empty(np.broadcast(row, x).shape, dtype=complex)
    out.real = row
    out.imag = x
    return out


def _xy(p) -> tuple[float, float]:
    if isinstance(p, tuple):
        return p
    return (p.x, p.y)


def center_on_line_through(p, q, line_y: float = 0.0) -> tuple[float, float] | None:
    """Center on the line y=line_y equidistant from p and q, with that distance.

    Returns None when no unique center exists: a vertically stacked pair has
    a horizontal bisector, and a pair mirrored across the line is equidistant
    from every point of the line. Raises DegenerateInputError for coincident
    points.
    """
    px, py = _xy(p)
    qx, qy = _xy(q)
    if px == qx and py == qy:
        raise DegenerateInputError("coincident points do not define a circle")
    if px == qx:
        return None
    yp = py - line_y
    yq = qy - line_y
    cx = (yq - yp) * (yq + yp) / (2.0 * (qx - px)) + (qx + px) / 2.0
    return cx, math.sqrt(dist2(cx, line_y, px, py))


def centers_compatible(
    c1: tuple[float, float],
    c2: tuple[float, float],
    lam: float,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> bool:
    """Whether two centers keep radius-lam disks from overlapping.

    Centers at the same height compare linearly in x; otherwise the squared
    Euclidean distance is held against (2*lam)^2. Exact touching is allowed,
    up to tolerance.
    """
    x1, y1 = c1
    x2, y2 = c2
    if y1 == y2:
        return abs(x1 - x2) >= 2.0 * lam - tol.x_slack(2.0 * lam)
    need = 4.0 * lam * lam
    return dist2(x1, y1, x2, y2) >= need - tol.band(need)


def compatible_table(same: np.ndarray, adx: np.ndarray, d2: np.ndarray, lam,
                     tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """`centers_compatible` of many center pairs at once, in the same float
    operations, given each pair's same-height flag, |dx| and squared
    distance dx*dx + dy*dy; lam is one radius or one per pair."""
    two = 2.0 * lam
    need = 4.0 * lam * lam
    return np.where(same, adx >= two - tol.x_slacks(two), d2 >= need - tol.bands(need))
