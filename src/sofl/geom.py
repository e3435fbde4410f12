"""Core geometry: colored demand points, disks, and boundary-aware coverage.

Coverage is asymmetric by design: a blue point is served by the closed disk,
while a red point is harmed only by the open interior, so a red point exactly
on the boundary is not covered. Every squared-distance comparison is routed
through a TolerancePolicy so that boundary decisions stay consistent across
modules.
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
    """Epsilon policy for boundary decisions.

    In relative mode the band scales with the compared quantity; absolute
    mode applies eps directly. Squared distances get ``band``, unsquared
    linear quantities get ``x_slack``.
    """

    eps: float = 1e-9
    mode: str = "relative"

    def __post_init__(self):
        if not 0 <= self.eps < math.inf:  # also rejects nan
            raise ValueError(f"eps must be finite and nonnegative, not {self.eps!r}")
        if self.mode not in ("relative", "absolute"):
            raise ValueError(f"unknown tolerance mode {self.mode!r}")

    def band(self, r2: float) -> float:
        if self.mode == "relative":
            return self.eps * max(1.0, r2)
        return self.eps

    def x_slack(self, scale: float) -> float:
        if self.mode == "relative":
            return self.eps * max(1.0, abs(scale))
        return self.eps

    def close(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.x_slack(max(abs(a), abs(b)))

    def x_slacks(self, xs: np.ndarray) -> np.ndarray:
        """`x_slack` of every value. For a >= b, `close(a, b)` is exactly
        a - b <= max(slack of a, slack of b), since eps * max(1, .) is
        monotone."""
        if self.mode == "relative":
            return self.eps * np.maximum(1.0, np.abs(xs))
        return np.full(len(xs), self.eps)


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


def coverage_mask(s: np.ndarray, blue: np.ndarray, band: float) -> np.ndarray:
    """`is_covered` for every point (row) and disk (column), given
    s = dist2 - r^2 and band = tol.band(r^2) as `classify` computes them."""
    return np.where(blue[:, None], s <= band, s < -band)


def point_order_sums(cov: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Covered weight per column of a points x disks mask, summed over the
    rows in point order like `disk_weight`, so any float weights give the
    same sums."""
    if not len(cov):
        return np.zeros(cov.shape[1])
    v = np.where(cov, w[:, None], 0.0)
    np.cumsum(v, axis=0, out=v)
    return v[-1]


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


def compatible_table(same: np.ndarray, adx: np.ndarray, d2: np.ndarray, lam: float,
                     tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """`centers_compatible` of many center pairs at once, in the same float
    operations, given each pair's same-height flag, |dx| and squared
    distance dx*dx + dy*dy."""
    two = 2.0 * lam
    need = 4.0 * lam * lam
    return np.where(same, adx >= two - tol.x_slack(two), d2 >= need - tol.band(need))
