import math

import pytest

from sofl.geom import DEFAULT_TOL, Color, ColoredPoint, point_order_sums
from sofl.instance import generate, parse_instance
from sofl.klink import _coverage, candidate_centers, line_geometry


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


def line_centers_and_weights(points, line_y, lam, k, tol=DEFAULT_TOL):
    """The candidate centers of one line and the disk weight at each, as
    `klink.solve_radius` builds them."""
    geo = line_geometry(points, line_y)
    idx, xs = candidate_centers(geo, lam, k, tol)
    cov = _coverage(xs, geo.px[idx], geo.dy2[idx], geo.blue[idx], lam, tol)
    return xs.tolist(), point_order_sums(cov, geo.w[idx]).tolist()


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


@pytest.fixture
def mk_points():
    return B, R
