"""Instance file format, deterministic generator, and result emission.

The file format is line oriented; '#' starts a comment, blank lines are
skipped:

    variant csofl|allblue-minred|maxblue-nored|tlines|discrete
    k <int>
    lines <y1> <y2> ...          (tlines only, strictly increasing)
    site <x> <y>                 (discrete only, one line per site)
    B <x> <y> <w>                (blue point, w > 0)
    R <x> <y> <w>                (red point, w < 0)

For the two special variants the weight column is omitted and weights are
assigned by the reduction (`solver.reduce_allblue_minred` or
`solver.reduce_maxblue_nored`). Parsing then printing
then parsing is the identity; sites are canonicalized to a clockwise convex
ring starting at the lexicographically smallest site, and site ids in
results refer to that order.

The generator is a documented 64-bit LCG so identical seeds give identical
bytes everywhere:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

and each draw uses the top 31 bits of the new state. Coordinates and
weights are integers, which keeps every weight sum exact in floating point.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

from .discrete import ConvexPositionError, canonical_ring
from .geom import Color, ColoredPoint
from .placement import Placement, SiteCenter
from .solver import reduce_allblue_minred, reduce_maxblue_nored

__all__ = [
    "ProblemInstance",
    "ParseError",
    "SemanticError",
    "parse_instance",
    "format_instance",
    "generate",
    "emit_result",
    "Lcg",
    "VARIANTS",
    "SPECIAL_VARIANTS",
]

VARIANTS = ("csofl", "allblue-minred", "maxblue-nored", "tlines", "discrete")
# The solvers add up at most k disk weights (the line DP, the t-lines search,
# the chord recursion), each at most the sum of |w|, and the oracle less, so
# k times that sum bounds every weight sum they form. Keeping it at most
# 2^1023 keeps every such sum finite, with a factor two to spare.
WEIGHT_SUM_LIMIT = 2.0 ** 1023
# Nonzero coordinates (x, y, line heights, sites) have magnitudes in [2^-150,
# 2^150]. Distinct ones differ by at least 2^-202, so a center derived from
# two points stays within 2^505 and every square within 2^1012 (README).
COORD_MIN, COORD_MAX = 2.0 ** -150, 2.0 ** 150
SPECIAL_VARIANTS = ("allblue-minred", "maxblue-nored")
_LINE_Y_VARIANTS = ("csofl", "allblue-minred", "maxblue-nored")


class ParseError(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class SemanticError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemInstance:
    variant: str
    k: int
    points: tuple[ColoredPoint, ...]
    lines: tuple[float, ...] = ()
    sites: tuple[tuple[float, float], ...] = ()


def _fmt(v: float) -> str:
    return repr(v) if v != int(v) else str(int(v))


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


def _coordinate(token: str) -> float:
    value = _finite(token)
    if value and not COORD_MIN <= abs(value) <= COORD_MAX:
        raise ValueError(f"{token!r} is neither 0 nor of magnitude in [2^-150, 2^150]")
    return value


def parse_instance(text: str, k_override: int | None = None) -> ProblemInstance:
    """The instance of a file; k_override, if given, replaces its k before
    the checks. Raises ParseError (with the line number) or SemanticError."""
    variant = None
    k = None
    lines: tuple[float, ...] = ()
    sites: list[tuple[float, float]] = []
    raw_points: list[tuple[int, str, float, float, float | None]] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        head = tokens[0]
        try:
            if head == "variant":
                if len(tokens) != 2:
                    raise ParseError(lineno, "variant takes one value")
                if variant is not None:
                    raise ParseError(lineno, "variant specified twice")
                variant = tokens[1]
            elif head == "k":
                if len(tokens) != 2:
                    raise ParseError(lineno, "k takes one integer")
                if k is not None:
                    raise ParseError(lineno, "k specified twice")
                k = int(tokens[1])
            elif head == "lines":
                if lines:
                    raise ParseError(lineno, "lines specified twice")
                if len(tokens) < 2:
                    raise ParseError(lineno, "lines needs at least one height")
                lines = tuple(_coordinate(t) for t in tokens[1:])
            elif head == "site":
                if len(tokens) != 3:
                    raise ParseError(lineno, "site takes x and y")
                sites.append((_coordinate(tokens[1]), _coordinate(tokens[2])))
            elif head in ("B", "R"):
                if len(tokens) not in (3, 4):
                    raise ParseError(lineno, f"{head} takes x y [w]")
                w = _finite(tokens[3]) if len(tokens) == 4 else None
                raw_points.append((lineno, head, _coordinate(tokens[1]), _coordinate(tokens[2]), w))
            else:
                raise ParseError(lineno, f"unknown directive {head!r}")
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(lineno, str(exc)) from exc

    if variant is None:
        raise SemanticError("missing variant")
    if variant not in VARIANTS:
        raise SemanticError(f"unknown variant {variant!r}")
    if k_override is not None:
        k = k_override
    if k is None:
        k = 1
    if k < 1:
        raise SemanticError("k must be at least 1")

    if variant == "tlines":
        if not lines:
            raise SemanticError("tlines variant needs a lines directive")
        if any(b <= a for a, b in zip(lines, lines[1:])):
            raise SemanticError("lines must be strictly increasing")
    elif lines:
        raise SemanticError("lines are only valid for the tlines variant")

    ring: tuple[tuple[float, float], ...] = ()
    if variant == "discrete":
        if not sites:
            raise SemanticError("discrete variant needs site records")
        try:
            ring = canonical_ring(sites)
        except ConvexPositionError as exc:
            raise SemanticError(str(exc)) from exc
        if k >= len(ring):
            raise SemanticError("k must be smaller than the number of sites")
    elif sites:
        raise SemanticError("sites are only valid for the discrete variant")

    special = variant in SPECIAL_VARIANTS
    total = 0.0
    for lineno, head, x, y, w in raw_points:
        if special and w is not None:
            raise SemanticError("special variants assign weights; omit w")
        if not special and w is None:
            raise SemanticError(f"{head} record needs an explicit weight")
        if not special:
            if head == "B" and not w > 0:
                raise SemanticError("blue weights must be positive")
            if head == "R" and not w < 0:
                raise SemanticError("red weights must be negative")
        if variant in _LINE_Y_VARIANTS and not y > 0:
            raise SemanticError("points must lie strictly above the line (y > 0)")
        if w is not None:
            total += abs(w)
            if k * total > WEIGHT_SUM_LIMIT:
                raise ParseError(lineno, f"k ({k}) times the sum of |w| so far exceeds 2^1023")

    if variant == "allblue-minred" and not any(h == "B" for _, h, *_ in raw_points):
        raise SemanticError("allblue-minred needs at least one blue point")

    points = []
    for i, (_, head, x, y, w) in enumerate(raw_points):
        color = Color.BLUE if head == "B" else Color.RED
        if w is None:  # a special variant: reweighted below
            w = 1.0 if head == "B" else -1.0
        points.append(ColoredPoint(i, x, y, color, w))
    if variant == "allblue-minred":
        points = reduce_allblue_minred(points)
    elif variant == "maxblue-nored":
        points = reduce_maxblue_nored(points)

    return ProblemInstance(variant, k, tuple(points), lines, ring)


def format_instance(inst: ProblemInstance) -> str:
    out = [f"variant {inst.variant}", f"k {inst.k}"]
    if inst.lines:
        out.append("lines " + " ".join(_fmt(y) for y in inst.lines))
    for sx, sy in inst.sites:
        out.append(f"site {_fmt(sx)} {_fmt(sy)}")
    special = inst.variant in SPECIAL_VARIANTS
    for p in inst.points:
        tag = p.color.value
        if special:
            out.append(f"{tag} {_fmt(p.x)} {_fmt(p.y)}")
        else:
            out.append(f"{tag} {_fmt(p.x)} {_fmt(p.y)} {_fmt(p.weight)}")
    return "\n".join(out) + "\n"


class Lcg:
    """The documented 64-bit linear congruential generator (see module doc)."""

    MASK = (1 << 64) - 1
    MULT = 6364136223846793005
    INC = 1442695040888963407

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def _next(self) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return (self.state >> 33) & 0x7FFFFFFF

    def randint(self, a: int, b: int) -> int:
        return a + self._next() % (b - a + 1)

    def uniform(self) -> float:
        return self._next() / float(1 << 31)


def generate(seed: int, n: int, k: int, variant: str, red_fraction: float = 0.5,
             coord_range: int = 20, weight_range: int = 9,
             t: int = 2, s: int = 6) -> str:
    """Deterministic instance text for the given parameters."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 0 or (n == 0 and variant == "allblue-minred"):
        raise ValueError("n must be nonnegative, and positive for allblue-minred")
    if not 0.0 <= red_fraction <= 1.0:  # also rejects nan
        raise ValueError("red fraction must be in [0, 1]")
    if coord_range < 0:
        raise ValueError("coord range must be nonnegative")
    if weight_range < 1 and variant not in SPECIAL_VARIANTS:
        raise ValueError("weight range must be at least 1")
    if variant == "tlines" and t < 1:
        raise ValueError("tlines instances need t >= 1")
    if variant == "discrete" and k >= s:
        raise ValueError("discrete instances need k < s")
    rng = Lcg(seed)
    out = [f"variant {variant}", f"k {k}"]

    if variant == "tlines":
        heights: set[int] = set()
        while len(heights) < t:
            heights.add(rng.randint(0, max(t, coord_range)))
        out.append("lines " + " ".join(_fmt(float(h)) for h in sorted(heights)))

    if variant == "discrete":
        cx = cy = coord_range / 2.0
        radius = coord_range / 2.0
        angles: list[float] = []
        ascending: list[float] = []
        rejected = 0
        while len(angles) < s:
            a = 2.0 * math.pi * rng.uniform()
            # Float subtraction is monotone, so the kept angle nearest to a
            # either way round is a sorted neighbour of a or an end.
            i = bisect.bisect_left(ascending, a)
            near = ascending[max(i - 1, 0):i + 1] + ascending[:1] + ascending[-1:]
            if all(min(abs(a - b), 2.0 * math.pi - abs(a - b)) > 0.05 for b in near):
                angles.append(a)
                bisect.insort(ascending, a)
            elif (rejected := rejected + 1) == 100_000:
                # Sites 0.05 rad apart jam at about 94, earlier on some seeds.
                raise ValueError(f"no room for {s} sites 0.05 rad apart after "
                                 f"{rejected} rejected draws")
        sites = [(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles]
        for sx, sy in canonical_ring(sites):
            out.append(f"site {_fmt(sx)} {_fmt(sy)}")

    special = variant in SPECIAL_VARIANTS
    above_line = variant in _LINE_Y_VARIANTS
    y_max = max(1, coord_range // 2) if above_line else coord_range
    y_min = 1 if above_line else 0
    colors = [rng.uniform() < red_fraction for _ in range(n)]
    if variant == "allblue-minred" and all(colors):
        colors[-1] = False  # that variant needs at least one blue point
    for is_red in colors:
        x = rng.randint(0, coord_range)
        y = rng.randint(y_min, y_max)
        tag = "R" if is_red else "B"
        if special:
            out.append(f"{tag} {_fmt(float(x))} {_fmt(float(y))}")
        else:
            mag = rng.randint(1, weight_range)
            w = -mag if is_red else mag
            out.append(f"{tag} {_fmt(float(x))} {_fmt(float(y))} {_fmt(float(w))}")
    return "\n".join(out) + "\n"


def _sig12(v: float) -> float:
    return float(f"{v:.12g}")


def emit_result(placement: Placement | None, fmt: str = "text") -> str:
    """Render a placement; None stands for an infeasible special instance."""
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if placement is None:
        if fmt == "text":
            return "no feasible solution\n"
        return json.dumps(
            {"lambda": None, "weight": 0, "centers": [],
             "covered_blue": [], "covered_red": []}
        ) + "\n"

    centers = []
    for c in placement.centers:
        if isinstance(c, SiteCenter):
            centers.append({"site": c.site_id})
        else:
            centers.append({"x": _sig12(c.x), "line": c.line_index})
    blue = sorted(placement.covered_blue)
    red = sorted(placement.covered_red)
    if fmt == "json":
        doc = {
            "lambda": _sig12(placement.radius),
            "weight": _sig12(placement.total_weight),
            "centers": centers,
            "covered_blue": blue,
            "covered_red": red,
        }
        return json.dumps(doc) + "\n"
    out = [
        f"lambda {placement.radius:.12g}",
        f"weight {placement.total_weight:.12g}",
        f"centers {len(centers)}",
    ]
    for c in centers:
        if "site" in c:
            out.append(f"  site {c['site']}")
        else:
            out.append(f"  x {c['x']:.12g} line {c['line']}")
    out.append("covered_blue " + " ".join(str(i) for i in blue))
    out.append("covered_red " + " ".join(str(i) for i in red))
    return "\n".join(out) + "\n"
