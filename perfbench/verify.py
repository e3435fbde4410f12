"""Output checks that share no code with `sofl`.

A `sofl solve --format json` result is checked three ways:

1. Feasibility: every center index names a real line or site, no center
   repeats, and all pairwise center distances are at least 2*lambda up to
   a slack (the documented 1e-9 relative band, widened for the
   12-significant-digit output).
2. Union weight: the reported weight equals the union weight recomputed
   from the instance file with the README's rule. Blue points count in the
   closed disk, red points only in the open interior, and points within a
   relative 1e-9 band of the boundary count as on it.
3. Reference: the weight is not below the committed reference, and at equal
   weight the radius is not larger. A higher, verified weight is
   `reference_beaten`; a smaller radius at equal weight is allowed.

A `sofl check` result takes its verdict from the exit code: 0 pass,
1 mismatch (a wrong output), anything else an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

BAND = 1e-9
SLACK = 1e-8  # BAND plus room for outputs rounded to 12 significant digits

OK = "ok"
WRONG = "wrong"
BEATEN = "reference_beaten"
ERROR = "error"


@dataclass(frozen=True)
class Instance:
    variant: str
    k: int
    lines: tuple[float, ...]
    sites: tuple[tuple[float, float], ...]
    points: tuple[tuple[bool, float, float, float], ...]  # (blue, x, y, w)


def parse(text: str) -> Instance:
    """Read an instance file; special variants get the README's weights."""
    variant, k, lines, sites, raw = None, 1, (), [], []
    for row in text.splitlines():
        tok = row.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "variant":
            variant = tok[1]
        elif tok[0] == "k":
            k = int(tok[1])
        elif tok[0] == "lines":
            lines = tuple(float(v) for v in tok[1:])
        elif tok[0] == "site":
            sites.append((float(tok[1]), float(tok[2])))
        elif tok[0] in ("B", "R"):
            w = float(tok[3]) if len(tok) > 3 else None
            raw.append((tok[0] == "B", float(tok[1]), float(tok[2]), w))
        else:
            raise ValueError(f"unknown directive {tok[0]!r}")
    n_blue = sum(1 for p in raw if p[0])
    n_red = len(raw) - n_blue
    if variant == "allblue-minred":
        raw = [(b, x, y, n_red + 1.0 if b else -1.0) for b, x, y, _ in raw]
    elif variant == "maxblue-nored":
        raw = [(b, x, y, 1.0 if b else -(n_blue + 1.0)) for b, x, y, _ in raw]
    if variant == "discrete":
        _require_clockwise_ring(sites)
    return Instance(variant, k, lines or (0.0,), tuple(sites), tuple(raw))


def _require_clockwise_ring(sites) -> None:
    """Result site ids index the clockwise ring that starts at the
    lexicographically smallest site; the generator writes sites that way."""
    s = len(sites)
    if sites[0] != min(sites):
        raise ValueError("sites do not start at the lexicographic minimum")
    for i in range(s):
        (ax, ay), (bx, by), (cx, cy) = sites[i], sites[(i + 1) % s], sites[(i + 2) % s]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) >= 0:
            raise ValueError("sites are not a clockwise convex ring")


def _centers(inst: Instance, doc) -> list[tuple[float, float]]:
    out = []
    seen = set()
    for c in doc["centers"]:
        if "site" in c:
            ref = ("site", c["site"])
            if not 0 <= c["site"] < len(inst.sites):
                raise ValueError(f"site {c['site']} does not exist")
            xy = inst.sites[c["site"]]
        else:
            ref = ("line", c["x"], c["line"])
            if not 0 <= c["line"] < len(inst.lines):
                raise ValueError(f"line {c['line']} does not exist")
            xy = (c["x"], inst.lines[c["line"]])
        if ref in seen:
            raise ValueError(f"center {ref} repeats")
        seen.add(ref)
        out.append(xy)
    if len(out) > inst.k:
        raise ValueError(f"{len(out)} centers for k={inst.k}")
    return out


def union_weight(inst: Instance, centers, lam: float):
    """Union weight and covered (blue, red) index lists under the rule."""
    r2 = lam * lam
    band = BAND * r2
    weight = 0.0
    blue, red = [], []
    for i, (is_blue, x, y, w) in enumerate(inst.points):
        for cx, cy in centers:
            s = (x - cx) ** 2 + (y - cy) ** 2 - r2
            if (s <= band) if is_blue else (s < -band):
                weight += w
                (blue if is_blue else red).append(i)
                break
    return weight, blue, red


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= BAND * max(1.0, abs(a), abs(b))


def check_solve(inst: Instance, stdout: str, ref: dict) -> tuple[str, str]:
    """Verdict and a one-line reason for one `sofl solve --format json`."""
    doc = json.loads(stdout)
    lam, weight = doc["lambda"], doc["weight"]
    if lam is None:  # an infeasible special instance
        return (OK, "") if ref["lambda"] is None else (WRONG, "no solution reported")
    centers = _centers(inst, doc)
    need = 2.0 * lam - SLACK * max(1.0, 2.0 * lam)
    for i, (ax, ay) in enumerate(centers):
        for bx, by in centers[i + 1:]:
            if math.hypot(ax - bx, ay - by) < need:
                return WRONG, f"centers {ax, ay} and {bx, by} overlap"
    got, blue, red = union_weight(inst, centers, lam)
    if not _same(got, weight):
        return WRONG, f"reported weight {weight} but the union weighs {got}"
    if blue != doc["covered_blue"] or red != doc["covered_red"]:
        return WRONG, "covered ids differ from the recomputed union"
    if ref["lambda"] is None:
        return BEATEN, "solution found where the reference had none"
    if _same(weight, ref["weight"]):
        if lam > ref["lambda"] and not _same(lam, ref["lambda"]):
            return WRONG, f"radius {lam} above the reference {ref['lambda']}"
        return OK, ""
    if weight < ref["weight"]:
        return WRONG, f"weight {weight} below the reference {ref['weight']}"
    return BEATEN, f"weight {weight} above the reference {ref['weight']}"


def check_exit(code) -> str:
    if code == 0:
        return OK
    if code == 1:
        return WRONG
    return ERROR
