#!/usr/bin/env python3
"""Hunt for instances where the farthest-map breakpoints alone are not
enough for the cover-all-blues objective.

The breakpoint-only candidate set misses red-count transitions interior to
an owner cell (a red enters or leaves the covering disk where its bisector
with the cell owner crosses the line). This script scans generated
instances, evaluates the breakpoints of `farthest_breaks` alone with a
scalar `classify` loop, reports every instance where they give more reds
than `allblue_minred`, and verifies the solver's answer against the
exhaustive reference.

Usage: PYTHONPATH=src python scripts/allblue_findings.py [COUNT]
"""

import math
import sys

from sofl.geom import Disk, Region, classify, dist2
from sofl.instance import generate, parse_instance
from sofl.oracle import brute_k1_allblue
from sofl.variants_k1 import allblue_minred, farthest_breaks


def breakpoints_only(points):
    """(center_x, radius, red_count) of the best disk centered at a
    farthest-map breakpoint that covers every blue, fewest reds first, then
    smallest radius and center; None when the map has no breakpoint."""
    blues = [p for p in points if p.is_blue]
    reds = [p for p in points if not p.is_blue]
    best = None
    for x, _ in farthest_breaks(blues).breaks:
        rad = math.sqrt(max(dist2(x, 0.0, b.x, b.y) for b in blues))
        disk = Disk(x, 0.0, rad)
        key = (sum(1 for r in reds if classify(r, disk) is Region.INSIDE), rad, x)
        if best is None or key < best:
            best = key
    return None if best is None else best[::-1]


def run(count=500):
    findings = 0
    for seed in range(count):
        inst = parse_instance(generate(seed, 2 + seed % 9, 1, "csofl", red_fraction=0.5))
        if not any(p.is_blue for p in inst.points):
            continue
        best = allblue_minred(inst.points)
        only = breakpoints_only(inst.points)
        if only is None or only[2] <= best[2]:
            continue
        findings += 1
        ref = brute_k1_allblue(inst.points)
        fixed = "repaired" if best[2] == ref[2] else "STILL WRONG"
        print(
            f"seed {seed}: breakpoints give {only[2]} reds, "
            f"extended candidates give {best[2]} (reference {ref[2]}; {fixed})"
        )
        for p in inst.points:
            print(f"    {p.color.value} {p.x:g} {p.y:g}")
    print(f"{findings} findings in {count} instances")
    return findings


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 500)
