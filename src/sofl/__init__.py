"""Exact solvers for placing k non-overlapping congruent disks of minimum
radius on a line, on several lines, or at convex-position candidate sites,
maximizing the signed weight of covered bichromatic demand points."""

from .candidates import (
    CandidateRadius,
    candidate_radii_discrete,
    candidate_radii_line,
    candidate_radii_tlines,
)
from .discrete import SiteRing, solve_discrete
from .geom import (
    Color,
    ColoredPoint,
    Disk,
    Region,
    TolerancePolicy,
    classify,
    disk_weight,
    is_covered,
)
from .instance import (
    ProblemInstance,
    emit_result,
    format_instance,
    generate,
    parse_instance,
)
from .multiline import solve_tlines
from .oracle import brute_fixed_radius
from .placement import LineCenter, Placement, SiteCenter
from .solver import solve_csofl, solve_special
from .variants_k1 import allblue_minred, maxblue_nored_fast

__version__ = "0.1.0"

__all__ = [
    "CandidateRadius",
    "Color",
    "ColoredPoint",
    "Disk",
    "LineCenter",
    "Placement",
    "ProblemInstance",
    "Region",
    "SiteCenter",
    "SiteRing",
    "TolerancePolicy",
    "allblue_minred",
    "brute_fixed_radius",
    "candidate_radii_discrete",
    "candidate_radii_line",
    "candidate_radii_tlines",
    "classify",
    "disk_weight",
    "emit_result",
    "format_instance",
    "generate",
    "is_covered",
    "maxblue_nored_fast",
    "parse_instance",
    "solve_csofl",
    "solve_discrete",
    "solve_special",
    "solve_tlines",
]
