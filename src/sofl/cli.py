"""Command line driver: solve, gen, and check subcommands.

Exit codes: 0 ok, 1 oracle mismatch (check), 2 parse or semantic error,
3 oracle size guard exceeded. A solver fault, such as a
`ValidationFailureError`, is not an input error: it propagates.
"""

from __future__ import annotations

import argparse
import sys

from . import oracle
from .discrete import solve_discrete
from .geom import TolerancePolicy
from .instance import (
    ProblemInstance,
    emit_result,
    generate,
    parse_instance,
)
from .multiline import solve_tlines
from .placement import LineCenter, Placement, line_placement
from .solver import solve_csofl, solve_special
from .variants_k1 import allblue_minred, maxblue_nored_fast

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3


def _solve(inst: ProblemInstance, algorithm: str, tol: TolerancePolicy) -> Placement | None:
    if inst.variant == "csofl":
        return solve_csofl(inst.points, 0.0, inst.k, tol)
    if inst.variant == "tlines":
        return solve_tlines(inst.points, inst.lines, inst.k, tol)
    if inst.variant == "discrete":
        return solve_discrete(inst.sites, inst.points, inst.k, tol)
    if inst.variant == "maxblue-nored" and inst.k == 1 and algorithm == "fast":
        fn = maxblue_nored_fast
    elif inst.variant == "allblue-minred" and inst.k == 1 and algorithm == "fvd":
        fn = allblue_minred
    else:
        return solve_special(inst.points, 0.0, inst.k, inst.variant, tol).placement
    result = fn(inst.points, tol)  # (center x, radius, count) or None
    return None if result is None else line_placement(
        inst.points, [0.0], result[1], (LineCenter(result[0]),), tol)


# The brute-force reference of each variant that `_solve` solves directly.
# The oracle functions are looked up at call time, so a rebound
# `oracle.brute_*` (a tracer's wrapper) is the one called.
_REFERENCE = {
    "csofl": lambda inst, tol: oracle.brute_csofl(inst.points, 0.0, inst.k, tol),
    "tlines": lambda inst, tol: oracle.brute_tlines(inst.points, inst.lines, inst.k, tol),
    "discrete": lambda inst, tol: oracle.brute_discrete(inst.sites, inst.points, inst.k, tol),
}


def _check(inst: ProblemInstance, tol: TolerancePolicy, out) -> int:
    """Run the brute and optimized paths, print both, compare. The brute
    path runs first, so an instance past its size guard exits before any
    solve."""
    if inst.variant in _REFERENCE:
        ref = _REFERENCE[inst.variant](inst, tol)
        fast = _solve(inst, "dp", tol)
        print(f"solver  weight={fast.total_weight:.12g} lambda={fast.radius:.12g}", file=out)
        print(f"oracle  weight={ref.weight:.12g} lambda={ref.radius:.12g}", file=out)
        ok = fast.total_weight == ref.weight and fast.radius == ref.radius
    elif inst.variant == "maxblue-nored" and inst.k == 1:
        ref = oracle.brute_k1_maxblue(inst.points, tol)
        fast = maxblue_nored_fast(inst.points, tol)
        print(f"fast    {fast}", file=out)
        print(f"oracle  {ref}", file=out)
        ok = fast == ref
    elif inst.variant == "allblue-minred" and inst.k == 1:
        ref = oracle.brute_k1_allblue(inst.points, tol)
        fast = allblue_minred(inst.points, tol)
        print(f"solver  {fast}", file=out)
        print(f"oracle  {ref}", file=out)
        ok = fast[2] == ref[2]  # red counts; centers may legitimately differ
    else:
        ref = oracle.brute_special_counts(inst.points, 0.0, inst.k, inst.variant, tol)
        res = solve_special(inst.points, 0.0, inst.k, inst.variant, tol)
        if inst.variant == "maxblue-nored":
            print(f"solver  blue={res.blue_covered} red={res.red_covered}", file=out)
            print(f"oracle  blue={ref} red=0", file=out)
            ok = res.red_covered == 0 and res.blue_covered == ref
        else:
            feasible, ref_red = ref
            print(f"solver  all_blue={res.all_blue_covered} red={res.red_covered}", file=out)
            print(f"oracle  feasible={feasible} red={ref_red}", file=out)
            ok = (not feasible and not res.all_blue_covered) or (
                feasible and res.all_blue_covered and res.red_covered == ref_red
            )
    print("check " + ("PASS" if ok else "MISMATCH"), file=out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sofl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--k", type=int, default=None, help="override the instance k")
    p_solve.add_argument("--algorithm", choices=("dp", "fast", "fvd"), default="dp")
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--format", choices=("text", "json"), default="text")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--variant", required=True)
    p_gen.add_argument("--red-fraction", type=float, default=0.5)
    p_gen.add_argument("--coord-range", type=int, default=20)
    p_gen.add_argument("--weight-range", type=int, default=9)
    p_gen.add_argument("--t", type=int, default=2, help="lines for the tlines variant")
    p_gen.add_argument("--s", type=int, default=6, help="sites for the discrete variant")
    p_gen.add_argument("--out", default=None)

    p_check = sub.add_parser("check", help="cross-check solver against the oracle")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--k", type=int, default=None)
    p_check.add_argument("--tol", type=float, default=1e-9)
    return parser


# Built once: parse_args returns a fresh namespace and keeps no state.
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if args.command == "gen":
        try:
            text = generate(args.seed, args.n, args.k, args.variant,
                            args.red_fraction, args.coord_range,
                            args.weight_range, args.t, args.s)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    try:
        tol = TolerancePolicy(eps=args.tol)
        with open(args.input) as fh:
            inst = parse_instance(fh.read(), args.k)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.command == "solve":
        try:
            placement = _solve(inst, args.algorithm, tol)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        sys.stdout.write(emit_result(placement, args.format))
        return EXIT_OK

    try:
        return _check(inst, tol, sys.stdout)
    except oracle.TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
