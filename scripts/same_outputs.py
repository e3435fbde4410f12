#!/usr/bin/env python3
"""Compare the command line outputs of a base revision with the working tree.

    python3 scripts/same_outputs.py HEAD~1

The base is `git archive` of BASE, unpacked into a temporary directory
outside the repository as `bench_pairs.py` does; the other side is this
checkout's `src/`. The instances are every `golden/*.txt` file and every
pool entry of the four benchmark workloads, written by this tree's
generator through `perfbench/workloads.py`, which is loaded by path. On
each instance both sides run `sofl solve --format text` and `--format
json` once per algorithm that applies (dp, and fast or fvd for the k = 1
special variants) and `sofl check` once, comparing exit codes and output
bytes (for check, the solver and oracle lines and the verdict). A t-lines
instance is also solved (json) at `--k 3`, which runs the search on its
compatibility bitsets, and at `--tol 1e-4` and `--tol 5e-7`, whose wide
bands chain radii both ways and stretch the pair cuts' margins. A last
operation per instance compares the `repr` of its candidate radii, which a
solve's output can hide: `candidate_radii_line` and `line_contacts` on the
line y = 0 for the one-line variants, `candidate_radii_tlines` and
`line_contacts` per line for t-lines, and `candidate_radii_discrete` for
discrete. Each side runs in one process of its own that calls
`sofl.cli.main` and the candidate functions in-process. Prints every
difference and a count; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile

from bench_pairs import export

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANDIDATES = "candidates"  # the operation that prints an instance's candidate radii


def instances() -> list[tuple[str, str]]:
    """(name, text) of the golden files and of every workload pool entry."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sofl import generate

    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "golden", "*.txt"))):
        with open(path) as fh:
            out.append((f"golden/{os.path.basename(path)}", fh.read()))
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    wl = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = wl  # its dataclasses look their module up
    spec.loader.exec_module(wl)
    for workload in wl.WORKLOADS:
        for st, i in wl.pool_keys(workload):
            out.append((f"{workload}/{st.name}/{i}", wl.instance_text(generate, st, i)))
    return out


def operations(text: str, path: str) -> list[list[str]]:
    """The argument lists run on one instance file."""
    from sofl import parse_instance

    inst = parse_instance(text)
    algorithms = ["dp"]
    if inst.k == 1:
        algorithms += {"maxblue-nored": ["fast"], "allblue-minred": ["fvd"]}.get(inst.variant, [])
    ops = [["solve", "--input", path, "--algorithm", a, "--format", f] for a in algorithms for f in ("text", "json")]
    if inst.variant == "tlines":
        ops += [["solve", "--input", path, *extra, "--format", "json"]
                for extra in (["--k", "3"], ["--tol", "1e-4"], ["--tol", "5e-7"])]
    return ops + [["check", "--input", path], [CANDIDATES, "--input", path]]


def candidate_radii(path: str) -> str:
    """The repr of the candidate radii and contacts of one instance file."""
    from sofl import candidates, parse_instance

    with open(path) as fh:
        inst = parse_instance(fh.read())
    if inst.variant == "discrete":
        out = [candidates.candidate_radii_discrete(inst.points, inst.sites)]
    elif inst.variant == "tlines":
        out = [candidates.candidate_radii_tlines(inst.points, inst.lines, inst.k)]
        out += [candidates.line_contacts(inst.points, ly, inst.k) for ly in inst.lines]
    else:
        out = [candidates.candidate_radii_line(inst.points, 0.0, inst.k),
               candidates.line_contacts(inst.points, 0.0, inst.k)]
    return repr(out)


def worker() -> None:
    """Run the operations read from stdin with this process's `sofl`; print
    its location, then per operation [exit code, stdout], as JSON."""
    from sofl import cli

    results = []
    for argv in json.load(sys.stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                if argv[0] == CANDIDATES:
                    print(candidate_radii(argv[2]))
                    code = 0
                else:
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a fault is an outcome to compare, not fatal
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue()])
    json.dump({"sofl": os.path.dirname(cli.__file__), "results": results}, sys.stdout)


def start(src: str, ops: list[list[str]], cwd: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker"], cwd=cwd, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(ops))
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen, src: str) -> list:
    doc = json.loads(proc.stdout.read())
    if proc.wait() != 0 or os.path.realpath(doc["sofl"]) != os.path.realpath(os.path.join(src, "sofl")):
        raise SystemExit(f"worker on {src} failed or imported sofl from {doc['sofl']}")
    return doc["results"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", help="git revision of the base side")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker()
        return 0
    if args.base is None:
        ap.error("the base revision is required")

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        base_src = os.path.join(export(args.base, os.path.join(tmp, "base")), "src")
        tree_src = os.path.join(ROOT, "src")
        names, ops = [], []
        for i, (name, text) in enumerate(instances()):
            path = os.path.join(tmp, f"{i}.txt")
            with open(path, "w") as fh:
                fh.write(text)
            for op in operations(text, path):
                names.append(name)
                ops.append(op)
        procs = [start(src, ops, tmp) for src in (base_src, tree_src)]
        base, tree = (finish(proc, src) for proc, src in zip(procs, (base_src, tree_src)))

    differences = 0
    for name, op, a, b in zip(names, ops, base, tree):
        if a != b:
            differences += 1
            print(f"DIFF {name} {' '.join(op[:1] + op[3:])}:\n  base {a!r:.300}\n  tree {b!r:.300}")
    print(f"{len(set(names))} instances, {len(ops)} operations, {differences} differences "
          f"(base {args.base}, tree {ROOT})")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
