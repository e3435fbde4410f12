#!/usr/bin/env python3
"""Self-test of the benchmark itself, not of `sofl`.

    python3 perfbench/selftest.py [workload ...]

Checks, per workload:

1. The same seed writes the same instance bytes, and another seed picks
   another operation list.
2. The committed references equal a fresh solve of every pool instance.
3. One traced and one untraced pass print byte-identical `sofl` output.

Exits 1 if any check fails. Takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys

import make_refs
import run
import tracer as T
import workloads as W


def same_bytes(generate, workload: str) -> bool:
    dirs = [os.path.join(run.WORK, f"selftest-{workload}-{os.getpid()}-{i}") for i in (0, 1)]
    try:
        paths = [[op.path for op in W.write_instances(generate, W.select(workload, 7), d)]
                 for d in dirs]
        same = all(filecmp.cmp(a, b, shallow=False) for a, b in zip(*paths))
        return same and W.select(workload, 7) != W.select(workload, 8)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)


def refs_match(cli, generate, workload: str) -> bool:
    fresh = make_refs.pool_references(
        cli, generate, workload, os.path.join(run.WORK, f"selftest-refs-{os.getpid()}"))
    return fresh == run.load_refs(workload)


def trace_transparent(workload: str) -> bool:
    workdir = os.path.join(run.WORK, f"selftest-pass-{workload}-{os.getpid()}")
    try:
        setup = run.Setup(workload, 1, workdir)
        _, plain, _ = run.run_pass(setup.cli, setup.ops)
        _, traced, _ = run.run_pass(setup.cli, setup.ops, T.Tracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return all((a.code, a.stdout, a.stderr) == (b.code, b.stdout, b.stderr)
               for a, b in zip(plain, traced))


def main(names) -> int:
    cli, instance = run.load_sofl()
    failures = 0
    for workload in names or sorted(W.WORKLOADS):
        for check, ok in (
            ("same seed, same instance bytes", same_bytes(instance.generate, workload)),
            ("references match a fresh solve", refs_match(cli, instance.generate, workload)),
            ("traced and untraced output identical", trace_transparent(workload)),
        ):
            print(json.dumps({"workload": workload, "check": check, "pass": ok}), flush=True)
            failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
