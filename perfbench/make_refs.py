#!/usr/bin/env python3
"""Write the committed references: one answer per pool instance.

    python3 perfbench/make_refs.py [workload ...]

For `solve` operations a reference is the weight and radius the program
printed, kept only if the output passes the feasibility and union-weight
checks of verify.py. For `check` operations it is the exit code (0 pass,
1 mismatch); any other code stops the script, because a benchmark
operation must not error. Each reference also holds the SHA-256 of its
instance file, so a run notices when the generator's bytes change.
Regenerate only together with a deliberate change of the references.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import verify as V
import workloads as W


def pool_references(cli, generate, workload: str, workdir: str) -> dict:
    """Solve every pool instance of a workload and return its references."""
    refs = {}
    try:
        for op in W.write_instances(generate, W.pool_keys(workload), workdir):
            out = W.run_op(cli, op)
            ref = {"sha256": W.sha256_file(op.path)}
            if op.stratum.command == W.CHECK:
                if out.code not in (0, 1):
                    raise SystemExit(f"{op.key}: check exited {out.code}: {out.stderr}")
                ref["exit"] = out.code
            else:
                if out.code != 0:
                    raise SystemExit(f"{op.key}: solve exited {out.code}: {out.stderr}")
                doc = json.loads(out.stdout)
                ref["weight"] = doc["weight"]
                ref["lambda"] = doc["lambda"]
                with open(op.path) as fh:
                    verdict, why = V.check_solve(V.parse(fh.read()), out.stdout, ref)
                if verdict != V.OK:
                    raise SystemExit(f"{op.key}: output fails its own check: {why}")
            refs[op.key] = ref
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return refs


def main(names) -> int:
    cli, instance = run.load_sofl()
    os.makedirs(os.path.join(run.HERE, "refs"), exist_ok=True)
    for workload in names or sorted(W.WORKLOADS):
        refs = pool_references(cli, instance.generate, workload,
                               os.path.join(run.WORK, f"refs-{workload}-{os.getpid()}"))
        path = os.path.join(run.HERE, "refs", f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(refs)} references -> {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
