#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark on one workload.

    python3 scripts/bench_pairs.py sites HEAD~1 10 [--seed 1]

The parent is `git archive` of the base revision, unpacked into a temporary
directory outside the repository; the change is a copy of this checkout's
working tree, the files `git ls-files -co --exclude-standard` lists
(tracked and untracked, not ignored), in a second temporary directory. So
both sides start from source files alone, without `__pycache__` or
`perfbench/_work` from earlier runs. Pair i runs both sides at seed
--seed + i with the benchmark's command, its run_seconds and `--trace 0`;
even pairs run the parent first, odd pairs the change.

For each end-to-end metric of BENCHMARK.json it prints the per-pair values
(parent/change), each side's median, how many pairs the change wins (ties
count for neither) and the parent's quartiles and their distance (IQR).
It also lists every run that was not correct, failed an operation, or
printed no result. Nothing in the repository is written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, path: str) -> str:
    """Unpack `git archive rev` of this repository into path."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(path, filter="data")
    return path


def snapshot(path: str) -> str:
    """Copy the working tree's listed files into path; a tracked file deleted
    from the tree is skipped."""
    names = subprocess.run(["git", "-C", ROOT, "ls-files", "-co", "--exclude-standard", "-z"],
                           check=True, capture_output=True, text=True).stdout.split("\0")
    for name in names:
        if os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.join(path, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(path, name))
    return path


def run(root: str, command: list[str], workload: str, seed: int, seconds: float) -> dict | None:
    """The result object a benchmark run prints last, or None if it printed none."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("base", help="git revision of the parent side")
    ap.add_argument("pairs", type=int)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        sides = {"parent": export(args.base, os.path.join(tmp, "parent")),
                 "change": snapshot(os.path.join(tmp, "change"))}
        values = {m["name"]: {"parent": [], "change": []} for m in metrics}
        bad = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                res = run(sides[side], bench["command"], args.workload, seed, seconds)
                got[side] = res
                if res is None or not res["correct"] or res["failed"] > 0:
                    bad.append(f"pair {i + 1} seed {seed} {side}: "
                               + ("no result" if res is None else
                                  f"correct {res['correct']}, failed {res['failed']} of {res['attempted']}"))
            if None in got.values():
                continue
            for m in metrics:
                for side in order:
                    values[m["name"]][side].append(got[side]["metrics"][m["name"]]["value"])
            print(f"pair {i + 1} seed {seed} ({order[0]} first): " + ", ".join(
                f"{m['name']} {values[m['name']]['parent'][-1]:.4g}/"
                f"{values[m['name']]['change'][-1]:.4g}" for m in metrics), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"\n{args.workload}: parent {args.base}, change a copy of the working tree, "
          f"--seconds {seconds:g}, seeds {args.seed}..{args.seed + args.pairs - 1}")
    for m in metrics:
        par, chg = values[m["name"]]["parent"], values[m["name"]]["change"]
        if not par:
            continue
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        q1, q3 = quartiles(par)
        mp, mc = statistics.median(par), statistics.median(chg)
        print(f"{m['name']} ({m['unit']}): " + " ".join(f"{p:.4g}/{c:.4g}" for p, c in zip(par, chg)))
        print(f"  median {mp:.4g} -> {mc:.4g} ({100 * (mc - mp) / mp:+.1f}%), "
              f"{m['better']} in {wins} of {len(par)}, parent quartiles {q1:.4g}-{q3:.4g} "
              f"(IQR {q3 - q1:.4g})")
    for line in bad:
        print(f"BAD RUN {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
