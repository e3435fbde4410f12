#!/usr/bin/env python3
"""sofl benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload line --seed 1 --seconds 28 --trace 0

Load: a closed loop with one caller in one process. Each operation is one
in-process call to `sofl.cli.main` on an instance file; the next starts
when the previous returns. `--jobs` stays at its default of 1.

Set-up imports `sofl` from `src/` beside this directory, writes the seed's
instance files under `perfbench/_work/`, loads the committed references
and runs one untimed warm-up operation. `setup_s` is the median user CPU
time of five set-ups, this process's own and four in fresh child
processes.

`--trace 0` runs untraced passes over the operation list until `--seconds`
have passed and reports the end-to-end metrics. The bounded times are
calibrated: each operation's time is divided by the time of a fixed
kernel measured around it (see `calibrate`), because the speed of a
shared machine drifts by more than any useful bound. `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics; it checks
that traced and untraced passes print the same bytes. Every operation's
output is checked (see verify.py). The last line of standard output is one
JSON object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracer as T
import verify as V
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
TRACES = os.path.join(HERE, "_traces")
SETUP_SAMPLES = 5
CAL_EVERY = 0.25  # seconds of operations between calibration samples

END_TO_END_UNITS = {"setup_s": "s", "wall_cal": "cal", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_sofl():
    """Import `sofl` from this checkout's `src/` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sofl", "__init__.py")):
        raise SetupError(f"no sofl sources under {SRC}")
    sys.path.insert(0, SRC)
    import sofl.cli
    import sofl.instance

    if not os.path.abspath(sofl.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported sofl from {sofl.__file__}, not {SRC}")
    return sofl.cli, sofl.instance


def load_refs(workload: str) -> dict:
    path = os.path.join(HERE, "refs", f"{workload}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot load references {path}: {exc}") from exc


class Setup:
    """Everything a run needs before its first timed pass."""

    def __init__(self, workload: str, seed: int, workdir: str):
        t0, u0 = time.perf_counter(), _user_cpu()
        self.cli, instance = load_sofl()
        warm, *self.ops = W.write_instances(
            instance.generate, [W.warmup(workload)] + W.select(workload, seed), workdir)
        refs = load_refs(workload)
        self.refs = {}
        self.insts = {}
        for op in [warm] + self.ops:
            ref = refs.get(op.key)
            if ref is None or ref["sha256"] != W.sha256_file(op.path):
                raise SetupError(f"{op.key}: instance bytes differ from the reference's")
            self.refs[op.key] = ref
            if op.stratum.command == W.SOLVE:
                with open(op.path) as fh:
                    self.insts[op.key] = V.parse(fh.read())
        W.run_op(self.cli, warm)
        self.seconds = time.perf_counter() - t0
        self.user = _user_cpu() - u0


def _user_cpu() -> float:
    """User CPU seconds of this process, to the microsecond."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    w: float

    def __post_init__(self):
        if self.w == 0:
            raise ValueError("zero weight")


def _covers(p: _Point, cx: float, r2: float) -> bool:
    return (p.x - cx) ** 2 + p.y * p.y - r2 <= 1e-9 * max(1.0, r2)


def calibrate() -> float:
    """Seconds a fixed kernel takes, about 30 ms on a 2-core x86 VM.

    The kernel mimics the solvers' interpreter work (frozen dataclasses,
    coverage predicates, sorting, a max-prefix pass, formatting) but shares
    no code with `sofl`, so its time tracks only how fast the machine runs
    such code at that moment.
    """
    t0 = time.perf_counter()
    pts = [_Point(float(i % 17), float(1 + i % 5), (1.0 + i % 9) * (1 if i % 3 else -1))
           for i in range(48)]
    out = []
    for lam in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0):
        r2 = lam * lam
        xs = sorted({round(p.x + s * math.sqrt(max(0.0, r2 - p.y * p.y)), 9)
                     for p in pts for s in (-1, 1)})
        best = 0.0
        for x in xs:
            best = max(best, sum(p.w for p in pts if _covers(p, x, r2)))
        out.append(f"{lam:.3g} {best:.12g}")
    return time.perf_counter() - t0


def run_pass(cli, ops, tracer: T.Tracer | None = None, calibrated: bool = False):
    """One pass over the operation list.

    Returns the pass wall time, the outcomes and, when `calibrated`, each
    operation's calibration time: the mean of the `calibrate` samples taken
    just before and just after it. Samples are taken before the pass, after
    every CAL_EVERY seconds of operations and after the pass; their time is
    left out of the pass wall.
    """
    outcomes, cal, marks = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        spent = 0.0
        if calibrated:
            cal.append(calibrate())
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            outcomes.append(W.run_op(cli, op))
            marks.append(len(cal) - 1)
            spent += outcomes[-1].seconds
            if calibrated and spent >= CAL_EVERY:
                cal.append(calibrate())
                spent = 0.0
        if calibrated:
            cal.append(calibrate())
        wall = time.perf_counter() - t0 - sum(cal)
    finally:
        if tracer is not None:
            tracer.remove()
    scales = [(cal[m] + cal[m + 1]) / 2 for m in marks] if calibrated else None
    return wall, outcomes, scales


def judge(setup: Setup, op: W.Op, out: W.Outcome) -> tuple[str, str]:
    """Verdict for one operation: ok, wrong, reference_beaten or error."""
    if op.stratum.command == W.CHECK:
        verdict = V.check_exit(out.code)
        if verdict == V.OK and setup.refs[op.key]["exit"] == 1:
            return V.BEATEN, "check now passes"
        return verdict, out.stdout.strip().splitlines()[-1] if out.stdout.strip() else out.stderr
    if out.code != 0:
        return V.ERROR, f"exit {out.code}: {out.stderr.strip()[-200:]}"
    try:
        return V.check_solve(setup.insts[op.key], out.stdout, setup.refs[op.key])
    except (ValueError, KeyError, TypeError) as exc:
        return V.WRONG, f"unreadable output: {exc}"


class Tally:
    """Verdict counts over every measured operation of a run.

    A `check` whose committed reference records the mismatch (exit 1) and
    which still mismatches reproduces the known defect (ROADMAP item 2): it
    counts in `wrong_frac` and `known`, but it is the expected outcome, so
    it is not a failed operation. Every other wrong output, every error and
    every traced/untraced output difference is one.
    """

    def __init__(self):
        self.counts = {V.OK: 0, V.WRONG: 0, V.BEATEN: 0, V.ERROR: 0}
        self.known = 0  # wrong outputs the references record
        self.failed = 0
        self.regressions = []  # why each failed operation failed
        self.first_wrong = ""

    def add(self, setup: Setup, ops, outcomes) -> None:
        for op, out in zip(ops, outcomes):
            verdict, why = judge(setup, op, out)
            self.counts[verdict] += 1
            if verdict == V.WRONG and not self.first_wrong:
                self.first_wrong = f"{op.key}: {why}"
            known = op.stratum.command == W.CHECK and setup.refs[op.key]["exit"] == 1
            if verdict == V.WRONG and known:
                self.known += 1
            elif verdict in (V.WRONG, V.ERROR):
                self.failed += 1
                self.regressions.append(f"{op.key}: {why}")

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def setup_samples(workload: str, seed: int, own: Setup) -> list[tuple[float, float]]:
    """(user CPU, wall) seconds of this run's set-up and of fresh-process
    set-ups of the same seed.

    `setup_s` is the user CPU time: the wall time adds the kernel's time
    to create the instance files, which on a shared machine swings from
    0.02 to 0.3 s for the same files, more than the rest of set-up varies.
    The user time holds everything the program itself does in set-up:
    importing, generating the instances, the warm-up operation.
    """
    samples = [(own.user, own.seconds)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-sample",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up sample failed: {proc.stderr.strip()[-300:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((doc["user"], doc["wall"]))
    return samples


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load": "closed loop, 1 caller, single process, sofl.cli.main in-process, --jobs 1",
    }


@dataclass
class Passes:
    """Timings of a run's passes; the per-op lists hold one row per pass."""

    walls: list = field(default_factory=list)  # untraced pass walls, s
    op_times: list = field(default_factory=list)  # untraced, s
    op_cals: list = field(default_factory=list)  # untraced, cal
    traced_walls: list = field(default_factory=list)  # s
    traced_cals: list = field(default_factory=list)  # traced pass totals, cal


def measure(setup: Setup, seconds: float, traced: bool, tally: Tally):
    """Passes until `seconds` have passed; returns their timings and the
    tracer, if any."""
    tracer = T.Tracer() if traced else None
    res = Passes()
    first = None
    calibrate()  # the kernel's first run warms the interpreter for it
    t0 = time.perf_counter()
    wall = 0.0
    # Stop before a pass that would end past `seconds`, after at least one
    # untraced (and, when tracing, one traced) pass.
    while (not res.walls or (traced and not res.traced_walls)
           or time.perf_counter() - t0 + wall <= seconds):
        use_tracer = traced and len(res.traced_walls) < len(res.walls)
        wall, outs, scales = run_pass(setup.cli, setup.ops, tracer if use_tracer else None,
                                      calibrated=True)
        tally.add(setup, setup.ops, outs)
        if first is None:
            first = outs
        elif traced:
            for op, a, b in zip(setup.ops, first, outs):
                if (a.code, a.stdout, a.stderr) != (b.code, b.stdout, b.stderr):
                    tally.failed += 1
                    tally.regressions.append(f"{op.key}: traced and untraced output differ")
        cal = [o.seconds / c for o, c in zip(outs, scales)]
        if use_tracer:
            res.traced_walls.append(wall)
            res.traced_cals.append(sum(cal))
        else:
            res.walls.append(wall)
            res.op_times.append([o.seconds for o in outs])
            res.op_cals.append(cal)
    return res, tracer


def report_end_to_end(setup_s, res: Passes, tally: Tally) -> dict:
    """Print every end-to-end metric; return the ones BENCHMARK.json bounds.

    The rest is printed only: raw times drift with the machine, the
    medians of single operations move with which pool entries the seed
    picks, the p90 has fewer than ten samples beyond it on most workloads,
    and the failure fractions are zero on most workloads.
    """
    # Per-operation medians over the passes damp transient slow-downs of
    # a shared machine; every pass runs the same operations.
    op_times = res.op_times
    per_op = [statistics.median(ts) for ts in zip(*op_times)]
    pooled = [t for times in op_times for t in times]
    p90 = statistics.quantiles(pooled, n=10, method="inclusive")[-1]
    beyond = sum(1 for t in pooled if t > p90)
    att = tally.attempted
    per_op_cal = [statistics.median(ts) for ts in zip(*res.op_cals)]
    metrics = {
        "setup_s": statistics.median(user for user, _ in setup_s),
        "wall_cal": sum(per_op_cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in metrics.items():
        print(f"{name:<16} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{'op_cal.p50':<16} {statistics.median(per_op_cal):.6g} cal")
    print(f"{'wall_s':<16} {sum(per_op):.6g} s")
    print(f"{'op_s.p50':<16} {statistics.median(per_op):.6g} s")
    print(f"{'op_s.p90':<16} {p90:.6g} s ({beyond} of {len(pooled)} op samples beyond it"
          f"{'' if beyond >= 10 else '; fewer than 10, indicative only'})")
    print(f"{'wrong_frac':<16} {tally.counts[V.WRONG] / att:.6g} "
          f"({tally.counts[V.WRONG]} wrong of {att} attempted; {tally.known} of them "
          f"the known mismatches the references record)")
    print(f"{'error_frac':<16} {tally.counts[V.ERROR] / att:.6g} "
          f"({tally.counts[V.ERROR]} errors of {att} attempted)")
    print(f"{'reference_beaten':<16} {tally.counts[V.BEATEN]} of {att}")
    print(f"{'setup_wall_s':<16} {statistics.median(wall for _, wall in setup_s):.6g} s")
    print(f"# setup samples (user/wall s): {' '.join(f'{a:.4f}/{b:.4f}' for a, b in setup_s)}; "
          f"pass walls (s): {' '.join(f'{w:.4f}' for w in res.walls)}")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}


def report_per_layer(res: Passes, tracer: T.Tracer, ops: int) -> dict:
    passes = len(res.traced_walls)
    metrics = tracer.metrics(passes, ops)
    # Calibrated pass totals, so that a change of machine speed between the
    # traced and the untraced passes does not read as tracing overhead.
    untraced = statistics.median(sum(cal) for cal in res.op_cals)
    metrics["trace.overhead_frac"] = statistics.median(res.traced_cals) / untraced - 1.0
    units = {}
    for name in metrics:
        if name.endswith("_s"):
            units[name] = "s"
        elif name in ("solver.improve_ratio", "trace.overhead_frac"):
            units[name] = "ratio"
        elif name == "placement.union_per_op":
            units[name] = "calls/op"
        else:
            units[name] = "count"
    for name, value in metrics.items():
        print(f"{name:<28} {value:.6g} {units[name]}")
    shares = tracer.layer_self_s(passes)
    wall = statistics.mean(res.traced_walls)
    print("# layer self time / traced pass wall: " + ", ".join(
        f"{layer} {s / wall:.3f}" for layer, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    if tracer.absent:
        print("# absent (not traced): " + " ".join(tracer.absent))
    if tracer.unavailable:
        print("# counters unavailable for: " + " ".join(sorted(tracer.unavailable)))
    return {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true",
                    help="time one set-up, print it and exit (used for setup_s)")
    args = ap.parse_args(argv)

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = Setup(args.workload, args.seed, workdir)
        if args.setup_sample:
            print(json.dumps({"user": setup.user, "wall": setup.seconds}))
            return 0
        setup_s = [] if args.trace else setup_samples(args.workload, args.seed, setup)
        print(f"# sofl benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}, {len(setup.ops)} ops per pass")
        print("# machine: " + json.dumps(machine()))
        tally = Tally()
        res, tracer = measure(setup, args.seconds, bool(args.trace), tally)
        if args.trace:
            metrics = report_per_layer(res, tracer, len(setup.ops))
            os.makedirs(TRACES, exist_ok=True)
            tracer.write(os.path.join(TRACES, f"{args.workload}-{args.seed}.txt"))
        else:
            metrics = report_end_to_end(setup_s, res, tally)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.regressions[:5]:
        print(f"# REGRESSION {line}")
    if tally.first_wrong:
        print(f"# first wrong output: {tally.first_wrong}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
