"""Workload definitions: instance pools, per-seed operation lists, op runner.

Every workload is a list of strata. A stratum is one kind of operation (a
`sofl` subcommand on one variant and size class) with a fixed pool of
instances. The pool is fixed so that a reference answer for each of its
instances can be committed under `refs/`. The workload seed picks which
pool instances one pass runs and in which order; the instance files are
written from scratch in set-up.

Instances come from the documented LCG generator (`sofl.instance.generate`),
seeded per pool entry. The tolerance-edge family instead uses a seeded
`random.Random`, following the fuzz recipe for the touching-disk defect:
k=2, n 2-5, integer x in [-4, 4], y one of 1e-5, 1e-6 or an integer 1-4,
weights 1-9, 60% blue.

This module imports nothing from `sofl` at import time; callers pass the
loaded `sofl` modules in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
import traceback
import zlib
from dataclasses import dataclass

SOLVE = "solve"
CHECK = "check"


@dataclass(frozen=True)
class Stratum:
    """One operation kind and its instance pool.

    `n`, `k` and `s` are inclusive ranges; pool entry i takes the values
    n_lo + i % |n|, then k and s cycle with the quotient, so a pool spreads
    evenly over its ranges.
    """

    name: str
    command: str
    variant: str
    n: tuple[int, int]
    k: tuple[int, int]
    pool: int
    per_pass: int
    t: int = 2
    s: tuple[int, int] = (6, 6)
    algorithm: str = "dp"
    family: str = "lcg"  # "lcg" or "tol-edge"


# Sizes and shares are chosen so that one pass takes a few seconds on a
# 2-core x86 machine and the named layer dominates; see README.md.
WORKLOADS: dict[str, list[Stratum]] = {
    "line": [
        Stratum("k1-fvd-400", SOLVE, "allblue-minred", (400, 400), (1, 1), 8, 2, algorithm="fvd"),
        Stratum("k1-fast-400", SOLVE, "maxblue-nored", (400, 400), (1, 1), 8, 2, algorithm="fast"),
        Stratum("csofl-48-k2", SOLVE, "csofl", (48, 48), (2, 2), 10, 3),
        Stratum("csofl-48-k4", SOLVE, "csofl", (48, 48), (4, 4), 3, 1),
        Stratum("maxblue-64-k2", SOLVE, "maxblue-nored", (64, 64), (2, 2), 3, 1),
        Stratum("allblue-64-k2", SOLVE, "allblue-minred", (64, 64), (2, 2), 3, 1),
    ],
    "tlines": [
        Stratum("t2-n8-k2", SOLVE, "tlines", (8, 8), (2, 2), 22, 20, t=2),
        Stratum("t3-n8-k2", SOLVE, "tlines", (8, 8), (2, 2), 2, 2, t=3),
        Stratum("t2-n6-k3", SOLVE, "tlines", (6, 6), (3, 3), 4, 4, t=2),
    ],
    "sites": [
        Stratum("s12-k3", SOLVE, "discrete", (20, 20), (3, 3), 8, 5, s=(12, 12)),
        Stratum("s14-k3", SOLVE, "discrete", (20, 20), (3, 3), 3, 2, s=(14, 14)),
        Stratum("s14-k4", SOLVE, "discrete", (20, 20), (4, 4), 1, 1, s=(14, 14)),
        Stratum("s16-k4", SOLVE, "discrete", (20, 20), (4, 4), 1, 1, s=(16, 16)),
    ],
    "small-check": [
        Stratum("tol-edge", CHECK, "csofl", (2, 5), (2, 2), 150, 120, family="tol-edge"),
        Stratum("csofl", CHECK, "csofl", (3, 8), (1, 3), 96, 72),
        Stratum("tlines", CHECK, "tlines", (1, 3), (1, 1), 32, 24, t=2),
        Stratum("discrete", CHECK, "discrete", (3, 8), (1, 3), 64, 48, s=(5, 8)),
        Stratum("maxblue", CHECK, "maxblue-nored", (3, 8), (1, 2), 64, 48),
        Stratum("allblue", CHECK, "allblue-minred", (3, 8), (1, 2), 64, 48),
    ],
}


@dataclass(frozen=True)
class Op:
    """One operation: a pool entry and the `sofl` arguments that run it."""

    key: str  # "<stratum>/<pool index>", the reference key
    stratum: Stratum
    path: str

    def argv(self) -> list[str]:
        if self.stratum.command == CHECK:
            return [CHECK, "--input", self.path]
        return [SOLVE, "--input", self.path, "--algorithm", self.stratum.algorithm,
                "--format", "json"]


def _cycle(rng: tuple[int, int], i: int) -> tuple[int, int]:
    span = rng[1] - rng[0] + 1
    return rng[0] + i % span, i // span


def entry_params(st: Stratum, i: int) -> dict:
    n, q = _cycle(st.n, i)
    k, q = _cycle(st.k, q)
    s, _ = _cycle(st.s, q)
    if st.variant == "discrete":
        k = min(k, s - 1)
    return {"n": n, "k": k, "s": s}


def lcg_seed(st: Stratum, i: int) -> int:
    """Generator seed of pool entry i, stable under reordering of strata."""
    return zlib.crc32(st.name.encode()) + i


def tol_edge_text(seed: int) -> str:
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    rows = ["variant csofl", "k 2"]
    for _ in range(n):
        blue = rng.random() < 0.6
        x = rng.randint(-4, 4)
        y = rng.choice([1e-5, 1e-6, rng.randint(1, 4)])
        w = rng.randint(1, 9)
        rows.append(f"{'B' if blue else 'R'} {x} {y!r} {w if blue else -w}")
    return "\n".join(rows) + "\n"


def instance_text(generate, st: Stratum, i: int) -> str:
    if st.family == "tol-edge":
        return tol_edge_text(i)
    p = entry_params(st, i)
    return generate(lcg_seed(st, i), p["n"], p["k"], st.variant, t=st.t, s=p["s"])


def pool_keys(workload: str) -> list[tuple[Stratum, int]]:
    return [(st, i) for st in WORKLOADS[workload] for i in range(st.pool)]


def select(workload: str, seed: int) -> list[tuple[Stratum, int]]:
    """The pass's pool entries for this seed, in the order they run.

    Each stratum contributes `per_pass` of its `pool` entries, and the whole
    list is shuffled.
    """
    rng = random.Random(f"{workload}:{seed}")
    chosen = []
    for st in WORKLOADS[workload]:
        chosen += [(st, i) for i in sorted(rng.sample(range(st.pool), st.per_pass))]
    rng.shuffle(chosen)
    return chosen


def warmup(workload: str) -> tuple[Stratum, int]:
    """The untimed warm-up operation: the same for every seed, so that
    set-up time does not depend on the seed."""
    return WORKLOADS[workload][0], 0


def write_instances(generate, entries, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for st, i in entries:
        path = os.path.join(workdir, f"{st.name}-{i}.txt")
        with open(path, "w") as fh:
            fh.write(instance_text(generate, st, i))
        ops.append(Op(f"{st.name}/{i}", st, path))
    return ops


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Outcome:
    """What one operation returned. `code` is None when `main` raised."""

    code: int | None
    stdout: str
    stderr: str
    seconds: float


def run_op(cli, op: Op) -> Outcome:
    """Call `cli.main` in-process on one instance, capturing its output.

    `main` is looked up on the module at call time, so a traced binding is
    picked up. Only the call itself is timed.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raised is counted, not fatal
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)
