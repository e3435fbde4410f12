"""Outside-in tracer: wraps public `sofl` functions with timing spans.

Nothing inside `sofl` is edited. `install` looks up each traced function on
its home module and rebinds every module attribute across `sofl.*` that
refers to that function object, because modules import functions by name
(the solver holds its own binding of `klink.solve_fixed_radius`, the CLI
of every solver). `remove` restores the originals, so untraced passes run
the unmodified program. Geometry predicates stay unwrapped: they run 10^5+
times per pass and their cost appears as their callers' self time.

A span records its name, start, end, parent span and the operation it
belongs to. Spans stay in memory and are written out at the end of a run.
A layer's self time is its spans' durations minus their child spans'.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import defaultdict
from time import perf_counter_ns

# (home module, function name). A function a later version removes is
# reported as absent.
TRACED = [
    ("sofl.cli", "main"),
    ("sofl.instance", "parse_instance"),
    ("sofl.instance", "emit_result"),
    ("sofl.candidates", "candidate_radii_line"),
    ("sofl.candidates", "candidate_radii_tlines"),
    ("sofl.candidates", "candidate_radii_discrete"),
    ("sofl.solver", "solve_csofl"),
    ("sofl.solver", "solve_special"),
    ("sofl.klink", "solve_fixed_radius"),
    ("sofl.klink", "influence_intervals"),
    ("sofl.klink", "build_center_sequence"),
    ("sofl.klink", "weight_array"),
    ("sofl.klink", "predecessor_array"),
    ("sofl.klink", "max_weight_k_links"),
    ("sofl.klink", "build_dp_tables"),
    ("sofl.placement", "union_coverage"),
    ("sofl.placement", "line_placement"),
    ("sofl.placement", "site_placement"),
    ("sofl.multiline", "solve_tlines"),
    ("sofl.multiline", "multiline_centers"),
    ("sofl.multiline", "solve_tlines_fixed_radius"),
    ("sofl.discrete", "solve_discrete"),
    ("sofl.discrete", "site_weights"),
    ("sofl.discrete", "solve_discrete_fixed_radius"),
    ("sofl.discrete", "_enumerate_best"),
    ("sofl.variants_k1", "maxblue_nored_fast"),
    ("sofl.variants_k1", "maxblue_nored_naive"),
    ("sofl.variants_k1", "allblue_minred"),
    ("sofl.oracle", "brute_csofl"),
    ("sofl.oracle", "brute_tlines"),
    ("sofl.oracle", "brute_discrete"),
    ("sofl.oracle", "brute_k1_maxblue"),
    ("sofl.oracle", "brute_k1_allblue"),
    ("sofl.oracle", "brute_special_counts"),
    ("sofl.oracle", "brute_fixed_radius"),
]

RADIUS_LOOPS = {"solver.solve_csofl", "multiline.solve_tlines", "discrete.solve_discrete"}
FIXED_RADIUS = {"klink.solve_fixed_radius", "multiline.solve_tlines_fixed_radius",
                "discrete.solve_discrete_fixed_radius"}
ORACLE_ENTRIES = {"oracle.brute_csofl", "oracle.brute_tlines", "oracle.brute_discrete",
                  "oracle.brute_k1_maxblue", "oracle.brute_k1_allblue",
                  "oracle.brute_special_counts"}

# Per-layer metric -> the spans whose self time it sums.
SELF_TIME = {
    "klink.intervals_s": ["klink.influence_intervals"],
    "klink.center_seq_s": ["klink.build_center_sequence"],
    "klink.weight_array_s": ["klink.weight_array"],
    "klink.predecessor_s": ["klink.predecessor_array"],
    "klink.dp_fill_s": ["klink.build_dp_tables"],
    "klink.backtrack_s": ["klink.max_weight_k_links"],
    "klink.fixed_radius_self_s": ["klink.solve_fixed_radius"],
    "placement.union_s": ["placement.union_coverage", "placement.line_placement",
                          "placement.site_placement"],
    "candidates.self_s": ["candidates.candidate_radii_line", "candidates.candidate_radii_tlines",
                          "candidates.candidate_radii_discrete"],
    "multiline.centers_s": ["multiline.multiline_centers"],
    "multiline.search_s": ["multiline.solve_tlines_fixed_radius"],
    "discrete.site_weights_s": ["discrete.site_weights"],
    "discrete.chord_s": ["discrete.solve_discrete_fixed_radius"],
    "discrete.enumerate_s": ["discrete._enumerate_best"],
    "variants_k1.fast_s": ["variants_k1.maxblue_nored_fast"],
    "variants_k1.fvd_s": ["variants_k1.allblue_minred"],
    "variants_k1.naive_s": ["variants_k1.maxblue_nored_naive"],
    "oracle.self_s": sorted(ORACLE_ENTRIES) + ["oracle.brute_fixed_radius"],
    "instance.parse_s": ["instance.parse_instance"],
    "instance.emit_s": ["instance.emit_result"],
    "cli.self_s": ["cli.main"],
}

COUNTS = ["klink.centers", "klink.coverage_cells", "klink.dp_cells", "candidates.radii",
          "solver.radius_solves", "multiline.centers", "multiline.radius_solves",
          "discrete.fallbacks", "discrete.radius_solves", "oracle.calls"]


def _short(module: str, fn: str) -> str:
    return f"{module.split('.', 1)[1]}.{fn}"


class Tracer:
    """Spans and counters of one run; install around traced passes only."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns, op)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.improvements = 0
        self.op = -1
        self.absent: list[str] = []
        self.unavailable: set[str] = set()  # spans whose counters failed
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, child ns, name, hits, best weight]
        self._saved: list[tuple] = []

    # --- binding ---------------------------------------------------------

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "sofl" or name.startswith("sofl."))}
        self.absent = []
        for home, fn in TRACED:
            orig = getattr(mods.get(home), fn, None)
            if orig is None:
                self.absent.append(_short(home, fn))
                continue
            wrapper = self._wrap(_short(home, fn), orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        counted = name in FIXED_RADIUS
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = next(ids)
            frame = [sid, 0, name, 0, None]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                spans.append((sid, -1 if parent is None else parent[0], name, t0, t1, self.op))
            # A counter that no longer fits a changed signature is reported
            # as unavailable instead of failing the operation.
            try:
                if hook is not None:
                    hook(args, kwargs, result, parent)
                if counted:
                    self._radius_solve(result, parent)
            except (AttributeError, IndexError, KeyError, TypeError):
                self.unavailable.add(name)
            return result

        return traced

    # --- counters read from arguments and results -----------------------

    def _radius_solve(self, placement, parent) -> None:
        if parent is None or parent[2] not in RADIUS_LOOPS:
            return
        self.counts["solver.radius_solves"] += 1
        w = placement.total_weight
        if parent[4] is not None and w > parent[4]:
            self.improvements += 1
        if parent[4] is None or w > parent[4]:
            parent[4] = w

    def _on_klink_build_center_sequence(self, args, kwargs, seq, parent):
        self.counts["klink.centers"] += len(seq.xs)

    def _on_klink_weight_array(self, args, kwargs, w, parent):
        self.counts["klink.coverage_cells"] += len(w) * len(args[1])

    def _on_klink_build_dp_tables(self, args, kwargs, tables, parent):
        self.counts["klink.dp_cells"] += len(args[0]) * (args[2] + 1)

    def _on_candidates_candidate_radii_line(self, args, kwargs, radii, parent):
        self.counts["candidates.radii"] += len(radii)

    _on_candidates_candidate_radii_tlines = _on_candidates_candidate_radii_line
    _on_candidates_candidate_radii_discrete = _on_candidates_candidate_radii_line

    def _on_multiline_multiline_centers(self, args, kwargs, centers, parent):
        self.counts["multiline.centers"] += len(centers)

    def _on_discrete__enumerate_best(self, args, kwargs, result, parent):
        if parent is not None and parent[2] == "discrete.solve_discrete_fixed_radius":
            parent[3] += 1
            if parent[3] == 2:  # the re-validation fallback enumerated again
                self.counts["discrete.fallbacks"] += 1

    # --- results ---------------------------------------------------------

    def metrics(self, passes: int, ops: int) -> dict[str, float]:
        """Per-pass layer metrics (every traced pass runs the same ops)."""
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self.self_ns[n] for n in names) / 1e9 / passes
        c = dict(self.counts)
        c["multiline.radius_solves"] = self.calls["multiline.solve_tlines_fixed_radius"]
        c["discrete.radius_solves"] = self.calls["discrete.solve_discrete_fixed_radius"]
        c["oracle.calls"] = sum(self.calls[n] for n in ORACLE_ENTRIES)
        for name in COUNTS:
            out[name] = c.get(name, 0) / passes
        out["placement.union_per_op"] = self.calls["placement.union_coverage"] / passes / ops
        solves = self.counts["solver.radius_solves"]
        out["solver.improve_ratio"] = self.improvements / solves if solves else 0.0
        return out

    def layer_self_s(self, passes: int) -> dict[str, float]:
        """Self time per layer, the layer being the span's module."""
        out: dict[str, float] = defaultdict(float)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9 / passes
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span parent name start_ns end_ns op\n")
            for s in self.spans:
                fh.write("%d %d %s %d %d %d\n" % s)
