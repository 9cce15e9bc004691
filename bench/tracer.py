"""Spans around the public entry points of coverkit's layers.

The tracer patches functions from the outside, so the program itself is
measured unchanged.  A function imported by name into another module is
looked up in that module's namespace, so patching replaces the function
in every ``coverkit`` module that holds it, not only where it is defined.

Spans are kept in memory as parallel arrays and written out once, when
the run ends.  A span's self time is its duration minus the time covered
by its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, defining module, attribute); "Class.method" patches a method
LAYER_ENTRY_POINTS = [
    ("graphs.parse_graph", "coverkit.graphs", "parse_graph"),
    ("graphs.project", "coverkit.graphs", "project"),
    ("graphs.components", "coverkit.graphs", "components"),
    ("partition.degree_partition", "coverkit.partition", "degree_partition"),
    ("partition.normalize_colours", "coverkit.partition", "normalize_colours"),
    ("partition.degree_adjust", "coverkit.partition", "degree_adjust"),
    ("classify.verdict", "coverkit.classify", "verdict"),
    ("classify.block_shapes", "coverkit.classify", "block_shapes"),
    ("solver.solve_cover", "coverkit.solver", "solve_cover"),
    ("solver.check_singletons", "coverkit.solver", "check_singletons"),
    ("solver.preprocess_doublets", "coverkit.solver", "preprocess_doublets"),
    ("solver.build_2sat", "coverkit.solver", "build_2sat"),
    ("solver.complete_edge_mapping", "coverkit.solver", "complete_edge_mapping"),
    ("twosat.solve", "coverkit.twosat", "TwoSat.solve"),
    ("matching.general_perfect_matching", "coverkit.matching", "general_perfect_matching"),
    ("matching.bipartite_peel", "coverkit.matching", "bipartite_peel"),
    ("matching.two_factorization", "coverkit.matching", "two_factorization"),
    ("matching.directed_cycle_cover_decomposition", "coverkit.matching",
     "directed_cycle_cover_decomposition"),
    ("covers.verify_cover", "coverkit.covers", "verify_cover"),
    ("covers.realize_edges", "coverkit.covers", "_realize_edges"),
    ("covers.oracle", "coverkit.covers", "oracle_cover"),
]

# SolveTrace.failure text -> counter name
SOLVER_FAILURES = {
    "degree refinement matrices differ": "solver.no.matrix",
    "singleton block check failed": "solver.no.singletons",
    "doublet preprocessing failed": "solver.no.doublets",
    "2-SAT unsatisfiable": "solver.no.2sat",
}


def _count_result(tracer: "Tracer", name: str, args, result) -> None:
    """Counters read at the boundary where the work happens."""
    if name == "twosat.solve":
        sat = args[0]
        tracer.counts["twosat.clauses"] += len(sat.clauses)
        tracer.counts["twosat.vars"] += len(sat.variables())
    elif name == "solver.solve_cover" and result.trace.failure is not None:
        tracer.counts[SOLVER_FAILURES.get(result.trace.failure, "solver.no.other")] += 1
    elif name == "covers.oracle":
        tracer.counts["covers.oracle.nodes"] += result.nodes
        if result.status == "unknown":
            tracer.counts["covers.oracle.unknown"] += 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one entry per span, in the order spans close
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_id = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # spans ---------------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            _count_result(tracer, name, args, result)
            return result

        return traced

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(self._name_index[name])
        self.span_op.append(self.op)
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)

    def reset_totals(self) -> None:
        """Start a fresh per-pass tally; recorded spans are kept."""
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()

    # patching ----------------------------------------------------------------

    def install(self) -> None:
        """Replace every layer entry point, wherever coverkit looks it up."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "coverkit" or n.startswith("coverkit."))]
        for name, module_name, attr in LAYER_ENTRY_POINTS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.span(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # output --------------------------------------------------------------------

    def write(self, path) -> int:
        """Write every recorded span as JSON; returns the span count."""
        spans = [
            [self.span_id[i], self.span_parent[i], self.span_op[i], self.names[self.span_name[i]],
             self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_id))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_s", "end_s"], "spans": spans}, fh)
        return len(spans)
