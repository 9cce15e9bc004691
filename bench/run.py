"""The coverkit benchmark.

Runs one workload as a single-threaded closed loop: one caller decides
each operation only after the previous one has finished, and goes round
the workload's instance set in passes until the time is up.

    python3 bench/run.py --workload lift-solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` it reports the end-to-end metrics, measured without
tracing.  With ``--trace 1`` it alternates untraced and traced passes and
reports per-layer metrics from spans recorded around each layer's entry
points (see tracer.py), plus the tracing overhead between the two kinds
of pass.  Either way it checks every answer against a known answer and
every certificate with ``verify_cover``.  Earlier lines of standard
output are a readable report; the last line is one JSON object.  A wrong
answer or a rejected certificate makes the exit code 1.

Times are calibrated to a reference machine speed (see ``speed_probe``);
the raw seconds are in the report line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
WORKLOADS = ("lift-solve", "chain-solve", "oracle-gadgets")
SETUP_REPEATS = 5
PROBES_PER_GAP = 4
# speed_probe's duration at the reference speed; calibrated times are
# what the measured times would have been with probes running this fast
REFERENCE_PROBE_S = 0.0005

# reported in the result line; the latency percentiles are in the report
# only, because where the median falls in a mix of very short and long
# operations depends on the seed
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("edges_per_s", "1/s"), ("doubling_ratio", "ratio"),
    ("decided_share", "share"), ("peak_rss_mb", "MB"),
]
SELF_TIME_LAYERS = [
    "graphs.parse_graph", "graphs.project", "graphs.components",
    "partition.degree_partition", "partition.normalize_colours", "partition.degree_adjust",
    "classify.verdict", "classify.block_shapes",
    "solver.check_singletons", "solver.preprocess_doublets", "solver.build_2sat",
    "solver.complete_edge_mapping",
    "twosat.solve",
    "matching.general_perfect_matching", "matching.bipartite_peel", "matching.two_factorization",
    "matching.directed_cycle_cover_decomposition",
    "covers.verify_cover", "covers.realize_edges",
]
CALL_COUNTS = [
    "graphs.project", "graphs.components", "partition.degree_partition", "classify.verdict",
    "matching.general_perfect_matching", "matching.bipartite_peel", "matching.two_factorization",
    "matching.directed_cycle_cover_decomposition", "covers.verify_cover", "covers.realize_edges",
]
COUNTERS = [
    "solver.no.matrix", "solver.no.singletons", "solver.no.doublets", "solver.no.2sat",
    "twosat.clauses", "twosat.vars", "covers.oracle.nodes", "covers.oracle.unknown",
]


# machine speed ----------------------------------------------------------------
#
# On a shared two-core machine the speed of one core swings by about 1.4x
# for stretches of seconds to minutes.  Every operation is bracketed by a
# few runs of a fixed piece of pure-Python work, and its time is scaled by
# how slow that work ran just before and just after it.  Same-seed runs
# spread by 15-35% between their raw medians and by a few percent after
# calibration on that machine.


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    for i in range(4000):
        table[i % 61] = table.get(i % 61, 0) + i * i % 7
    sorted(table.items())
    return perf_counter() - t0


def probe_gap() -> list[float]:
    return [speed_probe() for _ in range(PROBES_PER_GAP)]


def calibrate(seconds: float, before: list[float], after: list[float]) -> float:
    return seconds * REFERENCE_PROBE_S / statistics.median(before + after)


# set-up -----------------------------------------------------------------------


class Modules:
    """The coverkit modules an operation reaches, looked up at call time."""

    def __init__(self):
        self.graphs = importlib.import_module("coverkit.graphs")
        self.classify = importlib.import_module("coverkit.classify")
        self.solver = importlib.import_module("coverkit.solver")
        self.covers = importlib.import_module("coverkit.covers")
        self.gadgets = importlib.import_module("coverkit.gadgets")


def fresh_import():
    """Import coverkit and the benchmark's generators from scratch."""
    for name in list(sys.modules):
        if name in ("coverkit", "instances", "workloads") or name.startswith("coverkit."):
            del sys.modules[name]
    ck = Modules()
    where = Path(ck.graphs.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"coverkit was imported from {where}, not from {SRC}")
    return ck, importlib.import_module("workloads")


def setup(workload: str, seed: int):
    """Import, generate and serialize; returns (seconds, modules, workloads, ops)."""
    t0 = perf_counter()
    ck, wl = fresh_import()
    ops = wl.GENERATORS[workload](ck, random.Random(seed))
    return perf_counter() - t0, ck, wl, ops


def ops_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.kind}\0{op.label}\0{op.target}\0{op.graph}\0".encode())
    return h.hexdigest()


# checking ---------------------------------------------------------------------


class Checker:
    """Checks answers and certificates with functions captured before any
    tracing, so the checks never show up in a trace."""

    def __init__(self, ck, ops):
        self.ops = ops
        self.parse = ck.graphs.parse_graph
        self.verify = ck.covers.verify_cover
        self.projection = ck.covers.CoveringProjection
        self.first_certs: dict[int, str] = {}
        self.answers: dict[int, str] = {}
        self.errors: list[str] = []
        self.wrong: list[str] = []
        self.rejected: list[str] = []

    def check(self, i, answer, cert, exc) -> bool:
        """True when operation ``i`` produced a correct answer (or an
        honest 'unknown'); records what went wrong otherwise."""
        op = self.ops[i]
        if exc is not None:
            self.errors.append(f"{op.label}: {type(exc).__name__}: {str(exc)[:120]}")
            return False
        self.answers.setdefault(i, answer)
        if answer == "unknown":
            return True
        if answer != op.expect:
            self.wrong.append(f"{op.label}: answered {answer}, known answer {op.expect}")
            return False
        if cert is None or self.first_certs.get(i) == cert:
            return True
        proj = self.projection.from_json(cert)
        if not self.verify(self.parse(op.graph), self.parse(op.target), proj).ok:
            self.rejected.append(f"{op.label}: certificate rejected by verify_cover")
            return False
        self.first_certs.setdefault(i, cert)
        return True

    def cert_sha(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.ops)):
            h.update(f"{i}\0{self.answers.get(i)}\0{self.first_certs.get(i, '')}\n".encode())
        return h.hexdigest()


# measuring ----------------------------------------------------------------------


class OpRecord(NamedTuple):
    raw_s: float
    seconds: float  # calibrated
    ok: bool
    decided: bool
    nodes: int


def run_pass(ops, ck, wl, checker, tracer=None) -> list[OpRecord]:
    """One closed-loop pass over the instance set."""
    records = []
    before = probe_gap()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.enter("bench.op")
        exc = None
        answer = cert = None
        nodes = 0
        t0 = perf_counter()
        try:
            answer, cert, nodes = wl.decide(op, ck)
        except Exception as err:  # a crash is a measured failure, not the end of the run
            exc = err
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.exit()
        after = probe_gap()
        ok = checker.check(i, answer, cert, exc)
        decided = exc is None and answer != "unknown"
        records.append(OpRecord(elapsed, calibrate(elapsed, before, after), ok, decided, nodes))
        before = after
    gc.collect()
    return records


def op_medians(passes, field="seconds") -> list[float]:
    """Each operation's median time over the given passes."""
    columns = zip(*([getattr(r, field) for r in p] for p in passes))
    return [statistics.median(column) for column in columns]


def instance_set_metrics(ops, passes):
    """wall_s, edges_per_s and doubling_ratio from per-operation medians."""
    latency = op_medians(passes)
    by_size = {"1x": [], "2x": []}
    for op, seconds, record in zip(ops, latency, passes[0]):
        if op.size in by_size:
            by_size[op.size].append((seconds, record))
    if any(op.kind == "oracle" for op in ops):
        # the oracle's work per instance is capped by its node budget, so
        # scaling is compared per search node, on the instances that used
        # the whole budget: one decided early also pays for partition,
        # edge realization and verification
        def per_node(rows):
            exhausted = [(s, r) for s, r in rows if not r.decided] or rows
            return sum(s for s, _ in exhausted) / sum(r.nodes for _, r in exhausted)

        ratio = per_node(by_size["2x"]) / per_node(by_size["1x"])
    else:
        ratio = sum(s for s, _ in by_size["2x"]) / sum(s for s, _ in by_size["1x"])
    wall = sum(latency)
    return {"wall_s": wall, "edges_per_s": sum(op.edges for op in ops) / wall,
            "doubling_ratio": ratio, "nodes": [r.nodes for r in passes[0]]}


def trace_metrics(tallies, untraced, traced):
    """Per-layer metrics: medians over traced passes of per-pass tallies."""
    first = tallies[0]
    names = set().union(*(t["self_s"] for t in tallies))
    med = {name: statistics.median(t["self_s"].get(name, 0.0) for t in tallies) for name in names}
    out = {f"{name}.s": (med.get(name, 0.0), "s") for name in SELF_TIME_LAYERS}
    out.update({f"{name}.calls": (first["calls"].get(name, 0), "count") for name in CALL_COUNTS})
    out.update({name: (first["counts"].get(name, 0), "count") for name in COUNTERS})
    out["solver.solve_cover.self_s"] = (med.get("solver.solve_cover", 0.0), "s")
    search = med.get("covers.oracle", 0.0)
    nodes = first["counts"].get("covers.oracle.nodes", 0)
    out["covers.oracle.search_s"] = (search, "s")
    out["covers.oracle.us_per_node"] = (search / nodes * 1e6 if nodes else 0.0, "us")
    out["trace.overhead_s"] = (sum(op_medians(traced)) - sum(op_medians(untraced)), "s")
    return out


def provenance(workload, seed, seconds, trace):
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "coverkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": platform.machine(), "host": platform.node(), "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "commit": commit, "src_sha": src.hexdigest(),
    }


# entry point --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    setup_raw, setup_cal, digests = [], [], set()
    probe_gap()  # the first probes after start-up run slow
    before = probe_gap() + probe_gap()
    for _ in range(SETUP_REPEATS):
        try:
            seconds, ck, wl, ops = setup(args.workload, args.seed)
        except ImportError as exc:
            print(f"cannot import coverkit from {SRC}: {exc}", file=sys.stderr)
            return 2
        after = probe_gap() + probe_gap()
        setup_raw.append(seconds)
        setup_cal.append(calibrate(seconds, before, after))
        before = after
        digests.add(ops_digest(ops))
    if len(digests) != 1:
        raise RuntimeError("instance generation is not deterministic for one seed")
    wl.fill_known_answers(ops, ck)
    checker = Checker(ck, ops)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = []  # (traced?, records)
    tallies = []
    start = perf_counter()
    while True:
        use_trace = tracer is not None and len(passes) % 2 == 1
        if use_trace:
            tracer.reset_totals()
            tracer.install()
            try:
                records = run_pass(ops, ck, wl, checker, tracer)
            finally:
                tracer.uninstall()
            # the pass's own speed calibrates its per-layer times
            scale = sum(r.seconds for r in records) / sum(r.raw_s for r in records)
            tallies.append({"calls": dict(tracer.calls),
                            "total_s": {k: v * scale for k, v in tracer.total_s.items()},
                            "self_s": {k: v * scale for k, v in tracer.self_s.items()},
                            "counts": dict(tracer.counts)})
        else:
            records = run_pass(ops, ck, wl, checker)
        passes.append((use_trace, records))
        if (tracer is None or len(passes) >= 2) and perf_counter() - start >= args.seconds:
            break

    timed = [records for was_traced, records in passes if not was_traced]
    whole = instance_set_metrics(ops, timed)
    latencies = [r.seconds for p in timed for r in p]
    attempted = sum(len(p) for _, p in passes)
    failed = sum(1 for _, p in passes for r in p if not r.ok)
    decided = sum(1 for _, p in passes for r in p if r.decided)
    correct = not checker.wrong and not checker.rejected
    e2e = {
        "setup_s": (statistics.median(setup_cal), "s"),
        "wall_s": (whole["wall_s"], "s"),
        "inst_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "edges_per_s": (whole["edges_per_s"], "1/s"),
        "doubling_ratio": (whole["doubling_ratio"], "ratio"),
        "decided_share": (decided / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if len(latencies) >= 100:
        e2e["inst_p90_ms"] = (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms")
    report = {
        "provenance": provenance(args.workload, args.seed, args.seconds, args.trace),
        "operations": len(ops), "passes": len(passes), "timed_passes": len(timed),
        "latency_samples": len(latencies),
        "fail_share": failed / attempted,
        "cert_sha": checker.cert_sha(),
        "oracle_nodes": whole["nodes"],
        "raw": {"setup_s": statistics.median(setup_raw), "wall_s": sum(op_medians(timed, "raw_s")),
                "setup_runs_s": setup_raw,
                "pass_s": [sum(r.raw_s for r in records) for _, records in passes]},
        "errors": sorted(set(checker.errors)), "wrong": checker.wrong, "rejected": checker.rejected,
    }
    lines = [f"workload {args.workload}, seed {args.seed}: {len(ops)} operations x {len(passes)} passes"]
    for name, (value, unit) in e2e.items():
        lines.append(f"  {name:<18} {value:.6g} {unit}")
    lines.append(f"  {'fail_share':<18} {report['fail_share']:.6g} share ({failed} of {attempted})")
    lines.append(f"  {'latency samples':<18} {len(latencies)}")
    lines.append(f"  {'raw wall_s':<18} {report['raw']['wall_s']:.6g} s (uncalibrated)")
    lines.append(f"  {'cert_sha':<18} {report['cert_sha']}")
    for err in report["errors"] + checker.wrong + checker.rejected:
        lines.append(f"  failure: {err}")

    if tracer is not None:
        layers = trace_metrics(tallies, timed, [r for was_traced, r in passes if was_traced])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        first = tallies[0]
        report["counts_repeat"] = all(t["counts"] == first["counts"] and t["calls"] == first["calls"]
                                      for t in tallies)
        report["spans"] = {name: {"calls": first["calls"][name], "total_s": first["total_s"][name],
                                  "self_s": first["self_s"][name]}
                           for name in sorted(first["calls"])}
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        report["span_file"] = str(span_file)
        report["span_count"] = tracer.write(span_file)
        lines.append("  per layer, per traced pass (self time):")
        for name, (value, unit) in layers.items():
            lines.append(f"    {name:<52} {value:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    report["end_to_end"] = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

    print("\n".join(lines))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print("\n".join(line for line in done.stdout.splitlines() if not line.startswith('{"report"')))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            status = max(status, done.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
