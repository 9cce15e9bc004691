"""Checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The determinism checks run every workload once under two hash seeds and
require the same digest of answers and certificates (``cert_sha``) and
the same oracle node counts.  They take about a minute.  The node-count
check fails today, which is a defect of the oracle, not of the check.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import instances  # noqa: E402
from coverkit import covers, graphs, solver  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(workload, cwd=ROOT, hash_seed=0, run=BENCH / "run.py"):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, str(run), "--workload", workload, "--seed", "7",
                           "--seconds", "0.01", "--trace", "0"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@functools.cache
def _report(workload, hash_seed):
    done = _run(workload, hash_seed=hash_seed)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert json.loads(lines[-1])["correct"]
    return json.loads(lines[-2])["report"]


@pytest.mark.parametrize("workload", ["lift-solve", "chain-solve", "oracle-gadgets"])
def test_certificates_repeat_under_two_hash_seeds(workload):
    assert _report(workload, 1)["cert_sha"] == _report(workload, 2)["cert_sha"]


def test_oracle_node_counts_repeat_under_two_hash_seeds():
    # fails today: the oracle's propagation iterates over sets of vertex
    # names, so a few directed-lift searches take one or two nodes more or
    # less depending on PYTHONHASHSEED
    a, b = (_report("oracle-gadgets", s)["oracle_nodes"] for s in (1, 2))
    assert a == b


def test_random_lift_is_a_cover():
    rng = random.Random(3)
    for name, h in instances.harmless_hosts():
        g = instances.random_lift(h, 3, rng)
        assert covers.oracle_cover(g, h, budget=100_000).yes, name
    for name, small in instances.PLANTED.items():
        h = dict(instances.harmless_hosts())[name]
        g = instances.random_lift(h, 3, rng, extra=small)
        assert covers.oracle_cover(g, h, budget=100_000).no, name


def test_tracer_patches_every_namespace_and_restores():
    tracer = Tracer()
    original = graphs.project
    h = dict(instances.harmless_hosts())["F(1,1)"]
    g = instances.random_lift(h, 4, random.Random(1))
    tracer.install()
    try:
        assert solver.project is graphs.project is not original
        solver.solve_cover(g, h)
    finally:
        tracer.uninstall()
    assert solver.project is graphs.project is original
    assert tracer.calls["graphs.project"] > 0
    assert tracer.calls["solver.check_singletons"] == 1
    top = tracer.total_s["solver.solve_cover"]
    assert 0 <= tracer.self_s["solver.solve_cover"] < top


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("lift-solve", cwd=tmp_path, run=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layers = {f"{n}.s" for n in run.SELF_TIME_LAYERS} | {f"{n}.calls" for n in run.CALL_COUNTS}
    layers |= set(run.COUNTERS) | {"solver.solve_cover.self_s", "covers.oracle.search_s",
                                   "covers.oracle.us_per_node", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
