import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import coverkit

from coverkit import (
    CoveringProjection,
    Graph,
    UnsupportedTarget,
    companion_mapping,
    degree_partition,
    is_balanced,
    normalize_colours,
    oracle_cover,
    solve_cover,
    verify_cover,
)
from coverkit.gadgets import fw_target, fw2_target
from coverkit.covers import InternalCoverError
from coverkit.solver import complete_edge_mapping

from conftest import (
    arc_beside_dotted_edge,
    assert_odd_cycle,
    complete_graph,
    cycle,
    disjoint_union,
    one_vertex,
    path,
    two_vertex_w,
    two_vertex_wd,
)
from hosts import harmless_hosts, random_compatible_input


def test_solve_even_cycle_onto_double_edge():
    h = two_vertex_w(0, 0, 2, 0, 0)
    res = solve_cover(cycle(6), h)
    assert res.yes
    assert verify_cover(cycle(6), h, res.projection).ok
    assert solve_cover(cycle(5), h).status == "no"


def test_completion_refuses_odd_cycle_over_two_semi_edges():
    # a triangle has no alternating assignment onto two semi-edges, so the
    # vertex map does not extend and completion must say so, not return
    # a map that verify_cover rejects
    f20 = one_vertex(semis=2)
    with pytest.raises(InternalCoverError):
        complete_edge_mapping(cycle(3), f20, {f"v{i}": "x" for i in range(3)})
    fv = {f"v{i}": "x" for i in range(4)}
    fe = complete_edge_mapping(cycle(4), f20, fv)
    assert verify_cover(cycle(4), f20, CoveringProjection(fv, fe)).ok


@pytest.mark.parametrize("arcs_first", [True, False], ids=["arcs-first", "edges-first"])
def test_solve_keeps_a_deoriented_arc_apart_from_a_dotted_colour(arcs_first):
    # normalization once named the arc's colour a and the edge's colour a.f
    # alike between the same blocks, so the two merged when the arcs came first
    g, h = arc_beside_dotted_edge(arcs_first)
    res = solve_cover(g, h)
    assert res.yes
    assert verify_cover(g, h, res.projection).ok
    assert res.projection.fe == {"a1": "a", "a2": "a", "b1": "b", "b2": "b"}
    assert oracle_cover(g, h).yes


def test_solve_matrix_mismatch():
    h = two_vertex_w(0, 0, 2, 0, 0)
    res = solve_cover(path(3), h)
    assert res.status == "no"
    assert res.trace.matrix_ok is False


def test_solve_parity_f20():
    f20 = one_vertex(semis=2)
    assert solve_cover(cycle(4), f20).yes
    assert solve_cover(cycle(7), f20).status == "no"
    # mixed components: one odd cycle spoils it
    g = disjoint_union(cycle(4), cycle(3))
    assert solve_cover(g, f20).status == "no"


def test_solve_f10_matching():
    f10 = one_vertex(semis=1)
    g = Graph("edge")
    g.add_vertex("u", "n")
    g.add_vertex("v", "n")
    g.add_edge("edge", "e", "e", "u", "v")
    res = solve_cover(g, f10)
    assert res.yes
    assert res.projection.fe["e"] == "s0"
    assert solve_cover(cycle(3), f10).status == "no"


def test_solve_f11_k4():
    res = solve_cover(complete_graph(4), one_vertex(semis=1, loops=1))
    assert res.yes


def test_solve_semi_over_semifree_target_rejected():
    h = two_vertex_w(0, 0, 2, 0, 0)
    g = Graph("badsemi")
    for i in range(4):
        g.add_vertex(f"v{i}", "n")
    for i in range(3):
        g.add_edge("edge", f"e{i}", "e", f"v{i}", f"v{i + 1}")
    g.add_edge("semi", "s0", "e", "v0")
    g.add_edge("semi", "s1", "e", "v3")
    # degree partition matches (all darts 2) but the stray semi-edges kill it
    res = solve_cover(g, h)
    assert res.status == "no"
    assert oracle_cover(g, h).no


def test_solve_refuses_bad_targets():
    with pytest.raises(UnsupportedTarget):
        solve_cover(cycle(3), fw_target(3))  # harmful
    with pytest.raises(UnsupportedTarget):
        solve_cover(cycle(3), fw2_target())  # dangerous
    with pytest.raises(UnsupportedTarget):
        solve_cover(cycle(3), complete_graph(4))  # block of 4
    with pytest.raises(UnsupportedTarget):
        solve_cover(cycle(3), disjoint_union(cycle(3), cycle(3)))  # disconnected
    with pytest.raises(UnsupportedTarget):
        solve_cover(cycle(6), one_vertex(semis=3))  # harmful single vertex


def test_solve_wd111():
    h = two_vertex_wd(1, 1)
    g = Graph("dc4")
    for i in range(4):
        g.add_vertex(f"v{i}", "n")
    n = 0
    # two directed 4-cycles woven so every vertex is 2-in-2-out
    for i in range(4):
        n += 1
        g.add_edge("arc", f"a{n}", "d", f"v{i}", f"v{(i + 1) % 4}")
    for i in range(4):
        n += 1
        g.add_edge("arc", f"b{n}", "d", f"v{i}", f"v{(i + 2) % 4}")
    res = solve_cover(g, h)
    check = oracle_cover(g, h)
    assert res.yes == check.yes


def test_solver_oracle_agreement_quick():
    rng = random.Random(2024)
    hosts = harmless_hosts(max_param=2)
    disagreements = []
    for name, h in hosts:
        for trial in range(12):
            r = rng.randint(1, max(1, 10 // h.n))
            g = random_compatible_input(h, r, seed=rng.randrange(10**9))
            if g.n > 10:
                continue
            res = solve_cover(g, h)
            check = oracle_cover(g, h, budget=400_000)
            assert check.status in ("yes", "no"), (name, trial)
            if res.yes != check.yes:
                disagreements.append((name, trial, res.status, check.status))
            if res.yes:
                assert verify_cover(g, h, res.projection).ok
    assert not disagreements, disagreements


def test_companion_mapping_balanced():
    h = two_vertex_w(1, 1, 0, 1, 1)
    host = Graph(h.name)
    for v in h.vertices():
        host.add_vertex(v, "Q")
    for e in h.edges():
        host.add_edge(e.kind, e.id, e.colour, *e.ends)
    host.add_vertex("hub", "H")
    host.add_edge("edge", "hx", "f", "hub", "x")
    host.add_edge("edge", "hy", "f", "hub", "y")
    assert is_balanced(host)
    rng = random.Random(5)
    done = 0
    for trial in range(40):
        g = random_compatible_input(host, rng.randint(1, 3), seed=rng.randrange(10**9))
        res = solve_cover(g, host)
        if not res.yes:
            continue
        done += 1
        part, _ = degree_partition(host)
        swapped = companion_mapping(host, part, res.projection.fv)
        gn = normalize_colours(g, degree_partition(g)[0])
        hn = normalize_colours(host, part)
        fe = complete_edge_mapping(gn, hn, swapped)
        from coverkit import CoveringProjection

        assert verify_cover(g, host, CoveringProjection(swapped, fe)).ok
    assert done >= 3


def test_forced_units_for_semis_and_loops():
    # target: one vertex with two semi-edge stubs, the other with a loop,
    # hub-connected; open paths must land on the stub side, odd cycles on
    # the loop side
    from hosts import _doublet, _with_hub

    host = _with_hub(_doublet("w20010", 2, 0, 0, 1, 0))
    g = Graph("forced")
    for v in ("h1", "h2"):
        g.add_vertex(v, "H")
    for v in ("a", "b", "c", "d"):
        g.add_vertex(v, "Q")
    # open path a-b with stubs; loops on c and d (two odd cycles)
    g.add_edge("edge", "p", "e", "a", "b")
    g.add_edge("semi", "sa", "e", "a")
    g.add_edge("semi", "sb", "e", "b")
    g.add_edge("loop", "lc", "e", "c")
    g.add_edge("loop", "ld", "e", "d")
    g.add_edge("edge", "f1", "f", "h1", "a")
    g.add_edge("edge", "f2", "f", "h1", "c")
    g.add_edge("edge", "f3", "f", "h2", "b")
    g.add_edge("edge", "f4", "f", "h2", "d")
    res = solve_cover(g, host)
    assert res.yes
    fv = res.projection.fv
    assert fv["a"] == fv["b"] and fv["c"] == fv["d"]
    assert fv["a"] != fv["c"]
    # the stub side is the target vertex with the semi-edges
    semis_at = {x for x in host.vertices()
                if any(e.kind == "semi" for e in host.incident(x))}
    assert fv["a"] in semis_at and fv["c"] not in semis_at
    assert oracle_cover(g, host).yes


def test_solver_oracle_agreement_deep():
    rng = random.Random(777)
    hosts = harmless_hosts(max_param=2)
    for name, h in hosts:
        if h.n > 4:
            continue
        for trial in range(8):
            r = rng.randint(2, max(2, 16 // h.n))
            g = random_compatible_input(h, r, seed=rng.randrange(10**9))
            res = solve_cover(g, h)
            check = oracle_cover(g, h, budget=800_000)
            assert check.status in ("yes", "no"), (name, trial)
            assert res.yes == check.yes, (name, trial, g.n)
            if res.yes:
                assert verify_cover(g, h, res.projection).ok


def test_self_cover_with_more_than_999_blocks():
    # 1001 singleton blocks: the normalized target must keep the block
    # order of its partition, or completion finds no target edge
    h = Graph("coloured-path")
    for i in range(1001):
        h.add_vertex(f"v{i}", f"x{i}")
    for i in range(1000):
        h.add_edge("edge", f"e{i}", "e", f"v{i}", f"v{i + 1}")
    res = solve_cover(h.copy("g"), h)
    assert res.yes
    assert res.projection.fv == {v: v for v in h.vertices()}


def test_solve_long_alternating_paths():
    # a 2-fold bipartite cycle over a double edge, its edges inserted so
    # that the completion's matching search follows alternating paths
    # about n long
    n = 5000
    g = Graph(f"bc{n}")
    for i in range(n):
        g.add_vertex(f"L{i}", "n")
        g.add_vertex(f"R{i}", "n")
    ends = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)]
    ends += [(i, i) for i in range(n - 1)] + [(n - 1, 0)]
    for k, (i, j) in enumerate(ends):
        g.add_edge("edge", f"e{k}", "e", f"L{i}", f"R{j}")
    h = two_vertex_w(0, 0, 2, 0, 0)
    res = solve_cover(g, h)
    assert res.yes
    assert verify_cover(g, h, res.projection).ok


_COMPLETION_SCRIPT = """
import json
from coverkit import Graph, solve_cover
h = Graph("w3")
for x in "xy":
    h.add_vertex(x, "n")
for i in range(3):
    h.add_edge("edge", f"c{i}", "e", "x", "y")
g = Graph("lift")
for i in range(4):
    g.add_vertex(f"a{i}", "n")
    g.add_vertex(f"b{i}", "n")
for i in range(4):
    for s in range(3):
        g.add_edge("edge", f"e{i}{s}", "e", f"a{i}", f"b{(i + s) % 4}")
res = solve_cover(g, h)
print(json.dumps([res.trace.to_dict()["completion"], res.projection.to_json()]))
"""


def test_completion_trace_ignores_hash_seed():
    # a 4-fold lift of a triple edge: one fibre-pair group, whose key the
    # completion log prints
    src = os.path.dirname(os.path.dirname(coverkit.__file__))
    runs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _COMPLETION_SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert runs[0][0] and all(run == runs[0] for run in runs)


@pytest.mark.parametrize("name", ["F(2,0)", "W(2,0,0,0,2)+hub", "W(2,0,0,1,0)+hub"])
def test_graphs_built_per_solve_do_not_grow_with_the_fold(name, monkeypatch):
    # every fibre is built once per (blocks, colour), not once per component
    from test_covers import random_lift

    h = dict(harmless_hosts())[name]
    lifts = {k: random_lift(h, k, random.Random(5)) for k in (32, 64)}
    built = [0]
    init = coverkit.graphs.Graph.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(coverkit.graphs.Graph, "__init__", counting_init)
    counts = {}
    for k, g in lifts.items():
        built[0] = 0
        assert solve_cover(g, h).yes
        counts[k] = built[0]
    assert counts[64] <= counts[32], counts


# planted non-covers that pass the matrix test and fail only at 2-SAT


def _six_cycle():
    # a 6-cycle has no 4-fold structure over the 4-cycle K(2,2)
    g = Graph("c6-ab")
    for i in range(3):
        g.add_vertex(f"a{i}", "A")
    for i in range(3):
        g.add_vertex(f"b{i}", "B")
    for i in range(3):
        g.add_edge("edge", f"e{i}", "e", f"a{i}", f"b{i}")
        g.add_edge("edge", f"f{i}", "e", f"b{i}", f"a{(i + 1) % 3}")
    return g


def _parity_no_cases():
    from test_covers import random_lift

    yield pytest.param(cycle(5), two_vertex_w(0, 0, 2, 0, 0), id="C_5")
    # a double edge: both darts would need the single crossing edge
    planted = {"W(1,0,1,0,1)": two_vertex_w(0, 0, 2, 0, 0, vc="Q"), "WW(1,1)": _six_cycle()}
    for name, small in planted.items():
        h = dict(harmless_hosts())[name]
        yield pytest.param(disjoint_union(random_lift(h, 6, random.Random(3)), small), h, id=name)


@pytest.mark.parametrize("g,h", list(_parity_no_cases()))
def test_parity_no_names_an_odd_cycle_of_emitted_constraints(g, h, monkeypatch):
    built = []
    emit = coverkit.solver.build_2sat
    monkeypatch.setattr(coverkit.solver, "build_2sat", lambda *args: built.append(emit(*args)) or built[-1])
    res = solve_cover(g, h)
    assert res.status == "no" and res.trace.failure == "2-SAT unsatisfiable"
    assert_odd_cycle(res.trace.conflict, built[0].clauses)
    assert res.trace.to_dict()["conflict"] == [
        [a, "!=" if odd else "==", b] for a, b, odd in res.trace.conflict
    ]


# recorded before the solver's fast paths (direct vertex signing, forced
# factor rounds, tree-only blossom relabelling, encoded certificates)
_PINNED_SOLVES = "b9739cc5c3398e29e683e940c8df8e777f1a468d12f15a4e193a7c417c470635"


def test_solver_certificates_and_traces_are_pinned():
    # fixed-seed lifts (yes) and refinement-compatible inputs (mostly no)
    # of every harmless host at folds 4 and 8: one digest over the input
    # names, the certificates' JSON and the traces' JSON
    from hosts import random_lift

    digest = hashlib.sha256()
    answers = Counter()
    for _, h in harmless_hosts():
        for r in (4, 8):
            for g in (random_lift(h, r, r), random_compatible_input(h, r, r)):
                res = solve_cover(g, h)
                answers[res.status] += 1
                digest.update(g.name.encode())
                digest.update((res.projection.to_json() if res.yes else "null").encode())
                digest.update(json.dumps(res.trace.to_dict()).encode())
    assert answers == {"yes": 79, "no": 41}
    assert digest.hexdigest() == _PINNED_SOLVES
