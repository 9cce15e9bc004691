import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import coverkit
from coverkit import (
    BudgetExhausted,
    CoveringProjection,
    Graph,
    is_degree_obedient,
    oracle_cover,
    partial_covers,
    solve_cover,
    verify_cover,
    verify_parity,
)

from coverkit.covers import _candidates_for, _h_edge_index

from conftest import (
    arc_beside_dotted_edge,
    complete_graph,
    cycle,
    disjoint_union,
    naive_cover,
    one_vertex,
    path,
    random_multigraph,
    searched,
    two_vertex_w,
)
from hosts import harmless_hosts


def w2_target():
    # two vertices joined by two parallel edges
    return two_vertex_w(0, 0, 2, 0, 0)


def test_verify_c4_onto_double_edge():
    g = cycle(4)
    h = w2_target()
    fv = {"v0": "x", "v1": "y", "v2": "x", "v3": "y"}
    fe = {"e0": "c0", "e1": "c1", "e2": "c0", "e3": "c1"}
    res = verify_cover(g, h, CoveringProjection(fv, fe))
    assert res.ok, res.violations


def test_verify_detects_local_bijection_break():
    g = cycle(4)
    h = w2_target()
    fv = {"v0": "x", "v1": "y", "v2": "x", "v3": "y"}
    fe = {"e0": "c0", "e1": "c0", "e2": "c0", "e3": "c1"}
    res = verify_cover(g, h, CoveringProjection(fv, fe))
    assert not res.ok
    assert any("local bijection" in v for v in res.violations)


def test_verify_detects_unequal_fibres():
    g = cycle(3)
    h = disjoint_union(cycle(3), cycle(3))
    fv = {f"v{i}": f"0.v{i}" for i in range(3)}
    fe = {f"e{i}": f"0.e{i}" for i in range(3)}
    res = verify_cover(g, h, CoveringProjection(fv, fe))
    assert not res.ok
    assert any("fibre sizes differ" in v for v in res.violations)


def test_verify_colour_and_incidence():
    g = cycle(4, colour="red")
    h = w2_target()
    fv = {"v0": "x", "v1": "y", "v2": "x", "v3": "y"}
    fe = {"e0": "c0", "e1": "c1", "e2": "c0", "e3": "c1"}
    res = verify_cover(g, h, CoveringProjection(fv, fe))
    assert not res.ok


@pytest.mark.parametrize("fv,fe,named", [
    ({"a": "x", "zz": "nope"}, {"m": "l"}, "zz"),
    ({"a": "x", "zz": "x"}, {"m": "l"}, "zz"),
    ({"a": "x"}, {"m": "l", "mm": "l"}, "mm"),
])
def test_verify_reports_keys_outside_the_source(fv, fe, named):
    g = Graph("g")
    g.add_vertex("a", "n")
    g.add_edge("loop", "m", "e", "a")
    h = Graph("h")
    h.add_vertex("x", "n")
    h.add_edge("loop", "l", "e", "x")
    assert verify_cover(g, h, CoveringProjection({"a": "x"}, {"m": "l"})).ok
    res = verify_cover(g, h, CoveringProjection(fv, fe))
    assert not res.ok
    assert any(named in v for v in res.violations), res.violations


def test_oracle_k4_covers_f11():
    res = oracle_cover(complete_graph(4), one_vertex(semis=1, loops=1))
    assert res.yes
    assert verify_cover(complete_graph(4), one_vertex(semis=1, loops=1), res.projection).ok


def test_oracle_parity_f20():
    f20 = one_vertex(semis=2)
    assert oracle_cover(cycle(3), f20).no
    assert oracle_cover(cycle(4), f20).yes


def test_oracle_even_cycles_onto_w2():
    assert oracle_cover(cycle(6), w2_target()).yes
    assert oracle_cover(cycle(5), w2_target()).no


def test_oracle_loops_vs_semis():
    # a loop cannot be mapped onto a semi-edge pair
    g = one_vertex(loops=1)
    assert oracle_cover(g, one_vertex(semis=2)).no
    assert oracle_cover(g, one_vertex(loops=1)).yes


def test_oracle_rejects_budget_below_one():
    with pytest.raises(ValueError):
        oracle_cover(one_vertex(), one_vertex(), budget=-5)
    with pytest.raises(ValueError):
        oracle_cover(cycle(4), cycle(4), budget=0)


def test_oracle_budget_unknown():
    res = oracle_cover(cycle(12), cycle(3), budget=2)
    assert res.status == "unknown"
    assert res.nodes == 2
    assert oracle_cover(cycle(12), cycle(3)).yes


@pytest.mark.parametrize("g,h", [
    (one_vertex(), one_vertex()),
    # the last nodes go to the exact edge assignment over the semi-edge
    (complete_graph(4), one_vertex(semis=1, loops=1)),
    (cycle(4), one_vertex(semis=2)),
])
def test_oracle_answers_within_the_nodes_it_reports(g, h):
    full = oracle_cover(g, h)
    assert full.yes
    exact = oracle_cover(g, h, budget=full.nodes)
    assert exact.yes and exact.nodes == full.nodes


def test_oracle_semi_step_deeper_than_the_recursion_limit():
    # every vertex of a 700-cycle with a parallel edge on every other cycle
    # edge has three darts, as the target's loop and semi-edge do; the
    # exact edge assignment over the semi-edge places 1050 edges one by one
    n = 700
    g = Graph("c700")
    for i in range(n):
        g.add_vertex(f"v{i}", "n")
    for i in range(n):
        g.add_edge("edge", f"e{i}", "e", f"v{i}", f"v{(i + 1) % n}")
        if i % 2 == 0:
            g.add_edge("edge", f"p{i}", "e", f"v{i}", f"v{(i + 1) % n}")
    h = one_vertex(semis=1, loops=1)
    res = oracle_cover(g, h)
    assert (res.status, res.nodes) == ("yes", n + g.m)
    assert verify_cover(g, h, res.projection).ok


def test_oracle_search_deeper_than_the_recursion_limit():
    # the search keeps one frame per branch point on a list of its own,
    # so its depth does not meet the interpreter's recursion limit
    g, h = cycle(1500), cycle(3)
    assert sys.getrecursionlimit() < g.n
    res = oracle_cover(g, h)
    assert (res.status, res.nodes) == ("yes", 1500)
    assert verify_cover(g, h, res.projection).ok


def test_partial_covers_deeper_than_the_recursion_limit():
    g, h = path(1500), cycle(3)
    assert sys.getrecursionlimit() < g.n
    fv = next(partial_covers(g, h)).fv
    # locally injective into a triangle: neighbours land on distinct
    # images, and so do the two neighbours of a vertex
    images = [fv[u] for u in g.vertices()]
    assert len(images) == g.n and set(images) <= set(h.vertices())
    assert all(a != b for a, b in zip(images, images[1:]))
    assert all(a != c for a, c in zip(images, images[2:]))


@pytest.mark.parametrize("g,h,budget,status,reason", [
    (cycle(4), complete_graph(4), 100, "no", "partition"),
    (cycle(5), cycle(3), 100, "no", "fold"),
    (Graph("empty"), one_vertex(loops=1), 100, "no", "fold"),
    # a nine-cycle and a triangle of another colour over two triangles:
    # the e-block is 9 vertices where the fold of 2 asks for 6
    (disjoint_union(cycle(9), cycle(3, colour="f")),
     disjoint_union(cycle(3), cycle(3, colour="f")), 100, "no", "block sizes"),
    (one_vertex(loops=1), one_vertex(semis=2), 100, "no", "self darts"),
    (disjoint_union(cycle(5), cycle(7)), disjoint_union(cycle(3), cycle(3)), 10_000, "no", "search"),
    (cycle(12), cycle(3), 2, "unknown", "budget"),
    (cycle(6), cycle(3), 100, "yes", "cover"),
    (Graph("empty"), Graph("empty"), 100, "yes", "cover"),
])
def test_oracle_names_the_check_that_settled_it(g, h, budget, status, reason):
    res = oracle_cover(g, h, budget=budget)
    assert (res.status, res.reason) == (status, reason)
    # only the search spends nodes
    assert (res.nodes > 0) == (reason in ("search", "budget", "cover") and g.n > 0)


def test_oracle_decides_directed_lift_within_small_budget():
    from coverkit.gadgets import bc_colouring_brute, directed_lift_wd, random_regular, wd_target

    base, _ = random_regular("bipartite", 3, 7, seed=439499)
    res = oracle_cover(directed_lift_wd(base, 2, 1), wd_target(2, 1), budget=2000)
    assert res.status != "unknown"
    assert res.yes == (bc_colouring_brute(base, 2, 1) is not None)


def test_oracle_directed():
    g = Graph("dc6")
    for i in range(6):
        g.add_vertex(f"v{i}", "n")
    for i in range(6):
        g.add_edge("arc", f"a{i}", "d", f"v{i}", f"v{(i + 1) % 6}")
    h = Graph("dc3")
    for i in range(3):
        h.add_vertex(f"w{i}", "n")
    for i in range(3):
        h.add_edge("arc", f"b{i}", "d", f"w{i}", f"w{(i + 1) % 3}")
    assert oracle_cover(g, h).yes
    rev = Graph("dc3r")
    for i in range(3):
        rev.add_vertex(f"w{i}", "n")
    for i in range(3):
        rev.add_edge("arc", f"b{i}", "d", f"w{(i + 1) % 3}", f"w{i}")
    assert oracle_cover(g, rev).yes  # isomorphic either way around


def test_oracle_disconnected_target_equitable():
    h = disjoint_union(cycle(3), cycle(3))
    # a connected graph lands in one component, starving the other fibre
    assert oracle_cover(cycle(6), h).no
    assert oracle_cover(disjoint_union(cycle(3), cycle(3)), h).yes
    # 2 copies worth of fibres can split 6 + 3 + 3
    assert oracle_cover(disjoint_union(cycle(6), cycle(3), cycle(3)), h).yes
    assert oracle_cover(disjoint_union(cycle(6), cycle(6)), h).yes
    assert oracle_cover(disjoint_union(cycle(5), cycle(7)), h).no


def test_degree_obedient_examples():
    g, h = cycle(4), w2_target()
    fv = {"v0": "x", "v1": "y", "v2": "x", "v3": "y"}
    assert is_degree_obedient(g, h, fv)
    # all-to-one map of an odd cycle onto the two-semi-edge vertex is
    # count-wise obedient even though no cover exists
    f20 = one_vertex(semis=2)
    fv2 = {v: "x" for v in cycle(3).vertices()}
    assert is_degree_obedient(cycle(3), f20, fv2)
    assert oracle_cover(cycle(3), f20).no
    # collapsing a degree-3 vertex onto a degree-2 target is not obedient
    fv3 = {v: "x" for v in complete_graph(4).vertices()}
    assert not is_degree_obedient(complete_graph(4), f20, fv3)


def _directed_cycle(n):
    g = Graph(f"dc{n}")
    for i in range(n):
        g.add_vertex(f"v{i}", "n")
    for i in range(n):
        g.add_edge("arc", f"a{i}", "d", f"v{i}", f"v{(i + 1) % n}")
    return g


def test_degree_obedient_directed_loops():
    d1, d2 = one_vertex(dloops=1), one_vertex(dloops=2)
    assert is_degree_obedient(one_vertex(dloops=1), d1, {"x": "x"})
    assert not is_degree_obedient(one_vertex(dloops=2), d1, {"x": "x"})
    onto_x = {f"v{i}": "x" for i in range(3)}
    assert is_degree_obedient(_directed_cycle(3), d1, onto_x)
    assert not is_degree_obedient(_directed_cycle(3), d2, onto_x)


def test_degree_obedient_colours_only_self_darts_carry():
    # the target has one semi-edge of colour s; a source colour that only
    # self darts carry must be one the target vertex carries too
    h = one_vertex(semis=1, colour="s")
    assert is_degree_obedient(one_vertex(semis=1, colour="s"), h, {"x": "x"})
    for kind in ("loop", "dloop"):
        g = one_vertex(semis=1, colour="s")
        g.add_edge(kind, "extra", "a", "x")
        assert not is_degree_obedient(g, h, {"x": "x"}), kind


def test_oracle_matches_naive_on_random_pairs():
    rng = random.Random(77)
    agree = 0
    for trial in range(160):
        g = random_multigraph(rng.randrange(1, 5), rng.randrange(0, 4), seed=rng.randrange(10**6))
        h = random_multigraph(rng.randrange(1, 4), rng.randrange(0, 4), seed=rng.randrange(10**6))
        if g.m > 8 or h.m > 8:
            continue
        want = naive_cover(g, h)
        got = oracle_cover(g, h, budget=200_000)
        assert got.status in ("yes", "no")
        assert got.yes == (want is not None), (g.name, h.name, trial)
        agree += 1
    assert agree > 100


def test_oracle_matches_naive_on_lifts():
    # random 2-lifts of small multigraphs always cover, and the vertex
    # part of any valid projection is degree-obedient
    rng = random.Random(31)
    for trial in range(40):
        h = random_multigraph(rng.randrange(1, 4), rng.randrange(1, 4), seed=rng.randrange(10**6))
        g = random_lift(h, 2, rng)
        res = oracle_cover(g, h, budget=500_000)
        assert res.yes
        assert verify_cover(g, h, res.projection).ok
        assert is_degree_obedient(g, h, res.projection.fv)


def random_lift(h, k, rng):
    g = Graph(f"lift{k}-{h.name}")
    for v in h.vertices():
        for i in range(k):
            g.add_vertex(f"{v}.{i}", h.vertex_colour(v))
    for e in h.edges():
        if e.kind in ("edge", "arc"):
            perm = list(range(k))
            rng.shuffle(perm)
            for i in range(k):
                g.add_edge(e.kind, f"{e.id}.{i}", e.colour, f"{e.u}.{i}", f"{e.v}.{perm[i]}")
        elif e.kind in ("loop", "dloop"):
            # lift a loop to a cycle over the fibre (or fixed points)
            perm = list(range(k))
            rng.shuffle(perm)
            used = set()
            for i in range(k):
                if i in used:
                    continue
                # follow the cycle of the permutation
                cyc = [i]
                j = perm[i]
                while j != i:
                    cyc.append(j)
                    j = perm[j]
                used.update(cyc)
                if len(cyc) == 1:
                    g.add_edge(e.kind, f"{e.id}.{i}", e.colour, f"{e.u}.{i}")
                else:
                    kind = "edge" if e.kind == "loop" else "arc"
                    for t, a in enumerate(cyc):
                        b = cyc[(t + 1) % len(cyc)]
                        g.add_edge(kind, f"{e.id}.{a}.{b}", e.colour, f"{e.u}.{a}", f"{e.u}.{b}")
        else:
            for i in range(k):
                g.add_edge("semi", f"{e.id}.{i}", e.colour, f"{e.u}.{i}")
    return g


def test_empty_graph_convention():
    g = Graph("empty")
    h = one_vertex(loops=1)
    assert oracle_cover(g, h).no
    res = verify_cover(g, h, CoveringProjection({}, {}))
    assert not res.ok


def test_partial_covers_tripod():
    from coverkit.gadgets import fw2_target, limping_tripod

    lt = limping_tripod()
    h = fw2_target()
    seen_uv = set()
    count = 0
    for fv in (p.fv for p in partial_covers(lt, h)):
        count += 1
        assert fv["p1"] == fv["p2"] == "p"
        seen_uv.add((fv["u"], fv["v"]))
    assert count > 0
    # the two pendant ports always share their image, and both images occur
    assert seen_uv == {("r", "r"), ("g", "g")}


def test_verify_catches_corrupted_certificates():
    # mutate valid certificates in ways that must break them
    from coverkit.covers import _candidates_for, _h_edge_index

    rng = random.Random(99)
    checked = 0
    for trial in range(25):
        h = random_multigraph(rng.randrange(1, 4), rng.randrange(1, 4), seed=rng.randrange(10**6))
        g = random_lift(h, 2, rng)
        res = oracle_cover(g, h, budget=300_000)
        assert res.yes
        fv, fe = dict(res.projection.fv), dict(res.projection.fe)
        # drop one edge image: totality violation
        if fe:
            broken = dict(fe)
            broken.pop(sorted(broken)[0])
            assert not verify_cover(g, h, CoveringProjection(fv, broken)).ok
        # redirect one edge image outside its candidate set
        by = _h_edge_index(h)
        for e in g.edges():
            cands = set(_candidates_for(e.kind, e.colour, fv[e.u], fv[e.v], by))
            others = [x.id for x in h.edges() if x.id not in cands]
            if others:
                broken = dict(fe)
                broken[e.id] = others[0]
                assert not verify_cover(g, h, CoveringProjection(fv, broken)).ok
                checked += 1
                break
    assert checked >= 5


def incident(g, v):
    """The edges at v, read off the edge list, independent of the
    incidence lists ``graphs.darts`` reads."""
    return [e for e in g.edges() if v in e.ends]


def edge_darts(e, v):
    """(direction, count) of the darts of edge e at its end v: the dart
    rule written out again for the references below, independent of
    ``graphs.darts``."""
    if e.kind in ("edge", "semi"):
        return [("u", 1)]
    if e.kind == "loop":
        return [("u", 2)]
    if e.kind == "dloop":
        return [("o", 1), ("i", 1)]
    return [("o" if e.tail == v else "i", 1)]


def reference_verify(g, h, f):
    """verify_cover checking edge images against an index of candidate
    target edges: the reference for its direct edge-image checks."""
    by = {}
    for e in h.edges():
        if e.kind == "edge":
            key = ("edge", e.colour, tuple(sorted(e.ends)))
        elif e.kind == "arc":
            key = ("arc", e.colour, (e.tail, e.head))
        else:
            key = (e.kind, e.colour, e.u)
        by.setdefault(key, []).append(e.id)

    def candidates(e):
        a, x, y = e.colour, f.fv[e.ends[0]], f.fv[e.ends[-1]]
        if e.kind == "edge":
            if x != y:
                return by.get(("edge", a, tuple(sorted((x, y)))), [])
            return by.get(("loop", a, x), []) + by.get(("semi", a, x), [])
        if e.kind == "arc":
            return by.get(("arc", a, (x, y)) if x != y else ("dloop", a, x), [])
        return by.get((e.kind, a, x), [])

    violations = []
    for v in g.vertices():
        if v not in f.fv:
            violations.append(f"vertex {v} has no image")
        elif not h.has_vertex(f.fv[v]):
            violations.append(f"vertex {v} maps to unknown vertex {f.fv[v]}")
        elif h.vertex_colour(f.fv[v]) != g.vertex_colour(v):
            violations.append(f"vertex {v} changes colour")
    violations += [f"vertex map names {v}, which is not a vertex of the source" for v in f.fv
                   if not g.has_vertex(v)]
    if violations:
        return violations
    for e in g.edges():
        if e.id not in f.fe:
            violations.append(f"edge {e.id} has no image")
        elif not h.has_edge(f.fe[e.id]):
            violations.append(f"edge {e.id} maps to unknown edge {f.fe[e.id]}")
        elif f.fe[e.id] not in candidates(e):
            violations.append(f"edge {e.id} -> {f.fe[e.id]} breaks colour or incidence")
    violations += [f"edge map names {e}, which is not an edge of the source" for e in f.fe
                   if not g.has_edge(e)]
    if violations:
        return violations

    def darts(e, v, image):
        return [((image, tag), cnt) for tag, cnt in edge_darts(e, v)]

    for u in g.vertices():
        got, want = Counter(), Counter()
        for e in incident(g, u):
            for key, cnt in darts(e, u, f.fe[e.id]):
                got[key] += cnt
        for e in incident(h, f.fv[u]):
            for key, cnt in darts(e, f.fv[u], e.id):
                want[key] += cnt
        if got != want:
            violations.append(f"local bijection broken at vertex {u}")
    sizes = Counter(f.fv.values())
    sizes.update({x: 0 for x in h.vertices()})
    if len(set(sizes.values())) > 1:
        violations.append("fibre sizes differ: " + ", ".join(f"{x}:{c}" for x, c in sorted(sizes.items())))
    return violations


def _tampered(g, h, f):
    """(what, certificate) pairs, each changing one image of ``f``."""
    fv, fe = f.fv, f.fe

    def with_edge(eid, image):
        return CoveringProjection(dict(fv), {**fe, eid: image})

    for e in g.edges():
        he = h.edge(fe[e.id])
        for other in h.edges():
            if other.colour != he.colour:
                yield "wrong colour", with_edge(e.id, other.id)
                break
        if he.kind == "arc":
            for other in h.edges():
                if other.kind == "arc" and other.colour == he.colour and other.ends == he.ends[::-1]:
                    yield "arc reversed", with_edge(e.id, other.id)
                    break
        if e.kind == "edge":
            for other in h.edges():
                if other.kind in ("loop", "semi") and other.colour == he.colour \
                        and other.u not in (fv[e.u], fv[e.v]):
                    yield "edge to a loop or semi-edge of another fibre", with_edge(e.id, other.id)
                    break
        if e.kind == "loop":
            for other in h.edges():
                if other.kind == "semi" and other.colour == he.colour and other.u == he.u:
                    yield "loop to a semi-edge", with_edge(e.id, other.id)
                    break
    yield "unknown edge", with_edge(next(iter(fe)), "no-such-edge")
    for u in g.vertices():
        for x in h.vertices():
            if x != fv[u] and h.vertex_colour(x) == h.vertex_colour(fv[u]):
                yield "vertex moved", CoveringProjection({**fv, u: x}, dict(fe))
                break
    # maps that miss a key, name an unknown image or name a key the
    # source does not have; the last vertex and edge, so that the
    # violation is not the first one scanned
    u, eid = g.vertices()[-1], list(fe)[-1]
    yield "vertex without image", CoveringProjection({v: x for v, x in fv.items() if v != u}, dict(fe))
    yield "vertex to unknown vertex", CoveringProjection({**fv, u: "no-such-vertex"}, dict(fe))
    yield "vertex map names a non-vertex", CoveringProjection({**fv, "no-such-vertex": fv[u]}, dict(fe))
    yield "edge without image", CoveringProjection(dict(fv), {e: he for e, he in fe.items() if e != eid})
    yield "edge map names a non-edge", CoveringProjection(dict(fv), {**fe, "no-such-edge": fe[eid]})
    # a key renamed: the counts of keys agree, the keys do not
    yield "vertex key renamed", CoveringProjection(
        {("no-such-vertex" if v == u else v): x for v, x in fv.items()}, dict(fe))
    yield "edge key renamed", CoveringProjection(
        dict(fv), {("no-such-edge" if e == eid else e): he for e, he in fe.items()})


def test_verify_tampered_certificates_like_the_candidate_index():
    cases = []
    for name, h in harmless_hosts():
        for seed in (0, 1):
            g = random_lift(h, 3, random.Random(seed))
            cases.append((g, h, solve_cover(g, h).projection))
    g, h = arc_beside_dotted_edge()
    cases.append((g, h, oracle_cover(g, h).projection))
    for seed in range(6):
        h = random_multigraph(3, 3, seed, colours=("e", "f"), allow_arc=True)
        g = random_lift(h, 2, random.Random(seed))
        cases.append((g, h, oracle_cover(g, h).projection))
    seen = Counter()
    for g, h, f in cases:
        assert verify_cover(g, h, f).ok and reference_verify(g, h, f) == []
        for what, bad in _tampered(g, h, f):
            res = verify_cover(g, h, bad)
            assert not res.ok and res.violations, what
            assert res.violations == reference_verify(g, h, bad), what
            seen[what] += 1
    assert len(seen) == 13 and min(seen.values()) >= 5, seen


# the folding rule as a table: (source kind, ends in one fibre) -> the target
# kinds the edge may land on
LANDINGS = {
    ("edge", False): {"edge"},
    ("edge", True): {"loop", "semi"},
    ("arc", False): {"arc"},
    ("arc", True): {"dloop"},
    ("loop", True): {"loop"},
    ("semi", True): {"semi"},
    ("dloop", True): {"dloop"},
}


def test_landing_rule_table():
    # a target with every kind of edge at and between x and y, in two
    # undirected colours and two directed ones
    h = Graph("every-kind")
    for x in ("x", "y"):
        h.add_vertex(x, "n")
    for colours, (binary, single) in ((("e", "f"), ("edge", ("loop", "semi"))),
                                      (("d", "c"), ("arc", ("dloop",)))):
        for a in colours:
            for ends in (("x", "y"), ("y", "x")):
                if binary == "arc" or ends == ("x", "y"):
                    h.add_edge(binary, f"{binary}.{a}.{''.join(ends)}", a, *ends)
            for kind in single:
                for x in ("x", "y"):
                    h.add_edge(kind, f"{kind}.{a}.{x}", a, x)
    by = _h_edge_index(h)
    seen = set()
    for (kind, inside), kinds in LANDINGS.items():
        g = Graph("one-edge")
        g.add_vertex("u", "n")
        g.add_vertex("w", "n")
        colour = "d" if kind in ("arc", "dloop") else "e"
        g.add_edge(kind, "s", colour, *(("u", "w") if kind in ("edge", "arc") else ("u",)))
        for images in (("x", "x"), ("y", "y")) if inside else (("x", "y"), ("y", "x")):
            fv = dict(zip(("u", "w"), images))
            ends = (fv["u"], fv["w"]) if kind in ("edge", "arc") else (fv["u"],)
            want = {he.id for he in h.edges() if he.kind in kinds and he.colour == colour
                    and (set(he.ends) == set(ends) if he.kind == "edge" else he.ends == ends[:len(he.ends)])}
            s = g.edge("s")
            assert set(_candidates_for(s.kind, s.colour, fv[s.u], fv[s.v], by)) == want, (kind, images)
            lands = {he.id for he in h.edges()
                     if not any("breaks colour or incidence" in v
                                for v in verify_cover(g, h, CoveringProjection(fv, {"s": he.id})).violations)}
            assert lands == want, (kind, images)
            seen.update(h.edge(he).kind for he in want)
    assert seen == {"edge", "arc", "loop", "semi", "dloop"}


def test_partial_covers_budget():
    from coverkit.gadgets import fw2_target, limping_tripod

    with pytest.raises(BudgetExhausted):
        list(partial_covers(limping_tripod(), fw2_target(), budget=2))


def test_oracle_vs_naive_bounded_exhaustive():
    # systematic mini-universe: every subset of a small edge-slot menu on
    # up to three vertices, against a fixed family of targets
    import itertools as it

    from coverkit import Graph

    def build(n, slots):
        g = Graph("mini")
        for i in range(1, n + 1):
            g.add_vertex(str(i), "n")
        for idx, (kind, ends) in enumerate(slots):
            g.add_edge(kind, f"e{idx}", "e", *ends)
        return g

    menu3 = [
        ("edge", ("1", "2")), ("edge", ("1", "2")), ("edge", ("2", "3")),
        ("loop", ("1",)), ("semi", ("1",)), ("semi", ("3",)),
    ]
    targets = [
        one_vertex(semis=2, name="f20"),
        one_vertex(semis=1, loops=1, name="f11"),
        disjoint_union(one_vertex(loops=1), one_vertex(loops=1), name="2loops"),
        cycle(3),
    ]
    checked = 0
    answers = set()
    for n, menu in ((3, menu3), (2, menu3[:2] + menu3[3:5])):
        for k in range(len(menu) + 1):
            for combo in it.combinations(range(len(menu)), k):
                slots = [menu[i] for i in combo]
                if any(int(v) > n for _, ends in slots for v in ends):
                    continue
                g = build(n, slots)
                for h in targets:
                    want = naive_cover(g, h)
                    answers.add(want is not None)
                    got = oracle_cover(g, h, budget=100_000)
                    assert got.status in ("yes", "no")
                    assert got.yes == (want is not None), (n, combo, h.name)
                    checked += 1
    assert checked >= 300
    # a universe without both answers cannot catch a one-sided oracle
    assert answers == {True, False}


# the search tree, pinned --------------------------------------------------------


def _formula_incidence(f):
    """Clause vertices joined to their variables, without equalizer grids:
    it covers ``fw_target(f.c)`` exactly when ``f`` is satisfiable."""
    g = Graph("incidence")
    for j, _ in enumerate(f.clauses):
        g.add_vertex(f"z{j}", "n")
    for x in f.variables:
        g.add_vertex(x, "n")
    for j, cl in enumerate(f.clauses):
        for x in cl:
            g.add_edge("edge", f"e{j}.{x}", "e", f"z{j}", x)
    return g


def _gphi(n_clauses, seed):
    from coverkit.gadgets import build_gphi_fw, fw_target, random_formula

    return build_gphi_fw(3, random_formula(3, n_clauses, 3, seed)), fw_target(3)


def _gphi_beside_unsat_incidence(unsat_clauses, unsat_seed):
    # a 3-clause gphi beside a small unsatisfiable component: the search
    # splits into components and refutes the small one
    from coverkit.gadgets import random_formula

    g, h = _gphi(3, 0)
    return disjoint_union(g, _formula_incidence(random_formula(3, unsat_clauses, 3, unsat_seed))), h


def _wd_lift(seed, m):
    from coverkit.gadgets import directed_lift_wd, random_regular, wd_target

    base, _ = random_regular("bipartite", 3, m, seed=seed)
    return directed_lift_wd(base, 2, 1), wd_target(2, 1)


# (status, nodes) recorded before the search moved to integer ids and
# bitmask domains, and re-recorded where ordering the images of twins,
# then failing rows that owe darts to images no neighbour holds, and then
# trying one image per class of target twins moved them; any change to
# branching, propagation, either twin rule or the split check shows up here
# as a different node count
PINNED_SEARCHES = [
    ("gphi 3 clauses seed 0", lambda: _gphi(3, 0), 2000, ("yes", 117)),
    ("gphi 4 clauses seed 3", lambda: _gphi(4, 3), 2000, ("yes", 156)),
    ("gphi 4 clauses seed 1", lambda: _gphi(4, 1), 2000, ("yes", 186)),
    ("gphi 8 clauses seed 0", lambda: _gphi(8, 0), 2000, ("yes", 328)),
    ("gphi 4 clauses seed 0", lambda: _gphi(4, 0), 2000, ("yes", 348)),
    ("gphi beside unsat 6/251", lambda: _gphi_beside_unsat_incidence(6, 251), 2000, ("no", 70)),
    ("gphi beside unsat 8/31", lambda: _gphi_beside_unsat_incidence(8, 31), 2000, ("no", 167)),
    ("wd lift seed 0", lambda: _wd_lift(0, 3), 2000, ("no", 77)),
    ("wd lift seed 1", lambda: _wd_lift(1, 4), 2000, ("yes", 50)),
    ("wd lift seed 3", lambda: _wd_lift(3, 4), 2000, ("yes", 121)),
    ("wd lift seed 5", lambda: _wd_lift(5, 4), 2000, ("yes", 129)),
    ("wd lift seed 439499", lambda: _wd_lift(439499, 7), 2000, ("no", 271)),
    # disconnected targets: fibre caps instead of the split check
    ("C6+C3+C3 over 2 C3", lambda: (disjoint_union(cycle(6), cycle(3), cycle(3)),
                                    disjoint_union(cycle(3), cycle(3))), 10_000, ("yes", 12)),
    ("C5+C7 over 2 C3", lambda: (disjoint_union(cycle(5), cycle(7)),
                                 disjoint_union(cycle(3), cycle(3))), 10_000, ("no", 14)),
    ("C12+C6 over 3 C3", lambda: (disjoint_union(cycle(12), cycle(6)),
                                  disjoint_union(cycle(3), cycle(3), cycle(3))), 10_000, ("no", 33)),
]


# parity refutes these before the search: a "no" in no search node
PINNED_PARITY = {"gphi beside unsat 6/251", "gphi beside unsat 8/31"}


@pytest.mark.parametrize("build,budget,want", [case[1:] for case in PINNED_SEARCHES],
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_oracle_search_tree_is_pinned(build, budget, want):
    g, h = build()
    res = searched(g, h, budget)
    assert (res.status, res.nodes) == want


@pytest.mark.parametrize("name,build,budget,want", PINNED_SEARCHES, ids=[case[0] for case in PINNED_SEARCHES])
def test_oracle_answer_is_pinned(name, build, budget, want):
    g, h = build()
    res = oracle_cover(g, h, budget=budget)
    if name in PINNED_PARITY:
        assert (res.status, res.nodes, res.reason) == ("no", 0, "parity")
        assert verify_parity(g, h, res.witness).ok
    else:
        assert (res.status, res.nodes, res.reason) == (*want, "cover" if want[0] == "yes" else "search")


def test_partial_covers_count_is_pinned():
    from coverkit.gadgets import fw2_target, limping_tripod

    assert sum(1 for _ in partial_covers(limping_tripod(), fw2_target())) == 6
    assert sum(1 for _ in partial_covers(cycle(6), cycle(3))) == 6


_ORACLE_SCRIPT = """
import json
from coverkit import oracle_cover
from coverkit.gadgets import (build_gphi_fw, directed_lift_wd, fw_target, random_formula,
                              random_regular, wd_target)
base, _ = random_regular("bipartite", 3, 4, seed=3)
cases = [(directed_lift_wd(base, 2, 1), wd_target(2, 1)),
         (build_gphi_fw(3, random_formula(3, 4, 3, 1)), fw_target(3))]
out = []
for g, h in cases:
    res = oracle_cover(g, h, budget=2000)
    out.append([res.status, res.nodes, res.projection.to_json()])
print(json.dumps(out))
"""


def test_oracle_nodes_and_certificates_ignore_hash_seed():
    src = os.path.dirname(os.path.dirname(coverkit.__file__))
    runs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _ORACLE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert [status for status, _, _ in runs[0]] == ["yes", "yes"]
    assert all(run == runs[0] for run in runs)


# budgets and images -------------------------------------------------------------


@pytest.mark.parametrize("budget", [0, -5, 2.5, 1.0, True, False, "10", None])
def test_budgets_must_be_positive_ints(budget):
    from coverkit.gadgets import fw2_target, limping_tripod

    with pytest.raises(ValueError):
        oracle_cover(cycle(4), cycle(4), budget=budget)
    with pytest.raises(ValueError):
        partial_covers(limping_tripod(), fw2_target(), budget=budget)


def test_partial_covers_send_v0_to_each_image_twice():
    maps = [p.fv for p in partial_covers(cycle(6), cycle(3))]
    assert len(maps) == 6
    assert Counter(fv["v0"] for fv in maps) == {"v0": 2, "v1": 2, "v2": 2}


# partial covers against brute force ------------------------------------------


def brute_partial_vertex_maps(g, h):
    """Every colour-preserving vertex map that some colour-preserving edge
    map makes locally injective: the darts of the edges at each vertex
    land on distinct darts at its image."""
    room = {x: Counter() for x in h.vertices()}
    for x in h.vertices():
        for e in incident(h, x):
            for tag, cnt in edge_darts(e, x):
                room[x][e.id, tag] += cnt
    by = _h_edge_index(h)
    names = g.vertices()
    choices = [[x for x in h.vertices() if h.vertex_colour(x) == g.vertex_colour(u)] for u in names]
    found = set()
    for images in itertools.product(*choices):
        fv = dict(zip(names, images))
        edges = list(g.edges())
        for fe in itertools.product(*(_candidates_for(e.kind, e.colour, fv[e.u], fv[e.v], by) for e in edges)):
            used = {u: Counter() for u in names}
            for e, he in zip(edges, fe):
                for u in set(e.ends):
                    for tag, cnt in edge_darts(e, u):
                        used[u][he, tag] += cnt
            if all(c <= room[fv[u]][key] for u in names for key, c in used[u].items()):
                found.add(images)
                break
    return found


def small_partial_pairs():
    from coverkit.gadgets import fw2_target, limping_tripod

    yield path(2), cycle(3)
    yield path(3), cycle(4)
    yield path(4), cycle(3)
    yield cycle(6), cycle(3)
    yield cycle(3), cycle(6)
    yield path(3, semis=(True, False)), one_vertex(semis=1, loops=1)
    yield path(3), two_vertex_w(1, 0, 1, 0, 1)
    yield cycle(4), two_vertex_w(0, 1, 1, 1, 0)
    yield limping_tripod(), fw2_target()
    # ten vertices, so the search splits the two paths into components and
    # combines their first maps, which the branching after must not repeat
    yield disjoint_union(path(5), path(5)), cycle(3)
    for seed in range(12):
        yield (random_multigraph(3, 1, seed, colours=("e", "f")),
               random_multigraph(3, 6, 100 + seed, colours=("e", "f")))


def test_partial_covers_the_edge_into_the_triangle():
    # the deficit and forcing rules of covers would prune all of these:
    # a partial cover may leave target darts unused
    assert len(list(partial_covers(path(2), cycle(3)))) == 6
    assert len(list(partial_covers(path(3), cycle(4)))) == 8


def test_partial_covers_match_brute_force():
    answers = Counter()
    for g, h in small_partial_pairs():
        names = g.vertices()
        got = [tuple(p.fv[u] for u in names) for p in partial_covers(g, h)]
        want = brute_partial_vertex_maps(g, h)
        # every map once
        assert Counter(got) == Counter(want), (g.name, h.name)
        answers[bool(want)] += 1
        for proj in partial_covers(g, h):
            assert tuple(proj.fv[u] for u in names) in want
    assert answers[True] >= 15 and answers[False] >= 4


# certificate JSON --------------------------------------------------------------


@pytest.mark.parametrize("fv, fe", [
    ({}, {}),
    ({"v": "x"}, {}),
    ({}, {"e": "c"}),
    ({"b": "y", "a": "x", "ä": "☃"}, {"e\"q": "c\\d", "tab\t": "nl\n", "\x00\x1f": "\x7f "}),
    ({"𝔘": "x", "u": "𝔵"}, {"e10": "c", "e9": "c", "E": "c"}),
])
def test_certificate_json_is_what_json_writes(fv, fe):
    proj = CoveringProjection(fv, fe)
    text = proj.to_json()
    assert text == json.dumps({"fv": fv, "fe": fe}, indent=2, sort_keys=True)
    assert CoveringProjection.from_json(text) == proj


def test_certificate_json_of_maps_that_are_not_strings():
    # whatever is not a map of strings to strings goes through json itself
    for fv, fe in (({1: "x"}, {}), ({"v": 1}, {}), ({}, {"e": None}), ({True: "x"}, {"e": 2.5})):
        assert CoveringProjection(fv, fe).to_json() == \
            json.dumps({"fv": fv, "fe": fe}, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        CoveringProjection({1: "x", "v": "y"}, {}).to_json()
