import hashlib
import random

import pytest

from coverkit import Graph, GraphError, oracle_cover, partial_covers, serialize_graph, total_degree, verify_cover
from coverkit.gadgets import (
    Formula,
    GadgetError,
    bc_colouring_brute,
    brute_force_formula,
    build_gphi_fw,
    compose_claimA,
    deprime_lift,
    directed_lift_wd,
    fw2_target,
    fw_target,
    gadget_target,
    garbage_lift,
    limping_tripod,
    one_factorization,
    random_formula,
    random_regular,
    spanning_lift,
    variable_gadget,
    wd_target,
)

from conftest import cycle, complete_bipartite, disjoint_union


def test_tripod_counts_and_degrees():
    lt = limping_tripod()
    assert lt.n == 7 and lt.m == 8
    degs = {v: total_degree(lt, v) for v in lt.vertices()}
    assert degs["p1"] == degs["p2"] == 4
    assert degs["m1"] == degs["m2"] == degs["m3"] == 2
    assert degs["u"] == degs["v"] == 1


def test_tripod_forcing_is_exhaustive():
    lt = limping_tripod()
    h = fw2_target()
    images = set()
    for fv in (p.fv for p in partial_covers(lt, h)):
        assert fv["u"] == fv["v"]
        images.add(fv["u"])
    assert images == {"r", "g"}


def test_formula_tools():
    f = Formula(2, [("a", "b", "c", "d")])
    val = brute_force_formula(f)
    assert val is not None and sum(val[x] for x in ("a", "b", "c", "d")) == 2
    unsat = Formula(2, [("a", "b", "c", "d"), ("a", "b", "c", "e"), ("a", "b", "d", "e"),
                       ("a", "c", "d", "e"), ("b", "c", "d", "e")])
    # five clauses over five variables, each scanning four of them: an
    # exactly-2 assignment would need every 4-subset to hold exactly 2
    # trues, impossible with 5 variables
    assert brute_force_formula(unsat) is None
    sat3 = Formula(3, [("a", "b", "c", "d", "e", "f")] * 3)
    assert brute_force_formula(sat3) is not None
    with pytest.raises(GadgetError):
        Formula(2, [("a", "a", "b", "c")])


def test_random_formula_discipline():
    f = random_formula(3, 4, 3, seed=1)
    assert len(f.clauses) == 4
    f.require_occurrences(3)
    f2 = random_formula(2, 4, 4, seed=2)
    f2.require_occurrences(4)


def test_random_formula_draws_are_pinned():
    # the benchmark's gadget instances are built from these draws, so the
    # argument checks must leave every valid draw as it was
    pins = [((3, 8, 3, 31), "abf6943c00676ba7480c2028bf453e795c4a5234f5a999609e53466d129c117a"),
            ((3, 4, 3, 0), "90254cc9e2a501977ee4c0325a18efc70c4eb6680368a27e1e33d321e216edb3")]
    for args, digest in pins:
        assert hashlib.sha256(random_formula(*args).to_json().encode()).hexdigest() == digest, args


def test_gphi_counts():
    # |C|=3 and 6 variables with 3 occurrences each: 39 vertices and 78
    # edges per clause (sum of the family sizes)
    f = random_formula(3, 3, 3, seed=3)
    g = build_gphi_fw(3, f)
    assert g.n == 39 * 3
    assert g.m == 78 * 3
    degs = sorted(total_degree(g, v) for v in g.vertices())
    # clause vertices plus the equalizer hubs: |C| + |X|*c*(c-1)
    assert degs.count(6) == 3 + 6 * 3 * 2
    assert set(degs) == {3, 6}


def test_gphi_cover_iff_satisfiable():
    import itertools

    # one satisfiable and one unsatisfiable disciplined formula
    sat_f = None
    unsat_f = None
    for seed in range(60):
        f = random_formula(3, 3, 3, seed=seed)
        if brute_force_formula(f) is None:
            unsat_f = unsat_f or f
        else:
            sat_f = sat_f or f
        if sat_f and unsat_f:
            break
    assert sat_f is not None
    h = fw_target(3)
    res = oracle_cover(build_gphi_fw(3, sat_f), h, budget=4_000_000)
    assert res.yes
    assert verify_cover(build_gphi_fw(3, sat_f), h, res.projection).ok
    if unsat_f is not None:
        res2 = oracle_cover(build_gphi_fw(3, unsat_f), h, budget=4_000_000)
        assert res2.no


def test_directed_lift_counts():
    g = cycle(4)
    lift = directed_lift_wd(g, 1, 1)
    assert lift.n == 8 and lift.m == 16
    for v in lift.vertices():
        outs = sum(1 for e in lift.edges() if e.kind == "arc" and e.tail == v)
        ins = sum(1 for e in lift.edges() if e.kind == "arc" and e.head == v)
        assert outs == 2 and ins == 2


def test_directed_lift_equivalence():
    # (2,1)-colourability of 3-regular bipartite graphs vs covering the
    # directed two-vertex target
    for seed in (0, 1, 2):
        g, _ = random_regular("bipartite", 3, 3, seed=seed)
        lift = directed_lift_wd(g, 2, 1)
        want = bc_colouring_brute(g, 2, 1) is not None
        got = oracle_cover(lift, wd_target(2, 1), budget=2_000_000)
        assert got.status in ("yes", "no")
        assert got.yes == want, seed


def test_variable_gadget_c0_forcing():
    vg = variable_gadget("c0")
    seen = set()
    for fv in (p.fv for p in partial_covers(vg.graph, vg.target)):
        vals = {fv[p] for p in vg.ports_a}
        assert len(vals) == 1
        seen.add(vals.pop())
    assert seen == {"r", "g"}


def test_variable_gadget_b1_split():
    vg = variable_gadget("b1")
    seen = set()
    for fv in (p.fv for p in partial_covers(vg.graph, vg.target)):
        a_vals = {fv[p] for p in vg.ports_a}
        b_vals = {fv[p] for p in vg.ports_b}
        assert len(a_vals) == 1 and len(b_vals) == 1
        assert a_vals != b_vals
        seen.add((a_vals.pop(), b_vals.pop()))
    assert seen == {("r", "g"), ("g", "r")}


def test_variable_gadget_ck_dk_audit():
    for case, k in (("ck", 1), ("dk", 1), ("dk", 2)):
        vg = variable_gadget(case, k)
        assert len(vg.ports_a) == 4 * k + 4


def test_compose_counts():
    vg = variable_gadget("c0")
    f = random_formula(2, 4, 4, seed=9)
    g = compose_claimA(vg, f)
    assert g.n == 4 * vg.graph.n + 4
    for j in range(4):
        zdeg = total_degree(g, f"z.{j}")
        assert zdeg == 4


def test_compose_cover_iff_satisfiable():
    # with four clauses every clause contains all four variables, so
    # exactly-2-in-4 instances are always satisfiable; six clauses over
    # six variables give genuine unsatisfiable instances
    vg = variable_gadget("c0")
    sat_f = unsat_f = None
    for seed in range(100):
        f = random_formula(2, 6, 4, seed=seed)
        if brute_force_formula(f) is None:
            unsat_f = unsat_f or f
        else:
            sat_f = sat_f or f
        if sat_f and unsat_f:
            break
    assert sat_f is not None and unsat_f is not None
    for f, want in ((sat_f, True), (unsat_f, False)):
        inst = compose_claimA(vg, f)
        res = oracle_cover(inst, vg.target, budget=4_000_000)
        assert res.status in ("yes", "no")
        assert res.yes == want


def test_compose_two_sided_b1():
    vg = variable_gadget("b1")
    f = random_formula(2, 4, 4, seed=11)
    inst = compose_claimA(vg, f)
    # two clause vertices per clause, one per side
    assert inst.n == 4 * vg.graph.n + 8
    want = brute_force_formula(f) is not None
    res = oracle_cover(inst, vg.target, budget=6_000_000)
    assert res.status in ("yes", "no")
    assert res.yes == want


# --- structural lifts -----------------------------------------------------


def toy_contracted_pair():
    """H with a contracted block C carrying a double edge colour 'de' (from
    the A side) and semi-edges colour 'se' (from the B side)."""
    h = Graph("toy-contracted")
    h.add_vertex("c1", "C")
    h.add_vertex("c2", "C")
    h.add_edge("edge", "d1", "de", "c1", "c2")
    h.add_edge("edge", "d2", "de", "c1", "c2")
    h.add_edge("semi", "s1", "se", "c1")
    h.add_edge("semi", "s2", "se", "c2")
    return h


def toy_deprimed(k):
    hp = Graph(f"toy-primed-{k}")
    for v in ("a1", "a2"):
        hp.add_vertex(v, "A")
    for v in ("b1", "b2"):
        hp.add_vertex(v, "B")
    hp.add_edge("edge", "d1", "de", "a1", "a2")
    hp.add_edge("edge", "d2", "de", "a1", "a2")
    hp.add_edge("semi", "s1", "se", "b1")
    hp.add_edge("semi", "s2", "se", "b2")
    n = 0
    for i in (1, 2):
        for _ in range(k):
            n += 1
            hp.add_edge("edge", f"m{n}", "mu", f"a{i}", f"b{i}")
    return hp


def random_c_instance(n_pairs, seed):
    rng = random.Random(seed)
    g = Graph(f"cinst{seed}")
    n = 2 * n_pairs
    for i in range(n):
        g.add_vertex(f"w{i}", "C")
    # de-colour: random 2-regular structure; se-colour: random semi/edge mix
    stubs = [f"w{i}" for i in range(n) for _ in range(2)]
    rng.shuffle(stubs)
    eid = 0
    for a, b in zip(stubs[::2], stubs[1::2]):
        eid += 1
        if a == b:
            g.add_edge("loop", f"de{eid}", "de", a)
        else:
            g.add_edge("edge", f"de{eid}", "de", a, b)
    verts = [f"w{i}" for i in range(n)]
    rng.shuffle(verts)
    for i in range(0, n, 2):
        eid += 1
        if rng.random() < 0.5:
            g.add_edge("semi", f"se{eid}a", "se", verts[i])
            g.add_edge("semi", f"se{eid}b", "se", verts[i + 1])
        else:
            g.add_edge("edge", f"se{eid}", "se", verts[i], verts[i + 1])
    return g


def test_deprime_counts():
    g = random_c_instance(2, seed=1)
    lifted = deprime_lift(g, "C", "A", "B", {"de"}, {"se"}, "mu", 2)
    assert lifted.n == 2 * (g.n + g.n)  # every vertex splits, two copies


def test_deprime_equivalence():
    h = toy_contracted_pair()
    for k in (1, 2):
        hp = toy_deprimed(k)
        for seed in range(8):
            g = random_c_instance(2, seed=seed)
            want = oracle_cover(g, h, budget=500_000)
            lifted = deprime_lift(g, "C", "A", "B", {"de"}, {"se"}, "mu", k)
            got = oracle_cover(lifted, hp, budget=2_000_000)
            assert want.status in ("yes", "no") and got.status in ("yes", "no")
            assert want.yes == got.yes, (k, seed)


# one colour "m" that the block graph lacks, of each kind garbage_lift wires
# in its own way: (kind, ends) per edge of the target
MISSING_COLOURS = {
    "hub semi-edge": [("semi", "a")],
    "hub loop": [("loop", "a")],
    "hub directed loop": [("dloop", "a")],
    "doublet semi-edges": [("semi", "x"), ("semi", "y")],
    "doublet loops": [("loop", "x"), ("loop", "y")],
    "doublet edge": [("edge", "x", "y")],
    "doublet arcs": [("arc", "x", "y"), ("arc", "y", "x")],
    "doublet directed loops": [("dloop", "x"), ("dloop", "y")],
    "FF": [("edge", "a", "b")],
    # WW(1,1); the lift pairs the two doublet blocks' instance vertices in
    # sorted order, which a cover need not respect when b != c
    "WW": [("edge", "x", "z"), ("edge", "y", "w"), ("edge", "x", "w"), ("edge", "y", "z")],
}
# WW(1,0), which garbage_lift refuses
UNEQUAL_WW = [("edge", "x", "z"), ("edge", "y", "w")]


def toy_host_pair(missing=None):
    """A two-block host with two parallel hub-bundle colours and loops on
    the doublet; the block graph keeps one bundle colour and the loops, so
    it is connected, spanning and balanced.

    ``missing`` names an entry of MISSING_COLOURS, or "WW(1,0)" for
    UNEQUAL_WW, to add to the host only.  FF brings a second hub b and
    either WW a second doublet {z, w}; both host and block graph join it
    to the rest by a bundle of colour k."""
    h = Graph("toy-host")
    hp = Graph("toy-blockgraph")
    for g in (h, hp):
        g.add_vertex("a", "H")
        g.add_vertex("x", "Q")
        g.add_vertex("y", "Q")
        if g is h:
            g.add_edge("edge", "e1", "e", "a", "x")
            g.add_edge("edge", "e2", "e", "a", "y")
        g.add_edge("edge", "d1", "e2", "a", "x")
        g.add_edge("edge", "d2", "e2", "a", "y")
        g.add_edge("loop", "f1", "f", "x")
        g.add_edge("loop", "f2", "f", "y")
        if missing == "FF":
            g.add_vertex("b", "K")
            g.add_edge("edge", "k1", "k", "b", "x")
            g.add_edge("edge", "k2", "k", "b", "y")
        elif missing in ("WW", "WW(1,0)"):
            g.add_vertex("z", "R")
            g.add_vertex("w", "R")
            g.add_edge("edge", "k1", "k", "a", "z")
            g.add_edge("edge", "k2", "k", "a", "w")
    for i, (kind, *ends) in enumerate({**MISSING_COLOURS, "WW(1,0)": UNEQUAL_WW}.get(missing, [])):
        h.add_edge(kind, f"m{i}", "m", *ends)
    return h, hp


def random_blockgraph_instance(r, seed, split, missing=None):
    """A simple instance of the connected block graph: bundle-colour
    cherries plus loop-colour rings on the doublet vertices.

    Loop-colour rings force their vertices onto a single target vertex,
    cherries force their two ends apart.  Two rings, one per cherry side,
    give a covering instance; one ring through everything cannot cover.
    With ``missing`` FF, each of r second hubs joins one vertex of each
    cherry side by a k-colour cherry; with WW, each hub gets a k-colour
    cherry to two vertices of the second doublet.
    """
    rng = random.Random(seed)
    g = Graph(f"bg{seed}")
    hubs = [f"h{i}" for i in range(r)]
    qs = [f"q{i}" for i in range(2 * r)]
    for v in hubs:
        g.add_vertex(v, "H")
    for v in qs:
        g.add_vertex(v, "Q")
    order = qs[:]
    rng.shuffle(order)
    eid = 0
    left, right = [], []
    for i, hub in enumerate(hubs):
        eid += 1
        g.add_edge("edge", f"c{eid}", "e2", hub, order[2 * i])
        eid += 1
        g.add_edge("edge", f"c{eid}", "e2", hub, order[2 * i + 1])
        left.append(order[2 * i])
        right.append(order[2 * i + 1])
    cherries = []
    if missing == "FF":
        ends = rng.sample(right, r)
        for i in range(r):
            g.add_vertex(f"b{i}", "K")
            cherries.append((f"b{i}", left[i], ends[i]))
    elif missing == "WW":
        for i, hub in enumerate(hubs):
            g.add_vertex(f"z{2 * i}", "R")
            g.add_vertex(f"z{2 * i + 1}", "R")
            cherries.append((hub, f"z{2 * i}", f"z{2 * i + 1}"))
    for hub, u, v in cherries:
        eid += 1
        g.add_edge("edge", f"c{eid}", "k", hub, u)
        eid += 1
        g.add_edge("edge", f"c{eid}", "k", hub, v)
    rings = [left, right] if split else [qs[:]]
    for ring in rings:
        rng.shuffle(ring)
        for i in range(len(ring)):
            eid += 1
            g.add_edge("edge", f"f{eid}", "f", ring[i], ring[(i + 1) % len(ring)])
    return g


def test_spanning_lift():
    h, hp = toy_host_pair()
    # an instance of the doublet-only block graph: loop-colour cycle
    induced = Graph("q-only")
    for i in range(4):
        induced.add_vertex(f"q{i}", "Q")
    for i in range(4):
        induced.add_edge("edge", f"f{i}", "f", f"q{i}", f"q{(i + 1) % 4}")
    hp_only_q = Graph("bg-q")
    hp_only_q.add_vertex("x", "Q")
    hp_only_q.add_vertex("y", "Q")
    hp_only_q.add_edge("loop", "f1", "f", "x")
    hp_only_q.add_edge("loop", "f2", "f", "y")
    padded = spanning_lift(induced, h, hp_only_q)
    assert padded.n == induced.n + 2  # ratio 2, one absent singleton block
    counts = {}
    for v in padded.vertices():
        counts[padded.vertex_colour(v)] = counts.get(padded.vertex_colour(v), 0) + 1
    assert counts == {"Q": 4, "H": 2}
    bad = Graph("bad")
    for i in range(3):
        bad.add_vertex(f"q{i}", "Q")
    with pytest.raises(GadgetError):
        spanning_lift(bad, h, hp_only_q)


@pytest.mark.parametrize("missing", [None, *MISSING_COLOURS],
                         ids=["toy", *(name.replace(" ", "-") for name in MISSING_COLOURS)])
def test_garbage_lift_structure_and_equivalence(missing):
    h, hp = toy_host_pair(missing)
    # the least even m above the target's maximum degree
    d_max = max(total_degree(h, v) for v in h.vertices())
    m = d_max + 2 - d_max % 2
    seen = set()
    for seed in range(6):
        g = random_blockgraph_instance(3, seed=seed, split=seed % 2 == 0, missing=missing)
        out = garbage_lift(g, h, hp)
        assert out.n == 2 * m * g.n
        want = oracle_cover(g, hp, budget=500_000)
        got = oracle_cover(out, h, budget=4_000_000)
        assert want.status in ("yes", "no") and got.status in ("yes", "no")
        assert want.yes == got.yes, seed
        if got.yes:
            assert verify_cover(out, h, got.projection).ok
        seen.add(want.yes)
    assert seen == {True, False}


# sha256 of every lift below and of the refusal's message: any change to a
# lift's wiring, edge ids or order moves it; it holds under every
# PYTHONHASHSEED
GARBAGE_LIFT_DIGEST = "ddace5366a77b7bc69887f28a8a3767df9692c158005904029f4b5e71ca1d5d4"


def test_garbage_lift_outputs_pinned():
    # the toy host, each missing colour and the refused WW(1,0), at seeds 0-5
    digest = hashlib.sha256()
    for missing in [None, *MISSING_COLOURS, "WW(1,0)"]:
        h, hp = toy_host_pair(missing)
        for seed in range(6):
            g = random_blockgraph_instance(3, seed=seed, split=seed % 2 == 0,
                                           missing="WW" if missing == "WW(1,0)" else missing)
            try:
                text = serialize_graph(garbage_lift(g, h, hp))
            except GadgetError as exc:
                text = f"{type(exc).__name__}: {exc}"
            digest.update(f"{missing}|{seed}|{text}\n".encode())
    assert digest.hexdigest() == GARBAGE_LIFT_DIGEST


def test_garbage_lift_refuses_a_directed_interblock_colour():
    # arcs from the hub to the doublet form no interblock block graph
    h, hp = toy_host_pair()
    h.add_edge("arc", "m0", "m", "a", "x")
    h.add_edge("arc", "m1", "m", "a", "y")
    g = random_blockgraph_instance(3, seed=0, split=True)
    with pytest.raises(GraphError, match="interblock"):
        garbage_lift(g, h, hp)


def test_garbage_lift_rejects_disconnected_blockgraph():
    h, _ = toy_host_pair()
    hp = Graph("disc")
    hp.add_vertex("a", "H")
    hp.add_vertex("x", "Q")
    hp.add_vertex("y", "Q")
    hp.add_edge("loop", "f1", "f", "x")
    hp.add_edge("loop", "f2", "f", "y")
    g = random_blockgraph_instance(2, seed=0, split=False)
    with pytest.raises(GadgetError, match="connected"):
        garbage_lift(g, h, hp)


def test_garbage_lift_refuses_unequal_ww():
    # the instance covers the block graph, but its lift need not cover the
    # host: the lift joins vertices paired in sorted order, whatever sides
    # the cover gives them
    h, hp = toy_host_pair("WW(1,0)")
    g = random_blockgraph_instance(3, seed=0, split=True, missing="WW")
    assert oracle_cover(g, hp, budget=500_000).yes
    with pytest.raises(GadgetError, match=r"WW\(1,0\)"):
        garbage_lift(g, h, hp)


# sha256 of serialize_graph of each variable gadget, of one composed
# instance and of one garbage lift: each pastes prefixed copies of a
# graph, and any change to the pasted ids or their order moves its digest
PASTED_DIGESTS = {
    "c0": "2d785fef5f8981bae1dff488917ddbefae2257207df0998acda2506e1ca7a0fe",
    "ck1": "5a6bc1324d7fafd1638e70dea506dec551dadec4d7796134d80b7cca29e7a864",
    "ck2": "27d1d394270ac49db8c7e9d679a0020f17861fbadfada62b9e4873cdcc7ddb3c",
    "dk1": "73c3071960de5cb8d15d97faa2d9d4b31e6b40ace888dee2c29e556758c1e828",
    "dk2": "39249d1c58e12f00e34e7d03c5b1fb85d50d428cb6201be9c0aec8a33798114f",
    "b1": "497b0b5fc1fd7134e5ce5c28fc016a3f0621bbef676fababa70065d9741a158a",
    "claimA-c0": "b73a7f4ca41e7ac579c09529dd1012c80e2ef1d85b9581d077012b4cd9923789",
    "garbage-toy": "a01930f78f3c6df3639fe4000425a99f14a7e56cfbf45eb43bb8dd85f5864f32",
}


def pasted_graphs():
    yield "c0", variable_gadget("c0").graph
    for case in ("ck", "dk"):
        for k in (1, 2):
            yield f"{case}{k}", variable_gadget(case, k).graph
    yield "b1", variable_gadget("b1").graph
    yield "claimA-c0", compose_claimA(variable_gadget("c0"), random_formula(2, 4, 4, seed=9))
    h, hp = toy_host_pair()
    yield "garbage-toy", garbage_lift(random_blockgraph_instance(3, seed=0, split=True), h, hp)


def test_pasted_graphs_pinned():
    got = {name: hashlib.sha256(serialize_graph(g).encode()).hexdigest() for name, g in pasted_graphs()}
    assert got == PASTED_DIGESTS


def test_one_factorization():
    for m in (2, 4, 6, 8):
        rounds = one_factorization(m)
        assert len(rounds) == m - 1
        seen = set()
        for rnd in rounds:
            verts = [v for pair in rnd for v in pair]
            assert sorted(verts) == list(range(m))
            for pair in rnd:
                assert pair not in seen
                seen.add(pair)


def test_random_regular_kinds():
    g, colouring = random_regular("bipartite", 3, 3, seed=0)
    assert g.n == 6 and g.m == 9
    g2, col2 = random_regular("even", 3, 4, seed=0)
    assert g2.n == 4 and g2.m == 6  # K_4
    g3, col3 = random_regular("directed", 1, 6, seed=0)
    for v in g3.vertices():
        outs = sum(1 for e in g3.edges() if e.tail == v)
        ins = sum(1 for e in g3.edges() if e.head == v)
        assert outs == ins == 1
    # the colouring certifies per-class regularity
    for gg, cc, k in ((g, colouring, 3), (g2, col2, 3)):
        per_class = {}
        for eid, cls in cc.items():
            per_class.setdefault(cls, []).append(eid)
        for cls, ids in per_class.items():
            touched = [w for eid in ids for w in gg.edge(eid).ends]
            assert len(touched) == len(set(touched))
    with pytest.raises(GadgetError):
        random_regular("even", 3, 5, seed=0)
