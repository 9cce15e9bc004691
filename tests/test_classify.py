import pytest

from coverkit import (
    Graph,
    SmallShape,
    classify_shape,
    degree_partition,
    recognize_shape,
    verdict,
)
from coverkit.classify import (
    DANGEROUS, HARMFUL, HARMLESS, NP_COMPLETE, POLYNOMIAL, UNSUPPORTED, ShapeError, analyze_target,
)
from coverkit.gadgets import fw2_target, fw_target, wd_target

from conftest import complete_graph, cycle, looped_triangle_with_tails, one_vertex, two_vertex_w, two_vertex_wd


def test_recognize_single_vertex():
    g = one_vertex(semis=2)
    assert recognize_shape(g, [["x"]], "e") == SmallShape("F", (2, 0))
    g = one_vertex(dloops=3)
    assert recognize_shape(g, [["x"]], "d") == SmallShape("FD", (3,))


def test_recognize_fw2():
    h = fw2_target()
    shape = recognize_shape(h, [["p"], ["r", "g"]], "a")
    assert shape == SmallShape("FW", (2,))


def test_recognize_w_shapes():
    g = two_vertex_w(0, 1, 0, 1, 0)
    assert recognize_shape(g, [["x", "y"]], "e") == SmallShape("W", (0, 1, 0, 1, 0))
    g = two_vertex_w(2, 0, 0, 1, 0)
    assert recognize_shape(g, [["x", "y"]], "e") == SmallShape("W", (2, 0, 0, 1, 0))
    g = two_vertex_w(0, 1, 0, 0, 2)  # canonical flip puts the semis first
    assert recognize_shape(g, [["x", "y"]], "e") == SmallShape("W", (2, 0, 0, 1, 0))
    g = two_vertex_wd(1, 1)
    assert recognize_shape(g, [["x", "y"]], "d") == SmallShape("WD", (1, 1, 1))


def test_recognize_irregular_rejected():
    g = two_vertex_w(1, 0, 0, 0, 2)
    g_bad = Graph("bad")
    g_bad.add_vertex("x", "n")
    g_bad.add_vertex("y", "n")
    g_bad.add_edge("semi", "s", "e", "x")
    with pytest.raises(ShapeError):
        recognize_shape(g_bad, [["x", "y"]], "e")


def _block_graph(vertices, edges):
    # built without validate(), so one colour may mix edge kinds
    g = Graph("malformed")
    for v in vertices:
        g.add_vertex(v, "n")
    for kind, colour, *ends in edges:
        g.add_edge(kind, f"e{g.m}", colour, *ends)
    return g


@pytest.mark.parametrize("vertices,edges,blocks,match", [
    pytest.param("xy", [("edge", "e", "x", "y")], [["x"]], "leaves the given blocks",
                 id="edge at a singleton block"),
    pytest.param("xyz", [], [["x", "y", "z"]], "at most 2 vertices", id="three-vertex block"),
    pytest.param("xyz", [], [["x"], ["y"], ["z"]], "one or two blocks", id="three blocks"),
    pytest.param("x", [("semi", "e", "x"), ("dloop", "e", "x")], [["x"]], "mixed directed",
                 id="singleton mixing kinds"),
    pytest.param("xy", [("arc", "e", "x", "y"), ("arc", "e", "y", "x"), ("semi", "e", "x")],
                 [["x", "y"]], "mixed directed", id="doublet mixing kinds"),
    pytest.param("xy", [("arc", "e", "x", "y")], [["x", "y"]], "irregular directed",
                 id="doublet one arc"),
    pytest.param("xy", [("semi", "e", "x")], [["x", "y"]], "irregular uniblock",
                 id="doublet one semi-edge"),
    pytest.param("xy", [("loop", "e", "x"), ("edge", "e", "x", "y")], [["x"], ["y"]],
                 "undirected normal edges only", id="interblock loop"),
    pytest.param(["x1", "x2", "y"], [("edge", "e", "x1", "x2"), ("edge", "e", "x1", "y")],
                 [["x1", "x2"], ["y"]], "does not cross", id="interblock edge inside a block"),
    pytest.param("axy", [("edge", "e", "a", "x"), ("edge", "e", "a", "x"), ("edge", "e", "a", "y")],
                 [["a"], ["x", "y"]], "hub degrees differ", id="uneven hub bundles"),
    pytest.param(["x1", "x2", "y1", "y2"], [("edge", "e", "x1", "y1")],
                 [["x1", "x2"], ["y1", "y2"]], "outside the WW family", id="lone doublet edge"),
])
def test_recognize_rejects_malformed_block_graphs(vertices, edges, blocks, match):
    with pytest.raises(ShapeError, match=match):
        recognize_shape(_block_graph(vertices, edges), blocks, "e")


def test_recognize_ww():
    g = Graph("ww")
    for v in ("x1", "x2"):
        g.add_vertex(v, "A")
    for v in ("y1", "y2"):
        g.add_vertex(v, "B")
    g.add_edge("edge", "e1", "e", "x1", "y1")
    g.add_edge("edge", "e2", "e", "x1", "y1")
    g.add_edge("edge", "e3", "e", "x2", "y2")
    g.add_edge("edge", "e4", "e", "x2", "y2")
    g.add_edge("edge", "e5", "e", "x1", "y2")
    g.add_edge("edge", "e6", "e", "x2", "y1")
    shape = recognize_shape(g, [["x1", "x2"], ["y1", "y2"]], "e")
    assert shape == SmallShape("WW", (2, 1))


def test_classify_paper_examples():
    assert classify_shape(SmallShape("F", (2, 1))) == HARMFUL
    assert classify_shape(SmallShape("WW", (1, 1))) == HARMLESS
    assert classify_shape(SmallShape("FW", (2,))) == DANGEROUS
    assert classify_shape(SmallShape("F", (2, 0))) == HARMLESS
    assert classify_shape(SmallShape("F", (1, 4))) == HARMLESS
    assert classify_shape(SmallShape("FD", (9,))) == HARMLESS
    assert classify_shape(SmallShape("W", (0, 0, 3, 0, 0))) == HARMLESS
    assert classify_shape(SmallShape("W", (1, 0, 1, 0, 1))) == HARMLESS
    assert classify_shape(SmallShape("W", (1, 0, 2, 0, 1))) == HARMFUL
    assert classify_shape(SmallShape("W", (2, 0, 0, 0, 2))) == HARMLESS
    assert classify_shape(SmallShape("W", (3, 0, 0, 0, 3))) == HARMFUL
    assert classify_shape(SmallShape("WD", (1, 1, 1))) == HARMLESS
    assert classify_shape(SmallShape("WD", (1, 2, 1))) == HARMFUL
    assert classify_shape(SmallShape("WD", (0, 5, 0))) == HARMLESS
    assert classify_shape(SmallShape("WW", (4, 0))) == HARMLESS
    assert classify_shape(SmallShape("WW", (2, 1))) == HARMFUL
    assert classify_shape(SmallShape("FW", (3,))) == HARMFUL
    assert classify_shape(SmallShape("FF", (7,))) == HARMLESS


def test_verdict_f30():
    assert verdict(one_vertex(semis=3)).kind == NP_COMPLETE


def test_verdict_fw2_standalone_polynomial():
    # reduces to a single vertex with two loops of one colour
    assert verdict(fw2_target()).kind == POLYNOMIAL


def test_verdict_k4_unsupported():
    assert verdict(complete_graph(4)).kind == UNSUPPORTED


def test_verdict_trees_paths_cycles():
    from conftest import complete_bipartite, path

    assert verdict(complete_bipartite(1, 3)).kind == POLYNOMIAL
    assert verdict(cycle(7)).kind == POLYNOMIAL
    assert verdict(path(4, semis=(True, True))).kind == POLYNOMIAL


def test_verdict_plain_tadpole_reduces_to_a_cycle():
    # a triangle with a pendant path: neither a tree nor of maximum degree
    # 2, but the reduction folds the tail away
    h = cycle(3, name="tadpole")
    for i, prev in enumerate(["v0", "t0"]):
        h.add_vertex(f"t{i}", "n")
        h.add_edge("edge", f"te{i}", "e", prev, f"t{i}")
    v = verdict(h)
    assert (v.kind, v.reason) == (POLYNOMIAL, "reduced target is a path or cycle")


def test_verdict_harmless_host():
    h = two_vertex_w(0, 0, 2, 0, 0)
    assert verdict(h).kind == POLYNOMIAL
    assert verdict(fw_target(3)).kind == NP_COMPLETE
    assert verdict(wd_target(2, 1)).kind == NP_COMPLETE
    assert verdict(wd_target(1, 1)).kind == POLYNOMIAL


def test_verdict_dangerous_needs_mindegree():
    # the dangerous bundle graph embedded with all degrees above 2 is hard
    from coverkit.gadgets import gadget_target

    v = verdict(gadget_target("dk", 1))
    assert v.kind == NP_COMPLETE
    assert v.witness is not None and v.witness.shape == SmallShape("FW", (2,))


def test_verdict_rejects_disconnected():
    from conftest import disjoint_union
    from coverkit import GraphError

    with pytest.raises(GraphError):
        verdict(disjoint_union(cycle(3), cycle(3)))


def test_verdict_relabel_invariant():
    from coverkit.gadgets import gadget_target

    h = gadget_target("ck", 1)
    ren = {v: f"zz{i}" for i, v in enumerate(h.vertices())}
    h2 = Graph("perm")
    for v in reversed(h.vertices()):
        h2.add_vertex(ren[v], h.vertex_colour(v))
    for e in h.edges():
        h2.add_edge(e.kind, e.id, e.colour, *[ren[w] for w in e.ends])
    assert verdict(h).kind == verdict(h2).kind


def test_classify_total_over_wider_sweep():
    import itertools as it

    for b, c in it.product(range(7), repeat=2):
        assert classify_shape(SmallShape("F", (b, c))) in ("harmless", "harmful")
    for k, m, l, p, q in it.product(range(7), repeat=5):
        if k + 2 * m != q + 2 * p:
            continue
        assert classify_shape(SmallShape("W", (k, m, l, p, q))) in ("harmless", "harmful")
    for m, l in it.product(range(7), repeat=2):
        assert classify_shape(SmallShape("WD", (m, l, m))) in ("harmless", "harmful")


@pytest.mark.parametrize("tails", [(5000,), (2500, 2500)], ids=["tadpole", "broom"])
def test_verdict_deep_pending_trees(tails):
    # pending trees deeper than the recursion limit prune like shallow ones
    v = verdict(looped_triangle_with_tails(*tails))
    assert v.kind == POLYNOMIAL


def test_solver_refuses_exactly_what_the_target_analysis_rules_out():
    # solve_cover reads the target through analyze_target: it must refuse a
    # target exactly when some block has more than two vertices or some
    # block graph is not harmless, naming the first such block graph, and
    # cover every other target by itself with a certificate that verifies
    import random

    from coverkit import UnsupportedTarget, solve_cover, verify_cover
    from conftest import random_multigraph
    from hosts import crossed_ww_host, harmless_hosts

    rng = random.Random(23)
    targets = [h for _, h in harmless_hosts()] + [crossed_ww_host()]
    for _ in range(600):
        colours = ("e", "f")[:rng.randrange(1, 3)]
        targets.append(random_multigraph(rng.randrange(1, 9), rng.randrange(0, 6), rng.randrange(10**6),
                                         colours=colours, allow_arc=rng.random() < 0.4))
    seen = set()
    for h in targets:
        _, _, hn, classified = analyze_target(h)
        culprits = [(bg, cls) for bg, cls in classified if cls != HARMLESS]
        if hn is None:
            seen.add("oversized")
            with pytest.raises(UnsupportedTarget, match="block of more than 2 vertices"):
                solve_cover(h, h)
        elif culprits:
            bg, cls = culprits[0]
            seen.add(cls)
            with pytest.raises(UnsupportedTarget) as exc:
                solve_cover(h, h)
            assert f"a {cls} block graph {bg.shape} " in str(exc.value), h.name
        else:
            seen.add(HARMLESS)
            res = solve_cover(h, h)
            assert res.yes, h.name
            assert verify_cover(h, h, res.projection).ok, h.name
    assert seen == {"oversized", DANGEROUS, HARMFUL, HARMLESS}
