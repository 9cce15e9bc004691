import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from coverkit import (
    Graph,
    GraphError,
    ParseError,
    bipartition,
    classify_component_shape,
    component_shapes,
    components,
    degree,
    is_connected,
    parse_graph,
    project,
    serialize_graph,
)
from coverkit.graphs import Edge, EVEN_CYCLE, ODD_CYCLE, OPEN_PATH, OTHER, UND, IN, OUT, darts, is_tree, vertex_darts

from conftest import (
    assert_same_graph,
    complete_bipartite,
    cycle,
    derived_graph_inputs,
    disjoint_union,
    one_vertex,
    path,
    random_multigraph,
    rebuilt,
)


def test_parse_smallest():
    g = parse_graph("graph g\nvertex 1 black\n")
    assert g.n == 1 and g.m == 0
    assert g.vertex_colour("1") == "black"


def test_parse_f11():
    text = "graph f\nvertex x n\nsemi s e x\nloop l e x\n"
    g = parse_graph(text)
    assert g.n == 1 and g.m == 2
    kinds = sorted(e.kind for e in g.edges())
    assert kinds == ["loop", "semi"]


def test_parse_arc_self_loop_rejected():
    text = "graph g\nvertex 1 n\narc e1 red 1 1\n"
    with pytest.raises(ParseError, match="dloop"):
        parse_graph(text)


def test_parse_errors():
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("graph g\nvertex 1 n\nedge e x 1 2\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph("graph g\nvertex 1 n\nvertex 1 n\n")
    with pytest.raises(ParseError):
        parse_graph("graph g\nvertex 1 n\nwobble\n")
    # colour discipline: directed and undirected colours must differ
    with pytest.raises(ParseError, match="disjoint"):
        parse_graph("graph g\nvertex 1 n\nvertex 2 n\nedge a c 1 2\narc b c 1 2\n")


def test_edge_is_a_value():
    from coverkit.graphs import Edge

    a = Edge("e1", "edge", "c", ("u", "v"))
    b = Edge("e1", "edge", "c", ("u", "v"))
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: 1}[b] == 1 and len({a, b}) == 1
    for other in (Edge("e2", "edge", "c", ("u", "v")), Edge("e1", "arc", "c", ("u", "v")),
                  Edge("e1", "edge", "d", ("u", "v")), Edge("e1", "edge", "c", ("v", "u"))):
        assert a != other
    assert a != ("e1", "edge", "c", ("u", "v")) and ("e1", "edge", "c", ("u", "v")) != a
    assert a.u == a.tail == "u" and a.v == a.head == "v" and not a.directed
    s = Edge("s", "semi", "c", ("u",))
    assert s.u == s.v == "u"
    assert Edge("d", "dloop", "c", ("u",)).directed
    assert repr(a) == "Edge(id='e1', kind='edge', colour='c', ends=('u', 'v'))"
    g = parse_graph("graph g\nvertex u n\nvertex v n\nedge e1 c u v\n")
    # a graph builds a new Edge each time it is asked, equal to the last
    assert g.edge("e1") == a and g.edge("e1") is not g.edge("e1") and list(g.edges()) == [a]
    assert darts(g, "u") == [(0, UND, "v", 1)] and g.columns()[0][0] == "e1"


@pytest.mark.parametrize("build,match", [
    (lambda g: g.add_vertex("a", "n"), "duplicate vertex id 'a'"),
    (lambda g: g.add_edge("edge", "e", "c", "a", "b"), "duplicate edge id 'e'"),
    (lambda g: g.add_edge("wire", "f", "c", "a", "b"), "unknown edge kind 'wire'"),
    (lambda g: g.add_edge("edge", "f", "c", "a"), "edge needs two endpoints"),
    (lambda g: g.add_edge("edge", "f", "c", "a", "a"), r"edge 'f' must join two distinct vertices \(use loop\)"),
    (lambda g: g.add_edge("arc", "f", "d", "a", "a"), r"directed loop must use dloop"),
    (lambda g: g.add_edge("loop", "f", "c", "a", "b"), "loop has a single endpoint"),
    (lambda g: g.add_edge("edge", "f", "c", "a", "z"), "edge 'f' references unknown vertex 'z'"),
    (lambda g: g.add_edge("semi", "f", "c", "z"), "edge 'f' references unknown vertex 'z'"),
], ids=["vertex-id", "edge-id", "kind", "one-end", "edge-u-u", "arc-u-u", "loop-two-ends", "unknown-end",
        "unknown-semi-end"])
def test_add_edge_rejections(build, match):
    g = Graph("g")
    g.add_vertex("a", "n")
    g.add_vertex("b", "n")
    g.add_edge("edge", "e", "c", "a", "b")
    before = serialize_graph(g)
    with pytest.raises(GraphError, match=match):
        build(g)
    assert serialize_graph(g) == before


def test_edge_rows_are_checked_before_any_is_inserted():
    g = Graph("g")
    for v in (1, 2):
        g.add_vertex(v, "n")
    # ids, colours and ends that are not strings become strings, and a
    # one-ended kind may name its end twice
    g.add_edge("edge", 7, 0, 1, 2)
    g.add_edge("semi", "s", "c", "1", "1")
    g.add_edge("loop", "l", "c", 2, None)
    e = g.edge("7")
    assert (e.id, e.colour, e.ends) == ("7", "0", ("1", "2")) and g.edge("l").ends == ("2",)
    before = serialize_graph(g)
    # a later row fails: the rows before it are not inserted either, and
    # an id is a duplicate of one earlier in the same rows
    rows = [("edge", "f", "c", "1", "2"), ("loop", "f", "c", "1")]
    with pytest.raises(GraphError, match="duplicate edge id 'f'"):
        g._insert(rows)
    # and an id the graph holds already
    with pytest.raises(GraphError, match="duplicate edge id '7'"):
        g._insert([("vertex", "3", "n"), ("semi", "7", "c", "3")])
    assert serialize_graph(g) == before and not g.has_edge("f")
    # so does an end that no row names a vertex, found after the last row
    rows = [("vertex", "3", "n"), ("edge", "f", "c", "3", "1"), ("semi", "t", "c", "4")]
    with pytest.raises(GraphError, match="edge 't' references unknown vertex '4'"):
        g._insert(rows)
    assert serialize_graph(g) == before and not g.has_vertex("3") and darts(g, "1") == darts(g.copy(), "1")
    # an edge may come before the vertex rows of its ends, and is filed
    # at them in row order
    g._insert([("edge", "f", "c", "3", "1"), ("vertex", "3", "n"), ("semi", "t", "c", "3")])
    assert [g.columns()[0][k] for k, _, _, _ in darts(g, "3")] == ["f", "t"]


@pytest.mark.parametrize("text,match", [
    ("vertex a n\n", "line 1: vertex before graph directive"),
    ("edge e c a b\ngraph g\nvertex a n\nvertex b n\n", "line 1: edge before graph directive"),
    ("\narc e d a b\ngraph g\nvertex a n\nvertex b n\n", "line 2: arc before graph directive"),
    ("loop l c a\ngraph g\nvertex a n\n", "line 1: loop before graph directive"),
    ("dloop l d a\ngraph g h\nvertex a n\n", "line 1: dloop before graph directive"),
    ("semi s c a\nvertex a n\ngraph g\n", "line 1: semi before graph directive"),
    ("graph g\ngraph h\n", "line 2: duplicate graph directive"),
    ("graph g h\n", "line 1: graph directive takes one name"),
    ("graph g\nvertex a\n", "line 2: vertex <id> <colour>"),
    ("graph g\nvertex a n\nvertex a n\n", "line 3: duplicate vertex id 'a'"),
    ("graph g\nvertex a n\nedge e c a\n", "line 3: edge <id> <colour> <u> <v>"),
    ("graph g\nvertex a n\nsemi s c a a\n", "line 3: semi <id> <colour> <u>"),
    ("graph g\nvertex a n\nvertex b n\nedge e c a b\nloop e c a\n", "line 5: duplicate edge id 'e'"),
    ("graph g\nvertex a n\nedge e c a a\n", "line 3: edge 'e' must join two distinct vertices"),
    ("graph g\nvertex a n\narc e d a a\n", "line 3: .*dloop"),
    ("graph g\nvertex a n\nedge e c a b\n", "line 3: edge 'e' references unknown vertex 'b'"),
    ("graph g\nwobble\n", "line 2: unknown directive 'wobble'"),
    ("# nothing\n", "missing graph directive"),
    ("graph g\nvertex a n\nloop l n a\n", r"vertex and undirected edge colours must be disjoint, shared: \['n'\]"),
    ("graph g\nvertex a d\ndloop l d a\n", r"vertex and directed edge colours must be disjoint, shared: \['d'\]"),
    ("graph g\nvertex a n\nvertex b n\nedge e c a b\narc f c a b\n",
     r"directed and undirected edge colours must be disjoint, shared: \['c'\]"),
], ids=["vertex-first", "edge-first", "arc-first", "loop-first", "dloop-first", "semi-first", "two-graphs",
        "graph-arity", "vertex-arity", "vertex-id", "edge-arity", "semi-arity", "edge-id", "edge-u-u", "arc-u-u",
        "unknown-end", "directive", "no-graph", "vertex-undirected", "vertex-directed", "directed-undirected"])
def test_parse_rejections(text, match):
    with pytest.raises(ParseError, match=match):
        parse_graph(text)


def test_edge_lines_may_come_before_their_vertex_lines():
    g = parse_graph("graph g\nedge e c a b\nloop l c b\nvertex a n\nvertex b n\n")
    assert (g.n, g.m) == (2, 2)
    assert serialize_graph(g) == "graph g\nvertex a n\nvertex b n\nedge e c a b\nloop l c b\n"


@pytest.mark.parametrize("text,line,match", [
    # edge rows are checked after the last line, so a later vertex fault
    # comes first
    ("graph g\nvertex a n\nvertex b n\nedge e c a b\nedge e c a b\nvertex c c\nvertex a n\n",
     7, "duplicate vertex id 'a'"),
    # a vertex fault comes before a later line's fault
    ("graph g\nvertex a n\nvertex a n\nwobble\n", 3, "duplicate vertex id 'a'"),
    ("graph g\nvertex a n\nvertex a n\ngraph h\n", 3, "duplicate vertex id 'a'"),
    ("graph g\nvertex a n\nvertex b n\nvertex\n", 4, "vertex <id> <colour>"),
    # the first of two edge faults, then the colour clash after every row
    ("graph g\nvertex a n\nedge e c a z\nloop e c a\n", 3, "edge 'e' references unknown vertex 'z'"),
    ("graph g\nvertex a n\nvertex b n\narc f c a b\nedge e c a b\n",
     None, r"directed and undirected edge colours must be disjoint, shared: \['c'\]"),
    # an edge line before the graph directive comes before a later fault
    ("semi s c a\nedge e c a\ngraph g\n", 1, "semi before graph directive"),
    ("loop l c a\nwobble\n", 1, "loop before graph directive"),
    ("graph g\nvertex a n\nvertex b n\nedge e c a b\ngraph h\n", 5, "duplicate graph directive"),
], ids=["vertex-after-edges", "vertex-before-directive", "vertex-before-graph", "vertex-then-arity",
        "edge-order", "clash-last", "edge-before-arity", "edge-before-directive", "edge-after-graph"])
def test_parse_reports_the_first_fault(text, line, match):
    with pytest.raises(ParseError, match=match if line is None else f"line {line}: {match}") as info:
        parse_graph(text)
    assert info.value.line == line


def test_parse_comments_tabs_crlf_and_blank_lines():
    plain = "graph g\nvertex a n\nvertex b n\narc f d a b\nsemi s e b\n"
    texts = [
        "graph g # the name\nvertex a n#colour\nvertex b n\narc f d a b   # an arc\nsemi s e b\n",
        "graph\tg\nvertex\ta\tn\n\tvertex b\t n\narc f\td a\tb\nsemi s e b\t\n",
        plain.replace("\n", "\r\n"),
        "\n# a comment line\ngraph g\n\n   \nvertex a n\n  # another\nvertex b n\n\t\narc f d a b\nsemi s e b",
    ]
    for text in texts:
        g = parse_graph(text)
        assert serialize_graph(g) == plain, repr(text)
        assert serialize_graph(parse_graph(serialize_graph(g))) == plain
    # line numbers count every line, blank, comment-only or CRLF-ended
    with pytest.raises(ParseError, match="line 5: unknown directive 'wobble'"):
        parse_graph("graph g\r\n\r\n# note\r\nvertex a n\r\nwobble\r\n")


def test_bulk_vertex_rows_are_checked_before_any_is_inserted():
    g = Graph("g")
    g.add_vertex("a", "n")
    with pytest.raises(GraphError, match="duplicate vertex id 'a'"):
        g._insert([("vertex", "b", "n"), ("vertex", "c", "n"), ("vertex", "a", "m")])
    with pytest.raises(GraphError, match="duplicate vertex id 'b'"):
        g._insert([("vertex", "b", "n"), ("vertex", "b", "m")])
    assert serialize_graph(g) == "graph g\nvertex a n\n"
    g._insert([("vertex", "b", "n"), ("vertex", "c", "m")])
    g.add_edge("edge", "e", "x", "b", "c")
    assert g.vertices() == ["a", "b", "c"] and darts(g, "c") == [(0, UND, "b", 1)]


def test_validate_reports_the_first_namespace_clash():
    g = Graph("g")
    g.add_vertex("a", "x")
    g.add_vertex("b", "y")
    g.add_edge("arc", "f", "x", "a", "b")
    g.add_edge("edge", "e", "y", "a", "b")
    g.add_edge("loop", "l", "x", "a")
    with pytest.raises(GraphError, match=r"vertex and directed edge colours must be disjoint, shared: \['x'\]"):
        g.validate()


def test_roundtrip_identity():
    text = "graph f\nvertex x n\nsemi s1 e x\nsemi s2 e x\n"
    g = parse_graph(text)
    again = parse_graph(serialize_graph(g))
    assert serialize_graph(again) == serialize_graph(g)
    assert sorted(e.id for e in again.edges()) == ["s1", "s2"]


@pytest.mark.parametrize("bad", ["", "a b", "c#d", "#", "tab\there", "line\nbreak", "nb\u00a0sp", "\u2028"])
def test_tokens_that_would_not_read_back_are_refused(bad):
    g = Graph("g")
    g.add_vertex("a", "n")
    g.add_vertex("b", "n")
    before = serialize_graph(g)
    for build in (lambda: g.add_vertex(bad, "n"), lambda: g.add_vertex("c", bad),
                  lambda: g.add_edge("edge", bad, "e", "a", "b"), lambda: g.add_edge("semi", "s", bad, "a")):
        with pytest.raises(GraphError, match="not a token of the text format"):
            build()
    assert serialize_graph(g) == before
    g.name = bad
    with pytest.raises(GraphError, match="not a token of the text format"):
        serialize_graph(g)


def test_graphs_built_through_the_api_read_back():
    # the repro: a name and vertex ids that the text format cannot hold
    g = Graph("my g")
    with pytest.raises(GraphError):
        g.add_vertex("a b", "n")
    with pytest.raises(GraphError):
        serialize_graph(g)
    # punctuation, non-ASCII letters, control characters that are not
    # whitespace and ids that are not strings all read back
    g = Graph("g-1.x")
    for v in ("a.b", "\u00e9t\u00e9", "x\x00y", 7):
        g.add_vertex(v, "n")
    g.add_edge("edge", "e:1", "c/d", "a.b", "7")
    g.add_edge("arc", 2, "d", "\u00e9t\u00e9", "x\x00y")
    g.add_edge("loop", "l", "c/d", "7", "7")
    g.add_edge("semi", "s", "c/d", "a.b")
    g.add_edge("dloop", "dl", "d", "x\x00y")
    again = parse_graph(serialize_graph(g))
    assert_same_graph(again, g)
    assert serialize_graph(again) == serialize_graph(g)


def test_roundtrip_double():
    g = random_multigraph(5, 4, seed=7, allow_arc=True)
    once = serialize_graph(g)
    twice = serialize_graph(parse_graph(once))
    assert once == twice


def test_degree_semi_loop_convention():
    # one semi-edge adds 1, one loop adds 2
    g = one_vertex(semis=1, loops=1)
    assert degree(g, "x", "e") == 3


def test_degree_isolated_and_star():
    g = parse_graph("graph g\nvertex 1 n\n")
    assert degree(g, "1", "e") == 0
    star = complete_bipartite(1, 3)
    assert degree(star, "a0", "e") == 3
    with pytest.raises(GraphError):
        degree(star, "zz", "e")


def test_degree_directed():
    g = Graph("d")
    g.add_vertex("x", "n")
    g.add_vertex("y", "n")
    g.add_edge("arc", "a", "d", "x", "y")
    g.add_edge("dloop", "l", "d", "x")
    assert degree(g, "x", "d", OUT) == 2
    assert degree(g, "x", "d", IN) == 1
    with pytest.raises(GraphError):
        degree(g, "x", "d", UND)


def test_darts_of_every_edge_kind():
    # u has an edge, arcs both ways, a loop, a directed loop and a semi-edge
    g = Graph("kinds")
    for v in ("u", "w", "z"):
        g.add_vertex(v, "n")
    g.add_edge("edge", "e", "a", "u", "w")
    g.add_edge("arc", "out", "d", "u", "w")
    g.add_edge("arc", "in", "d", "z", "u")
    g.add_edge("loop", "l", "a", "u")
    g.add_edge("dloop", "dl", "d", "u")
    g.add_edge("semi", "s", "a", "u")
    ids, kinds, colours, first, last = g.columns()
    got = [(ids[k], d, w, c) for k, d, w, c in darts(g, "u")]
    assert got == [("e", "u", "w", 1), ("out", "o", "w", 1), ("in", "i", "z", 1),
                   ("l", "u", "u", 2), ("dl", "o", "u", 1), ("dl", "i", "u", 1),
                   ("s", "u", "u", 1)]
    assert [(ids[k], d, w, c) for k, d, w, c in darts(g, "w")] == \
        [("e", "u", "u", 1), ("out", "i", "u", 1)]
    assert [(ids[k], d, w, c) for k, d, w, c in darts(g, "z")] == [("in", "o", "u", 1)]
    # every tuple carries a handle that the columns resolve to the edge of
    # its id, the same id, kind, colour and ends that g.edge gives
    for k, _, _, _ in darts(g, "u"):
        e = g.edge(ids[k])
        ends = (first[k],) if first[k] == last[k] else (first[k], last[k])
        assert (e.id, e.kind, e.colour, e.ends) == (ids[k], kinds[k], colours[k], ends)
        assert e == Edge(ids[k], kinds[k], colours[k], ends)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_degree_sum_invariants(seed):
    g = random_multigraph(4, 5, seed=seed, colours=("e", "f"), allow_arc=True)
    for colour in {e.colour for e in g.edges() if not e.directed}:
        total = sum(degree(g, v, colour) for v in g.vertices())
        normal = sum(1 for e in g.edges() if e.colour == colour and e.kind == "edge")
        loops = sum(1 for e in g.edges() if e.colour == colour and e.kind == "loop")
        semis = sum(1 for e in g.edges() if e.colour == colour and e.kind == "semi")
        assert total == 2 * normal + 2 * loops + semis
    for colour in {e.colour for e in g.edges() if e.directed}:
        tot_in = sum(degree(g, v, colour, IN) for v in g.vertices())
        tot_out = sum(degree(g, v, colour, OUT) for v in g.vertices())
        arcs = sum(1 for e in g.edges() if e.colour == colour and e.kind == "arc")
        dloops = sum(1 for e in g.edges() if e.colour == colour and e.kind == "dloop")
        assert tot_in == tot_out == arcs + dloops


def test_project_identities():
    g = random_multigraph(5, 4, seed=3)
    full = project(g, vertices=g.vertices())
    assert serialize_graph(full) == serialize_graph(g)
    full2 = project(g, colours=g.edge_colours())
    assert serialize_graph(full2) == serialize_graph(g)


def test_project_induced_star():
    star = complete_bipartite(1, 3)
    leaves = project(star, vertices=["b0", "b1", "b2"])
    assert leaves.n == 3 and leaves.m == 0
    with pytest.raises(GraphError):
        project(star, vertices=["nope"])


def test_project_colour_filter():
    g = Graph("two")
    g.add_vertex("1", "n")
    g.add_vertex("2", "n")
    g.add_edge("edge", "a", "red", "1", "2")
    g.add_edge("edge", "b", "blue", "1", "2")
    g.add_edge("edge", "c", "blue", "1", "2")
    only = project(g, colours=["blue"])
    assert only.m == 2 and only.n == 2


def test_project_and_copy_equal_checked_rebuilds():
    rng = random.Random(11)
    for label, g in derived_graph_inputs():
        verts = g.vertices()
        colours = sorted(g.edge_colours())
        subsets = [None, verts, rng.sample(verts, len(verts) // 2)]
        for vs in subsets:
            for cs in (None, colours, colours[:1]):
                keep_v = set(verts if vs is None else vs)
                keep_c = set(colours if cs is None else cs)
                want = rebuilt(g.name, [(v, g.vertex_colour(v)) for v in verts if v in keep_v],
                               [e for e in g.edges() if e.colour in keep_c and set(e.ends) <= keep_v])
                assert_same_graph(project(g, vertices=vs, colours=cs), want)
        want = rebuilt(g.name, [(v, g.vertex_colour(v)) for v in verts], g.edges())
        assert_same_graph(g.copy(), want)
        assert_same_graph(g.copy("renamed"), rebuilt("renamed", [(v, g.vertex_colour(v)) for v in verts],
                                                     g.edges()))


def test_components():
    assert len(components(cycle(6))) == 1
    two = disjoint_union(cycle(3), cycle(4))
    assert len(components(two)) == 2
    # semi-edges do not connect
    assert len(components(one_vertex(semis=2))) == 1


def _random_mixed_multigraph(n, m, seed):
    # every edge kind between random ends, so the graph is often disconnected
    rng = random.Random(seed)
    g = Graph(f"mixed{seed}")
    for i in range(n):
        g.add_vertex(f"v{i}", "n")
    for i in range(m):
        kind = rng.choice(("edge", "edge", "arc", "loop", "dloop", "semi")[0 if n > 1 else 3:])
        ends = rng.sample(g.vertices(), 2 if kind in ("edge", "arc") else 1)
        g.add_edge(kind, f"e{i}", "d" if kind in ("arc", "dloop") else "e", *ends)
    return g


def _union_find_components(g):
    parent = {v: v for v in g.vertices()}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges():
        parent[find(e.ends[0])] = find(e.ends[-1])
    comps = {}
    for v in g.vertices():
        comps.setdefault(find(v), []).append(v)
    return sorted(sorted(comp) for comp in comps.values())


@pytest.mark.parametrize("seed", range(30))
def test_components_match_union_find(seed):
    g = _random_mixed_multigraph(1 + seed % 9, seed % 11, seed)
    if seed % 3 == 0:
        g = disjoint_union(g, _random_mixed_multigraph(4, 3, seed + 100))
    expected = _union_find_components(g)
    assert components(g) == expected
    assert is_connected(g) == (len(expected) <= 1)


def test_bipartition():
    assert bipartition(cycle(6)) == {f"v{i}": i % 2 for i in range(6)}
    assert bipartition(cycle(5)) is None
    # a loop or directed loop is an odd cycle; a semi-edge joins nothing
    assert bipartition(one_vertex(loops=1)) is None
    assert bipartition(one_vertex(dloops=1)) is None
    assert bipartition(one_vertex(semis=2)) == {"x": 0}
    # arcs join regardless of direction, and each component starts on side 0
    g = Graph("arcs")
    for v in "abcd":
        g.add_vertex(v, "n")
    g.add_edge("arc", "ab", "d", "a", "b")
    g.add_edge("arc", "cb", "d", "c", "b")
    assert bipartition(g) == {"a": 0, "b": 1, "c": 0, "d": 0}
    g.add_edge("arc", "ca", "d", "c", "a")
    assert bipartition(g) is None


@pytest.mark.parametrize("seed", range(40))
def test_bipartition_against_every_two_colouring(seed):
    # the one 2-colouring with the first vertex of every component on side
    # 0, found by trying them all; loops and directed loops rule out all
    loops = seed % 4 == 0
    parts = [random_multigraph(4, seed % 3, seed, allow_loop=loops, allow_arc=True)]
    if seed % 2:
        parts.append(random_multigraph(3, 1, seed + 100, allow_loop=loops, allow_arc=True))
    g = disjoint_union(*parts)
    verts = g.vertices()
    joined = [(e.ends[0], e.ends[-1]) for e in g.edges() if e.kind != "semi"]
    firsts = [min(comp, key=verts.index) for comp in components(g)]
    valid = []
    for bits in itertools.product((0, 1), repeat=len(verts)):
        side = dict(zip(verts, bits))
        if all(side[v] == 0 for v in firsts) and all(side[a] != side[b] for a, b in joined):
            valid.append(side)
    assert len(valid) <= 1
    assert bipartition(g) == (valid[0] if valid else None)


def test_component_shapes():
    assert classify_component_shape(cycle(5)) == ODD_CYCLE
    assert classify_component_shape(cycle(6)) == EVEN_CYCLE
    assert classify_component_shape(path(3, semis=(True, False))) == OPEN_PATH
    assert classify_component_shape(path(3)) == OPEN_PATH
    # a loop is a cycle of length 1
    assert classify_component_shape(one_vertex(loops=1)) == ODD_CYCLE
    # parallel pair is a cycle of length 2
    g = Graph("pp")
    g.add_vertex("x", "n")
    g.add_vertex("y", "n")
    g.add_edge("edge", "a", "e", "x", "y")
    g.add_edge("edge", "b", "e", "x", "y")
    assert classify_component_shape(g) == EVEN_CYCLE
    # a lone vertex with two semi-edge stubs is an open path
    assert classify_component_shape(one_vertex(semis=2)) == OPEN_PATH
    with pytest.raises(GraphError):
        classify_component_shape(disjoint_union(cycle(3), cycle(3)))


def reference_component_shape(g):
    """The per-component shape rule as it stood before ``component_shapes``,
    applied to one projected component."""
    if g.n == 0:
        raise GraphError("empty graph has no shape")
    if len(components(g)) != 1:
        raise GraphError("component shape needs a connected graph")
    if len(g.edge_colours()) > 1:
        raise GraphError("component shape needs a monochromatic graph")
    if any(e.directed for e in g.edges()):
        raise GraphError("component shape is defined for undirected graphs")
    darts = [vertex_darts(g, v) for v in g.vertices()]
    semis = [sum(t.semis.values()) for t in darts]
    normal = [sum(sum(to.values()) for to in t.ends.values()) - s for t, s in zip(darts, semis)]
    if any(n + s > 2 for n, s in zip(normal, semis)):
        return OTHER
    if all(n == 2 for n in normal) and not any(semis):
        return EVEN_CYCLE if g.m % 2 == 0 else ODD_CYCLE
    if any(n <= 1 for n in normal):
        return OPEN_PATH
    return OTHER


@st.composite
def monochromatic_multigraphs(draw):
    """Disjoint unions of parts, each a path or cycle with optional extra
    edges, loops and semi-edges, or a random multigraph."""
    g = Graph("mono")
    count = [0]

    def add(kind, *ends):
        count[0] += 1
        g.add_edge(kind, f"e{count[0]}", "c", *ends)

    for p in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 7))
        names = [f"p{p}.{i}" for i in range(n)]
        for v in names:
            g.add_vertex(v, "n")
        base = draw(st.sampled_from(("path", "cycle", "none")))
        if base == "path":
            for i in range(n - 1):
                add("edge", names[i], names[i + 1])
        elif base == "cycle" and n == 1:
            add("loop", names[0])
        elif base == "cycle":
            for i in range(n):
                add("edge", names[i], names[(i + 1) % n])
        extras = draw(st.lists(st.tuples(st.sampled_from(("edge", "loop", "semi")),
                                         st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
        for kind, a, b in extras:
            if kind == "edge" and a != b:
                add("edge", names[a], names[b])
            elif kind != "edge":
                add(kind, names[a])
    return g


@settings(max_examples=300, deadline=None)
@given(monochromatic_multigraphs())
def test_component_shapes_match_per_component_reference(g):
    got = component_shapes(g)
    assert [comp for comp, _ in got] == components(g)
    for comp, shape in got:
        sub = project(g, vertices=comp)
        assert shape == reference_component_shape(sub)
        assert classify_component_shape(sub) == shape


def test_component_shapes_errors():
    mixed = path(3)
    mixed.add_edge("edge", "x", "f", "v0", "v2")
    directed = Graph("d")
    directed.add_vertex("a", "n")
    directed.add_vertex("b", "n")
    directed.add_edge("arc", "ab", "d", "a", "b")
    for bad in (mixed, directed):
        with pytest.raises(GraphError):
            component_shapes(bad)
        with pytest.raises(GraphError):
            classify_component_shape(bad)
    with pytest.raises(GraphError):
        classify_component_shape(Graph("empty"))
    assert component_shapes(Graph("empty")) == []
    two = disjoint_union(cycle(3), path(2, semis=(True, True)))
    assert [shape for _, shape in component_shapes(two)] == [ODD_CYCLE, OPEN_PATH]


def test_is_tree_rejects_loops_and_semis_among_n_minus_1_edges():
    looped = path(2)
    looped.add_vertex("w", "n")
    looped.add_edge("loop", "l", "e", "w")
    semi = Graph("semi")
    semi.add_vertex("a", "n")
    semi.add_vertex("b", "n")
    semi.add_edge("semi", "s", "e", "a")
    for g in (looped, semi):
        assert g.m == g.n - 1 and not is_tree(g)
    assert is_tree(path(3))
