"""Shared graph builders for the test suite."""

from __future__ import annotations

import itertools
import random

from coverkit import Graph, covers
from coverkit.graphs import darts


def searched(g, h, budget):
    """``oracle_cover`` without its parity check: the pre-checks, then the
    search, for tests that follow the search into instances that parity
    refutes before it."""
    pre = covers._pre_checks(g, h)
    return pre if isinstance(pre, covers.OracleResult) else covers._search_cover(g, h, *pre, budget)


# edge maps naive_cover tries before it gives up with BudgetExhausted
NAIVE_NODE_LIMIT = 5_000_000


def naive_cover(g, h):
    """The brute-force reference decider: every colour-preserving vertex
    map and every compatible edge map, filtered by verify_cover.
    Deliberately free of any pruning cleverness; only usable for very
    small graphs."""
    gv = g.vertices()
    domains = []
    for v in gv:
        dom = [x for x in h.vertices() if h.vertex_colour(x) == g.vertex_colour(v)]
        if not dom:
            return None
        domains.append(dom)
    if g.n == 0:
        if h.n == 0:
            return covers.CoveringProjection({}, {})
        return None
    by = covers._h_edge_index(h)
    eids = [e.id for e in g.edges()]
    work = 0
    for combo in itertools.product(*domains):
        fv = dict(zip(gv, combo))
        if len(set(covers.fibre_sizes(h, fv).values())) > 1:
            continue
        cand_lists = []
        ok = True
        for e in g.edges():
            c = covers._candidates_for(e.kind, e.colour, fv[e.u], fv[e.v], by)
            if not c:
                ok = False
                break
            cand_lists.append(c)
        if not ok:
            continue
        for fe_combo in itertools.product(*cand_lists):
            work += 1
            if work > NAIVE_NODE_LIMIT:
                raise covers.BudgetExhausted("naive search too large")
            f = covers.CoveringProjection(fv, dict(zip(eids, fe_combo)))
            if covers.verify_cover(g, h, f).ok:
                return f
    return None


def cycle(n, colour="e", vc="n", name=None):
    g = Graph(name or f"c{n}")
    for i in range(n):
        g.add_vertex(f"v{i}", vc)
    for i in range(n):
        g.add_edge("edge", f"e{i}", colour, f"v{i}", f"v{(i + 1) % n}")
    return g


def path(n, colour="e", vc="n", semis=(False, False)):
    g = Graph(f"p{n}")
    for i in range(n):
        g.add_vertex(f"v{i}", vc)
    for i in range(n - 1):
        g.add_edge("edge", f"e{i}", colour, f"v{i}", f"v{i + 1}")
    if semis[0]:
        g.add_edge("semi", "sl", colour, "v0")
    if semis[1]:
        g.add_edge("semi", "sr", colour, f"v{n - 1}")
    return g


def one_vertex(semis=0, loops=0, dloops=0, colour="e", dcolour="d", vc="n", name=None):
    g = Graph(name or "f")
    g.add_vertex("x", vc)
    for i in range(semis):
        g.add_edge("semi", f"s{i}", colour, "x")
    for i in range(loops):
        g.add_edge("loop", f"l{i}", colour, "x")
    for i in range(dloops):
        g.add_edge("dloop", f"dl{i}", dcolour, "x")
    return g


def two_vertex_w(k, m, l, p, q, colour="e", vc="n"):
    """Doublet block graph: k/q semi-edges and m/p loops on the two
    vertices, l parallel edges between them."""
    g = Graph(f"w{k}{m}{l}{p}{q}")
    g.add_vertex("x", vc)
    g.add_vertex("y", vc)
    for i in range(k):
        g.add_edge("semi", f"sx{i}", colour, "x")
    for i in range(q):
        g.add_edge("semi", f"sy{i}", colour, "y")
    for i in range(m):
        g.add_edge("loop", f"lx{i}", colour, "x")
    for i in range(p):
        g.add_edge("loop", f"ly{i}", colour, "y")
    for i in range(l):
        g.add_edge("edge", f"c{i}", colour, "x", "y")
    return g


def two_vertex_wd(m, l, colour="d", vc="n"):
    g = Graph(f"wd{m}{l}")
    g.add_vertex("x", vc)
    g.add_vertex("y", vc)
    for i in range(m):
        g.add_edge("dloop", f"lx{i}", colour, "x")
        g.add_edge("dloop", f"ly{i}", colour, "y")
    for i in range(l):
        g.add_edge("arc", f"f{i}", colour, "x", "y")
        g.add_edge("arc", f"b{i}", colour, "y", "x")
    return g


def looped_triangle_with_tails(*tails, colour="e", vc="n"):
    """A triangle with a loop at ``v0``, plus one pendant path at ``v0`` per
    entry of ``tails``, of that many vertices."""
    g = cycle(3, colour, vc, name="tails")
    g.add_edge("loop", "la", colour, "v0")
    for t, length in enumerate(tails):
        prev = "v0"
        for i in range(length):
            g.add_vertex(f"t{t}.{i}", vc)
            g.add_edge("edge", f"q{t}.{i}", colour, prev, f"t{t}.{i}")
            prev = f"t{t}.{i}"
    return g


def complete_graph(n, colour="e", vc="n"):
    g = Graph(f"k{n}")
    for i in range(n):
        g.add_vertex(f"v{i}", vc)
    eid = 0
    for i in range(n):
        for j in range(i + 1, n):
            eid += 1
            g.add_edge("edge", f"e{eid}", colour, f"v{i}", f"v{j}")
    return g


def complete_bipartite(a, b, colour="e", vc="n"):
    g = Graph(f"k{a},{b}")
    for i in range(a):
        g.add_vertex(f"a{i}", vc)
    for j in range(b):
        g.add_vertex(f"b{j}", vc)
    eid = 0
    for i in range(a):
        for j in range(b):
            eid += 1
            g.add_edge("edge", f"e{eid}", colour, f"a{i}", f"b{j}")
    return g


def disjoint_union(*graphs, name="union"):
    g = Graph(name)
    for idx, part in enumerate(graphs):
        for v in part.vertices():
            g.add_vertex(f"{idx}.{v}", part.vertex_colour(v))
        for e in part.edges():
            g.add_edge(e.kind, f"{idx}.{e.id}", e.colour, *[f"{idx}.{w}" for w in e.ends])
    return g


def petersen():
    g = Graph("petersen")
    for i in range(10):
        g.add_vertex(f"v{i}", "n")
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    for n, (i, j) in enumerate(outer + spokes + inner):
        g.add_edge("edge", f"e{n}", "e", f"v{i}", f"v{j}")
    return g


def random_multigraph(n, extra_edges, seed, colours=("e",), vc="n", allow_semi=True,
                      allow_loop=True, allow_arc=False, dcolours=("d",)):
    """A connected random multigraph that is not a tree."""
    rng = random.Random(seed)
    g = Graph(f"rnd{seed}")
    for i in range(n):
        g.add_vertex(f"v{i}", vc)
    eid = 0
    verts = g.vertices()
    for i in range(1, n):
        eid += 1
        g.add_edge("edge", f"e{eid}", rng.choice(colours), f"v{rng.randrange(i)}", f"v{i}")
    kinds = ["edge", "edge"] if n >= 2 else []
    if allow_semi:
        kinds.append("semi")
    if allow_loop:
        kinds.append("loop")
    if allow_arc and n >= 2:
        kinds.append("arc")
    if not kinds:
        kinds = ["loop"]
    made_extra = False
    for _ in range(extra_edges):
        kind = rng.choice(kinds)
        eid += 1
        if kind == "edge":
            u, v = rng.sample(verts, 2)
            g.add_edge("edge", f"e{eid}", rng.choice(colours), u, v)
        elif kind == "arc":
            u, v = rng.sample(verts, 2)
            g.add_edge("arc", f"e{eid}", rng.choice(dcolours), u, v)
        elif kind == "semi":
            g.add_edge("semi", f"e{eid}", rng.choice(colours), rng.choice(verts))
        else:
            g.add_edge("loop", f"e{eid}", rng.choice(colours), rng.choice(verts))
        made_extra = True
    if not made_extra or n == 1:
        eid += 1
        g.add_edge("loop", f"e{eid}", colours[0], verts[0])
    return g


def assert_odd_cycle(conflict, clauses):
    """``conflict`` is a closed walk of parity constraints (a, b, a != b),
    each one written in ``clauses`` (True is the constant of a unit), whose
    parities sum to odd: a witness that the constraints have no solution."""
    assert conflict
    starts = [a for a, _, _ in conflict]
    assert [b for _, b, _ in conflict] == starts[1:] + starts[:1]
    emitted = set(clauses)
    for a, b, odd in conflict:
        if a is True:
            a, b = b, a
        if b is True:
            assert ((a, not odd), (a, not odd)) in emitted
        else:
            assert any({((u, True), (v, odd)), ((u, False), (v, not odd))} <= emitted
                       for u, v in ((a, b), (b, a)))
    assert sum(odd for _, _, odd in conflict) % 2 == 1


def arc_beside_dotted_edge(arcs_first=True):
    """A target with an interblock arc of colour ``a`` beside an edge of
    colour ``a.f`` between the same two blocks, and its 2-fold lift with
    the arc lines listed before or after the edge lines."""
    h = Graph("h")
    h.add_vertex("x", "X")
    h.add_vertex("y", "Y")
    h.add_edge("arc", "a", "a", "x", "y")
    h.add_edge("edge", "b", "a.f", "x", "y")
    g = Graph("g")
    for v, c in (("x1", "X"), ("x2", "X"), ("y1", "Y"), ("y2", "Y")):
        g.add_vertex(v, c)
    arcs = [("arc", "a1", "a", "x1", "y1"), ("arc", "a2", "a", "x2", "y2")]
    edges = [("edge", "b1", "a.f", "x1", "y1"), ("edge", "b2", "a.f", "x2", "y2")]
    for line in arcs + edges if arcs_first else edges + arcs:
        g.add_edge(*line)
    return g, h


def derived_graph_inputs():
    """(label, graph) pairs to derive graphs from: every harmless host,
    two seeded random lifts and a refinement-compatible random input of
    each, random multigraphs with arcs, and the arc beside a dotted edge."""
    from hosts import harmless_hosts, random_compatible_input
    from test_covers import random_lift

    for name, h in harmless_hosts():
        yield name, h
        for seed in (0, 1):
            yield f"{name} lift {seed}", random_lift(h, 3, random.Random(seed))
        yield f"{name} random", random_compatible_input(h, 2, seed=7)
    for seed in range(4):
        yield f"multigraph {seed}", random_multigraph(8, 10, seed, colours=("e", "f"), allow_arc=True)
    for arcs_first in (True, False):
        g, h = arc_beside_dotted_edge(arcs_first)
        yield f"arc beside dotted edge {arcs_first}", g
    yield "arc beside dotted edge target", h


def rebuilt(name, vertices, edges):
    """A graph built through the checked path: ``add_vertex`` for each
    (id, colour) and ``add_edge`` for each edge, in the order given."""
    g = Graph(name)
    for v, colour in vertices:
        g.add_vertex(v, colour)
    for e in edges:
        g.add_edge(e.kind, e.id, e.colour, *e.ends)
    return g


def assert_same_graph(got, want):
    """Same name, vertex order and colours, edge order and fields, and
    incidence order at every vertex."""
    assert got.name == want.name
    assert [(v, got.vertex_colour(v)) for v in got.vertices()] == \
        [(v, want.vertex_colour(v)) for v in want.vertices()]
    assert list(got.edges()) == list(want.edges())
    for v in want.vertices():
        assert darts(got, v) == darts(want, v), v
