"""Shared graph builders for the test suite."""

from __future__ import annotations

import random

from coverkit import Graph


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
