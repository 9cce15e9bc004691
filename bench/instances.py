"""Seeded inputs for the coverkit benchmark.

The harmless host catalogue, the random-lift generator, the chain
targets and the planted non-covers live here rather than in the test
suite, so that editing a test cannot change what the benchmark measures.
Every generator takes a ``random.Random`` and nothing else random, so a
workload seed fixes the inputs.
"""

from __future__ import annotations

import random

from coverkit.graphs import Graph


def _build(name: str, vertices, edges) -> Graph:
    g = Graph(name)
    for v, colour in vertices:
        g.add_vertex(v, colour)
    for kind, eid, colour, *ends in edges:
        g.add_edge(kind, eid, colour, *ends)
    return g


# the harmless host catalogue ------------------------------------------------
#
# Every block has its own vertex colour, so the colour classes are the
# degree partition outright and refinement takes a single round.  Shapes
# whose doublet is disconnected get a hub joined to both doublet vertices
# in a fresh colour (the harmless FW(1) connector).


def _single(name, semis=0, loops=0, dloops=0) -> Graph:
    edges = [("semi", f"s{i}", "e", "x") for i in range(semis)]
    edges += [("loop", f"l{i}", "e", "x") for i in range(loops)]
    edges += [("dloop", f"d{i}", "d", "x") for i in range(dloops)]
    return _build(name, [("x", "Q")], edges)


def _doublet_edges(k, m, l, p, q):
    edges = [("semi", f"sx{i}", "e", "x") for i in range(k)]
    edges += [("semi", f"sy{i}", "e", "y") for i in range(q)]
    edges += [("loop", f"lx{i}", "e", "x") for i in range(m)]
    edges += [("loop", f"ly{i}", "e", "y") for i in range(p)]
    edges += [("edge", f"c{i}", "e", "x", "y") for i in range(l)]
    return edges


def _wd_edges(m, l):
    edges = []
    for i in range(m):
        edges += [("dloop", f"lx{i}", "d", "x"), ("dloop", f"ly{i}", "d", "y")]
    for i in range(l):
        edges += [("arc", f"f{i}", "d", "x", "y"), ("arc", f"b{i}", "d", "y", "x")]
    return edges


_HUB_EDGES = [("edge", "hx", "f", "hub", "x"), ("edge", "hy", "f", "hub", "y")]
_PAIR = [("x", "Q"), ("y", "Q")]
_HUB_PAIR = [("hub", "H")] + _PAIR
_TWO_PAIRS = [("x1", "A"), ("x2", "A"), ("y1", "B"), ("y2", "B")]


def harmless_hosts() -> list[tuple[str, Graph]]:
    """Every harmless one- and two-block shape with parameters up to 2."""
    hosts = [("F(1,0)", _single("f10", semis=1)), ("F(2,0)", _single("f20", semis=2))]
    for c in (1, 2):
        hosts += [
            (f"F(1,{c})", _single(f"f1{c}", semis=1, loops=c)),
            (f"F(0,{c})", _single(f"f0{c}", loops=c)),
            (f"FD({c})", _single(f"fd{c}", dloops=c)),
        ]
    for c in (1, 2):
        hosts.append((f"W(0,0,{c},0,0)", _build(f"w00{c}", _PAIR, _doublet_edges(0, 0, c, 0, 0))))
    hosts.append(("W(1,0,1,0,1)", _build("w10101", _PAIR, _doublet_edges(1, 0, 1, 0, 1))))
    for c in (1, 2):
        hosts.append((f"WD(0,{c},0)", _build(f"wd0{c}", _PAIR, _wd_edges(0, c))))
    hosts.append(("WD(1,1,1)", _build("wd11", _PAIR, _wd_edges(1, 1))))

    hubbed = [("W(2,0,0,0,2)", "w20002", (2, 0, 0, 0, 2)), ("W(2,0,0,1,0)", "w20010", (2, 0, 0, 1, 0))]
    hubbed += [(f"W(1,{c},0,{c},1)", f"w1{c}", (1, c, 0, c, 1)) for c in (0, 1, 2)]
    hubbed += [(f"W(0,{c},0,{c},0)", f"w0{c}", (0, c, 0, c, 0)) for c in (1, 2)]
    for label, name, params in hubbed:
        hosts.append((f"{label}+hub", _build(name, _HUB_PAIR, _doublet_edges(*params) + _HUB_EDGES)))
    for c in (1, 2):
        hosts.append((f"WD({c},0,{c})+hub", _build(f"wdc{c}", _HUB_PAIR, _wd_edges(c, 0) + _HUB_EDGES)))

    for c in (1, 2):
        ff = [("edge", f"c{i}", "e", "x", "y") for i in range(c)]
        hosts.append((f"FF({c})", _build(f"ff{c}", [("x", "A"), ("y", "B")], ff)))
    hosts.append(("FW(1)", _build("fw1", [("hub", "H"), ("x", "Q"), ("y", "Q")],
                                  [("edge", "hx", "e", "hub", "x"), ("edge", "hy", "e", "hub", "y")])))
    ww11 = [("edge", "e1", "e", "x1", "y1"), ("edge", "e2", "e", "x2", "y2"),
            ("edge", "e3", "e", "x1", "y2"), ("edge", "e4", "e", "x2", "y1")]
    hosts.append(("WW(1,1)", _build("ww11", _TWO_PAIRS, ww11)))
    for c in (1, 2):
        bundles = []
        for i in range(c):
            bundles += [("edge", f"p{i}", "e", "x1", "y1"), ("edge", f"q{i}", "e", "x2", "y2")]
        # one-edge colours inside each doublet keep the target connected
        bridges = [("edge", "bx", "f", "x1", "x2"), ("edge", "by", "g", "y1", "y2")]
        hosts.append((f"WW({c},0)+bridges", _build(f"ww{c}0", _TWO_PAIRS, bundles + bridges)))
    combo = [("edge", "hx", "e", "hub", "x"), ("edge", "hy", "e", "hub", "y"),
             ("edge", "xy", "f", "x", "y"), ("edge", "hz1", "g", "hub", "z"), ("loop", "zl", "h", "z")]
    hosts.append(("FW(1)+W(0,0,1,0,0)+FF(1)+F(0,1)",
                  _build("combo3", [("hub", "H"), ("x", "Q"), ("y", "Q"), ("z", "Z")], combo)))
    return hosts


# planted non-covers ------------------------------------------------------------
#
# A small graph with the host's refinement matrix that cannot cover it.
# Joined disjointly to a lift it leaves the matrix unchanged, so the
# solver has to get past the matrix test before it can say "no".  The
# benchmark takes the expected answer from the oracle on the small graph
# alone, never from these comments.

PLANTED = {
    # three semi-edges where the target has one
    "F(1,1)": _build("s", [("x", "Q")], [("semi", f"s{i}", "e", "x") for i in range(3)]),
    "F(1,2)": _build("s", [("x", "Q")], [("semi", f"s{i}", "e", "x") for i in range(3)]
                     + [("loop", "l0", "e", "x")]),
    # a double edge: both darts would need the single crossing edge
    "W(1,0,1,0,1)": _build("s", _PAIR, [("edge", "c0", "e", "x", "y"), ("edge", "c1", "e", "x", "y")]),
    # loops are odd cycles, which the semi-edge doublet cannot take
    "W(2,0,0,0,2)+hub": _build("s", _HUB_PAIR, [("loop", "lx", "e", "x"), ("loop", "ly", "e", "y")]
                               + _HUB_EDGES),
    # a 6-cycle has no 4-fold structure over the 4-cycle K(2,2)
    "WW(1,1)": _build("s", [("a0", "A"), ("a1", "A"), ("a2", "A"), ("b0", "B"), ("b1", "B"), ("b2", "B")],
                      [("edge", f"e{i}", "e", f"a{i}", f"b{i}") for i in range(3)]
                      + [("edge", f"f{i}", "e", f"b{i}", f"a{(i + 1) % 3}") for i in range(3)]),
}


# random lifts -------------------------------------------------------------------


def random_lift(h: Graph, r: int, rng: random.Random, extra: Graph | None = None) -> Graph:
    """A random r-fold cover of ``h``, optionally joined disjointly to ``extra``.

    Each normal edge or arc lifts to a random perfect matching between the
    two fibres, each loop or directed loop to a random permutation of its
    fibre (fixed points stay loops), and each semi-edge to a random
    involution that fixes a quarter of the fibre.  Vertex and edge ids and
    their order are shuffled so that nothing in a name reveals a fibre.
    """
    colour = {x: h.vertex_colour(x) for x in h.vertices()}
    order = [(x, i) for x in h.vertices() for i in range(r)]
    if extra is not None:
        colour.update({("extra", v): extra.vertex_colour(v) for v in extra.vertices()})
        order += [(("extra", v), 0) for v in extra.vertices()]
    rng.shuffle(order)
    name = {key: f"v{k}" for k, key in enumerate(order)}

    edges: list[tuple] = []
    for e in h.edges():
        x = e.ends[0]
        perm = list(range(r))
        rng.shuffle(perm)
        if e.kind in ("edge", "arc"):
            y = e.ends[1]
            edges += [(e.kind, e.colour, name[x, i], name[y, perm[i]]) for i in range(r)]
        elif e.kind in ("loop", "dloop"):
            normal = "edge" if e.kind == "loop" else "arc"
            for i in range(r):
                if perm[i] == i:
                    edges.append((e.kind, e.colour, name[x, i]))
                else:
                    edges.append((normal, e.colour, name[x, i], name[x, perm[i]]))
        else:
            paired = 2 * ((3 * r) // 8)
            for a, b in zip(perm[0:paired:2], perm[1:paired:2]):
                edges.append(("edge", e.colour, name[x, a], name[x, b]))
            edges += [("semi", e.colour, name[x, i]) for i in perm[paired:]]
    if extra is not None:
        for e in extra.edges():
            edges.append((e.kind, e.colour, *(name[("extra", w), 0] for w in e.ends)))
    rng.shuffle(edges)

    g = Graph(f"lift{r}-{h.name}")
    for key in order:
        g.add_vertex(name[key], colour[key[0]])
    for k, (kind, c, *ends) in enumerate(edges):
        g.add_edge(kind, f"e{k}", c, *ends)
    return g


# chain targets --------------------------------------------------------------------
#
# One vertex colour and one edge colour: the degree partition has to
# discover the blocks by refinement, which takes about half the chain
# length in rounds.  The symmetry through the attachment vertex keeps
# every block at most two vertices, and every block graph is harmless.


def _chain(name: str, n: int, links) -> Graph:
    return _build(name, [(f"u{i}", "n") for i in range(n)],
                  [("edge", f"e{k}", "e", f"u{a}", f"u{b}") for k, (a, b) in enumerate(links)])


def path_target(n: int) -> Graph:
    return _chain(f"path{n}", n, [(i, i + 1) for i in range(n - 1)])


def tadpole_target(cycle: int, tail: int) -> Graph:
    """A cycle with a pendant path hung on vertex 0."""
    links = [(i, (i + 1) % cycle) for i in range(cycle)]
    links += [(0 if i == 0 else cycle + i - 1, cycle + i) for i in range(tail)]
    return _chain(f"tadpole{cycle}.{tail}", cycle + tail, links)


def broom_cycle_target(cycle: int, handle: int) -> Graph:
    """A cycle with a pendant tree on vertex 0: a path ending in two leaves."""
    g = tadpole_target(cycle, handle)
    g.name = f"broom{cycle}.{handle}"
    end = f"u{cycle + handle - 1}"
    for leaf in ("la", "lb"):
        g.add_vertex(leaf, "n")
        g.add_edge("edge", f"e{leaf}", "e", end, leaf)
    return g
