"""Harmless target hosts and refinement-compatible random inputs.

Hosts are connected targets with blocks of at most two vertices whose
block graphs are all harmless; disconnected doublet shapes are embedded
by wiring a fresh-colour connector (a degree-2 hub or a single crossing
edge) that is itself harmless.  Block membership is pinned by giving
every block its own vertex colour, which also makes the colour classes
the degree partition outright.
"""

from __future__ import annotations

import random

from coverkit import Graph
from coverkit.graphs import IN, OUT, UND


def _doublet(name, k, m, l, p, q, colour="e", vc="Q"):
    g = Graph(name)
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


def _wd(name, m, l, colour="d", vc="Q"):
    g = Graph(name)
    g.add_vertex("x", vc)
    g.add_vertex("y", vc)
    for i in range(m):
        g.add_edge("dloop", f"lx{i}", colour, "x")
        g.add_edge("dloop", f"ly{i}", colour, "y")
    for i in range(l):
        g.add_edge("arc", f"f{i}", colour, "x", "y")
        g.add_edge("arc", f"b{i}", colour, "y", "x")
    return g


def _with_hub(g):
    """Attach a fresh singleton hub by a degree-2 bundle colour (the
    harmless one-bundle hub shape) to connect a disconnected doublet."""
    g.add_vertex("hub", "H")
    g.add_edge("edge", "hx", "f", "hub", "x")
    g.add_edge("edge", "hy", "f", "hub", "y")
    return g


def harmless_hosts(max_param: int = 2) -> list[tuple[str, Graph]]:
    hosts: list[tuple[str, Graph]] = []

    def single(name, semis=0, loops=0, dloops=0):
        g = Graph(name)
        g.add_vertex("x", "Q")
        for i in range(semis):
            g.add_edge("semi", f"s{i}", "e", "x")
        for i in range(loops):
            g.add_edge("loop", f"l{i}", "e", "x")
        for i in range(dloops):
            g.add_edge("dloop", f"d{i}", "d", "x")
        return g

    hosts.append(("F(1,0)", single("f10", semis=1)))
    hosts.append(("F(2,0)", single("f20", semis=2)))
    for c in range(1, max_param + 1):
        hosts.append((f"F(1,{c})", single(f"f1{c}", semis=1, loops=c)))
        hosts.append((f"F(0,{c})", single(f"f0{c}", loops=c)))
        hosts.append((f"FD({c})", single(f"fd{c}", dloops=c)))

    for c in range(1, max_param + 1):
        hosts.append((f"W(0,0,{c},0,0)", _doublet(f"w00{c}", 0, 0, c, 0, 0)))
    hosts.append(("W(1,0,1,0,1)", _doublet("w10101", 1, 0, 1, 0, 1)))
    for c in range(1, max_param + 1):
        hosts.append((f"WD(0,{c},0)", _wd(f"wd0{c}", 0, c)))
    hosts.append(("WD(1,1,1)", _wd("wd11", 1, 1)))

    hosts.append(("W(2,0,0,0,2)+hub", _with_hub(_doublet("w20002", 2, 0, 0, 0, 2))))
    hosts.append(("W(2,0,0,1,0)+hub", _with_hub(_doublet("w20010", 2, 0, 0, 1, 0))))
    for c in range(0, max_param + 1):
        hosts.append((f"W(1,{c},0,{c},1)+hub", _with_hub(_doublet(f"w1{c}", 1, c, 0, c, 1))))
    for c in range(1, max_param + 1):
        hosts.append((f"W(0,{c},0,{c},0)+hub", _with_hub(_doublet(f"w0{c}", 0, c, 0, c, 0))))
        hosts.append((f"WD({c},0,{c})+hub", _with_hub(_wd(f"wdc{c}", c, 0))))

    for c in range(1, max_param + 1):
        g = Graph(f"ff{c}")
        g.add_vertex("x", "A")
        g.add_vertex("y", "B")
        for i in range(c):
            g.add_edge("edge", f"c{i}", "e", "x", "y")
        hosts.append((f"FF({c})", g))

    g = Graph("fw1")
    g.add_vertex("hub", "H")
    g.add_vertex("x", "Q")
    g.add_vertex("y", "Q")
    g.add_edge("edge", "hx", "e", "hub", "x")
    g.add_edge("edge", "hy", "e", "hub", "y")
    hosts.append(("FW(1)", g))

    g = Graph("ww11")
    for v in ("x1", "x2"):
        g.add_vertex(v, "A")
    for v in ("y1", "y2"):
        g.add_vertex(v, "B")
    g.add_edge("edge", "e1", "e", "x1", "y1")
    g.add_edge("edge", "e2", "e", "x2", "y2")
    g.add_edge("edge", "e3", "e", "x1", "y2")
    g.add_edge("edge", "e4", "e", "x2", "y1")
    hosts.append(("WW(1,1)", g))

    for c in range(1, max_param + 1):
        g = Graph(f"ww{c}0")
        for v in ("x1", "x2"):
            g.add_vertex(v, "A")
        for v in ("y1", "y2"):
            g.add_vertex(v, "B")
        n = 0
        for i in range(c):
            n += 1
            g.add_edge("edge", f"p{n}", "e", "x1", "y1")
            g.add_edge("edge", f"q{n}", "e", "x2", "y2")
        # connect the two bundles inside each block with a harmless one-edge colour
        g.add_edge("edge", "bx", "f", "x1", "x2")
        g.add_edge("edge", "by", "g", "y1", "y2")
        hosts.append((f"WW({c},0)+bridges", g))

    # a three-block combo: hub bundle, crossing doublet edge, and loops
    g = Graph("combo3")
    g.add_vertex("hub", "H")
    for v in ("x", "y"):
        g.add_vertex(v, "Q")
    for v in ("z",):
        g.add_vertex(v, "Z")
    g.add_edge("edge", "hx", "e", "hub", "x")
    g.add_edge("edge", "hy", "e", "hub", "y")
    g.add_edge("edge", "xy", "f", "x", "y")
    g.add_edge("edge", "hz1", "g", "hub", "z")
    g.add_edge("loop", "zl", "h", "z")
    hosts.append(("FW(1)+W(0,0,1,0,0)+FF(1)+F(0,1)", g))
    return hosts


def random_compatible_input(h: Graph, r: int, seed: int) -> Graph:
    """A random multigraph whose degree partition and refinement matrix
    equal the target's.

    Vertices copy the target's block colours (r per target vertex) and
    per-colour dart counts are reproduced exactly; the structure within
    each budget (how many semi-edges, loops, how stubs pair up) is drawn
    by a configuration model, so both covering and non-covering inputs
    come out.  Requires every target block to have its own vertex colour,
    which the hosts in this module guarantee.
    """
    rng = random.Random(seed)
    g = Graph(f"rnd-{h.name}-{seed}")
    members: dict[str, list[str]] = {}
    for x in h.vertices():
        col = h.vertex_colour(x)
        for i in range(r):
            u = f"{col}.{len(members.get(col, [])) + 1}"
            members.setdefault(col, []).append(u)
            g.add_vertex(u, col)
    eid = [0]

    def fresh():
        eid[0] += 1
        return f"e{eid[0]}"

    for colour in sorted(h.edge_colours()):
        edges = [e for e in h.edges() if e.colour == colour]
        directed = any(e.directed for e in edges)
        cols_touched = sorted({h.vertex_colour(w) for e in edges for w in e.ends})
        if len(cols_touched) == 1:
            col = cols_touched[0]
            block = [x for x in h.vertices() if h.vertex_colour(x) == col]
            x0 = block[0]
            if not directed:
                total = sum(1 for e in edges if e.kind == "edge" and x0 in e.ends)
                total += 2 * sum(1 for e in edges if e.kind == "loop" and e.u == x0)
                total += sum(1 for e in edges if e.kind == "semi" and e.u == x0)
                s_max = max(sum(1 for e in edges if e.kind == "semi" and e.u == x) for x in block)
                l_max = max(sum(1 for e in edges if e.kind == "loop" and e.u == x) for x in block)
                stubs: list[str] = []
                verts = members[col]
                for idx, u in enumerate(verts):
                    if idx < len(verts) - 1:
                        t_cap = min(total, s_max + (1 if rng.random() < 0.12 else 0))
                        t = rng.randint(0, t_cap) if t_cap else 0
                        k_cap = min((total - t) // 2, l_max + (1 if rng.random() < 0.1 else 0))
                        k = rng.randint(0, k_cap) if k_cap else 0
                    else:
                        # pick t so the leftover stub count comes out even
                        parity = len(stubs) % 2
                        choices = [t for t in range(total + 1) if t % 2 == (total - parity) % 2]
                        t = rng.choice(choices)
                        k_cap = (total - t) // 2
                        k = rng.randint(0, k_cap) if k_cap else 0
                    for _ in range(t):
                        g.add_edge("semi", fresh(), colour, u)
                    for _ in range(k):
                        g.add_edge("loop", fresh(), colour, u)
                    stubs.extend([u] * (total - t - 2 * k))
                rng.shuffle(stubs)
                for a, b in zip(stubs[::2], stubs[1::2]):
                    if a == b:
                        g.add_edge("loop", fresh(), colour, a)
                    else:
                        g.add_edge("edge", fresh(), colour, a, b)
            else:
                d_out = sum(1 for e in edges if (e.kind == "arc" and e.tail == x0) or (e.kind == "dloop" and e.u == x0))
                dl_max = max(sum(1 for e in edges if e.kind == "dloop" and e.u == x) for x in block)
                outs: list[str] = []
                ins: list[str] = []
                dloops: dict[str, int] = {}
                for u in members[col]:
                    dl = rng.randint(0, min(d_out, dl_max + (1 if rng.random() < 0.1 else 0)))
                    dloops[u] = dl
                    outs.extend([u] * (d_out - dl))
                    ins.extend([u] * (d_out - dl))
                rng.shuffle(outs)
                rng.shuffle(ins)
                for a, b in zip(outs, ins):
                    if a == b:
                        dloops[a] += 1
                    else:
                        g.add_edge("arc", fresh(), colour, a, b)
                for u, dl in dloops.items():
                    for _ in range(dl):
                        g.add_edge("dloop", fresh(), colour, u)
            continue
        col_i, col_j = cols_touched
        xi = next(x for x in h.vertices() if h.vertex_colour(x) == col_i)
        xj = next(x for x in h.vertices() if h.vertex_colour(x) == col_j)
        if not directed:
            a = sum(1 for e in edges if xi in e.ends)
            b = sum(1 for e in edges if xj in e.ends)
            stubs_i = [u for u in members[col_i] for _ in range(a)]
            stubs_j = [u for u in members[col_j] for _ in range(b)]
            rng.shuffle(stubs_i)
            rng.shuffle(stubs_j)
            for u, v in zip(stubs_i, stubs_j):
                g.add_edge("edge", fresh(), colour, u, v)
        else:
            a_out = sum(1 for e in edges if e.kind == "arc" and e.tail == xi)
            a_in = sum(1 for e in edges if e.kind == "arc" and e.head == xi)
            outs = [u for u in members[col_i] for _ in range(a_out)]
            ins = [u for u in members[col_j] for _ in range(a_out)]
            rng.shuffle(outs)
            rng.shuffle(ins)
            for u, v in zip(outs, ins):
                g.add_edge("arc", fresh(), colour, u, v)
            outs = [u for u in members[col_j] for _ in range(a_in)]
            ins = [u for u in members[col_i] for _ in range(a_in)]
            rng.shuffle(outs)
            rng.shuffle(ins)
            for u, v in zip(outs, ins):
                g.add_edge("arc", fresh(), colour, u, v)
    return g


def random_lift(h: Graph, r: int, seed: int) -> Graph:
    """A random r-fold cover of ``h`` with shuffled vertex and edge order.

    Each normal edge or arc lifts to a random perfect matching between
    the two fibres, each loop or directed loop to a random permutation of
    its fibre (fixed points stay loops), and each semi-edge to a random
    involution that fixes a quarter of the fibre, so fibres over
    semi-edges need a matching to be completed.
    """
    rng = random.Random(seed)
    order = [(x, i) for x in h.vertices() for i in range(r)]
    rng.shuffle(order)
    name = {key: f"v{k}" for k, key in enumerate(order)}
    edges: list[tuple] = []
    for e in h.edges():
        x = e.ends[0]
        perm = list(range(r))
        rng.shuffle(perm)
        if e.kind in ("edge", "arc"):
            edges += [(e.kind, e.colour, name[x, i], name[e.ends[1], perm[i]]) for i in range(r)]
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
    rng.shuffle(edges)
    g = Graph(f"lift{r}-{h.name}")
    for key in order:
        g.add_vertex(name[key], h.vertex_colour(key[0]))
    for k, (kind, colour, *ends) in enumerate(edges):
        g.add_edge(kind, f"e{k}", colour, *ends)
    return g
