"""Degree obedience against its counting form.

``reference_obedient`` is that form: it counts each source vertex's
cross darts per target vertex and checks them against the image's dart
multiplicities, and inside a fibre it checks 2k + n + t = 2l + s with
t <= s per undirected colour (k loops, n normal edges and t semi-edges at
u; l loops and s semi-edges at its image) and dl + n = hd per directed
colour and direction.  ``is_degree_obedient`` compares darts read through
the vertex map instead, so both must answer alike on every triple.
"""

import random

from coverkit import Graph, is_degree_obedient
from coverkit.graphs import IN, OUT, UND, vertex_darts


def reference_obedient(g, h, fv):
    gt = {u: vertex_darts(g, u) for u in g.vertices()}
    ht = {x: vertex_darts(h, x) for x in h.vertices()}
    caps_of = {x: {(a, d, y): c for (a, d), to in t.ends.items() for y, c in to.items()}
               for x, t in ht.items()}
    for u in g.vertices():
        x = fv[u]
        if g.vertex_colour(u) != h.vertex_colour(x):
            return False
        gu, hx, caps = gt[u], ht[x], caps_of[x]
        per_target: dict = {}
        for (a, d), to in gu.ends.items():
            for w, cnt in to.items():
                if w != u:
                    key = (a, d, fv[w])
                    per_target[key] = per_target.get(key, 0) + cnt
        keys = set(per_target) | set(caps)
        for a, d, y in keys:
            n_cnt = per_target.get((a, d, y), 0)
            if y != x:
                if n_cnt != caps.get((a, d, y), 0):
                    return False
                continue
            if d == UND:
                t, k = gu.semis.get(a, 0), gu.loops.get(a, 0)
                s, l = hx.semis.get(a, 0), hx.loops.get(a, 0)
                if t > s or 2 * k + n_cnt + t != 2 * l + s:
                    return False
            elif gu.dloops.get(a, 0) + n_cnt != hx.dloops.get(a, 0):
                return False
        for a in set(gu.semis) | set(gu.loops) | set(gu.dloops):
            if (a, UND, x) in keys or (a, OUT, x) in keys or (a, IN, x) in keys:
                continue
            t, k, dl = gu.semis.get(a, 0), gu.loops.get(a, 0), gu.dloops.get(a, 0)
            s, l, hd = hx.semis.get(a, 0), hx.loops.get(a, 0), hx.dloops.get(a, 0)
            if t or k:
                if t > s or 2 * k + t != 2 * l + s:
                    return False
            if dl != hd:
                return False
    return True


# undirected and directed edge colours, kept apart from the vertex colours
_UND_COLOURS, _DIR_COLOURS, _VERTEX_COLOURS = ("a", "b"), ("d", "f"), ("n", "n", "m")


def _graph(name, vertices, edges):
    g = Graph(name)
    for v, colour in vertices:
        g.add_vertex(v, colour)
    for k, (kind, colour, *ends) in enumerate(edges):
        g.add_edge(kind, f"e{k}", colour, *ends)
    return g


def _random_target(rng):
    vertices = [(f"x{i}", rng.choice(_VERTEX_COLOURS)) for i in range(rng.randint(1, 3))]
    names = [v for v, _ in vertices]
    edges = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("edge", "arc", "loop", "dloop", "semi") if len(names) > 1
                          else ("loop", "dloop", "semi"))
        colour = rng.choice(_DIR_COLOURS if kind in ("arc", "dloop") else _UND_COLOURS)
        ends = rng.sample(names, 2) if kind in ("edge", "arc") else [rng.choice(names)]
        edges.append((kind, colour, *ends))
    return vertices, edges


def _random_lift(h_vertices, h_edges, r, rng):
    """An r-fold cover of the target with its vertex map: normal edges
    and arcs lift to random matchings between fibres, loops and directed
    loops to random permutations of the fibre, semi-edges to random
    involutions of it."""
    vertices = [(f"{x}.{i}", colour) for x, colour in h_vertices for i in range(r)]
    fv = {f"{x}.{i}": x for x, _ in h_vertices for i in range(r)}
    edges = []
    for kind, colour, *ends in h_edges:
        x, y = ends[0], ends[-1]
        perm = list(range(r))
        rng.shuffle(perm)
        if kind in ("edge", "arc"):
            edges += [(kind, colour, f"{x}.{i}", f"{y}.{perm[i]}") for i in range(r)]
        elif kind in ("loop", "dloop"):
            normal = "edge" if kind == "loop" else "arc"
            edges += [(kind, colour, f"{x}.{i}") if perm[i] == i else
                      (normal, colour, f"{x}.{i}", f"{x}.{perm[i]}") for i in range(r)]
        else:
            paired = 2 * rng.randint(0, r // 2)
            edges += [("edge", colour, f"{x}.{i}", f"{x}.{j}")
                      for i, j in zip(perm[0:paired:2], perm[1:paired:2])]
            edges += [("semi", colour, f"{x}.{i}") for i in perm[paired:]]
    return vertices, edges, fv


def _perturb_self_darts(edges, u, rng):
    """One change of the self darts at u: a semi-edge, loop or directed
    loop added or removed, or a loop traded for two semi-edges or back."""
    own = [k for k, (kind, _, *ends) in enumerate(edges) if kind in ("loop", "dloop", "semi")
           and ends == [u]]
    move = rng.randrange(5)
    if move == 0 and own:
        del edges[rng.choice(own)]
    elif move == 1:
        loops = [k for k in own if edges[k][0] == "loop"]
        if loops:
            k = rng.choice(loops)
            colour = edges[k][1]
            edges[k:k + 1] = [("semi", colour, u), ("semi", colour, u)]
    elif move == 2:
        colour = rng.choice(_UND_COLOURS)
        semis = [k for k in own if edges[k][:2] == ("semi", colour)]
        if len(semis) >= 2:
            for k in sorted(semis[:2], reverse=True):
                del edges[k]
            edges.append(("loop", colour, u))
    elif move == 3:
        edges.append(("dloop", rng.choice(_DIR_COLOURS), u))
    else:
        edges.append((rng.choice(("loop", "semi")), rng.choice(_UND_COLOURS), u))


def _triples(rng, count):
    """Seeded (g, h, fv) triples: covers as they are, covers with one
    image moved or one vertex's self darts changed, and random maps onto
    vertices of the same colour."""
    for i in range(count):
        h_vertices, h_edges = _random_target(rng)
        h = _graph("h", h_vertices, h_edges)
        vertices, edges, fv = _random_lift(h_vertices, h_edges, rng.randint(1, 3), rng)
        case = i % 4
        if case == 1:
            fv[rng.choice(sorted(fv))] = rng.choice(h.vertices())
        elif case == 2:
            _perturb_self_darts(edges, rng.choice(sorted(fv)), rng)
        elif case == 3:
            fv = {v: rng.choice([x for x in h.vertices() if h.vertex_colour(x) == colour])
                  for v, colour in vertices}
        yield _graph("g", vertices, edges), h, fv


def test_obedience_matches_counting_form():
    count, obedient = 3000, 0
    for g, h, fv in _triples(random.Random(18), count):
        want = reference_obedient(g, h, fv)
        assert is_degree_obedient(g, h, fv) == want, (g.name, h.name, fv)
        obedient += want
    # both answers are common
    assert count // 4 <= obedient <= 3 * count // 4, obedient
