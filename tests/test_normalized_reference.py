"""The solver against its path through a recoloured copy of the source.

``solve_cover`` reads the source as parsed: ``_Fibres`` files g's edges
under the block colours that ``normalize_colours`` would give them, the
neighbours-apart rule reads g's darts by edge id, and edge completion
renames each edge's kind and colour through the same table.  The
reference below is the path it replaced: it builds ``normalize_colours(g,
pg)``, indexes that copy by its own colours, reads neighbours apart off
the copy's darts, and completes the edge map on the copy.  Both must give
the same status, certificate and trace on every input.

No bench host has an arc between two blocks, so the hosts whose
interblock colour is an arc (in either direction) are the guard of the
de-oriented path: g gives such an arc an out- and an in-dart, where the
normalized copy has two undirected darts.
"""

import pytest

from coverkit import Graph, solve_cover, verify_cover
from coverkit import solver
from coverkit.classify import analyze_target
from coverkit.covers import CoveringProjection
from coverkit.graphs import darts
from coverkit.partition import Partition, degree_partition, normalize_colours
from coverkit.solver import (
    SolveResult,
    SolveTrace,
    build_2sat,
    check_singletons,
    complete_edge_mapping,
    preprocess_doublets,
)

from conftest import disjoint_union
from hosts import harmless_hosts, random_compatible_input, random_lift
from test_solver import _six_cycle


class NormalizedFibres:
    """The fibre index over a normalized copy gn, its edge handles grouped
    by gn's colours."""

    def __init__(self, gn: Graph, pg: Partition):
        self.g = self.gn = gn
        self.pg = pg
        self.columns = gn.columns()
        self._edges_of: dict = {}
        for k, colour in enumerate(self.columns[2]):
            self._edges_of.setdefault(colour, []).append(k)

    def edges(self, colour):
        return self._edges_of.get(colour, [])

    def has_semis(self, colour):
        return any(self.gn.edge(self.columns[0][k]).kind == "semi" for k in self.edges(colour))

    def vertices(self, blocks):
        return [v for v in self.gn.vertices() if self.pg.block_of[v] in blocks]

    def graph(self, blocks, colour):
        sub = Graph(self.gn.name)
        for v in self.vertices(blocks):
            sub.add_vertex(v, self.gn.vertex_colour(v))
        for k in self.edges(colour):
            e = self.gn.edge(self.columns[0][k])
            sub.add_edge(e.kind, e.id, e.colour, *e.ends)
        return sub


def neighbours_apart_reference(sat, fibres, verts, colour, directions, subcase):
    """Neighbours apart over the darts of the normalized copy, where every
    dart of an interblock colour is undirected."""
    pairs = []
    for v in verts:
        at = [(fibres.gn.edge(fibres.columns[0][k]), d, w, cnt) for k, d, w, cnt in darts(fibres.gn, v)]
        for direction in directions:
            apart = [w for e, d, w, cnt in at if d == direction and e.colour == colour and e.kind != "semi"
                     for _ in range(cnt)]
            assert len(apart) == 2 or (len(apart) == 1 and subcase == "5C"), subcase
            pairs.append(apart if len(apart) == 2 else [v, apart[0]])
    sat.add_pairs(pairs, True)


def solve_reference(g: Graph, h: Graph) -> SolveResult:
    trace = SolveTrace()
    ph, mh, hn, classified = analyze_target(h)
    shapes = [bg for bg, _ in classified]
    pg, mg = degree_partition(g)
    if pg.k != ph.k or mg != mh:
        trace.matrix_ok = False
        trace.failure = "degree refinement matrices differ"
        return SolveResult("no", None, trace)
    trace.matrix_ok = True
    gn = normalize_colours(g, pg)
    fibres = NormalizedFibres(gn, pg)
    if not check_singletons(fibres, ph, shapes, trace):
        trace.failure = "singleton block check failed"
        return SolveResult("no", None, trace)
    if not preprocess_doublets(fibres, hn, ph, shapes, trace):
        trace.failure = "doublet preprocessing failed"
        return SolveResult("no", None, trace)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_neighbours_apart", neighbours_apart_reference)
        sat = build_2sat(fibres, hn, pg, ph, shapes, trace)
    assignment = sat.solve()
    if assignment is None:
        trace.failure = "2-SAT unsatisfiable"
        trace.conflict = sat.conflict
        return SolveResult("no", None, trace)
    trace.assignment = assignment
    fv = {}
    for i, block in enumerate(pg.blocks):
        target = ph.blocks[i]
        for u in block:
            fv[u] = target[0] if len(target) == 1 or assignment.get(u, True) else target[1]
    matchings = {(x, c): ids for (i, c), ids in trace.matchings.items() for x in ph.blocks[i]}
    fe = complete_edge_mapping(gn, hn, fv, matchings, trace)
    return SolveResult("yes", CoveringProjection(fv, fe), trace)


def arc_hosts():
    """Hosts whose one interblock colour is an arc colour."""
    for name, forward in (("FW(1) hub to doublet", True), ("FW(1) doublet to hub", False)):
        g = Graph(name.replace(" ", "-"))
        g.add_vertex("hub", "H")
        g.add_vertex("x", "Q")
        g.add_vertex("y", "Q")
        for w in ("x", "y"):
            g.add_edge("arc", f"h{w}", "e", *(("hub", w) if forward else (w, "hub")))
        yield name, g
    g = Graph("ww11-arcs")
    for v in ("x1", "x2"):
        g.add_vertex(v, "A")
    for v in ("y1", "y2"):
        g.add_vertex(v, "B")
    for k, (a, b) in enumerate((("x1", "y1"), ("x2", "y2"), ("x1", "y2"), ("x2", "y1"))):
        g.add_edge("arc", f"e{k}", "e", a, b)
    yield "WW(1,1) arcs", g
    g = Graph("ff1-arc")
    g.add_vertex("x", "A")
    g.add_vertex("y", "B")
    g.add_edge("arc", "c0", "e", "x", "y")
    yield "FF(1) arc", g


def _small(name, vertices, edges):
    g = Graph(name)
    for v, colour in vertices:
        g.add_vertex(v, colour)
    for kind, eid, colour, *ends in edges:
        g.add_edge(kind, eid, colour, *ends)
    return g


def planted_non_covers():
    """Lifts beside a small graph with the host's refinement matrix that
    does not cover it, so the solver gets past the matrix test before it
    says "no"."""
    pair = [("x", "Q"), ("y", "Q")]
    hub = [("edge", "hx", "f", "hub", "x"), ("edge", "hy", "f", "hub", "y")]
    semis = [("semi", f"s{i}", "e", "x") for i in range(3)]
    planted = {
        "F(1,1)": _small("s", [("x", "Q")], semis),
        "F(1,2)": _small("s", [("x", "Q")], semis + [("loop", "l0", "e", "x")]),
        "W(1,0,1,0,1)": _small("s", pair, [("edge", "c0", "e", "x", "y"), ("edge", "c1", "e", "x", "y")]),
        "W(2,0,0,0,2)+hub": _small("s", pair + [("hub", "H")],
                                   [("loop", "lx", "e", "x"), ("loop", "ly", "e", "y")] + hub),
        "WW(1,1)": _six_cycle(),
    }
    hosts = dict(harmless_hosts())
    for name, small in planted.items():
        for seed in range(3):
            yield name, disjoint_union(random_lift(hosts[name], 6, seed), small), hosts[name]


def cases():
    """(name, source, target, whether the source is a compatible input)"""
    for name, h in harmless_hosts():
        for r in (3, 6):
            for seed in (0, 1):
                yield name, random_lift(h, r, seed), h, False
                yield name, random_compatible_input(h, r, seed), h, True
    for name, g, h in planted_non_covers():
        yield name, g, h, False
    for name, h in arc_hosts():
        for r in (2, 3, 5, 8):
            for seed in range(4):
                yield name, random_lift(h, r, seed), h, False
                yield name, random_compatible_input(h, r, seed), h, True


def test_solver_agrees_with_the_normalized_copy_path():
    seen = {}
    # per host, the compatible inputs that pass the matrix test
    matrix_ok: dict[str, int] = {}
    for name, g, h, compatible in cases():
        got, want = solve_cover(g, h), solve_reference(g, h)
        assert got.status == want.status, (name, g.name)
        assert got.trace.to_dict() == want.trace.to_dict(), (name, g.name)
        if got.yes:
            assert got.projection.to_json() == want.projection.to_json(), (name, g.name)
            assert verify_cover(g, h, got.projection).ok
        if compatible:
            matrix_ok[name] = matrix_ok.get(name, 0) + bool(got.trace.matrix_ok)
        key = (name, got.status, got.trace.failure)
        seen[key] = seen.get(key, 0) + 1
    statuses = {(name, status) for name, status, _ in seen}
    # every arc host is lifted (yes), and its random inputs reach a "no"
    # past the matrix test or a second "yes"; most of each arc host's 16
    # compatible inputs pass the matrix test, so they reach the later phases
    for name, _ in arc_hosts():
        assert (name, "yes") in statuses, name
        assert matrix_ok[name] >= 12, (name, matrix_ok[name])
    assert sum(n for (name, status, failure), n in seen.items()
               if failure == "2-SAT unsatisfiable") >= 6, seen
