"""The polynomial cover-decision algorithm for harmless targets.

Pipeline: degree partitions and refinement matrices must agree; singleton
target blocks are checked directly (component shapes, perfect matchings,
stray semi-edges); doublet blocks with semi-edges are preprocessed into
forced assignments; the remaining freedom is a system of parity
constraints (same image, other image, forced image) solved by a parity
union-find, whose odd cycle of constraints explains a "no"; a solution is
then completed to an explicit edge mapping by matching and factorization.

The solver refuses targets it is not specified for: disconnected ones,
and, as ``classify.analyze_target`` reads the target, blocks of more than
two vertices and targets containing a dangerous or harmful block graph
(use the oracle for those).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import matching as mt
from .classify import DANGEROUS, HARMLESS, BlockGraph, SmallShape, analyze_target
from .covers import CoveringProjection, InternalCoverError, NotExtendable, _realize_edges, verify_cover
from .graphs import Graph, GraphError, component_shapes, derive, is_connected, walks
from .graphs import EVEN_CYCLE, IN, ODD_CYCLE, OPEN_PATH, OUT, UND, darts, vertex_darts
from .partition import Partition, _block_colour, degree_partition
from .twosat import TwoSat


class UnsupportedTarget(GraphError):
    pass


@dataclass
class SolveTrace:
    matrix_ok: bool | None = None
    steps: list[dict] = field(default_factory=list)
    units: dict[str, bool] = field(default_factory=dict)
    matchings: dict = field(default_factory=dict)  # (block, colour) -> list of edge ids
    assignment: dict[str, bool] | None = None
    completion: list[str] = field(default_factory=list)
    failure: str | None = None
    # for a 2-SAT "no": an odd cycle of parity constraints (a, b, a != b),
    # where True is the constant a forced image is a constraint against
    conflict: list[tuple] | None = None
    # the entry of ``steps`` for each (block tuple, colour)
    _entries: dict = field(default_factory=dict, compare=False, repr=False)

    def step(self, blocks, colour, subcase, **detail):
        """One entry per (block set, colour); a colour handled by both a
        preprocessing and a clause subcase accumulates its tags."""
        key = (tuple(blocks), colour)
        entry = self._entries.get(key)
        if entry is not None:
            entry["subcase"] = f"{entry['subcase']}+{subcase}"
            entry.update(detail)
            return
        entry = self._entries[key] = {"blocks": list(blocks), "colour": colour, "subcase": subcase, **detail}
        self.steps.append(entry)

    def to_dict(self) -> dict:
        return {
            "matrix_ok": self.matrix_ok,
            "steps": self.steps,
            "units": self.units,
            "matchings": {f"{b}:{c}": ids for (b, c), ids in self.matchings.items()},
            "assignment": self.assignment,
            "completion": self.completion,
            "failure": self.failure,
            "conflict": None if self.conflict is None
            else [[a, "!=" if odd else "==", b] for a, b, odd in self.conflict],
        }


@dataclass
class SolveResult:
    status: str  # "yes" | "no"
    projection: CoveringProjection | None
    trace: SolveTrace

    @property
    def yes(self) -> bool:
        return self.status == "yes"


class _Fibres:
    """The fibres of a source g over its degree partition pg, read in
    ``normalize_colours``' block colours without recolouring g.

    One pass over g's edge columns names each (kind, colour, end blocks)
    once by ``partition._block_colour``, the rule ``normalize_colours``
    applies, and files the handle of each edge of g under its block
    colour; one pass over g's vertices lists every block's members.
    ``edges(colour)`` lists a block colour's edge handles and
    ``vertices(blocks)`` the blocks' members, both in g's order, and
    ``columns`` holds g's edge columns, which the handles index.
    ``names`` maps each (kind, colour, end blocks) to its normalized
    (kind, colour), and ``deoriented`` holds the block colours of arcs
    between two blocks: g gives their edges an out- and an in-dart, where
    the normalized colour is undirected.
    ``graph(blocks, colour)`` builds the subgraph of g on both, in g's
    vertex and edge order, for the checks that walk a fibre (component
    shapes).
    """

    def __init__(self, g: Graph, pg: Partition):
        self.g = g
        self.columns = columns = g.columns()
        self._vertices = vertices = g.vertices()
        block_of = pg.block_of
        self._members: list[list[int]] = [[] for _ in pg.blocks]
        for k, v in enumerate(vertices):
            self._members[block_of[v]].append(k)
        self.names: dict[tuple, tuple[str, str]] = {}
        self.deoriented: set[str] = set()
        self._edges_of: dict[str, list[int]] = {}
        # the list each (kind, colour, end blocks) is filed in
        filed: dict[tuple, list[int]] = {}
        _, kinds, colours, first, last = columns
        ends = zip(kinds, colours, map(block_of.__getitem__, first), map(block_of.__getitem__, last))
        for k, key in enumerate(ends):
            group = filed.get(key)
            if group is None:
                kind, colour = self.names[key] = _block_colour(*key)
                if kind != key[0]:
                    self.deoriented.add(colour)
                group = filed[key] = self._edges_of.setdefault(colour, [])
            group.append(k)

    def edges(self, colour: str) -> list[int]:
        return self._edges_of.get(colour, [])

    def has_semis(self, colour: str) -> bool:
        _, kinds, _, _, _ = self.columns
        return any(kinds[k] == "semi" for k in self.edges(colour))

    def vertices(self, blocks) -> list[str]:
        return [self._vertices[k] for k in sorted(k for i in blocks for k in self._members[i])]

    def graph(self, blocks, colour: str) -> Graph:
        g = self.g
        return derive(g, {v: g.vertex_colour(v) for v in self.vertices(blocks)}, self.edges(colour))


def _semi_ends(g: Graph, handles) -> set[str] | None:
    """The ends of the semi-edges among g's edges at ``handles``, or None
    when some vertex has two."""
    _, kinds, _, first, _ = g.columns()
    ends = [first[k] for k in handles if kinds[k] == "semi"]
    once = set(ends)
    return once if len(once) == len(ends) else None


def _rest_matching(g: Graph, verts, handles, semi: set[str]) -> list[str] | None:
    """A perfect matching of the vertices in ``verts`` outside ``semi``
    by the normal edges among g's edges at ``handles``, or None."""
    eids, kinds, _, first, last = g.columns()
    return mt.perfect_matching([v for v in verts if v not in semi],
                               [(eids[k], first[k], last[k]) for k in handles
                                if kinds[k] == "edge" and first[k] not in semi and last[k] not in semi])


def _record_semi_matching(fibres: _Fibres, bg: BlockGraph, i: int, subcase: str,
                          trace: SolveTrace) -> bool:
    """Over one semi-edge per target vertex: no vertex has two semi-edges,
    and the vertices without one have a perfect matching, which is
    recorded for edge completion.  Both are read off the colour's edges,
    so no fibre graph is built."""
    edges = fibres.edges(bg.colour)
    semi = _semi_ends(fibres.g, edges)
    if semi is None:
        trace.step(bg.blocks, bg.colour, subcase, result="vertex with two semi-edges")
        return False
    matching = _rest_matching(fibres.g, fibres.vertices(bg.blocks), edges, semi)
    if matching is None:
        trace.step(bg.blocks, bg.colour, subcase, result="no perfect matching")
        return False
    trace.matchings[(i, bg.colour)] = matching
    trace.step(bg.blocks, bg.colour, subcase, result="ok", matching_size=len(matching))
    return True


def check_singletons(fibres: _Fibres, ph: Partition, shapes: list[BlockGraph], trace: SolveTrace) -> bool:
    """Singleton target blocks: semi-edge budgets, component shapes for the
    two-semi-edge target, perfect matchings for the one-semi-edge target."""
    for bg in shapes:
        if len(bg.blocks) != 1:
            continue
        i = bg.blocks[0]
        if len(ph.blocks[i]) != 1:
            continue
        colour = bg.colour
        fam, params = bg.shape.family, bg.shape.params
        if fam == "FD" or (fam == "F" and params[0] == 0):
            if fibres.has_semis(colour):
                trace.step(bg.blocks, colour, "3C", result="stray semi-edge")
                return False
            trace.step(bg.blocks, colour, "3C", result="ok")
        elif fam == "F" and params[0] == 1:
            if not _record_semi_matching(fibres, bg, i, "3B", trace):
                return False
        elif fam == "F" and params == (2, 0):
            for _, shape in component_shapes(fibres.graph(bg.blocks, colour)):
                if shape not in (OPEN_PATH, EVEN_CYCLE):
                    trace.step(bg.blocks, colour, "3A", result=f"bad component ({shape})")
                    return False
            trace.step(bg.blocks, colour, "3A", result="ok")
        else:
            raise InternalCoverError(f"singleton shape {bg.shape} is not harmless")
    return True


def preprocess_doublets(fibres: _Fibres, hn: Graph, ph: Partition,
                        shapes: list[BlockGraph], trace: SolveTrace) -> bool:
    """Doublet target blocks with semi-edges force vertex images; the
    semi-edge-free doublet shapes reject stray semi-edges outright."""
    for bg in shapes:
        if len(bg.blocks) != 1:
            continue
        i = bg.blocks[0]
        if len(ph.blocks[i]) != 2:
            continue
        colour = bg.colour
        fam = bg.shape.family
        hb, hc = ph.blocks[i]
        if fam == "W":
            k, m, l, p, q = bg.shape.params
            if k == 0:
                # doublet analogue of Subcase 3C: no semi-edge may appear
                # (recognize_shape orders the parameters so that k >= q)
                if fibres.has_semis(colour):
                    trace.step(bg.blocks, colour, "5A" if l == 0 else "5B", result="stray semi-edge")
                    return False
                continue
            if (k, q) == (2, 2):
                for _, shape in component_shapes(fibres.graph(bg.blocks, colour)):
                    if shape == ODD_CYCLE:
                        trace.step(bg.blocks, colour, "4A", result="odd cycle component")
                        return False
                trace.step(bg.blocks, colour, "4A", result="ok")
            elif (k, m, l, p, q) == (2, 0, 0, 1, 0):
                semi_side = hb if vertex_darts(hn, hb).semis.get(colour, 0) == 2 else hc
                loop_side = hc if semi_side == hb else hb
                for comp, shape in component_shapes(fibres.graph(bg.blocks, colour)):
                    if shape == OPEN_PATH:
                        side = semi_side
                    elif shape == ODD_CYCLE:
                        side = loop_side
                    else:
                        continue
                    for v in comp:
                        val = side == hb
                        if trace.units.get(v, val) != val:
                            trace.step(bg.blocks, colour, "4B", result="conflicting forced images")
                            return False
                        trace.units[v] = val
                trace.step(bg.blocks, colour, "4B", result="ok")
            elif (k, q) == (1, 1) and l == 0:
                if not _record_semi_matching(fibres, bg, i, "4C", trace):
                    return False
            elif (k, m, l, p, q) == (1, 0, 1, 0, 1):
                if _semi_ends(fibres.g, fibres.edges(colour)) is None:
                    trace.step(bg.blocks, colour, "4D", result="vertex with two semi-edges")
                    return False
                trace.step(bg.blocks, colour, "4D", result="ok")
            else:
                raise InternalCoverError(f"doublet shape {bg.shape} is not harmless")
    return True


def _bundle_parity(sat: TwoSat, ends, bundled: bool) -> None:
    """The two ends of each edge or arc take the same image, or opposite
    images across a bundle.  ``ends`` holds each edge's first and last
    end, which are one vertex for a loop or directed loop; across a
    bundle that is a contradiction, x != x, and without one nothing."""
    if bundled:
        sat.add_pairs(ends, True)
    else:
        sat.add_pairs((pair for pair in ends if pair[0] != pair[1]), False)


def _neighbours_apart(sat: TwoSat, fibres: _Fibres, verts, colour: str, directions, subcase: str) -> None:
    """The two neighbours of each listed vertex in each direction take
    opposite images: the other ends of its normal edges, loops and
    directed loops of the block colour, with multiplicity, in incidence
    order.  The colour's darts are the source's darts whose handles it
    files; a de-oriented arc's out- and in-darts are read as undirected.
    In 5C a vertex may instead have one neighbour and a semi-edge; it
    takes the image opposite that neighbour."""
    g = fibres.g
    _, kinds, _, _, _ = fibres.columns
    among = {k for k in fibres.edges(colour) if kinds[k] != "semi"}
    deoriented = colour in fibres.deoriented

    def pairs():
        for v in verts:
            ds = darts(g, v)
            for direction in directions:
                apart = [w for k, d, w, _ in ds if (d == direction or deoriented) and k in among]
                if v in apart:
                    # only a loop or directed loop leads back; a loop's dart counts twice
                    apart = [w for k, d, w, cnt in ds if (d == direction or deoriented) and k in among
                             for _ in range(cnt)]
                if len(apart) == 2:
                    yield apart
                elif len(apart) == 1 and subcase == "5C":
                    yield v, apart[0]
                else:
                    raise InternalCoverError(f"degree drift in subcase {subcase}")

    sat.add_pairs(pairs(), True)


# the harmless shapes whose subcase emits through the neighbours-apart rule
_NEIGHBOURS_APART = {
    SmallShape("W", (1, 0, 1, 0, 1)): "5C",
    SmallShape("WD", (1, 1, 1)): "5D",
    SmallShape("FW", (1,)): "5E",
    SmallShape("WW", (1, 1)): "5F",
}


def build_2sat(fibres: _Fibres, hn: Graph, pg: Partition, ph: Partition,
               shapes: list[BlockGraph], trace: SolveTrace) -> TwoSat:
    """Emit the parity constraints of the harmless block graphs.

    Every subcase emits through one of two rules.  Bundle parity serves
    5A (no bundle) and 5B (a bundle between the doublet's two vertices)
    for W and WD, and 5G, whose pairs are the edges' ends in block order
    and whose bundle crosses the two doublets when no edge joins their
    first vertices.  Neighbours apart serves 5C, 5D (out- and
    in-neighbours), 5E (the hub block's vertices) and 5F.  FF is forced
    at edge completion, and singleton-block shapes emit nothing.

    Truth convention: the variable of a doublet-block vertex is true when
    it maps onto the lexicographically first target vertex of its block.
    """
    sat = TwoSat()
    for bg in shapes:
        fam, params, colour = bg.shape.family, bg.shape.params, bg.colour
        if fam in ("F", "FD"):
            continue
        if fam == "FF":
            trace.step(bg.blocks, colour, "6", note="forced at edge completion")
            continue
        detail = {}
        subcase = _NEIGHBOURS_APART.get(bg.shape)
        if subcase is not None:
            hub = min(bg.blocks, key=lambda i: len(ph.blocks[i]))  # 5E's singleton block
            verts = pg.blocks[hub] if fam == "FW" else fibres.vertices(bg.blocks)
            _neighbours_apart(sat, fibres, verts, colour, (OUT, IN) if fam == "WD" else (UND,), subcase)
        elif fam in ("W", "WD"):
            bundled = params[2 if fam == "W" else 1] > 0
            subcase = "5B" if bundled else "5A"
            _, kinds, _, first, last = fibres.columns
            normal = [k for k in fibres.edges(colour) if kinds[k] != "semi"]
            _bundle_parity(sat, zip(map(first.__getitem__, normal), map(last.__getitem__, normal)), bundled)
        elif fam == "WW" and params[1] == 0:
            i, j = bg.blocks
            bi, bj = ph.blocks[i][0], ph.blocks[j][0]
            parallel = bj in vertex_darts(hn, bi).ends.get((colour, UND), {})
            subcase, detail = "5G", {"parallel": parallel}
            _, _, _, first, last = fibres.columns
            block_of = pg.block_of
            _bundle_parity(sat, [(first[k], last[k]) if block_of[first[k]] <= block_of[last[k]]
                                 else (last[k], first[k]) for k in fibres.edges(colour)], not parallel)
        else:
            raise InternalCoverError(f"block graph {bg.shape} is not harmless")
        trace.step(bg.blocks, colour, subcase, **detail, clauses=len(sat.clauses))
    for v, val in trace.units.items():
        sat.add_unit(v, val)
    return sat


def _alternation_assignment(g: Graph, verts: list[str], group, semi_ids: list[str]) -> dict[str, str] | None:
    """Distribute g's edges at the handles of ``group``, a union of open
    paths and even cycles, over the two target semi-edges so images
    alternate at every vertex; None for any other shape."""
    fibre = derive(g, dict.fromkeys(verts, "f"), group, name="fibre")
    ids, kinds, _, _, _ = fibre.columns()
    # each component with its vertices' darts, from the one walk
    comps = [list(walk) for walk in walks(fibre)]
    at = {v: ds for comp in comps for v, ds in comp}
    if "loop" in kinds or any(len(ds) != 2 for ds in at.values()):
        return None
    s0, s1 = semi_ids
    fe: dict[str, str] = {}
    for comp in comps:
        # a path starts at its least semi-edge end; a cycle at its least vertex
        start = min((v for v, ds in comp if any(kinds[k] == "semi" for k, _, _, _ in ds)), default=None)
        v, toggle = (min(v for v, _ in comp), 0) if start is None else (start, 1)
        if start is not None:
            fe[ids[next(k for k, _, _, _ in at[v] if kinds[k] == "semi")]] = s0
        while True:
            dart = next((dart for dart in at[v] if ids[dart[0]] not in fe), None)
            if dart is None:
                break
            k, _, w, _ = dart
            fe[ids[k]] = s1 if toggle else s0
            toggle ^= 1
            if kinds[k] == "semi":
                break
            v = w
        if start is None and toggle:
            return None  # odd cycle
    return fe


def _matching_semi_step(g: Graph, matchings: dict):
    """The solver's step for fibres of g over semi-edges.  Over one
    semi-edge it takes the fibre's semi-edges, at most one per vertex,
    plus a perfect matching of the other vertices (recorded under (target
    vertex, colour), or found here from the fibre's own edges); over two
    semi-edges and no loop, alternating images."""
    eids, kinds, _, first, last = g.columns()

    def step(x, colour, verts, group, semi_ids, loop_ids):
        if len(semi_ids) == 2 and not loop_ids:
            return _alternation_assignment(g, verts, group, semi_ids)
        if len(semi_ids) != 1:
            return None
        semi_verts = _semi_ends(g, group)
        if semi_verts is None:
            return None
        ends = {eids[k]: (first[k], last[k]) for k in group}
        matching = matchings.get((x, colour))
        if matching is None:
            matching = _rest_matching(g, verts, group, semi_verts) or []
        else:
            matching = [eid for eid in matching if eid in ends]
        placed = {eids[k]: semi_ids[0] for k in group if kinds[k] == "semi"}
        covered = set(semi_verts)
        for eid in matching:
            placed[eid] = semi_ids[0]
            covered.update(ends[eid])
        return placed if covered == set(verts) else None

    return step


def complete_edge_mapping(g: Graph, hn: Graph, fv: dict[str, str],
                          matchings: dict | None = None,
                          trace: SolveTrace | None = None, rename=None) -> dict[str, str]:
    """Extend a degree-obedient vertex mapping of g onto the normalized
    target hn to a full edge mapping.

    Grouping, peeling and 2-factorization are shared with the oracle
    (``covers._realize_edges``); fibres over semi-edges take the solver's
    own step, with ``matchings`` keyed (target vertex, block colour).
    ``rename(kind, colour, x, y)`` gives the block colour (and kind) of
    g's edges of a kind and colour whose ends map to x and y, as
    ``_Fibres.names`` files them, so g is read as parsed; without it g's
    colours must be hn's, as in a graph that ``normalize_colours`` made.
    A map that does not extend raises InternalCoverError, since it means
    the earlier phases let something slip."""
    log = trace.completion.append if trace is not None else None
    try:
        return _realize_edges(g, hn, fv, _matching_semi_step(g, matchings or {}), log, rename)
    except NotExtendable as exc:
        raise InternalCoverError(str(exc)) from exc


def companion_mapping(h: Graph, part: Partition, fv: dict[str, str]) -> dict[str, str]:
    """Swap the two target vertices of every doublet block in a vertex map."""
    swap = {}
    for i in part.doublets():
        a, b = part.blocks[i]
        swap[a], swap[b] = b, a
    return {u: swap.get(x, x) for u, x in fv.items()}


def solve_cover(g: Graph, h: Graph) -> SolveResult:
    """Decide whether g covers h for a connected all-harmless target and
    produce a verified certificate if so."""
    trace = SolveTrace()
    if h.n == 0 or not is_connected(h):
        raise UnsupportedTarget("target must be non-empty and connected")
    ph, mh, hn, classified = analyze_target(h)
    if hn is None:
        raise UnsupportedTarget("target has a degree-partition block of more than 2 vertices")
    for bg, cls in classified:
        if cls != HARMLESS:
            hint = " (use the oracle)" if cls == DANGEROUS else " (NP-complete target; use the oracle)"
            raise UnsupportedTarget(f"target contains a {cls} block graph {bg.shape}{hint}")
    shapes = [bg for bg, _ in classified]
    pg, mg = degree_partition(g)
    if pg.k != ph.k or mg != mh:
        trace.matrix_ok = False
        trace.failure = "degree refinement matrices differ"
        return SolveResult("no", None, trace)
    trace.matrix_ok = True
    fibres = _Fibres(g, pg)

    if not check_singletons(fibres, ph, shapes, trace):
        trace.failure = "singleton block check failed"
        return SolveResult("no", None, trace)
    if not preprocess_doublets(fibres, hn, ph, shapes, trace):
        trace.failure = "doublet preprocessing failed"
        return SolveResult("no", None, trace)
    sat = build_2sat(fibres, hn, pg, ph, shapes, trace)
    # completion reads g's edges under their block colours: block i of g
    # maps onto block i of h
    names, block_of = fibres.names, ph.block_of
    del fibres  # completion needs no fibre; free them before it allocates
    assignment = sat.solve()
    if assignment is None:
        trace.failure = "2-SAT unsatisfiable"
        trace.conflict = sat.conflict
        return SolveResult("no", None, trace)
    trace.assignment = assignment
    fv: dict[str, str] = {}
    for i, block in enumerate(pg.blocks):
        target = ph.blocks[i]
        if len(target) == 1:
            for u in block:
                fv[u] = target[0]
        else:
            b_i, c_i = target
            for u in block:
                fv[u] = b_i if assignment.get(u, True) else c_i
    matchings = {(x, c): ids for (i, c), ids in trace.matchings.items() for x in ph.blocks[i]}
    fe = complete_edge_mapping(g, hn, fv, matchings, trace,
                               lambda kind, colour, x, y: names[kind, colour, block_of[x], block_of[y]])
    projection = CoveringProjection(fv, fe)
    check = verify_cover(g, h, projection)
    if not check.ok:
        raise InternalCoverError(f"solver built an invalid certificate: {check.violations}")
    return SolveResult("yes", projection, trace)
