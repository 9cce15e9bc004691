"""Coloured mixed multigraphs with loops, directed edges and semi-edges.

The data model underlying the whole package: a graph is a set of coloured
vertices plus five kinds of coloured edges, each a first-class object with
its own id so that parallel edges can be told apart and edge mappings can
be written down explicitly.

Edge kinds (also the keywords of the textual format):

  edge   undirected normal edge between two distinct vertices
  arc    directed normal edge between two distinct vertices
  loop   undirected loop (contributes 2 to the degree)
  dloop  directed loop (contributes 1 to in- and 1 to out-degree)
  semi   semi-edge, a dangling half edge (contributes 1 to the degree)

Darts: a covering projection is a local bijection on darts, and
``darts(g, v)`` is the one place that turns the edges at a vertex into
their darts; every degree, dart count, dart tally and walk of the package
reads it, and only this module reads a graph's incidence lists.  The
component split (``components``), the 2-colouring (``bipartition``) and
the component shapes live here too, and all read one dart walk.

Colour discipline: vertex colours, directed edge colours and undirected
edge colours come from pairwise disjoint namespaces.  Arcs and directed
loops may share colours; edges, loops and semi-edges may share colours.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


UND = "u"
OUT = "o"
IN = "i"

_DIRECTED_KINDS = frozenset({"arc", "dloop"})


class GraphError(ValueError):
    pass


class ParseError(GraphError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Edge:
    """One edge of any kind; ``ends`` has two entries for edge/arc, one otherwise.

    Edges are values: two edges with equal ``(id, kind, colour, ends)`` are
    equal and hash alike, and nothing in the package changes an edge after
    it is made.  So a graph derived from another (a copy, a projection, a
    fibre) holds the very edge objects of the graph it came from, and a
    recoloured graph holds new edges with the old ids and ends.  The class
    keeps its fields in slots, which makes an edge cheap to build.
    """

    __slots__ = ("id", "kind", "colour", "ends")

    def __init__(self, id: str, kind: str, colour: str, ends: tuple[str, ...]):
        self.id = id
        self.kind = kind
        self.colour = colour
        self.ends = ends

    def __eq__(self, other) -> bool:
        if other.__class__ is not Edge:
            return NotImplemented
        return (self.id, self.kind, self.colour, self.ends) == \
            (other.id, other.kind, other.colour, other.ends)

    def __hash__(self) -> int:
        return hash((self.id, self.kind, self.colour, self.ends))

    def __repr__(self) -> str:
        return (f"Edge(id={self.id!r}, kind={self.kind!r}, colour={self.colour!r}, "
                f"ends={self.ends!r})")

    @property
    def directed(self) -> bool:
        return self.kind in _DIRECTED_KINDS

    @property
    def u(self) -> str:
        return self.ends[0]

    @property
    def v(self) -> str:
        return self.ends[-1]

    @property
    def tail(self) -> str:
        return self.ends[0]

    @property
    def head(self) -> str:
        return self.ends[-1]


class Graph:
    """A coloured mixed multigraph.

    There is one checked way in: ``_add_vertices``, the bulk vertex
    insert behind ``add_vertex`` and ``parse_graph``, and ``_add_edges``,
    the edge check behind ``add_edge`` and ``parse_graph``, check every
    id, endpoint and kind, and ``validate`` checks the colour namespaces.
    Graphs derived from a graph that passed those checks (``copy``,
    ``project``, colour normalization, the solver's fibres) skip them:
    they start from ``_derive`` with vertices of the source and insert the
    source's edges, or recoloured copies with the same ids and ends,
    through ``_put``, in the source's edge order, so incidence order is
    kept too.

    Treat a graph as immutable once built; every algorithm in the package
    assumes graphs do not change under its feet, which makes concurrent
    reads safe.
    """

    def __init__(self, name: str = "g"):
        self.name = name
        self._vcolour: dict[str, str] = {}
        self._edges: dict[str, Edge] = {}
        # incident edges per vertex, in insertion order; an edge or arc
        # appears at both ends, any other kind once
        self._inc: dict[str, list[Edge]] = {}

    # construction -----------------------------------------------------

    @classmethod
    def _derive(cls, name: str, vcolour: dict[str, str]) -> "Graph":
        """An edgeless graph on vertices already checked elsewhere; the new
        graph owns ``vcolour``."""
        g = cls(name)
        g._vcolour = vcolour
        g._inc = {v: [] for v in vcolour}
        return g

    def _put(self, edges: Iterable[Edge]) -> None:
        """Insert edges whose ids are new here and whose ends are vertices
        here, in order; the one insert primitive, with no checks of its own."""
        store, inc = self._edges, self._inc
        for e in edges:
            store[e.id] = e
            ends = e.ends
            inc[ends[0]].append(e)
            if len(ends) == 2:
                inc[ends[1]].append(e)

    def add_vertex(self, v: str, colour: str) -> None:
        self._add_vertices(((str(v), str(colour)),))

    def _add_vertices(self, rows, lines=None) -> None:
        """Insert the vertices of the string rows (id, colour), in order,
        each id new here.  The first row whose id is taken raises
        GraphError, or ParseError at ``lines[i]`` for row i when ``lines``
        is given, and the rows before it are taken out again, so nothing
        is inserted."""
        vcolour, inc = self._vcolour, self._inc
        start = len(vcolour)
        for v, colour in rows:
            if v in vcolour:
                # the rows inserted so far are the last ids here
                taken = list(vcolour)[start:]
                for w in taken:
                    del vcolour[w], inc[w]
                i = len(taken)
                message = f"duplicate vertex id {v!r}"
                # parse_graph may call this while a later line's fault is
                # raised; this fault replaces that one
                raise (GraphError(message) if lines is None else ParseError(message, lines[i])) from None
            vcolour[v] = colour
            inc[v] = []

    def add_edge(self, kind: str, eid: str, colour: str, u: str, v: str | None = None) -> Edge:
        (e,) = self._add_edges(((kind, eid, colour, u, v),)).values()
        return e

    def _add_edges(self, rows, lines=None) -> dict[str, Edge]:
        """Check the rows (kind, id, colour, u, v), v None for a one-ended
        kind: a known kind, an id new here, two distinct ends for an edge
        or arc and one for the other kinds, each a vertex here.  Then
        insert their edges in order through ``_put`` and return them by
        id.  Ids, colours and ends that are not strings are made strings.
        The first row that fails raises GraphError, or ParseError at
        ``lines[i]`` for row i when ``lines`` is given, and nothing is
        inserted."""
        vcolour, known = self._vcolour, self._edges
        # the rows checked so far, each id once
        batch: dict[str, Edge] = {}
        try:
            for kind, eid, colour, u, v in rows:
                if eid.__class__ is not str:
                    eid = str(eid)
                if colour.__class__ is not str:
                    colour = str(colour)
                if u.__class__ is not str:
                    u = str(u)
                if kind == "edge" or kind == "arc":
                    if eid in batch or eid in known:
                        raise GraphError(f"duplicate edge id {eid!r}")
                    if v.__class__ is not str:
                        if v is None:
                            raise GraphError(f"{kind} needs two endpoints")
                        v = str(v)
                    if u == v:
                        raise GraphError(
                            f"{kind} {eid!r} must join two distinct vertices"
                            + (" (directed loop must use dloop)" if kind == "arc" else " (use loop)")
                        )
                    if u not in vcolour or v not in vcolour:
                        w = v if u in vcolour else u
                        raise GraphError(f"edge {eid!r} references unknown vertex {w!r}")
                    batch[eid] = Edge(eid, kind, colour, (u, v))
                elif kind == "loop" or kind == "dloop" or kind == "semi":
                    if eid in batch or eid in known:
                        raise GraphError(f"duplicate edge id {eid!r}")
                    if v is not None and str(v) != u:
                        raise GraphError(f"{kind} has a single endpoint")
                    if u not in vcolour:
                        raise GraphError(f"edge {eid!r} references unknown vertex {u!r}")
                    batch[eid] = Edge(eid, kind, colour, (u,))
                else:
                    raise GraphError(f"unknown edge kind {kind!r}")
        except GraphError as exc:
            if lines is None:
                raise
            # every row before the failing one is in the batch
            raise ParseError(str(exc), lines[len(batch)]) from None
        self._put(batch.values())
        return batch

    # queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vcolour)

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self) -> list[str]:
        return list(self._vcolour)

    def has_vertex(self, v: str) -> bool:
        return v in self._vcolour

    def vertex_colour(self, v: str) -> str:
        return self._vcolour[v]

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def edge(self, eid: str) -> Edge:
        return self._edges[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edges

    def vertex_colours(self) -> set[str]:
        return set(self._vcolour.values())

    def edge_colours(self) -> set[str]:
        return {e.colour for e in self._edges.values()}

    def validate(self) -> None:
        """Check the colour-namespace discipline; construction checks the rest."""
        check_colours(self._vcolour.values(), {(e.kind, e.colour) for e in self._edges.values()})

    def copy(self, name: str | None = None) -> "Graph":
        g = Graph._derive(name if name is not None else self.name, dict(self._vcolour))
        g._put(self._edges.values())
        return g


def check_colours(vertex_colours: Iterable[str], kind_colours: Iterable[tuple[str, str]]) -> None:
    """The colour-namespace discipline over a graph's vertex colours and
    its (edge kind, edge colour) pairs: GraphError on the first clash."""
    vcols = set(vertex_colours)
    dcols: set[str] = set()
    ucols: set[str] = set()
    for kind, colour in kind_colours:
        (dcols if kind in _DIRECTED_KINDS else ucols).add(colour)
    for a, b, what in (
        (vcols, dcols, "vertex and directed edge"),
        (vcols, ucols, "vertex and undirected edge"),
        (dcols, ucols, "directed and undirected edge"),
    ):
        clash = a & b
        if clash:
            raise GraphError(f"{what} colours must be disjoint, shared: {sorted(clash)}")


# degrees and darts ------------------------------------------------------


class Darts(NamedTuple):
    """The darts at one vertex, ``darts`` grouped by ``vertex_darts``.

    ``ends`` maps (colour, direction) to the vertices the darts lead to,
    with counts in order of first appearance: a loop leads back twice, a
    semi-edge once, a directed loop once each way.  ``semis``, ``loops``
    and ``dloops`` count those edges per colour.
    """

    ends: dict[tuple[str, str], dict[str, int]]
    semis: dict[str, int]
    loops: dict[str, int]
    dloops: dict[str, int]


def darts(g: Graph, v: str) -> list[tuple[Edge, str, str, int]]:
    """The dart rule of the package: one (edge, direction, other end,
    count) per edge at ``v`` and direction of its darts there, in incidence
    order.  An edge leads once to its other end and an arc once out to its
    head or in from its tail; a loop leads back twice, a semi-edge once, a
    directed loop once out and then once in.  Every dart count and degree
    is read from this list."""
    out = []
    for e in g._inc[v]:
        kind = e.kind
        if kind == "edge":
            a, b = e.ends
            out.append((e, UND, b if a == v else a, 1))
        elif kind == "arc":
            tail, head = e.ends
            out.append((e, OUT, head, 1) if tail == v else (e, IN, tail, 1))
        elif kind == "loop":
            out.append((e, UND, v, 2))
        elif kind == "semi":
            out.append((e, UND, v, 1))
        else:
            out.append((e, OUT, v, 1))
            out.append((e, IN, v, 1))
    return out


def vertex_darts(g: Graph, v: str) -> Darts:
    """The darts of ``darts`` grouped by colour, direction and other end."""
    ends: dict = {}
    per_kind: dict[str, dict[str, int]] = {"semi": {}, "loop": {}, "dloop": {}}
    for e, d, w, c in darts(g, v):
        colour, kind = e.colour, e.kind
        inner = ends.get((colour, d))
        if inner is None:
            ends[colour, d] = {w: c}
        else:
            inner[w] = inner.get(w, 0) + c
        # one count per loop, semi-edge and directed loop, the last at its out-dart
        if kind in per_kind and d != IN:
            tally = per_kind[kind]
            tally[colour] = tally.get(colour, 0) + 1
    return Darts(ends, per_kind["semi"], per_kind["loop"], per_kind["dloop"])


def degree(g: Graph, v: str, colour: str, direction: str = UND) -> int:
    """The colour-degree of ``v``: semi-edges add 1, loops add 2, a directed
    loop adds 1 to both the in- and out-degree."""
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex {v!r}")
    if direction not in (UND, OUT, IN):
        raise GraphError(f"bad direction {direction!r}")
    ends = vertex_darts(g, v).ends
    if direction == UND and ((colour, OUT) in ends or (colour, IN) in ends):
        raise GraphError(f"colour {colour!r} is directed; query In or Out")
    if direction != UND and (colour, UND) in ends:
        raise GraphError(f"colour {colour!r} is undirected; query Undirected")
    return sum(ends.get((colour, direction), {}).values())


def total_degree(g: Graph, v: str) -> int:
    return sum(sum(to.values()) for to in vertex_darts(g, v).ends.values())


# textual format -----------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-based format; see the module docstring for the keywords."""
    g: Graph | None = None
    # vertex rows (id, colour), then edge rows (kind, id, colour, u, v),
    # each with their line numbers, checked and inserted in bulk after the
    # last line; a one-ended edge row has None for v
    vrows: list[tuple[str, str]] = []
    vlines: list[int] = []
    rows: list[tuple] = []
    lines: list[int] = []

    def edge_first() -> ParseError:
        # edge rows buffered while g is None came before the graph
        # directive: the first of them is the first fault, checked where
        # the directive is read and where a line before it fails
        return ParseError(f"{rows[0][0]} before graph directive", lines[0])

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:
                raw = raw[:raw.index("#")]
            tok = raw.split()
            if not tok:
                continue
            kw = tok[0]
            if kw == "edge" or kw == "arc":
                if len(tok) != 5:
                    raise ParseError(f"{kw} <id> <colour> <u> <v>", lineno)
                rows.append(tuple(tok))
                lines.append(lineno)
            elif kw == "vertex":
                if g is None:
                    raise ParseError("vertex before graph directive", lineno)
                if len(tok) != 3:
                    raise ParseError("vertex <id> <colour>", lineno)
                vrows.append((tok[1], tok[2]))
                vlines.append(lineno)
            elif kw == "loop" or kw == "dloop" or kw == "semi":
                if len(tok) != 4:
                    raise ParseError(f"{kw} <id> <colour> <u>", lineno)
                rows.append((kw, tok[1], tok[2], tok[3], None))
                lines.append(lineno)
            elif kw == "graph":
                if g is not None:
                    raise ParseError("duplicate graph directive", lineno)
                if rows:
                    raise edge_first()
                if len(tok) != 2:
                    raise ParseError("graph directive takes one name", lineno)
                g = Graph(tok[1])
            else:
                raise ParseError(f"unknown directive {kw!r}", lineno)
    except ParseError:
        if g is None and rows:
            raise edge_first() from None
        # a vertex row on an earlier line may hold the first fault
        if g is not None:
            g._add_vertices(vrows, vlines)
        raise
    if g is None:
        raise ParseError("missing graph directive")
    g._add_vertices(vrows, vlines)
    g._add_edges(rows, lines)
    try:
        g.validate()
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    return g


def serialize_graph(g: Graph) -> str:
    lines = [f"graph {g.name}"]
    for v in g.vertices():
        lines.append(f"vertex {v} {g.vertex_colour(v)}")
    for e in g.edges():
        lines.append(f"{e.kind} {e.id} {e.colour} {' '.join(e.ends)}")
    return "\n".join(lines) + "\n"


# structural operations ------------------------------------------------------


def project(g: Graph, vertices: Iterable[str] | None = None, colours: Iterable[str] | None = None) -> Graph:
    """Induced subgraph on ``vertices`` and/or spanning subgraph on ``colours``.

    With both arguments the result keeps the given vertices and exactly the
    edges of the given colours whose endpoints all survive.
    """
    if vertices is None:
        keep_v = set(g.vertices())
    else:
        keep_v = {str(v) for v in vertices}
        unknown = keep_v - set(g.vertices())
        if unknown:
            raise GraphError(f"unknown vertices in subset: {sorted(unknown)}")
    keep_c = None if colours is None else {str(c) for c in colours}
    out = Graph._derive(g.name, {v: c for v, c in g._vcolour.items() if v in keep_v})
    out._put(e for e in g._edges.values()
             if (keep_c is None or e.colour in keep_c) and all(w in keep_v for w in e.ends))
    return out


def walks(g: Graph) -> Iterator[Iterator[tuple[str, list]]]:
    """The one component walk: per component, from the first unseen vertex
    in vertex order, each vertex with its ``darts`` as the walk leaves it.
    Every dart leads on to its other end, so semi-edges, loops and directed
    loops reach nothing new and arcs join regardless of direction.  Read
    each component's walk to its end before taking the next."""
    seen: set[str] = set()

    def walk(start: str) -> Iterator[tuple[str, list]]:
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            ds = darts(g, v)
            yield v, ds
            for _, _, w, _ in ds:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)

    for start in g.vertices():
        if start not in seen:
            yield walk(start)


def components(g: Graph) -> list[list[str]]:
    """Connected components under all edges regardless of direction.

    Semi-edges do not connect anything.  Components are returned sorted,
    each as a sorted vertex list.
    """
    return sorted(sorted(v for v, _ in walk) for walk in walks(g))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or sum(1 for _ in next(walks(g))) == g.n


def is_tree(g: Graph) -> bool:
    """Connected, no loops, no semi-edges, no parallel/opposite pairs, no
    cycles.  The counts and edge kinds decide most graphs, so only a graph
    with n - 1 normal edges is walked."""
    if g.n == 0 or g.m != g.n - 1:
        return False
    if any(e.kind in ("loop", "dloop", "semi") for e in g.edges()):
        return False
    return is_connected(g)


def bipartition(g: Graph) -> dict[str, int] | None:
    """A 2-colouring under all edges regardless of direction: side 0 or 1
    per vertex, the first vertex of every component on side 0, or None
    when an odd cycle (a loop included) joins two vertices of one side.
    Semi-edges join nothing."""
    side: dict[str, int] = {}
    for walk in walks(g):
        for v, ds in walk:
            # a component's first vertex is the only one the walk leaves unsided
            other = 1 - side.setdefault(v, 0)
            for e, _, w, _ in ds:
                if e.kind == "semi":
                    continue
                s = side.setdefault(w, other)
                if s != other:
                    return None
    return side


OPEN_PATH = "open_path"
EVEN_CYCLE = "even_cycle"
ODD_CYCLE = "odd_cycle"
OTHER = "other"


def component_shapes(g: Graph) -> list[tuple[list[str], str]]:
    """The shape of every component of a monochromatic undirected graph.

    The walk that ``components`` reads finds the components, in its order
    and form, and the dart counts that classify them.  Loops count as
    cycles of length 1 and a pair of parallel edges as a cycle of length
    2.  An open path may end in semi-edge stubs, so a lone vertex with two
    semi-edges is an open path of length zero.
    """
    if len(g.edge_colours()) > 1:
        raise GraphError("component shape needs a monochromatic graph")
    if any(e.directed for e in g.edges()):
        raise GraphError("component shape is defined for undirected graphs")
    out = []
    for walk in walks(g):
        comp = []
        normals = 0  # normal darts: twice the edges and loops
        fits, path_end = True, False
        for v, ds in walk:
            comp.append(v)
            semis = sum(1 for e, _, _, _ in ds if e.kind == "semi")
            normal = sum(c for _, _, _, c in ds) - semis
            normals += normal
            fits = fits and normal + semis <= 2
            path_end = path_end or normal <= 1
        # with at most two darts everywhere and no path end, every vertex
        # has two normal darts and no semi-edge: a cycle
        if not fits:
            shape = OTHER
        elif path_end:
            shape = OPEN_PATH
        else:
            shape = EVEN_CYCLE if normals % 4 == 0 else ODD_CYCLE
        out.append((sorted(comp), shape))
    out.sort()
    return out


def classify_component_shape(g: Graph) -> str:
    """The shape of a connected monochromatic undirected graph; see
    ``component_shapes``."""
    if g.n == 0:
        raise GraphError("empty graph has no shape")
    shapes = component_shapes(g)
    if len(shapes) != 1:
        raise GraphError("component shape needs a connected graph")
    return shapes[0][1]
