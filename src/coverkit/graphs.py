"""Coloured mixed multigraphs with loops, directed edges and semi-edges.

The data model underlying the whole package: a graph is a set of named,
coloured vertices plus five kinds of coloured edges, each with its own id
so that parallel edges can be told apart and edge mappings can be written
down explicitly.  A graph keeps its edges in columns: parallel lists of
ids, kinds, colours and ends, indexed by an edge's handle, its position in
insertion order.  ``Edge`` objects are values built on request only.

Edge kinds (also the keywords of the textual format):

  edge   undirected normal edge between two distinct vertices
  arc    directed normal edge between two distinct vertices
  loop   undirected loop (contributes 2 to the degree)
  dloop  directed loop (contributes 1 to in- and 1 to out-degree)
  semi   semi-edge, a dangling half edge (contributes 1 to the degree)

Darts: a covering projection is a local bijection on darts, and
``darts(g, v)`` is the one place that turns the edges at a vertex into
their darts; every degree, dart count, dart tally and walk of the package
reads it, and only this module reads a graph's storage.  The component
split (``components``), the 2-colouring (``bipartition``) and the
component shapes live here too, and all read one dart walk.

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
# each kind keyword to itself, so a graph holds one string per kind
_KINDS = {kind: kind for kind in ("edge", "arc", "loop", "dloop", "semi")}


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
    equal and hash alike.  A graph does not hold Edge objects;
    ``Graph.edge`` and ``Graph.edges`` build one from the graph's columns
    each time they are asked, so the same edge read twice gives two equal
    objects.  The class keeps its fields in slots, which makes an edge
    cheap to build.
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


def _check_tokens(*tokens: str) -> None:
    """GraphError unless each string can be written as one token of the
    text format, ``tok.split() == [tok] and "#" not in tok``: not empty,
    without whitespace and without ``#``.  A string that ``isalnum`` is
    one, so callers test that first."""
    # a printable string holds no whitespace but the space
    joined = "".join(tokens)
    if "" not in tokens and joined.isprintable() and " " not in joined and "#" not in joined:
        return
    for tok in tokens:
        if tok.split() != [tok] or "#" in tok:
            raise GraphError(f"{tok!r} is not a token of the text format: "
                             "names and colours must be non-empty, without whitespace or '#'")


class Graph:
    """A coloured mixed multigraph.

    Vertices are named; per vertex the graph keeps its colour and the
    handles of its edges in insertion order.  Edges live in the parallel
    lists of ``columns``, with an index from id to handle.

    There is one checked way in: ``_insert``, the bulk insert behind
    ``add_vertex``, ``add_edge`` and ``parse_graph``, checks every id,
    endpoint and kind, and ``validate`` checks the colour namespaces.
    Graphs derived from a graph that passed those checks (``copy``,
    ``project``, colour normalization, the solver's fibres) skip them:
    ``derive`` builds them from the source's vertices and edge handles,
    in the source's edge order, so incidence order is kept too.

    Treat a graph as immutable once built; every algorithm in the package
    assumes graphs do not change under its feet, which makes concurrent
    reads safe.
    """

    def __init__(self, name: str = "g"):
        self.name = name
        self._vcolour: dict[str, str] = {}
        # per vertex the handles of its edges, in insertion order; an edge
        # or arc appears at both ends, any other kind once
        self._inc: dict[str, list[int]] = {}
        # the edge columns of ``columns``
        self._cols: tuple[list[str], ...] = ([], [], [], [], [])
        self._handle: dict[str, int] = {}

    # construction -----------------------------------------------------

    def add_vertex(self, v: str, colour: str) -> None:
        """Insert vertex ``v``; a name or colour that is not a string is
        made one."""
        v, colour = str(v), str(colour)
        if not (v.isalnum() and colour.isalnum()):
            _check_tokens(v, colour)
        self._insert((("vertex", v, colour),))

    def add_edge(self, kind: str, eid: str, colour: str, u: str, v: str | None = None) -> None:
        """Insert an edge; ``v`` is None for a one-ended kind, or equal to
        ``u``.  Ids, colours and ends that are not strings are made
        strings.  The ends need no token check: they must be vertices."""
        known = _KINDS.get(kind)
        if known is None:
            raise GraphError(f"unknown edge kind {kind!r}")
        eid, colour, u = str(eid), str(colour), str(u)
        if not (eid.isalnum() and colour.isalnum()):
            _check_tokens(eid, colour)
        if v is None or (known != "edge" and known != "arc" and str(v) == u):
            self._insert(((known, eid, colour, u),))
        else:
            self._insert(((known, eid, colour, u, str(v)),))

    def _insert(self, rows) -> None:
        """The one checked insert.  Each row is one line of the text format
        split into tokens: ("vertex", id, colour), (kind, id, colour, u, v)
        for an edge or arc, (kind, id, colour, u) for the other kinds; an
        empty row is skipped.  Every id must be new, the two ends of an edge
        or arc distinct, and every end a vertex once the last row is in, so
        an edge may come before its ends' vertex rows.  The first fault
        raises GraphError and takes every row out again."""
        vcolour, inc, handle = self._vcolour, self._inc, self._handle
        ids, kinds, colours, first, last = self._cols
        n0 = len(vcolour)
        k = m0 = len(handle)
        # (end, handle) of each end met before its vertex row
        ahead: list[tuple[str, int]] = []
        try:
            for tok in rows:
                if not tok:
                    continue
                kw = tok[0]
                if kw == "vertex":
                    if len(tok) != 3 or tok[1] in vcolour:
                        raise GraphError(self._fault(tok))
                    vcolour[tok[1]] = tok[2]
                    inc[tok[1]] = []
                    continue
                if kw == "edge" or kw == "arc":
                    if len(tok) != 5:
                        raise GraphError(self._fault(tok))
                    _, eid, colour, u, v = tok
                    if eid in handle or u == v:
                        raise GraphError(self._fault(tok))
                    try:
                        inc[u].append(k)
                    except KeyError:
                        ahead.append((u, k))
                    try:
                        inc[v].append(k)
                    except KeyError:
                        ahead.append((v, k))
                    kinds.append("edge" if kw == "edge" else "arc")
                    last.append(v)
                elif kw == "loop" or kw == "semi" or kw == "dloop":
                    if len(tok) != 4:
                        raise GraphError(self._fault(tok))
                    _, eid, colour, u = tok
                    if eid in handle:
                        raise GraphError(self._fault(tok))
                    try:
                        inc[u].append(k)
                    except KeyError:
                        ahead.append((u, k))
                    kinds.append(_KINDS[kw])
                    last.append(u)
                else:
                    raise GraphError(self._fault(tok))
                handle[eid] = k
                ids.append(eid)
                colours.append(colour)
                first.append(u)
                k += 1
            if ahead:
                self._file_ahead(ahead)
        except GraphError:
            self._truncate(n0, m0)
            raise

    def _fault(self, tok) -> str:
        """The message for a row that ``_insert`` refuses, its checks in
        the order ``add_edge`` reports them: id, number of ends, distinct
        ends."""
        kw = tok[0]
        if kw == "vertex":
            return f"duplicate vertex id {tok[1]!r}" if len(tok) == 3 else "vertex <id> <colour>"
        if kw not in _KINDS:
            return f"unknown edge kind {kw!r}"
        if not 4 <= len(tok) <= 5:
            return f"{kw} <id> <colour> <u> [<v>]"
        eid = tok[1]
        if eid in self._handle:
            return f"duplicate edge id {eid!r}"
        if kw == "edge" or kw == "arc":
            if len(tok) == 4:
                return f"{kw} needs two endpoints"
            return (f"{kw} {eid!r} must join two distinct vertices"
                    + (" (directed loop must use dloop)" if kw == "arc" else " (use loop)"))
        return f"{kw} has a single endpoint"

    def _file_ahead(self, ahead: list[tuple[str, int]]) -> None:
        """File each edge at the ends that were not vertices yet when its
        row came: before every handle filed at the end since its vertex
        row, as those rows came later.  GraphError for an end that is no
        vertex even now."""
        early: dict[str, list[int]] = {}
        for w, k in ahead:
            if w not in self._vcolour:
                raise GraphError(f"edge {self._cols[0][k]!r} references unknown vertex {w!r}")
            early.setdefault(w, []).append(k)
        for w, ks in early.items():
            self._inc[w][:0] = ks

    def _truncate(self, n: int, m: int) -> None:
        """Take out every vertex after the first n and every edge after
        the first m."""
        vcolour, inc = self._vcolour, self._inc
        for v in list(vcolour)[n:]:
            del vcolour[v], inc[v]
        for eid in self._cols[0][m:]:
            del self._handle[eid]
        for column in self._cols:
            del column[m:]
        for ks in inc.values():
            while ks and ks[-1] >= m:
                ks.pop()

    # queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vcolour)

    @property
    def m(self) -> int:
        return len(self._handle)

    def vertices(self) -> list[str]:
        return list(self._vcolour)

    def has_vertex(self, v: str) -> bool:
        return v in self._vcolour

    def vertex_colour(self, v: str) -> str:
        return self._vcolour[v]

    def columns(self) -> tuple[list[str], list[str], list[str], list[str], list[str]]:
        """The edges as parallel lists indexed by edge handle, in insertion
        order: ids, kinds, colours, first ends and last ends.  An edge or
        arc has two distinct ends; any other kind has its one end as both
        its first and its last, so ``first[k] == last[k]`` exactly when
        edge k has one end.  The lists are the graph's own: read them,
        never change them."""
        return self._cols

    def _edge_at(self, k: int) -> Edge:
        ids, kinds, colours, first, last = self._cols
        a, b = first[k], last[k]
        return Edge(ids[k], kinds[k], colours[k], (a,) if a == b else (a, b))

    def edges(self) -> Iterator[Edge]:
        """Every edge, as a new Edge, in insertion order."""
        return map(self._edge_at, range(self.m))

    def edge(self, eid: str) -> Edge:
        """The edge of id ``eid``, as a new Edge; KeyError if there is none."""
        return self._edge_at(self._handle[eid])

    def has_edge(self, eid: str) -> bool:
        return eid in self._handle

    def vertex_colours(self) -> set[str]:
        return set(self._vcolour.values())

    def edge_colours(self) -> set[str]:
        return set(self._cols[2])

    def validate(self) -> None:
        """Check the colour-namespace discipline; construction checks the rest."""
        _, kinds, colours, _, _ = self._cols
        check_colours(self._vcolour.values(), set(zip(kinds, colours)))

    def copy(self, name: str | None = None) -> "Graph":
        return derive(self, dict(self._vcolour), name=name)


def derive(g: Graph, vcolour: dict[str, str], handles: Iterable[int] | None = None,
           kinds: list[str] | None = None, colours: list[str] | None = None,
           name: str | None = None) -> Graph:
    """A graph derived from g, with no checks of its own: the vertices of
    ``vcolour``, which the new graph owns, in its order, and g's edges at
    ``handles`` (every edge when None), in that order, with their ids and
    ends.  ``kinds`` and ``colours``, when given, hold the new kind and
    colour of each, in the same order; an edge keeps its ends, so only an
    arc between two vertices may become an edge.  Every end must be a key
    of ``vcolour``.  The name is g's unless ``name`` is given."""
    out = Graph(g.name if name is None else name)
    out._vcolour = vcolour
    inc = out._inc = {v: [] for v in vcolour}
    if handles is None:
        picked = [column[:] for column in g._cols]
    else:
        handles = list(handles)
        picked = [[column[k] for k in handles] for column in g._cols]
    if kinds is not None:
        picked[1] = kinds
    if colours is not None:
        picked[2] = colours
    ids, _, _, first, last = out._cols = tuple(picked)
    out._handle = dict(zip(ids, range(len(ids))))
    for k, (a, b) in enumerate(zip(first, last)):
        inc[a].append(k)
        if b != a:
            inc[b].append(k)
    return out


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


def darts(g: Graph, v: str) -> list[tuple[int, str, str, int]]:
    """The dart rule of the package: one (edge handle, direction, other
    end, count) per edge at ``v`` and direction of its darts there, in
    incidence order; ``g.columns()`` reads a handle's id, kind and colour.
    An edge leads once to its other end and an arc once out to its head or
    in from its tail; a loop leads back twice, a semi-edge once, a
    directed loop once out and then once in.  Every dart count and degree
    is read from this list."""
    _, kinds, _, first, last = g._cols
    out = []
    for k in g._inc[v]:
        kind = kinds[k]
        if kind == "edge":
            a = first[k]
            out.append((k, UND, last[k] if a == v else a, 1))
        elif kind == "arc":
            tail = first[k]
            out.append((k, OUT, last[k], 1) if tail == v else (k, IN, tail, 1))
        elif kind == "loop":
            out.append((k, UND, v, 2))
        elif kind == "semi":
            out.append((k, UND, v, 1))
        else:
            out.append((k, OUT, v, 1))
            out.append((k, IN, v, 1))
    return out


def vertex_darts(g: Graph, v: str) -> Darts:
    """The darts of ``darts`` grouped by colour, direction and other end."""
    _, kinds, colours, _, _ = g._cols
    ends: dict = {}
    per_kind: dict[str, dict[str, int]] = {"semi": {}, "loop": {}, "dloop": {}}
    for k, d, w, c in darts(g, v):
        colour, kind = colours[k], kinds[k]
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
    """Parse the line-based format; see the module docstring for the keywords.

    The first line that is not blank must name the graph; every later
    line goes through ``Graph._insert`` in one pass, and the colour
    namespaces are checked at the end.  A text that fails is read again
    by ``_parse_fault``, which names its first fault and the line of it."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    rows = map(str.split, lines)
    tok = next(filter(None, rows), [])
    if len(tok) == 2 and tok[0] == "graph":
        g = Graph(tok[1])
        try:
            g._insert(rows)
            fault = None
        except GraphError as exc:
            fault = str(exc)
    else:
        fault = "the first line that is not blank must name the graph"
    if fault is not None:
        raise _parse_fault(lines) or ParseError(fault)
    try:
        g.validate()
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    return g


def _parse_fault(lines: list[str]) -> ParseError | None:
    """The first fault of a text, as lines with comments cut, or None.
    Faults of a single line come first, by line: a wrong number of
    tokens, an unknown directive, a vertex line before the graph line or
    a second graph line; an edge line before the graph line is the fault
    of the first such line.  A vertex id met twice before that line comes
    before it.  Then, for a text without those, a missing graph line, a
    vertex id met twice, and then per edge line in order an id met
    before, two equal ends of an edge or arc, and an end that no vertex
    line names."""
    named = False
    vertices: set[str] = set()
    repeated: ParseError | None = None
    edges: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(lines, start=1):
        tok = line.split()
        if not tok:
            continue
        kw, fault = tok[0], None
        if kw == "edge" or kw == "arc":
            if len(tok) == 5:
                edges.append((lineno, tok))
            else:
                fault = f"{kw} <id> <colour> <u> <v>"
        elif kw == "vertex":
            if not named:
                fault = "vertex before graph directive"
            elif len(tok) != 3:
                fault = "vertex <id> <colour>"
            elif tok[1] not in vertices:
                vertices.add(tok[1])
            elif repeated is None:
                repeated = ParseError(f"duplicate vertex id {tok[1]!r}", lineno)
        elif kw == "loop" or kw == "dloop" or kw == "semi":
            if len(tok) == 4:
                edges.append((lineno, tok))
            else:
                fault = f"{kw} <id> <colour> <u>"
        elif kw == "graph":
            if named:
                fault = "duplicate graph directive"
            elif edges or len(tok) != 2:
                fault = "graph directive takes one name"
            else:
                named = True
        else:
            fault = f"unknown directive {kw!r}"
        if fault is not None:
            if not named and edges:
                first_line, first = edges[0]
                return ParseError(f"{first[0]} before graph directive", first_line)
            return repeated or ParseError(fault, lineno)
    if not named:
        return ParseError("missing graph directive")
    if repeated is not None:
        return repeated
    ids: set[str] = set()
    for lineno, (kind, eid, _, u, *v) in edges:
        if eid in ids:
            return ParseError(f"duplicate edge id {eid!r}", lineno)
        ids.add(eid)
        if v and u == v[0]:
            return ParseError(f"{kind} {eid!r} must join two distinct vertices"
                              + (" (directed loop must use dloop)" if kind == "arc" else " (use loop)"), lineno)
        for w in (u, *v):
            if w not in vertices:
                return ParseError(f"edge {eid!r} references unknown vertex {w!r}", lineno)
    return None


def serialize_graph(g: Graph) -> str:
    """The text of g in the line-based format, which ``parse_graph`` reads
    back.  GraphError for a name that is not one token; ids and colours
    were checked on the way in."""
    _check_tokens(str(g.name))
    lines = [f"graph {g.name}"]
    lines += [f"vertex {v} {colour}" for v, colour in g._vcolour.items()]
    lines += [f"{kind} {eid} {colour} {a} {b}" if a != b else f"{kind} {eid} {colour} {a}"
              for eid, kind, colour, a, b in zip(*g._cols)]
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
    _, _, ecolours, first, last = g.columns()
    return derive(g, {v: c for v, c in g._vcolour.items() if v in keep_v},
                  [k for k, (c, a, b) in enumerate(zip(ecolours, first, last))
                   if (keep_c is None or c in keep_c) and a in keep_v and b in keep_v])


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
    if any(kind in ("loop", "dloop", "semi") for kind in g._cols[1]):
        return False
    return is_connected(g)


def bipartition(g: Graph) -> dict[str, int] | None:
    """A 2-colouring under all edges regardless of direction: side 0 or 1
    per vertex, the first vertex of every component on side 0, or None
    when an odd cycle (a loop included) joins two vertices of one side.
    Semi-edges join nothing."""
    kinds = g._cols[1]
    side: dict[str, int] = {}
    for walk in walks(g):
        for v, ds in walk:
            # a component's first vertex is the only one the walk leaves unsided
            other = 1 - side.setdefault(v, 0)
            for k, _, w, _ in ds:
                if kinds[k] == "semi":
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
    kinds = g._cols[1]
    if len(g.edge_colours()) > 1:
        raise GraphError("component shape needs a monochromatic graph")
    if any(kind in _DIRECTED_KINDS for kind in kinds):
        raise GraphError("component shape is defined for undirected graphs")
    out = []
    for walk in walks(g):
        comp = []
        normals = 0  # normal darts: twice the edges and loops
        fits, path_end = True, False
        for v, ds in walk:
            comp.append(v)
            semis = sum(1 for k, _, _, _ in ds if kinds[k] == "semi")
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
