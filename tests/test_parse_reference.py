"""``parse_graph`` against the parse it replaced.

``parse_graph`` fills a graph's columns in one pass through
``Graph._insert`` and, for a text that fails, reads it again to name the
first fault and its line.  The reference below is the earlier parse: it
buffers vertex rows and edge rows with their line numbers, inserts the
vertices in bulk, then checks and inserts the edges in bulk, and checks
the colour namespaces last.  It keeps its own store of edge tuples and
turns the edges at a vertex into darts by the same rule, so on a valid
text both must give the same name, vertex order and colours, edge order
and fields, darts at every vertex (as edge ids) and serialization, and
on a faulty text the same message at the same line.
"""

import random

import pytest

from coverkit.gadgets import build_gphi_fw, directed_lift_wd, fw_target, random_formula, random_regular, wd_target
from coverkit.graphs import IN, OUT, UND, GraphError, ParseError, check_colours, darts, parse_graph, serialize_graph

from hosts import crossed_ww_host, harmless_hosts, random_lift


class ReferenceGraph:
    """The earlier store: vertex colours, edges (kind, id, colour, ends)
    by id, and per vertex its edges in insertion order."""

    def __init__(self, name):
        self.name = name
        self.vcolour = {}
        self.edges = {}
        self.inc = {}

    def add_vertices(self, rows, lines):
        start = len(self.vcolour)
        for i, (v, colour) in enumerate(rows):
            if v in self.vcolour:
                for w in list(self.vcolour)[start:]:
                    del self.vcolour[w], self.inc[w]
                raise ParseError(f"duplicate vertex id {v!r}", lines[i])
            self.vcolour[v] = colour
            self.inc[v] = []

    def add_edges(self, rows, lines):
        batch = {}
        for i, (kind, eid, colour, u, v) in enumerate(rows):
            if eid in batch or eid in self.edges:
                raise ParseError(f"duplicate edge id {eid!r}", lines[i])
            if kind in ("edge", "arc"):
                if u == v:
                    raise ParseError(f"{kind} {eid!r} must join two distinct vertices"
                                     + (" (directed loop must use dloop)" if kind == "arc" else " (use loop)"),
                                     lines[i])
                if u not in self.vcolour or v not in self.vcolour:
                    w = v if u in self.vcolour else u
                    raise ParseError(f"edge {eid!r} references unknown vertex {w!r}", lines[i])
                batch[eid] = (kind, eid, colour, (u, v))
            else:
                if u not in self.vcolour:
                    raise ParseError(f"edge {eid!r} references unknown vertex {u!r}", lines[i])
                batch[eid] = (kind, eid, colour, (u,))
        for e in batch.values():
            self.edges[e[1]] = e
            for w in dict.fromkeys(e[3]):
                self.inc[w].append(e)

    def darts(self, v):
        """The dart rule of ``graphs.darts``, with edge ids for handles."""
        out = []
        for kind, eid, _, ends in self.inc[v]:
            if kind == "edge":
                a, b = ends
                out.append((eid, UND, b if a == v else a, 1))
            elif kind == "arc":
                tail, head = ends
                out.append((eid, OUT, head, 1) if tail == v else (eid, IN, tail, 1))
            elif kind == "loop":
                out.append((eid, UND, v, 2))
            elif kind == "semi":
                out.append((eid, UND, v, 1))
            else:
                out.append((eid, OUT, v, 1))
                out.append((eid, IN, v, 1))
        return out

    def serialize(self):
        lines = [f"graph {self.name}"]
        lines += [f"vertex {v} {c}" for v, c in self.vcolour.items()]
        lines += [f"{kind} {eid} {colour} {' '.join(ends)}" for kind, eid, colour, ends in self.edges.values()]
        return "\n".join(lines) + "\n"


def parse_reference(text):
    g = None
    vrows, vlines, rows, lines = [], [], [], []

    def edge_first():
        return ParseError(f"{rows[0][0]} before graph directive", lines[0])

    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:
                raw = raw[:raw.index("#")]
            tok = raw.split()
            if not tok:
                continue
            kw = tok[0]
            if kw in ("edge", "arc"):
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
            elif kw in ("loop", "dloop", "semi"):
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
                g = ReferenceGraph(tok[1])
            else:
                raise ParseError(f"unknown directive {kw!r}", lineno)
    except ParseError:
        if g is None and rows:
            raise edge_first() from None
        if g is not None:
            g.add_vertices(vrows, vlines)
        raise
    if g is None:
        raise ParseError("missing graph directive")
    g.add_vertices(vrows, vlines)
    g.add_edges(rows, lines)
    try:
        check_colours(g.vcolour.values(), {(kind, colour) for kind, _, colour, _ in g.edges.values()})
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    return g


def assert_parsed_alike(text):
    want = parse_reference(text)
    got = parse_graph(text)
    ids = got.columns()[0]
    assert got.name == want.name
    assert [(v, got.vertex_colour(v)) for v in got.vertices()] == list(want.vcolour.items())
    assert [(e.kind, e.id, e.colour, e.ends) for e in got.edges()] == list(want.edges.values())
    for v in want.vcolour:
        assert [(ids[k], d, w, c) for k, d, w, c in darts(got, v)] == want.darts(v), v
    assert serialize_graph(got) == want.serialize()


def scrambled(text, rng):
    """The lines after the graph line in random order, so that edge lines
    come before the vertex lines of their ends."""
    head, *rest = text.splitlines()
    rng.shuffle(rest)
    return "\n".join([head, *rest]) + "\n"


def valid_texts():
    rng = random.Random(32)
    hosts = [h for _, h in harmless_hosts()] + [crossed_ww_host()]
    for h in hosts:
        for r in (1, 4, 8):
            text = serialize_graph(random_lift(h, r, rng.randrange(10**6)))
            yield text
            yield scrambled(text, rng)
        yield serialize_graph(h)
    for seed in range(6):
        yield serialize_graph(build_gphi_fw(3, random_formula(3, 4, 3, seed)))
    yield serialize_graph(fw_target(3))
    for seed in range(4):
        g, _ = random_regular("bipartite", 3, 4, seed)
        yield serialize_graph(directed_lift_wd(g, 2, 1))
    yield serialize_graph(wd_target(2, 1))
    # comments, blank lines, tabs and CRLF endings, and a vertex named
    # after a keyword
    yield "# a comment first\n\ngraph g # named\nvertex a n\n\tvertex b n\r\nedge e c a b # and a note\n"
    yield "graph g\r\n\r\nvertex edge n\r\nvertex b n\r\nsemi s c edge\r\n#\nloop l c b\n"
    yield "graph g\nsemi s c a\narc x d a b\ndloop y d b\nvertex b n\nvertex a n\nloop l c b\nedge z c b a\n"
    yield "graph empty\n"


def edges_before_their_ends(text):
    """Whether an edge line of the text names a vertex before its vertex line."""
    seen = set()
    for line in text.splitlines():
        tok = line.partition("#")[0].split()
        if tok[:1] == ["vertex"]:
            seen.add(tok[1])
        elif tok[:1] in (["edge"], ["arc"], ["loop"], ["dloop"], ["semi"]) and not seen.issuperset(tok[3:]):
            return True
    return False


def test_parse_matches_its_reference_on_valid_texts():
    texts = list(valid_texts())
    for text in texts:
        assert_parsed_alike(text)
    assert len(texts) >= 200
    assert sum(map(edges_before_their_ends, texts)) >= 50


FAULTS = {
    # a repeated vertex id comes before a later line's fault, and before
    # every edge fault
    "duplicate vertex, then a bad line": "graph g\nvertex a n\nvertex a m\nvertex b\n",
    "duplicate vertex, then an unknown end": "graph g\nvertex a n\nedge e c a z\nvertex a n\n",
    "duplicate vertex, then an unknown directive": "graph g\nvertex a n\nvertex a n\nwobble\n",
    "edge before graph": "edge e c a b\ngraph g\nvertex a n\nvertex b n\n",
    "semi before graph, then a bad line": "\nsemi s c a\nvertex a n\n",
    "edge before graph, then no graph": "edge e c a b\n",
    "vertex before graph": "vertex a n\ngraph g\n",
    "unknown vertex": "graph g\nvertex a n\nedge e c a b\n",
    "unknown vertex of a semi-edge": "graph g\nvertex a n\nsemi s c z\n",
    "unknown first end": "graph g\nvertex b n\narc e d z b\n",
    "both ends unknown": "graph g\nvertex a n\nedge e c y z\n",
    "arc with equal ends": "graph g\nvertex a n\narc e d a a\n",
    "edge with equal ends": "graph g\nvertex a n\nedge e c a a\n",
    "equal ends after an unknown end": "graph g\nvertex a n\nedge e c a z\nedge f c a a\n",
    "duplicate edge id": "graph g\nvertex a n\nvertex b n\nedge e c a b\nloop e c a\n",
    "duplicate edge id across kinds": "graph g\nvertex a n\nsemi s c a\ndloop s d a\n",
    "edge with three tokens": "graph g\nvertex a n\nedge e c a\n",
    "arc with six tokens": "graph g\nvertex a n\narc e d a a a\n",
    "loop with two ends": "graph g\nvertex a n\nloop l c a a\n",
    "dloop with no end": "graph g\nvertex a n\ndloop l d\n",
    "semi with two ends": "graph g\nvertex a n\nsemi s c a a\n",
    "vertex without colour": "graph g\nvertex a\n",
    "vertex with two colours": "graph g\nvertex a n m\n",
    "graph without name": "graph\nvertex a n\n",
    "graph with two names": "graph g h\n",
    "unknown directive": "graph g\nvertex a n\nwobble a\n",
    "unknown directive with a comment": "graph g\r\n# note\r\nnode a n\r\n",
    "duplicate graph line": "graph g\nvertex a n\ngraph h\n",
    "missing graph line": "",
    "missing graph line, comments only": "# nothing\n\n",
    "vertex and directed colours": "graph g\nvertex a n\nvertex b n\narc e n a b\n",
    "vertex and undirected colours": "graph g\nvertex a n\nsemi s n a\n",
    "directed and undirected colours": "graph g\nvertex a n\nvertex b n\nedge e c a b\narc f c a b\n",
}


@pytest.mark.parametrize("text", FAULTS.values(), ids=FAULTS.keys())
def test_parse_reports_the_reference_fault(text):
    with pytest.raises(ParseError) as want:
        parse_reference(text)
    with pytest.raises(ParseError) as got:
        parse_graph(text)
    assert (str(got.value), got.value.line) == (str(want.value), want.value.line)
