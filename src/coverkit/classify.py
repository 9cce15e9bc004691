"""Recognition of small block graphs and the complexity verdict.

Monochromatic uniblock and interblock graphs over blocks of at most two
vertices fall into a small family catalogue:

  F(b,c)   one vertex, b semi-edges, c loops
  FD(c)    one vertex, c directed loops
  W(k,m,l,p,q)  two vertices in one block, l parallel edges between them,
                k/q semi-edges and m/p loops at the first/second vertex
  WD(m,l,m)     two vertices in one block, m directed loops each, l arcs
                in each direction
  FF(c)    two singleton blocks joined by c parallel edges
  FW(b)    singleton hub joined to both vertices of a doublet by b-bundles
  WW(b,c)  two doublets, b-bundles on one pairing, c-bundles on the other

Every such graph is harmless, dangerous or harmful; the verdict for a
connected target follows: all harmless means polynomial, any harmful
means NP-complete for simple inputs, and a dangerous one (only FW(2))
means NP-complete once the reduced target has minimum degree above 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, is_connected, is_tree, total_degree
from .partition import Partition, RefinementMatrix, degree_adjust, degree_partition, normalize_colours

HARMLESS = "harmless"
DANGEROUS = "dangerous"
HARMFUL = "harmful"

POLYNOMIAL = "polynomial"
NP_COMPLETE = "np_complete_for_simple_inputs"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class SmallShape:
    family: str  # F, FD, W, WD, FF, FW, WW
    params: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.family}({','.join(map(str, self.params))})"


@dataclass
class BlockGraph:
    blocks: tuple[int, ...]
    colour: str
    shape: SmallShape


@dataclass
class Verdict:
    kind: str
    reason: str
    witness: BlockGraph | None = None
    # the graph the verdict read: the target, or its degree-adjusted reduction
    graph: Graph | None = None
    # analyze_target's classified block graphs of that graph; None if not run
    classified: list[tuple[BlockGraph, str]] | None = None


class ShapeError(GraphError):
    """Input cannot arise from a genuine degree partition."""


def _mono_edges(g: Graph, verts: set[str], colour: str):
    out = []
    for e in g.edges():
        if e.colour != colour:
            continue
        inside = sum(1 for w in e.ends if w in verts)
        if inside == 0:
            continue
        if inside < len(e.ends):
            raise ShapeError(f"edge {e.id} leaves the given blocks")
        out.append(e)
    return out


def recognize_shape(g: Graph, blocks, colour: str) -> SmallShape:
    """Identify the family and parameters of a monochromatic block graph.

    ``blocks`` is one or two vertex lists of size at most 2.  Uniblock
    inputs must be regular; interblock inputs must have the FF/FW/WW
    degree pattern.  Anything else signals a caller error, since it
    cannot arise from a genuine degree partition.
    """
    blocks = [sorted(map(str, b)) for b in blocks]
    return _recognize(blocks, _mono_edges(g, {v for b in blocks for v in b}, colour))


def _recognize(blocks: list[list[str]], edges) -> SmallShape:
    """The shape of the block graph on ``blocks``, each a sorted vertex
    list, whose edges are exactly ``edges``; see ``recognize_shape``."""
    if not 1 <= len(blocks) <= 2 or any(not 1 <= len(b) <= 2 for b in blocks):
        raise ShapeError("recognition needs one or two blocks of at most 2 vertices")
    if len(blocks) == 1:
        b = blocks[0]
        if len(b) == 1:
            v = b[0]
            semis = sum(1 for e in edges if e.kind == "semi")
            loops = sum(1 for e in edges if e.kind == "loop")
            dloops = sum(1 for e in edges if e.kind == "dloop")
            if dloops and (semis or loops):
                raise ShapeError("mixed directed and undirected edges in one colour")
            if dloops:
                return SmallShape("FD", (dloops,))
            return SmallShape("F", (semis, loops))
        x, y = b
        if any(e.kind in ("arc", "dloop") for e in edges):
            dx = sum(1 for e in edges if e.kind == "dloop" and e.u == x)
            dy = sum(1 for e in edges if e.kind == "dloop" and e.u == y)
            fwd = sum(1 for e in edges if e.kind == "arc" and e.tail == x)
            bwd = sum(1 for e in edges if e.kind == "arc" and e.tail == y)
            if any(e.kind in ("edge", "loop", "semi") for e in edges):
                raise ShapeError("mixed directed and undirected edges in one colour")
            if dx != dy or fwd != bwd:
                raise ShapeError("irregular directed uniblock graph")
            return SmallShape("WD", (dx, fwd, dx))
        k = sum(1 for e in edges if e.kind == "semi" and e.u == x)
        q = sum(1 for e in edges if e.kind == "semi" and e.u == y)
        m = sum(1 for e in edges if e.kind == "loop" and e.u == x)
        p = sum(1 for e in edges if e.kind == "loop" and e.u == y)
        l = sum(1 for e in edges if e.kind == "edge")
        if k + 2 * m != q + 2 * p:
            raise ShapeError("irregular uniblock graph")
        if (k, m) < (q, p):
            k, m, p, q = q, p, m, k
        return SmallShape("W", (k, m, l, p, q))
    a, b = blocks
    if len(a) > len(b):
        a, b = b, a
    side_a = set(a)
    for e in edges:
        if e.kind != "edge":
            raise ShapeError("interblock graphs are undirected normal edges only")
        if (e.u in side_a) == (e.v in side_a):
            raise ShapeError(f"edge {e.id} does not cross the two blocks")
    def mult(u, v):
        return sum(1 for e in edges if set(e.ends) == {u, v})
    if len(a) == 1 and len(b) == 1:
        return SmallShape("FF", (len(edges),))
    if len(a) == 1:
        hub = a[0]
        x, y = b
        cx, cy = mult(hub, x), mult(hub, y)
        if cx != cy:
            raise ShapeError("hub degrees differ; not an FW pattern")
        return SmallShape("FW", (cx,))
    x1, x2 = a
    y1, y2 = b
    e11, e12, e21, e22 = mult(x1, y1), mult(x1, y2), mult(x2, y1), mult(x2, y2)
    if e11 != e22 or e12 != e21:
        raise ShapeError("degree pattern outside the WW family")
    hi, lo = max(e11, e12), min(e11, e12)
    return SmallShape("WW", (hi, lo))


def classify_shape(s: SmallShape) -> str:
    """The harmless/dangerous/harmful trichotomy.

    The harmful rule for two-vertex graphs requires at least one
    non-bundle dart (k + 2m >= 1); a pure bundle W(0,0,c,0,0) is harmless
    for every c, matching the bipartite 2-SAT subcase of the solver.
    """
    f = s.family
    if f == "F":
        b, c = s.params
        if b <= 1 or (b == 2 and c == 0):
            return HARMLESS
        if b >= 2 and b + c >= 3:
            return HARMFUL
        raise ShapeError(f"unclassifiable shape {s}")
    if f == "FD":
        return HARMLESS
    if f == "W":
        k, m, l, p, q = s.params
        if k + 2 * m != q + 2 * p:
            raise ShapeError(f"invalid W parameters {s}")
        if l == 0:
            parts = (classify_shape(SmallShape("F", (k, m))), classify_shape(SmallShape("F", (q, p))))
            return HARMFUL if HARMFUL in parts else HARMLESS
        d = k + 2 * m
        if d == 0:
            return HARMLESS
        if d == 1 and l == 1:
            return HARMLESS
        if d + l >= 3:
            return HARMFUL
        raise ShapeError(f"unclassifiable shape {s}")
    if f == "WD":
        m, l, _ = s.params
        if m == 0 or l == 0 or (m, l) == (1, 1):
            return HARMLESS
        if m >= 1 and l >= 1 and m + l >= 3:
            return HARMFUL
        raise ShapeError(f"unclassifiable shape {s}")
    if f == "FF":
        return HARMLESS
    if f == "FW":
        (b,) = s.params
        if b <= 1:
            return HARMLESS
        if b == 2:
            return DANGEROUS
        return HARMFUL
    if f == "WW":
        b, c = max(s.params), min(s.params)
        if c == 0 or (b, c) == (1, 1):
            return HARMLESS
        return HARMFUL
    raise ShapeError(f"unknown family {s.family}")


def block_shapes(h: Graph, part: Partition) -> list[BlockGraph]:
    """All monochromatic uniblock and interblock graphs of a normalized
    graph, one entry per (block set, colour) with edges.  Each edge is
    filed once under its group, and a colour whose block sets share a
    block (an un-normalized graph) is refused."""
    groups: dict[tuple[tuple[int, ...], str], list] = {}
    for e in h.edges():
        touched = tuple(sorted({part.block_of[w] for w in e.ends}))
        groups.setdefault((touched, e.colour), []).append(e)
    owner: dict[tuple[str, int], tuple[int, ...]] = {}
    for touched, colour in groups:
        for i in touched:
            if owner.setdefault((colour, i), touched) != touched:
                raise ShapeError(f"colour {colour} lies in two block sets with block {i}; normalize first")
    out = []
    for touched, colour in sorted(groups):
        blocks = [sorted(part.blocks[i]) for i in touched]
        out.append(BlockGraph(touched, colour, _recognize(blocks, groups[touched, colour])))
    return out


def analyze_target(h: Graph) -> tuple[Partition, RefinementMatrix, Graph | None, list[tuple[BlockGraph, str]]]:
    """The one analysis of a target that the dichotomy reads: its degree
    partition and refinement matrix, its colour-normalized graph, and each
    block graph with its class, in ``block_shapes`` order.  When a block
    has more than two vertices no shape is characterized, so the
    normalized graph is None and the list is empty."""
    part, matrix = degree_partition(h)
    if any(len(b) > 2 for b in part.blocks):
        return part, matrix, None, []
    hn = normalize_colours(h, part)
    return part, matrix, hn, [(bg, classify_shape(bg.shape)) for bg in block_shapes(hn, part)]


def verdict(h: Graph) -> Verdict:
    """The P/NP-complete verdict for a connected target graph.

    Trees, paths and cycles are polynomial outright.  Otherwise the
    degree-adjusting reduction is applied; a reduced path or cycle is
    polynomial, and the rest is read from ``analyze_target`` of the
    reduced graph: a block of more than two vertices is unsupported, and
    otherwise the block-graph classes decide.  A dangerous block graph is
    conclusive here because the reduced graph has minimum degree above 2.
    """
    if h.n == 0:
        raise GraphError("empty target")
    if not is_connected(h):
        raise GraphError("verdict is defined for connected targets")
    if is_tree(h) or all(total_degree(h, v) <= 2 for v in h.vertices()):
        return Verdict(POLYNOMIAL, "target is a tree, path or cycle", graph=h)
    hr, _ = degree_adjust(h)
    if all(total_degree(hr, v) <= 2 for v in hr.vertices()):
        return Verdict(POLYNOMIAL, "reduced target is a path or cycle", graph=hr)
    part, _, hn, classified = analyze_target(hr)
    if hn is None:
        sizes = [len(b) for b in part.blocks if len(b) > 2]
        return Verdict(UNSUPPORTED, f"degree partition has blocks of sizes {sizes}; only blocks of at most 2 are characterized",
                       graph=hr, classified=classified)
    dangerous = None
    for bg, cls in classified:
        if cls == HARMFUL:
            return Verdict(NP_COMPLETE, f"harmful block graph {bg.shape} on blocks {bg.blocks}", bg,
                           graph=hr, classified=classified)
        if cls == DANGEROUS and dangerous is None:
            dangerous = bg
    if dangerous is not None:
        return Verdict(
            NP_COMPLETE,
            f"dangerous block graph {dangerous.shape} on blocks {dangerous.blocks} with minimum degree above 2",
            dangerous,
            graph=hr,
            classified=classified,
        )
    return Verdict(POLYNOMIAL, "all block graphs are harmless", graph=hr, classified=classified)
