"""Degree partitions, colour normalization and the degree-adjusting reduction.

The degree partition is the coarsest equitable partition of the vertex set:
same-block vertices share a colour and have the same number of darts of
every edge colour into every block (loops count twice, semi-edges once,
both towards the own block).  Refinement starts from the vertex colours
and splits blocks by signature until stable; blocks are kept in a
canonical order so that isomorphic graphs produce identical refinement
matrices.  After the first round only the neighbourhoods of the blocks
split in the round before are re-signed, in the manner of Paige and
Tarjan's smaller-half refinement, so a chain that needs n/2 rounds costs
about O(m log n + n k) rather than O(n m).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graphs import (
    Edge,
    Graph,
    GraphError,
    IN,
    OUT,
    UND,
    components,
    dart_counts,
    is_connected,
    is_tree,
    total_degree,
    vertex_darts,
)


class ReductionError(GraphError):
    pass


@dataclass
class Partition:
    blocks: list[list[str]]
    block_of: dict[str, int]
    # the graph degree_partition refined this partition from, checked by
    # identity in normalize_colours; not settable through the constructor
    _source: Graph | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def singletons(self) -> list[int]:
        return [i for i, b in enumerate(self.blocks) if len(b) == 1]

    def doublets(self) -> list[int]:
        return [i for i, b in enumerate(self.blocks) if len(b) == 2]


@dataclass
class RefinementMatrix:
    k: int
    entries: dict[tuple[int, int, str, str], int]

    def get(self, i: int, j: int, colour: str, direction: str = UND) -> int:
        return self.entries.get((i, j, colour, direction), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RefinementMatrix)
            and self.k == other.k
            and self.entries == other.entries
        )


def _darts(g: Graph, v: str) -> list[tuple[str, str, str, int]]:
    """(colour, direction, other end, count) for the darts of each edge at
    v, in incidence order, with the dart rules of graphs.vertex_darts: a
    loop leads back twice, a semi-edge once, a directed loop once each way."""
    out = []
    for e in g._inc[v]:
        kind = e.kind
        if kind == "edge":
            a, b = e.ends
            out.append((e.colour, UND, b if a == v else a, 1))
        elif kind == "arc":
            tail, head = e.ends
            out.append((e.colour, OUT, head, 1) if tail == v else (e.colour, IN, tail, 1))
        elif kind == "loop":
            out.append((e.colour, UND, v, 2))
        elif kind == "semi":
            out.append((e.colour, UND, v, 1))
        else:
            out.append((e.colour, OUT, v, 1))
            out.append((e.colour, IN, v, 1))
    return out


def _signature(g: Graph, v: str, block_of: dict[str, int], pos) -> tuple:
    # The darts of v counted per (colour, direction, block position); the
    # block of w sits at position pos[block_of[w]].  The hottest walk of
    # the refinement, so it reads the incidences itself, with the rules of
    # _darts, rather than through a list of darts.
    counts: dict[tuple, int] = {}
    here = pos[block_of[v]]
    for e in g._inc[v]:
        kind = e.kind
        if kind == "edge":
            a, b = e.ends
            key = (e.colour, UND, pos[block_of[b if a == v else a]])
        elif kind == "arc":
            tail, head = e.ends
            if tail == v:
                key = (e.colour, OUT, pos[block_of[head]])
            else:
                key = (e.colour, IN, pos[block_of[tail]])
        elif kind == "loop":
            key = (e.colour, UND, here)
            counts[key] = counts.get(key, 0) + 2
            continue
        elif kind == "semi":
            key = (e.colour, UND, here)
        else:
            key = (e.colour, IN, here)
            counts[key] = counts.get(key, 0) + 1
            key = (e.colour, OUT, here)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted([(colour, dtag, b, cnt) for (colour, dtag, b), cnt in counts.items()]))


def degree_partition(g: Graph) -> tuple[Partition, RefinementMatrix]:
    """Coarsest equitable partition in canonical order plus its matrix.

    Canonical order: blocks start as vertex-colour classes sorted by
    colour; each synchronous refinement round signs every vertex against
    the partition as it stood at the start of the round and sorts the
    parts of a split block by their signature, after the parts of earlier
    blocks.  No vertex identity enters a sort key, so relabelling cannot
    change the result.

    The first round signs every vertex.  After it a block can split only
    if some block it has darts into split in the round before, so later
    rounds re-sign only around those splits.  For each split block one
    largest part is left out: a vertex's darts into it follow from its
    darts into the whole old block, which are equal across the vertex's
    block.  The darts into the other parts are counted by walking their
    members' darts backwards; vertices reached with the same counts form
    one part, the vertices not reached keep the block's member set, and
    only one member of each part is signed in full to order the parts.
    A vertex lies in a left-in part at most log2(n) times, so counting
    costs O(m log n) dart visits in all; each round also signs one member
    per part it forms and renumbers the blocks from the first split one
    on, O(k).  A 2000-vertex path (1000 rounds) takes about 0.04 s on a
    2-core x86 machine under CPython 3.11, against re-signing every
    vertex in every round (9 s).
    """
    if g.n == 0:
        return Partition([], {}), RefinementMatrix(0, {})
    by_colour: dict[str, list[str]] = {}
    for v in g.vertices():
        by_colour.setdefault(g.vertex_colour(v), []).append(v)
    colours = sorted(by_colour)
    colour_block = {v: i for i, c in enumerate(colours) for v in by_colour[c]}
    identity = list(range(len(colours)))
    # Blocks have fixed ids: members[i] holds the members of block i, order
    # lists the ids by position and pos[i] is the position of block i.
    members: list = []
    fresh: list[list[int]] = []
    for c in colours:
        groups: dict[tuple, list[str]] = {}
        for v in by_colour[c]:
            groups.setdefault(_signature(g, v, colour_block, identity), []).append(v)
        ids = []
        for sig in sorted(groups):
            ids.append(len(members))
            members.append(groups[sig])
        if len(ids) > 1:
            fresh.append(ids)
    order = list(range(len(members)))
    if fresh:
        members = [set(block) for block in members]
        block_of = {v: i for i, block in enumerate(members) for v in block}
        pos = list(order)
    while fresh:
        # count each vertex's darts into the left-in parts of last round's
        # splits, from the far end: u's out-darts to v are v's in-darts
        # from u, so u's direction names v's one to one
        counts: dict[str, dict] = {}
        for ids in fresh:
            largest = max(ids, key=lambda i: len(members[i]))
            for i in ids:
                if i == largest:
                    continue
                for u in members[i]:
                    for colour, dtag, v, cnt in _darts(g, u):
                        key = (colour, dtag, i)
                        acc = counts.get(v)
                        if acc is None:
                            counts[v] = {key: cnt}
                        else:
                            acc[key] = acc.get(key, 0) + cnt
        by_block: dict[int, dict[tuple, list[str]]] = {}
        for v, acc in counts.items():
            by_block.setdefault(block_of[v], {}).setdefault(tuple(sorted(acc.items())), []).append(v)
        # plan every split against the start-of-round partition, then apply
        plans = []
        for b, groups in by_block.items():
            parts = list(groups.values())
            reached = sum(len(p) for p in parts)
            if len(parts) == 1 and reached == len(members[b]):
                continue
            if reached < len(members[b]):
                kept = None
                rep = next(v for v in members[b] if v not in counts)
                ranked = [(_signature(g, rep, block_of, pos), kept)]
            else:
                kept = max(parts, key=len)
                ranked = []
            ranked += [(_signature(g, p[0], block_of, pos), p) for p in parts]
            ranked.sort(key=lambda item: item[0])
            plans.append((b, [p for _, p in ranked], kept))
        fresh = []
        first = len(order)
        for b, parts, kept in sorted(plans, key=lambda plan: -pos[plan[0]]):
            ids = []
            for p in parts:
                if p is kept:
                    ids.append(b)
                    continue
                i = len(members)
                members.append(set(p))
                members[b].difference_update(p)
                for v in p:
                    block_of[v] = i
                pos.append(-1)
                ids.append(i)
            fresh.append(ids)
            first = pos[b]
            order[first:first + 1] = ids
        for j in range(first, len(order)):
            pos[order[j]] = j
    blocks = [sorted(members[i]) for i in order]
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    part = Partition(blocks, block_of)
    part._source = g
    entries: dict[tuple[int, int, str, str], int] = {}
    for i, block in enumerate(blocks):
        rep = block[0]
        for (colour, dtag), targets in dart_counts(g, rep).items():
            for w, cnt in targets.items():
                key = (i, block_of[w], colour, dtag)
                entries[key] = entries.get(key, 0) + cnt
    return part, RefinementMatrix(len(blocks), entries)


def is_equitable(g: Graph, part: Partition) -> bool:
    identity = list(range(part.k))
    for block in part.blocks:
        if len({g.vertex_colour(v) for v in block}) > 1:
            return False
        sigs = {_signature(g, v, part.block_of, identity) for v in block}
        if len(sigs) > 1:
            return False
    return True


def _block_colour(kind: str, colour: str, bi: int, bj: int) -> tuple[str, str]:
    """The kind and fresh colour of an edge from block bi to block bj."""
    if bi == bj:
        return kind, f"c{bi}.{bi}.{colour}"
    lo, hi = min(bi, bj), max(bi, bj)
    if kind == "arc":
        return "edge", f"a{lo}.{hi}.{colour}.{'f' if bi == lo else 'b'}"
    return kind, f"c{lo}.{hi}.{colour}"


def normalize_colours(g: Graph, part: Partition) -> Graph:
    """Re-colour so blocks are distinguished by vertex colour and every edge
    colour lives within one block or between one block pair.

    A partition that ``degree_partition`` returned for this very graph
    object is equitable by construction and is used as it is.  Any other
    partition, made by hand or refined from another graph, is checked
    first: it must hold every vertex of g exactly once, ``block_of`` must
    agree with ``blocks``, and it must be equitable; else GraphError.

    Interblock directed edges are de-oriented; the direction survives in
    the fresh colour name (tagged by the tail's block) so cover-equivalence
    is preserved.  Vertex colours start with ``b``, de-oriented arcs'
    colours with ``a`` and all other edge colours with ``c``, so no fresh
    colour can take another's name, whatever the input colours are called.
    Vertex and edge ids and ends are untouched and the degree partition of
    the result equals ``part``, so callers reuse ``part`` instead of
    refining the result again.  Block colours are zero-padded to one
    width, so they sort in block order.
    """
    if part._source is not g:
        members = [v for block in part.blocks for v in block]
        if len(members) != g.n or set(members) != set(g.vertices()) or len(part.block_of) != g.n:
            raise GraphError("partition does not hold every vertex of the graph exactly once")
        if any(part.block_of.get(v) != i for i, block in enumerate(part.blocks) for v in block):
            raise GraphError("partition's block_of disagrees with its blocks")
        if not is_equitable(g, part):
            raise GraphError("partition is not equitable for this graph")
    width = max(3, len(str(part.k - 1)))
    block_of = part.block_of
    block_colour = [f"b{i:0{width}d}" for i in range(part.k)]
    out = Graph._derive(g.name, {v: block_colour[block_of[v]] for v in g.vertices()})
    names: dict[tuple, tuple[str, str]] = {}
    recoloured = []
    for e in g.edges():
        key = (e.kind, e.colour, block_of[e.ends[0]], block_of[e.ends[-1]])
        named = names.get(key)
        if named is None:
            named = names[key] = _block_colour(*key)
        recoloured.append(Edge(e.id, named[0], named[1], e.ends))
    out._put(recoloured)
    out.validate()
    return out


# degree-adjusting reduction -------------------------------------------------


@dataclass
class ReductionRecord:
    """Shared pattern dictionaries of a reduction run.

    Reducing a pair with one record gives identical structures identical
    fresh colours in both graphs, which is what makes the reduction
    preserve cover existence.  A pending tree's code names each child
    subtree by its id in ``subtrees``, so no code is nested and identical
    subtrees share one id however deep they are.
    """

    tree_codes: dict = field(default_factory=dict)
    path_patterns: dict = field(default_factory=dict)
    subtrees: dict = field(default_factory=dict)

    def subtree_id(self, code) -> int:
        return self.subtrees.setdefault(code, len(self.subtrees))

    def tree_colour(self, code) -> str:
        if code not in self.tree_codes:
            self.tree_codes[code] = f"t{len(self.tree_codes)}"
        return self.tree_codes[code]

    def pattern_colour(self, key) -> str:
        if key not in self.path_patterns:
            self.path_patterns[key] = f"p{len(self.path_patterns)}"
        return self.path_patterns[key]

    def to_json(self) -> str:
        return json.dumps(
            {
                "tree_codes": {repr(k): v for k, v in self.tree_codes.items()},
                "path_patterns": {repr(k): v for k, v in self.path_patterns.items()},
                "subtrees": {repr(k): v for k, v in self.subtrees.items()},
            },
            indent=2,
            sort_keys=True,
        )


def _core_vertices(g: Graph) -> set[str]:
    # Vertices on cycles, carrying semi-edges, or on paths connecting those:
    # iteratively delete degree-1 vertices without semi-edges.
    deg = {v: 0 for v in g.vertices()}
    semi = {v: False for v in g.vertices()}
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertices()}
    for e in g.edges():
        if e.kind == "semi":
            semi[e.u] = True
            deg[e.u] += 1
        elif e.kind in ("loop", "dloop"):
            deg[e.u] += 2
        else:
            deg[e.ends[0]] += 1
            deg[e.ends[1]] += 1
            adj[e.ends[0]].append((e.ends[1], e.id))
            adj[e.ends[1]].append((e.ends[0], e.id))
    alive = set(g.vertices())
    queue = [v for v in alive if deg[v] <= 1 and not semi[v]]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w, _ in adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] <= 1 and not semi[w]:
                    queue.append(w)
    return alive


def _rooted_code(g: Graph, root: str, branch: set[str], record: ReductionRecord):
    # Canonical code of the pending tree rooted at a core vertex: (vertex
    # colour, sorted (edge colour, direction, child subtree id) triples),
    # where the children are the pruned branch vertices only.  Subtrees are
    # interned bottom-up, so neither the walk nor the codes nest.
    children: dict[str, list[tuple[str, str, str]]] = {}
    stack = [(root, None)]
    preorder = []
    while stack:
        v, parent = stack.pop()
        preorder.append(v)
        kids = children[v] = []
        for e in g.incident(v):
            if len(e.ends) != 2:
                continue
            w = e.other_end(v)
            if w == parent or w not in branch:
                continue
            if e.kind == "arc":
                rel = OUT if e.tail == v else IN
            else:
                rel = UND
            kids.append((e.colour, rel, w))
            stack.append((w, v))
    ids: dict[str, int] = {}
    for v in reversed(preorder):
        code = (g.vertex_colour(v), tuple(sorted((c, rel, ids[w]) for c, rel, w in children[v])))
        if v == root:
            return code
        ids[v] = record.subtree_id(code)


def _prune_trees(g: Graph, record: ReductionRecord) -> Graph:
    core = _core_vertices(g)
    if not core:
        raise ReductionError("graph reduced to nothing; was it a tree?")
    pruned = set(g.vertices()) - core
    out = Graph._derive(
        g.name, {v: record.tree_colour(_rooted_code(g, v, pruned, record)) for v in sorted(core)}
    )
    out._put(e for e in g.edges() if all(w in core for w in e.ends))
    return out


def _chain_walks(g: Graph):
    """Decompose all edges into maximal chains through degree-2 vertices.

    Yields 5-tuples (kind, u, w, seq, edge_ids) where kind is 'open'
    (chain between two branch vertices), 'closed' (both ends the same
    branch vertex, covers loops) or 'semi' (chain running into a
    semi-edge).  seq is the colour pattern along the walk: entries
    ('e', colour, dir) and ('v', colour) with dir in {-1, 0, 1} relative
    to the walk direction.  Assumes some vertex has total degree > 2.
    """
    branch = {v for v in g.vertices() if total_degree(g, v) > 2}
    seen: set[frozenset] = set()

    def walk(start, first_edge):
        seq: list[tuple] = []
        ids = [first_edge.id]
        v, e = start, first_edge
        while True:
            if e.kind == "arc":
                seq.append(("e", e.colour, 1 if e.tail == v else -1))
            else:
                seq.append(("e", e.colour, 0))
            w = e.other_end(v)
            if w in branch:
                return ("closed" if w == start else "open", start, w, seq, ids)
            seq.append(("v", g.vertex_colour(w)))
            nxt = [f for f in g.incident(w) if f.id != e.id]
            if len(nxt) != 1:
                raise ReductionError(f"vertex {w!r} is not on a clean chain")
            f = nxt[0]
            if f.kind == "semi":
                ids.append(f.id)
                return ("semi", start, w, seq, ids)
            ids.append(f.id)
            v, e = w, f

    for u in sorted(branch):
        for e in sorted(g.incident(u), key=lambda e: e.id):
            if e.kind == "semi":
                key = frozenset([e.id])
                if key not in seen:
                    seen.add(key)
                    yield ("semi", u, u, [], [e.id])
            elif e.kind in ("loop", "dloop"):
                key = frozenset([e.id])
                if key not in seen:
                    seen.add(key)
                    d = 0 if e.kind == "loop" else 1
                    yield ("closed", u, u, [("e", e.colour, d)], [e.id])
            else:
                item = walk(u, e)
                key = frozenset(item[4])
                if key not in seen:
                    seen.add(key)
                    yield item


def _flip(seq):
    out = []
    for item in reversed(seq):
        if item[0] == "e":
            out.append(("e", item[1], -item[2]))
        else:
            out.append(item)
    return out


def _pattern_key(seq):
    """Canonical dictionary key for a chain pattern.

    A symmetric pattern with an odd number of edges decomposes as
    pi + middle-edge + reversed(pi); such chains share their colour with
    semi-edge chains of pattern (pi, middle colour), because a covering
    projection may fold the symmetric chain onto the dangling one.
    """
    fwd = tuple(seq)
    bwd = tuple(_flip(seq))
    canon = min(fwd, bwd)
    symmetric = fwd == bwd
    n_edges = sum(1 for it in canon if it[0] == "e")
    if symmetric and n_edges % 2 == 1:
        mid = (len(canon) - 1) // 2
        pi = canon[:mid]
        alpha = canon[mid][1]
        return ("semi", pi, alpha), True, canon is fwd
    return ("pat", canon), symmetric, bwd < fwd


def _semi_chain_key(seq, alpha):
    return ("semi", tuple(seq), alpha)


def degree_adjust(g: Graph, record: ReductionRecord | None = None) -> tuple[Graph, ReductionRecord]:
    """The degree-adjusting reduction of a connected non-tree graph.

    Prunes pending trees (recolouring their roots by isomorphism type),
    quits on paths and cycles, otherwise contracts every maximal chain of
    degree-2 vertices into a single pattern-coloured edge, loop or
    semi-edge.  The result is a path, a cycle, a single vertex, or has
    minimum degree greater than 2.
    """
    if record is None:
        record = ReductionRecord()
    if not is_connected(g):
        raise ReductionError("reduction needs a connected graph")
    if is_tree(g):
        raise ReductionError("reduction is undefined for trees")
    g1 = _prune_trees(g, record)
    if all(total_degree(g1, v) <= 2 for v in g1.vertices()):
        return g1, record
    out = Graph(g.name)
    branch = {v for v in g1.vertices() if total_degree(g1, v) > 2}
    for v in sorted(branch):
        out.add_vertex(v, g1.vertex_colour(v))
    counter = 0
    for item in _chain_walks(g1):
        counter += 1
        eid = f"r{counter}"
        kind = item[0]
        if kind == "semi":
            _, u, _, seq, ids = item
            alpha = g1.edge(ids[-1]).colour
            colour = record.pattern_colour(_semi_chain_key(seq, alpha))
            out.add_edge("semi", eid, colour, u)
        else:
            _, u, w, seq, ids = item
            key, symmetric, reverse = _pattern_key(seq)
            colour = record.pattern_colour(key)
            if kind == "closed":
                out.add_edge("loop" if symmetric else "dloop", eid, colour, u)
            elif symmetric:
                out.add_edge("edge", eid, colour, u, w)
            else:
                a, b = (w, u) if reverse else (u, w)
                out.add_edge("arc", eid, colour, a, b)
    out.validate()
    return out, record


def reduce_pair(g: Graph, h: Graph) -> tuple[Graph, Graph, ReductionRecord]:
    """Reduce both graphs with one shared pattern dictionary."""
    record = ReductionRecord()
    gr, _ = degree_adjust(g, record)
    hr, _ = degree_adjust(h, record)
    return gr, hr, record


def is_balanced(h: Graph, part: Partition | None = None) -> bool:
    """Both vertices of every doublet block carry the same number of
    semi-edges of each colour."""
    if part is None:
        part, _ = degree_partition(h)
    for i in part.doublets():
        a, b = part.blocks[i]
        if vertex_darts(h, a).semis != vertex_darts(h, b).semis:
            return False
    return True
