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
    Graph,
    GraphError,
    IN,
    OUT,
    UND,
    check_colours,
    darts,
    derive,
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

    def doublets(self) -> list[int]:
        return [i for i, b in enumerate(self.blocks) if len(b) == 2]


@dataclass
class RefinementMatrix:
    k: int
    entries: dict[tuple[int, int, str, str], int]

    def get(self, i: int, j: int, colour: str, direction: str = UND) -> int:
        return self.entries.get((i, j, colour, direction), 0)


def _signature(g: Graph, v: str, block_of: dict[str, int], pos) -> tuple:
    # The darts of v counted per (colour, direction, block position); the
    # block of w sits at position pos[block_of[w]].
    _, _, colours, _, _ = g.columns()
    counts: dict[tuple, int] = {}
    for k, d, w, c in darts(g, v):
        key = (colours[k], d, pos[block_of[w]])
        counts[key] = counts.get(key, 0) + c
    return tuple(sorted([(colour, dtag, b, cnt) for (colour, dtag, b), cnt in counts.items()]))


def degree_partition(g: Graph) -> tuple[Partition, RefinementMatrix]:
    """Coarsest equitable partition in canonical order plus its matrix.

    Canonical order: blocks start as vertex-colour classes sorted by
    colour; each synchronous refinement round signs every vertex against
    the partition as it stood at the start of the round and sorts the
    parts of a split block by their signature, after the parts of earlier
    blocks.  No vertex identity enters a sort key, so relabelling cannot
    change the result.

    The first round counts every vertex's darts into the colour classes,
    groups each class by those counts and, as the later rounds do, signs
    one member per group to order the groups.  After it a block can split
    only if some block it has darts into split in the round before, so
    later rounds re-sign only around those splits.  For each split block one
    largest part is left out: a vertex's darts into it follow from its
    darts into the whole old block, which are equal across the vertex's
    block.  The darts into the other parts are counted by walking their
    members' darts backwards; vertices reached with the same counts form
    one part, the vertices not reached keep the block's member set, and
    only one member of each part is signed in full to order the parts.
    A vertex lies in a left-in part at most log2(n) times, so counting
    costs O(m log n) dart visits in all; each round also signs one member
    per part it forms and renumbers the blocks from the first split one
    on, O(k).  A 2000-vertex path (1000 rounds) takes about 0.02 s (best
    of 5) on a 2-core x86 machine under CPython 3.11.7, against
    re-signing every vertex in every round (9 s).
    """
    if g.n == 0:
        return Partition([], {}), RefinementMatrix(0, {})
    _, _, ecolours, _, _ = g.columns()
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
        # group by dart counts per (colour, direction, block), trying the
        # last vertex's group first; a group's first member is signed to
        # order the groups
        groups: dict[frozenset, list[str]] = {}
        last: dict | None = None
        for v in by_colour[c]:
            counts: dict[tuple, int] = {}
            for k, d, w, cnt in darts(g, v):
                key = (ecolours[k], d, colour_block[w])
                counts[key] = counts.get(key, 0) + cnt
            if counts != last:
                key = frozenset(counts.items())
                group = groups.get(key)
                if group is None:
                    group = groups[key] = []
                last = counts
            group.append(v)
        ranked = sorted((_signature(g, group[0], colour_block, identity), group) for group in groups.values())
        ids = []
        for _, group in ranked:
            ids.append(len(members))
            members.append(group)
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
                    for k, dtag, v, cnt in darts(g, u):
                        key = (ecolours[k], dtag, i)
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
        for (colour, dtag), targets in vertex_darts(g, rep).ends.items():
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
    """The kind and fresh colour of an edge from block bi to block bj: the
    naming rule of ``normalize_colours``, which the solver's fibre index
    applies to the source without recolouring it."""
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

    Edge colours follow one naming rule, ``_block_colour``, applied once
    per (kind, colour, end blocks).  ``analyze_target`` recolours the
    target by it; the solver does not recolour the source, whose
    ``_Fibres`` index files each edge under the name this rule gives it.
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
    vertices = g.vertices()
    colours = map(block_colour.__getitem__, map(block_of.__getitem__, vertices))
    # the fresh kind and colour of each (kind, colour, end blocks)
    names: dict[tuple, tuple[str, str]] = {}
    fresh = []
    _, kinds, ecolours, first, last = g.columns()
    for key in zip(kinds, ecolours, map(block_of.__getitem__, first), map(block_of.__getitem__, last)):
        named = names.get(key)
        if named is None:
            named = names[key] = _block_colour(*key)
        fresh.append(named)
    out = derive(g, dict(zip(vertices, colours)), kinds=[kind for kind, _ in fresh],
                 colours=[colour for _, colour in fresh])
    # the fresh colours are all the output has, so they are checked alone
    check_colours(block_colour, names.values())
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
    # iteratively delete vertices of degree at most 1 without semi-edges.
    deg: dict[str, int] = {}
    nbrs: dict[str, list[str]] = {}
    semi: set[str] = set()
    _, kinds, _, _, _ = g.columns()
    for v in g.vertices():
        at = darts(g, v)
        deg[v] = sum(c for _, _, _, c in at)
        # only a normal edge leads to another vertex
        nbrs[v] = [w for _, _, w, _ in at if w != v]
        if any(kinds[k] == "semi" for k, _, _, _ in at):
            semi.add(v)
    alive = set(deg)
    queue = [v for v in alive if deg[v] <= 1 and v not in semi]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w in nbrs[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] <= 1 and w not in semi:
                    queue.append(w)
    return alive


def _rooted_code(g: Graph, root: str, branch: set[str], record: ReductionRecord):
    # Canonical code of the pending tree rooted at a core vertex: (vertex
    # colour, sorted (edge colour, direction, child subtree id) triples),
    # where the children are the pruned branch vertices only.  Subtrees are
    # interned bottom-up, so neither the walk nor the codes nest.
    _, _, colours, _, _ = g.columns()
    children: dict[str, list[tuple[str, str, str]]] = {}
    stack = [(root, None)]
    preorder = []
    while stack:
        v, parent = stack.pop()
        preorder.append(v)
        kids = children[v] = []
        for k, d, w, _ in darts(g, v):
            # only the root, which is not in branch, can have a dart that
            # leads back to itself
            if w == parent or w not in branch:
                continue
            kids.append((colours[k], d, w))
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
    _, _, _, first, last = g.columns()
    return derive(g, {v: record.tree_colour(_rooted_code(g, v, pruned, record)) for v in sorted(core)},
                  [k for k, (a, b) in enumerate(zip(first, last)) if a in core and b in core])


_STEP = {OUT: 1, IN: -1, UND: 0}


def _chain_walks(g: Graph, branch: set[str]):
    """Decompose all edges into maximal chains through degree-2 vertices.

    Yields 5-tuples (kind, u, w, seq, edge_ids) where kind is 'open'
    (chain between two branch vertices), 'closed' (both ends the same
    branch vertex, covers loops) or 'semi' (chain running into a
    semi-edge).  seq is the colour pattern along the walk: entries
    ('e', colour, dir) and ('v', colour) with dir in {-1, 0, 1} relative
    to the walk direction.  ``branch`` holds the vertices of total degree
    above 2, and must not be empty.
    """
    seen: set[frozenset] = set()
    eids, kinds, colours, _, _ = g.columns()

    def walk(start, k, d, w):
        seq: list[tuple] = []
        ids = []
        while True:
            ids.append(eids[k])
            seq.append(("e", colours[k], _STEP[d]))
            if w in branch:
                return ("closed" if w == start else "open", start, w, seq, ids)
            seq.append(("v", g.vertex_colour(w)))
            nxt = [dart for dart in darts(g, w) if dart[0] != k]
            if len(nxt) != 1:
                raise ReductionError(f"vertex {w!r} is not on a clean chain")
            k, d, x, _ = nxt[0]
            if kinds[k] == "semi":
                ids.append(eids[k])
                return ("semi", start, w, seq, ids)
            w = x

    for u in sorted(branch):
        for k, d, w, _ in sorted(darts(g, u), key=lambda dart: eids[dart[0]]):
            if w != u:
                item = walk(u, k, d, w)
            elif kinds[k] == "semi":
                item = ("semi", u, u, [], [eids[k]])
            else:
                # a directed loop's in-dart follows its out-dart, and is seen
                item = ("closed", u, u, [("e", colours[k], _STEP[d])], [eids[k]])
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
    branch = {v for v in g1.vertices() if total_degree(g1, v) > 2}
    if not branch:
        return g1, record
    out = Graph(g.name)
    for v in sorted(branch):
        out.add_vertex(v, g1.vertex_colour(v))
    counter = 0
    for item in _chain_walks(g1, branch):
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


def is_balanced(h: Graph) -> bool:
    """Both vertices of every doublet block of h's degree partition carry
    the same number of semi-edges of each colour."""
    part, _ = degree_partition(h)
    for i in part.doublets():
        a, b = part.blocks[i]
        if vertex_darts(h, a).semis != vertex_darts(h, b).semis:
            return False
    return True
