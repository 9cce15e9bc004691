"""Matchings and factor decompositions of multigraphs.

The solver leans on three classical facts: a k-regular bipartite multigraph
splits into k perfect matchings (Konig), a 2k-regular multigraph without
semi-edges splits into k spanning 2-factors (Petersen), and a
k-in-k-out-regular digraph splits into k spanning cycle covers.  One peel
realizes all three.  An even k halves along closed trails: a trail enters
every vertex as often as it leaves it, so the edges it walks from their
left ends and those it walks from their right ends give every vertex half
its degree (Gabow 1976, Euler partitions).  An odd k of 3 or more first
takes one perfect matching from the blossom search.  A 2k-regular
multigraph is oriented along closed trails, k out and k in at every
vertex, and its out/in split is peeled.  Every perfect matching, bipartite
or not, comes from one blossom search that starts from a greedy matching.

The blossom search keeps each vertex's base in a union-find over
blossoms: ``base`` is a parent array whose roots are the current bases,
so shrinking a blossom links the bases it merges under the new one and
costs what it merges, not what the tree holds (Gabow 1976, "An efficient
implementation of Edmonds' algorithm").  The odd vertices a blossom makes
even are queued in ascending order, the order in which relabelling every
vertex of the tree would meet them, so every mate array is the one that
relabelling gives.
"""

from __future__ import annotations

from collections import deque

from .graphs import IN, OUT, UND, Graph, GraphError, darts


class MatchingError(GraphError):
    pass


# blossom maximum matching --------------------------------------------------


def _base(base: list[int], v: int) -> int:
    """The base of v's blossom: the root of v in the union-find ``base``,
    halving the path on the way."""
    while base[v] != v:
        base[v] = v = base[base[v]]
    return v


def _lca(match, base, p, a, b):
    used = set()
    v = a
    while True:
        v = _base(base, v)
        used.add(v)
        if match[v] == -1:
            break
        v = p[match[v]]
    v = b
    while True:
        v = _base(base, v)
        if v in used:
            return v
        v = p[match[v]]


def _mark_path(match, base, p, blossom, v, b, child):
    while (bv := _base(base, v)) != b:
        blossom.add(bv)
        blossom.add(_base(base, match[v]))
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _augment(match, p, to):
    v = to
    while v != -1:
        pv = p[v]
        ppv = match[pv]
        match[v] = pv
        match[pv] = v
        v = ppv


def _find_path(adj, match, root, used, p, base) -> bool:
    """One augmenting-path search from ``root``.  ``used``, ``p`` and
    ``base`` come in clear and are cleared again at the vertices the
    search reached, so a call costs what it reaches.

    A vertex's blossom base is its root in the union-find ``base``.
    Shrinking a blossom links each base it merges under the new base, and
    queues the odd vertices it makes even: those are exactly its merged
    bases that were never queued, since a vertex inside a shrunk blossom
    is even already.  They go on the queue in ascending order, as a scan
    relabelling the tree's vertices in order would put them."""
    used[root] = True
    q = deque([root])
    reached = [root]  # the tree's vertices, to clear at the end
    found = False
    while q and not found:
        v = q.popleft()
        bv = _base(base, v)
        for to in adj[v]:
            if match[v] == to:
                continue
            bt = base[to]
            if base[bt] != bt:
                bt = _base(base, bt)
            if bv == bt:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = _lca(match, base, p, v, to)
                blossom: set[int] = set()
                _mark_path(match, base, p, blossom, v, curbase, to)
                _mark_path(match, base, p, blossom, to, curbase, v)
                for b in blossom:
                    base[b] = curbase
                for i in sorted(b for b in blossom if not used[b]):
                    used[i] = True
                    q.append(i)
                bv = curbase
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    _augment(match, p, to)
                    reached.append(to)
                    found = True
                    break
                used[match[to]] = True
                q.append(match[to])
                reached += (to, match[to])
    for i in reached:
        used[i] = False
        p[i] = -1
        base[i] = i
    return found


def maximum_matching(n: int, adj: list[set[int]]) -> list[int]:
    """Blossom search; ``adj`` is a simple adjacency structure on 0..n-1.
    Returns the mate array with -1 for exposed vertices.  A greedy pass
    matches each exposed vertex, in order, to its first exposed
    neighbour; the search then runs from each vertex still exposed."""
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v], match[to] = to, v
                    break
    used, p, base = [False] * n, [-1] * n, list(range(n))
    for v in range(n):
        if match[v] == -1:
            _find_path(adj, match, v, used, p, base)
    return match


def _perfect(n: int, ends: list[tuple[int, int]]) -> list[int] | None:
    """A perfect matching of nodes 0..n-1 joined by edges ``ends[e] =
    (a, b)``, or None.  Parallel edges are collapsed into the simple
    adjacency the blossom search takes; returns the first edge of each
    matched pair, in order of the pair's smaller node."""
    adj: list[set[int]] = [set() for _ in range(n)]
    first: dict[tuple[int, int], int] = {}
    for e, (a, b) in enumerate(ends):
        adj[a].add(b)
        adj[b].add(a)
        first.setdefault((min(a, b), max(a, b)), e)
    match = maximum_matching(n, adj)
    if any(m == -1 for m in match):
        return None
    return [first[a, b] for a, b in enumerate(match) if a < b]


def perfect_matching(verts: list[str], edges: list[tuple[str, str, str]]) -> list[str] | None:
    """A perfect matching of ``verts`` by undirected edges (eid, u, v)
    between them, or None.  Parallel edges are collapsed for the search,
    and the first edge of each matched pair in ``edges`` is reported, in
    order of the pair's earlier vertex in ``verts``."""
    if len(verts) % 2 == 1:
        return None
    idx = {v: i for i, v in enumerate(verts)}
    matched = _perfect(len(verts), [(idx[u], idx[v]) for _, u, v in edges])
    return None if matched is None else [edges[e][0] for e in matched]


def general_perfect_matching(g: Graph):
    """A perfect matching of an undirected multigraph, or None.

    Loops and semi-edges are ignored (they cannot match anything); see
    ``perfect_matching`` for the rest.
    """
    if any(e.directed for e in g.edges()):
        raise MatchingError("perfect matching is defined for undirected graphs")
    return perfect_matching(g.vertices(), [(e.id, *e.ends) for e in g.edges() if e.kind == "edge"])


# bipartite peeling -----------------------------------------------------------


def bipartite_peel(items: list[tuple[str, object, object]], k: int) -> list[list[str]]:
    """Split edges (eid, left, right) into k perfect matchings, each a
    sorted id list.

    Left and right names are two sides, so one name may stand on both.
    The matchings exist exactly when every vertex has k edges (Konig);
    raises MatchingError otherwise.
    """
    left: dict = {}
    right: dict = {}
    ids, tails, heads = [], [], []
    for eid, l, r in items:
        ids.append(eid)
        tails.append(left.setdefault(l, len(left)))
        heads.append(right.setdefault(r, len(right)))
    for name, side, ends in (("left", left, tails), ("right", right, heads)):
        count = [0] * len(side)
        for i in ends:
            count[i] += 1
        for v, i in side.items():
            if count[i] != k:
                raise MatchingError(f"{name} vertex {v!r} has degree {count[i]}, expected {k}")
    return _peel(ids, tails, heads, len(left), k)


def _peel(ids: list[str], tails: list[int], heads: list[int], n: int, k: int) -> list[list[str]]:
    """The k perfect matchings of a k-regular bipartite multigraph whose
    edge e joins left vertex tails[e] to right vertex heads[e], both in
    range(n).  An even degree halves along closed trails: the edges
    walked from their left ends make one half, those walked from their
    right ends the other.  An odd one gives up one matching first."""
    if k == 0:
        return []
    other = [t ^ (n + h) for t, h in zip(tails, heads)]  # right vertex j is node n + j
    out = []
    groups = [(list(range(len(ids))), k)]
    while groups:
        edges, d = groups.pop()
        if d % 2:
            matching, edges = _one_matching(edges, tails, heads, n) if d > 1 else (edges, [])
            out.append(sorted([ids[e] for e in matching]))
            d -= 1
        if d:
            at: list[list[int]] = [[] for _ in range(2 * n)]
            for e in edges:
                at[tails[e]].append(e)
                at[n + heads[e]].append(e)
            origin = _trails(at, other)
            groups.append(([e for e in edges if origin[e] >= n], d // 2))
            groups.append(([e for e in edges if origin[e] < n], d // 2))
    return out


def _trails(at: list[list[int]], other: list[int]) -> list[int]:
    """Walk a multigraph of even degrees along closed trails, which need
    no connectivity.  ``at[v]`` lists the edges at node v, a loop twice,
    and e's other end is v ^ other[e].  Returns for each edge the node it
    was walked from, -1 for an edge in no list; a trail leaves every node
    as often as it enters it."""
    origin = [-1] * len(other)
    for start, first in enumerate(at):
        while first:
            v = start
            while True:
                lst = at[v]
                while lst and origin[lst[-1]] >= 0:
                    lst.pop()
                if not lst:
                    break
                e = lst.pop()
                origin[e] = v
                v ^= other[e]
    return origin


def _one_matching(edges: list[int], tails: list[int], heads: list[int], n: int) -> tuple[list[int], list[int]]:
    """One perfect matching of a regular bipartite multigraph, which has
    one (Konig), by the blossom search, and the edges it leaves.  Right
    vertex j is node n + j."""
    chosen = {edges[i] for i in _perfect(2 * n, [(tails[e], n + heads[e]) for e in edges])}
    return [e for e in edges if e in chosen], [e for e in edges if e not in chosen]


# 2-factorization --------------------------------------------------------------


def peel_two_factors(verts: list[str], edges: list[tuple[str, str, str]], k: int) -> list[list[str]]:
    """Split undirected edges (eid, u, v), a loop as (eid, u, u), into k
    2-factors spanning ``verts``, each a sorted id list.

    Every vertex must have degree 2k, a loop counting twice; raises
    MatchingError otherwise.  Closed trails, which need no connectivity,
    orient the edges k out and k in at every vertex, and the out/in split
    is peeled: a perfect matching of it is one out- and one in-dart per
    vertex, a 2-factor.
    """
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    at: list[list[int]] = [[] for _ in range(n)]
    ids, other = [], []  # other[e]: the xor of its end numbers
    for eid, u, v in edges:
        a, b = index[u], index[v]
        at[a].append(len(ids))
        at[b].append(len(ids))
        ids.append(eid)
        other.append(a ^ b)
    for v, i in index.items():
        if len(at[i]) != 2 * k:
            raise MatchingError(f"vertex {v!r} has degree {len(at[i])}, expected {2 * k}")
    if k <= 1:
        # a 2-regular graph is its own 2-factor
        return [sorted(ids)] if k else []
    tails = _trails(at, other)
    return _peel(ids, tails, [t ^ o for t, o in zip(tails, other)], n, k)


def two_factorization(g: Graph, k: int) -> list[list[str]]:
    """Split a 2k-regular multigraph (loops allowed, no semi-edges) into k
    spanning 2-factors, each a disjoint union of cycles."""
    for e in g.edges():
        if e.kind == "semi":
            raise MatchingError("semi-edges not allowed in factorization input")
        if e.directed:
            raise MatchingError("directed edges not allowed in 2-factorization input")
    return peel_two_factors(g.vertices(), [(e.id, e.u, e.v) for e in g.edges()], k)


def directed_cycle_cover_decomposition(g: Graph, k: int) -> list[list[str]]:
    """Split a k-in-k-out-regular digraph (directed loops allowed) into k
    spanning collections of directed cycles."""
    for v in g.vertices():
        at = darts(g, v)
        if any(d == UND for _, d, _, _ in at):
            raise MatchingError("directed decomposition needs arcs and dloops only")
        for direction in (OUT, IN):
            if sum(c for _, d, _, c in at if d == direction) != k:
                raise MatchingError(f"vertex {v!r} is not {k}-in-{k}-out-regular")
    if k == 0:
        return []
    return peel_cycle_covers(list(g.edges()), k)


def peel_cycle_covers(edges, k: int) -> list[list[str]]:
    """Split arcs and directed loops, k out and k in at every vertex they
    touch, into k cycle covers of those vertices."""
    return bipartite_peel([(e.id, e.tail, e.head) for e in edges], k)
