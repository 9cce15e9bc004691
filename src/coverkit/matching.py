"""Matchings and factor decompositions of multigraphs.

The solver leans on three classical facts: a k-regular bipartite multigraph
splits into k perfect matchings (Konig), a 2k-regular multigraph without
semi-edges splits into k spanning 2-factors (Petersen, realized here by
orienting an Euler circuit and splitting the resulting bipartite graph),
and a k-in-k-out-regular digraph splits into k spanning cycle covers.
General (non-bipartite) perfect matchings use a blossom search.
"""

from __future__ import annotations

from collections import deque

from .graphs import IN, OUT, UND, Graph, GraphError, total_degree, vertex_darts


class MatchingError(GraphError):
    pass


# blossom maximum matching --------------------------------------------------


def _lca(match, base, p, a, b):
    used = set()
    v = a
    while True:
        v = base[v]
        used.add(v)
        if match[v] == -1:
            break
        v = p[match[v]]
    v = b
    while True:
        v = base[v]
        if v in used:
            return v
        v = p[match[v]]


def _mark_path(match, base, p, blossom, v, b, child):
    while base[v] != b:
        blossom.add(base[v])
        blossom.add(base[match[v]])
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


def _find_path(n, adj, match, root):
    used = [False] * n
    p = [-1] * n
    base = list(range(n))
    used[root] = True
    q = deque([root])
    # the tree's vertices: a blossom holds only these, so shrinking one
    # relabels them alone, in ascending order as a scan over all n would
    reached = [root]
    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = _lca(match, base, p, v, to)
                blossom: set[int] = set()
                _mark_path(match, base, p, blossom, v, curbase, to)
                _mark_path(match, base, p, blossom, to, curbase, v)
                for i in sorted(i for i in reached if base[i] in blossom):
                    base[i] = curbase
                    if not used[i]:
                        used[i] = True
                        q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    _augment(match, p, to)
                    return True
                used[match[to]] = True
                q.append(match[to])
                reached += (to, match[to])
    return False


def maximum_matching(n: int, adj: list[set[int]]) -> list[int]:
    """Blossom search; ``adj`` is a simple adjacency structure on 0..n-1.
    Returns the mate array with -1 for exposed vertices."""
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            _find_path(n, adj, match, v)
    return match


def general_perfect_matching(g: Graph):
    """A perfect matching of an undirected multigraph, or None.

    Loops and semi-edges are ignored (they cannot match anything); parallel
    edges are collapsed for the search and an arbitrary representative id
    is reported per matched pair.
    """
    verts = g.vertices()
    if any(e.directed for e in g.edges()):
        raise MatchingError("perfect matching is defined for undirected graphs")
    if len(verts) % 2 == 1:
        return None
    idx = {v: i for i, v in enumerate(verts)}
    adj: list[set[int]] = [set() for _ in verts]
    rep: dict[tuple[int, int], str] = {}
    for e in g.edges():
        if e.kind != "edge":
            continue
        a, b = idx[e.u], idx[e.v]
        adj[a].add(b)
        adj[b].add(a)
        rep.setdefault((min(a, b), max(a, b)), e.id)
    match = maximum_matching(len(verts), adj)
    if any(m == -1 for m in match):
        return None
    out = []
    for a, b in enumerate(match):
        if a < b:
            out.append(rep[(a, b)])
    return out


# bipartite peeling -----------------------------------------------------------


def _kuhn(left, adj):
    """A matching of every vertex of ``left``, or None: Kuhn's augmenting
    paths, by a depth-first search that keeps its path on a list, so long
    alternating paths need no recursion.  Visits ``adj[u]`` in order."""
    match_r: dict = {}
    match_l: dict = {}

    def try_augment(root):
        seen = set()
        stack = [(root, iter(adj[root]))]
        path: list = []  # path[i]: the right vertex stack[i] tries
        while stack:
            for v in stack[-1][1]:
                if v in seen:
                    continue
                seen.add(v)
                path.append(v)
                if v not in match_r:
                    for (u, _), w in zip(reversed(stack), reversed(path)):
                        match_r[w] = u
                        match_l[u] = w
                    return True
                stack.append((match_r[v], iter(adj[match_r[v]])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    for u in left:
        if u not in match_l:
            if not try_augment(u):
                return None
    return match_l


def bipartite_peel(items: list[tuple[str, object, object]], k: int) -> list[list[str]]:
    """Split edges (eid, left, right) into k perfect matchings.

    Every left and right vertex must be covered by each matching; raises
    MatchingError when some round has no perfect matching.  A last round
    whose edges already form one perfect matching takes them as they are,
    which is the matching the augmenting-path search would return.
    """
    remaining: dict[tuple[object, object], list[str]] = {}
    lefts, rights = set(), set()
    for eid, l, r in items:
        remaining.setdefault((l, r), []).append(eid)
        lefts.add(l)
        rights.add(r)
    order = sorted(lefts, key=str)
    out = []
    for rnd in range(k):
        if rnd == k - 1:
            last = _perfect_remainder(remaining, len(lefts), len(rights))
            if last is not None:
                out.append(last)
                return out
        adj = {l: [] for l in lefts}
        for (l, r), ids in remaining.items():
            if ids:
                adj[l].append(r)
        match = _kuhn(order, adj)
        if match is None or len(match) != len(lefts) or len(set(match.values())) != len(rights):
            raise MatchingError(f"no perfect matching in peeling round {rnd}")
        chosen = []
        for l, r in match.items():
            ids = remaining[(l, r)]
            chosen.append(ids.pop())
        out.append(sorted(chosen))
    if any(ids for ids in remaining.values()):
        raise MatchingError("edges left over after peeling; graph was not k-regular")
    return out


def _perfect_remainder(remaining, n_left: int, n_right: int) -> list[str] | None:
    """The sorted ids of the edges left in ``remaining`` when they meet
    every left and every right vertex exactly once, else None."""
    seen_l, seen_r = set(), set()
    ids_left = []
    for (l, r), ids in remaining.items():
        if not ids:
            continue
        if len(ids) > 1 or l in seen_l or r in seen_r:
            return None
        seen_l.add(l)
        seen_r.add(r)
        ids_left.append(ids[0])
    if len(seen_l) != n_left or len(seen_r) != n_right:
        return None
    ids_left.sort()
    return ids_left


def bipartite_k_factorization(g: Graph, k: int) -> list[list[str]]:
    """Decompose a k-regular bipartite multigraph into k perfect matchings."""
    if any(e.kind != "edge" for e in g.edges()):
        raise MatchingError("k-factorization needs undirected normal edges only")
    side: dict[str, int] = {}
    for comp_start in g.vertices():
        if comp_start in side:
            continue
        side[comp_start] = 0
        q = deque([comp_start])
        while q:
            v = q.popleft()
            for e in g.incident(v):
                w = e.other_end(v)
                if w not in side:
                    side[w] = 1 - side[v]
                    q.append(w)
                elif side[w] == side[v]:
                    raise MatchingError("graph is not bipartite")
    for v in g.vertices():
        d = total_degree(g, v)
        if d != k:
            raise MatchingError(f"vertex {v!r} has degree {d}, expected {k}")
    items = []
    for e in g.edges():
        l, r = (e.u, e.v) if side[e.u] == 0 else (e.v, e.u)
        items.append((e.id, ("L", l), ("R", r)))
    return bipartite_peel(items, k)


# Euler circuits and 2-factorization ------------------------------------------


def euler_orientation(edges: list[tuple[str, str, str]]) -> list[tuple[str, str, str]]:
    """Orient a connected even-degree multigraph along an Euler circuit.

    ``edges`` are (eid, u, v) with loops as (eid, u, u).  Returns the same
    edges as (eid, tail, head) in traversal order.
    """
    if not edges:
        return []
    adj: dict[str, list[tuple[str, str]]] = {}
    for eid, u, v in edges:
        adj.setdefault(u, []).append((eid, v))
        if u != v:
            adj.setdefault(v, []).append((eid, u))
    ptr = {v: 0 for v in adj}
    used: set[str] = set()
    start = edges[0][1]
    stack: list[tuple[str, str | None]] = [(start, None)]
    out: list[tuple[str, str, str]] = []
    while stack:
        v, via = stack[-1]
        lst = adj[v]
        advanced = False
        while ptr[v] < len(lst):
            eid, w = lst[ptr[v]]
            ptr[v] += 1
            if eid in used:
                continue
            used.add(eid)
            stack.append((w, eid))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if via is not None:
                out.append((via, stack[-1][0], v))
    out.reverse()
    if len(out) != len(edges):
        raise MatchingError("graph has no Euler circuit (odd degree or disconnected)")
    return out


def _undirected_degree(g: Graph, v: str) -> int:
    darts = vertex_darts(g, v)
    if darts.semis:
        raise MatchingError("semi-edges not allowed in factorization input")
    if any(d != UND for _, d in darts.ends):
        raise MatchingError("directed edges not allowed in 2-factorization input")
    return sum(sum(to.values()) for to in darts.ends.values())


def two_factorization(g: Graph, k: int) -> list[list[str]]:
    """Split a 2k-regular multigraph (loops allowed, no semi-edges) into k
    spanning 2-factors, each a disjoint union of cycles."""
    for v in g.vertices():
        if _undirected_degree(g, v) != 2 * k:
            raise MatchingError(f"vertex {v!r} is not {2 * k}-regular")
    if k == 0:
        return []
    if k == 1:
        # a 2-regular graph is its own 2-factor
        return [sorted(e.id for e in g.edges())]
    factors: list[list[str]] = [[] for _ in range(k)]
    comp_of: dict[str, int] = {}
    comps: list[list[tuple[str, str, str]]] = []
    for v in g.vertices():
        if v in comp_of:
            continue
        ci = len(comps)
        comps.append([])
        comp_of[v] = ci
        q = deque([v])
        while q:
            x = q.popleft()
            for e in g.incident(x):
                w = e.other_end(x)
                if w not in comp_of:
                    comp_of[w] = ci
                    q.append(w)
    seen_e: set[str] = set()
    for e in g.edges():
        if e.id not in seen_e:
            seen_e.add(e.id)
            comps[comp_of[e.u]].append((e.id, e.u, e.ends[-1] if len(e.ends) == 2 else e.u))
    for comp_edges in comps:
        if not comp_edges:
            continue
        oriented = euler_orientation(comp_edges)
        items = [(eid, ("out", t), ("in", h)) for eid, t, h in oriented]
        for i, matching in enumerate(bipartite_peel(items, k)):
            factors[i].extend(matching)
    return [sorted(f) for f in factors]


def directed_cycle_cover_decomposition(g: Graph, k: int) -> list[list[str]]:
    """Split a k-in-k-out-regular digraph (directed loops allowed) into k
    spanning collections of directed cycles."""
    for v in g.vertices():
        ends = vertex_darts(g, v).ends
        if any(d == UND for _, d in ends):
            raise MatchingError("directed decomposition needs arcs and dloops only")
        for direction in (OUT, IN):
            if sum(sum(to.values()) for (_, d), to in ends.items() if d == direction) != k:
                raise MatchingError(f"vertex {v!r} is not {k}-in-{k}-out-regular")
    if k == 0:
        return []
    return peel_cycle_covers(list(g.edges()), k)


def peel_cycle_covers(edges, k: int) -> list[list[str]]:
    """Split arcs and directed loops, k out and k in at every vertex they
    touch, into k cycle covers of those vertices."""
    return bipartite_peel([(e.id, ("out", e.tail), ("in", e.head)) for e in edges], k)
