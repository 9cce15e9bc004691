import random
from collections import Counter, deque

import networkx as nx
import pytest

from coverkit import (
    Graph,
    MatchingError,
    bipartition,
    directed_cycle_cover_decomposition,
    general_perfect_matching,
    two_factorization,
)
from coverkit.graphs import components, darts
from coverkit.matching import (
    _augment,
    _lca,
    _mark_path,
    bipartite_peel,
    maximum_matching,
    peel_cycle_covers,
    peel_two_factors,
)

from conftest import complete_bipartite, complete_graph, cycle, one_vertex, petersen


def check_matching_edges(g, eids):
    touched = []
    for eid in eids:
        e = g.edge(eid)
        assert e.kind == "edge"
        touched.extend(e.ends)
    assert len(touched) == len(set(touched))
    return set(touched)


def test_pm_c4():
    g = cycle(4)
    m = general_perfect_matching(g)
    assert m is not None and len(m) == 2
    assert check_matching_edges(g, m) == set(g.vertices())


def test_pm_c3_none():
    assert general_perfect_matching(cycle(3)) is None


def test_pm_petersen():
    g = petersen()
    m = general_perfect_matching(g)
    assert m is not None and len(m) == 5
    assert check_matching_edges(g, m) == set(g.vertices())


def test_pm_blossom_needed():
    # two triangles joined by an edge: needs blossom shrinking
    g = Graph("bowtieish")
    for i in range(6):
        g.add_vertex(f"v{i}", "n")
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    for n, (i, j) in enumerate(edges):
        g.add_edge("edge", f"e{n}", "e", f"v{i}", f"v{j}")
    m = general_perfect_matching(g)
    assert m is not None
    assert check_matching_edges(g, m) == set(g.vertices())


def test_max_matching_vs_networkx():
    rng = random.Random(5)
    for trial in range(120):
        n = rng.randrange(2, 11)
        pairs = set()
        for _ in range(rng.randrange(1, 2 * n)):
            i, j = rng.sample(range(n), 2)
            pairs.add((min(i, j), max(i, j)))
        adj = [set() for _ in range(n)]
        for i, j in pairs:
            adj[i].add(j)
            adj[j].add(i)
        mine = maximum_matching(n, adj)
        size = sum(1 for x in mine if x >= 0) // 2
        gx = nx.Graph(list(pairs))
        best = len(nx.max_weight_matching(gx, maxcardinality=True))
        assert size == best, (pairs, mine)


def sided(g):
    """The edges of a bipartite graph as (id, side-0 end, side-1 end)."""
    side = bipartition(g)
    return [(e.id, *((e.u, e.v) if side[e.u] == 0 else (e.v, e.u))) for e in g.edges()]


def test_factorize_k22():
    g = complete_bipartite(2, 2)
    parts = bipartite_peel(sided(g), 2)
    assert len(parts) == 2
    assert sorted(parts[0] + parts[1]) == sorted(e.id for e in g.edges())
    for p in parts:
        check_matching_edges(g, p)


def test_factorize_c6():
    g = cycle(6)
    parts = bipartite_peel(sided(g), 2)
    for p in parts:
        assert len(p) == 3
        check_matching_edges(g, p)


def test_factorize_k33():
    g = complete_bipartite(3, 3)
    parts = bipartite_peel(sided(g), 3)
    seen = set()
    for p in parts:
        cov = check_matching_edges(g, p)
        assert cov == set(g.vertices())
        seen.update(p)
    assert len(seen) == 9


def test_factorize_rejects():
    with pytest.raises(MatchingError):
        bipartite_peel(sided(complete_bipartite(2, 3)), 2)


def test_euler_loop_and_cycle():
    # a loop at each end of a double edge: the closed trails walk each
    # loop out and in at once, and the only split into 2-factors puts the
    # two loops in one and the double edge in the other
    g = one_vertex(loops=1)
    g.add_vertex("w", "n")
    g.add_edge("loop", "l2", "e", "w")
    g.add_edge("edge", "e1", "e", "x", "w")
    g.add_edge("edge", "e2", "e", "w", "x")
    assert sorted(two_factorization(g, 2)) == [["e1", "e2"], ["l0", "l2"]]


def check_two_factor(g, factor):
    deg = {v: 0 for v in g.vertices()}
    for eid in factor:
        e = g.edge(eid)
        if e.kind == "loop":
            deg[e.u] += 2
        else:
            deg[e.u] += 1
            deg[e.v] += 1
    assert all(d == 2 for d in deg.values()), deg


def test_two_factor_c6():
    g = cycle(6)
    factors = two_factorization(g, 1)
    assert len(factors) == 1 and len(factors[0]) == 6


def test_two_factor_k5():
    g = complete_graph(5)
    factors = two_factorization(g, 2)
    assert len(factors) == 2
    all_edges = sorted(e.id for e in g.edges())
    assert sorted(factors[0] + factors[1]) == all_edges
    for f in factors:
        check_two_factor(g, f)


def test_two_factor_double_loop():
    g = one_vertex(loops=2)
    factors = two_factorization(g, 2)
    assert sorted(len(f) for f in factors) == [1, 1]
    for f in factors:
        check_two_factor(g, f)


def test_two_factor_random_regular():
    rng = random.Random(9)
    for trial in range(30):
        k = rng.randrange(1, 4)
        n = rng.randrange(2, 9)
        g = Graph("cfg")
        for i in range(n):
            g.add_vertex(f"v{i}", "n")
        stubs = [v for v in g.vertices() for _ in range(2 * k)]
        rng.shuffle(stubs)
        for idx in range(0, len(stubs), 2):
            a, b = stubs[idx], stubs[idx + 1]
            if a == b:
                g.add_edge("loop", f"e{idx}", "e", a)
            else:
                g.add_edge("edge", f"e{idx}", "e", a, b)
        factors = two_factorization(g, k)
        assert len(factors) == k
        assert sorted(sum(factors, [])) == sorted(e.id for e in g.edges())
        for f in factors:
            check_two_factor(g, f)


def test_directed_c3():
    g = Graph("dc3")
    for i in range(3):
        g.add_vertex(f"v{i}", "n")
    for i in range(3):
        g.add_edge("arc", f"a{i}", "d", f"v{i}", f"v{(i + 1) % 3}")
    covers = directed_cycle_cover_decomposition(g, 1)
    assert covers == [sorted(f"a{i}" for i in range(3))]


def test_directed_complete_digraph():
    g = Graph("dk3")
    for i in range(3):
        g.add_vertex(f"v{i}", "n")
    n = 0
    for i in range(3):
        for j in range(3):
            if i != j:
                n += 1
                g.add_edge("arc", f"a{n}", "d", f"v{i}", f"v{j}")
    covers = directed_cycle_cover_decomposition(g, 2)
    assert len(covers) == 2
    for cov in covers:
        outs = {v: 0 for v in g.vertices()}
        ins = {v: 0 for v in g.vertices()}
        for eid in cov:
            e = g.edge(eid)
            outs[e.tail] += 1
            ins[e.head] += 1
        assert all(v == 1 for v in outs.values()) and all(v == 1 for v in ins.values())


def test_directed_loops():
    g = one_vertex(dloops=3)
    covers = directed_cycle_cover_decomposition(g, 3)
    assert sorted(len(c) for c in covers) == [1, 1, 1]


# the fast paths against the general routines they skip ------------------------


def find_path_reference(n, adj, match, root):
    """The blossom search relabelling all n vertices at every shrink;
    returns whether it augmented, how many blossoms it shrank, and how
    many of those took in a blossom shrunk before (nested)."""
    used, p, base = [False] * n, [-1] * n, list(range(n))
    used[root] = True
    q = deque([root])
    shrunk = nested = 0
    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                curbase = _lca(match, base, p, v, to)
                blossom = set()
                _mark_path(match, base, p, blossom, v, curbase, to)
                _mark_path(match, base, p, blossom, to, curbase, v)
                shrunk += 1
                # a vertex whose base is not itself lies in an earlier blossom
                merged = blossom | {curbase}
                nested += any(base[i] != i and base[i] in merged for i in range(n))
                for i in range(n):
                    if base[i] in blossom:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    _augment(match, p, to)
                    return True, shrunk, nested
                used[match[to]] = True
                q.append(match[to])
    return False, shrunk, nested


def greedy_start(n, adj):
    """Each exposed vertex, in order, matched to its first exposed neighbour."""
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v], match[to] = to, v
                    break
    return match


def test_maximum_matching_matches_full_relabelling():
    # same mate array as the search that allocates its arrays per root and
    # relabels every vertex per blossom, run from the same greedy start
    rng = random.Random(11)
    shrunk = 0
    for _ in range(1500):
        n = rng.randrange(2, 16)
        adj = [set() for _ in range(n)]
        for _ in range(rng.randrange(n, 3 * n)):
            i, j = rng.sample(range(n), 2)
            adj[i].add(j)
            adj[j].add(i)
        want = greedy_start(n, adj)
        for v in range(n):
            if want[v] == -1:
                shrunk += find_path_reference(n, adj, want, v)[1]
        assert maximum_matching(n, adj) == want
    assert shrunk > 1000


def odd_cycles(rng, n):
    """Adjacency on 0..n-1 from random odd cycles of 3 to 11 vertices,
    which share vertices, plus a few chords: blossoms inside blossoms."""
    adj = [set() for _ in range(n)]
    for _ in range(rng.randrange(n // 3, n)):
        ring = rng.sample(range(n), min(n, rng.choice((3, 5, 7, 9, 11))))
        for a, b in zip(ring, ring[1:] + ring[:1]):
            adj[a].add(b)
            adj[b].add(a)
    for _ in range(rng.randrange(n // 4 + 1)):
        a, b = rng.sample(range(n), 2)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def test_maximum_matching_matches_full_relabelling_with_nested_blossoms():
    # graphs of up to 200 vertices, where blossoms shrink inside blossoms
    rng = random.Random(31)
    shrunk = nested = 0
    for _ in range(150):
        n = rng.randrange(16, 201)
        adj = odd_cycles(rng, n)
        want = greedy_start(n, adj)
        for v in range(n):
            if want[v] == -1:
                _, s, t = find_path_reference(n, adj, want, v)
                shrunk, nested = shrunk + s, nested + t
        assert maximum_matching(n, adj) == want
    assert shrunk > 5000 and nested > 3000, (shrunk, nested)


# the Euler-split peels against the round-by-round routines they replace -------


def kuhn_reference(left, adj):
    """The recursive form of Kuhn's augmenting-path search."""
    match_r, match_l = {}, {}

    def try_augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if v not in match_r or try_augment(match_r[v], seen):
                    match_r[v] = u
                    match_l[u] = v
                    return True
        return False

    for u in left:
        if u not in match_l and not try_augment(u, set()):
            return None
    return match_l


def peel_reference(items, k):
    """``bipartite_peel`` running the augmenting-path search in every round."""
    remaining, lefts, rights = {}, set(), set()
    for eid, l, r in items:
        remaining.setdefault((l, r), []).append(eid)
        lefts.add(l)
        rights.add(r)
    out = []
    for rnd in range(k):
        adj = {l: [] for l in lefts}
        for (l, r), ids in remaining.items():
            if ids:
                adj[l].append(r)
        match = kuhn_reference(sorted(lefts, key=str), adj)
        if match is None or len(match) != len(lefts) or len(set(match.values())) != len(rights):
            raise MatchingError(f"no perfect matching in peeling round {rnd}")
        out.append(sorted(remaining[(l, r)].pop() for l, r in match.items()))
    if any(ids for ids in remaining.values()):
        raise MatchingError("edges left over after peeling; graph was not k-regular")
    return out


def euler_orientation_reference(edges):
    """Orient a connected even-degree multigraph, edges (eid, u, v) with
    loops as (eid, u, u), along an Euler circuit."""
    adj = {}
    for eid, u, v in edges:
        adj.setdefault(u, []).append((eid, v))
        if u != v:
            adj.setdefault(v, []).append((eid, u))
    ptr = {v: 0 for v in adj}
    used = set()
    stack = [(edges[0][1], None)]
    out = []
    while stack:
        v, via = stack[-1]
        while ptr[v] < len(adj[v]) and adj[v][ptr[v]][0] in used:
            ptr[v] += 1
        if ptr[v] < len(adj[v]):
            eid, w = adj[v][ptr[v]]
            used.add(eid)
            stack.append((w, eid))
        else:
            stack.pop()
            if via is not None:
                out.append((via, stack[-1][0], v))
    if len(out) != len(edges):
        raise MatchingError("graph has no Euler circuit (odd degree or disconnected)")
    return out


def two_factorization_reference(g, k):
    """``two_factorization`` orienting each component along an Euler
    circuit and peeling it round by round."""
    for v in g.vertices():
        at = darts(g, v)
        kinds = g.columns()[1]
        if any(kinds[k] in ("semi", "arc", "dloop") for k, _, _, _ in at):
            raise MatchingError("semi-edges or directed edges in 2-factorization input")
        if sum(c for _, _, _, c in at) != 2 * k:
            raise MatchingError(f"vertex {v!r} is not {2 * k}-regular")
    if k == 0:
        return []
    factors = [[] for _ in range(k)]
    for comp in components(g):
        inside = set(comp)
        edges = [(e.id, e.u, e.v) for e in g.edges() if e.u in inside]
        if edges:
            items = [(eid, ("out", t), ("in", h)) for eid, t, h in euler_orientation_reference(edges)]
            for i, matching in enumerate(peel_reference(items, k)):
                factors[i].extend(matching)
    return [sorted(f) for f in factors]


def refused(split, *args):
    try:
        split(*args)
    except MatchingError as exc:
        return str(exc)
    return None


def check_peel(items, k, parts):
    """k disjoint perfect matchings, together every edge."""
    assert len(parts) == k
    ends = {eid: (l, r) for eid, l, r in items}
    lefts, rights = {l for l, _ in ends.values()}, {r for _, r in ends.values()}
    for part in parts:
        assert part == sorted(part)
        assert Counter(ends[eid][0] for eid in part) == Counter(lefts)
        assert Counter(ends[eid][1] for eid in part) == Counter(rights)
    assert sorted(sum(parts, [])) == sorted(ends)


def regular_bipartite_items(rng, n, k, shared):
    # k random perfect matchings on n + n vertices, parallel edges allowed;
    # with ``shared`` the two sides use the same names, like the tails and
    # heads of a cycle-cover item
    rname = "L" if shared else "R"
    items = []
    for rnd in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        items += [(f"e{rnd}.{i}", f"L{i}", f"{rname}{perm[i]}") for i in range(n)]
    rng.shuffle(items)
    return items


def test_peels_match_the_general_routines():
    rng = random.Random(13)
    errors, odd_accepted = Counter(), 0
    for trial in range(900):
        k, n = rng.randrange(1, 8), rng.randrange(1, 7)
        items = regular_bipartite_items(rng, n, k, shared=trial % 2 == 0)
        # break regularity four ways
        variant = trial % 5
        if variant == 1:
            eid, l, r = items.pop(rng.randrange(len(items)))
            items.append((eid, l, f"{r[0]}{rng.randrange(n)}"))
        elif variant == 2:
            items.pop(rng.randrange(len(items)))
        elif variant == 3:
            items.append(("extra", f"L{rng.randrange(n)}", f"{items[0][2][0]}{rng.randrange(n)}"))
        elif variant == 4:
            k += rng.choice((-1, 1))
        want = refused(peel_reference, items, k)
        got = refused(bipartite_peel, items, k)
        assert (got is None) == (want is None), (items, k, got, want)
        if want is None:
            check_peel(items, k, bipartite_peel(items, k))
            odd_accepted += k % 2 == 1 and k > 1
        else:
            errors[want.split(" round")[0].split(";")[0]] += 1
        # arcs and directed loops of a k-in-k-out digraph on the same pairs
        arcs = Graph("arcs")
        for i in range(n):
            arcs.add_vertex(f"v{i}", "n")
        for eid, l, r in items:
            tail, head = f"v{l[1:]}", f"v{r[1:]}"
            if tail == head:
                arcs.add_edge("dloop", eid, "d", tail)
            else:
                arcs.add_edge("arc", eid, "d", tail, head)
        cycle_items = [(e.id, e.tail, e.head) for e in arcs.edges()]
        want = refused(peel_reference, cycle_items, k)
        assert (refused(peel_cycle_covers, list(arcs.edges()), k) is None) == (want is None)
        if want is None:
            check_peel(cycle_items, k, peel_cycle_covers(list(arcs.edges()), k))
    # the reference refuses both ways, and odd k of 3 or more is peeled
    assert errors["no perfect matching in peeling"] > 20
    assert errors["edges left over after peeling"] > 20
    assert odd_accepted > 50


def test_peel_raises_where_the_last_round_is_not_one_regular():
    # L0 has two edges and R0 one: the search matches and leaves e2 over
    items = [("e1", "L0", "R0"), ("e2", "L0", "R1"), ("e3", "L1", "R1")]
    assert refused(peel_reference, items, 1)
    with pytest.raises(MatchingError, match="left vertex 'L0' has degree 2, expected 1"):
        bipartite_peel(items, 1)
    items = [("e1", "L0", "R0"), ("e2", "L1", "R0"), ("e3", "L0", "R1")]
    assert refused(peel_reference, items, 2)
    with pytest.raises(MatchingError, match="left vertex 'L1' has degree 1, expected 2"):
        bipartite_peel(items, 2)
    assert bipartite_peel([], 1) == [[]] == peel_reference([], 1)
    assert bipartite_peel([], 0) == [] == peel_reference([], 0)
    # one name on both sides: a directed loop's tail and head
    assert bipartite_peel([("a", "x", "x")], 1) == [["a"]] == peel_reference([("a", "x", "x")], 1)
    with pytest.raises(MatchingError, match="expected 0"):
        bipartite_peel([("a", "x", "x")], 0)


def random_two_k_regular(rng, g, prefix, n, k, short=False):
    # a configuration-model 2k-regular multigraph, loops allowed
    for i in range(n):
        g.add_vertex(f"{prefix}{i}", "n")
    stubs = [f"{prefix}{i}" for i in range(n) for _ in range(2 * k)]
    if short:
        stubs = stubs[2:]  # one vertex short of 2k
    rng.shuffle(stubs)
    for idx in range(0, len(stubs), 2):
        a, b = stubs[idx], stubs[idx + 1]
        if a == b:
            g.add_edge("loop", f"{prefix}e{idx}", "e", a)
        else:
            g.add_edge("edge", f"{prefix}e{idx}", "e", a, b)


def test_two_factorization_matches_the_general_routine():
    rng = random.Random(17)
    accepted = {"odd k": 0, "even k": 0, "two components": 0, "loops": 0}
    for trial in range(400):
        k, n = rng.randrange(1, 6), rng.randrange(1, 8)
        g = Graph("cfg")
        random_two_k_regular(rng, g, "v", n, k, short=trial % 4 == 3)
        if trial % 3 == 0:
            # a second component, so no Euler circuit walks the whole graph
            random_two_k_regular(rng, g, "w", rng.randrange(1, 5), k)
        if trial % 7 == 6:
            k += 1
        want = refused(two_factorization_reference, g, k)
        assert (refused(two_factorization, g, k) is None) == (want is None), (trial, want)
        if want is None:
            factors = two_factorization(g, k)
            assert len(factors) == k
            assert sorted(sum(factors, [])) == sorted(e.id for e in g.edges())
            for f in factors:
                assert f == sorted(f)
                check_two_factor(g, f)
            accepted["odd k" if k % 2 else "even k"] += 1
            accepted["two components"] += len(components(g)) > 1
            accepted["loops"] += any(e.kind == "loop" for e in g.edges())
    assert min(accepted.values()) > 40, accepted
    # the fibre form takes the same triples and spans every listed vertex
    assert peel_two_factors(["a", "b"], [("l", "a", "a"), ("m", "b", "b")], 1) == [["l", "m"]]
    with pytest.raises(MatchingError, match="'b' has degree 0, expected 2"):
        peel_two_factors(["a", "b"], [("l", "a", "a")], 1)
