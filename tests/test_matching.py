import random

import networkx as nx
import pytest

from coverkit import (
    Graph,
    MatchingError,
    bipartite_k_factorization,
    directed_cycle_cover_decomposition,
    general_perfect_matching,
    two_factorization,
)
from coverkit.matching import _kuhn, euler_orientation, maximum_matching

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


def test_factorize_k22():
    g = complete_bipartite(2, 2)
    parts = bipartite_k_factorization(g, 2)
    assert len(parts) == 2
    assert sorted(parts[0] + parts[1]) == sorted(e.id for e in g.edges())
    for p in parts:
        check_matching_edges(g, p)


def test_factorize_c6():
    g = cycle(6)
    parts = bipartite_k_factorization(g, 2)
    for p in parts:
        assert len(p) == 3
        check_matching_edges(g, p)


def test_factorize_k33():
    g = complete_bipartite(3, 3)
    parts = bipartite_k_factorization(g, 3)
    seen = set()
    for p in parts:
        cov = check_matching_edges(g, p)
        assert cov == set(g.vertices())
        seen.update(p)
    assert len(seen) == 9


def test_factorize_rejects():
    with pytest.raises(MatchingError):
        bipartite_k_factorization(cycle(5), 2)
    with pytest.raises(MatchingError):
        bipartite_k_factorization(complete_bipartite(2, 3), 2)


def test_euler_loop_and_cycle():
    edges = [("l", "u", "u"), ("e1", "u", "v"), ("e2", "v", "u")]
    oriented = euler_orientation(edges)
    assert len(oriented) == 3
    outs = {}
    ins = {}
    for _, t, h in oriented:
        outs[t] = outs.get(t, 0) + 1
        ins[h] = ins.get(h, 0) + 1
    assert outs == ins


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


def test_kuhn_matches_recursive_reference():
    # the peels must pick the same matchings as the recursive search did
    rng = random.Random(5)
    for _ in range(2000):
        nl, nr = rng.randrange(1, 7), rng.randrange(1, 7)
        adj = {u: rng.sample(range(nr), rng.randrange(nr + 1)) for u in range(nl)}
        want = kuhn_reference(list(range(nl)), adj)
        got = _kuhn(list(range(nl)), adj)
        assert got == want
        if want is not None:
            assert list(got.items()) == list(want.items())
