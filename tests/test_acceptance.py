"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Everything is desk-scale and oracle-anchored; tolerances and
budgets are pinned here, not tuned elsewhere.
"""

import itertools
import random
import time

import pytest

from coverkit import (
    CoveringProjection,
    SmallShape,
    classify_shape,
    companion_mapping,
    degree_partition,
    is_balanced,
    normalize_colours,
    oracle_cover,
    partial_covers,
    reduce_pair,
    solve_cover,
    verify_cover,
)
from coverkit.classify import DANGEROUS, HARMFUL, HARMLESS
from coverkit.gadgets import (
    bc_colouring_brute,
    brute_force_formula,
    build_gphi_fw,
    compose_claimA,
    directed_lift_wd,
    fw_target,
    fw2_target,
    limping_tripod,
    random_formula,
    random_regular,
    variable_gadget,
    wd_target,
)
from coverkit.matching import bipartite_peel, two_factorization
from coverkit.solver import complete_edge_mapping

from conftest import cycle, one_vertex, random_multigraph
from hosts import harmless_hosts, random_compatible_input


def report(n, text):
    print(f"\nCRITERION {n}: PASS - {text}")


def test_criterion_1_classification_catalogue():
    t0 = time.time()
    harmless_uniblock = []
    # F(b,0) b<=2, F(1,c), F(0,c)
    for b in range(5):
        for c in range(5):
            s = SmallShape("F", (b, c))
            want = HARMLESS if (b <= 1 or (b == 2 and c == 0)) else HARMFUL
            assert classify_shape(s) == want, s
    for c in range(5):
        assert classify_shape(SmallShape("FD", (c,))) == HARMLESS
    checked = 50
    for k, m, l, p, q in itertools.product(range(5), repeat=5):
        if k + 2 * m != q + 2 * p:
            continue
        s = SmallShape("W", (k, m, l, p, q))
        got = classify_shape(s)
        checked += 1
        if l == 0:
            part_bad = (k >= 2 and k + m >= 3) or (q >= 2 and q + p >= 3)
            assert got == (HARMFUL if part_bad else HARMLESS), s
        elif k + 2 * m == 0:
            assert got == HARMLESS, s  # pure bundle
        elif (k, m, l, p, q) == (1, 0, 1, 0, 1):
            assert got == HARMLESS, s
        else:
            assert got == HARMFUL, s
            assert k + 2 * m + l >= 3, s
    for m, l in itertools.product(range(5), repeat=2):
        s = SmallShape("WD", (m, l, m))
        want = HARMLESS if (m == 0 or l == 0 or (m, l) == (1, 1)) else HARMFUL
        assert classify_shape(s) == want, s
        checked += 1
    for c in range(5):
        assert classify_shape(SmallShape("FF", (c,))) == HARMLESS
        checked += 1
    for b in range(5):
        s = SmallShape("FW", (b,))
        want = HARMLESS if b <= 1 else (DANGEROUS if b == 2 else HARMFUL)
        assert classify_shape(s) == want, s
        checked += 1
    for b, c in itertools.product(range(5), repeat=2):
        s = SmallShape("WW", (max(b, c), min(b, c)))
        want = HARMLESS if (min(b, c) == 0 or (b, c) == (1, 1)) else HARMFUL
        assert classify_shape(s) == want, s
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"
    report(1, f"Definition catalogue reproduced over {checked} shapes in {elapsed * 1000:.0f} ms")


def test_criterion_2_and_8_solver_oracle_equivalence_and_companion():
    t0 = time.time()
    rng = random.Random(20240)
    hosts = harmless_hosts(max_param=2)
    total = 0
    yes_cases = 0
    swap_checked = 0
    for name, h in hosts:
        part_h, _ = degree_partition(h)
        hn = normalize_colours(h, part_h)
        balanced = is_balanced(h)
        per_target = 0
        while per_target < 200:
            r = rng.randint(1, max(1, 10 // h.n))
            g = random_compatible_input(h, r, seed=rng.randrange(10**9))
            if g.n > 10:
                continue
            per_target += 1
            total += 1
            res = solve_cover(g, h)
            check = oracle_cover(g, h, budget=500_000)
            assert check.status in ("yes", "no"), (name, per_target)
            assert res.yes == check.yes, (name, per_target, res.status, check.status)
            if res.yes:
                yes_cases += 1
                assert verify_cover(g, h, res.projection).ok, (name, per_target)
                if balanced:
                    swapped = companion_mapping(h, part_h, res.projection.fv)
                    gn = normalize_colours(g, degree_partition(g)[0])
                    fe = complete_edge_mapping(gn, hn, swapped)
                    ok = verify_cover(g, h, CoveringProjection(swapped, fe))
                    assert ok.ok, (name, per_target, ok.violations)
                    swap_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"
    assert total >= 200 * len(hosts)
    assert yes_cases >= 100
    report(2, f"solver and oracle agree on {total} inputs over {len(hosts)} targets "
              f"({yes_cases} covering) in {elapsed:.1f}s")
    report(8, f"companion mapping completed and verified on {swap_checked} "
              f"covering instances of balanced targets")


def test_criterion_3_parity_cases():
    f20 = one_vertex(semis=2)
    for k in range(1, 6):
        odd = cycle(2 * k + 1)
        even = cycle(2 * k)
        assert solve_cover(odd, f20).status == "no", k
        assert solve_cover(even, f20).status == "yes", k
        assert oracle_cover(odd, f20).no, k
        assert oracle_cover(even, f20).yes, k
    report(3, "odd cycles rejected and even cycles accepted onto the "
              "two-semi-edge vertex for k = 1..5, solver and oracle alike")


def test_criterion_4_reduction_invariance():
    rng = random.Random(444)
    agree = 0
    unknowns = 0
    trials = 0
    while agree < 100 and trials < 400:
        trials += 1
        g = random_multigraph(rng.randrange(3, 9), rng.randrange(1, 5),
                              seed=rng.randrange(10**9), colours=("e", "f"))
        h = random_multigraph(rng.randrange(2, 7), rng.randrange(1, 4),
                              seed=rng.randrange(10**9), colours=("e", "f"))
        if rng.random() < 0.4:
            # bias towards actual covers: take a lift of h as the input
            from test_covers import random_lift

            g = random_lift(h, rng.randrange(1, 3), rng)
        from coverkit import is_connected

        if not is_connected(g):
            continue
        want = oracle_cover(g, h, budget=300_000)
        gr, hr, _ = reduce_pair(g, h)
        got = oracle_cover(gr, hr, budget=300_000)
        if want.status == "unknown" or got.status == "unknown":
            unknowns += 1
            continue
        assert want.yes == got.yes, (trials, want.status, got.status)
        agree += 1
    assert agree >= 100
    report(4, f"cover existence is invariant under the degree-adjusting "
              f"reduction on {agree} random pairs ({unknowns} unknowns excluded)")


def test_criterion_5_factorization_lemmas():
    rng = random.Random(55)
    from coverkit import Graph

    done_bip = 0
    for trial in range(100):
        k = rng.randint(1, 4)
        m = rng.randint(k, 10)
        g = Graph(f"bip{trial}")
        for j in range(m):
            g.add_vertex(f"l{j}", "n")
            g.add_vertex(f"r{j}", "n")
        eid = 0
        items = []
        for cls in range(k):
            perm = list(range(m))
            rng.shuffle(perm)
            for j in range(m):
                eid += 1
                g.add_edge("edge", f"e{eid}", "e", f"l{j}", f"r{perm[j]}")
                items.append((f"e{eid}", f"l{j}", f"r{perm[j]}"))
        parts = bipartite_peel(items, k)
        assert len(parts) == k
        assert sorted(sum(parts, [])) == sorted(e.id for e in g.edges())
        for p in parts:
            touched = [w for eidp in p for w in g.edge(eidp).ends]
            assert sorted(touched) == sorted(g.vertices())
        done_bip += 1
    done_two = 0
    for trial in range(100):
        k = rng.randint(1, 3)
        n = rng.randint(1, 7)
        g = Graph(f"reg{trial}")
        for i in range(n):
            g.add_vertex(f"v{i}", "n")
        stubs = [f"v{i}" for i in range(n) for _ in range(2 * k)]
        rng.shuffle(stubs)
        eid = 0
        for a, b in zip(stubs[::2], stubs[1::2]):
            eid += 1
            if a == b:
                g.add_edge("loop", f"e{eid}", "e", a)
            else:
                g.add_edge("edge", f"e{eid}", "e", a, b)
        factors = two_factorization(g, k)
        assert len(factors) == k
        assert sorted(sum(factors, [])) == sorted(e.id for e in g.edges())
        for f in factors:
            deg = {v: 0 for v in g.vertices()}
            for eidp in f:
                e = g.edge(eidp)
                for w in e.ends:
                    deg[w] += 1
                if e.kind == "loop":
                    deg[e.u] += 1
            assert all(d == 2 for d in deg.values())
        done_two += 1
    report(5, f"{done_bip} bipartite factorizations and {done_two} "
              f"2-factorizations, all spanning, disjoint and complete")


def test_criterion_6_limping_tripod():
    t0 = time.time()
    lt = limping_tripod()
    h = fw2_target()
    count = 0
    images = set()
    for fv in (p.fv for p in partial_covers(lt, h)):
        count += 1
        assert fv["u"] == fv["v"], fv
        images.add(fv["u"])
    assert count > 0 and images == {"r", "g"}
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(6, f"all {count} partial covering projections of the tripod agree "
              f"on the pendants, both images realized, in {elapsed * 1000:.0f} ms")


def test_criterion_7_hardness_gadgets():
    t0 = time.time()
    h3 = fw_target(3)
    formulas = [(3, s) for s in range(4)] + [(4, 3), (4, 0)]
    gphi_checked = 0
    for n_clauses, seed in formulas:
        f = random_formula(3, n_clauses, 3, seed=seed)
        assert len(f.variables) <= 8
        want = brute_force_formula(f) is not None
        g = build_gphi_fw(3, f)
        res = oracle_cover(g, h3, budget=16_000_000)
        assert res.status != "unknown", (n_clauses, seed)
        assert res.yes == want, (n_clauses, seed)
        gphi_checked += 1
    # unsatisfiable formulas: parity refutes two, the search the third,
    # whose degree rows have a solution mod 2
    for n_clauses, seed, reason in [(8, 31, "parity"), (8, 36, "parity"), (7, 68, "search")]:
        f = random_formula(3, n_clauses, 3, seed=seed)
        assert brute_force_formula(f) is None
        res = oracle_cover(build_gphi_fw(3, f), h3, budget=200_000)
        assert (res.status, res.reason) == ("no", reason), (n_clauses, seed, res.status)
        gphi_checked += 1
    lifts_checked = 0
    for seed in range(5):
        base, _ = random_regular("bipartite", 3, 4 if seed % 2 else 3, seed=seed)
        assert base.n <= 8
        lift = directed_lift_wd(base, 2, 1)
        want = bc_colouring_brute(base, 2, 1) is not None
        res = oracle_cover(lift, wd_target(2, 1), budget=2_000_000)
        assert res.status != "unknown", seed
        assert res.yes == want, seed
        lifts_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600, f"took {elapsed:.0f}s"
    report(7, f"{gphi_checked} clause graphs against the 3-bundle hub target and "
              f"{lifts_checked} directed lifts against the directed doublet, "
              f"all matching brute force, in {elapsed:.0f}s")
