import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from coverkit import (
    Graph,
    GraphError,
    Partition,
    ReductionError,
    degree_adjust,
    degree_partition,
    is_balanced,
    normalize_colours,
    parse_graph,
    reduce_pair,
    serialize_graph,
)
from coverkit.gadgets import limping_tripod
from coverkit.graphs import darts, vertex_darts
from coverkit.partition import _signature, is_equitable

from conftest import (
    arc_beside_dotted_edge,
    assert_same_graph,
    complete_bipartite,
    complete_graph,
    cycle,
    derived_graph_inputs,
    looped_triangle_with_tails,
    one_vertex,
    path,
    random_multigraph,
    rebuilt,
    two_vertex_w,
)


def test_star_partition():
    star = complete_bipartite(1, 3)
    part, matrix = degree_partition(star)
    assert sorted(len(b) for b in part.blocks) == [1, 3]
    centre_block = part.block_of["a0"]
    leaf_block = 1 - centre_block
    assert matrix.get(centre_block, leaf_block, "e") == 3
    assert matrix.get(leaf_block, centre_block, "e") == 1


def test_degree_partition_of_empty_graph():
    part, matrix = degree_partition(Graph("empty"))
    assert (part.blocks, part.block_of, part.k) == ([], {}, 0)
    assert (matrix.k, matrix.entries) == (0, {})


def test_cycle_partition():
    part, matrix = degree_partition(cycle(6))
    assert part.k == 1
    assert matrix.get(0, 0, "e") == 2


def test_tripod_partition():
    # computed by running colour refinement by hand on the K_{2,3} plus
    # two pendants: hubs split from the rest, then the pendants split
    # from the middle layer
    part, _ = degree_partition(limping_tripod())
    sizes = sorted(len(b) for b in part.blocks)
    assert sizes == [2, 2, 3]
    blocks = {frozenset(b) for b in part.blocks}
    assert frozenset({"p1", "p2"}) in blocks
    assert frozenset({"m1", "m2", "m3"}) in blocks
    assert frozenset({"u", "v"}) in blocks


def test_partition_equitable_and_coarsest():
    g = random_multigraph(7, 5, seed=11, colours=("e", "f"), allow_arc=True)
    part, matrix = degree_partition(g)
    assert is_equitable(g, part)
    # one more refinement round must not split: signatures are constant per block
    part2, matrix2 = degree_partition(g)
    assert part.blocks == part2.blocks and matrix == matrix2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_relabel_invariance(seed):
    g = random_multigraph(6, 5, seed=seed, colours=("e", "f"))
    rng = random.Random(seed + 1)
    names = g.vertices()
    shuffled = names[:]
    rng.shuffle(shuffled)
    ren = dict(zip(names, shuffled))
    g2 = Graph("perm")
    for v in shuffled:
        pass
    for v in names:
        g2.add_vertex(ren[v], g.vertex_colour(v))
    for e in g.edges():
        g2.add_edge(e.kind, e.id, e.colour, *[ren[w] for w in e.ends])
    _, m1 = degree_partition(g)
    _, m2 = degree_partition(g2)
    assert m1 == m2


def test_normalize_star():
    star = complete_bipartite(1, 3)
    part, _ = degree_partition(star)
    norm = normalize_colours(star, part)
    assert len(norm.vertex_colours()) == 2
    assert len(norm.edge_colours()) == 1
    part2, _ = degree_partition(norm)
    assert part2.blocks == part.blocks


def test_normalize_splits_colour_spanning_two_pairs():
    # one colour used between blocks (0,1) and (1,2): must split in two
    g = Graph("chain")
    for v, c in (("a", "x"), ("b", "y"), ("c", "z")):
        g.add_vertex(v, c)
    g.add_edge("edge", "e1", "e", "a", "b")
    g.add_edge("edge", "e2", "e", "b", "c")
    part, _ = degree_partition(g)
    norm = normalize_colours(g, part)
    assert len(norm.edge_colours()) == 2
    part2, _ = degree_partition(norm)
    assert part2.blocks == part.blocks


@pytest.mark.parametrize("part", [
    Partition([["a"]], {"a": 0}),
    Partition([["a", "b", "z"]], {"a": 0, "b": 0, "z": 0}),
    Partition([["a"], ["a", "b"]], {"a": 0, "b": 1}),
    Partition([["a", "b"]], {"a": 0, "b": 1}),
], ids=["missing-vertex", "foreign-vertex", "repeated-vertex", "block-of-disagrees"])
def test_normalize_rejects_partition_not_covering_the_graph(part):
    g = parse_graph("graph g\nvertex a r\nvertex b r\nedge e c a b\n")
    with pytest.raises(GraphError):
        normalize_colours(g, part)


def test_normalize_checks_every_partition_but_its_own():
    g = path(3)
    part, _ = degree_partition(g)
    assert part.blocks == [["v0", "v2"], ["v1"]]
    # by hand: the same blocks pass, a non-equitable split is refused
    same = Partition([list(b) for b in part.blocks], dict(part.block_of))
    assert same == part
    assert list(normalize_colours(g, same).edges()) == list(normalize_colours(g, part).edges())
    with pytest.raises(GraphError):
        normalize_colours(g, Partition([["v0", "v1", "v2"]], {"v0": 0, "v1": 0, "v2": 0}))
    # refined from another graph on the same vertex names: checked, refused
    other = Graph("star")
    for v in ("v0", "v1", "v2"):
        other.add_vertex(v, "n")
    other.add_edge("edge", "a", "e", "v0", "v1")
    other.add_edge("edge", "b", "e", "v0", "v2")
    with pytest.raises(GraphError):
        normalize_colours(other, part)


def test_normalize_deorients_interblock():
    g = Graph("arrow")
    g.add_vertex("a", "x")
    g.add_vertex("b", "y")
    g.add_edge("arc", "e1", "d", "a", "b")
    part, _ = degree_partition(g)
    norm = normalize_colours(g, part)
    (e,) = list(norm.edges())
    assert e.kind == "edge"


def reference_normalize(g, part):
    # the colour naming of normalize_colours, built through the checked path
    width = max(3, len(str(part.k - 1)))
    out = Graph(g.name)
    for v in g.vertices():
        out.add_vertex(v, f"b{part.block_of[v]:0{width}d}")
    for e in g.edges():
        bi, bj = part.block_of[e.ends[0]], part.block_of[e.ends[-1]]
        lo, hi = min(bi, bj), max(bi, bj)
        if bi != bj and e.kind == "arc":
            out.add_edge("edge", e.id, f"a{lo}.{hi}.{e.colour}.{'f' if bi == lo else 'b'}", *e.ends)
        else:
            out.add_edge(e.kind, e.id, f"c{lo}.{hi}.{e.colour}", *e.ends)
    out.validate()
    return out


def test_normalize_and_fibres_equal_checked_rebuilds():
    from coverkit.solver import _Fibres

    arcs_between_blocks = 0
    for label, g in derived_graph_inputs():
        part, _ = degree_partition(g)
        norm = normalize_colours(g, part)
        assert_same_graph(norm, reference_normalize(g, part))
        by_hand = Partition([list(b) for b in part.blocks], dict(part.block_of))
        assert_same_graph(normalize_colours(g, by_hand), norm)
        arcs_between_blocks += sum(e.kind == "arc" and part.block_of[e.u] != part.block_of[e.v]
                                   for e in g.edges())
        # the index reads g itself and files its edges under the block
        # colours of the normalized graph
        fibres = _Fibres(g, part)
        filed = 0
        for colour in sorted(norm.edge_colours()):
            normalized = [e for e in norm.edges() if e.colour == colour]
            edges = [g.edge(e.id) for e in normalized]
            assert [(e.id, e.ends) for e in edges] == [(e.id, e.ends) for e in normalized]
            assert [g.edge(g.columns()[0][k]) for k in fibres.edges(colour)] == edges
            filed += len(edges)
            blocks = sorted({part.block_of[w] for e in edges for w in e.ends})
            verts = [(v, g.vertex_colour(v)) for v in g.vertices() if part.block_of[v] in blocks]
            assert_same_graph(fibres.graph(blocks, colour), rebuilt(g.name, verts, edges))
            assert fibres.vertices(blocks) == [v for v, _ in verts]
            deoriented = {e.kind for e in edges} == {"arc"} and {e.kind for e in normalized} == {"edge"}
            assert (colour in fibres.deoriented) == deoriented
        assert filed == g.m
        assert fibres.deoriented <= norm.edge_colours()
        assert set(fibres.names.values()) == {(e.kind, e.colour) for e in norm.edges()}
        # a block pair with no edges of the colour gives the bare vertices
        if part.k >= 2:
            verts = [(v, g.vertex_colour(v)) for v in g.vertices() if part.block_of[v] in (0, 1)]
            assert_same_graph(fibres.graph((0, 1), "no such colour"), rebuilt(g.name, verts, []))
            assert fibres.edges("no such colour") == []
    assert arcs_between_blocks >= 4


@pytest.mark.parametrize("arcs_first", [True, False])
def test_normalize_keeps_arc_and_dotted_edge_colours_apart(arcs_first):
    # an arc of colour a and an edge of colour a.f between the same blocks
    g, h = arc_beside_dotted_edge(arcs_first)
    for graph in (g, h):
        part, _ = degree_partition(graph)
        norm = normalize_colours(graph, part)
        colour = {e.id[0]: e.colour for e in norm.edges()}
        assert colour["a"] != colour["b"]
        assert len(norm.edge_colours()) == 2


def test_reduce_theta_graph():
    # two degree-3 vertices joined by three length-2 paths: all three
    # chain patterns are equal and symmetric, so the reduction yields two
    # vertices with three parallel edges of one fresh colour
    g = Graph("theta")
    g.add_vertex("a", "n")
    g.add_vertex("b", "n")
    for i in range(3):
        g.add_vertex(f"m{i}", "n")
        g.add_edge("edge", f"l{i}", "e", "a", f"m{i}")
        g.add_edge("edge", f"r{i}", "e", f"m{i}", "b")
    red, record = degree_adjust(g)
    assert red.n == 2 and red.m == 3
    assert len(red.edge_colours()) == 1
    assert all(e.kind == "edge" for e in red.edges())


def test_reduce_cycle_quits():
    red, _ = degree_adjust(cycle(5))
    assert serialize_graph(red).count("edge") == 5
    assert red.n == 5


def test_reduce_k4_with_pendant():
    g = complete_graph(4)
    g.add_vertex("leaf", "n")
    g.add_edge("edge", "pend", "e", "v0", "leaf")
    red, _ = degree_adjust(g)
    assert red.n == 4
    # attachment vertex got a fresh colour distinct from the others
    assert red.vertex_colour("v0") != red.vertex_colour("v1")
    assert red.vertex_colour("v1") == red.vertex_colour("v2")


def test_reduce_tree_rejected():
    t = complete_bipartite(1, 3)
    with pytest.raises(ReductionError):
        degree_adjust(t)


def test_reduce_fw2_to_double_loop():
    from coverkit.gadgets import fw2_target

    red, _ = degree_adjust(fw2_target())
    assert red.n == 1
    kinds = [e.kind for e in red.edges()]
    assert kinds == ["loop", "loop"]
    assert len(red.edge_colours()) == 1


def test_reduce_pair_cycles_unchanged():
    gr, hr, _ = reduce_pair(cycle(6), cycle(3))
    assert gr.n == 6 and hr.n == 3


def test_reduce_pair_subdivided_k4():
    k4 = complete_graph(4)
    sub = Graph("subk4")
    for v in k4.vertices():
        sub.add_vertex(v, "n")
    for e in k4.edges():
        mid = f"m{e.id}"
        sub.add_vertex(mid, "n")
        sub.add_edge("edge", f"{e.id}a", "e", e.u, mid)
        sub.add_edge("edge", f"{e.id}b", "e", mid, e.v)
    gr, hr, record = reduce_pair(sub, k4)
    assert gr.n == 4 and hr.n == 4
    assert gr.m == hr.m == 6
    # each side is monochromatic, but the two-edge chains of the
    # subdivision must not be confused with the plain edges of K_4: a
    # covering projection cannot fold one onto the other, so the shared
    # dictionary keeps the colours apart
    assert len(gr.edge_colours()) == 1 and len(hr.edge_colours()) == 1
    assert gr.edge_colours() != hr.edge_colours()


def test_reduce_pair_tree_type_mismatch_shows():
    # only g carries a pendant tree; the shared dictionary gives g a root
    # colour h never uses
    g = complete_graph(4)
    g.add_vertex("leaf", "n")
    g.add_edge("edge", "pend", "e", "v0", "leaf")
    h = complete_graph(4)
    gr, hr, record = reduce_pair(g, h)
    assert gr.vertex_colours() - hr.vertex_colours()


def test_semi_chain_identification():
    # a dangling chain a-x-(semi) and the symmetric chain a-y1-y2-b,
    # which folds around its middle edge, must receive the same colour:
    # a cover may map the folded chain onto the dangling one
    g = Graph("fold")
    for v in ("a", "b", "x", "y1", "y2"):
        g.add_vertex(v, "n")
    g.add_edge("edge", "t1", "e", "a", "b")
    g.add_edge("edge", "t2", "e", "a", "b")
    g.add_edge("edge", "c1", "e", "a", "x")
    g.add_edge("semi", "s1", "e", "x")
    g.add_edge("edge", "d1", "e", "a", "y1")
    g.add_edge("edge", "d2", "e", "y1", "y2")
    g.add_edge("edge", "d3", "e", "y2", "b")
    # bump degrees over 2 with a second colour
    g.add_edge("loop", "la", "f", "a")
    g.add_edge("loop", "lb", "f", "b")
    red, _ = degree_adjust(g)
    semi = next(e for e in red.edges() if e.kind == "semi")
    folded = [e for e in red.edges() if e.kind == "edge" and set(e.ends) == {"a", "b"} and e.colour == semi.colour]
    assert len(folded) == 1


def test_is_balanced():
    assert is_balanced(two_vertex_w(1, 0, 0, 0, 1))
    assert not is_balanced(two_vertex_w(2, 0, 0, 1, 0))
    assert is_balanced(one_vertex(semis=2))


def test_normalization_preserves_cover_existence():
    # the solver decides on normalized pairs and maps certificates back,
    # so normalization must not change the answer
    from coverkit import oracle_cover
    from hosts import harmless_hosts, random_compatible_input

    rng = random.Random(31415)
    checked = 0
    for name, h in harmless_hosts(max_param=2)[::3]:
        for trial in range(6):
            g = random_compatible_input(h, rng.randint(1, max(1, 8 // h.n)),
                                        seed=rng.randrange(10**9))
            want = oracle_cover(g, h, budget=300_000)
            pg, _ = degree_partition(g)
            ph, _ = degree_partition(h)
            gn = normalize_colours(g, pg)
            hn = normalize_colours(h, ph)
            got = oracle_cover(gn, hn, budget=300_000)
            assert want.status in ("yes", "no") and got.status in ("yes", "no")
            assert want.yes == got.yes, (name, trial)
            checked += 1
    assert checked >= 30


def test_reduction_invariance_with_arcs():
    from coverkit import oracle_cover

    rng = random.Random(2718)
    agree = 0
    for trial in range(60):
        g = random_multigraph(rng.randrange(3, 8), rng.randrange(1, 4),
                              seed=rng.randrange(10**9), allow_arc=True)
        h = random_multigraph(rng.randrange(2, 6), rng.randrange(1, 4),
                              seed=rng.randrange(10**9), allow_arc=True)
        from coverkit import is_connected

        if not (is_connected(g) and is_connected(h)):
            continue
        want = oracle_cover(g, h, budget=200_000)
        gr, hr, _ = reduce_pair(g, h)
        got = oracle_cover(gr, hr, budget=200_000)
        if "unknown" in (want.status, got.status):
            continue
        assert want.yes == got.yes, trial
        agree += 1
    assert agree >= 40


# the refinement against a round-by-round reference ---------------------------


def reference_partition(g):
    """Colour refinement that re-signs every vertex in every round: the
    definition of the canonical degree partition, kept to check the
    incremental one.  Returns (blocks, block_of, matrix entries)."""

    def signature(v, block_of):
        sig = []
        for (colour, dtag), targets in vertex_darts(g, v).ends.items():
            per_block = {}
            for w, cnt in targets.items():
                per_block[block_of[w]] = per_block.get(block_of[w], 0) + cnt
            sig.extend((colour, dtag, b, cnt) for b, cnt in per_block.items())
        return tuple(sorted(sig))

    colours = sorted({g.vertex_colour(v) for v in g.vertices()})
    blocks = [sorted(v for v in g.vertices() if g.vertex_colour(v) == c) for c in colours]
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    while True:
        new_blocks = []
        for block in blocks:
            groups = {}
            for v in block:
                groups.setdefault(signature(v, block_of), []).append(v)
            new_blocks.extend(sorted(groups[sig]) for sig in sorted(groups))
        if len(new_blocks) == len(blocks):
            break
        blocks = new_blocks
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
    entries = {}
    for i, block in enumerate(blocks):
        for (colour, dtag), targets in vertex_darts(g, block[0]).ends.items():
            for w, cnt in targets.items():
                key = (i, block_of[w], colour, dtag)
                entries[key] = entries.get(key, 0) + cnt
    return blocks, block_of, entries


def assert_matches_reference(g):
    part, matrix = degree_partition(g)
    blocks, block_of, entries = reference_partition(g)
    assert part.blocks == blocks
    assert part.block_of == block_of
    assert matrix.k == len(blocks) and matrix.entries == entries


@st.composite
def mixed_multigraphs(draw):
    """Coloured mixed multigraphs with edges, arcs, loops, directed loops
    and semi-edges; few vertex colours, so refinement has work to do."""
    n = draw(st.integers(1, 10))
    g = Graph("drawn")
    for i in range(n):
        g.add_vertex(f"v{i}", draw(st.sampled_from(("p", "p", "q"))))
    slots = st.tuples(st.sampled_from(("edge", "edge", "arc", "loop", "dloop", "semi")),
                      st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())
    for j, (kind, a, b, alt) in enumerate(draw(st.lists(slots, max_size=3 * n))):
        if kind in ("edge", "arc"):
            if a == b:
                continue
            g.add_edge(kind, f"e{j}", ("d", "c")[alt] if kind == "arc" else ("e", "f")[alt], f"v{a}", f"v{b}")
        else:
            g.add_edge(kind, f"e{j}", ("d", "c")[alt] if kind == "dloop" else ("e", "f")[alt], f"v{a}")
    return g


@settings(max_examples=300, deadline=None)
@given(mixed_multigraphs(), st.randoms(use_true_random=False))
def test_refinement_matches_reference_and_relabelling(g, rng):
    assert_matches_reference(g)
    names = g.vertices()
    shuffled = names[:]
    rng.shuffle(shuffled)
    ren = dict(zip(names, shuffled))
    g2 = Graph("relabelled")
    for v in reversed(names):
        g2.add_vertex(ren[v], g.vertex_colour(v))
    for e in g.edges():
        g2.add_edge(e.kind, e.id, e.colour, *[ren[w] for w in e.ends])
    assert degree_partition(g2)[1] == degree_partition(g)[1]
    assert_matches_reference(g2)


def tadpole(cycle_length, tail):
    g = cycle(cycle_length)
    prev = "v0"
    for i in range(tail):
        g.add_vertex(f"t{i}", "n")
        g.add_edge("edge", f"q{i}", "e", prev, f"t{i}")
        prev = f"t{i}"
    return g


@pytest.mark.parametrize("g", [path(n) for n in (1, 2, 3, 4, 7, 8, 60, 301)]
                         + [tadpole(5, 150), tadpole(4, 301), tadpole(7, 2)]
                         + [looped_triangle_with_tails(40, 40), looped_triangle_with_tails(30, 61)],
                         ids=lambda g: f"{g.name}-{g.n}")
def test_refinement_matches_reference_on_long_chains(g):
    # single-colour chains need about n/2 rounds, each splitting off a
    # little: the case the incremental rounds are for
    assert_matches_reference(g)


def test_normalize_keeps_block_order_past_999_blocks():
    # block colours b0..b1000 must sort in block order, else the
    # normalized graph refines into a different order than its partition
    g = Graph("coloured-path")
    for i in range(1001):
        g.add_vertex(f"v{i}", f"x{i}")
    for i in range(1000):
        g.add_edge("edge", f"e{i}", "e", f"v{i}", f"v{i + 1}")
    part, _ = degree_partition(g)
    assert part.k == 1001
    assert degree_partition(normalize_colours(g, part))[0].blocks == part.blocks


@pytest.mark.parametrize("tails", [(5000,), (2500, 2500)], ids=["tadpole", "broom"])
def test_reduce_deep_pending_trees(tails):
    # a pending path deeper than the recursion limit, and two equal deep
    # branches whose codes must compare equal without nesting
    g = looped_triangle_with_tails(*tails)
    red, record = degree_adjust(g)
    assert red.n == 1 and red.m == 2
    assert len(json.loads(record.to_json())["subtrees"]) == max(tails)
    twin = looped_triangle_with_tails(*tails)
    red2, _ = degree_adjust(twin, record)
    assert red2.vertex_colours() == red.vertex_colours()


# direct vertex signing against the dart-count walk it replaced ----------------


def signature_reference(g, v, block_of, pos):
    """``_signature`` as it read the grouped darts of ``vertex_darts``."""
    sig = []
    for (colour, dtag), targets in vertex_darts(g, v).ends.items():
        per_block = {}
        for w, cnt in targets.items():
            b = pos[block_of[w]]
            per_block[b] = per_block.get(b, 0) + cnt
        sig.extend((colour, dtag, b, cnt) for b, cnt in per_block.items())
    return tuple(sorted(sig))


@settings(max_examples=300, deadline=None)
@given(mixed_multigraphs(), st.randoms(use_true_random=False))
def test_signature_and_darts_match_the_dart_counts(g, rng):
    # blocks drawn at random, and positions a random permutation of them,
    # so that the count per block position is what is compared
    k = rng.randrange(1, 4)
    block_of = {v: rng.randrange(k) for v in g.vertices()}
    pos = list(range(k))
    rng.shuffle(pos)
    for v in g.vertices():
        assert _signature(g, v, block_of, pos) == signature_reference(g, v, block_of, pos)
        grouped = {}
        for k, dtag, w, cnt in darts(g, v):
            to = grouped.setdefault((g.columns()[2][k], dtag), {})
            to[w] = to.get(w, 0) + cnt
        assert grouped == vertex_darts(g, v).ends


def test_signature_counts_every_edge_kind():
    # u has an edge, arcs both ways, a loop, a directed loop and a semi-edge
    g = Graph("kinds")
    for v in ("u", "w", "z"):
        g.add_vertex(v, "n")
    g.add_edge("edge", "e", "a", "u", "w")
    g.add_edge("arc", "out", "d", "u", "w")
    g.add_edge("arc", "in", "d", "z", "u")
    g.add_edge("loop", "l", "a", "u")
    g.add_edge("dloop", "dl", "d", "u")
    g.add_edge("semi", "s", "a", "u")
    block_of = {"u": 0, "w": 1, "z": 1}
    want = (("a", "u", 0, 3), ("a", "u", 1, 1), ("d", "i", 0, 1), ("d", "i", 1, 1),
            ("d", "o", 0, 1), ("d", "o", 1, 1))
    assert _signature(g, "u", block_of, [0, 1]) == want
    assert _signature(g, "u", block_of, [0, 1]) == signature_reference(g, "u", block_of, [0, 1])
    assert _signature(g, "u", block_of, [1, 0]) == signature_reference(g, "u", block_of, [1, 0])
