"""Twin classes in the oracle's search.

Twins are source vertices with the same colour, self darts and cross
darts.  Swapping two of them is an automorphism of the source, so the
oracle keeps their images non-decreasing along each class.  These tests
check which vertices form classes, that the order changes no answer
(against brute force and against the search without twins), and that the
recency stack stays within the current path's entries on a long search.

Target twins are target vertices that swap by an automorphism of the
target.  Where the search branches with no twin assigned, it tries only
the least image of each class.  The tests at the end check which target
vertices form classes, and that the rule changes no answer, against
brute force, and no certificate, against the search without target
classes, in no more nodes.
"""

import itertools
import random

from coverkit import Graph, covers, oracle_cover, verify_cover
from coverkit.covers import _DartTables, _target_twin_classes, _twin_classes
from coverkit.gadgets import brute_force_formula, build_gphi_fw, fw_target, random_formula, wd_target
from coverkit.partition import degree_partition

from conftest import (complete_bipartite, complete_graph, cycle, disjoint_union, naive_cover, random_multigraph,
                      searched)
from hosts import random_compatible_input, random_lift, switched


def classes(g):
    return _twin_classes(g, _DartTables(g, g))


def graph(edges, colours=None):
    """A graph on the ends of ``edges`` (kind, colour, *ends), in order of
    first appearance; ``colours`` overrides vertex colours ("n")."""
    g = Graph("near-twins")
    for v in dict.fromkeys(v for _, _, *ends in edges for v in ends):
        g.add_vertex(v, (colours or {}).get(v, "n"))
    for k, (kind, colour, *ends) in enumerate(edges):
        g.add_edge(kind, f"e{k}", colour, *ends)
    return g


# a and b share their neighbours: edges to p and q, an arc to r
TWINS = [("edge", "e", "a", "p"), ("edge", "e", "a", "q"), ("edge", "e", "b", "p"),
         ("edge", "e", "b", "q"), ("arc", "d", "a", "r"), ("arc", "d", "b", "r")]


def test_gphi_variable_groups_are_classes_of_five():
    f = random_formula(3, 4, 3, seed=0)
    got = classes(build_gphi_fw(3, f))
    want = [[f"v{i}.{x}.{j}" for j in range(1, 6)] for x in f.variables for i in (1, 2)]
    assert got == want


def test_twins_and_near_twins():
    assert classes(graph(TWINS)) == [["a", "b"], ["p", "q"]]
    # the same self darts on both keep them twins
    assert ["a", "b"] in classes(graph(TWINS + [("loop", "e", "a"), ("loop", "e", "b")]))
    near = {
        "a loop": (TWINS + [("loop", "e", "a")], None),
        "a semi-edge": (TWINS + [("semi", "e", "a")], None),
        "a directed loop": (TWINS + [("dloop", "d", "a")], None),
        "an arc's direction": (TWINS[:5] + [("arc", "d", "r", "b")], None),
        "an edge between them": (TWINS + [("edge", "e", "a", "b")], None),
        "a multiplicity": (TWINS + [("edge", "e", "a", "p")], None),
        "an edge colour": ([("edge", "f", "a", "p")] + TWINS[1:], None),
        "a vertex colour": (TWINS, {"a": "m"}),
    }
    for what, (edges, colours) in near.items():
        assert not [c for c in classes(graph(edges, colours)) if "a" in c], what


def test_vertices_without_cross_darts_form_no_class():
    alone = [("loop", "e", "s"), ("loop", "e", "t"), ("semi", "f", "s"), ("semi", "f", "t")]
    assert classes(graph(alone)) == []
    assert classes(graph(TWINS + alone)) == [["a", "b"], ["p", "q"]]


def test_assigning_a_twin_orders_the_rest_of_its_class():
    # K3,3 over K4 without the exact rules: a0, a1, a2 are twins, and
    # propagation only takes an assigned vertex's image from its b side
    g, h = complete_bipartite(3, 3), complete_graph(4)
    domains = {u: set(h.vertices()) for u in g.vertices()}
    search = covers._VertexSearch(_DartTables(g, h), domains, [100], exact=False, twins=classes(g))
    full = 0b1111
    first = search._try_assign(1, 1)
    # a0, before a1, keeps the images up to v1; a2, after it, those from v1
    assert search.domains[:3] == [0b0011, full, 0b1110]
    # the walk back from a2 ends at the assigned a1
    second = search._try_assign(2, 3)
    assert search.domains[:3] == [0b0011, full, 0b1110]
    search._undo(second)
    search._undo(first)
    assert search.domains == [full] * 6


# decorated cycles against two-vertex targets ---------------------------------

DECOR = {"bare": (), "loop": (("loop", "f"),), "semi": (("semi", "f"),), "dloop": (("dloop", "d"),)}


def cycles(lengths, deco):
    """Disjoint e-cycles of the given lengths (1 a loop, 2 a digon), each
    vertex with the self darts ``deco``.  Opposite vertices of a 4-cycle
    are twins."""
    g = Graph("cycles-" + "-".join(map(str, lengths)))
    ids = itertools.count()
    for c, k in enumerate(lengths):
        ring = [f"c{c}.{i}" for i in range(k)]
        for v in ring:
            g.add_vertex(v, "n")
            for kind, colour in DECOR[deco]:
                g.add_edge(kind, f"e{next(ids)}", colour, v)
        if k == 1:
            g.add_edge("loop", f"e{next(ids)}", "e", ring[0])
        else:
            for i in range(k):
                g.add_edge("edge", f"e{next(ids)}", "e", ring[i], ring[(i + 1) % k])
    return g


TARGET_EDGES = {
    # connected: covered by unions of even cycles
    "digon": [("edge", "x", "y"), ("edge", "x", "y")],
    # connected: covered by unions of cycles whose lengths are multiples of 4
    "semis path": [("edge", "x", "y"), ("semi", "x"), ("semi", "y")],
    # disconnected, where the fibre caps apply: the cycles must split
    # into two halves of equal size, even ones only for the semi-edges
    "two loops": [("loop", "x"), ("loop", "y")],
    "two semi pairs": [("semi", "x"), ("semi", "x"), ("semi", "y"), ("semi", "y")],
}


def target(shape, deco):
    h = Graph(shape)
    ids = itertools.count()
    for v in "xy":
        h.add_vertex(v, "n")
        for kind, colour in DECOR[deco]:
            h.add_edge(kind, f"t{next(ids)}", colour, v)
    for kind, *ends in TARGET_EDGES[shape]:
        h.add_edge(kind, f"t{next(ids)}", "e", *ends)
    return h


def reordered(g, rng):
    """g with its vertices added in a random order.  The search breaks
    ties by id and walks neighbours by name, so a later twin is then
    often assigned before an earlier one."""
    out = Graph(g.name)
    order = g.vertices()
    rng.shuffle(order)
    for v in order:
        out.add_vertex(v, g.vertex_colour(v))
    for e in g.edges():
        out.add_edge(e.kind, e.id, e.colour, *e.ends)
    return out


def partitions(total, least=1):
    """Every multiset of positive parts summing to total, ascending."""
    if total == 0:
        yield ()
    for k in range(least, total + 1):
        for rest in partitions(total - k, k):
            yield (k, *rest)


def cycle_pairs(most):
    """Unions of cycles with a 4-cycle among them, on an even number of
    vertices up to ``most`` and in a random vertex order, against every
    target shape, source and target decorated alike."""
    rng = random.Random(most)
    for total in range(4, most + 1, 2):
        for lengths in partitions(total):
            if 4 in lengths:
                for shape in TARGET_EDGES:
                    for deco in DECOR:
                        yield reordered(cycles(lengths, deco), rng), target(shape, deco)


def test_twin_ordered_oracle_agrees_with_brute_force():
    answers = {}
    for g, h in cycle_pairs(10):
        assert classes(g)
        want = naive_cover(g, h)
        # the search itself, which parity would spare some refutations
        got = searched(g, h, 100_000)
        assert got.status in ("yes", "no")
        assert got.yes == (want is not None), (g.name, h.name)
        if got.yes:
            assert verify_cover(g, h, got.projection).ok
        key = (h.name, got.status if got.yes else got.reason)
        answers[key] = answers.get(key, 0) + 1
        # the oracle, parity first, answers alike
        res = oracle_cover(g, h, budget=100_000)
        assert res.status == got.status, (g.name, h.name)
        answers["parity"] = answers.get("parity", 0) + (res.reason == "parity")
    # both answers over every target, and refutations the search found
    for shape in TARGET_EDGES:
        assert answers.get((shape, "yes")) and answers.get((shape, "search")), answers
    assert answers["parity"] >= 10, answers


# the same statuses as the search without twins ----------------------------------


def blown_up(b, r):
    """r copies of every vertex of b, each edge or arc joining every copy
    of its tail to every copy of its head, and each self dart copied: the
    copies of a vertex are twins, and it covers ``thickened(b, r)``."""
    g = Graph(f"{b.name}x{r}")
    for x in b.vertices():
        for i in range(r):
            g.add_vertex(f"{x}.{i}", b.vertex_colour(x))
    ids = itertools.count()
    for e in b.edges():
        normal = e.kind in ("edge", "arc")
        for copy in itertools.product(range(r), repeat=2) if normal else ((i,) for i in range(r)):
            g.add_edge(e.kind, f"e{next(ids)}", e.colour, *(f"{v}.{i}" for v, i in zip(e.ends, copy)))
    return g


def thickened(b, r):
    """b with every edge and arc taken r times."""
    h = Graph(f"{b.name}+{r}")
    for x in b.vertices():
        h.add_vertex(x, b.vertex_colour(x))
    ids = itertools.count()
    for e in b.edges():
        for _ in range(r if e.kind in ("edge", "arc") else 1):
            h.add_edge(e.kind, f"t{next(ids)}", e.colour, *e.ends)
    return h


def twin_pairs():
    """Blow-ups of random multigraphs, in a random vertex order, over
    their thickenings, with edges switched, beside a second blow-up over
    a disconnected target, and random lifts of the same targets; then
    small hardness gadgets and unions of decorated cycles."""
    rng = random.Random(15)
    for seed in range(150):
        b = random_multigraph(rng.randrange(2, 5), rng.randrange(4), seed, colours=("e", "f"),
                              allow_arc=True)
        r = rng.choice((2, 2, 3))
        g, h = reordered(blown_up(b, r), rng), thickened(b, r)
        yield g, h
        yield switched(g, rng), h
        yield switched(switched(g, rng), rng), h
        yield random_lift(h, r, seed), h
        yield disjoint_union(g, switched(g, rng)), h
        c = random_multigraph(rng.randrange(1, 3), 1, seed + 1, colours=("e", "f"), allow_arc=True)
        two, both = disjoint_union(h, thickened(c, r)), disjoint_union(g, blown_up(c, r))
        yield both, two
        yield switched(both, rng), two
    for seed in range(40):
        yield build_gphi_fw(3, random_formula(3, 3 + seed % 2, 3, seed)), fw_target(3)
    yield from cycle_pairs(12)


def test_twin_order_keeps_every_status(monkeypatch):
    compared, with_twins, answers = 0, 0, set()
    for g, h in twin_pairs():
        got = oracle_cover(g, h, budget=2000)
        with monkeypatch.context() as m:
            m.setattr(covers, "_twin_classes", lambda g, tables: [])
            want = oracle_cover(g, h, budget=2000)
        if "unknown" in (got.status, want.status):
            continue
        assert got.status == want.status, (g.name, h.name)
        compared += 1
        with_twins += bool(classes(g))
        answers.add(got.reason)
    assert compared >= 1000 and with_twins >= 900, (compared, with_twins)
    assert {"cover", "search", "partition"} <= answers, answers


# the recency stack ---------------------------------------------------------------


def test_recency_stack_stays_within_the_current_path(monkeypatch):
    # each assignment on the current path pushed its vertex's near list
    # once, unfiltered, and undoing it cuts the stack back, so the near
    # lists of the assigned vertices bound the stack; untrimmed it would
    # grow by a near list at every node
    f = random_formula(3, 10, 3, seed=101)
    assert brute_force_formula(f) is None
    choose = covers._VertexSearch._choose
    seen = {"checks": 0, "longest": 0}

    def checked_choose(self, s):
        if seen["checks"] % 256 == 0:
            bound = sum(len(near) for near, x in zip(self.near, self.assign) if x >= 0)
            assert len(self.recent) <= bound
            seen["longest"] = max(seen["longest"], len(self.recent))
        seen["checks"] += 1
        return choose(self, s)

    monkeypatch.setattr(covers._VertexSearch, "_choose", checked_choose)
    # parity refutes f before the search, so the search is run alone
    res = searched(build_gphi_fw(3, f), fw_target(3), 100_000)
    assert (res.status, res.nodes) == ("unknown", 100_000)
    assert seen["checks"] >= 50_000 and seen["longest"] < 20_000, seen


# target twins ----------------------------------------------------------------------


def target_classes(h, blocks=None):
    """h's target-twin classes within ``blocks``, by default its degree
    partition."""
    return _target_twin_classes(_DartTables(h, h), blocks or degree_partition(h)[0].blocks)


def test_target_twin_classes():
    assert target_classes(fw_target(3)) == [["g", "r"]]
    assert target_classes(wd_target(2, 1)) == [["g", "r"]]
    # an edge between them keeps vertices twins, unlike source twins
    assert target_classes(complete_graph(3)) == [["v0", "v1", "v2"]]
    assert target_classes(disjoint_union(cycle(3), cycle(3))) == [["0.v0", "0.v1", "0.v2"],
                                                                  ["1.v0", "1.v1", "1.v2"]]
    assert target_classes(cycle(4)) == [["v0", "v2"], ["v1", "v3"]]
    # neither adjacent nor opposite vertices of C6 swap alone
    assert target_classes(cycle(6)) == []


def test_target_near_twins():
    # a and b are twins here: edges to p and q, and arcs both ways
    both = [("edge", "e", "a", "p"), ("edge", "e", "b", "p"), ("edge", "e", "a", "q"),
            ("edge", "e", "b", "q"), ("arc", "d", "a", "b"), ("arc", "d", "b", "a")]
    assert ["a", "b"] in target_classes(graph(both), [["a", "b"]])
    near = {
        "an arc one way": both[:5],
        "two arcs one way": both + [("arc", "d", "a", "b")],
        "a loop on one": both + [("loop", "e", "a")],
        "a loop against two semi-edges": both + [("loop", "f", "a"), ("semi", "f", "b"), ("semi", "f", "b")],
        "a directed loop on one": both + [("dloop", "d", "a")],
        "a third vertex's multiplicity": both + [("edge", "e", "a", "p")],
        "an edge colour": [("edge", "f", "a", "p")] + both[1:],
    }
    for what, edges in near.items():
        assert target_classes(graph(edges), [["a", "b"]]) == [], what


def hub_coloured(h):
    """h with its hub p in a vertex colour of its own, as
    ``random_compatible_input`` draws a colour class per block."""
    out = Graph(f"{h.name}-hub")
    for v in h.vertices():
        out.add_vertex(v, "hub" if v == "p" else h.vertex_colour(v))
    for e in h.edges():
        out.add_edge(e.kind, e.id, e.colour, *e.ends)
    return out


# targets with twins, each with the folds brute force decides in well under
# a second a pair: C3 + C3 has two classes of three and takes fibre caps
TWIN_TARGETS = [
    (hub_coloured(fw_target(2)), (1, 2)),
    (hub_coloured(fw_target(3)), (1,)),
    (wd_target(1, 1), (1, 2, 3, 4)),
    (wd_target(2, 1), (1, 2)),
    (complete_graph(3), (1, 2, 3)),
    (disjoint_union(cycle(3), cycle(3)), (1,)),
]


def target_twin_pairs():
    """Small sources over targets with twins: draws of
    ``random_compatible_input``, random lifts, and lifts with two edges
    switched."""
    rng = random.Random(27)
    for h, folds in TWIN_TARGETS:
        for r in folds:
            for seed in range(3):
                yield random_compatible_input(h, r, seed), h
                yield random_lift(h, r, seed), h
                yield switched(random_lift(h, r, seed + 100), rng), h


def without_target_classes(monkeypatch, run):
    """``run()`` with the search given no target classes, as
    ``partial_covers`` gives it none."""
    with monkeypatch.context() as m:
        m.setattr(covers, "_target_twin_classes", lambda tables, blocks: [])
        return run()


def certificate(res):
    return res.projection.to_json() if res.yes else None


def test_target_twins_agree_with_brute_force(monkeypatch):
    answers, nodes = {}, [0, 0]
    for g, h in target_twin_pairs():
        want = naive_cover(g, h)
        res = oracle_cover(g, h, budget=100_000)
        assert res.status in ("yes", "no") and res.yes == (want is not None), (g.name, h.name)
        # the search itself, which parity would spare some refutations
        got = searched(g, h, 100_000)
        plain = without_target_classes(monkeypatch, lambda: searched(g, h, 100_000))
        assert (got.status, got.reason, certificate(got)) == (plain.status, plain.reason, certificate(plain))
        assert got.status == res.status and got.nodes <= plain.nodes, (g.name, h.name)
        answers[got.reason] = answers.get(got.reason, 0) + 1
        nodes[0] += got.nodes
        nodes[1] += plain.nodes
    assert answers.get("cover", 0) >= 50 and answers.get("search", 0) >= 10, answers
    # the rule pruned
    assert nodes[0] < nodes[1], nodes


def test_target_twins_prune_only_mirrors(monkeypatch):
    # blow-ups, hardness gadgets and decorated cycles within a small
    # budget: where the search without target classes decides, the rule
    # gives the same answer and certificate in no more nodes
    compared, pruned, gained = 0, 0, 0
    for g, h in twin_pairs():
        got = searched(g, h, 2000)
        plain = without_target_classes(monkeypatch, lambda: searched(g, h, 2000))
        if plain.status == "unknown":
            gained += got.status != "unknown"
            continue
        assert (got.status, got.reason, certificate(got)) == (plain.status, plain.reason, certificate(plain))
        assert got.nodes <= plain.nodes, (g.name, h.name)
        compared += 1
        pruned += got.nodes < plain.nodes
    assert compared >= 1000 and pruned >= 80, (compared, pruned, gained)
