"""Public checks and generators that refuse their input, each with its
documented error."""

import pytest

from coverkit import (
    Graph,
    GraphError,
    MatchingError,
    Partition,
    SmallShape,
    block_shapes,
    classify_shape,
    degree,
    directed_cycle_cover_decomposition,
    general_perfect_matching,
    two_factorization,
    verdict,
)
from coverkit.classify import ShapeError
from coverkit.gadgets import (Formula, GadgetError, build_gphi_fw, compose_claimA, directed_lift_wd,
                              fw_target, random_formula, variable_gadget, wd_target)
from coverkit.graphs import OUT

from conftest import cycle, one_vertex


def _with(g, kind, *ends, colour="e"):
    g.add_edge(kind, f"extra{g.m}", colour, *ends)
    return g


def _two_out_one_in():
    # v0 -> v1 -> v2 -> v0 plus v0 -> v2: v0 has two out-darts, one in-dart
    g = Graph("dir")
    for i in range(3):
        g.add_vertex(f"v{i}", "n")
    for i, (u, v) in enumerate((("v0", "v1"), ("v1", "v2"), ("v2", "v0"), ("v0", "v2"))):
        g.add_edge("arc", f"a{i}", "d", u, v)
    return g


def _colour_in_nested_block_sets():
    # colour e lies in blocks {0} (a loop at x) and {0, 1} (the edge x-y)
    g = Graph("nested")
    for v in "xy":
        g.add_vertex(v, "n")
    g.add_edge("loop", "l", "e", "x")
    g.add_edge("edge", "xy", "e", "x", "y")
    return block_shapes(g, Partition([["x"], ["y"]], {"x": 0, "y": 1}))


def _two_triangles_joined():
    # a0 and b0 have degree 3, which no 2-factorization splits
    g = Graph("triangles")
    for p in "ab":
        for i in range(3):
            g.add_vertex(f"{p}{i}", "n")
        for i in range(3):
            g.add_edge("edge", f"e{p}{i}", "e", f"{p}{i}", f"{p}{(i + 1) % 3}")
    g.add_edge("edge", "ab", "e", "a0", "b0")
    return g


REFUSALS = [
    ("W-unbalanced", lambda: classify_shape(SmallShape("W", (1, 0, 0, 0, 0))),
     ShapeError, "invalid W parameters"),
    ("unknown-family", lambda: classify_shape(SmallShape("ZZ", (1,))), ShapeError, "unknown family"),
    ("block-shapes-unnormalized", _colour_in_nested_block_sets, ShapeError, "normalize first"),
    ("verdict-empty", lambda: verdict(Graph("empty")), GraphError, "empty target"),
    ("degree-bad-direction", lambda: degree(cycle(3), "v0", "e", "sideways"),
     GraphError, "bad direction"),
    ("degree-undirected-as-out", lambda: degree(cycle(3), "v0", "e", OUT),
     GraphError, "is undirected"),
    ("matching-with-arc", lambda: general_perfect_matching(_with(cycle(4), "arc", "v0", "v2", colour="d")),
     MatchingError, "undirected graphs"),
    ("2-factorization-odd-degree", lambda: two_factorization(_two_triangles_joined(), 1),
     MatchingError, "'a0' has degree 3, expected 2"),
    ("2-factorization-with-semi", lambda: two_factorization(one_vertex(semis=2), 1),
     MatchingError, "semi-edges not allowed"),
    ("2-factorization-with-arc", lambda: two_factorization(_with(cycle(4), "arc", "v0", "v2", colour="d"), 1),
     MatchingError, "directed edges not allowed"),
    ("cycle-covers-with-edge", lambda: directed_cycle_cover_decomposition(cycle(3), 1),
     MatchingError, "needs arcs and dloops only"),
    ("cycle-covers-2-out-1-in", lambda: directed_cycle_cover_decomposition(_two_out_one_in(), 1),
     MatchingError, "not 1-in-1-out-regular"),
    # an empty G_phi covers no target, yet the empty formula is satisfiable
    ("formula-no-clauses", lambda: random_formula(3, 0, 3, 0), GadgetError, "at least one clause"),
    # refused up front, not after the sampler's retries
    ("formula-c0", lambda: random_formula(0, 2, 1, 0), GadgetError, "c must be an int of at least 1"),
    ("formula-c-negative", lambda: random_formula(-1, 2, 1, 0), GadgetError, "c must be an int of at least 1"),
    ("gphi-no-clauses", lambda: build_gphi_fw(3, Formula(3, [])), GadgetError, "no clauses"),
    ("claimA-no-clauses", lambda: compose_claimA(variable_gadget("c0"), Formula(2, [])),
     GadgetError, "no clauses"),
    ("fw-target-c0", lambda: fw_target(0), GadgetError, "c >= 1"),
    ("wd-target-b0-c0", lambda: wd_target(0, 0), GadgetError, r"b \+ c >= 1"),
    ("wd-target-negative", lambda: wd_target(-1, 2), GadgetError, "b, c >= 0"),
    # the lift refuses what its target refuses, whatever the base's degree
    ("wd-lift-negative", lambda: directed_lift_wd(cycle(2), -1, 2), GadgetError, "b, c >= 0"),
    ("wd-lift-b0-c0", lambda: directed_lift_wd(cycle(4), 0, 0), GadgetError, r"b \+ c >= 1"),
]


@pytest.mark.parametrize("call,error,match", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_public_check_refuses(call, error, match):
    with pytest.raises(error, match=match):
        call()
