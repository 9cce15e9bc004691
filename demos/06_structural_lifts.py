"""Structural lifts: undoing a matching contraction, padding spanning
block graphs, and the 2m-copy garbage-collection completion.

Run:  python3 demos/06_structural_lifts.py
"""

from coverkit import Graph, oracle_cover
from coverkit.gadgets import deprime_lift, garbage_lift, spanning_lift


def contracted_target():
    h = Graph("contracted")
    h.add_vertex("c1", "C")
    h.add_vertex("c2", "C")
    h.add_edge("edge", "d1", "de", "c1", "c2")
    h.add_edge("edge", "d2", "de", "c1", "c2")
    h.add_edge("semi", "s1", "se", "c1")
    h.add_edge("semi", "s2", "se", "c2")
    return h


def primed_target(k):
    hp = Graph(f"primed-{k}")
    for v in ("a1", "a2"):
        hp.add_vertex(v, "A")
    for v in ("b1", "b2"):
        hp.add_vertex(v, "B")
    hp.add_edge("edge", "d1", "de", "a1", "a2")
    hp.add_edge("edge", "d2", "de", "a1", "a2")
    hp.add_edge("semi", "s1", "se", "b1")
    hp.add_edge("semi", "s2", "se", "b2")
    n = 0
    for i in (1, 2):
        for _ in range(k):
            n += 1
            hp.add_edge("edge", f"m{n}", "mu", f"a{i}", f"b{i}")
    return hp


def instance():
    # a 4-ring in the double-edge colour; the semi-edge colour pairs the
    # two even-position vertices and leaves stubs on the odd ones, which
    # respects the alternation the ring forces
    g = Graph("inst")
    for i in range(4):
        g.add_vertex(f"w{i}", "C")
    for i in range(4):
        g.add_edge("edge", f"de{i}", "de", f"w{i}", f"w{(i + 1) % 4}")
    g.add_edge("edge", "se0", "se", "w0", "w2")
    g.add_edge("semi", "se1", "se", "w1")
    g.add_edge("semi", "se2", "se", "w3")
    return g


h = contracted_target()
g = instance()
print("contracted-target instance covers:", oracle_cover(g, h).status)
for k in (1, 2):
    lifted = deprime_lift(g, "C", "A", "B", {"de"}, {"se"}, "mu", k)
    hp = primed_target(k)
    print(f"k={k}: de-primed instance has {lifted.n} vertices; covers the "
          f"split target: {oracle_cover(lifted, hp, budget=2_000_000).status}")

print()
host = Graph("host")
host.add_vertex("a", "H")
host.add_vertex("x", "Q")
host.add_vertex("y", "Q")
for i, (c, u, v) in enumerate((("e", "a", "x"), ("e", "a", "y"), ("e2", "a", "x"), ("e2", "a", "y"))):
    host.add_edge("edge", f"h{i}", c, u, v)
host.add_edge("loop", "f1", "f", "x")
host.add_edge("loop", "f2", "f", "y")
blockgraph = Graph("bg")
blockgraph.add_vertex("a", "H")
blockgraph.add_vertex("x", "Q")
blockgraph.add_vertex("y", "Q")
blockgraph.add_edge("edge", "h2", "e2", "a", "x")
blockgraph.add_edge("edge", "h3", "e2", "a", "y")
blockgraph.add_edge("loop", "f1", "f", "x")
blockgraph.add_edge("loop", "f2", "f", "y")

inst = Graph("bginst")
inst.add_vertex("h0", "H")
for i in range(2):
    inst.add_vertex(f"q{i}", "Q")
inst.add_edge("edge", "c0", "e2", "h0", "q0")
inst.add_edge("edge", "c1", "e2", "h0", "q1")
inst.add_edge("edge", "r0", "f", "q0", "q1")
inst.add_edge("edge", "r1", "f", "q0", "q1")

try:
    garbage_lift(inst, host, blockgraph)
except Exception as exc:
    print("a non-simple instance is refused by the garbage lift:", exc)

inst2 = Graph("bginst2")
for i in range(3):
    inst2.add_vertex(f"h{i}", "H")
for i in range(6):
    inst2.add_vertex(f"q{i}", "Q")
for i in range(3):
    inst2.add_edge("edge", f"c{2*i}", "e2", f"h{i}", f"q{2*i}")
    inst2.add_edge("edge", f"c{2*i+1}", "e2", f"h{i}", f"q{2*i+1}")
ring_l = ["q0", "q2", "q4"]
ring_r = ["q1", "q3", "q5"]
n = 0
for ring in (ring_l, ring_r):
    for i in range(3):
        n += 1
        inst2.add_edge("edge", f"f{n}", "f", ring[i], ring[(i + 1) % 3])

print("block-graph instance covers the block graph:",
      oracle_cover(inst2, blockgraph).status)
full = garbage_lift(inst2, host, blockgraph)
print(f"garbage-collected completion has {full.n} vertices and covers the "
      f"full host: {oracle_cover(full, host, budget=4_000_000).status}")

padded = spanning_lift(inst2, host, blockgraph)
print("spanning lift adds isolated vertices when blocks are absent:",
      padded.n - inst2.n, "added here (none absent, ratio check passed)")
