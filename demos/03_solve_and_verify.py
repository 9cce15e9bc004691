"""The polynomial solver end to end: decide, certify, verify, refuse.

Run:  python3 demos/03_solve_and_verify.py
"""

from coverkit import Graph, UnsupportedTarget, oracle_cover, solve_cover, verify_cover
from coverkit.gadgets import fw_target


def double_edge_target():
    h = Graph("double-edge")
    h.add_vertex("x", "n")
    h.add_vertex("y", "n")
    h.add_edge("edge", "c0", "e", "x", "y")
    h.add_edge("edge", "c1", "e", "x", "y")
    return h


def ring(n):
    g = Graph(f"c{n}")
    for i in range(n):
        g.add_vertex(f"v{i}", "n")
    for i in range(n):
        g.add_edge("edge", f"e{i}", "e", f"v{i}", f"v{(i + 1) % n}")
    return g


h = double_edge_target()
for n in (6, 5):
    res = solve_cover(ring(n), h)
    print(f"C_{n} onto the double edge: {res.status}", end="")
    if res.yes:
        ok = verify_cover(ring(n), h, res.projection)
        print(f"  (certificate verifies: {ok.ok})")
        print("   vertex map:", res.projection.fv)
    else:
        print(f"  ({res.trace.failure})")
        # "a != b": a and b map to different target vertices
        cycle = res.trace.conflict
        print("   odd cycle:", cycle[0][0], *(f"{'!=' if odd else '=='} {b}" for _, b, odd in cycle))

print("\nsubcases taken:", [s["subcase"] for s in solve_cover(ring(6), h).trace.steps])

print("\nthe solver refuses NP-complete targets and points to the oracle:")
try:
    solve_cover(ring(6), fw_target(3))
except UnsupportedTarget as exc:
    print("  refused:", exc)
print("the exhaustive oracle still answers:", oracle_cover(ring(6), fw_target(3)).status)
