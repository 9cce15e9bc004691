"""Hardness gadgets at desk scale: the tripod forcing, clause graphs for
the 3-bundle hub, and the directed lift.

Run:  python3 demos/05_oracle_and_gadgets.py
"""

from coverkit import oracle_cover, partial_covers
from coverkit.gadgets import (
    bc_colouring_brute,
    brute_force_formula,
    build_gphi_fw,
    directed_lift_wd,
    fw2_target,
    fw_target,
    limping_tripod,
    random_formula,
    random_regular,
    wd_target,
)

lt = limping_tripod()
h = fw2_target()
pairs = sorted({(p.fv["u"], p.fv["v"]) for p in partial_covers(lt, h)})
print("the tripod's pendant vertices always share an image:", pairs)

print("\nexactly-3-in-6 clause graphs against the 3-bundle hub:")
for seed in (0, 1):
    f = random_formula(3, 3, 3, seed=seed)
    sat = brute_force_formula(f) is not None
    g = build_gphi_fw(3, f)
    res = oracle_cover(g, fw_target(3), budget=4_000_000)
    print(f"  formula seed {seed}: satisfiable={sat}, {g.n}-vertex instance covers: {res.status}"
          f" ({res.reason}, {res.nodes} nodes)")

print("\nthe directed lift ties covering to (2,1)-colourability:")
for m, seed in ((3, 0), (3, 1), (4, 0), (4, 1)):
    base, _ = random_regular("bipartite", 3, m, seed=seed)
    lift = directed_lift_wd(base, 2, 1)
    colourable = bc_colouring_brute(base, 2, 1) is not None
    res = oracle_cover(lift, wd_target(2, 1), budget=2_000_000)
    print(f"  {base.n}-vertex base, seed {seed}: colourable={colourable}, lift covers: {res.status}"
          f" ({res.reason}, {res.nodes} nodes)")
