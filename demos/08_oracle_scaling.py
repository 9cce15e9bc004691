"""How the exact oracle's search scales: ``oracle_cover`` under a fixed
node budget (30,000) on the hardness gadget G_phi and on random lifts of two
harmful targets, with status, nodes, CPU seconds and microseconds per node.

G_phi is ``build_gphi_fw(3, random_formula(3, n, 3, seed))`` against the
3-bundle hub FW(3), one instance per clause count n.  The lifts are random
r-fold covers of FW(3) and of WD(2,1), one per fold r; the search soon runs
out of budget on them, so the time per node at a large fold shows what a
branch point costs over a large scope.  Every "yes" certificate is checked
with ``verify_cover``, outside the timing.  Times are CPU seconds of this
process (``time.process_time``), and all seeds are fixed.

Run:  python3 demos/08_oracle_scaling.py        # clauses 8 12 16, folds 16 32 64 128
      python3 demos/08_oracle_scaling.py --clauses 24 --folds 128 256
"""

import argparse
import random
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from coverkit import oracle_cover, verify_cover
from coverkit.gadgets import build_gphi_fw, fw_target, random_formula, wd_target
from instances import random_lift

BUDGET = 30_000
FORMULA_SEED = 7
LIFT_SEED = 1


def run(label: str, g, h) -> None:
    start = process_time()
    res = oracle_cover(g, h, budget=BUDGET)
    took = process_time() - start
    if res.yes:
        check = verify_cover(g, h, res.projection)
        if not check.ok:
            sys.exit(f"{label}: certificate rejected: {check.violations[:3]}")
    per_node = 1e6 * took / max(res.nodes, 1)
    print(f"{label:>22}  {g.n:>5} vertices  {res.status:>7}  {res.nodes:>7} nodes"
          f"  {took:6.2f} s  {per_node:6.1f} us/node")


def main(clauses: list[int], folds: list[int]) -> None:
    fw3 = fw_target(3)
    for n in clauses:
        run(f"G_phi {n} clauses", build_gphi_fw(3, random_formula(3, n, 3, FORMULA_SEED)), fw3)
    for name, h in (("FW(3)", fw3), ("WD(2,1)", wd_target(2, 1))):
        for r in folds:
            run(f"{name} lift r = {r}", random_lift(h, r, random.Random(LIFT_SEED)), h)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clauses", type=int, nargs="*", default=[8, 12, 16])
    parser.add_argument("--folds", type=int, nargs="*", default=[16, 32, 64, 128])
    args = parser.parse_args()
    if any(n < 1 for n in args.clauses) or any(r < 1 for r in args.folds):
        sys.exit("clause counts and folds must be positive")
    main(args.clauses, args.folds)
