"""How the polynomial solver scales: ``solve_cover`` on random r-fold lifts
of two harmless hosts from the benchmark's catalogue, timed per fold, with
the time ratio per doubling of the fold.

F(1,2) is one vertex with a semi-edge and two loops, so its lifts go
through the 2-factorization of every fibre.  W(1,2,0,2,1)+hub is a doublet
whose fibres need general perfect matchings (the blossom search) as well.
Every certificate is checked with ``verify_cover``, outside the timing.
Times are CPU seconds of this process (``time.process_time``).

Run:  python3 demos/07_lift_scaling.py                    # folds 1000 2000 4000
      python3 demos/07_lift_scaling.py 4000 8000 16000
"""

import math
import random
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from coverkit import solve_cover, verify_cover
from instances import harmless_hosts, random_lift

HOSTS = ("F(1,2)", "W(1,2,0,2,1)+hub")


def main(folds: list[int]) -> None:
    hosts = dict(harmless_hosts())
    for label in HOSTS:
        h = hosts[label]
        last = None
        for r in folds:
            g = random_lift(h, r, random.Random(1))
            start = process_time()
            res = solve_cover(g, h)
            took = process_time() - start
            if not res.yes:
                sys.exit(f"{label} at fold {r}: the solver says {res.status} to a lift")
            check = verify_cover(g, h, res.projection)
            if not check.ok:
                sys.exit(f"{label} at fold {r}: certificate rejected: {check.violations[:3]}")
            # the ratio per doubling, whatever the step between folds
            ratio = "" if last is None else \
                f"  x{(took / last[1]) ** (1 / math.log2(r / last[0])):.2f} per doubling"
            print(f"{label:>18}  r = {r:>6}  {g.m:>7} edges  {took:7.2f} s{ratio}")
            last = (r, took)


if __name__ == "__main__":
    folds = [int(a) for a in sys.argv[1:]] or [1000, 2000, 4000]
    if len(set(folds)) != len(folds) or any(r < 1 for r in folds) or folds != sorted(folds):
        sys.exit("folds must be distinct positive integers in ascending order")
    main(folds)
