#!/usr/bin/env python3
"""Query-scaling spot check: mean total queries of main_gap versus k.

For c = 2 the query bound predicts roughly n/k^1.5, so doubling grids of k
should show clearly decreasing query counts; the k=64 vs k=256 ratio lands
inside [2, 32] around the ideal 8.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gapedit.harness import InstanceSpec, generate, ladder_alpha
from gapedit.metering import MeteredString, RandomStream
from gapedit.strings import GapInstance
from gapedit.testers import TesterConfig, main_gap


def mean_queries(n: int, k: int, c: float, trials: int, seed: int, delta: float) -> float:
    totals = []
    for t in range(trials):
        rs = RandomStream(seed).child(f"{n}-{k}-{t}")
        spec = InstanceSpec(family="random-edits", n=n, k=k, side="yes", c=c)
        x, y, _ = generate(spec, rs.child("gen"))
        xm, ym = MeteredString(x), MeteredString(y)
        inst = GapInstance(xm.view(), ym.view(), ladder_alpha(k, c), k)
        main_gap(inst, TesterConfig(delta=delta), rs.child("run"))
        totals.append(xm.count + ym.count)
    return sum(totals) / len(totals)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1 << 20)
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--k", type=int, nargs="*", default=[64, 128, 256])
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--delta", type=float, default=0.4)
    args = ap.parse_args()

    t0 = time.time()
    rows = []
    for k in args.k:
        q = mean_queries(args.n, k, args.c, args.trials, args.seed, args.delta)
        rows.append((k, q))
        print(f"k={k:6d}  mean_queries={q:14.1f}")
    if len(rows) >= 2:
        lo, hi = rows[0], rows[-1]
        print(
            f"ratio q(k={lo[0]})/q(k={hi[0]}) = {lo[1] / hi[1]:.2f} "
            f"(ideal {(hi[0] / lo[0]) ** 1.5:.1f} for c=2)"
        )
    print(f"elapsed {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
