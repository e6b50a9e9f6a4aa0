#!/usr/bin/env python3
"""Time `main` against read-all at every cell of the default ladder, on both sides.

    python3 scripts/ladder_wall.py --label change --out BENCH_ladder_wall.json
    python3 scripts/ladder_wall.py --src ../parent/src --label parent --out BENCH_ladder_wall.json

The cells are the n x k x c grid of `configs/default_ladder.cfg`, with its
family, delta and seed. A cell and side builds TRIALS instances with
`harness.generate` and times `harness.TESTERS["main"]` and the read-all
baseline `harness.TESTERS["banded"]` on fresh metered views of the same
strings. Times are CPU ms of one call (`thread_time_ns`); building the
meters is left out. Which tester runs first alternates from trial to trial,
so neither always finds the strings in cache after the other. Reads are
per 2n: read-all reads 2n, so 1.0.

A shared host's CPU speed drifts, so each time is also reported at
reference speed, as perfbench reports tester times: the pure-Python job of
perfbench's `reference_kernel` is timed just before and just after each
cell, and the cell's times are scaled by REFERENCE_MS over their mean.

A cell reports the median of each time, raw (`main_ms`, `readall_ms`) and
scaled (`main_scaled_ms`, `readall_scaled_ms`), the reference times
(`reference_ns`, before and after), the reads of `main` per 2n (its
plan depends only on n, the thresholds and the seed), its dispatch tier, and
the certified truths with the verdicts of `main` that missed them (GAP truth
takes either verdict). A cell that `main` refuses is recorded as
UNSUPPORTED with the refusal's reason, and read-all is still timed there.

The run is stored under --label in the --out JSON, next to the runs already
there, with the git sha of the source tree timed, the Python version and
nproc; `wins` lists the cells and sides where `main` took less scaled
CPU time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import thread_time_ns

from leaf_grid import git_state  # this script's directory leads sys.path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "perfbench"))
from run import REFERENCE_MS, reference_kernel  # noqa: E402  (perfbench/run.py)

LADDER = ROOT / "configs" / "default_ladder.cfg"
TRIALS = 3


def timed(gapedit, fn, x, y, alpha, beta, cfg, rs):
    """(verdict, CPU ns, reads) of one tester call on fresh meters."""
    xm, ym = gapedit.metering.MeteredString(x), gapedit.metering.MeteredString(y)
    t0 = thread_time_ns()
    yes = fn(xm.view(), ym.view(), alpha, beta, cfg, rs)
    ns = thread_time_ns() - t0
    return yes, ns, xm.count + ym.count


def run_cell(gapedit, config, cell_idx, n, k, c, side) -> dict:
    harness, testers = gapedit.harness, gapedit.testers
    alpha, beta = harness.ladder_alpha(k, c), k
    cfg = testers.TesterConfig(delta=config.delta, h=config.h)
    row = dict(n=n, k=k, c=c, alpha=alpha, beta=beta, side=side)
    try:
        row["tier"] = testers.plan_gap_dispatch(n, alpha, beta, cfg)[0]
    except testers.UnsupportedRegimeError as exc:
        row["tier"], row["reason"] = "UNSUPPORTED", str(exc)
    fns = {"main": harness.TESTERS["main"], "readall": harness.TESTERS["banded"]}
    before = reference_kernel()
    main_ns, readall_ns, reads, truths, errors = [], [], [], [], 0
    cell_rs = gapedit.metering.RandomStream(config.seed).child(f"cell-{cell_idx}")
    for t in range(TRIALS):
        trs = cell_rs.child(f"{side}-{t}")
        spec = harness.InstanceSpec(config.family[0], n, k, side=side, c=c)
        x, y, cert = harness.generate(spec, trs.child("gen"))
        truth = cert.classify(alpha, beta)
        truths.append(truth)
        for name in ("readall", "main") if t % 2 else ("main", "readall"):
            if name == "main" and row["tier"] == "UNSUPPORTED":
                continue
            yes, ns, count = timed(gapedit, fns[name], x, y, alpha, beta, cfg, trs.child("run"))
            missed = truth in (harness.YES, harness.NO) and yes != (truth == harness.YES)
            if name == "main":
                main_ns.append(ns)
                reads.append(count)
                errors += missed
            else:
                readall_ns.append(ns)
                assert not missed, f"read-all is exact, but erred at {row}"
    after = reference_kernel()
    # CPU ns to ms at reference speed, by the Python job as perfbench scales
    # tester times
    scale = 2 * REFERENCE_MS[0] / (before[0] + after[0])
    row["truths"] = truths
    row["reference_ns"] = [before, after]
    row["readall_ms"] = round(statistics.median(readall_ns) / 1e6, 3)
    row["readall_scaled_ms"] = round(statistics.median(readall_ns) * scale, 3)
    if main_ns:
        row["main_ms"] = round(statistics.median(main_ns) / 1e6, 3)
        row["main_scaled_ms"] = round(statistics.median(main_ns) * scale, 3)
        row["main_reads_per_2n"] = round(statistics.median(reads) / (2 * n), 4)
        row["main_errors"] = errors
    print(
        f"n=2^{n.bit_length() - 1:<2d} k={k:3d} c={c:g} {side:3s} {row['tier']:11s} "
        f"main {row.get('main_scaled_ms', float('nan')):9.2f} ms "
        f"({row.get('main_reads_per_2n', float('nan')):7.3f} x 2n)  "
        f"read-all {row['readall_scaled_ms']:7.2f} ms (at reference speed)",
        flush=True,
    )
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding gapedit")
    ap.add_argument("--label", required=True, help="key the run is stored under")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder_wall.json")
    args = ap.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import gapedit.harness
    import gapedit.metering
    import gapedit.testers

    if Path(gapedit.__file__).resolve().parent != src / "gapedit":
        raise SystemExit(f"gapedit was imported from {gapedit.__file__}, not from {src}")
    config = gapedit.harness.parse_config_text(LADDER.read_text())
    rows = [
        run_cell(gapedit, config, cell_idx, n, k, c, side)
        for cell_idx, (_, _, n, c, k) in enumerate(config.cells())
        for side in ("yes", "no")
    ]
    run = {
        **git_state(src.parent),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "config": str(LADDER.relative_to(ROOT)),
        "trials": TRIALS,
        "time": "median CPU ms of one call (thread_time_ns), meters built outside the timing;"
        " *_scaled_ms at reference speed (perfbench's REFERENCE_MS[0] over the mean"
        " Python reference time before and after the cell)",
        "reference_ms": list(REFERENCE_MS),
        "rows": rows,
        "wins": [
            f"n={r['n']} k={r['k']} c={r['c']:g} {r['side']}"
            for r in rows
            if "main_scaled_ms" in r and r["main_scaled_ms"] < r["readall_scaled_ms"]
        ],
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = run
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote run {args.label!r} to {args.out}; main wins {len(run['wins'])} of {len(rows)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
