#!/usr/bin/env python3
"""Time the banded leaf solver `gap_ed_banded` on an (L, beta, edits) grid.

    python3 scripts/leaf_grid.py --label change --out BENCH_banded_leaf.json
    python3 scripts/leaf_grid.py --src ../parent/src --label parent --out BENCH_banded_leaf.json

Each cell builds one pair of length L over a 2^32 alphabet and plants edits:
`sub` substitutes, `indel` deletes and inserts equally often (the alignment
wanders off the main diagonal); see `instance`. YES cells plant beta // 2
substitutions or beta // 4 indel pairs, so the distance is <= beta // 2; NO
cells plant beta + 1 of either, so it is > beta. Cells whose edits do not fit
in L, and NO cells with L <= beta, cannot exist and are skipped.

A cell reports the median CPU ms of one `gap_ed_banded(x, y, beta)` call and,
as the bit-vector reference, of one full `ed_exact` call (Myers' bit-vector
kernel) on the same pair. A banded bit-vector path does less work than the
full one, so it would win at least where `bitvector_wins` is true; those
cells are listed under `crossover`.

The run is stored under --label in the --out JSON, next to the runs already
there, with the git sha of the source tree timed, the Python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import thread_time_ns

LENGTHS = (64, 256, 1024, 4096, 16384, 65536)
BETAS = (16, 64, 256)
ALPHABET = 1 << 32
SEED = 1
MIN_CELL_NS = 100_000_000  # repeat a call until this much CPU time is spent...
MIN_REPEATS = 3  # ...and at least this often


def instance(rng: random.Random, length: int, kind: str, edits: int):
    """x uniform over the alphabet; y plants `edits` substitutions (`sub`), or
    `edits` deletions and then `edits` insertions (`indel`). Every planted
    symbol is fresh, so ED is exactly `edits` (`sub`) or in [edits, 2 * edits]."""
    x = [rng.randrange(ALPHABET) for _ in range(length)]
    y = list(x)
    fresh = range(ALPHABET, ALPHABET + edits)
    if kind == "sub":
        for pos, sym in zip(rng.sample(range(length), edits), fresh):
            y[pos] = sym
        return x, y
    for _ in range(edits):
        del y[rng.randrange(len(y))]
    for sym in fresh:
        y.insert(rng.randrange(len(y) + 1), sym)
    return x, y


def median_ms(fn, *args) -> float:
    times = []
    while len(times) < MIN_REPEATS or sum(times) < MIN_CELL_NS:
        t0 = thread_time_ns()
        fn(*args)
        times.append(thread_time_ns() - t0)
        if times[-1] > MIN_CELL_NS:
            break  # one slow call is a measurement on its own
    return round(statistics.median(times) / 1e6, 4)


def git_state(tree: Path) -> dict:
    def git(*cmd):
        out = subprocess.run(["git", "-C", str(tree), *cmd], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain", "src"))}


def run_grid(strings) -> list[dict]:
    rows = []
    for length in LENGTHS:
        for beta in BETAS:
            for side, kind in (("yes", "sub"), ("yes", "indel"), ("no", "sub"), ("no", "indel")):
                edits = beta + 1 if side == "no" else beta // 2 if kind == "sub" else beta // 4
                if edits > length or (side == "no" and length <= beta):
                    continue
                rng = random.Random(f"{SEED}-{length}-{beta}-{side}-{kind}")
                x, y = instance(rng, length, kind, edits)
                answer = strings.gap_ed_banded(x, y, beta)
                if (answer is strings.EXCEEDS) != (side == "no"):
                    raise AssertionError(f"cell L={length} beta={beta} {side}/{kind} has the wrong side")
                banded = median_ms(strings.gap_ed_banded, x, y, beta)
                bitvector = median_ms(strings.ed_exact, x, y)
                rows.append(
                    dict(
                        L=length, beta=beta, side=side, kind=kind, edits=edits,
                        banded_ms=banded, bitvector_ms=bitvector,
                        bitvector_wins=bitvector < banded,
                    )
                )
                print(f"L={length:6d} beta={beta:3d} {side:3s} {kind:5s} "
                      f"banded {banded:9.3f} ms  bit-vector {bitvector:9.3f} ms", flush=True)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    root = Path(__file__).resolve().parent.parent
    ap.add_argument("--src", type=Path, default=root / "src", help="source tree holding gapedit")
    ap.add_argument("--label", required=True, help="key the run is stored under")
    ap.add_argument("--out", type=Path, default=root / "BENCH_banded_leaf.json")
    args = ap.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from gapedit import strings

    if Path(strings.__file__).resolve().parent != src / "gapedit":
        raise SystemExit(f"gapedit was imported from {strings.__file__}, not from {src}")
    run = {
        **git_state(src.parent),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": SEED,
        "time": "median CPU ms of one call (thread_time_ns)",
        "rows": run_grid(strings),
    }
    run["crossover"] = [
        f"L={r['L']} beta={r['beta']} {r['side']}/{r['kind']}" for r in run["rows"] if r["bitvector_wins"]
    ]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = run
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote run {args.label!r} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
