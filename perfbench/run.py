#!/usr/bin/env python3
"""gapedit benchmark: `main` tester latency against the read-all baseline.

    python3 perfbench/run.py --workload fine-blocks --seed 1 --seconds 25 --trace 0

One process, one closed-loop client, no threads: YES and NO trials alternate
until --seconds of wall time have passed. Each trial generates an instance
from the seed, settles its truth, runs `harness.TESTERS["main"]` and then the
read-all baseline `harness.TESTERS["banded"]`, and checks both verdicts.
Trials are timed in CPU time (see workloads.py); end-to-end times are then
scaled to a reference speed (see reference_kernel). With
--trace 0 the end-to-end metrics of BENCHMARK.json are reported; with
--trace 1 the public functions are wrapped at their import sites (see
workloads.TARGETS) and the per-layer metrics are reported, including the
tracing overhead measured against an untraced call on the same instance.

The last line of standard output is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 1 if any trial failed
a correctness gate, 2 on bad arguments or missing sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time, thread_time_ns

import numpy

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
# Mean CPU ms of the two reference_kernel jobs on the 2-vCPU Xeon VM the bounds were set on.
REFERENCE_MS = (4.4, 3.4)


def reference_kernel() -> tuple[int, int]:
    """CPU ns of two fixed jobs: pure-Python integer, list and dict work, and
    numpy row minima like the exact-DP kernel's.

    They run between trials. On a shared host the CPU time of identical work
    flips between a fast and a slow state, seconds apart and up to 50 %
    apart; these jobs and the trial next to them flip together. So
    end-to-end times are reported at reference speed: a trial's CPU ms x
    REFERENCE_MS / (mean of the reference times just before and just after
    it). Scaling by a mean over the whole run instead left three times the
    run-to-run spread. Python and numpy code slow down by different factors:
    tester and read-all times, pure Python, are scaled by the Python job;
    trial throughput, which includes numpy instance generation, by both.
    """
    t0 = thread_time_ns()
    table = {}
    row = list(range(2000))
    acc = 0
    for r in range(10):
        for i in row:
            acc = (acc * 31 + i * r) & 0xFFFFFFFF
            table[i & 255] = acc
        row = row[1:] + row[:1]
    t1 = thread_time_ns()
    a = numpy.arange(4097, dtype=numpy.int64)
    b = numpy.zeros_like(a)
    for _ in range(150):
        numpy.minimum(a[1:] + 1, a[:-1], out=b[1:])
        a = numpy.minimum.accumulate(b)
    return t1 - t0, thread_time_ns() - t1


def _workloads():
    import workloads  # imports gapedit from ROOT/src

    return workloads


def probe_setup(workload: str) -> float:
    """CPU seconds, at reference speed, a fresh interpreter spends until it is
    ready for its first trial."""
    out = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", workload],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    cpu_s, python_ns, numpy_ns = out.stdout.split()[-3:]
    return float(cpu_s) * sum(REFERENCE_MS) * 1e6 / (int(python_ns) + int(numpy_ns))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Falls back to the maximum (percentile 100) when there are too few samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Run:
    trials: list
    tracer: object  # workloads.Tracer, or None for an untraced run
    elapsed_s: float
    reference_ns: list  # reference_kernel times: before the first trial and after each

    def scaled(self) -> list:
        """(trial, Python scale, whole scale) for every trial that passed its gates.

        A scale turns CPU ns into ms at reference speed: the Python job's for
        pure-Python work, both jobs' for a whole trial.
        """
        ref = self.reference_ns
        out = []
        for i, t in enumerate(self.trials):
            if t.failures:
                continue
            (py0, np0), (py1, np1) = ref[i], ref[i + 1]
            out.append((
                t,
                2 * REFERENCE_MS[0] / (py0 + py1),
                2 * sum(REFERENCE_MS) / (py0 + np0 + py1 + np1),
            ))
        return out


def measure(w, seed: int, seconds: float, trace: bool) -> Run:
    """Closed loop of YES/NO trial pairs until `seconds` have passed (at least one pair)."""
    wl = _workloads()
    tracer = wl.Tracer(wl.TARGETS) if trace else None
    stream = wl.RandomStream(seed).child(w.name)
    trials = []
    reference_ns = [reference_kernel()]
    t0 = perf_counter()
    pair = 0
    while pair == 0 or perf_counter() - t0 < seconds:
        for side in ("yes", "no"):
            index = len(trials)
            try:
                trial = wl.run_trial(
                    w, stream.child(f"trial-{index}"), side, tracer, untraced_first=pair % 2 == 0
                )
            except Exception:  # a raising trial is a failed trial, not a crashed benchmark
                trial = wl.Trial(side, failures=["raised:\n" + traceback.format_exc()])
            for failure in trial.failures:
                print(f"FAILED trial {index} ({side}): {failure}", file=sys.stderr)
            trials.append(trial)
            reference_ns.append(reference_kernel())
        pair += 1
    return Run(trials, tracer, perf_counter() - t0, reference_ns)


def _ok(run: Run) -> list:
    return [t for t in run.trials if not t.failures]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    """Median, or 0.0 when every trial of the kind failed (the run then reports correct=false)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(w, run: Run, setup_s: float) -> tuple[dict, dict]:
    """(metrics, report-only figures) of an untraced run; times at reference speed."""
    scaled = run.scaled()
    ok = [t for t, _, _ in scaled]
    main_ms = [t.main_ns * f for t, f, _ in scaled]
    decided = [t for t in ok if t.truth in ("YES", "NO")]
    wrong = sum(1 for t in decided if t.verdict != t.truth)
    tail_ms, tail_pct = tail(main_ms) if main_ms else (0.0, 100.0)
    two_n = 2 * w.n
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (_ratio(1000 * len(ok), sum(t.busy_ns * f for t, _, f in scaled)), "1/s"),
        "yes_ms.p50": (_median(t.main_ns * f for t, f, _ in scaled if t.truth == "YES"), "ms"),
        "no_ms.p50": (_median(t.main_ns * f for t, f, _ in scaled if t.truth == "NO"), "ms"),
        "tester_ms.tail": (tail_ms, "ms"),
        "readall_ms.p50": (_median(t.readall_ns * f for t, f, _ in scaled), "ms"),
        "queries_per_2n": (_ratio(sum(t.reads for t in ok), two_n * len(ok)), "ratio"),
        "distinct_per_2n": (_ratio(sum(t.distinct for t in ok), two_n * len(ok)), "ratio"),
        "accuracy": (1 - _ratio(wrong, len(decided)), "ratio"),
    }
    report = {
        "error_rate": (_ratio(wrong, len(decided)), "ratio"),
        "failed_share": (1 - _ratio(len(ok), len(run.trials)), "ratio"),
        "tester_ms.tail percentile": (tail_pct, f"% of {len(main_ms)} samples"),
        "reference jobs, median": (
            [statistics.median(r[j] for r in run.reference_ns) / 1e6 for j in (0, 1)],
            f"CPU ms (nominal {list(REFERENCE_MS)})",
        ),
        "main CPU ms, median (unscaled)": (_median(t.main_ns / 1e6 for t in ok), "ms"),
        "planned reads per trial": (w.planned_reads() or "n/a", "reads"),
        "paper bound n/k^(c-1/2)": (w.paper_bound(), "reads"),
    }
    return metrics, report


def per_layer(w, run: Run) -> tuple[dict, dict]:
    """(metrics, report-only figures) of a traced run: per-trial means of each layer."""
    tr = run.tracer
    ok = _ok(run)
    count = max(1, len(ok))

    def in_main(scope: str) -> bool:
        return scope.startswith("main-")

    stat = tr.total

    def ms(ns: int) -> float:
        return ns / 1e6 / count

    banded = stat("strings.gap_ed_banded")
    exact = stat("strings.ed_exact")
    oracle = stat("reductions.oracle", in_main)
    multilevel = stat("reductions.multilevel", in_main)
    main = stat("testers.main_gap")
    h0 = stat("testers.batched_shifted_h0", in_main)
    reads = sum(t.reads for t in ok)
    distinct = sum(t.distinct for t in ok)
    metered = [stat(f"metering.{m}", in_main) for m in ("read", "read_many", "read_range")]
    planned = w.planned_reads()

    untraced = sum(t.untraced_main_ns for t in ok)

    def side_share(layer: str, side: str) -> float:
        """Span of `layer` inside traced `main` calls over the untraced `main` time, one side."""
        scope = f"main-{side}"
        return _ratio(
            stat(layer, lambda s: s == scope).total_ns,
            sum(t.untraced_main_ns for t in ok if t.side == side),
        )

    traced = sum(t.main_ns for t in ok)
    metrics = {
        "harness.generate.ms": (ms(stat("harness.generate").total_ns), "ms"),
        "harness.truth.ms": (ms(stat("harness.truth").total_ns), "ms"),
        "strings.ed_exact.calls": (exact.calls / count, "count"),
        "strings.ed_exact.ms": (ms(exact.total_ns), "ms"),
        "strings.ed_exact.cells": (exact.counters.get("cells", 0) / count, "count"),
        "strings.gap_ed_banded.calls": (banded.calls / count, "count"),
        "strings.gap_ed_banded.ms": (ms(banded.total_ns), "ms"),
        "strings.gap_ed_banded.symbols": (banded.counters.get("symbols", 0) / count, "count"),
        "strings.gap_ed_banded.exceeds_ratio": (
            _ratio(banded.counters.get("exceeds", 0), banded.calls), "ratio"
        ),
        "strings.gap_ed_banded.main_share.yes": (side_share("strings.gap_ed_banded", "yes"), "ratio"),
        "strings.gap_ed_banded.main_share.no": (side_share("strings.gap_ed_banded", "no"), "ratio"),
        "strings.ed_solve_gap.calls": (stat("strings.ed_solve_gap").calls / count, "count"),
        "strings.ed_solve_gap.ms": (ms(stat("strings.ed_solve_gap").total_ns), "ms"),
        "metering.reads": (reads / count, "count"),
        "metering.distinct": (distinct / count, "count"),
        "metering.repeat_ratio": (1 - _ratio(distinct, reads), "ratio"),
        "metering.read_range.calls": (metered[2].calls / count, "count"),
        "metering.read_many.calls": (metered[1].calls / count, "count"),
        "metering.read.ms": (ms(sum(s.total_ns for s in metered)), "ms"),
        "metering.uniform_index.calls": (stat("metering.uniform_index", in_main).calls / count, "count"),
        "metering.symbols.ms": (ms(stat("metering.symbols").total_ns), "ms"),
        "reductions.oracle.calls": (oracle.calls / count, "count"),
        "reductions.oracle.self_ms": (ms(oracle.self_ns), "ms"),
        "reductions.oracle.no_ratio": (_ratio(oracle.counters.get("no", 0), oracle.calls), "ratio"),
        "reductions.multilevel.calls": (multilevel.calls / count, "count"),
        "reductions.multilevel.self_ms": (ms(multilevel.self_ns), "ms"),
        "reductions.planned_reads": (planned or 0, "count"),
        "testers.main_gap.ms": (ms(main.total_ns), "ms"),
        "testers.reps": (
            (multilevel.calls + stat("testers.batched_rep", in_main).calls) / count, "count"
        ),
        "testers.batched_shifted_h0.calls": (h0.calls / count, "count"),
        "testers.batched_shifted_h0.self_ms": (ms(h0.self_ns), "ms"),
        # h0's span holds traced callees and their tracing cost, so it is set
        # against traced `main`; the leaf gap_ed_banded against untraced `main`.
        "testers.batched_shifted_h0.main_share": (_ratio(h0.total_ns, traced), "ratio"),
        "trace.overhead_ms": (ms(traced - untraced), "ms"),
        "trace.overhead_share": (_ratio(traced - untraced, untraced), "ratio"),
    }
    layers = {
        name: stat(name).self_ns
        for name in {t.name for t in tr.targets}
    }
    largest = max(layers, key=layers.get)
    report = {
        "largest layer by self time": (largest, f"{ms(layers[largest]):.3f} ms/trial"),
        "absent wrap targets": (", ".join(tr.absent) or "none", ""),
        "measured reads == planned reads": (
            "n/a" if planned is None else all(t.reads == planned for t in ok), ""
        ),
        "paper bound n/k^(c-1/2)": (w.paper_bound(), "reads"),
        "metering.reads / paper bound": (_ratio(reads / count, w.paper_bound()), ""),
    }
    return metrics, report


def metadata(w, seed: int, seconds: float, trace: bool, run: Run) -> dict:
    def git(*args):
        if not (ROOT / ".git").exists():
            return None
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "workload": {
            "name": w.name, "family": w.family, "n": w.n, "k": w.k, "c": w.c,
            "alpha": w.alpha, "beta": w.beta, "tier": w.tier,
        },
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "trials": len(run.trials),
        "trials_yes": sum(1 for t in run.trials if t.side == "yes"),
        "trials_no": sum(1 for t in run.trials if t.side == "no"),
        "elapsed_s": run.elapsed_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        wl = _workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    if args.probe_setup:
        wl.warm_up(w)
        ready = process_time()  # CPU time since the interpreter started
        print(ready, *reference_kernel())
        return 0

    if args.trace:
        wl.warm_up(w)
        run = measure(w, args.seed, args.seconds, trace=True)
        metrics, report = per_layer(w, run)
    else:
        setup_s = statistics.median(probe_setup(w.name) for _ in range(SETUP_PROBES))
        wl.warm_up(w)
        run = measure(w, args.seed, args.seconds, trace=False)
        metrics, report = end_to_end(w, run, setup_s)

    failed = sum(1 for t in run.trials if t.failures)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: "
          f"{len(run.trials)} trials, {failed} failed")
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name:40s} {value} {unit}")
    print("meta " + json.dumps(metadata(w, args.seed, args.seconds, bool(args.trace), run)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.trials),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
