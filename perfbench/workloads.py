"""The benchmark's workloads, its indel instance family, one trial and its gates.

A trial follows the path of ``harness.run_grid``: build an instance, settle
its truth (``TruthCert.classify``, with ``strings.ed_solve_gap`` as the
fallback), run ``harness.TESTERS["main"]`` on metered views, then run the
read-all baseline ``harness.TESTERS["banded"]`` on the same instance. The
tester only sees the generated strings; every input comes from the seed.

Times are CPU time of the benchmark's one thread (``time.thread_time_ns``).
The benchmark is single-threaded and does no I/O, so on an idle machine
this equals wall time. On a shared virtual machine it leaves out the time
the host takes the CPU away, which moves wall time of identical work by up
to 60 % from one second to the next.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import thread_time_ns
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import gapedit  # noqa: E402

if Path(gapedit.__file__).resolve().parent != SRC / "gapedit":
    raise ImportError(f"gapedit was imported from {gapedit.__file__}, not from {SRC}")

from gapedit import harness, strings  # noqa: E402
from gapedit.intmath import ceil_log2  # noqa: E402
from gapedit.metering import MeteredString, RandomStream  # noqa: E402
from gapedit.reductions import level_plan  # noqa: E402
from gapedit.testers import TesterConfig, plan_gap_dispatch, reps_any  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

YES, NO = strings.YES, strings.NO
CONFIG = TesterConfig(delta=0.1)
ALPHABET = 1 << 32


STRATUM = 4096  # indel_instance: positions per stratum


def _distinct_positions(lo: int, hi: int, count: int, rs: RandomStream) -> set[int]:
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(lo + rs.uniform_index(hi - lo))
    return chosen


def indel_instance(n: int, p: int, rs: RandomStream):
    """Equal-length pair at distance in [p, 2p]: p deletions and p fresh insertions.

    x is uniform over [0, ALPHABET). y deletes p distinct positions of x and
    inserts p symbols from [ALPHABET, ALPHABET + p) at p distinct positions.
    The fresh symbols put the bag distance, hence ED, at >= p; the 2p edits
    bound ED from above.

    The edits are stratified: each stratum of about STRATUM positions gets
    the same number of deletions as insertions, at uniform positions inside
    it. The alignment then drifts off the main diagonal as a random walk
    within a stratum and returns to it at the stratum's end. Unstratified,
    the walk spans the whole string and its size alone makes one instance
    cost up to twice another, too noisy for a median over a few trials.
    """
    if not 0 <= p <= n:
        raise ValueError(f"need 0 <= p <= n, got p={p}, n={n}")
    x = rs.child("x").symbols(n, ALPHABET)
    deleted: set[int] = set()
    inserted: set[int] = set()
    strata = max(1, n // STRATUM)
    for s in range(strata):
        lo, hi = s * n // strata, (s + 1) * n // strata
        count = hi * p // n - lo * p // n
        deleted |= _distinct_positions(lo, hi, count, rs.child(f"delete-{s}"))
        inserted |= _distinct_positions(lo, hi, count, rs.child(f"insert-{s}"))
    kept = iter([sym for i, sym in enumerate(x) if i not in deleted])
    fresh = iter(range(ALPHABET, ALPHABET + p))
    y = [next(fresh) if i in inserted else next(kept) for i in range(n)]
    return x, y, harness.TruthCert(p, 2 * p)


def truth(cert: harness.TruthCert, x, y, alpha: int, beta: int) -> str:
    verdict = cert.classify(alpha, beta)
    if verdict is None:
        inst = strings.GapInstance(strings.as_view(x), strings.as_view(y), alpha, beta)
        verdict = strings.ed_solve_gap(inst)
    return verdict


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # a harness family, or "indels" for indel_instance
    n: int
    k: int
    c: float
    tier: str  # the plan_gap_dispatch tier every trial must take
    why: str

    @property
    def alpha(self) -> int:
        return int(self.k**self.c)

    @property
    def beta(self) -> int:
        return self.k

    def instance(self, side: str, rs: RandomStream):
        if self.family == "indels":
            p = self.beta // 2 if side == "yes" else self.alpha + 1
            return indel_instance(self.n, p, rs)
        spec = harness.InstanceSpec(self.family, self.n, self.k, side=side, c=self.c)
        return harness.generate(spec, rs)

    def planned_reads(self) -> Optional[int]:
        """Exact reads of one multilevel `main` call, from the level plan alone.

        Every oracle call fetches one whole block of both strings; with n a
        power of two no block is cut short. None for other tiers.
        """
        if self.tier != "multilevel" or self.n & (self.n - 1):
            return None
        levels = level_plan(self.n, 10 * self.beta, self.alpha, ceil_log2(self.beta))
        return 2 * reps_any(CONFIG.delta) * sum(iters << p for p, iters in levels)

    def paper_bound(self) -> float:
        """The paper's query bound n / k^(c - 1/2), without its polylog factor."""
        return self.n / self.k ** (self.c - 0.5)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fine-blocks", "random-edits", 1 << 17, 16, 2.0, "multilevel",
            "30k exact-oracle calls on small blocks per trial: per-call overhead and memoisation show here",
        ),
        Workload(
            "wide-band-indels", "indels", 1 << 16, 64, 2.0, "multilevel",
            "indels push the banded leaf solver off the main diagonal; per-call overhead is small here",
        ),
        Workload(
            "exact-truth", "random-edits", 4096, 16, 2.0, "multilevel",
            "n <= 4096, so generation re-certifies truth with ed_exact, which dominates the trial",
        ),
        Workload(
            "h1-sampled", "random-edits", 1 << 17, 2, 16.0, "h1",
            "the only sublinear tier: fingerprint batches over scattered read_many samples",
        ),
    )
}


TARGETS = [
    Target("harness.generate", ("gapedit.harness:generate", "workloads:indel_instance")),
    Target("harness.truth", ("workloads:truth",)),
    Target(
        "strings.ed_exact",
        ("gapedit.harness:ed_exact", "gapedit.strings:ed_exact", "gapedit.reductions:ed_exact"),
        observe=lambda args, res: {"cells": len(args[0]) * len(args[1])},
    ),
    Target(
        "strings.gap_ed_banded",
        (
            "gapedit.strings:gap_ed_banded",
            "gapedit.reductions:gap_ed_banded",
            "gapedit.harness:gap_ed_banded",
        ),
        observe=lambda args, res: {
            "symbols": len(args[0]) + len(args[1]),
            "exceeds": res is strings.EXCEEDS,
        },
    ),
    Target("strings.ed_solve_gap", ("gapedit.strings:ed_solve_gap", "gapedit.harness:ed_solve_gap")),
    Target("metering.read", ("gapedit.metering:MeteredString.read",)),
    Target("metering.read_many", ("gapedit.metering:MeteredString.read_many",)),
    Target("metering.read_range", ("gapedit.metering:MeteredString.read_range",)),
    Target("metering.uniform_index", ("gapedit.metering:RandomStream.uniform_index",), timed=False),
    Target("metering.symbols", ("gapedit.metering:RandomStream.symbols",)),
    Target(
        "reductions.oracle",
        ("gapedit.testers:exact_gap_oracle",),
        observe=lambda args, res: {"no": not res},
    ),
    Target("reductions.multilevel", ("gapedit.testers:multilevel_reduce",)),
    Target("testers.main_gap", ("gapedit.harness:main_gap",)),
    Target("testers.batched_rep", ("gapedit.testers:_batched_gap_via_shifted",)),
    Target("testers.batched_shifted_h0", ("gapedit.testers:batched_shifted_h0",)),
]


@dataclass
class Trial:
    side: str
    truth: str = ""
    verdict: str = ""
    readall: str = ""
    main_ns: int = 0
    readall_ns: int = 0
    busy_ns: int = 0  # generate + truth + main + verdict checks
    reads: int = 0
    distinct: int = 0
    untraced_main_ns: int = 0  # traced runs only: the same call with tracing off
    failures: list[str] = field(default_factory=list)


def _run_main(w: Workload, x, y, rs: RandomStream):
    xm = MeteredString(x, track_distinct=True)
    ym = MeteredString(y, track_distinct=True)
    t0 = thread_time_ns()
    yes = harness.TESTERS["main"](xm.view(), ym.view(), w.alpha, w.beta, CONFIG, rs)
    ns = thread_time_ns() - t0
    return (YES if yes else NO), ns, xm.count + ym.count, xm.distinct_count() + ym.distinct_count()


@contextmanager
def _phase(tracer: Optional[Tracer], scope: str):
    """Trace the with-block under `scope`; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.scope = scope
    with tracer:
        yield


def run_trial(
    w: Workload, rs: RandomStream, side: str, tracer: Optional[Tracer] = None,
    untraced_first: bool = True,
) -> Trial:
    """One closed-loop trial. With a tracer, `main` also runs once untraced,
    before or after the traced call, to measure the tracing overhead."""
    trial = Trial(side)
    t0 = thread_time_ns()
    with _phase(tracer, "gen"):
        x, y, cert = w.instance(side, rs.child("gen"))
    with _phase(tracer, "truth"):
        trial.truth = truth(cert, x, y, w.alpha, w.beta)
    if tracer is not None and untraced_first:
        untraced = _run_main(w, x, y, rs.child("run"))
    with _phase(tracer, "main-" + side):
        trial.verdict, trial.main_ns, trial.reads, trial.distinct = _run_main(
            w, x, y, rs.child("run")
        )
    if tracer is not None and not untraced_first:
        untraced = _run_main(w, x, y, rs.child("run"))
    trial.failures = check(w, trial)
    trial.busy_ns = thread_time_ns() - t0  # untraced runs only: traced ones report no rate
    if tracer is not None:
        trial.untraced_main_ns = untraced[1]
        if untraced[0] != trial.verdict or untraced[2] != trial.reads:
            trial.failures.append("traced and untraced main calls disagree")

    xb = MeteredString(x, track_distinct=True)
    yb = MeteredString(y, track_distinct=True)
    with _phase(tracer, "readall"):
        t1 = thread_time_ns()
        yes = harness.TESTERS["banded"](
            xb.view(), yb.view(), w.alpha, w.beta, CONFIG, rs.child("run")
        )
        trial.readall_ns = thread_time_ns() - t1
    trial.readall = YES if yes else NO
    if trial.readall != trial.truth:
        trial.failures.append(f"read-all verdict {trial.readall} != truth {trial.truth}")
    return trial


def check(w: Workload, trial: Trial) -> list[str]:
    """Correctness gates on the `main` call of one trial; returns the failures."""
    failures = []
    if trial.truth not in (YES, NO):
        failures.append(f"truth {trial.truth!r} is not certified YES or NO")
    tier = plan_gap_dispatch(w.n, w.alpha, w.beta, CONFIG)[0]
    if tier != w.tier:
        failures.append(f"dispatch tier {tier!r} != declared {w.tier!r}")
    if w.tier == "multilevel" and trial.truth == YES and trial.verdict != YES:
        failures.append("one-sided multilevel tester answered NO on a YES instance")
    planned = w.planned_reads()
    if planned is not None and trial.reads != planned:
        failures.append(f"measured reads {trial.reads} != planned reads {planned}")
    return failures


def warm_up(w: Workload) -> None:
    """One small untimed YES trial, so imports and lazy set-up are paid before timing."""
    small = Workload(w.name, w.family, 1024, w.k, w.c, w.tier, w.why)
    rs = RandomStream(0).child("warm-up")
    x, y, cert = small.instance("yes", rs.child("gen"))
    truth(cert, x, y, small.alpha, small.beta)
    _run_main(small, x, y, rs.child("run"))
    harness.TESTERS["banded"](strings.as_view(x), strings.as_view(y), small.alpha, small.beta, CONFIG, rs)
