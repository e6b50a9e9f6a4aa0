"""Randomized reductions from gap problems to oracle calls on block pairs.

All reductions plan their oracle calls up front (level-major, iteration-minor)
and read every planned block whatever the answers, so the positions read are
a pure function of (n, parameters, seed). Deciding may stop once the verdict
is fixed. A plan is a list of runs, with one draw per plan: one
`uniform_parts` call gives every level's block starts, and each level's
starts form a (length, starts) run, split only where the level's short last
tile is drawn. A reduction answers with verdicts: a bool, or one bool per
member of a batch.

The one-pair block reductions (single-level, multi-level) read first and
decide second. Each run is read with one call per string, x first, in plan
order, so every planned block is charged in full before any is sliced; the
reads hand back the blocks in charge order, unsliced. Then the runs are
decided longest first, each in charge order, with one equal-cover per
decision: the window positions that lie in a pair already compared equal.
A block inside the cover is equal and is skipped unsliced, which settles
most short tiles of a multilevel plan, as each lies inside a longer tile.
Any other block not yet sent to the oracle at its length is sliced and
compared inside the meter: an equal pair is YES with no oracle call
(ED = 0 <= beta) and joins the cover, and an unequal one goes to a pair
oracle, once. The first NO fixes the verdict; so does the first run no
longer than beta, YES once read, as an aligned pair is never farther apart
than its length. A caller amplifies by the pass count: that many plans are
drawn back to back, in one draw, and decided as one (as
`testers.one_sided_passes` does). The reduction tallies the planned pairs
once, when the plan is read. Its oracles:

- gap oracle:     fn(x block, y block, alpha, beta, rs) -> bool    (YES == True)
- shifted oracle: fn(xv, yv, alpha, beta, gamma, delta, rs) -> bool

The two reductions of the mutual recursion work on a `Batch` (q instances
sharing one first string) and return one verdict per member. Each spreads
its error over the calls it plans, by a union bound, and hands every call
its share as `delta`; the caller budgets nothing:

- gap_to_shifted's oracle: fn(batch, runs, phi, beta, psi, delta, rs) ->
  list[list[bool]], one call per pass, at delta = 1/(2 * planned blocks).
  The runs are the pass's plan, level-major; each block stands for that
  window of the common string and of every member. The answer holds one
  row per planned block, in run order, with one bool per member.
- shifted_to_gap's oracle: fn(sub, alpha, 3*gamma, delta, rs) -> list[bool],
  one call per x offset, where sub holds every (member, y offset) window,
  member-major. delta is the caller's, split over the grid:
  delta/(2 * grid calls).

`per_member` lifts a pair oracle to the batch protocol of shifted_to_gap,
and `per_block` lifts such a batch oracle to gap_to_shifted's plan protocol,
one call per block window.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import groupby
from math import isqrt
from operator import itemgetter
from typing import Callable, Sequence

from .intmath import ceil_div, ceil_log2, floor_log2_ratio
from .metering import RandomStream
from .strings import EXCEEDS, View, ed_exact, gap_ed_banded


class ParameterError(ValueError):
    """A reduction was invoked outside its stated parameter regime."""


GapOracle = Callable[[Sequence[int], Sequence[int], int, int, RandomStream], bool]
BatchOracle = Callable[..., list[bool]]  # see the module docstring
PlanOracle = Callable[..., list[list[bool]]]  # gap_to_shifted's; see the module docstring
Run = tuple[int, list[int]]  # (length, starts) of consecutive equal-length planned blocks


# ---------------------------------------------------------------------------
# Oracle-call accounting (feeds the grid runner's oracle_calls column)
# ---------------------------------------------------------------------------

# The boxes of the tallies open in this context, outermost first. Every
# thread starts with an empty context, so a tally counts only its own thread.
_open_tallies: ContextVar[tuple[list[int], ...]] = ContextVar("open_tallies", default=())


@contextmanager
def oracle_call_tally():
    """Context manager counting the oracle calls planned inside it, nested tallies' too."""
    box = [0]
    token = _open_tallies.set(_open_tallies.get() + (box,))
    try:
        yield box
    finally:
        _open_tallies.reset(token)


def _tally(k: int = 1) -> None:
    for box in _open_tallies.get():
        box[0] += k


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """q gap/shifted instances sharing one common first string."""

    x: View
    ys: tuple[View, ...]

    def __post_init__(self):
        if len(self.ys) < 1:
            raise ValueError("a batch needs at least one instance")
        for y in self.ys:
            if len(y) != len(self.x):
                raise ParameterError("every batch member must match the common string's length")
        object.__setattr__(self, "ys", tuple(self.ys))

    @property
    def q(self) -> int:
        return len(self.ys)

    def sub(self, start: int, length: int) -> "Batch":
        """The window [start, start+length) of the common string and of every member."""
        return Batch(self.x.sub(start, length), tuple(y.sub(start, length) for y in self.ys))


def single(xv: View, yv: View) -> Batch:
    return Batch(xv, (yv,))


def per_member(oracle: Callable[..., bool]) -> BatchOracle:
    """Lift a pair oracle to the batch protocol: one call per member, in order."""
    return lambda sub, *args: [oracle(sub.x, y, *args) for y in sub.ys]


def per_block(oracle: BatchOracle) -> PlanOracle:
    """Lift a batch oracle to a plan oracle: one call per planned window, in run order."""
    return lambda batch, runs, *args: [
        oracle(batch.sub(s, length), *args) for length, starts in runs for s in starts
    ]


# ---------------------------------------------------------------------------
# Standard leaf oracles
# ---------------------------------------------------------------------------


def exact_gap_oracle(
    bx: Sequence[int], by: Sequence[int], alpha: int, beta: int, rs: RandomStream
) -> bool:
    """Valid gap solver for any thresholds on two blocks, by banded DP.

    A block is the symbol list a reduction fetched, so every read happens
    before the answer is known. The reductions tally the call and settle
    blocks no longer than beta and equal blocks themselves; handed either,
    the DP still answers exactly.
    """
    return gap_ed_banded(bx, by, beta) is not EXCEEDS


def exact_shifted_oracle(
    xv: View, yv: View, alpha: int, beta: int, gamma: int, delta: float, rs: RandomStream
) -> bool:
    """Adjudicating shifted oracle: YES iff the beta-shifted distance is <= gamma.

    Decides by one banded pass per shift at threshold gamma, which is exact
    for the <= gamma question and far cheaper than evaluating the distance.
    Being exact, it leaves its error budget delta unused. Windows no longer
    than beta need no pass: shifting by the whole length leaves two empty
    strings, at distance 0.
    """
    _tally()
    bx = xv.fetch()
    by = yv.fetch()
    n = len(bx)
    if n <= beta:
        return True
    for d in range(0, beta + 1):
        if gap_ed_banded(bx[d:], by[: n - d], gamma) is not EXCEEDS:
            return True
        if d and gap_ed_banded(bx[: n - d], by[d:], gamma) is not EXCEEDS:
            return True
    return False


# ---------------------------------------------------------------------------
# Level planning (shared by both multi-level reductions)
# ---------------------------------------------------------------------------


def level_plan(n: int, rho_num: int, rho_den: int, p_lo: int) -> list[tuple[int, int]]:
    """(level, iterations) pairs for levels p_lo .. floor(log2(rho*n)).

    rho = rho_num/rho_den is the sampling rate; iterations at level p are
    ceil(rho * m_p). Empty when rho*n < 2^p_lo.
    """
    if rho_num * n < rho_den:
        return []
    p_hi = floor_log2_ratio(rho_num * n, rho_den)
    out = []
    for p in range(p_lo, p_hi + 1):
        m_p = ceil_div(n, 1 << p)
        out.append((p, ceil_div(rho_num * m_p, rho_den)))
    return out


def single_level_plan(n: int, alpha: int, phi: int) -> tuple[int, int, int]:
    """(block length b, block count m, iterations) for the one-level reduction."""
    b = ceil_div(3 * phi * n, alpha)
    m = ceil_div(n, b)
    iters = ceil_div(m * b * b, phi * n)  # ceil(m * rho), rho = b^2/(phi n)
    return b, m, iters


def multilevel_levels(n: int, alpha: int, phi: int) -> list[tuple[int, int]]:
    """The (level, iterations) pairs multilevel_reduce samples: rate 10*phi/alpha
    from level ceil(log2 phi). Empty when the rate reaches no level."""
    return level_plan(n, 10 * phi, alpha, ceil_log2(phi))


def gap_to_shifted_levels(n: int, alpha: int, phi: int) -> list[tuple[int, int]]:
    """The (level, iterations) pairs gap_to_shifted samples: rate 84*phi/alpha
    from level ceil(log2(3*phi))."""
    return level_plan(n, 84 * phi, alpha, ceil_log2(3 * phi))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _run_gap_calls(
    xv: View,
    yv: View,
    runs: list[Run],
    alpha: int,
    beta: int,
    oracle: GapOracle,
    rs: RandomStream,
) -> bool:
    """Read every planned block pair, then decide them; YES iff all are.

    Read: each run is read with one call per string, x first, in plan order,
    which charges every planned block before any is decided, and the planned
    pairs are tallied. Decide: the runs go longest first (plan order among
    equal lengths), each in charge order. `same` covers the window positions
    that lie in a pair already compared equal, and a block inside it is
    equal, so it is skipped unsliced. Any other block whose start has not
    reached the oracle at its length is sliced and compared: an equal pair
    is YES with no leaf call (ED = 0 <= beta) and is added to `same`, an
    unequal one goes to the oracle, and the first NO is the verdict, with no
    block decided after it. The first run no longer than beta ends the
    decision YES, since an aligned block pair is never farther apart than
    its length. Long blocks go first: on a NO instance they are the
    likeliest to hold more than beta edits, and on a YES instance their
    equal pairs cover the shorter blocks inside them.
    """
    read = [
        (length, xv.fetch_blocks(starts, length), yv.fetch_blocks(starts, length))
        for length, starts in runs
    ]
    _tally(sum(len(starts) for _, starts in runs))
    settled: dict[int, set[int]] = {}
    same = bytearray(len(xv))
    for length, xs, ys in sorted(read, key=itemgetter(0), reverse=True):
        if length <= beta:
            break
        for bx, by in xs.unequal(ys, settled.setdefault(length, set()), same):
            if not oracle(bx, by, alpha, beta, rs):
                return False
    return True


def _tile_runs(n: int, size: int, starts: list[int]) -> list[Run]:
    """The tiles [s, s + size) of [0..n) at `starts`, in order, as runs of
    equal length. Only the last tile is shorter, so a run is split only
    where that tile was drawn."""
    short = n % size
    if not short:
        return [(size, starts)]
    tail = n - short
    return [(short if last else size, list(run)) for last, run in groupby(starts, tail.__eq__)]


def _draw_runs(n: int, tilings: list[tuple[int, int]], rs: RandomStream) -> list[Run]:
    """`count` uniform tiles [i * size, (i + 1) * size) of [0..n) for each
    (size, count) in `tilings`, in turn, as runs.

    One draw per plan: every tiling's tile indices come from one
    `uniform_parts` call, which gives the values and final state of one
    `uniform_indices` call per tiling.
    """
    drawn = rs.uniform_parts([(ceil_div(n, size), count, size) for size, count in tilings])
    return [
        run
        for (size, _), starts in zip(tilings, drawn)
        for run in _tile_runs(n, size, starts.tolist())
    ]


def _one_sided_reduce(xv, yv, alpha, beta, phi, oracle, rs, passes, factor, tilings) -> bool:
    """single_level_reduce or multilevel_reduce, at alpha >= factor*phi, whose
    plan is `passes` copies of the (size, count) pairs `tilings(n)`."""
    n = len(xv)
    if len(yv) != n:
        raise ParameterError("input strings must have equal length")
    if not (alpha >= factor * phi and phi >= beta >= 1):
        raise ParameterError(
            f"need alpha/{factor} >= phi >= beta >= 1, got alpha={alpha} phi={phi} beta={beta}"
        )
    runs = _draw_runs(n, tilings(n) * passes, rs)
    return _run_gap_calls(xv, yv, runs, phi, beta, oracle, rs)


def single_level_reduce(
    xv: View,
    yv: View,
    alpha: int,
    beta: int,
    phi: int,
    oracle: GapOracle,
    rs: RandomStream,
    passes: int = 1,
) -> bool:
    """One-level blocked reduction to a smaller-gap oracle.

    Requires alpha >= 3*phi >= 3*beta >= 3. YES iff all sampled block pairs
    of `passes` independent plans, drawn back to back, answer YES; a pass
    errs with probability <= 1/e on NO instances given a correct oracle, and
    none errs on YES instances, since an aligned block pair of equal-length
    strings is never farther apart than the strings.
    """
    return _one_sided_reduce(
        xv, yv, alpha, beta, phi, oracle, rs, passes, 3,
        lambda n: [single_level_plan(n, alpha, phi)[::2]],  # [(b, iters)]
    )


def multilevel_reduce(
    xv: View,
    yv: View,
    alpha: int,
    beta: int,
    phi: int,
    oracle: GapOracle,
    rs: RandomStream,
    passes: int = 1,
) -> bool:
    """Multi-level blocked reduction: sample every block length 2^p at one rate.

    Requires alpha >= 10*phi >= 10*beta >= 10. Levels run from ceil(log2 phi)
    to floor(log2(rho*n)) with rho = 10*phi/alpha; an empty level range
    returns YES (no evidence collected; such parameters are routed elsewhere
    by the dispatch layer). `passes` is as in single_level_reduce.
    """
    return _one_sided_reduce(
        xv, yv, alpha, beta, phi, oracle, rs, passes, 10,
        lambda n: [(1 << p, iters) for p, iters in multilevel_levels(n, alpha, phi)],
    )


@dataclass(frozen=True)
class KeyLemmaReport:
    """Outcome of the multi-scale witness-count check.

    For threshold tau and every level p, B_p counts block pairs with distance
    above tau. When ED > tau, the B_p from level ceil(log2 tau) upward must
    satisfy 2*tau*sum(B_p) >= ED; `holds` records that comparison. (Equality
    is attainable, e.g. X=0101, Y=0011, tau=1, so the bound is non-strict.)
    """

    applicable: bool
    ed: int
    tau: int
    per_level: dict[int, int] = field(default_factory=dict)

    @property
    def witness_sum(self) -> int:
        lo = ceil_log2(max(self.tau, 1))
        return sum(c for p, c in self.per_level.items() if p >= lo)

    @property
    def holds(self) -> bool:
        return self.applicable and 2 * self.tau * self.witness_sum >= self.ed


def key_lemma_check(x, y, tau: int) -> KeyLemmaReport:
    """Brute-force check of the witness-count inequality on one instance.

    x and y are equal-length symbol sequences. Not applicable (ED <= tau)
    instances are flagged rather than failed.
    """
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    if len(x) != len(y):
        raise ParameterError("equal lengths required")
    n = len(x)
    ed = ed_exact(x, y)
    if ed <= tau:
        return KeyLemmaReport(False, ed, tau)
    per_level: dict[int, int] = {}
    for p in range(0, ceil_log2(n) + 1):
        if (1 << p) <= tau:
            per_level[p] = 0  # block distance <= block length <= tau
            continue
        size = 1 << p
        per_level[p] = sum(
            gap_ed_banded(x[i : i + size], y[i : i + size], tau) is EXCEEDS
            for i in range(0, n, size)
        )
    return KeyLemmaReport(True, ed, tau, per_level)


def shifted_threshold(n: int, alpha: int, beta: int, phi: int) -> int:
    """The derived shift-tolerance threshold floor(112*beta*phi*ceil(log2 n)/alpha)."""
    return (112 * beta * phi * ceil_log2(n)) // alpha


def gap_to_shifted(
    batch: Batch,
    alpha: int,
    beta: int,
    phi: int,
    oracle: PlanOracle,
    rs: RandomStream,
) -> list[bool]:
    """Reduce each gap instance of a batch to shifted-gap oracle calls on block pairs.

    Requires phi >= beta >= psi where psi = floor(112*beta*phi*ceil(log2 n)/alpha).
    Samples levels ceil(log2(3*phi)) .. floor(log2(rho*n)) at rate
    rho = 84*phi/alpha, drawing every block before the first oracle call; the
    runs of blocks are shared by the batch and go to the oracle in one call,
    at error 1/(2 * planned blocks) per block, and a member is YES iff at
    most 5 of its blocks answered NO. With a correct oracle both error
    directions are at most 1/e.
    """
    n = len(batch.x)
    if phi < 1 or phi < beta or beta < 0:
        raise ParameterError(f"need phi >= beta >= 0, phi >= 1; got phi={phi} beta={beta}")
    psi = shifted_threshold(n, alpha, beta, phi)
    if beta < psi:
        raise ParameterError(
            f"shift threshold psi={psi} exceeds beta={beta}: "
            f"alpha={alpha} is too small for phi={phi} at n={n} "
            f"(raise alpha or lower phi)"
        )
    levels = gap_to_shifted_levels(n, alpha, phi)
    runs = _draw_runs(n, [(1 << p, iters) for p, iters in levels], rs)
    planned = sum(len(starts) for _, starts in runs)
    rows = oracle(batch, runs, phi, beta, psi, 1.0 / (2 * max(1, planned)), rs)
    assert len(rows) == planned, "the oracle answers one row per planned block"
    no_counts = [0] * batch.q
    for row in rows:
        for j, yes in enumerate(row):
            no_counts[j] += not yes
    return [c <= 5 for c in no_counts]


# ---------------------------------------------------------------------------
# Shifted -> gap (deterministic offset grid)
# ---------------------------------------------------------------------------


def shift_grid_spread(beta: int, gamma: int) -> int:
    """The offset spread 1+xi = floor(sqrt((1+beta)(1+gamma))), clamped to [1+gamma, 1+beta]."""
    t = isqrt((1 + beta) * (1 + gamma))
    return max(1 + gamma, min(1 + beta, t))


def shift_grid(beta: int, gamma: int, spread: int) -> tuple[list[int], list[int]]:
    """Offset grid for the shifted->gap reduction.

    x offsets cover [0..beta] in residues {0, beta} mod spread; y offsets
    cover [0..spread-1] and [beta-spread+1..beta] in residues {0, beta}
    mod (1+gamma).
    """
    xi, g1 = spread - 1, 1 + gamma
    xs = sorted({*range(0, beta + 1, spread), *range(beta, -1, -spread)})
    ys = sorted({*range(0, xi + 1, g1), *range(beta, max(0, beta - xi) - 1, -g1)})
    return xs, ys


def shifted_to_gap(
    batch: Batch,
    alpha: int,
    beta: int,
    gamma: int,
    spread: int,
    oracle: BatchOracle,
    delta: float,
    rs: RandomStream,
) -> list[bool]:
    """Deterministic reduction from shifted-gap instances to gap oracle calls.

    Requires alpha >= 3*gamma and 1+gamma <= spread <= 1+beta. Enumerates
    shift_grid(beta, gamma, spread) and calls the gap oracle with thresholds
    (alpha, 3*gamma) on length n-beta windows, one call per x offset, at
    error delta/(2 * grid calls) per window; a member is YES iff any of its
    windows answers YES. Exact given a correct oracle. When n <= beta every
    member is decided by exact_shifted_oracle.
    """
    n = len(batch.x)
    if alpha < 3 * gamma:
        raise ParameterError(f"need alpha >= 3*gamma, got alpha={alpha} gamma={gamma}")
    if not (alpha >= beta >= gamma >= 0):
        raise ParameterError("need alpha >= beta >= gamma >= 0")
    if not 1 + gamma <= spread <= 1 + beta:
        raise ParameterError(f"need 1+gamma <= spread <= 1+beta, got spread={spread}")
    if n <= beta:  # degenerate: read everything and decide exactly
        return [exact_shifted_oracle(batch.x, y, alpha, beta, gamma, delta, rs) for y in batch.ys]
    xs, ys = shift_grid(beta, gamma, spread)
    n_calls = len(xs) * len(ys)
    assert n_calls * (1 + gamma) <= 16 * (1 + beta), "call-count bound violated"
    assert len(xs) + len(ys) <= 2 * ceil_div(1 + beta, spread) + 2 * ceil_div(
        spread, 1 + gamma
    ), "distinct-substring bound violated"
    n_prime = n - beta
    delta_call = delta / (2 * n_calls)
    yes_counts = [0] * batch.q
    for x_off in xs:
        windows = Batch(
            batch.x.sub(x_off, n_prime),
            tuple(y.sub(y_off, n_prime) for y in batch.ys for y_off in ys),
        )
        answers = oracle(windows, alpha, 3 * gamma, delta_call, rs)
        for j in range(batch.q):
            yes_counts[j] += sum(answers[j * len(ys) : (j + 1) * len(ys)])
    return [c > 0 for c in yes_counts]
