"""Randomized reductions from gap problems to oracle calls on block pairs.

All reductions plan their oracle calls up front (level-major, iteration-minor)
and execute every planned call: there is no short-circuiting, so the access
pattern is a pure function of (n, parameters, seed). Oracle protocols:

- gap oracle:     fn(xv, yv, alpha, beta, rs) -> bool    (YES == True)
- shifted oracle: fn(xv, yv, alpha, beta, gamma, rs) -> bool
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable

from .intmath import ceil_div, ceil_log2, floor_log2_ratio
from .metering import RandomStream
from .strings import EXCEEDS, View, ed_exact, gap_ed_banded


class ParameterError(ValueError):
    """A reduction was invoked outside its stated parameter regime."""


GapOracle = Callable[[View, View, int, int, RandomStream], bool]
ShiftedOracle = Callable[[View, View, int, int, int, RandomStream], bool]


# ---------------------------------------------------------------------------
# Oracle-call accounting (used by the benchmark harness)
# ---------------------------------------------------------------------------

_tally_state = threading.local()


@contextmanager
def oracle_call_tally():
    """Context manager counting leaf oracle decisions made inside it."""
    stack = getattr(_tally_state, "stack", None)
    if stack is None:
        stack = _tally_state.stack = []
    box = [0]
    stack.append(box)
    try:
        yield box
    finally:
        stack.pop()


def _tally(k: int = 1) -> None:
    stack = getattr(_tally_state, "stack", None)
    if stack:
        for box in stack:
            box[0] += k


# ---------------------------------------------------------------------------
# Block grids and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockGrid:
    """Level-p partition of [0..n) into ceil(n/2^p) blocks of length 2^p.

    Blocks tile [0..n) disjointly; only the last one may be shorter.
    """

    n: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.p < 0:
            raise ValueError("need n >= 1 and p >= 0")

    @property
    def m(self) -> int:
        return ceil_div(self.n, 1 << self.p)

    def block(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.m:
            raise IndexError(f"block {i} of {self.m}")
        start = i << self.p
        return start, min(self.n, start + (1 << self.p)) - start


@dataclass
class ReductionOutcome:
    yes: bool
    no_count: int
    call_count: int

    @property
    def verdict(self) -> str:
        return "YES" if self.yes else "NO"


# ---------------------------------------------------------------------------
# Standard leaf oracles
# ---------------------------------------------------------------------------


def exact_gap_oracle(xv: View, yv: View, alpha: int, beta: int, rs: RandomStream) -> bool:
    """Valid gap solver for any thresholds: reads both substrings, banded DP."""
    _tally()
    bx = xv.fetch()
    by = yv.fetch()
    return gap_ed_banded(bx, by, beta) is not EXCEEDS


def exact_shifted_oracle(
    xv: View, yv: View, alpha: int, beta: int, gamma: int, rs: RandomStream
) -> bool:
    """Adjudicating shifted oracle: YES iff the beta-shifted distance is <= gamma.

    Decides by one banded pass per shift at threshold gamma, which is exact
    for the <= gamma question and far cheaper than evaluating the distance.
    """
    _tally()
    bx = xv.fetch()
    by = yv.fetch()
    n = len(bx)
    for d in range(0, min(n, beta) + 1):
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


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _run_gap_calls(
    xv: View,
    yv: View,
    plan: list[tuple[int, int, int]],
    alpha: int,
    beta: int,
    oracle: GapOracle,
    rs: RandomStream,
) -> ReductionOutcome:
    """Execute planned (start, length) gap calls; plan entries are (start, length, _)."""
    no_count = 0
    for start, length, _ in plan:
        if not oracle(xv.sub(start, length), yv.sub(start, length), alpha, beta, rs):
            no_count += 1
    return ReductionOutcome(no_count == 0, no_count, len(plan))


def _draw_blocks(n: int, levels: list[tuple[int, int]], rs: RandomStream):
    """Uniform block choices, level-major, iteration-minor."""
    plan = []
    for p, iters in levels:
        grid = BlockGrid(n, p)
        m_p = grid.m
        for _ in range(iters):
            i = rs.uniform_index(m_p)
            start, length = grid.block(i)
            plan.append((start, length, p))
    return plan


def single_level_reduce(
    xv: View,
    yv: View,
    alpha: int,
    beta: int,
    phi: int,
    oracle: GapOracle,
    rs: RandomStream,
) -> ReductionOutcome:
    """One-level blocked reduction to a smaller-gap oracle.

    Requires alpha >= 3*phi >= 3*beta >= 3. YES iff all sampled block pairs
    answer YES; errs with probability <= 1/e on NO instances given a correct
    oracle, and never on YES instances.
    """
    n = len(xv)
    if len(yv) != n:
        raise ParameterError("input strings must have equal length")
    if not (alpha >= 3 * phi and phi >= beta >= 1):
        raise ParameterError(
            f"need alpha/3 >= phi >= beta >= 1, got alpha={alpha} phi={phi} beta={beta}"
        )
    b, m, iters = single_level_plan(n, alpha, phi)
    plan = []
    for _ in range(iters):
        i = rs.uniform_index(m)
        start = i * b
        plan.append((start, min(b, n - start), 0))
    return _run_gap_calls(xv, yv, plan, phi, beta, oracle, rs)


def multilevel_reduce(
    xv: View,
    yv: View,
    alpha: int,
    beta: int,
    phi: int,
    oracle: GapOracle,
    rs: RandomStream,
) -> ReductionOutcome:
    """Multi-level blocked reduction: sample every block length 2^p at one rate.

    Requires alpha >= 10*phi >= 10*beta >= 10. Levels run from ceil(log2 phi)
    to floor(log2(rho*n)) with rho = 10*phi/alpha; an empty level range
    returns YES (no evidence collected; such parameters are routed elsewhere
    by the dispatch layer).
    """
    n = len(xv)
    if len(yv) != n:
        raise ParameterError("input strings must have equal length")
    if not (alpha >= 10 * phi and phi >= beta >= 1):
        raise ParameterError(
            f"need alpha/10 >= phi >= beta >= 1, got alpha={alpha} phi={phi} beta={beta}"
        )
    levels = level_plan(n, 10 * phi, alpha, ceil_log2(phi))
    plan = _draw_blocks(n, levels, rs)
    return _run_gap_calls(xv, yv, plan, phi, beta, oracle, rs)


@dataclass(frozen=True)
class KeyLemmaReport:
    """Outcome of the multi-scale witness-count check.

    For threshold tau and every level p, B_p counts block pairs with distance
    above tau. When ED > tau, the B_p from level ceil(log2 tau) upward must
    satisfy 2*tau*sum(B_p) >= ED; `holds` records that comparison. (Equality
    is attainable, e.g. X=0101, Y=0011, tau=1, so the bound is non-strict.)
    """

    applicable: bool
    holds: bool
    ed: int
    tau: int
    per_level: dict[int, int] = field(default_factory=dict)

    @property
    def witness_sum(self) -> int:
        lo = ceil_log2(max(self.tau, 1))
        return sum(c for p, c in self.per_level.items() if p >= lo)


def key_lemma_check(x, y, tau: int) -> KeyLemmaReport:
    """Brute-force check of the witness-count inequality on one instance.

    Not applicable (ED <= tau) instances are flagged rather than failed.
    """
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    bx = x.fetch() if isinstance(x, View) else list(x)
    by = y.fetch() if isinstance(y, View) else list(y)
    if len(bx) != len(by):
        raise ParameterError("equal lengths required")
    n = len(bx)
    ed = ed_exact(bx, by)
    if ed <= tau:
        return KeyLemmaReport(False, False, ed, tau)
    per_level: dict[int, int] = {}
    for p in range(0, ceil_log2(n) + 1):
        if (1 << p) <= tau:
            per_level[p] = 0  # block distance <= block length <= tau
            continue
        grid = BlockGrid(n, p)
        cnt = 0
        for i in range(grid.m):
            start, length = grid.block(i)
            if (
                gap_ed_banded(bx[start : start + length], by[start : start + length], tau)
                is EXCEEDS
            ):
                cnt += 1
        per_level[p] = cnt
    report = KeyLemmaReport(True, False, ed, tau, per_level)
    holds = 2 * tau * report.witness_sum >= ed
    return KeyLemmaReport(True, holds, ed, tau, per_level)


def shifted_threshold(n: int, alpha: int, beta: int, phi: int) -> int:
    """The derived shift-tolerance threshold floor(112*beta*phi*ceil(log2 n)/alpha)."""
    return (112 * beta * phi * ceil_log2(n)) // alpha


def gap_to_shifted(
    xv: View,
    yv: View,
    alpha: int,
    beta: int,
    phi: int,
    oracle: ShiftedOracle,
    rs: RandomStream,
) -> ReductionOutcome:
    """Reduce a gap instance to shifted-gap oracle calls on block pairs.

    Requires phi >= beta >= psi where psi = floor(112*beta*phi*ceil(log2 n)/alpha).
    Samples levels ceil(log2(3*phi)) .. floor(log2(rho*n)) at rate
    rho = 84*phi/alpha and answers YES iff at most 5 calls said NO. With a
    correct oracle both error directions are at most 1/e.
    """
    n = len(xv)
    if len(yv) != n:
        raise ParameterError("input strings must have equal length")
    if phi < 1 or phi < beta or beta < 0:
        raise ParameterError(f"need phi >= beta >= 0, phi >= 1; got phi={phi} beta={beta}")
    psi = shifted_threshold(n, alpha, beta, phi)
    if beta < psi:
        raise ParameterError(
            f"shift threshold psi={psi} exceeds beta={beta}: "
            f"alpha={alpha} is too small for phi={phi} at n={n} "
            f"(raise alpha or lower phi)"
        )
    levels = level_plan(n, 84 * phi, alpha, ceil_log2(3 * phi))
    plan = _draw_blocks(n, levels, rs)
    no_count = 0
    for start, length, _ in plan:
        if not oracle(xv.sub(start, length), yv.sub(start, length), phi, beta, psi, rs):
            no_count += 1
    return ReductionOutcome(no_count <= 5, no_count, len(plan))


def gap_to_shifted_call_count(n: int, alpha: int, phi: int) -> int:
    """Planned call count of gap_to_shifted, for error budgeting."""
    return sum(iters for _, iters in level_plan(n, 84 * phi, alpha, ceil_log2(3 * phi)))


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
    xi = spread - 1
    xs = sorted(
        {x for x in range(0, beta + 1) if x % spread == 0 or x % spread == beta % spread}
    )
    g1 = 1 + gamma
    ys = sorted(
        {y for y in range(0, xi + 1) if y % g1 == 0}
        | {y for y in range(max(0, beta - xi), beta + 1) if y % g1 == beta % g1}
    )
    return xs, ys


def shifted_to_gap(
    xv: View,
    yv: View,
    alpha: int,
    beta: int,
    gamma: int,
    oracle: GapOracle,
    rs: RandomStream,
) -> ReductionOutcome:
    """Deterministic reduction from a shifted-gap instance to gap oracle calls.

    Requires alpha >= 3*gamma. Enumerates the offset grid and calls the
    gap oracle with thresholds (alpha, 3*gamma) on length n-beta windows;
    YES iff any call answers YES. Exact given a correct oracle.
    """
    n = len(xv)
    if len(yv) != n:
        raise ParameterError("input strings must have equal length")
    if alpha < 3 * gamma:
        raise ParameterError(f"need alpha >= 3*gamma, got alpha={alpha} gamma={gamma}")
    if not (alpha >= beta >= gamma >= 0):
        raise ParameterError("need alpha >= beta >= gamma >= 0")
    if n <= beta:  # degenerate: read everything and decide exactly
        yes = exact_shifted_oracle(xv, yv, alpha, beta, gamma, rs)
        return ReductionOutcome(yes, 0 if yes else 1, 1)
    spread = shift_grid_spread(beta, gamma)
    xs, ys = shift_grid(beta, gamma, spread)
    n_calls = len(xs) * len(ys)
    assert n_calls * (1 + gamma) <= 16 * (1 + beta), "call-count bound violated"
    assert len(xs) + len(ys) <= 2 * ceil_div(1 + beta, spread) + 2 * ceil_div(
        spread, 1 + gamma
    ), "distinct-substring bound violated"
    n_prime = n - beta
    answers = [
        oracle(xv.sub(x_off, n_prime), yv.sub(y_off, n_prime), alpha, 3 * gamma, rs)
        for x_off in xs
        for y_off in ys
    ]
    return ReductionOutcome(any(answers), answers.count(False), len(answers))
