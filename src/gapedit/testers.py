"""End-to-end gap and shifted-gap testers.

The stack, bottom to top:

- ``equality_test``: the zero-gap sampler.
- ``batched_shifted_h0``: shifted tester with gamma=0 backed by a shared
  fingerprint sample and a set of the common string's window fingerprints.
- ``batched_gap_h1`` / ``batched_shifted_h1`` / ``batched_gap_h2``: the
  specialized shallow recursions; batches share one sample plan.
- ``baseline_gap`` / ``baseline_shifted``: the plain mutual recursion.
- ``main_gap`` / ``main_shifted``: dispatch that picks the cheapest
  applicable tier from one table of depth rows, with a wide-range
  multilevel tier for moderate gaps and an UNSUPPORTED-REGIME error (never
  a crash) when nothing applies.

Testers never short-circuit across planned oracle calls or repetitions, so
their read sequences depend only on (n, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, isqrt, log
from typing import Callable, Optional

from .intmath import ceil_div, ceil_log2, iroot
from .metering import RandomStream
from .reductions import (
    ParameterError,
    _tally,
    exact_gap_oracle,
    exact_shifted_oracle,
    gap_to_shifted,
    gap_to_shifted_call_count,
    level_plan,
    multilevel_reduce,
    shift_grid,
    shift_grid_spread,
    shifted_threshold,
    shifted_to_gap,
)
from .strings import GapInstance, ShiftedInstance, View


class UnsupportedRegimeError(ValueError):
    """No implemented tier admits these parameters; carries the largest usable thresholds."""

    def __init__(self, message: str, max_beta: Optional[int] = None, max_gamma: Optional[int] = None):
        super().__init__(message)
        self.max_beta = max_beta
        self.max_gamma = max_gamma


@dataclass(frozen=True)
class TesterConfig:
    """Knobs shared by the recursive testers.

    ``h`` requests an explicit recursion depth (validated strictly); ``None``
    lets the dispatch pick, with recursion depths up to ``h_max``.
    """

    __test__ = False  # pytest: not a test class despite the name

    delta: float = 0.1
    h: Optional[int] = None
    h_max: int = 6

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if self.h is not None and not 0 <= self.h <= self.h_max:
            raise ValueError(f"h must lie in [0, {self.h_max}], got {self.h}")


def reps_majority(delta: float) -> int:
    """Repetitions for majority amplification from constant error to delta (odd)."""
    if delta >= 1 / 3:
        return 1
    r = max(1, int(-(-18 * log(1 / delta) // 1)))
    return r | 1


def reps_any(delta: float) -> int:
    """Repetitions for one-sided (false-YES only) testers combined by any-NO."""
    if delta >= exp(-1):
        return 1
    return max(1, int(-(-log(1 / delta) // 1)))


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
                raise ValueError("every batch member must match the common string's length")
        object.__setattr__(self, "ys", tuple(self.ys))

    @property
    def q(self) -> int:
        return len(self.ys)


def single(xv: View, yv: View) -> Batch:
    return Batch(xv, (yv,))


def batched_equality(batch: Batch, alpha: int, delta: float, rs: RandomStream) -> list[bool]:
    """Zero-gap tests against one common string, sharing a single sample.

    Equal strings always answer YES. When ED > alpha the Hamming distance
    also exceeds alpha, so m = ceil(n/(1+alpha) * ln(1/delta')) uniform
    positions catch a mismatch with probability >= 1 - delta'.
    """
    n = len(batch.x)
    _tally(batch.q)
    if alpha >= n:
        return [True] * batch.q  # ED <= n <= alpha: the NO promise is vacuous
    dp = min(delta, 1 / 3)
    m = min(n, int(-(-(n / (1 + alpha)) * log(1 / dp) // 1)))
    positions = [rs.uniform_index(n) for _ in range(m)]
    got_x = batch.x.read_many(positions)
    return [y.read_many(positions) == got_x for y in batch.ys]


def equality_test(xv: View, yv: View, alpha: int, delta: float, rs: RandomStream) -> bool:
    """Gap tester for thresholds (alpha, 0): the q = 1 case of batched_equality."""
    if len(yv) != len(xv):
        raise ParameterError("equality test needs equal lengths")
    if alpha < 0:
        raise ParameterError("alpha must be >= 0")
    return batched_equality(single(xv, yv), alpha, delta, rs)[0]


# ---------------------------------------------------------------------------
# h = 0: batched shifted tester via sampled fingerprints
# ---------------------------------------------------------------------------


def h0_spread(q: int, beta: int) -> int:
    """Offset spread 1+xi = ceil(sqrt(q+beta)/sqrt(q)), clamped to [1, 1+beta]."""
    t = 1
    while t * t * q < q + beta:
        t += 1
    return min(t, 1 + beta)


def batched_shifted_h0(
    batch: Batch, alpha: int, beta: int, delta: float, rs: RandomStream
) -> list[bool]:
    """Shifted gap tester with gamma = 0 for a batch sharing the first string.

    Builds the offset grid, draws one shared position sample, collects the
    common string's window fingerprints in a set, and answers each instance
    YES iff one of its window fingerprints is a member. Each answer errs with
    probability at most delta; exact window equality always YES.
    """
    n = len(batch.x)
    q = batch.q
    if beta < 0 or alpha < beta:
        raise ParameterError("need alpha >= beta >= 0")
    if n <= beta:
        return [exact_shifted_oracle(batch.x, y, alpha, beta, 0, rs) for y in batch.ys]
    spread = h0_spread(q, beta)
    xs, ys_off = shift_grid(beta, 0, spread)
    _tally(len(xs) * len(ys_off) * q)
    n_prime = n - beta
    count = len(xs) * len(ys_off) * q + 1
    m = min(n_prime, int(-(-(n_prime / (1 + alpha)) * log(count / delta) // 1)))
    m = max(m, 1)
    sample = [rs.uniform_index(n_prime) for _ in range(m)]

    common = {tuple(batch.x.sub(x_off, n_prime).read_many(sample)) for x_off in xs}
    verdicts = []
    for y in batch.ys:
        # every fingerprint is read before any membership test: reads stay non-adaptive
        fps = [tuple(y.sub(y_off, n_prime).read_many(sample)) for y_off in ys_off]
        verdicts.append(any(fp in common for fp in fps))
    return verdicts


# ---------------------------------------------------------------------------
# h = 1 gap, h = 1 shifted, h = 2 gap
# ---------------------------------------------------------------------------


def h1_gate(n: int, alpha: int, beta: int) -> bool:
    return beta * beta * 336 * ceil_log2(n) <= alpha


ShiftedBatchFn = Callable[[Batch, int, int, int, float, RandomStream], list[bool]]


def _batched_gap_via_shifted(
    batch: Batch,
    alpha: int,
    beta: int,
    phi: int,
    shifted_fn: ShiftedBatchFn,
    rs: RandomStream,
) -> list[bool]:
    """One unamplified pass of the gap->shifted reduction over a whole batch.

    The random block choices are shared across the batch, so sub-calls stay
    batched; per-instance NO counts decide each verdict.
    """
    n = len(batch.x)
    psi = shifted_threshold(n, alpha, beta, phi)
    if psi > beta:
        raise ParameterError(f"shift threshold psi={psi} exceeds beta={beta}")
    levels = level_plan(n, 84 * phi, alpha, ceil_log2(3 * phi))
    total = sum(iters for _, iters in levels)
    if total == 0:
        return [True] * batch.q
    delta_leaf = 1.0 / (2 * total)
    no_counts = [0] * batch.q
    for p, iters in levels:
        m_p = ceil_div(n, 1 << p)
        blen = 1 << p
        for _ in range(iters):
            i = rs.uniform_index(m_p)
            start = i * blen
            length = min(blen, n - start)
            sub = Batch(
                batch.x.sub(start, length),
                tuple(y.sub(start, length) for y in batch.ys),
            )
            answers = shifted_fn(sub, phi, beta, psi, delta_leaf, rs)
            for j, ans in enumerate(answers):
                if not ans:
                    no_counts[j] += 1
    return [c <= 5 for c in no_counts]


def _majority_votes(rep_fn, reps: int, q: int) -> list[bool]:
    yes_votes = [0] * q
    for _ in range(reps):
        for j, ans in enumerate(rep_fn()):
            if ans:
                yes_votes[j] += 1
    return [2 * v > reps for v in yes_votes]


def batched_gap_h1(
    batch: Batch, alpha: int, beta: int, delta: float, rs: RandomStream
) -> list[bool]:
    """Gap tester for beta^2 <= alpha/(336*ceil(log2 n)), batched.

    beta = 0 degenerates to shared equality tests; otherwise the gap->shifted
    reduction runs with phi = beta (the derived shift threshold is then 0)
    and the h=0 fingerprint tester serves the leaves.
    """
    n = len(batch.x)
    if beta == 0:
        return batched_equality(batch, alpha, delta, rs)
    if not h1_gate(n, alpha, beta):
        raise ParameterError(
            f"h=1 gate beta^2 <= alpha/(336 ceil(log2 n)) fails: "
            f"n={n} alpha={alpha} beta={beta}"
        )
    psi = shifted_threshold(n, alpha, beta, beta)
    assert psi == 0, "gate guarantees a zero shift threshold"

    def shifted_fn(sub, a, b, g, d, stream):
        assert g == 0
        return batched_shifted_h0(sub, a, b, d, stream)

    reps = reps_majority(delta)
    return _majority_votes(
        lambda: _batched_gap_via_shifted(batch, alpha, beta, beta, shifted_fn, rs),
        reps,
        batch.q,
    )


def h1_shifted_gate(n: int, alpha: int, gamma: int) -> bool:
    return gamma * gamma * 3024 * ceil_log2(n) <= alpha


def h1_shifted_params(n: int, alpha: int, beta: int, gamma: int, q: int) -> tuple[int, int]:
    """(gamma_bar, xi) for the h=1 shifted tester.

    gamma is artificially raised to gamma_bar = min(beta, floor(sqrt(alpha /
    (3024 ceil(log2 n))))) and the grid spread balances batch count against
    batch size: xi = max(gamma_bar, min(beta, floor(gamma_bar*sqrt(beta/q)))).
    """
    gbar = min(beta, isqrt(alpha // (3024 * ceil_log2(n))))
    xi = max(gbar, min(beta, isqrt(gbar * gbar * beta // q)))
    return gbar, xi


def batched_shifted_h1(
    batch: Batch, alpha: int, beta: int, gamma: int, delta: float, rs: RandomStream
) -> list[bool]:
    """Shifted tester for gamma^2 <= alpha/(3024*ceil(log2 n)), batched."""
    n = len(batch.x)
    if not (alpha >= beta >= gamma >= 0):
        raise ParameterError("need alpha >= beta >= gamma >= 0")
    if gamma == 0:
        return batched_shifted_h0(batch, alpha, beta, delta, rs)
    if not h1_shifted_gate(n, alpha, gamma):
        raise ParameterError(
            f"h=1 shifted gate gamma^2 <= alpha/(3024 ceil(log2 n)) fails: "
            f"n={n} alpha={alpha} gamma={gamma}"
        )
    if n <= beta:
        return [exact_shifted_oracle(batch.x, y, alpha, beta, gamma, rs) for y in batch.ys]
    gbar, xi = h1_shifted_params(n, alpha, beta, gamma, batch.q)
    assert h1_gate(n, alpha, 3 * gbar), "raised gamma keeps the h=1 gap gate valid"
    xs, ys_off = shift_grid(beta, gbar, 1 + xi)
    n_prime = n - beta
    delta_call = delta / (2 * len(xs) * len(ys_off))
    verdicts = [False] * batch.q
    for x_off in xs:
        sub_ys = tuple(
            y.sub(y_off, n_prime) for y in batch.ys for y_off in ys_off
        )
        answers = batched_gap_h1(
            Batch(batch.x.sub(x_off, n_prime), sub_ys), alpha, 3 * gbar, delta_call, rs
        )
        k = 0
        for j in range(batch.q):
            for _ in ys_off:
                if answers[k]:
                    verdicts[j] = True
                k += 1
    return verdicts


def h2_gate(n: int, alpha: int, beta: int) -> bool:
    c = 336 * ceil_log2(n)
    return beta**3 * c**3 <= alpha * alpha


def h2_phi(n: int, alpha: int, beta: int) -> int:
    """Oracle threshold floor(alpha^2 / (beta^2 (336 ceil(log2 n))^3)) for the h=2 path."""
    return alpha * alpha // (beta * beta * (336 * ceil_log2(n)) ** 3)


def batched_gap_h2(
    batch: Batch, alpha: int, beta: int, delta: float, rs: RandomStream
) -> list[bool]:
    """Gap tester for beta <= alpha^(2/3)/(336*ceil(log2 n)), batched.

    Delegates to the h=1 tester whenever its gate already holds (the gate is
    inclusive); otherwise runs the gap->shifted reduction with an enlarged
    phi and the h=1 shifted tester at the leaves.
    """
    n = len(batch.x)
    if beta == 0:
        return batched_equality(batch, alpha, delta, rs)
    if not h2_gate(n, alpha, beta):
        raise ParameterError(
            f"h=2 gate beta <= alpha^(2/3)/(336 ceil(log2 n)) fails: "
            f"n={n} alpha={alpha} beta={beta}"
        )
    if h1_gate(n, alpha, beta):
        return batched_gap_h1(batch, alpha, beta, delta, rs)
    phi = h2_phi(n, alpha, beta)
    assert phi >= beta, "the gate forces phi >= beta"
    psi = shifted_threshold(n, alpha, beta, phi)
    assert psi < beta and h1_shifted_gate(n, phi, psi), "derived thresholds stay in regime"

    def shifted_fn(sub, a, b, g, d, stream):
        return batched_shifted_h1(sub, a, b, g, d, stream)

    reps = reps_majority(delta)
    return _majority_votes(
        lambda: _batched_gap_via_shifted(batch, alpha, beta, phi, shifted_fn, rs),
        reps,
        batch.q,
    )


# ---------------------------------------------------------------------------
# Baseline recursion (explicit depth h)
# ---------------------------------------------------------------------------


def baseline_gap_gate(n: int, alpha: int, beta: int, h: int) -> bool:
    """beta <= (336 ceil(log2 n))^(-h/2) * alpha^(h/(h+1)), in exact integers.

    Inclusive like h1_gate and h2_gate, which it equals at h = 1 and h = 2.
    """
    if h == 0:
        return beta < 1
    lhs = beta ** (2 * (h + 1)) * (336 * ceil_log2(n)) ** (h * (h + 1))
    return lhs <= alpha ** (2 * h)


def baseline_shifted_gate(n: int, alpha: int, gamma: int, h: int) -> bool:
    """gamma <= (1/3) (336 ceil(log2 n))^(-h/2) * alpha^(h/(h+1)).

    Inclusive like h1_shifted_gate, which it equals at h = 1.
    """
    if h == 0:
        return gamma == 0
    lhs = (3 * gamma) ** (2 * (h + 1)) * (336 * ceil_log2(n)) ** (h * (h + 1))
    return lhs <= alpha ** (2 * h)


def baseline_max_beta(n: int, alpha: int, h: int) -> int:
    """Largest beta admitted by the depth-h gap gate at (n, alpha)."""
    if h == 0:
        return 0
    # the gate is b^(2(h+1)) * denom <= alpha^(2h), i.e. b^(2(h+1)) <= alpha^(2h) // denom
    denom = (336 * ceil_log2(n)) ** (h * (h + 1))
    return iroot(2 * (h + 1), alpha ** (2 * h) // denom)


def baseline_gap(inst: GapInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Depth-h mutual recursion for the gap problem, majority-amplified to cfg.delta."""
    if cfg.h is None:
        raise ParameterError("baseline_gap needs an explicit recursion depth cfg.h")
    n, alpha, beta, h = inst.n, inst.alpha, inst.beta, cfg.h
    if not baseline_gap_gate(n, alpha, beta, h):
        raise ParameterError(
            f"depth-{h} gate rejects beta={beta} at n={n}, alpha={alpha}; "
            f"largest admissible beta is {baseline_max_beta(n, alpha, h)}"
        )
    if beta == 0:
        return equality_test(inst.x, inst.y, alpha, cfg.delta, rs)
    sub_cfg = replace(cfg, h=h - 1)
    reps = reps_majority(cfg.delta)
    votes = [_gap_to_shifted_rep(inst, baseline_shifted, sub_cfg, rs) for _ in range(reps)]
    return 2 * sum(votes) > reps


def baseline_shifted(inst: ShiftedInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Depth-h shifted tester: offset grid plus depth-h gap calls."""
    if cfg.h is None:
        raise ParameterError("baseline_shifted needs an explicit recursion depth cfg.h")
    n, alpha, gamma, h = inst.n, inst.alpha, inst.gamma, cfg.h
    if not baseline_shifted_gate(n, alpha, gamma, h):
        raise ParameterError(
            f"depth-{h} shifted gate rejects gamma={gamma} at n={n}, alpha={alpha}"
        )
    return _shifted_to_gap_reduce(inst, baseline_gap, cfg, rs)


def _gap_to_shifted_rep(
    inst: GapInstance, shifted_tester, sub_cfg: TesterConfig, rs: RandomStream
) -> bool:
    """One unamplified gap->shifted pass with phi = beta.

    Every block pair goes to shifted_tester under sub_cfg, at error
    1/(2 * planned calls).
    """
    n, alpha, beta = inst.n, inst.alpha, inst.beta
    total = gap_to_shifted_call_count(n, alpha, beta)
    if total == 0:
        return True
    leaf_cfg = replace(sub_cfg, delta=1.0 / (2 * total))

    def oracle(xv, yv, a, b, g, stream):
        return shifted_tester(ShiftedInstance(xv, yv, a, b, g), leaf_cfg, stream)

    return gap_to_shifted(inst.x, inst.y, alpha, beta, beta, oracle, rs).yes


def _shifted_to_gap_reduce(
    inst: ShiftedInstance, gap_tester, cfg: TesterConfig, rs: RandomStream
) -> bool:
    """The offset-grid reduction; every window pair goes to gap_tester at error
    cfg.delta/(2 * grid calls)."""
    total = shifted_to_gap_call_count(inst.n, inst.beta, inst.gamma)
    call_cfg = replace(cfg, delta=cfg.delta / (2 * total))

    def oracle(xv, yv, a, b, stream):
        return gap_tester(GapInstance(xv, yv, a, b), call_cfg, stream)

    return shifted_to_gap(inst.x, inst.y, inst.alpha, inst.beta, inst.gamma, oracle, rs).yes


def shifted_to_gap_call_count(n: int, beta: int, gamma: int) -> int:
    if n <= beta:
        return 1
    xs, ys = shift_grid(beta, gamma, shift_grid_spread(beta, gamma))
    return len(xs) * len(ys)


# ---------------------------------------------------------------------------
# Gap tier table and main dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapTier:
    """One depth row of the gap dispatch table."""

    tier: tuple
    gate: Callable[[int, int, int], bool]  # (n, alpha, beta) -> admitted
    max_beta: Callable[[int, int], int]  # (n, alpha) -> largest admitted beta


_SHALLOW_TIERS = (
    GapTier(("equality",), lambda n, alpha, beta: beta == 0 or alpha >= n, lambda n, alpha: 0),
    GapTier(("h1",), h1_gate, lambda n, alpha: isqrt(alpha // (336 * ceil_log2(n)))),
    GapTier(
        ("h2",), h2_gate, lambda n, alpha: iroot(3, alpha * alpha // (336 * ceil_log2(n)) ** 3)
    ),
)


def gap_tier(h: int) -> GapTier:
    """Row h of the gap tier table: equality, h1, h2, then the depth-h recursion."""
    if h < len(_SHALLOW_TIERS):
        return _SHALLOW_TIERS[h]
    return GapTier(
        ("recursion", h),
        lambda n, alpha, beta: baseline_gap_gate(n, alpha, beta, h)
        and shifted_threshold(n, alpha, beta, beta) <= beta,
        lambda n, alpha: baseline_max_beta(n, alpha, h),
    )


def plan_gap_dispatch(n: int, alpha: int, beta: int, cfg: TesterConfig):
    """Pick the cheapest applicable gap tier: a pure function of the parameters.

    An explicit cfg.h looks up that one row of the tier table. Otherwise the
    rows are walked by depth (the three shallow rows always, recursion rows
    up to cfg.h_max), falling through to ("multilevel",). Returns the row's
    tier tuple; raises UnsupportedRegimeError when nothing applies.
    """
    if not alpha >= beta >= 0:
        raise ParameterError("need alpha >= beta >= 0")
    if cfg.h is not None:
        row = gap_tier(cfg.h)
        if row.gate(n, alpha, beta):
            return row.tier
        raise UnsupportedRegimeError(
            f"depth-{cfg.h} gate rejects beta={beta} at n={n}, alpha={alpha}",
            max_beta=row.max_beta(n, alpha),
        )
    for h in range(max(cfg.h_max, 2) + 1):
        row = gap_tier(h)
        if row.gate(n, alpha, beta):
            return row.tier
    if alpha >= 10 * beta and level_plan(n, 10 * beta, alpha, ceil_log2(beta)):
        return ("multilevel",)
    best = max(alpha // 10, *(gap_tier(h).max_beta(n, alpha) for h in (1, 2)))
    raise UnsupportedRegimeError(
        f"no tier admits beta={beta} at n={n}, alpha={alpha}; "
        f"largest admissible beta is {best}",
        max_beta=best,
    )


def main_gap(inst: GapInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Top-level gap tester: dispatch, then amplify to cfg.delta."""
    n, alpha, beta = inst.n, inst.alpha, inst.beta
    tier = plan_gap_dispatch(n, alpha, beta, cfg)
    if tier[0] == "equality":
        return equality_test(inst.x, inst.y, alpha, cfg.delta, rs)
    if tier[0] == "h1":
        return batched_gap_h1(single(inst.x, inst.y), alpha, beta, cfg.delta, rs)[0]
    if tier[0] == "h2":
        return batched_gap_h2(single(inst.x, inst.y), alpha, beta, cfg.delta, rs)[0]
    if tier[0] == "recursion":
        sub_cfg = replace(cfg, h=None, h_max=tier[1] - 1)
        reps = reps_majority(cfg.delta)
        votes = [_gap_to_shifted_rep(inst, main_shifted, sub_cfg, rs) for _ in range(reps)]
        return 2 * sum(votes) > reps
    assert tier[0] == "multilevel"
    reps = reps_any(cfg.delta)
    results = [
        multilevel_reduce(
            inst.x, inst.y, alpha, beta, beta, exact_gap_oracle, rs
        ).yes
        for _ in range(reps)
    ]
    return all(results)


def plan_shifted_dispatch(n: int, alpha: int, beta: int, gamma: int, cfg: TesterConfig):
    if not alpha >= beta >= gamma >= 0:
        raise ParameterError("need alpha >= beta >= gamma >= 0")
    if gamma == 0:
        return ("h0",)
    if h1_shifted_gate(n, alpha, gamma):
        return ("h1s",)
    c = 1008 * ceil_log2(n)
    if (gamma * c) ** 3 <= alpha * alpha:
        return ("s3",)
    if alpha >= 3 * gamma:
        return ("reduce",)
    raise UnsupportedRegimeError(
        f"no shifted tier admits gamma={gamma} at n={n}, alpha={alpha}",
        max_gamma=alpha // 3,
    )


def main_shifted(inst: ShiftedInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Top-level shifted-gap tester."""
    n, alpha, beta, gamma = inst.n, inst.alpha, inst.beta, inst.gamma
    tier = plan_shifted_dispatch(n, alpha, beta, gamma, cfg)
    if tier[0] == "h0":
        return batched_shifted_h0(single(inst.x, inst.y), alpha, beta, cfg.delta, rs)[0]
    if tier[0] == "h1s":
        return batched_shifted_h1(
            single(inst.x, inst.y), alpha, beta, gamma, cfg.delta, rs
        )[0]
    if tier[0] == "s3":
        return _shifted_s3(inst, cfg, rs)
    assert tier[0] == "reduce"
    return _shifted_to_gap_reduce(inst, main_gap, replace(cfg, h=None), rs)


def _shifted_s3(inst: ShiftedInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """h=2 shifted path: offset grid with spread min(beta, gamma*sqrt(beta)),
    leaves served by the h=2 gap tester on per-offset batches."""
    n, alpha, beta, gamma = inst.n, inst.alpha, inst.beta, inst.gamma
    if n <= beta:
        return exact_shifted_oracle(inst.x, inst.y, alpha, beta, gamma, rs)
    assert h2_gate(n, alpha, 3 * gamma), "s3 gate implies the h=2 gap gate for 3*gamma"
    xi = max(gamma, min(beta, isqrt(gamma * gamma * beta)))
    xs, ys_off = shift_grid(beta, gamma, 1 + xi)
    n_prime = n - beta
    delta_call = cfg.delta / (2 * len(xs) * len(ys_off))
    answers_any = []
    for x_off in xs:
        sub = Batch(
            inst.x.sub(x_off, n_prime),
            tuple(inst.y.sub(y_off, n_prime) for y_off in ys_off),
        )
        answers = batched_gap_h2(sub, alpha, 3 * gamma, delta_call, rs)
        answers_any.extend(answers)
    return any(answers_any)
