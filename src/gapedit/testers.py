"""End-to-end gap and shifted-gap testers.

The stack, bottom to top:

- ``equality_test``: the zero-gap sampler.
- ``batched_shifted_h0``: shifted tester with gamma=0 on every block of a
  plan's runs over a batch, backed by a shared fingerprint sample per window,
  read as array gathers and matched against the common string's window
  fingerprints by exact broadcast equality.
- ``batched_gap_h1`` / ``batched_shifted_h1`` / ``batched_gap_h2``: the
  specialized shallow recursions; batches share one sample plan.
- ``baseline_gap`` / ``baseline_shifted``: the plain mutual recursion.
- ``main_gap`` / ``main_shifted``: dispatch that picks the cheapest
  applicable tier, with a wide-range multilevel tier for moderate gaps and
  an UNSUPPORTED-REGIME error (never a crash) when nothing applies.

One admission rule serves every tier: the depth-h gap gate
``baseline_gap_gate`` and its shifted form ``baseline_shifted_gate`` (the
gap gate at beta = 3*gamma). The h1 and h2 tiers are the gap gate's depths
1 and 2, the h1s and s3 tiers the shifted gate's. Every tier's guard, the
baseline and both dispatchers call it at their depth: the gap dispatch
walks h = 0, 1, 2, ... and the shifted dispatch h = 0, 1, 2. Every gated
tier and the dispatch at an explicit depth refuse through ``admit``.

Every tier of the mutual recursion runs the two batch reductions of
``reductions``, which hand each oracle call its share of the error budget
as ``delta`` and answer one verdict per batch member. A batch gap tester
``(batch, alpha, beta, delta, rs)`` is ``shifted_to_gap``'s oracle as
written, so the h=1 and h=2 shifted paths, the baseline and main's reduce
tier call ``shifted_to_gap`` directly with their own grid spread.
``_batched_gap_via_shifted`` is the one gap->shifted pass, which h1, h2,
the baseline and main's recursion tier amplify with ``_majority_votes``.
A pass's plan is a list of (length, starts) runs, each run's starts an
int64 array: h1 hands it to ``batched_shifted_h0`` whole; the others decide
block by block through ``per_block``. A whole string is the one-block plan
``_whole(n)``. The one-instance testers join a batch through ``_each``,
member by member.

Every tester reads all the positions it plans, in every repetition,
whatever the symbols read, so its read sequence depends only on
(n, parameters, seed). Deciding may stop once the verdict is fixed: the
one-sided block tiers read every pass's blocks, then decide them and stop
at the first NO block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, isqrt, log
from typing import Optional, Sequence

import numpy as np

from .intmath import ceil_div, ceil_log2, iroot, isqrt_ceil
from .metering import RandomStream
from .reductions import (
    Batch,
    ParameterError,
    PlanOracle,
    Run,
    _tally,
    exact_gap_oracle,
    exact_shifted_oracle,
    gap_to_shifted,
    multilevel_levels,
    multilevel_reduce,
    per_block,
    per_member,
    shift_grid,
    shift_grid_spread,
    shifted_threshold,
    shifted_to_gap,
    single,
)
from .strings import GapInstance, ShiftedInstance, View


class UnsupportedRegimeError(ParameterError):
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
    positions = np.array([rs.uniform_index(n) for _ in range(m)], dtype=np.int64)
    got_x = batch.x.read_many(positions)
    return [not np.count_nonzero(y.read_many(positions) != got_x) for y in batch.ys]


def equality_test(xv: View, yv: View, alpha: int, delta: float, rs: RandomStream) -> bool:
    """Gap tester for thresholds (alpha, 0): the q = 1 case of batched_equality."""
    if alpha < 0:
        raise ParameterError("alpha must be >= 0")
    return batched_equality(single(xv, yv), alpha, delta, rs)[0]


# ---------------------------------------------------------------------------
# h = 0: batched shifted tester via sampled fingerprints
# ---------------------------------------------------------------------------


def h0_spread(q: int, beta: int) -> int:
    """Offset spread 1+xi = ceil(sqrt(q+beta)/sqrt(q)), clamped to [1, 1+beta]."""
    return min(isqrt_ceil(ceil_div(q + beta, q)), 1 + beta)


def _h0_rows(
    batch: Batch, runs: list[tuple[np.ndarray, np.ndarray]], xs: list[int], ys_off: list[int]
) -> list[list[bool]]:
    """Verdict rows of sampled windows, given as runs of (starts, samples):
    a run's windows start at `starts` and share one sample size, and row w of
    its 2-D `samples` is window w's sample.

    Each string is read with one read_many over every window, window-major,
    then offset, then sample; every read comes before any membership test,
    so the reads stay non-adaptive. A window's fingerprints are its
    (offsets, sample) block of symbols, and a member's window is YES iff one
    of its fingerprints equals one of the common string's, by exact
    elementwise equality.
    """

    def fingerprints(view: View, offsets: list[int]) -> list[np.ndarray]:
        offs = np.array(offsets, dtype=np.int64)[:, None]
        blocks = [starts[:, None, None] + offs + samples[:, None, :] for starts, samples in runs]
        got = view.read_many(np.concatenate([b.ravel() for b in blocks]))
        out, i = [], 0
        for b in blocks:
            out.append(got[i : i + b.size].reshape(b.shape))
            i += b.size
        return out

    fx = fingerprints(batch.x, xs)
    member_fps = [fingerprints(y, ys_off) for y in batch.ys]
    rows: list[list[bool]] = []
    for r, common in enumerate(fx):
        hits = [
            (common[:, :, None, :] == fps[r][:, None, :, :]).all(-1).any((1, 2))
            for fps in member_fps
        ]
        rows += np.array(hits).T.tolist()
    return rows


def _whole(n: int) -> list[Run]:
    """The one-block plan of a whole string of length n."""
    return [(n, np.zeros(1, np.int64))]


def batched_shifted_h0(
    batch: Batch,
    runs: Sequence[Run],
    alpha: int,
    beta: int,
    delta: float,
    rs: RandomStream,
) -> list[list[bool]]:
    """Shifted gap tester with gamma = 0 on every window of a batch sharing the first string.

    The plan is a list of (length, starts) runs, as gap_to_shifted draws it.
    Each window [start, start + length) of the common string and of every
    member is one instance; the answer holds one row per window, in run
    order, with one bool per member. A window builds the offset grid, shares
    one position sample among its members, and answers a member YES iff one
    of its window fingerprints equals one of the common string's. Each
    answer errs with probability at most delta; exact window equality always
    answers YES. A window no longer than beta is decided exactly by
    exact_shifted_oracle.

    One draw per plan: every sampled window's sample comes from one
    `uniform_parts` call, made before the first read, with one part per run
    of sampled windows, cut into one chunk per window. The sampled windows
    between two exact ones are read with one read_many per string. The
    draws, the tally and, when the common string and the member read
    different sources (q = 1), each source's read sequence equal those of
    deciding the windows one at a time, in order.
    """
    q = batch.q
    if beta < 0 or alpha < beta:
        raise ParameterError("need alpha >= beta >= 0")
    xs, ys_off = shift_grid(beta, 0, h0_spread(q, beta))
    calls = len(xs) * len(ys_off) * q
    sizes = []  # each run's sample size per window; 0 for a run decided exactly
    for length, _ in runs:
        n_prime, m = length - beta, 0
        if n_prime > 0:
            m = min(n_prime, int(-(-(n_prime / (1 + alpha)) * log((calls + 1) / delta) // 1)))
            m = max(m, 1)
        sizes.append(m)
    drawn = iter(
        rs.uniform_parts(
            [(length - beta, m * len(starts), 1) for (length, starts), m in zip(runs, sizes) if m]
        )
    )
    rows: list[list[bool]] = []
    sampled: list[tuple[np.ndarray, np.ndarray]] = []  # runs drawn, not yet read
    for (length, starts), m in zip(runs, sizes):
        if not m:
            if sampled:
                rows += _h0_rows(batch, sampled, xs, ys_off)
                sampled = []
            for s in starts.tolist():
                sub = batch.sub(s, length)
                rows.append(
                    [exact_shifted_oracle(sub.x, y, alpha, beta, 0, delta, rs) for y in sub.ys]
                )
            continue
        _tally(calls * len(starts))
        # the draws lie below length - beta, so their int64 view reads the same values
        samples = next(drawn).view(np.int64).reshape(-1, m)
        sampled.append((starts, samples))
    if sampled:
        rows += _h0_rows(batch, sampled, xs, ys_off)
    return rows


# ---------------------------------------------------------------------------
# Depth-h gates: the one admission rule of every tier
# ---------------------------------------------------------------------------


def gate_factor(n: int) -> int:
    """336 * ceil(log2 n), the per-level factor of the depth-h gates."""
    return 336 * ceil_log2(n)


def baseline_gap_gate(n: int, alpha: int, beta: int, h: int) -> bool:
    """beta <= (336 ceil(log2 n))^(-h/2) * alpha^(h/(h+1)), in exact integers.

    Inclusive. At h = 1 it reads beta^2 * 336 ceil(log2 n) <= alpha, at h = 2
    (beta * 336 ceil(log2 n))^3 <= alpha^2; h = 0 admits beta = 0 only.
    """
    if h == 0:
        return beta < 1
    lhs = beta ** (2 * (h + 1)) * gate_factor(n) ** (h * (h + 1))
    return lhs <= alpha ** (2 * h)


def baseline_shifted_gate(n: int, alpha: int, gamma: int, h: int) -> bool:
    """gamma <= (1/3) (336 ceil(log2 n))^(-h/2) * alpha^(h/(h+1)), for gamma >= 0.

    The depth-h gap gate at beta = 3*gamma, the threshold of the shifted
    tester's gap calls; h = 0 admits gamma = 0 only.
    """
    return baseline_gap_gate(n, alpha, 3 * gamma, h)


def baseline_max_beta(n: int, alpha: int, h: int) -> int:
    """Largest beta admitted by the depth-h gap gate at (n, alpha)."""
    if h == 0:
        return 0
    # the gate is b^(2(h+1)) * denom <= alpha^(2h), i.e. b^(2(h+1)) <= alpha^(2h) // denom
    denom = gate_factor(n) ** (h * (h + 1))
    return iroot(2 * (h + 1), alpha ** (2 * h) // denom)


def admit(n: int, alpha: int, beta: int, h: int) -> None:
    """Raise UnsupportedRegimeError, carrying baseline_max_beta, unless the
    depth-h gap gate admits beta at (n, alpha). The one refusal of every
    gated tier; a shifted tier asks at beta = 3*gamma."""
    if not baseline_gap_gate(n, alpha, beta, h):
        best = baseline_max_beta(n, alpha, h)
        raise UnsupportedRegimeError(
            f"depth-{h} gate rejects beta={beta} at n={n}, alpha={alpha}; "
            f"largest admissible beta is {best}",
            max_beta=best,
        )


# ---------------------------------------------------------------------------
# h = 1 gap, h = 1 shifted, h = 2 gap
# ---------------------------------------------------------------------------


def _batched_gap_via_shifted(
    batch: Batch,
    alpha: int,
    beta: int,
    phi: int,
    shifted_fn: PlanOracle,
    rs: RandomStream,
) -> list[bool]:
    """One unamplified pass of the gap->shifted reduction over a whole batch.

    The pass's runs of sampled blocks go to shifted_fn in one call; the
    block choices are shared across the batch, so sub-calls stay batched.
    """
    return gap_to_shifted(batch, alpha, beta, phi, shifted_fn, rs)


def _majority_votes(
    batch: Batch,
    alpha: int,
    beta: int,
    phi: int,
    shifted_fn: PlanOracle,
    delta: float,
    rs: RandomStream,
) -> list[bool]:
    """Per-member majority over reps_majority(delta) gap->shifted passes."""
    reps = reps_majority(delta)
    yes_votes = [0] * batch.q
    for _ in range(reps):
        for j, yes in enumerate(_batched_gap_via_shifted(batch, alpha, beta, phi, shifted_fn, rs)):
            yes_votes[j] += yes
    return [2 * v > reps for v in yes_votes]


def _each(tester, make_instance, cfg: TesterConfig):
    """Batch form of a one-instance tester under cfg, run member by member.

    The result takes (sub, thresholds..., delta, rs) like the batched tiers;
    make_instance is GapInstance or ShiftedInstance.
    """

    cfgs: dict[float, TesterConfig] = {}  # one config per delta, not one per call

    def pair(xv: View, yv: View, *args) -> bool:
        *thresholds, delta, stream = args
        sub_cfg = cfgs.get(delta)
        if sub_cfg is None:
            sub_cfg = cfgs[delta] = replace(cfg, delta=delta)
        return tester(make_instance(xv, yv, *thresholds), sub_cfg, stream)

    return per_member(pair)


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
    admit(n, alpha, beta, 1)

    def shifted_fn(sub, runs, a, b, g, d, stream):
        assert g == 0, "the gate guarantees a zero shift threshold"
        return batched_shifted_h0(sub, runs, a, b, d, stream)

    return _majority_votes(batch, alpha, beta, beta, shifted_fn, delta, rs)


def grid_xi(beta: int, gamma: int, q: int) -> int:
    """The offset-grid spread xi = max(gamma, min(beta, floor(gamma*sqrt(beta/q))))
    of the h=1 and h=2 shifted paths: it balances batch count against batch size."""
    return max(gamma, min(beta, isqrt(gamma * gamma * beta // q)))


def h1_shifted_params(n: int, alpha: int, beta: int, q: int) -> tuple[int, int]:
    """(gamma_bar, xi) for the h=1 shifted tester.

    gamma is artificially raised to gamma_bar = min(beta, floor(sqrt(alpha /
    (9 * 336 ceil(log2 n))))), and xi is grid_xi at gamma_bar.
    """
    # max(n, 2) counts at least one level, so n = 1 does not divide by zero
    gbar = min(beta, isqrt(alpha // (9 * gate_factor(max(n, 2)))))
    return gbar, grid_xi(beta, gbar, q)


def batched_shifted_h1(
    batch: Batch, alpha: int, beta: int, gamma: int, delta: float, rs: RandomStream
) -> list[bool]:
    """Shifted tester for gamma^2 <= alpha/(9*336*ceil(log2 n)), batched."""
    n = len(batch.x)
    if not (alpha >= beta >= gamma >= 0):
        raise ParameterError("need alpha >= beta >= gamma >= 0")
    if gamma == 0:
        return batched_shifted_h0(batch, _whole(n), alpha, beta, delta, rs)[0]
    admit(n, alpha, 3 * gamma, 1)
    gbar, xi = h1_shifted_params(n, alpha, beta, batch.q)
    assert baseline_gap_gate(n, alpha, 3 * gbar, 1), "raised gamma keeps the h=1 gap gate valid"
    return shifted_to_gap(batch, alpha, beta, gbar, 1 + xi, batched_gap_h1, delta, rs)


def h2_phi(n: int, alpha: int, beta: int) -> int:
    """Oracle threshold floor(alpha^2 / (beta^2 (336 ceil(log2 n))^3)) for the h=2 path."""
    return alpha * alpha // (beta * beta * gate_factor(n) ** 3)


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
    admit(n, alpha, beta, 2)
    if baseline_gap_gate(n, alpha, beta, 1):
        return batched_gap_h1(batch, alpha, beta, delta, rs)
    phi = h2_phi(n, alpha, beta)
    assert phi >= beta, "the gate forces phi >= beta"
    psi = shifted_threshold(n, alpha, beta, phi)
    assert psi < beta and baseline_shifted_gate(n, phi, psi, 1), "derived thresholds stay in regime"
    return _majority_votes(batch, alpha, beta, phi, per_block(batched_shifted_h1), delta, rs)


# ---------------------------------------------------------------------------
# Baseline recursion (explicit depth h)
# ---------------------------------------------------------------------------


def baseline_gap(inst: GapInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Depth-h mutual recursion for the gap problem, majority-amplified to cfg.delta."""
    if cfg.h is None:
        raise ParameterError("baseline_gap needs an explicit recursion depth cfg.h")
    alpha, beta, h = inst.alpha, inst.beta, cfg.h
    admit(inst.n, alpha, beta, h)
    if beta == 0:
        return equality_test(inst.x, inst.y, alpha, cfg.delta, rs)
    shifted_fn = per_block(_each(baseline_shifted, ShiftedInstance, replace(cfg, h=h - 1)))
    batch = single(inst.x, inst.y)
    return _majority_votes(batch, alpha, beta, beta, shifted_fn, cfg.delta, rs)[0]


def baseline_shifted(inst: ShiftedInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Depth-h shifted tester: offset grid plus depth-h gap calls."""
    if cfg.h is None:
        raise ParameterError("baseline_shifted needs an explicit recursion depth cfg.h")
    alpha, gamma = inst.alpha, inst.gamma
    admit(inst.n, alpha, 3 * gamma, cfg.h)
    spread = shift_grid_spread(inst.beta, gamma)
    gap_fn = _each(baseline_gap, GapInstance, cfg)
    return shifted_to_gap(
        single(inst.x, inst.y), alpha, inst.beta, gamma, spread, gap_fn, cfg.delta, rs
    )[0]


# ---------------------------------------------------------------------------
# Main dispatch
# ---------------------------------------------------------------------------


def plan_gap_dispatch(n: int, alpha: int, beta: int, cfg: TesterConfig):
    """Pick the cheapest applicable gap tier: a pure function of the parameters.

    Depth h is admitted by the depth-h gate; depth 0 (equality) also takes a
    vacuous NO promise, alpha >= n. An explicit cfg.h tries that one depth.
    Otherwise the depths are walked in order (0, 1, 2 always, recursion
    depths up to cfg.h_max), falling through to ("multilevel",). Returns the
    tier tuple ("equality",), ("h1",), ("h2",) or ("recursion", h); raises
    UnsupportedRegimeError when nothing applies.
    """
    if not alpha >= beta >= 0:
        raise ParameterError("need alpha >= beta >= 0")
    depths = range(max(cfg.h_max, 2) + 1) if cfg.h is None else (cfg.h,)
    for h in depths:
        if baseline_gap_gate(n, alpha, beta, h) or (h == 0 and alpha >= n):
            return (("equality",), ("h1",), ("h2",))[h] if h < 3 else ("recursion", h)
    if cfg.h is not None:
        admit(n, alpha, beta, cfg.h)  # the gate refused cfg.h above, so this raises
    if alpha >= 10 * beta and multilevel_levels(n, alpha, beta):
        return ("multilevel",)
    best = max(alpha // 10, baseline_max_beta(n, alpha, 1), baseline_max_beta(n, alpha, 2))
    raise UnsupportedRegimeError(
        f"no tier admits beta={beta} at n={n}, alpha={alpha}; "
        f"largest admissible beta is {best}",
        max_beta=best,
    )


def one_sided_passes(
    reduce, xv: View, yv: View, alpha: int, beta: int, delta: float, rs: RandomStream
) -> bool:
    """YES iff all reps_any(delta) passes of a one-sided block reduction (at
    phi = beta, over exact_gap_oracle) answer YES. The reduction draws the
    passes' plans back to back and reads every block of every pass before it
    decides any, so the reads stay non-adaptive; it then decides the passes
    as one plan, each distinct block at most once, and stops at the first NO
    block, which no later pass could overturn."""
    return reduce(xv, yv, alpha, beta, beta, exact_gap_oracle, rs, reps_any(delta))


def main_gap(inst: GapInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Top-level gap tester: dispatch, then amplify to cfg.delta."""
    n, alpha, beta = inst.n, inst.alpha, inst.beta
    tier = plan_gap_dispatch(n, alpha, beta, cfg)
    if tier[0] == "equality" or beta == 0:  # an explicit depth h >= 1 admits beta = 0 too
        return equality_test(inst.x, inst.y, alpha, cfg.delta, rs)
    if tier[0] == "h1":
        return batched_gap_h1(single(inst.x, inst.y), alpha, beta, cfg.delta, rs)[0]
    if tier[0] == "h2":
        return batched_gap_h2(single(inst.x, inst.y), alpha, beta, cfg.delta, rs)[0]
    if tier[0] == "recursion":
        sub_cfg = replace(cfg, h=None, h_max=tier[1] - 1)
        shifted_fn = per_block(_each(main_shifted, ShiftedInstance, sub_cfg))
        batch = single(inst.x, inst.y)
        return _majority_votes(batch, alpha, beta, beta, shifted_fn, cfg.delta, rs)[0]
    assert tier[0] == "multilevel"
    return one_sided_passes(multilevel_reduce, inst.x, inst.y, alpha, beta, cfg.delta, rs)


def plan_shifted_dispatch(n: int, alpha: int, beta: int, gamma: int):
    """Pick the shifted tier: the first of ("h0",), ("h1s",), ("s3",) whose
    depth-h shifted gate (h = 0, 1, 2) admits gamma, else ("reduce",), the
    offset grid over main_gap, when alpha >= 3*gamma."""
    if not alpha >= beta >= gamma >= 0:
        raise ParameterError("need alpha >= beta >= gamma >= 0")
    for h, tier in enumerate((("h0",), ("h1s",), ("s3",))):
        if baseline_shifted_gate(n, alpha, gamma, h):
            return tier
    if alpha >= 3 * gamma:
        return ("reduce",)
    raise UnsupportedRegimeError(
        f"no shifted tier admits gamma={gamma} at n={n}, alpha={alpha}",
        max_gamma=alpha // 3,
    )


def main_shifted(inst: ShiftedInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """Top-level shifted-gap tester."""
    n, alpha, beta, gamma = inst.n, inst.alpha, inst.beta, inst.gamma
    tier = plan_shifted_dispatch(n, alpha, beta, gamma)
    if tier[0] == "h0":
        [[yes]] = batched_shifted_h0(single(inst.x, inst.y), _whole(n), alpha, beta, cfg.delta, rs)
        return yes
    if tier[0] == "h1s":
        return batched_shifted_h1(
            single(inst.x, inst.y), alpha, beta, gamma, cfg.delta, rs
        )[0]
    if tier[0] == "s3":
        return _shifted_s3(inst, cfg, rs)
    assert tier[0] == "reduce"
    gap_fn = _each(main_gap, GapInstance, replace(cfg, h=None))
    spread = shift_grid_spread(beta, gamma)
    return shifted_to_gap(
        single(inst.x, inst.y), alpha, beta, gamma, spread, gap_fn, cfg.delta, rs
    )[0]


def _shifted_s3(inst: ShiftedInstance, cfg: TesterConfig, rs: RandomStream) -> bool:
    """h=2 shifted path: offset grid with spread min(beta, gamma*sqrt(beta)),
    leaves served by the h=2 gap tester on per-offset batches."""
    n, alpha, beta, gamma = inst.n, inst.alpha, inst.beta, inst.gamma
    assert baseline_gap_gate(n, alpha, 3 * gamma, 2), "s3 gate implies the h=2 gap gate for 3*gamma"
    spread = 1 + grid_xi(beta, gamma, 1)
    return shifted_to_gap(
        single(inst.x, inst.y), alpha, beta, gamma, spread, batched_gap_h2, cfg.delta, rs
    )[0]
