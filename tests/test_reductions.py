"""Block reductions: planned arithmetic, verdict behavior, witness lemma."""

import hashlib
import random
import threading
from itertools import product
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapedit import reductions, testers
from gapedit.harness import InstanceSpec, generate
from gapedit.intmath import ceil_div, ceil_log2
from gapedit.metering import MeteredString, RandomStream, certify_non_adaptive
from gapedit.reductions import (
    Batch,
    ParameterError,
    exact_gap_oracle,
    exact_shifted_oracle,
    gap_to_shifted,
    gap_to_shifted_levels,
    key_lemma_check,
    level_plan,
    multilevel_levels,
    multilevel_reduce,
    oracle_call_tally,
    per_block,
    per_member,
    shift_grid,
    shift_grid_spread,
    shifted_threshold,
    shifted_to_gap,
    single,
    single_level_plan,
    single_level_reduce,
)
from gapedit.strings import EXCEEDS, GapInstance, as_view, ed_exact, gap_ed_banded
from gapedit.testers import TesterConfig, main_gap, one_sided_passes, reps_any


def rand_list(seed, n, alphabet):
    return RandomStream(seed).child("data").symbols(n, alphabet)


def disjoint_pair(seed, n, alphabet=1 << 20):
    x = rand_list(seed, n, alphabet)
    y = [alphabet + v for v in rand_list(seed + 1, n, alphabet)]
    return x, y


def fetched(oracle):
    """A pair oracle on two Views: fetch both, x first, as the reductions do."""
    return lambda xv, yv, *args: oracle(xv.fetch(), yv.fetch(), *args)


def fetched_at(oracle):
    """fetched(oracle) in shifted_to_gap's pair protocol, which adds an error
    budget delta before rs; the exact oracle leaves it unused."""
    return lambda xv, yv, alpha, beta, delta, rs: oracle(xv.fetch(), yv.fetch(), alpha, beta, rs)


def test_single_level_plan_arithmetic():
    # n=1024, alpha=512, phi=4: b = ceil(3*4*1024/512) = 24, m = ceil(1024/24) = 43,
    # rho = 576/4096, iterations = ceil(43 * 0.140625) = 7
    assert single_level_plan(1024, 512, 4) == (24, 43, 7)


def test_multilevel_plan_arithmetic():
    # n=4096, alpha=640, phi=8: rho = 80/640 = 0.125, levels 3..9,
    # iterations ceil(0.125 * ceil(4096/2^p))
    levels = level_plan(4096, 80, 640, ceil_log2(8))
    assert levels == [(3, 64), (4, 32), (5, 16), (6, 8), (7, 4), (8, 2), (9, 1)]


def test_level_plan_empty_when_rate_too_low():
    assert level_plan(64, 1, 65, 0) == []


def test_multilevel_plan_and_reads_match_scalar_draws():
    # n = 1000 is not a power of two, so the last block of levels p >= 4 is short
    n, alpha, phi = 1000, 80, 4
    rs = RandomStream(17)
    plan, short = [], 0
    for p, iters in level_plan(n, 10 * phi, alpha, ceil_log2(phi)):
        for _ in range(iters):
            start = rs.uniform_index(ceil_div(n, 1 << p)) << p
            plan.append((start, min(1 << p, n - start)))
            short += plan[-1][1] < 1 << p
    assert short > 0
    want = [i for start, length in plan for i in range(start, start + length)]
    x, y = disjoint_pair(8, n)
    xm, ym = MeteredString(x, log=True), MeteredString(y, log=True)
    with oracle_call_tally() as tally:
        yes = multilevel_reduce(
            xm.view(), ym.view(), alpha, phi, phi, exact_gap_oracle, RandomStream(17)
        )
    assert tally[0] == len(plan) and not yes
    assert xm.log == want and ym.log == want


def test_preconditions_rejected():
    x = as_view([0] * 64)
    with pytest.raises(ParameterError):
        single_level_reduce(x, x, 11, 4, 4, exact_gap_oracle, RandomStream(1))
    with pytest.raises(ParameterError):
        multilevel_reduce(x, x, 39, 4, 4, exact_gap_oracle, RandomStream(1))
    with pytest.raises(ParameterError):
        multilevel_reduce(x, as_view([0] * 32), 640, 4, 4, exact_gap_oracle, RandomStream(1))


def test_equal_strings_always_yes():
    x = rand_list(3, 1024, 1 << 16)
    xv, yv = as_view(x), as_view(list(x))
    for seed in range(20):
        assert single_level_reduce(xv, yv, 512, 4, 4, exact_gap_oracle, RandomStream(seed))
        assert multilevel_reduce(xv, yv, 80, 8, 8, exact_gap_oracle, RandomStream(seed))


def test_yes_soundness_with_planted_edits():
    # ED <= beta: hereditary bound means every block pair passes, always YES
    rng = random.Random(0)
    x = rand_list(5, 2048, 1 << 16)
    y = list(x)
    for _ in range(8):  # 8 substitutions = beta
        y[rng.randrange(2048)] = 1 << 20
    xv, yv = as_view(x), as_view(y)
    assert ed_exact(x, y) <= 8
    for seed in range(30):
        assert multilevel_reduce(xv, yv, 160, 8, 8, exact_gap_oracle, RandomStream(seed))


def test_single_level_no_rate():
    # planted NO: disjoint alphabets, ED = n = 1024 > alpha = 512
    x, y = disjoint_pair(7, 1024)
    xv, yv = as_view(x), as_view(y)
    false_yes = 0
    trials = 400
    for seed in range(trials):
        false_yes += single_level_reduce(xv, yv, 512, 4, 4, exact_gap_oracle, RandomStream(seed))
    assert false_yes / trials <= 0.45  # bound 1/e plus sampling slack


def test_multilevel_rotation_no_rate():
    # distinct symbols rotated by s: every coarse block pair costs 2s > phi
    n, s = 1024, 64
    x = list(range(n))
    y = x[-s:] + x[:-s]
    alpha, phi = 80, 8
    assert 2 * s > alpha >= 10 * phi
    # oracle-check the block-distance claim at the first coarse level
    size = 1 << ceil_log2(2 * s)
    for start in range(0, n, size):
        assert ed_exact(x[start : start + size], y[start : start + size]) == 2 * s
    xv, yv = as_view(x), as_view(y)
    noes = sum(
        not multilevel_reduce(xv, yv, alpha, phi, phi, exact_gap_oracle, RandomStream(s_))
        for s_ in range(400)
    )
    assert noes / 400 >= 1 - 1 / 2.718281828 - 0.08


def test_multilevel_empty_level_range_returns_yes():
    # rho * n < 1: no level qualifies, so no evidence is collected
    x, y = disjoint_pair(8, 63)
    with oracle_call_tally() as tally:
        yes = multilevel_reduce(as_view(x), as_view(y), 631, 1, 1, exact_gap_oracle, RandomStream(1))
    assert yes and tally[0] == 0


def test_oracle_call_tally():
    # a reduction tallies its planned pairs once, when the plan is read; the
    # leaf tallies nothing
    x = rand_list(3, 1024, 4)
    xv = as_view(x)
    oracle = fetched(exact_gap_oracle)
    with oracle_call_tally() as tally:
        with oracle_call_tally() as equal:
            assert single_level_reduce(xv, xv, 512, 4, 4, exact_gap_oracle, RandomStream(2))
        assert equal[0] == single_level_plan(1024, 512, 4)[2] == 7
        # equal blocks longer than beta are YES, by the DP
        assert exact_gap_oracle(x[:64], list(x[:64]), 16, 4, RandomStream(1)) is True
        # blocks no longer than beta are YES, by the DP too (ED <= max(|x|, |y|) <= beta)
        x, y = disjoint_pair(5, 80)
        for length, beta in ((64, 64), (40, 64), (1, 1)):
            xb, yb = as_view(x).sub(3, length), as_view(y).sub(7, length)
            assert ed_exact(xb.fetch(), yb.fetch()) == length
            assert oracle(xb, yb, 4 * beta, beta, RandomStream(1)) is True
        assert oracle(as_view(x), as_view(y), 252, 63, RandomStream(1)) is False
        assert tally[0] == equal[0]
        # ... and the reduction reads them in full, but sends none to the
        # leaf: b = 64 = beta at n = 80, alpha = 240
        lengths = []

        def leaf(bx, by, *args):
            lengths.append(len(bx))
            return exact_gap_oracle(bx, by, *args)

        xm, ym = MeteredString(x), MeteredString(y)
        with oracle_call_tally() as short:
            assert single_level_reduce(xm.view(), ym.view(), 240, 64, 64, leaf, RandomStream(3))
        plan = single_level_blocks(80, 240, 64, RandomStream(3))
        assert lengths == [] and short[0] == len(plan)
        assert xm.count == ym.count == sum(l for _, l in plan) > 0
    assert tally[0] == equal[0] + short[0] == 9


def tiles(n, size, indices):
    """The tiles [i * size, (i + 1) * size) of [0, n) at `indices`, as
    (start, length) blocks in order; only the last tile may be short."""
    return [(i * size, min(size, n - i * size)) for i in indices]


def multilevel_levels_blocks(n, alpha, phi, rs):
    """The (start, length) blocks multilevel_reduce plans, one list per level."""
    return [
        tiles(n, 1 << p, rs.uniform_indices(ceil_div(n, 1 << p), iters))
        for p, iters in multilevel_levels(n, alpha, phi)
    ]


def multilevel_blocks(n, alpha, phi, rs):
    """The (start, length) blocks multilevel_reduce plans, in order."""
    return [block for level in multilevel_levels_blocks(n, alpha, phi, rs) for block in level]


def single_level_blocks(n, alpha, phi, rs):
    """The (start, length) blocks single_level_reduce plans, in order."""
    b, m, iters = single_level_plan(n, alpha, phi)
    return tiles(n, b, rs.uniform_indices(m, iters))


def per_level_blocks(n, tilings, rs):
    """The (start, length) blocks of each (size, count) in `tilings` in turn,
    from one uniform_indices call each."""
    return [
        block
        for size, count in tilings
        for block in tiles(n, size, rs.uniform_indices(ceil_div(n, size), count))
    ]


@pytest.mark.parametrize("n", [1000, 4096, 6000])
def test_plans_match_one_draw_per_level_and_pass(monkeypatch, n):
    # one draw per plan gives the blocks and the final state of one
    # uniform_indices call per level and pass; at n = 1000 and 6000 the tail
    # tiles are short, so runs are split there, and most tile counts are not
    # powers of two, so their draws go through rejection
    beta, passes = 4, 3
    plans = []
    monkeypatch.setattr(reductions, "_run_gap_calls", lambda xv, yv, runs, *a: plans.append(runs))

    def blocks(runs):
        assert all(len(starts) for _, starts in runs)
        return [(s, length) for length, starts in runs for s in starts]

    x = as_view([0] * n)
    levels = [(1 << p, iters) for p, iters in multilevel_levels(n, 80, beta)]
    b, _, iters = single_level_plan(n, 90, beta)
    for reduce, alpha, tilings in [
        (multilevel_reduce, 80, levels * passes),
        (single_level_reduce, 90, [(b, iters)] * passes),
    ]:
        rs, ref = RandomStream(n), RandomStream(n)
        reduce(x, x, alpha, beta, beta, exact_gap_oracle, rs, passes)
        runs = plans.pop()
        assert blocks(runs) == per_level_blocks(n, tilings, ref)
        assert rs._state == ref._state
        assert len(runs) > len(tilings) or n == 4096  # split at the drawn tail tiles

    def plan_oracle(batch, runs, *args):
        plans.append(runs)
        return [[True]] * len(blocks(runs))

    rs, ref = RandomStream(n), RandomStream(n)
    gap_to_shifted(single(x, x), 2048, 1, 1, plan_oracle, rs)
    levels = [(1 << p, iters) for p, iters in gap_to_shifted_levels(n, 2048, 1)]
    assert blocks(plans.pop()) == per_level_blocks(n, levels, ref)
    assert rs._state == ref._state


def leaf_instance(n, cluster=True):
    """x's symbols are distinct, so a block's first symbol and length name it;
    y substitutes fresh symbols: four singles, one in the short last blocks,
    and with `cluster` a run of 10 (NO at beta = 4 in any block holding 5 of
    them). Without it ED = 4, so every block is YES at beta = 4."""
    x = list(range(n))
    y = list(x)
    for i in (*range(500, 510 if cluster else 500), 37, 260, 777, 999):
        y[i] = n + i
    return x, y


def assert_leaf_witness(calls, unequal, yes, beta):
    """`calls` are the leaf's (start, length, x block, y block, answer) in
    call order. On YES every distinct unequal planned block longer than beta
    reached the leaf, once. On NO each block reached it at most once, longest
    first, every call before the last answered YES, and the last block, the
    witness, is more than beta apart. No block of length <= beta reached it."""
    unequal = {(s, l) for s, l in unequal if l > beta}
    blocks = [(s, l) for s, l, *_ in calls]
    assert len(blocks) == len(set(blocks)) and set(blocks) <= unequal
    if yes:
        assert set(blocks) == unequal
        return
    lengths = [l for _, l in blocks]
    assert lengths == sorted(lengths, reverse=True)
    *before, (_, _, bx, by, last) = calls
    assert all(answer for *_, answer in before) and not last
    assert gap_ed_banded(bx, by, beta) is EXCEEDS


def witness_leaf(calls):
    """exact_gap_oracle, recording (start, length, x block, y block, answer)
    into `calls`; x's symbols are their positions, so bx[0] is the start."""

    def leaf(bx, by, *args):
        assert bx != by
        answer = exact_gap_oracle(bx, by, *args)
        calls.append((bx[0], len(bx), bx, by, answer))
        return answer

    return leaf


@pytest.mark.parametrize(
    "reduce, alpha, blocks",
    # single level at alpha = 45: b = 267, so the fourth block is 199 long
    [(multilevel_reduce, 80, multilevel_blocks), (single_level_reduce, 45, single_level_blocks)],
)
def test_leaf_sees_each_distinct_unequal_block_once(reduce, alpha, blocks):
    n, beta = 1000, 4
    repeated, verdicts = 0, set()
    for cluster, seed in product((False, True), range(4)):
        x, y = leaf_instance(n, cluster)
        calls = []
        xm, ym = MeteredString(x), MeteredString(y)
        with oracle_call_tally() as tally:
            yes = reduce(xm.view(), ym.view(), alpha, beta, beta, witness_leaf(calls), RandomStream(seed))

        plan = blocks(n, alpha, beta, RandomStream(seed))
        answers = [
            exact_gap_oracle(x[s : s + l], y[s : s + l], beta, beta, RandomStream(seed))
            for s, l in plan
        ]
        assert (yes, tally[0]) == (all(answers), len(plan))
        assert xm.count == ym.count == sum(l for _, l in plan)
        unequal = {(s, l) for s, l in plan if x[s : s + l] != y[s : s + l]}
        assert_leaf_witness(calls, unequal, yes, beta)
        repeated += len(plan) - len(set(plan))
        verdicts.add(yes)
    assert repeated > 0 and 0 < answers.count(False) < len(plan)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "reduce, alpha, blocks",
    [(multilevel_reduce, 80, multilevel_blocks), (single_level_reduce, 45, single_level_blocks)],
)
def test_amplification_passes_settle_each_distinct_block_once(monkeypatch, reduce, alpha, blocks):
    # one_sided_passes decides its passes as one plan: a block that another
    # pass repeats is charged again but never sliced, compared or sent to
    # the leaf again
    n, beta, delta = 1000, 4, 0.1
    reps = reps_any(delta)
    calls = []
    monkeypatch.setattr(testers, "exact_gap_oracle", witness_leaf(calls))
    across, verdicts = 0, set()
    for cluster, seed in product((False, True), range(4)):
        x, y = leaf_instance(n, cluster)
        calls.clear()
        xm, ym = MeteredString(x), MeteredString(y)
        with oracle_call_tally() as tally:
            yes = one_sided_passes(reduce, xm.view(), ym.view(), alpha, beta, delta, RandomStream(seed))

        rs = RandomStream(seed)
        plans = [blocks(n, alpha, beta, rs) for _ in range(reps)]
        planned = [block for plan in plans for block in plan]
        unequal = {(s, l) for s, l in planned if x[s : s + l] != y[s : s + l]}
        assert_leaf_witness(calls, unequal, yes, beta)
        assert tally[0] == len(planned) == reps * len(plans[0])
        assert yes == all(
            exact_gap_oracle(x[s : s + l], y[s : s + l], beta, beta, rs) for s, l in planned
        )
        assert xm.count == ym.count == sum(l for _, l in planned)
        across += sum(len(unequal.intersection(plan)) for plan in plans) - len(unequal)
        verdicts.add(yes)
    assert across > 0  # unequal blocks that more than one pass drew
    assert verdicts == {True, False}


# (reduce, alpha, planned blocks) at n = 1000, beta = 4: multilevel's lowest
# level is blocks of length beta, and single level at alpha = 109 has
# b = 111, so its last tile has length 1
SHORT_BLOCK_PLANS = [
    pytest.param(multilevel_reduce, 80, multilevel_blocks, id="multilevel"),
    pytest.param(single_level_reduce, 109, single_level_blocks, id="single-level"),
]


@pytest.mark.parametrize("reduce, alpha, blocks", SHORT_BLOCK_PLANS)
def test_planned_pairs_are_tallied_once_and_no_short_block_reaches_the_leaf(reduce, alpha, blocks):
    # the leaf tallies nothing, so the tally is the reduction's own: every
    # planned pair of all the passes, whatever reached the leaf; and a block
    # no longer than beta is never more than beta apart, so none reaches it
    n, beta, passes = 1000, 4, 3
    x, y = leaf_instance(n, cluster=False)  # every block is YES, so all are decided
    lengths = []

    def leaf(bx, by, alpha, beta, rs):
        lengths.append(len(bx))
        return gap_ed_banded(bx, by, beta) is not EXCEEDS

    for seed in range(3):
        lengths.clear()
        with oracle_call_tally() as tally:
            yes = reduce(as_view(x), as_view(y), alpha, beta, beta, leaf, RandomStream(seed), passes)
        rs = RandomStream(seed)
        planned = [block for _ in range(passes) for block in blocks(n, alpha, beta, rs)]
        short = [(s, l) for s, l in planned if l <= beta and x[s : s + l] != y[s : s + l]]
        assert yes and short and lengths  # unequal short blocks were planned and read
        assert tally[0] == len(planned) and min(lengths) > beta


@pytest.mark.parametrize(
    "reduce, alpha, blocks",
    [*SHORT_BLOCK_PLANS, pytest.param(single_level_reduce, 45, single_level_blocks, id="single-45")],
)
def test_verdicts_match_a_brute_reference_over_the_plan(reduce, alpha, blocks):
    # YES iff every pair of the drawn tiles is within beta by ed_exact: the
    # stops at the first NO and at the first run no longer than beta change
    # no verdict
    n, beta, passes = 1000, 4, 3
    verdicts = set()
    for cluster, seed in product((False, True), range(4)):
        x, y = leaf_instance(n, cluster)
        rs = RandomStream(seed)
        planned = {block for _ in range(passes) for block in blocks(n, alpha, beta, rs)}
        want = all(ed_exact(x[s : s + l], y[s : s + l]) <= beta for s, l in planned)
        got = reduce(
            as_view(x), as_view(y), alpha, beta, beta, exact_gap_oracle, RandomStream(seed), passes
        )
        assert got == want
        verdicts.add(got)
    assert verdicts == {True, False}


def nonpower_instance(n):
    """leaf_instance's edits, and one at the last position, in the short last tile."""
    x = list(range(n))
    y = list(x)
    for i in (*range(500, 510), 37, 260, 777, n - 1):
        y[i] = n + i
    return x, y


def short_tile_between_full_ones(blocks):
    lengths = [length for _, length in blocks]
    size = max(lengths)
    return any(
        lengths[j] < size == lengths[j - 1] == lengths[j + 1] for j in range(1, len(lengths) - 1)
    )


# (reduce, alpha, n, sha256 of the certified plan's repr, (verdict, tallied
# oracle calls) of one three-pass call, x reads, x distinct reads), written
# by the code that grouped a flat plan into runs; the tally is three times
# one pass's planned pairs
NON_POWER_OF_TWO_PINS = [
    (multilevel_reduce, 80, 1000, "3ab30cce42694e77f940e2727515af16f2045818becc4b9e54a4ba3bfc374c19",
     (False, 750), 10556, 1000),
    (multilevel_reduce, 80, 4097, "6a287b51b3f9efb8e116b4ce59af40a96e62b94a20366f463dbff13b84da910d",
     (False, 3099), 69140, 4097),
    (multilevel_reduce, 80, 6000, "749edf35254b5ef1de412854732aeb6fa2543ce19871da5c753367ee6a7efabb",
     (False, 4503), 93680, 6000),
    (single_level_reduce, 90, 1000, "4b258e8d327782d641e68b7b54dacd9c873375030be59fc1699318cca11ebe5e",
     (False, 108), 13176, 1000),
    (single_level_reduce, 90, 4097, "e4b247686a8c6d451e977b38f23118054ef4ef0ba4357b855f8e03a58dfe4380",
     (False, 441), 224487, 4097),
    (single_level_reduce, 90, 6000, "60bd48eed0eacddb98914bc1f6c52dc2ecbb37efb4e9bc1584072fef16ec6267",
     (False, 642), 477200, 6000),
]


@pytest.mark.parametrize(
    "reduce, alpha, n, plan_digest, outcome, reads, distinct",
    NON_POWER_OF_TWO_PINS,
    ids=[f"{pin[0].__name__}-{pin[2]}" for pin in NON_POWER_OF_TWO_PINS],
)
def test_non_power_of_two_n_pins_plans_and_outcomes(
    reduce, alpha, n, plan_digest, outcome, reads, distinct
):
    # a level's short last tile is drawn between full tiles, so a run of
    # equal-length blocks is split there and resumes after it
    beta, seed = 4, 0
    if reduce is multilevel_reduce:
        levels = multilevel_levels_blocks(n, alpha, beta, RandomStream(seed))
    else:
        levels = [single_level_blocks(n, alpha, beta, RandomStream(seed))]
    assert any(map(short_tile_between_full_ones, levels))

    def tester(xm, ym, rs):
        reduce(xm.view(), ym.view(), alpha, beta, beta, exact_gap_oracle, rs)

    cert = certify_non_adaptive(tester, n, seed)
    assert cert.passed
    assert hashlib.sha256(repr(cert.plan).encode()).hexdigest() == plan_digest
    planned = [block for level in levels for block in level]
    assert cert.plan[0] == cert.plan[1] == [i for s, l in planned for i in range(s, s + l)]

    x, y = nonpower_instance(n)
    xm, ym = MeteredString(x, track_distinct=True), MeteredString(y, track_distinct=True)
    with oracle_call_tally() as tally:
        yes = reduce(xm.view(), ym.view(), alpha, beta, beta, exact_gap_oracle, RandomStream(seed), 3)
    assert (yes, tally[0]) == outcome
    assert (xm.count, xm.distinct_count()) == (ym.count, ym.distinct_count()) == (reads, distinct)


# (side, seed, verdict, leaf calls, sha256 of the repr of the leaf calls'
# (length, x block, y block) in call order) of one main_gap call at
# (n, k, c) = (4096, 16, 2), written by the code that decides the runs
# longest first and stops at the first NO block or the first run no longer
# than beta = 16; the YES digests are those of the earlier call lists, which
# also sent the blocks of length <= 16 to the leaf, with those calls removed
LEAF_CALL_PINS = [
    ("yes", 0, True, 54, "496906ee8d08399a557a1b863913a2c626d9185df0537f0fbf8db7c8bbe2ba0b"),
    ("yes", 1, True, 62, "4b474e4d015b910cc24c174fcfe2da355954fb6a3f873cf905720a3b8f0fc0ef"),
    ("no", 0, False, 1, "92d5eef356a428fe93513fd2570c27128cde8e17dcb899556214ea76640b0c4d"),
    ("no", 1, False, 1, "207da5d5cc4b2c4d6849b524087f3a8751e9aadc0dd149462bc18850afe64449"),
]


@pytest.mark.parametrize(
    "side, seed, verdict, count, calls_digest",
    LEAF_CALL_PINS,
    ids=[f"{side}-{seed}" for side, seed, *_ in LEAF_CALL_PINS],
)
def test_leaf_calls_per_main_gap_call_are_pinned(
    monkeypatch, side, seed, verdict, count, calls_digest
):
    # each distinct block is settled at most once per main_gap call, longest
    # first, up to the first NO: the same blocks reach the leaf, in the same
    # order, not just as many
    spec = InstanceSpec("random-edits", 4096, 16, side=side, c=2.0)
    x, y, _ = generate(spec, RandomStream(seed).child("gen"))
    calls = []

    def leaf(bx, by, *args):
        calls.append((len(bx), bx, by))
        return exact_gap_oracle(bx, by, *args)

    monkeypatch.setattr(testers, "exact_gap_oracle", leaf)
    inst = GapInstance(MeteredString(x).view(), MeteredString(y).view(), 256, 16)
    assert main_gap(inst, TesterConfig(), RandomStream(seed).child("run")) is verdict
    assert len(calls) == count
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == calls_digest


@st.composite
def gap_call_cases(draw):
    """(x, y, x offset, y offset, runs, beta) for _run_gap_calls: x and y
    differ by a few substitutions over a binary alphabet, so many blocks are
    equal, and the runs take any length at any starts: overlapping and not
    dyadic, repeated within and across runs, in any order, and several runs
    of one length, as a level's short tail tiles make."""
    n = draw(st.integers(1, 48))
    x = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    diffs = draw(st.sets(st.integers(0, n - 1), max_size=5))
    y = [v + 2 if i in diffs else v for i, v in enumerate(x)]
    run = st.integers(1, n).flatmap(
        lambda l: st.tuples(st.just(l), st.lists(st.integers(0, n - l), min_size=1, max_size=6))
    )
    runs = draw(st.lists(run, max_size=8))
    return x, y, draw(st.integers(0, 3)), draw(st.integers(0, 3)), runs, draw(st.integers(1, 4))


def sliced_gap_calls(x, y, runs, beta, leaf):
    """_run_gap_calls' verdict by brute force: every distinct (length, start)
    longer than beta is sliced and compared, runs longest first, and each
    unequal pair goes to `leaf` up to the first NO."""
    seen = set()
    for length, starts in sorted(runs, key=itemgetter(0), reverse=True):
        for s in starts:
            if length > beta and (length, s) not in seen:
                seen.add((length, s))
                bx, by = x[s : s + length], y[s : s + length]
                if bx != by and not leaf(bx, by):
                    return False
    return True


@settings(max_examples=300, deadline=None)
@given(gap_call_cases())
def test_run_gap_calls_match_a_reference_that_slices_every_block(case):
    # the equal cover skips only blocks whose every position lies in a pair
    # already compared equal: the verdict, the leaf calls and their order are
    # those of slicing every distinct block, and every planned block is read
    x, y, x_off, y_off, runs, beta = case
    n = len(x)
    xm, ym = MeteredString([9] * x_off + x), MeteredString([8] * y_off + y)
    calls, want_calls = [], []

    def leaf(bx, by, alpha, beta, rs):
        calls.append((bx, by))
        return gap_ed_banded(bx, by, beta) is not EXCEEDS

    def want_leaf(bx, by):
        want_calls.append((bx, by))
        return gap_ed_banded(bx, by, beta) is not EXCEEDS

    got = reductions._run_gap_calls(
        xm.view().sub(x_off, n), ym.view().sub(y_off, n), runs, beta, beta, leaf, RandomStream(0)
    )
    assert got == sliced_gap_calls(x, y, runs, beta, want_leaf)
    assert calls == want_calls
    assert xm.count == ym.count == sum(l * len(starts) for l, starts in runs)


def test_oracle_call_tally_scopes():
    reductions._tally(5)  # no tally open: nothing to count into
    with oracle_call_tally() as outer:
        assert outer[0] == 0
        reductions._tally()
        with oracle_call_tally() as inner:
            reductions._tally(2)
        reductions._tally()
    assert (outer[0], inner[0]) == (4, 2)

    seen = []

    def worker():
        reductions._tally(7)  # the main thread's open tally does not see this
        with oracle_call_tally() as own:
            reductions._tally(3)
        seen.append(own[0])

    with oracle_call_tally() as main_box:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        reductions._tally()
    assert not thread.is_alive() and seen == [3] and main_box[0] == 1

    with pytest.raises(RuntimeError):
        with oracle_call_tally() as failed:
            reductions._tally()
            raise RuntimeError("unwind")
    reductions._tally()
    assert failed[0] == 1  # the raise closed the tally
    with oracle_call_tally() as fresh:
        reductions._tally()
    assert fresh[0] == 1


def test_equal_blocks_are_yes_without_a_dp(monkeypatch):
    # the reductions settle equal block pairs themselves; handed two, the
    # leaf answers YES by the DP's common-prefix scan
    beta, length = 8, 200
    x = rand_list(4, 300, 1 << 20)
    y = list(x)
    for i in range(beta + 1):
        y[10 + 30 * i] += 1 << 20
    assert ed_exact(x, y) == beta + 1
    assert exact_gap_oracle(x, y, 4 * beta, beta, RandomStream(1)) is False
    xv, yv = as_view(x), as_view(y)
    assert fetched(exact_gap_oracle)(xv, yv, 4 * beta, beta, RandomStream(1)) is False
    xb, yb = as_view(x).sub(50, length), as_view(list(x)).sub(50, length)
    assert fetched(exact_gap_oracle)(xb, yb, 4 * beta, beta, RandomStream(1)) is True

    def no_dp(*args):
        raise AssertionError("equal blocks reached the banded DP")

    monkeypatch.setattr(reductions, "gap_ed_banded", no_dp)
    with pytest.raises(AssertionError):
        exact_gap_oracle(x, y, 4 * beta, beta, RandomStream(1))
    xm, ym = MeteredString(x), MeteredString(list(x))
    with oracle_call_tally() as tally:
        yes = multilevel_reduce(
            xm.view(), ym.view(), 10 * beta, beta, beta, exact_gap_oracle, RandomStream(1)
        )
    plan = multilevel_blocks(300, 10 * beta, beta, RandomStream(1))
    assert yes and tally[0] == len(plan) > 0
    assert xm.count == ym.count == sum(l for _, l in plan) > len(plan) * beta


@given(
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(0, 2), min_size=n, max_size=n)] * 2)
    )
)
def test_aligned_blocks_are_never_farther_apart_than_the_strings(pair):
    # why the one-sided block reductions never err on YES, and why the last
    # leaf call of a NO verdict, a block more than beta apart, shows that
    # ED(x, y) > beta
    x, y = pair
    whole = ed_exact(x, y)
    for s in range(len(x)):
        for end in range(s + 1, len(x) + 1):
            assert ed_exact(x[s:end], y[s:end]) <= whole


# ---------------------------------------------------------------------------
# Witness-count lemma
# ---------------------------------------------------------------------------


def test_key_lemma_not_applicable_on_equal():
    rep = key_lemma_check([1, 2, 3, 4], [1, 2, 3, 4], 1)
    assert not rep.applicable


def test_key_lemma_spec_point():
    # n=16 random binary pairs, tau=1, many samples: never a counterexample
    rng = random.Random(42)
    applicable = 0
    for _ in range(10_000):
        x = [rng.randrange(2) for _ in range(16)]
        y = [rng.randrange(2) for _ in range(16)]
        rep = key_lemma_check(x, y, 1)
        if rep.applicable:
            applicable += 1
            assert rep.holds, (x, y, rep)
    assert applicable > 9000


def test_key_lemma_counts_match_exact_membership():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(2, 64)
        x = [rng.randrange(3) for _ in range(n)]
        y = [rng.randrange(3) for _ in range(n)]
        tau = rng.choice([1, 2, 4])
        rep = key_lemma_check(x, y, tau)
        if not rep.applicable:
            continue
        for p, count in rep.per_level.items():
            size = 1 << p
            want = sum(ed_exact(x[a : a + size], y[a : a + size]) > tau for a in range(0, n, size))
            assert count == want


def test_key_lemma_rejects_bad_tau():
    with pytest.raises(ParameterError):
        key_lemma_check([1, 2], [2, 1], 0)


# ---------------------------------------------------------------------------
# Gap -> shifted
# ---------------------------------------------------------------------------


def test_shifted_threshold_values():
    # worked example: n = 2^16, alpha = 8192, beta = phi = 16 gives psi = 56,
    # which exceeds beta, so the reduction must reject these parameters
    assert shifted_threshold(1 << 16, 8192, 16, 16) == 56
    x = as_view([0] * (1 << 16))
    oracle = per_block(per_member(exact_shifted_oracle))
    with pytest.raises(ParameterError):
        gap_to_shifted(single(x, x), 8192, 16, 16, oracle, RandomStream(1))
    # with a much larger gap the threshold collapses to a usable value
    assert shifted_threshold(1 << 19, 1 << 19, 16, 16) <= 1


def test_gap_to_shifted_equal_strings():
    x = rand_list(12, 4096, 1 << 16)
    rows = []

    def oracle(*args):
        rows.extend(per_block(per_member(exact_shifted_oracle))(*args))
        return rows

    [yes] = gap_to_shifted(
        single(as_view(x), as_view(list(x))), 2048, 1, 1, oracle, RandomStream(5)
    )
    assert yes and rows and all(row == [True] for row in rows)


def test_gap_to_shifted_error_rates():
    n, alpha = 4096, 2048
    # NO side: disjoint symbols, ED = n > alpha
    x, y = disjoint_pair(21, n)
    xv, yv = as_view(x), as_view(y)
    false_yes = 0
    trials = 150
    for seed in range(trials):
        [yes] = gap_to_shifted(
            single(xv, yv), alpha, 1, 1, per_block(per_member(exact_shifted_oracle)),
            RandomStream(seed),
        )
        false_yes += yes
    assert false_yes / trials <= 1 / 2.718281828 + 0.08
    # YES side: one substitution, ED <= beta = 1
    x2 = rand_list(23, n, 1 << 16)
    y2 = list(x2)
    y2[1777] = 1 << 20
    false_no = 0
    for seed in range(trials):
        [yes] = gap_to_shifted(
            single(as_view(x2), as_view(y2)), alpha, 1, 1,
            per_block(per_member(exact_shifted_oracle)), RandomStream(seed),
        )
        false_no += not yes
    assert false_no / trials <= 1 / 2.718281828 + 0.08


def test_each_reduction_hands_its_oracle_its_error_budget():
    # gap_to_shifted spreads 1/2 over its planned blocks, shifted_to_gap the
    # caller's delta over its grid; each hands the share to its oracle
    n, alpha, phi = 4096, 2048, 1
    batch = Batch(as_view([0] * n), (as_view([0] * n), as_view([1] * n)))
    seen = []

    def plan_oracle(sub, runs, a, b, g, delta, stream):
        planned = sum(len(starts) for _, starts in runs)
        seen.append((planned, delta))
        return [[True] * sub.q] * planned

    outs = gap_to_shifted(batch, alpha, 1, phi, plan_oracle, RandomStream(0))
    [(planned, delta)] = seen
    assert planned == sum(iters for _, iters in gap_to_shifted_levels(n, alpha, phi)) > 0
    assert delta == 1 / (2 * planned)
    assert outs == [True] * batch.q

    beta, gamma, spread, delta = 4, 1, 3, 0.05
    xs, ys = shift_grid(beta, gamma, spread)
    seen.clear()

    def batch_oracle(sub, a, b, d, stream):
        seen.append((sub.q, d))
        return [True] * sub.q

    shifted_to_gap(batch, 16, beta, gamma, spread, batch_oracle, delta, RandomStream(0))
    assert seen == [(batch.q * len(ys), delta / (2 * len(xs) * len(ys)))] * len(xs)


def test_per_block_keeps_one_pair_call_per_window():
    # the plan oracle protocol with per_block(per_member(...)) makes the calls
    # of one oracle call per block: every planned window, member by member, in order
    n, alpha, beta, phi = 1000, 2048, 1, 1
    psi = shifted_threshold(n, alpha, beta, phi)
    rs = RandomStream(6)
    plan = []
    for p, iters in level_plan(n, 84 * phi, alpha, ceil_log2(3 * phi)):
        for _ in range(iters):
            start = rs.uniform_index(ceil_div(n, 1 << p)) << p
            plan.append((start, min(1 << p, n - start)))
    x = as_view(rand_list(30, n, 1 << 16))
    ys = (as_view(rand_list(31, n, 1 << 16)), as_view(rand_list(32, n, 1 << 16)))
    calls = []

    def pair(xv, yv, a, b, g, d, stream):
        calls.append((xv.source, xv.start, len(xv), yv.source, yv.start, len(yv), a, b, g))
        return yv.source is ys[0].source

    oracle = per_block(per_member(pair))
    outs = gap_to_shifted(Batch(x, ys), alpha, beta, phi, oracle, RandomStream(6))
    assert calls == [
        (x.source, s, l, y.source, s, l, phi, beta, psi) for s, l in plan for y in ys
    ]
    assert outs == [True, len(plan) <= 5]


# ---------------------------------------------------------------------------
# Shifted -> gap
# ---------------------------------------------------------------------------


def test_shift_grid_examples():
    # beta=3, gamma=0: spread 2, 4 x-offsets x 4 y-offsets = 16 calls over <= 8 substrings
    assert shift_grid_spread(3, 0) == 2
    xs, ys = shift_grid(3, 0, 2)
    assert xs == [0, 1, 2, 3] and ys == [0, 1, 2, 3]
    # gamma=beta degenerates to at most 4 calls
    assert shift_grid_spread(3, 3) == 4
    xs, ys = shift_grid(3, 3, 4)
    assert xs == [0, 3] and ys == [0, 3]


def test_shifted_to_gap_counts_and_bounds():
    x = rand_list(31, 256, 1 << 16)
    xv = as_view(x)
    calls = []

    def counted(*args):
        calls.append(args)
        return fetched_at(exact_gap_oracle)(*args)

    oracle = per_member(counted)
    assert shifted_to_gap(single(xv, xv), 10, 3, 0, 2, oracle, 0.1, RandomStream(1)) == [True]
    assert len(calls) == 16
    calls.clear()
    assert shifted_to_gap(single(xv, xv), 9, 3, 3, 4, oracle, 0.1, RandomStream(1)) == [True]
    assert len(calls) <= 4


def test_shifted_to_gap_rotation_yes():
    x = list(range(256))
    y = x[-3:] + x[:-3]
    from gapedit.strings import shifted_ed_exact

    assert shifted_ed_exact(x, y, 4) == 0
    [yes] = shifted_to_gap(
        single(as_view(x), as_view(y)), 10, 4, 0, shift_grid_spread(4, 0),
        per_member(fetched_at(exact_gap_oracle)), 0.1, RandomStream(2),
    )
    assert yes


def test_shifted_to_gap_no_side():
    x, y = disjoint_pair(41, 256)
    [yes] = shifted_to_gap(
        single(as_view(x), as_view(y)), 16, 4, 1, shift_grid_spread(4, 1),
        per_member(fetched_at(exact_gap_oracle)), 0.1, RandomStream(2),
    )
    assert not yes


def test_shifted_to_gap_degenerate_short_strings(monkeypatch):
    # n <= beta: the shift budget can empty both truncations, so the shifted
    # distance is 0 by definition and the answer is YES for any content;
    # exact_shifted_oracle gives it after its two reads, with no banded pass
    from gapedit.strings import shifted_ed_exact

    def no_pass(*args):
        raise AssertionError("a banded pass on a window no longer than beta")

    monkeypatch.setattr(reductions, "gap_ed_banded", no_pass)
    x = as_view([1, 2, 3])
    z = as_view([9, 9, 9])
    assert shifted_ed_exact([1, 2, 3], [9, 9, 9], 4) == 0
    oracle, spread = per_member(fetched_at(exact_gap_oracle)), shift_grid_spread(4, 0)
    assert shifted_to_gap(single(x, z), 12, 4, 0, spread, oracle, 0.1, RandomStream(1)) == [True]
    rng = random.Random(22)
    for _ in range(300):
        beta = rng.randint(0, 8)
        n, gamma = rng.randint(0, beta), rng.randint(0, beta)
        a, b = ([rng.randrange(3) for _ in range(n)] for _ in "ab")
        xm, ym = MeteredString(a, log=True), MeteredString(b, log=True)
        with oracle_call_tally() as tally:
            yes = exact_shifted_oracle(xm.view(), ym.view(), 99, beta, gamma, 0.1, RandomStream(0))
        assert yes == (shifted_ed_exact(a, b, beta) <= gamma)
        assert tally[0] == 1 and xm.log == ym.log == list(range(n))
    monkeypatch.undo()
    # one symbol over budget: the grid runs and the disjoint content fails it
    x5 = as_view([1, 2, 3, 4, 5])
    z5 = as_view([9, 8, 7, 6, 5 + 10])
    assert shifted_to_gap(single(x5, z5), 12, 4, 0, spread, oracle, 0.1, RandomStream(1)) == [False]


def test_shifted_to_gap_rejects_small_alpha():
    x = as_view([0] * 32)
    with pytest.raises(ParameterError):
        shifted_to_gap(
            single(x, x), 5, 4, 2, 3, per_member(fetched_at(exact_gap_oracle)), 0.1,
            RandomStream(1),
        )


def test_banded_membership_equivalence():
    # the witness sets computed via the banded solver match exact membership
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 20)
        x = [rng.randrange(2) for _ in range(n)]
        y = [rng.randrange(2) for _ in range(n)]
        tau = rng.choice([1, 2, 3])
        banded_over = gap_ed_banded(x, y, tau) is EXCEEDS
        assert banded_over == (ed_exact(x, y) > tau)


def test_shift_grid_bounds_exhaustive():
    # every beta <= 40, gamma <= beta and spread in [1+gamma, 1+beta]: the grid
    # matches its definition, both bounds asserted by shifted_to_gap hold, and
    # shifted_to_gap makes one call per grid point
    def count_calls(sub, a, b, d, rs):
        reductions._tally(sub.q)
        return [True] * sub.q

    for beta in range(41):
        x = as_view([0] * (beta + 1))
        for gamma in range(beta + 1):
            g1 = 1 + gamma
            for spread in range(g1, beta + 2):
                xs, ys = shift_grid(beta, gamma, spread)
                xi = spread - 1
                assert xs == [v for v in range(beta + 1) if v % spread in (0, beta % spread)]
                assert ys == [
                    v
                    for v in range(beta + 1)
                    if (v <= xi and v % g1 == 0) or (v >= beta - xi and v % g1 == beta % g1)
                ]
                assert len(xs) * len(ys) * g1 <= 16 * (1 + beta)
                assert len(xs) + len(ys) <= 2 * -(-(1 + beta) // spread) + 2 * -(-spread // g1)
                with oracle_call_tally() as tally:
                    shifted_to_gap(
                        single(x, x), 3 * beta, beta, gamma, spread, count_calls, 0.1,
                        RandomStream(0),
                    )
                assert tally[0] == len(xs) * len(ys)
            for bad in (gamma, beta + 2):
                with pytest.raises(ParameterError):
                    shifted_to_gap(
                        single(x, x), 3 * beta, beta, gamma, bad, count_calls, 0.1, None
                    )


def _mixed_batch(n, shift):
    x = rand_list(70, n, 1 << 16)
    y_rot = x[-shift:] + x[:-shift]
    _, y_no = disjoint_pair(71, n)
    return Batch(as_view(x), (as_view(list(x)), as_view(y_rot), as_view(y_no)))


def test_gap_to_shifted_batch_matches_single_calls():
    batch = _mixed_batch(4096, 2)
    oracle = per_block(per_member(exact_shifted_oracle))
    for seed in range(3):
        got = gap_to_shifted(batch, 2048, 1, 1, oracle, RandomStream(seed))
        want = [
            gap_to_shifted(single(batch.x, y), 2048, 1, 1, oracle, RandomStream(seed))[0]
            for y in batch.ys
        ]
        assert got == want
        assert got[0] and not got[2]


def test_shifted_to_gap_batch_matches_single_calls():
    batch = _mixed_batch(256, 3)
    oracle = per_member(fetched_at(exact_gap_oracle))
    spread = shift_grid_spread(4, 1)
    got = shifted_to_gap(batch, 16, 4, 1, spread, oracle, 0.1, RandomStream(2))
    want = [
        shifted_to_gap(single(batch.x, y), 16, 4, 1, spread, oracle, 0.1, RandomStream(2))[0]
        for y in batch.ys
    ]
    assert got == want == [True, True, False]
