"""Tester stack: equality sampler, batched paths, baselines, dispatch."""

import math
import random

import pytest

from gapedit.intmath import ceil_log2
from gapedit.metering import MeteredString, RandomStream
from gapedit.reductions import (
    ParameterError,
    shift_grid,
    shifted_threshold,
    shifted_to_gap,
)
from gapedit.strings import GapInstance, ShiftedInstance, as_view, ed_solve_gap
from gapedit.testers import (
    Batch,
    TesterConfig,
    UnsupportedRegimeError,
    _gap_to_shifted_rep,
    baseline_gap,
    baseline_gap_gate,
    baseline_max_beta,
    baseline_shifted,
    batched_equality,
    batched_gap_h1,
    batched_gap_h2,
    batched_shifted_h0,
    batched_shifted_h1,
    equality_test,
    h0_spread,
    h1_gate,
    h1_shifted_params,
    h2_gate,
    h2_phi,
    main_gap,
    main_shifted,
    plan_gap_dispatch,
    plan_shifted_dispatch,
    reps_any,
    reps_majority,
    single,
)

E_INV = 1 / math.e


def rand_sym(seed, n, alphabet=1 << 20):
    return RandomStream(seed).child("sym").symbols(n, alphabet)


def disjoint(seed, n, alphabet=1 << 20):
    x = rand_sym(seed, n, alphabet)
    y = [alphabet + v for v in rand_sym(seed + 1, n, alphabet)]
    return x, y


# ---------------------------------------------------------------------------
# Equality tester
# ---------------------------------------------------------------------------


def test_equality_trivial_yes():
    x = rand_sym(1, 256)
    for seed in range(10):
        assert equality_test(as_view(x), as_view(list(x)), 4, 0.2, RandomStream(seed))


def test_equality_vacuous_alpha_reads_nothing():
    x = rand_sym(2, 128)
    xm, ym = MeteredString(x), MeteredString(list(reversed(x)))
    assert equality_test(xm.view(), ym.view(), 128, 0.1, RandomStream(0))
    assert xm.count == 0 and ym.count == 0


def test_equality_planted_hamming_rate():
    # Hamming distance 2*alpha planted at random positions, delta = 1/3
    n, alpha = 512, 32
    rng = random.Random(4)
    wrong = 0
    trials = 1000
    for t in range(trials):
        x = rand_sym(t, n)
        y = list(x)
        for pos in rng.sample(range(n), 2 * alpha):
            y[pos] ^= 1 << 25
        if equality_test(as_view(x), as_view(y), alpha, 1 / 3, RandomStream(t)):
            wrong += 1
    assert 1 - wrong / trials >= 0.60


# ---------------------------------------------------------------------------
# h = 0 batched shifted tester
# ---------------------------------------------------------------------------


def test_h0_spread_values():
    assert h0_spread(1, 8) == 3  # ceil(sqrt(1+8)) = 3 for a single instance
    assert h0_spread(64, 64) == 2
    assert h0_spread(1, 0) == 1
    assert h0_spread(4, 1) == min(2, 2)


def test_h0_identical_batch_all_yes():
    x = rand_sym(3, 256)
    batch = Batch(as_view(x), tuple(as_view(list(x)) for _ in range(6)))
    for seed in range(5):
        assert batched_shifted_h0(batch, 32, 8, 0.1, RandomStream(seed)) == [True] * 6


def test_h0_rotation_yes():
    x = list(range(256))
    y = x[-3:] + x[:-3]
    for seed in range(20):
        assert batched_shifted_h0(single(as_view(x), as_view(y)), 16, 4, 0.1, RandomStream(seed))[0]


def test_h0_planted_no_rate():
    n, alpha, beta, delta = 256, 16, 4, 0.1
    wrong = 0
    trials = 300
    for t in range(trials):
        x, y = disjoint(2 * t, n)
        if batched_shifted_h0(single(as_view(x), as_view(y)), alpha, beta, delta, RandomStream(t))[0]:
            wrong += 1
    assert 1 - wrong / trials >= 1 - delta - 0.05


def test_h0_mixed_batch():
    x = rand_sym(9, 256)
    y_eq = list(x)
    y_rot = x[-2:] + x[:-2]
    _, y_no = disjoint(50, 256)
    batch = Batch(as_view(x), (as_view(y_eq), as_view(y_rot), as_view(y_no)))
    got = batched_shifted_h0(batch, 16, 4, 0.05, RandomStream(8))
    assert got[0] and got[1] and not got[2]


def test_h0_degenerate_short():
    x = as_view([1, 2, 3])
    out = batched_shifted_h0(Batch(x, (as_view([7, 8, 9]),)), 12, 4, 0.1, RandomStream(1))
    assert out == [True]  # shift budget >= n empties the windows


def test_h0_batched_vs_unbatched_pipeline_rates():
    # q=1 fingerprint path vs the offset grid driven by equality tests:
    # verdict rates agree within 0.07 on both promise sides
    n, alpha, beta, delta = 256, 32, 8, 0.1
    trials = 1000

    def pipeline(xv, yv, rs):
        def leaf(av, bv, a, b, stream):
            assert b == 0
            return equality_test(av, bv, a, delta / 32, stream)

        return shifted_to_gap(xv, yv, alpha, beta, 0, leaf, rs).yes

    for make_pair, expect in (
        (lambda t: (list(range(t, t + n)), list(range(t + n - 5, t + n)) + list(range(t, t + n - 5))), True),
        (lambda t: disjoint(3 * t + 1, n), False),
    ):
        h0_yes = 0
        pipe_yes = 0
        for t in range(trials):
            x, y = make_pair(t)
            h0_yes += batched_shifted_h0(
                single(as_view(x), as_view(y)), alpha, beta, delta, RandomStream(t)
            )[0]
            pipe_yes += pipeline(as_view(x), as_view(y), RandomStream(t))
        assert abs(h0_yes - pipe_yes) / trials <= 0.07
        assert (h0_yes / trials > 0.9) == expect


# ---------------------------------------------------------------------------
# h = 1 gap
# ---------------------------------------------------------------------------


def test_h1_gate_and_zero_threshold():
    n = 1 << 14
    L = ceil_log2(n)
    assert h1_gate(n, 8192, 1) and not h1_gate(n, 8191, 2)
    # at the exact gate boundary the derived shift threshold collapses to zero
    beta = 3
    alpha = 336 * L * beta * beta
    assert shifted_threshold(n, alpha, beta, beta) == 0


def test_h1_rejects_out_of_gate():
    x = as_view([0] * 1024)
    with pytest.raises(ParameterError):
        batched_gap_h1(single(x, x), 1024, 2, 0.3, RandomStream(1))


def test_h1_equal_batch_yes():
    n = 1 << 14
    x = rand_sym(5, n, 1 << 30)
    batch = Batch(as_view(x), tuple(as_view(list(x)) for _ in range(3)))
    assert batched_gap_h1(batch, 8192, 1, 0.5, RandomStream(2)) == [True] * 3


def test_h1_zero_beta_uses_shared_equality():
    n = 512
    x = rand_sym(6, n)
    xm = MeteredString(x)
    ys = [MeteredString(list(x)), MeteredString(list(reversed(x)))]
    batch = Batch(xm.view(), tuple(y.view() for y in ys))
    got = batched_gap_h1(batch, 64, 0, 0.1, RandomStream(3))
    assert got[0] and not got[1]
    # the common string is read once for the whole batch
    assert xm.count == ys[0].count == ys[1].count


def test_h1_error_rates_unamplified():
    n, alpha, beta = 1 << 14, 8192, 1
    trials = 400
    false_yes = 0
    for t in range(trials):
        x, y = disjoint(5 * t, n, 1 << 30)  # ED = n > alpha
        if batched_gap_h1(single(as_view(x), as_view(y)), alpha, beta, 0.5, RandomStream(t))[0]:
            false_yes += 1
    assert false_yes / trials <= E_INV + 0.08
    false_no = 0
    for t in range(trials):
        x = rand_sym(7 * t + 3, n, 1 << 30)
        y = list(x)
        y[t % n] ^= 1 << 25  # one substitution: ED <= 1 = beta
        if not batched_gap_h1(single(as_view(x), as_view(y)), alpha, beta, 0.5, RandomStream(t))[0]:
            false_no += 1
    assert false_no / trials <= E_INV + 0.08


def test_h1_plan_is_content_independent():
    n = 1 << 14
    x = rand_sym(30, n, 1 << 30)
    logs = []
    for variant in range(3):
        y = rand_sym(31 + variant, n, 1 << 30)
        xm = MeteredString(x, log=True)
        ym = MeteredString(y, log=True)
        batched_gap_h1(single(xm.view(), ym.view()), 8192, 1, 0.5, RandomStream(99))
        logs.append((tuple(xm.log), tuple(ym.log)))
    assert logs[0] == logs[1] == logs[2]


# ---------------------------------------------------------------------------
# h = 1 shifted
# ---------------------------------------------------------------------------


def test_h1_shifted_params_worked_examples():
    # n=2^16, alpha=2^20: raised floor is min(beta, isqrt(2^20/48384)) = min(beta, 4)
    gbar, _ = h1_shifted_params(1 << 16, 1 << 20, 16, 1, 1)
    assert gbar == 4
    gbar, _ = h1_shifted_params(1 << 16, 1 << 20, 2, 1, 1)
    assert gbar == 2
    # q <= gbar^2/beta forces the spread to beta (few large batches)
    n, alpha = 1 << 18, 54432 * 16
    gbar, xi = h1_shifted_params(n, alpha, 8, 1, 2)  # gbar = 4, q=2 <= 16/8
    assert gbar == 4 and xi == 8


def test_h1_shifted_zero_gamma_delegates_bitwise():
    n = 512
    x = rand_sym(8, n)
    y = rand_sym(9, n)
    plans = []
    for call_h0 in (True, False):
        xm, ym = MeteredString(x, log=True), MeteredString(y, log=True)
        batch = single(xm.view(), ym.view())
        if call_h0:
            batched_shifted_h0(batch, 64, 8, 0.1, RandomStream(5))
        else:
            batched_shifted_h1(batch, 64, 8, 0, 0.1, RandomStream(5))
        plans.append((tuple(xm.log), tuple(ym.log)))
    assert plans[0] == plans[1]


def test_h1_shifted_yes_smoke():
    # gate boundary: gamma=1 needs alpha >= 3024 * ceil(log2 n)
    n = 4096
    alpha = 3024 * ceil_log2(n)
    x = rand_sym(10, n, 1 << 30)
    batch = single(as_view(x), as_view(list(x)))
    assert batched_shifted_h1(batch, alpha, 4, 1, 0.5, RandomStream(3)) == [True]


def test_h1_shifted_no_smoke():
    n = 1 << 18
    alpha = 3024 * ceil_log2(n)  # 54432; NO promise needs ED > 3*alpha
    x, y = disjoint(60, n, 1 << 30)
    batch = single(as_view(x), as_view(y))
    got = batched_shifted_h1(batch, alpha, 1, 1, 0.9, RandomStream(4))
    assert got == [False]


def test_h1_shifted_gate_rejected():
    x = as_view([0] * 1024)
    with pytest.raises(ParameterError):
        batched_shifted_h1(single(x, x), 1024, 4, 2, 0.3, RandomStream(1))


# ---------------------------------------------------------------------------
# h = 2 gap
# ---------------------------------------------------------------------------


def test_h2_gate_and_phi():
    # the enlarged-phi branch only engages beyond beta > 336*ceil(log2 n),
    # which needs astronomically long strings; validate the arithmetic there
    L = 40
    n = 1 << L
    beta = 336 * L + 1
    alpha = int((beta ** 1.5) * (336 * L) ** 1.5) + beta**2  # between the two gates
    if h2_gate(n, alpha, beta) and not h1_gate(n, alpha, beta):
        phi = h2_phi(n, alpha, beta)
        assert phi >= beta
        psi = shifted_threshold(n, alpha, beta, phi)
        assert psi < beta
        assert psi * psi * 3024 * L <= phi


def test_h2_delegation_boundary_arithmetic():
    # beta^2 exactly at alpha/(336 ceil(log2 n)) keeps both gates satisfied
    # (inclusive), so the h=2 entry routes to the h=1 path; only huge scales
    # admit this point, so check the gate arithmetic symbolically
    L = 60
    n = 1 << L
    beta = 336 * L
    alpha = 336 * L * beta * beta
    assert h1_gate(n, alpha, beta)
    assert h2_gate(n, alpha, beta)
    assert not h1_gate(n, alpha - 1, beta)


def test_h2_delegates_inside_h1_gate():
    # smallest concrete scale where the h=2 gate holds at beta=1
    n = 1 << 19
    alpha, beta = 520_000, 1
    assert h2_gate(n, alpha, beta) and h1_gate(n, alpha, beta)
    x = rand_sym(11, n, 1 << 30)
    batch = single(as_view(x), as_view(list(x)))
    assert batched_gap_h2(batch, alpha, beta, 0.5, RandomStream(1)) == [True]
    x2, y2 = disjoint(70, n, 1 << 30)  # ED = n = 524288 > alpha
    assert batched_gap_h2(single(as_view(x2), as_view(y2)), alpha, beta, 0.5, RandomStream(1)) == [False]


def test_h2_gate_rejects():
    x = as_view([0] * 1024)
    with pytest.raises(ParameterError):
        batched_gap_h2(single(x, x), 100, 64, 0.3, RandomStream(1))


# ---------------------------------------------------------------------------
# Baseline recursion
# ---------------------------------------------------------------------------


def test_baseline_gate_diagnostic_example():
    # n=2^16, alpha=2^13, h=1: the largest admissible beta evaluates to 1
    assert baseline_max_beta(1 << 16, 1 << 13, 1) == 1
    assert baseline_gap_gate(1 << 16, 1 << 13, 1, 1)
    assert not baseline_gap_gate(1 << 16, 1 << 13, 2, 1)
    with pytest.raises(ParameterError, match="largest admissible beta is 1"):
        x = as_view([0] * (1 << 16))
        baseline_gap(GapInstance(x, x, 1 << 13, 2), TesterConfig(h=1), RandomStream(1))


def test_baseline_beta_zero_matches_equality_plan():
    n = 2048
    x = rand_sym(12, n)
    y = rand_sym(13, n)
    plans = []
    for use_baseline in (False, True):
        xm, ym = MeteredString(x, log=True), MeteredString(y, log=True)
        if use_baseline:
            baseline_gap(
                GapInstance(xm.view(), ym.view(), 64, 0),
                TesterConfig(delta=0.2, h=0),
                RandomStream(6),
            )
        else:
            equality_test(xm.view(), ym.view(), 64, 0.2, RandomStream(6))
        plans.append((tuple(xm.log), tuple(ym.log)))
    assert plans[0] == plans[1]


def test_baseline_h1_error_rate():
    # admissible point: n=4096, alpha=4050, beta=1 (gate barely holds)
    n, alpha, beta = 4096, 4050, 1
    assert baseline_gap_gate(n, alpha, beta, 1)
    cfg = TesterConfig(delta=0.1, h=1)
    trials = 400
    wrong = 0
    for t in range(trials):
        if t % 2 == 0:
            x = rand_sym(17 * t + 1, n, 1 << 30)
            y = list(x)
            y[(5 * t) % n] ^= 1 << 25
            want = True
        else:
            x, y = disjoint(17 * t + 1, n, 1 << 30)
            want = False
        got = baseline_gap(
            GapInstance(as_view(x), as_view(y), alpha, beta), cfg, RandomStream(t)
        )
        wrong += got != want
    assert wrong / trials <= 0.15


def test_baseline_shifted_zero_collapses_to_full_equality():
    n = 1024
    x = rand_sym(14, n)
    y = rand_sym(15, n)
    plans = []
    for use_shifted in (False, True):
        xm, ym = MeteredString(x, log=True), MeteredString(y, log=True)
        if use_shifted:
            baseline_shifted(
                ShiftedInstance(xm.view(), ym.view(), 64, 0, 0),
                TesterConfig(delta=0.2, h=0),
                RandomStream(7),
            )
        else:
            equality_test(xm.view(), ym.view(), 64, 0.2 / 2, RandomStream(7))
        plans.append((tuple(xm.log), tuple(ym.log)))
    assert plans[0] == plans[1]


def test_baseline_shifted_rotation_yes():
    n = 512
    x = list(range(n))
    y = x[-2:] + x[:-2]
    cfg = TesterConfig(delta=0.2, h=0)
    hits = 0
    for t in range(100):
        hits += baseline_shifted(
            ShiftedInstance(as_view(x), as_view(y), 64, 3, 0), cfg, RandomStream(t)
        )
    assert hits / 100 >= 1 - 0.2  # only oracle false-NOs can miss


def test_baseline_needs_h():
    x = as_view([0] * 64)
    with pytest.raises(ParameterError):
        baseline_gap(GapInstance(x, x, 16, 0), TesterConfig(), RandomStream(1))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def test_plan_gap_dispatch_tiers():
    cfg = TesterConfig()
    assert plan_gap_dispatch(1 << 16, 256, 0, cfg) == ("equality",)
    assert plan_gap_dispatch(64, 64, 3, cfg) == ("equality",)  # vacuous NO promise
    assert plan_gap_dispatch(1 << 14, 8192, 1, cfg) == ("h1",)
    assert plan_gap_dispatch(1 << 16, 256, 16, cfg) == ("multilevel",)
    assert plan_gap_dispatch(1 << 20, 1 << 16, 1 << 8, cfg) == ("multilevel",)
    with pytest.raises(UnsupportedRegimeError) as exc:
        plan_gap_dispatch(1 << 10, 30, 16, cfg)
    assert exc.value.max_beta == 3


def test_plan_gap_dispatch_explicit_h():
    assert plan_gap_dispatch(1 << 14, 8192, 1, TesterConfig(h=1)) == ("h1",)
    with pytest.raises(UnsupportedRegimeError):
        plan_gap_dispatch(1 << 14, 8192, 2, TesterConfig(h=1))
    with pytest.raises(UnsupportedRegimeError):
        plan_gap_dispatch(1 << 14, 8192, 1, TesterConfig(h=0))


def test_plan_shifted_dispatch_tiers():
    cfg = TesterConfig()
    assert plan_shifted_dispatch(1 << 14, 512, 8, 0, cfg) == ("h0",)
    n = 4096
    assert plan_shifted_dispatch(n, 3024 * 12, 4, 1, cfg) == ("h1s",)
    assert plan_shifted_dispatch(n, 600, 12, 4, cfg) == ("reduce",)
    with pytest.raises(UnsupportedRegimeError) as exc:
        plan_shifted_dispatch(n, 11, 4, 4, cfg)
    assert exc.value.max_gamma == 3


def test_main_gap_agreement_with_ground_truth():
    n, k = 4096, 8
    alpha, beta = 640, 8
    cfg = TesterConfig(delta=0.05)
    trials = 500
    wrong = 0
    for t in range(trials):
        rs = RandomStream(1000 + t)
        if t % 2 == 0:
            x = rand_sym(3 * t + 2, n, 1 << 30)
            y = list(x)
            for _ in range(k):
                y[rs.uniform_index(n)] ^= 1 << 25
        else:
            x, y = disjoint(3 * t + 2, n, 1 << 30)
        inst = GapInstance(as_view(x), as_view(y), alpha, beta)
        truth = ed_solve_gap(inst)
        if truth == "GAP":
            continue
        got = main_gap(inst, cfg, rs.child("run"))
        wrong += (got and truth == "NO") or (not got and truth == "YES")
    assert wrong / trials <= 0.10


def test_main_gap_recursion_plumbing():
    # mutual recursion exercised directly at permissive parameters
    n = 4096
    x = rand_sym(16, n, 1 << 30)
    inst = GapInstance(as_view(x), as_view(list(x)), 4096, 1)
    # one depth-3 repetition: main_shifted leaves with recursion depth <= 2
    cfg = TesterConfig(delta=0.3, h_max=2)
    assert _gap_to_shifted_rep(inst, main_shifted, cfg, RandomStream(2))
    x2, y2 = disjoint(90, n, 1 << 30)
    inst = GapInstance(as_view(x2), as_view(y2), 4050, 1)
    assert not _gap_to_shifted_rep(inst, main_shifted, cfg, RandomStream(2))


def test_recursion_tier_selection_arithmetic():
    # the depth-3 recursion outranks the wide-range tier only once
    # alpha > (336 ceil(log2 n))^6; check the dispatch symbolically
    n = 1 << 100
    alpha = 10**30
    beta = 4 * 10**15
    assert not h1_gate(n, alpha, beta) and not h2_gate(n, alpha, beta)
    assert plan_gap_dispatch(n, alpha, beta, TesterConfig()) == ("recursion", 3)


def test_shifted_s3_selection_arithmetic():
    # the s3 arm outranks the offset-grid recursion only when gamma exceeds
    # ~112*ceil(log2 n); check the dispatch order symbolically at huge n
    from gapedit.testers import plan_shifted_dispatch as plan

    L = 60
    n = 1 << L
    gamma = 112 * L * 2
    alpha = 25 * 10**12
    cfg = TesterConfig()
    assert gamma * gamma * 3024 * L > alpha  # h1 shifted gate fails
    assert (1008 * L * gamma) ** 3 <= alpha * alpha  # s3 gate holds
    assert plan(n, alpha, gamma, gamma, cfg) == ("s3",)


def test_shifted_s3_runs_end_to_end():
    # drive the s3 path directly at permissive thresholds (vacuous NO promise)
    from gapedit.testers import _shifted_s3

    n = 1 << 19
    alpha, beta, gamma = 2_700_000, 4, 1
    x = rand_sym(55, n, 1 << 30)
    inst = ShiftedInstance(as_view(x), as_view(list(x)), alpha, beta, gamma)
    assert _shifted_s3(inst, TesterConfig(delta=0.5), RandomStream(3))


def test_main_shifted_tiers_run():
    n = 4096
    x = rand_sym(18, n, 1 << 30)
    xv, yv = as_view(x), as_view(list(x))
    cfg = TesterConfig(delta=0.3)
    assert main_shifted(ShiftedInstance(xv, yv, 640, 8, 0), cfg, RandomStream(1))
    assert main_shifted(ShiftedInstance(xv, yv, 3024 * 12, 4, 1), cfg, RandomStream(1))
    assert main_shifted(ShiftedInstance(xv, yv, 660, 12, 2), cfg, RandomStream(1))
    x2, y2 = disjoint(91, n, 1 << 30)
    got = main_shifted(
        ShiftedInstance(as_view(x2), as_view(y2), 660, 12, 2), cfg, RandomStream(1)
    )
    assert not got


def test_query_monotonicity_over_doubling_grid():
    n, c = 1 << 18, 2.0
    cfg = TesterConfig(delta=0.4)
    means = []
    for k in (16, 32, 64, 128):
        totals = []
        for t in range(2):
            x = rand_sym(100 + t, n, 1 << 30)
            y = list(x)
            rs = RandomStream(200 + t)
            for _ in range(k):
                y[rs.uniform_index(n)] ^= 1 << 25
            xm, ym = MeteredString(x), MeteredString(y)
            main_gap(GapInstance(xm.view(), ym.view(), int(k**c), k), cfg, rs.child("r"))
            totals.append(xm.count + ym.count)
        means.append(sum(totals) / len(totals))
    for prev, nxt in zip(means, means[1:]):
        assert nxt <= 2.0 * prev  # non-increasing up to the level-count wobble
    assert means[-1] < means[0]


def test_amplification_invariant():
    # majority over reps_majority(delta) beats delta + 0.03 for a 1/3-error coin
    delta = 0.1
    reps = reps_majority(delta)
    rs = RandomStream(42)
    sims = 3000
    wrong = 0
    for _ in range(sims):
        bad_votes = sum(rs.uniform_index(3) == 0 for _ in range(reps))
        wrong += 2 * bad_votes > reps
    assert wrong / sims <= delta + 0.03


def test_reps_formulas():
    assert reps_majority(0.5) == 1
    assert reps_majority(0.1) == 42 | 1
    assert reps_any(0.5) == 1
    assert reps_any(0.05) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        TesterConfig(delta=0.0)
    with pytest.raises(ValueError):
        TesterConfig(h=9)
