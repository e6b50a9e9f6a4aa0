"""Tester stack: equality sampler, batched paths, baselines, dispatch."""

import math
import random

import pytest

from gapedit.intmath import ceil_log2, iroot
from gapedit.metering import MeteredString, RandomStream
from gapedit.reductions import (
    ParameterError,
    _tally,
    exact_shifted_oracle,
    gap_to_shifted,
    oracle_call_tally,
    per_block,
    per_member,
    shift_grid,
    shift_grid_spread,
    shifted_threshold,
    shifted_to_gap,
)
from gapedit.strings import GapInstance, ShiftedInstance, as_view, ed_solve_gap
from gapedit.testers import (
    Batch,
    TesterConfig,
    UnsupportedRegimeError,
    _batched_gap_via_shifted,
    _each,
    _shifted_s3,
    baseline_gap,
    baseline_gap_gate,
    baseline_max_beta,
    baseline_shifted,
    baseline_shifted_gate,
    batched_equality,
    batched_gap_h1,
    batched_gap_h2,
    batched_shifted_h0,
    batched_shifted_h1,
    equality_test,
    h0_spread,
    h1_shifted_params,
    h2_phi,
    main_gap,
    main_shifted,
    plan_gap_dispatch,
    plan_shifted_dispatch,
    reps_any,
    reps_majority,
    single,
)
from test_reductions import int64_runs

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


def test_batched_equality_answers_python_bools():
    x = rand_sym(1, 256)
    batch = Batch(as_view(x), (as_view(list(x)), as_view(rand_sym(2, 256))))
    got = batched_equality(batch, 4, 0.2, RandomStream(0))
    assert got == [True, False] and all(type(v) is bool for v in got)


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
    # large beta: the smallest t with t^2 q >= q + beta, still clamped to 1 + beta
    assert h0_spread(1, 10**12) == 10**6 + 1
    assert h0_spread(1, 10**12 - 1) == 10**6
    for q, beta in ((3, 10**18), (64, 2**61 + 5), (10**6, 10**15)):
        t = h0_spread(q, beta)
        assert t * t * q >= q + beta > (t - 1) * (t - 1) * q


def test_h0_identical_batch_all_yes():
    x = rand_sym(3, 256)
    batch = Batch(as_view(x), tuple(as_view(list(x)) for _ in range(6)))
    for seed in range(5):
        [row] = batched_shifted_h0(batch, int64_runs((256, [0])), 32, 8, 0.1, RandomStream(seed))
        assert row == [True] * 6


def test_h0_rotation_yes():
    x = list(range(256))
    y = x[-3:] + x[:-3]
    for seed in range(20):
        assert batched_shifted_h0(
            single(as_view(x), as_view(y)), int64_runs((256, [0])), 16, 4, 0.1, RandomStream(seed)
        )[0][0]


def test_h0_planted_no_rate():
    n, alpha, beta, delta = 256, 16, 4, 0.1
    wrong = 0
    trials = 300
    for t in range(trials):
        x, y = disjoint(2 * t, n)
        if batched_shifted_h0(
            single(as_view(x), as_view(y)), int64_runs((n, [0])), alpha, beta, delta,
            RandomStream(t),
        )[0][0]:
            wrong += 1
    assert 1 - wrong / trials >= 1 - delta - 0.05


def test_h0_mixed_batch():
    x = rand_sym(9, 256)
    y_eq = list(x)
    y_rot = x[-2:] + x[:-2]
    _, y_no = disjoint(50, 256)
    batch = Batch(as_view(x), (as_view(y_eq), as_view(y_rot), as_view(y_no)))
    [got] = batched_shifted_h0(batch, int64_runs((256, [0])), 16, 4, 0.05, RandomStream(8))
    assert got[0] and got[1] and not got[2]


def test_h0_degenerate_short():
    x = as_view([1, 2, 3])
    [out] = batched_shifted_h0(
        Batch(x, (as_view([7, 8, 9]),)), int64_runs((3, [0])), 12, 4, 0.1, RandomStream(1)
    )
    assert out == [True]  # shift budget >= n empties the windows


def test_h0_batched_vs_unbatched_pipeline_rates():
    # q=1 fingerprint path vs the offset grid driven by equality tests:
    # verdict rates agree within 0.07 on both promise sides
    n, alpha, beta, delta = 256, 32, 8, 0.1
    trials = 1000

    def pipeline(xv, yv, rs):
        def leaf(av, bv, a, b, d, stream):
            assert b == 0
            return equality_test(av, bv, a, delta / 32, stream)

        [yes] = shifted_to_gap(
            single(xv, yv), alpha, beta, 0, shift_grid_spread(beta, 0), per_member(leaf), delta,
            rs,
        )
        return yes

    for make_pair, expect in (
        (lambda t: (list(range(t, t + n)), list(range(t + n - 5, t + n)) + list(range(t, t + n - 5))), True),
        (lambda t: disjoint(3 * t + 1, n), False),
    ):
        h0_yes = 0
        pipe_yes = 0
        for t in range(trials):
            x, y = make_pair(t)
            h0_yes += batched_shifted_h0(
                single(as_view(x), as_view(y)), int64_runs((n, [0])), alpha, beta, delta,
                RandomStream(t),
            )[0][0]
            pipe_yes += pipeline(as_view(x), as_view(y), RandomStream(t))
        assert abs(h0_yes - pipe_yes) / trials <= 0.07
        assert (h0_yes / trials > 0.9) == expect


def _h0_one_window(batch, alpha, beta, delta, rs):
    """Reference: the h = 0 tester deciding one window, by scalar draws and one
    read_many per offset. batched_shifted_h0 must match it window by window."""
    n = len(batch.x)
    q = batch.q
    if n <= beta:
        return [exact_shifted_oracle(batch.x, y, alpha, beta, 0, delta, rs) for y in batch.ys]
    xs, ys_off = shift_grid(beta, 0, h0_spread(q, beta))
    _tally(len(xs) * len(ys_off) * q)
    n_prime = n - beta
    count = len(xs) * len(ys_off) * q + 1
    m = min(n_prime, int(-(-(n_prime / (1 + alpha)) * math.log(count / delta) // 1)))
    m = max(m, 1)
    sample = [rs.uniform_index(n_prime) for _ in range(m)]
    common = {tuple(batch.x.sub(x_off, n_prime).read_many(sample)) for x_off in xs}
    verdicts = []
    for y in batch.ys:
        fps = [tuple(y.sub(y_off, n_prime).read_many(sample)) for y_off in ys_off]
        verdicts.append(any(fp in common for fp in fps))
    return verdicts


def _h0_pass(plan_fn, make_batch, alpha, beta, phi, delta, seed):
    """(runs, rows, tally, final stream state, strings) of one gap->shifted
    pass whose blocks are decided by plan_fn; the runs' starts as lists."""
    batch, strings = make_batch()
    rs = RandomStream(seed)
    seen = []

    def oracle(sub, runs, a, b, g, d, stream):
        rows = plan_fn(sub, runs, a, b, delta, stream)
        seen.append((runs, rows))
        return rows

    with oracle_call_tally() as box:
        gap_to_shifted(batch, alpha, beta, phi, oracle, rs)
    [(runs, rows)] = seen
    return [(length, starts.tolist()) for length, starts in runs], rows, box[0], rs._state, strings


def _h0_contents(n):
    x = rand_sym(40, n, 8)
    y_near = list(x)
    for i in range(0, n, 97):
        y_near[i] = (y_near[i] + 1) % 8
    return x, [y_near, rand_sym(41, n, 8), x[5:] + x[:5]]


@pytest.mark.parametrize("q", [1, 3])
def test_h0_plan_rows_match_window_by_window(q):
    # n = 1001: every level's last block is short, and at beta = phi = 9 the
    # last block of level 5 (length 9) is no longer than beta, so it takes the
    # exact path. Level 5 windows (length 32, sample 15 of 23), level 6 windows
    # (64: 35 of 55; the short 41: 20 of 32) give runs with different sample
    # sizes, so a run split that ignores a length change, or chunks cut at
    # m +- 1, change the draws.
    n, alpha, beta, phi, delta = 1001, 10080, 9, 9, 0.1
    x, ys = _h0_contents(n)

    def make_batch():
        xm = MeteredString(x, log=True)
        yms = [MeteredString(y, log=True) for y in ys[:q]]
        if q == 3:  # the third member shares the first one's source
            yms[2] = yms[0]
        return Batch(xm.view(), tuple(ym.view() for ym in yms)), (xm, *yms)

    exact_windows = 0
    for seed in range(40):
        got = _h0_pass(batched_shifted_h0, make_batch, alpha, beta, phi, delta, seed)
        want = _h0_pass(per_block(_h0_one_window), make_batch, alpha, beta, phi, delta, seed)
        assert got[:4] == want[:4]
        runs, rows = got[0], got[1]
        assert len(rows) == sum(len(starts) for _, starts in runs)
        assert all(len(row) == q for row in rows)
        exact_windows += sum(len(starts) for length, starts in runs if length <= beta)
        for new, old in zip(got[4], want[4]):
            assert new.count == old.count
            if q == 1:
                assert new.log == old.log
    assert exact_windows > 0


def test_h0_hand_made_windows_match_window_by_window():
    # equal lengths apart are separate runs; windows of length 9 and 1 are
    # exact, and a length-10 window has a one-position sample space. The
    # second plan splits equal lengths into adjacent runs; the third merges
    # them, and both draw, read and answer alike.
    plans = [
        int64_runs((32, [0, 32]), (11, [990]), (9, [5]), (1, [0]), (10, [991]), (64, [100, 200]),
                   (32, [300])),
        int64_runs((32, [0]), (32, [32, 64]), (9, [5]), (9, [100]), (64, [100]), (64, [200, 0])),
        int64_runs((32, [0, 32, 64]), (9, [5, 100]), (64, [100, 200, 0])),
    ]
    x, ys = _h0_contents(1001)
    # moving the nonzero symbols past int64 keeps every equality, so every row
    by_base = {}
    for base in (0, 2**63, 2**64 + 5):
        for p, runs in enumerate(plans):
            for q in (1, 2):
                results = []
                for plan_fn in (batched_shifted_h0, per_block(_h0_one_window)):
                    xm = MeteredString([v and base + v for v in x], log=True)
                    yms = [MeteredString([v and base + v for v in y], log=True) for y in ys[:q]]
                    batch = Batch(xm.view(), tuple(ym.view() for ym in yms))
                    rs = RandomStream(3)
                    with oracle_call_tally() as box:
                        rows = plan_fn(batch, runs, 9, 9, 0.1, rs)
                    results.append((rows, box[0], rs._state, xm.log, [ym.log for ym in yms]))
                assert results[0] == results[1]
                # rows 3 and 4 are length 9 or 1: ED <= length <= beta
                assert [row[0] for row in results[0][0][3:5]] == [True, True]
                by_base.setdefault((p, q), []).append(results[0])
    for runs in by_base.values():
        assert runs[0] == runs[1] == runs[2]
    for q in (1, 2):
        assert by_base[1, q] == by_base[2, q]


@pytest.mark.parametrize(
    "n, alpha, beta, phi",
    # level 11's short tail at n = 3072 is 1024 long, level 10's length, and
    # level 6's at n = 480 is 32 long, level 5's
    [(3072, 1386, 0, 11), (480, 505, 1, 1)],
)
def test_h0_pass_where_a_short_tail_continues_the_last_level(n, alpha, beta, phi):
    # the tail drawn first at its level makes two adjacent runs of one length
    x, ys = _h0_contents(n)

    def make_batch():
        xm, ym = MeteredString(x, log=True), MeteredString(ys[0], log=True)
        return single(xm.view(), ym.view()), (xm, ym)

    got = _h0_pass(batched_shifted_h0, make_batch, alpha, beta, phi, 0.1, 0)
    want = _h0_pass(per_block(_h0_one_window), make_batch, alpha, beta, phi, 0.1, 0)
    runs = got[0]
    assert any(a[0] == b[0] for a, b in zip(runs, runs[1:]))
    assert got[:4] == want[:4]
    assert [(m.count, m.log) for m in got[4]] == [(m.count, m.log) for m in want[4]]


def test_h0_rejects_bad_thresholds_before_any_read():
    xm = MeteredString([1, 2, 3, 4])
    batch = single(xm.view(), xm.view())
    for alpha, beta in ((3, 4), (4, -1)):
        with pytest.raises(ParameterError):
            batched_shifted_h0(batch, int64_runs((4, [0])), alpha, beta, 0.1, RandomStream(1))
    assert xm.count == 0


# ---------------------------------------------------------------------------
# h = 1 gap
# ---------------------------------------------------------------------------


def test_h1_gate_and_zero_threshold():
    n = 1 << 14
    L = ceil_log2(n)
    assert baseline_gap_gate(n, 8192, 1, 1) and not baseline_gap_gate(n, 8191, 2, 1)
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
    gbar, _ = h1_shifted_params(1 << 16, 1 << 20, 16, 1)
    assert gbar == 4
    gbar, _ = h1_shifted_params(1 << 16, 1 << 20, 2, 1)
    assert gbar == 2
    # q <= gbar^2/beta forces the spread to beta (few large batches)
    n, alpha = 1 << 18, 54432 * 16
    gbar, xi = h1_shifted_params(n, alpha, 8, 2)  # gbar = 4, q=2 <= 16/8
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
            batched_shifted_h0(batch, int64_runs((n, [0])), 64, 8, 0.1, RandomStream(5))
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
    if baseline_gap_gate(n, alpha, beta, 2) and not baseline_gap_gate(n, alpha, beta, 1):
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
    assert baseline_gap_gate(n, alpha, beta, 1)
    assert baseline_gap_gate(n, alpha, beta, 2)
    assert not baseline_gap_gate(n, alpha - 1, beta, 1)


def test_h2_delegates_inside_h1_gate():
    # smallest concrete scale where the h=2 gate holds at beta=1
    n = 1 << 19
    alpha, beta = 520_000, 1
    assert baseline_gap_gate(n, alpha, beta, 2) and baseline_gap_gate(n, alpha, beta, 1)
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


def test_baseline_gate_admits_the_h1_boundary():
    # n=2^16: 336 ceil(log2 n) = 5376, so alpha = 4 * 5376 puts beta = 2 on the h=1 boundary
    n, alpha, beta = 1 << 16, 21504, 2
    assert plan_gap_dispatch(n, alpha, beta, TesterConfig(h=1)) == ("h1",)
    assert baseline_gap_gate(n, alpha, beta, 1)
    assert baseline_max_beta(n, alpha, 1) == 2
    x = rand_sym(21, n, 1 << 30)
    y = list(x)
    y[n // 3] ^= 1
    assert baseline_gap(
        GapInstance(as_view(x), as_view(y), alpha, beta), TesterConfig(h=1), RandomStream(1)
    )
    c = 336 * 16
    assert baseline_gap_gate(n, c**3, c, 2) and baseline_max_beta(n, c**3, 2) == c
    assert baseline_shifted_gate(n, 4 * 3024 * 16, 2, 1)


def test_depth_gates_match_the_closed_forms():
    # the paper's h = 1 and h = 2 gates, written out, at +-1 of every boundary
    for n in (1 << 10, 1 << 16, 1 << 20):
        L = ceil_log2(n)
        c = 336 * L
        for b in range(0, 7):
            edges = (
                b * b * c,
                math.isqrt(b**3 * c**3),
                b * b * 3024 * L,
                math.isqrt((1008 * L * b) ** 3),
            )
            for alpha in {e + d for e in edges for d in (-1, 0, 1, 2)}:
                if alpha < b:
                    continue
                at = (n, alpha, b)
                assert baseline_gap_gate(n, alpha, b, 1) == (b * b * c <= alpha), at
                assert baseline_gap_gate(n, alpha, b, 2) == (b**3 * c**3 <= alpha**2), at
                assert baseline_shifted_gate(n, alpha, b, 1) == (b * b * 3024 * L <= alpha), at
                assert baseline_shifted_gate(n, alpha, b, 2) == (
                    (1008 * L * b) ** 3 <= alpha**2
                ), at
                assert baseline_max_beta(n, alpha, 1) == math.isqrt(alpha // c), at
                assert baseline_max_beta(n, alpha, 2) == iroot(3, alpha**2 // c**3), at


def test_depth_gate_keeps_the_shift_threshold_within_beta():
    # wherever the depth-h gate admits beta, psi = floor(112 beta^2 ceil(log2 n) / alpha)
    # is at most beta, so the recursion tier needs no psi <= beta clause of its own
    for n in (1 << 10, 1 << 20, 1 << 100):
        for alpha in (1, 7, 1 << 10, 1 << 20, 10**12, 10**30, 10**60, 10**120):
            for h in range(1, 7):
                edge = baseline_max_beta(n, alpha, h)
                assert not baseline_gap_gate(n, alpha, edge + 1, h)
                for beta in (edge - 1, edge, edge + 1):
                    if 1 <= beta <= alpha and baseline_gap_gate(n, alpha, beta, h):
                        assert shifted_threshold(n, alpha, beta, beta) <= beta, (n, alpha, h)


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


def test_plan_gap_dispatch_huge_alpha_is_unsupported():
    # alpha^2 far beyond the float range: the max-beta diagnostic stays exact
    with pytest.raises(UnsupportedRegimeError) as exc:
        plan_gap_dispatch(1024, int((10**200) ** 1.01), 10**200, TesterConfig(h=2))
    assert exc.value.max_beta < 10**200


def test_plan_gap_dispatch_explicit_h():
    assert plan_gap_dispatch(1 << 14, 8192, 1, TesterConfig(h=1)) == ("h1",)
    with pytest.raises(UnsupportedRegimeError):
        plan_gap_dispatch(1 << 14, 8192, 2, TesterConfig(h=1))
    with pytest.raises(UnsupportedRegimeError):
        plan_gap_dispatch(1 << 14, 8192, 1, TesterConfig(h=0))


def test_every_gate_refusal_carries_the_depth_s_max_beta():
    # each gated tier, and the dispatch at an explicit depth, refuses a beta
    # past its depth-h gate (3*gamma for the shifted tiers) with one error,
    # before it reads anything: an UnsupportedRegimeError, so a
    # ParameterError, whose max_beta is baseline_max_beta
    n = 1024
    f = 336 * ceil_log2(n)
    xm = MeteredString([0] * n)
    x = xm.view()
    batch = single(x, x)
    rs = RandomStream(1)

    def gap(a, b, h):
        return baseline_gap(GapInstance(x, x, a, b), TesterConfig(delta=0.3, h=h), rs)

    def shifted(a, b, h):
        return baseline_shifted(
            ShiftedInstance(x, x, a, b // 3, b // 3), TesterConfig(delta=0.3, h=h), rs
        )

    refusals = [  # (h, alpha, the refused beta or 3*gamma, call)
        (1, 4 * f, 3, lambda a, b: batched_gap_h1(batch, a, b, 0.3, rs)),
        (2, f**3, f + 1, lambda a, b: batched_gap_h2(batch, a, b, 0.3, rs)),
        (0, 64, 1, lambda a, b: gap(a, b, 0)),
        (1, 4 * f, 3, lambda a, b: gap(a, b, 1)),
        (1, 64 * f, 9, lambda a, b: batched_shifted_h1(batch, a, b // 3, b // 3, 0.3, rs)),
        (0, 64, 3, lambda a, b: shifted(a, b, 0)),
        (1, 64 * f, 9, lambda a, b: shifted(a, b, 1)),
        (1, 4 * f, 3, lambda a, b: plan_gap_dispatch(n, a, b, TesterConfig(h=1))),
    ]
    for h, alpha, beta, call in refusals:
        best = baseline_max_beta(n, alpha, h)
        assert best < beta and baseline_gap_gate(n, alpha, best, h)
        with pytest.raises(UnsupportedRegimeError) as exc:
            call(alpha, beta)
        assert isinstance(exc.value, ParameterError) and exc.value.max_beta == best
        assert f"largest admissible beta is {best}" in str(exc.value)
    assert xm.count == 0


def test_plan_shifted_dispatch_tiers():
    assert plan_shifted_dispatch(1 << 14, 512, 8, 0) == ("h0",)
    n = 4096
    assert plan_shifted_dispatch(n, 3024 * 12, 4, 1) == ("h1s",)
    assert plan_shifted_dispatch(n, 600, 12, 4) == ("reduce",)
    with pytest.raises(UnsupportedRegimeError) as exc:
        plan_shifted_dispatch(n, 11, 4, 4)
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
    # one depth-3 pass: main_shifted leaves with recursion depth <= 2
    shifted_fn = per_block(_each(main_shifted, ShiftedInstance, TesterConfig(delta=0.3, h_max=2)))
    batch = single(inst.x, inst.y)
    assert _batched_gap_via_shifted(batch, 4096, 1, 1, shifted_fn, RandomStream(2)) == [True]
    x2, y2 = disjoint(90, n, 1 << 30)
    batch = single(as_view(x2), as_view(y2))
    assert _batched_gap_via_shifted(batch, 4050, 1, 1, shifted_fn, RandomStream(2)) == [False]


@pytest.mark.parametrize("h", (1, 2, 3, 6))
def test_main_gap_explicit_depth_decides_beta_zero_by_equality(h):
    # every depth's gate admits beta = 0; the verdict and the reads are the equality test's
    x = as_view([0] * 64)
    assert main_gap(GapInstance(x, x, 16, 0), TesterConfig(h=h), RandomStream(1)) is True
    a, b = rand_sym(12, 2048), rand_sym(13, 2048)

    def verdict_and_reads(tester):
        xm, ym = MeteredString(a, log=True), MeteredString(b, log=True)
        return tester(xm.view(), ym.view()), xm.log, ym.log

    want = verdict_and_reads(lambda xv, yv: equality_test(xv, yv, 64, 0.2, RandomStream(6)))
    cfg = TesterConfig(delta=0.2, h=h)
    got = verdict_and_reads(
        lambda xv, yv: main_gap(GapInstance(xv, yv, 64, 0), cfg, RandomStream(6))
    )
    assert got == want and want[0] is False


def test_recursion_tier_selection_arithmetic():
    # the depth-3 recursion outranks the wide-range tier only once
    # alpha > (336 ceil(log2 n))^6; check the dispatch symbolically
    n = 1 << 100
    alpha = 10**30
    beta = 4 * 10**15
    assert not baseline_gap_gate(n, alpha, beta, 1) and not baseline_gap_gate(n, alpha, beta, 2)
    assert plan_gap_dispatch(n, alpha, beta, TesterConfig()) == ("recursion", 3)


def test_shifted_s3_selection_arithmetic():
    # the s3 arm outranks the offset-grid recursion only when gamma exceeds
    # ~112*ceil(log2 n); check the dispatch order symbolically at huge n
    from gapedit.testers import plan_shifted_dispatch as plan

    L = 60
    n = 1 << L
    gamma = 112 * L * 2
    alpha = 25 * 10**12
    assert gamma * gamma * 3024 * L > alpha  # h1 shifted gate fails
    assert (1008 * L * gamma) ** 3 <= alpha * alpha  # s3 gate holds
    assert plan(n, alpha, gamma, gamma) == ("s3",)


def test_shifted_s3_runs_end_to_end():
    # drive the s3 path directly at permissive thresholds (vacuous NO promise)
    n = 1 << 19
    alpha, beta, gamma = 2_700_000, 4, 1
    x = rand_sym(55, n, 1 << 30)
    inst = ShiftedInstance(as_view(x), as_view(list(x)), alpha, beta, gamma)
    assert _shifted_s3(inst, TesterConfig(delta=0.5), RandomStream(3))


def test_short_strings_decided_exactly_on_the_grid_paths():
    # n <= beta: the h=1 shifted and s3 paths return exact_shifted_oracle's
    # answer, one exact call per member and no grid (h=1 decides at its
    # raised gamma_bar >= gamma; see h1_shifted_params)
    for n, beta in ((1, 1), (3, 4), (6, 6)):
        sym = rand_sym(40 + n, n)
        x, ys = as_view(sym), (as_view(list(sym)), as_view(rand_sym(50 + n, n)))
        want = [exact_shifted_oracle(x, y, 10**6, beta, 1, 0.1, RandomStream(0)) for y in ys]
        with oracle_call_tally() as tally:
            got = batched_shifted_h1(Batch(x, ys), 10**5, beta, 1, 0.1, RandomStream(1))
        assert got == want and tally[0] == len(ys)
        for y, yes in zip(ys, want):
            with oracle_call_tally() as tally:
                inst = ShiftedInstance(x, y, 10**6, beta, 1)
                assert _shifted_s3(inst, TesterConfig(delta=0.1), RandomStream(1)) == yes
            assert tally[0] == 1


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
