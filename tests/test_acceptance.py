"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import csv
import io
import itertools
import math
import time

from gapedit.harness import (
    CSV_COLUMNS,
    GridConfig,
    InstanceSpec,
    generate,
    grid_csv_text,
)
from gapedit.intmath import ceil_log2
from gapedit.metering import MeteredString, RandomStream, certify_non_adaptive
from gapedit.reductions import (
    exact_gap_oracle,
    exact_shifted_oracle,
    gap_to_shifted,
    key_lemma_check,
    multilevel_reduce,
    per_block,
    per_member,
    single_level_reduce,
)
from gapedit.strings import (
    EXCEEDS,
    GAP,
    NO,
    YES,
    GapInstance,
    ShiftedInstance,
    as_view,
    ed_exact,
    ed_solve_gap,
    gap_ed_banded,
    shifted_ed_exact,
)
from gapedit.testers import (
    Batch,
    TesterConfig,
    baseline_gap,
    baseline_shifted,
    batched_gap_h1,
    batched_shifted_h0,
    equality_test,
    main_gap,
    main_shifted,
    single,
)
from test_reductions import int64_runs

E_INV = 1 / math.e


def _report(criterion, detail):
    print(f"[criterion-{criterion}] PASS  {detail}")


def _symbols(seed, n, alphabet=1 << 30):
    return RandomStream(seed).child("acc").symbols(n, alphabet)


def _disjoint(seed, n, alphabet=1 << 20):
    x = _symbols(seed, n, alphabet)
    y = [alphabet + v for v in _symbols(seed + 1, n, alphabet)]
    return x, y


def _planted_yes(seed, n, k, alphabet=1 << 30):
    x = _symbols(seed, n, alphabet)
    y = list(x)
    rs = RandomStream(seed).child("plant")
    for _ in range(k):
        y[rs.uniform_index(n)] ^= 1 << 27
    return x, y


# ---------------------------------------------------------------------------
# 1. Exact-oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_banded_matches_exact():
    t0 = time.time()
    strings = [
        tuple(s)
        for length in range(0, 7)
        for s in itertools.product((0, 1), repeat=length)
    ]
    assert len(strings) == 127
    checks = 0
    for xs in strings:
        for ys in strings:
            e = ed_exact(list(xs), list(ys))
            for beta in range(0, 7):
                got = gap_ed_banded(list(xs), list(ys), beta)
                assert (got == e) if e <= beta else (got is EXCEEDS), (xs, ys, beta)
                checks += 1
    exhaustive_time = time.time() - t0
    assert exhaustive_time < 60.0

    rng = RandomStream(10_001)
    for t in range(10_000):
        crs = rng.child(t)
        n = 1 + crs.child("n").uniform_index(256)
        m = 1 + crs.child("m").uniform_index(256)
        alphabet = (2, 4, 1 << 30)[t % 3]
        x = crs.child("x").symbols(n, alphabet)
        y = crs.child("y").symbols(m, alphabet)
        beta = crs.child("b").uniform_index(max(n, m) + 1)
        e = ed_exact(x, y)
        got = gap_ed_banded(x, y, beta)
        assert (got == e) if e <= beta else (got is EXCEEDS)
    _report(1, f"{checks} exhaustive checks in {exhaustive_time:.1f}s plus 10^4 random pairs")


# ---------------------------------------------------------------------------
# 2. Witness-count lemma
# ---------------------------------------------------------------------------


def test_criterion_2_key_lemma_holds():
    t0 = time.time()
    rng = RandomStream(20_002)
    taus = (1, 2, 4, 8)
    applicable = 0
    for t in range(10_000):
        crs = rng.child(t)
        n = 2 + crs.child("n").uniform_index(255)
        x = crs.child("x").symbols(n, 2)
        y = crs.child("y").symbols(n, 2)
        report = key_lemma_check(x, y, taus[t % 4])
        if report.applicable:
            applicable += 1
            assert report.holds, (n, taus[t % 4], report)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    assert applicable >= 8000
    _report(2, f"{applicable}/10000 applicable, zero counterexamples, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Shifted-distance sandwich and rotation identities
# ---------------------------------------------------------------------------


def test_criterion_3_sandwich_and_rotation():
    rng = RandomStream(30_003)
    for t in range(10_000):
        crs = rng.child(t)
        n = crs.child("n").uniform_index(65)
        m = crs.child("m").uniform_index(65)
        alphabet = (2, 4)[t % 2]
        x = crs.child("x").symbols(n, alphabet)
        y = crs.child("y").symbols(m, alphabet)
        beta = crs.child("b").uniform_index(9)
        eb = shifted_ed_exact(x, y, beta)
        e = ed_exact(x, y)
        assert eb <= e <= eb + 2 * beta

    for n in (8, 32, 128, 512):
        x = list(range(n))
        for s in range(1, n // 2 + 1):
            y = x[n - s :] + x[: n - s]
            assert ed_exact(x, y) == 2 * s
            assert shifted_ed_exact(x, y, s) == 0
    _report(3, "10^4 sandwich instances; rotation identities exact for all s <= n/2, n <= 512")


# ---------------------------------------------------------------------------
# 4. Non-adaptivity certificates
# ---------------------------------------------------------------------------


def _certify_grid():
    """(label, n, tester closure) for 20 parameter points."""
    cfg_03 = TesterConfig(delta=0.3)
    cfg_05 = TesterConfig(delta=0.5)

    def eq(alpha, delta):
        return lambda xm, ym, rs: equality_test(xm.view(), ym.view(), alpha, delta, rs)

    def slv(alpha, phi):
        return lambda xm, ym, rs: single_level_reduce(
            xm.view(), ym.view(), alpha, phi, phi, exact_gap_oracle, rs
        )

    def mlv(alpha, phi):
        return lambda xm, ym, rs: multilevel_reduce(
            xm.view(), ym.view(), alpha, phi, phi, exact_gap_oracle, rs
        )

    def base(alpha, beta, h, delta):
        return lambda xm, ym, rs: baseline_gap(
            GapInstance(xm.view(), ym.view(), alpha, beta),
            TesterConfig(delta=delta, h=h),
            rs,
        )

    def base_sh(alpha, beta, gamma, h, delta):
        return lambda xm, ym, rs: baseline_shifted(
            ShiftedInstance(xm.view(), ym.view(), alpha, beta, gamma),
            TesterConfig(delta=delta, h=h),
            rs,
        )

    def h0(alpha, beta, q, delta):
        return lambda xm, ym, rs: batched_shifted_h0(
            Batch(xm.view(), tuple(ym.view() for _ in range(q))), int64_runs((len(xm), [0])),
            alpha, beta, delta, rs,
        )[0]

    def h1(alpha, beta, q, delta):
        return lambda xm, ym, rs: batched_gap_h1(
            Batch(xm.view(), tuple(ym.view() for _ in range(q))), alpha, beta, delta, rs
        )

    def mg(alpha, beta, delta):
        return lambda xm, ym, rs: main_gap(
            GapInstance(xm.view(), ym.view(), alpha, beta), TesterConfig(delta=delta), rs
        )

    def ms(alpha, beta, gamma, delta):
        return lambda xm, ym, rs: main_shifted(
            ShiftedInstance(xm.view(), ym.view(), alpha, beta, gamma),
            TesterConfig(delta=delta),
            rs,
        )

    return [
        ("equality-512", 512, eq(16, 0.2)),
        ("equality-2048", 2048, eq(64, 0.1)),
        ("single-level-1024", 1024, slv(512, 4)),
        ("single-level-2048", 2048, slv(256, 8)),
        ("multilevel-1024", 1024, mlv(80, 8)),
        ("multilevel-4096a", 4096, mlv(640, 8)),
        ("multilevel-4096b", 4096, mlv(1024, 4)),
        ("baseline-h0", 1024, base(32, 0, 0, 0.3)),
        ("baseline-h1", 4096, base(4050, 1, 1, 0.4)),
        ("baseline-shifted-h0", 512, base_sh(64, 3, 0, 0, 0.3)),
        ("batched-h0-q1", 512, h0(64, 8, 1, 0.1)),
        ("batched-h0-q4", 512, h0(64, 8, 4, 0.1)),
        ("batched-h0-4096", 4096, h0(512, 16, 1, 0.2)),
        ("batched-h1", 1 << 14, h1(8192, 1, 1, 0.5)),
        ("batched-h1-eq", 1024, h1(64, 0, 2, 0.2)),
        ("main-multilevel", 4096, mg(640, 8, 0.3)),
        ("main-vacuous", 2048, mg(2048, 7, 0.3)),
        ("main-h1", 1 << 14, mg(8192, 1, 0.5)),
        ("main-equality", 1024, mg(256, 0, 0.2)),
        ("main-shifted-h0", 1024, ms(128, 8, 0, 0.2)),
    ]


def test_criterion_4_non_adaptivity_certificates():
    grid = _certify_grid()
    assert len(grid) == 20
    for label, n, tester in grid:
        result = certify_non_adaptive(tester, n, seed=404, trials=5)
        assert result.passed, f"{label}: diverged on witness {result.witness and result.witness[0]}"
        assert all(0 <= p < n for log in result.plan for p in log)
    _report(4, "20 parameter points certified on 5 content pairs each")


# ---------------------------------------------------------------------------
# 5. Error-probability reproduction (unamplified)
# ---------------------------------------------------------------------------


def test_criterion_5_multilevel_error_rates():
    n, alpha, phi = 1024, 80, 8
    trials = 400
    false_yes = 0
    for t in range(trials):
        x = _symbols(50_000 + t, n)
        y = list(x)
        rs = RandomStream(51_000 + t)
        positions = set()
        while len(positions) < 100:  # ED = 100 > alpha, planted disjoint
            positions.add(rs.uniform_index(n))
        for i, pos in enumerate(sorted(positions)):
            y[pos] = (1 << 31) + i
        false_yes += multilevel_reduce(
            as_view(x), as_view(y), alpha, phi, phi, exact_gap_oracle, RandomStream(t)
        )
    rate = false_yes / trials
    assert rate <= E_INV + 0.08

    false_no = 0
    for t in range(trials):
        x, y = _planted_yes(52_000 + t, n, phi)
        false_no += not multilevel_reduce(
            as_view(x), as_view(y), alpha, phi, phi, exact_gap_oracle, RandomStream(t)
        )
    assert false_no == 0  # hereditary: YES instances never rejected
    _report(5, f"multilevel false-YES {rate:.3f} <= 1/e+0.08; YES error exactly 0")


def test_criterion_5_gap_to_shifted_error_rates():
    n, alpha, beta = 4096, 2048, 1
    trials = 400
    false_yes = 0
    for t in range(trials):
        x, y = _disjoint(60_000 + 2 * t, n)  # ED = n > alpha
        [yes] = gap_to_shifted(
            single(as_view(x), as_view(y)), alpha, beta, beta,
            per_block(per_member(exact_shifted_oracle)),
            RandomStream(t),
        )
        false_yes += yes
    no_rate = false_yes / trials
    assert no_rate <= E_INV + 0.08

    false_no = 0
    for t in range(trials):
        x, y = _planted_yes(62_000 + t, n, beta)
        [yes] = gap_to_shifted(
            single(as_view(x), as_view(y)), alpha, beta, beta,
            per_block(per_member(exact_shifted_oracle)),
            RandomStream(t),
        )
        false_no += not yes
    yes_rate = false_no / trials
    assert yes_rate <= E_INV + 0.08
    _report(
        5,
        f"gap->shifted false-YES {no_rate:.3f}, false-NO {yes_rate:.3f}, both <= 1/e+0.08",
    )


# ---------------------------------------------------------------------------
# 6. Amplified end-to-end accuracy
# ---------------------------------------------------------------------------


def test_criterion_6_main_gap_amplified_accuracy():
    n = 1 << 16
    cfg = TesterConfig(delta=0.05)
    for k in (16, 64):
        alpha, beta = k * k, k
        wrong = 0
        counted = 0
        for t in range(400):
            trs = RandomStream(70_000 + 1000 * k + t)
            side = "yes" if t % 2 == 0 else "no"
            spec = InstanceSpec(family="random-edits", n=n, k=k, side=side, c=2.0)
            x, y, _ = generate(spec, trs.child("gen"))
            inst = GapInstance(as_view(x), as_view(y), alpha, beta)
            truth = ed_solve_gap(inst)
            if truth == GAP:
                continue
            counted += 1
            got = main_gap(inst, cfg, trs.child("run"))
            wrong += (got and truth == NO) or (not got and truth == YES)
        assert counted >= 390
        assert wrong / counted <= 0.10, f"k={k}: error {wrong / counted}"
        _report(6, f"k={k}: empirical error {wrong / counted:.4f} <= 0.10 over {counted} trials")


# ---------------------------------------------------------------------------
# 7. Query-complexity scaling
# ---------------------------------------------------------------------------


def test_criterion_7_query_scaling():
    t0 = time.time()
    n, c = 1 << 20, 2.0
    cfg = TesterConfig(delta=0.4)
    means = {}
    for k in (64, 256):
        totals = []
        for t in range(10):
            trs = RandomStream(80_000 + k + t)
            spec = InstanceSpec(family="random-edits", n=n, k=k, side="yes", c=c)
            x, y, _ = generate(spec, trs.child("gen"))
            xm, ym = MeteredString(x), MeteredString(y)
            main_gap(GapInstance(xm.view(), ym.view(), k * k, k), cfg, trs.child("run"))
            totals.append(xm.count + ym.count)
        means[k] = sum(totals) / len(totals)
    ratio = means[64] / means[256]
    elapsed = time.time() - t0
    assert 2.0 <= ratio <= 32.0, f"ratio {ratio}"
    assert elapsed < 1800.0
    _report(
        7,
        f"mean queries k=64: {means[64]:.0f}, k=256: {means[256]:.0f}, "
        f"ratio {ratio:.2f} in [2, 32], grid took {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Batched common-string accounting
# ---------------------------------------------------------------------------


def test_criterion_8_batched_common_string_reads():
    n, alpha, beta, delta, q = 1 << 16, 1024, 16, 0.1, 64
    x = _symbols(90_001, n)
    ys = [_symbols(90_100 + j, n) for j in range(q)]

    xm = MeteredString(x)
    batch = Batch(xm.view(), tuple(as_view(y) for y in ys))
    batched_shifted_h0(batch, int64_runs((n, [0])), alpha, beta, delta, RandomStream(1))
    batched_reads = xm.count

    single_reads = 0
    for rep in range(2):
        xm1 = MeteredString(x)
        batched_shifted_h0(
            Batch(xm1.view(), (as_view(ys[rep]),)), int64_runs((n, [0])), alpha, beta, delta,
            RandomStream(2 + rep),
        )
        single_reads += xm1.count

    assert batched_reads <= single_reads, (batched_reads, single_reads)
    _report(
        8,
        f"q=64 batch read X {batched_reads} times vs {single_reads} for two unbatched runs",
    )


# ---------------------------------------------------------------------------
# 9. Reproducibility
# ---------------------------------------------------------------------------


def test_criterion_9_reproducible_csv():
    cfg = GridConfig(
        n=(2048,),
        k=(4, 8),
        tester=("main", "banded"),
        family=("random-edits", "rotation"),
        trials=6,
        seed=90_909,
    )
    text1, res1 = grid_csv_text(cfg)
    text2, res2 = grid_csv_text(cfg)
    idx = CSV_COLUMNS.index("wall_time_ns")

    def strip(text):
        rows = []
        for row in csv.reader(io.StringIO(text)):
            row[idx] = ""
            rows.append(",".join(row))
        return "\n".join(rows)

    assert strip(text1) == strip(text2)
    assert res1.exit_code == res2.exit_code == 0
    _report(9, f"two runs byte-identical modulo timing ({res1.rows} rows)")
