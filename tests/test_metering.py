"""Metered access, seeded randomness, and the non-adaptivity certifier."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapedit.metering import (
    MeteredString,
    RandomStream,
    SamplePlan,
    certify_non_adaptive,
)
from gapedit.strings import View


def test_counter_and_log_semantics():
    ms = MeteredString([10, 20, 30, 40], log=True)
    assert ms.count == 0
    ms.read(3)
    ms.read(3)
    assert ms.count == 2  # no caching at this layer
    ms.reset()
    ms.read(3)
    ms.read(1)
    ms.read(3)
    assert ms.log == [3, 1, 3]
    with pytest.raises(IndexError):
        ms.read(4)


def test_read_range_and_distinct():
    ms = MeteredString(list(range(30)), log=True, track_distinct=True)
    got = ms.read_range(5, 10)
    assert got == list(range(5, 15))
    assert ms.count == 10 and ms.log == list(range(5, 15))
    ms.read_range(5, 10)
    assert ms.count == 20 and ms.distinct_count() == 10
    ms.read_many([0, 0, 29])
    assert ms.count == 23 and ms.distinct_count() == 12
    ms.reset()
    assert ms.count == 0 and ms.distinct_count() == 0 and ms.log == []


def test_counter_additivity():
    data = list(range(64))

    def tester_a(ms):
        ms.read_range(0, 10)

    def tester_b(ms):
        ms.read_many([1, 2, 3])

    fresh_a = MeteredString(data)
    tester_a(fresh_a)
    fresh_b = MeteredString(data)
    tester_b(fresh_b)
    combined = MeteredString(data)
    tester_a(combined)
    tester_b(combined)
    assert combined.count == fresh_a.count + fresh_b.count


def test_view_reads_charge_meter():
    ms = MeteredString(list(range(16)))
    v = View(ms, 4, 8)
    assert v.read(0) == 4
    assert v.fetch(2, 3) == [6, 7, 8]
    assert ms.count == 4
    raw = View(list(range(16)), 4, 8)
    assert raw.fetch() == list(range(4, 12))  # no meter, no charge


def test_uniform_index_basics():
    rs = RandomStream(123)
    assert [rs.uniform_index(1) for _ in range(5)] == [0] * 5
    a = RandomStream(9)
    b = RandomStream(9)
    assert [a.uniform_index(10) for _ in range(3)] == [b.uniform_index(10) for _ in range(3)]
    with pytest.raises(ValueError):
        rs.uniform_index(0)


def test_uniform_index_is_uniform():
    rs = RandomStream(2024)
    counts = [0, 0, 0, 0]
    n = 100_000
    for _ in range(n):
        counts[rs.uniform_index(4)] += 1
    for c in counts:
        assert abs(c / n - 0.25) < 0.02


def test_child_streams():
    rs = RandomStream(77)
    a = rs.child("a")
    b = rs.child("b")
    a2 = RandomStream(77).child("a")
    seq = [a.next_u64() for _ in range(4)]
    assert seq == [a2.next_u64() for _ in range(4)]
    assert seq != [b.next_u64() for _ in range(4)]
    assert rs.child(3).next_u64() != rs.child("3").next_u64()


def test_u64_block_matches_scalar():
    a = RandomStream(5)
    b = RandomStream(5)
    block = a.u64_block(17).tolist()
    assert block == [b.next_u64() for _ in range(17)]
    assert a.next_u64() == b.next_u64()  # streams stay aligned afterwards


def test_bulk_symbols_in_range():
    rs = RandomStream(8)
    syms = rs.symbols(1000, 7)
    assert len(syms) == 1000 and all(0 <= s < 7 for s in syms)


def test_sample_plan_bounds():
    plan = SamplePlan((("X", 0), ("Y", 3)))
    plan.validate_bounds(1, 4)
    with pytest.raises(ValueError):
        plan.validate_bounds(1, 3)
    with pytest.raises(ValueError):
        SamplePlan((("Z", 0),)).validate_bounds(1, 1)


def _sampling_tester(xm, ym, rs):
    n = len(xm)
    positions = [rs.uniform_index(n) for _ in range(8)]
    xm.read_many(positions)
    ym.read_many(positions)


def _adaptive_probe(xm, ym, rs):
    n = len(xm)
    v = xm.read(0)
    xm.read(v % n)  # second position depends on content: adaptive
    ym.read(0)


def test_certify_passes_sampler():
    result = certify_non_adaptive(_sampling_tester, 64, seed=31, trials=5, alphabet=4)
    assert result.passed
    assert len(result.plan.entries) == 16


def test_certify_fails_adaptive_probe():
    result = certify_non_adaptive(_adaptive_probe, 64, seed=31, trials=8, alphabet=64)
    assert not result.passed
    assert result.witness is not None


def _early_exit_tester(xm, ym, rs):
    # stops at the first mismatch: on contents where every x[i] != y[i] it
    # always reads the same two positions, so only equal content exposes it
    for i in range(len(xm)):
        if xm.read(i) != ym.read(i):
            return False
    return True


def test_certify_fails_early_exit_tester():
    result = certify_non_adaptive(_early_exit_tester, 1024, seed=404, trials=5)
    assert not result.passed
    t, ref, got = result.witness
    assert len(got[0]) != len(ref[0])


def test_certify_contents_split_symbol_equality():
    # the replayed contents must include y = x and a binary-alphabet pair
    seen = []

    def record(xm, ym, rs):
        x, y = xm.raw(), ym.raw()
        seen.append((sum(a == b for a, b in zip(x, y)), max(x + y)))

    assert certify_non_adaptive(record, 256, seed=5, trials=5).passed
    assert any(same == 256 for same, _ in seen)
    assert any(top <= 1 and 0 < same < 256 for same, top in seen)


def test_certify_requires_multiple_contents():
    with pytest.raises(ValueError):
        certify_non_adaptive(_sampling_tester, 8, seed=1, trials=1)
