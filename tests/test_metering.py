"""Metered access, seeded randomness, and the non-adaptivity certifier."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapedit.metering import (
    MeteredString,
    RandomStream,
    _Blocks,
    certify_non_adaptive,
)
from gapedit.strings import View


def test_counter_and_log_semantics():
    ms = MeteredString([10, 20, 30, 40], log=True)
    assert ms.count == 0
    ms.read(3)
    ms.read(3)
    assert ms.count == 2  # no caching at this layer
    ms.read(3)
    ms.read(1)
    ms.read(3)
    assert ms.count == 5
    assert ms.log == [3, 3, 3, 1, 3]
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
    assert ms.log == [*range(5, 15), *range(5, 15), 0, 0, 29]


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
    assert v.read_many([0]).tolist() == [4]
    assert v.sub(2, 3).fetch() == [6, 7, 8]
    assert ms.count == 4


def test_block_reads_charge_as_one_read_per_block():
    # fetch_blocks/read_blocks against the same fetch/read_range calls one
    # block at a time: a view with an offset and without, a short last block,
    # empty starts, a repeated block
    runs = [([8, 0, 8], 8), ([16], 3), ([], 8), ([0], 0), ([16, 16], 3)]
    for offset in (0, 5):
        bulk, single = (MeteredString(range(100, 130), log=True, track_distinct=True) for _ in "xy")
        bulk_view, single_view = View(bulk, offset, 19), View(single, offset, 19)
        for starts, length in runs:
            blocks = bulk_view.fetch_blocks(starts, length)
            expected = [single_view.sub(s, length).fetch() for s in starts]
            # charged before the first block is taken
            assert (bulk.count, bulk.log, bulk.distinct_count()) == (
                single.count, single.log, single.distinct_count()
            )
            assert list(blocks) == expected  # in charge order
            assert list(blocks) == expected  # iterated any number of times
            blocks = bulk.read_blocks([offset + s for s in reversed(starts)], length)
            expected = [single.read_range(offset + s, length) for s in reversed(starts)]
            assert (bulk.count, bulk.log, bulk.distinct_count()) == (
                single.count, single.log, single.distinct_count()
            )
            assert list(blocks) == expected
        # out of bounds: the source checks the view's window, or its own;
        # a refused call charges nothing
        charged = (bulk.count, list(bulk.log), bulk.distinct_count())
        for starts, length in (([0, 12], 8), ([-1], 2), ([0], -1)):
            with pytest.raises(IndexError, match=r"out of bounds \[0, 19\)"):
                bulk_view.fetch_blocks(starts, length)
        for starts, length in (([0, 29], 2), ([-1, 3], 1), ([], -1), ([2**64, 0], 1)):
            with pytest.raises(IndexError, match=r"out of bounds \[0, 30\)"):
                bulk.read_blocks(starts, length)
        assert (bulk.count, bulk.log, bulk.distinct_count()) == charged


def test_read_many_bounds_name_the_first_bad_position():
    ms = MeteredString(list(range(10)), log=True)
    for positions, bad in (([3, -1, 10], -1), ([0, 10, -2], 10), ([9, 10], 10)):
        with pytest.raises(IndexError, match=rf"read at {bad} out of bounds \[0, 10\)"):
            ms.read_many(positions)
    assert ms.count == 0 and ms.log == []  # a refused call charges nothing
    assert ms.read_many([]).tolist() == [] and ms.read_many([9, 0, 9]).tolist() == [9, 0, 9]
    assert ms.count == 3 and ms.log == [9, 0, 9]


def test_view_read_many_bounds_are_the_view_s_own():
    ms = MeteredString(list(range(16)), log=True)
    v = View(ms, 4, 5)
    # 5 and -1 fall inside the source (9 and 3) but outside the view
    for positions, bad in (([0, 5], 5), ([2, -1, 7], -1), ([4, 6, -3], 6)):
        with pytest.raises(IndexError, match=rf"read at {bad} out of bounds \[0, 5\)"):
            v.read_many(positions)
    assert ms.count == 0
    assert v.read_many([4, 0, 4]).tolist() == [8, 4, 8] and ms.log == [8, 4, 8]
    whole = ms.view()
    assert whole.read_many([15, 0]).tolist() == [15, 0] and ms.log == [8, 4, 8, 15, 0]
    with pytest.raises(IndexError, match=r"read at 16 out of bounds \[0, 16\)"):
        whole.read_many([0, 16])


def test_read_many_takes_integer_positions_only():
    # a float or a str is refused as a list index refuses it, not truncated
    # or parsed; an int beyond int64 is out of bounds, named as given
    ms = MeteredString(list(range(16)), log=True, track_distinct=True)
    for reader, size in ((ms, 16), (View(ms, 4, 5), 5)):
        for positions in ([1.5], [0, "3"], np.array([1.0]), [1, None]):
            with pytest.raises(TypeError):
                reader.read_many(positions)
        beyond_int64 = (([0, 2**70], 2**70), ([-(2**64), 1], -(2**64)), ([2**63, 99], 2**63))
        for positions, bad in beyond_int64:
            with pytest.raises(IndexError, match=rf"read at {bad} out of bounds \[0, {size}\)"):
                reader.read_many(positions)
        with pytest.raises(IndexError, match=rf"read at {size} out of bounds"):
            reader.read_many([size, 2**70])  # the first bad position is named
    assert ms.count == 0 and ms.log == [] and ms.distinct_count() == 0
    # integer types other than int64 are read as the ints they are
    assert View(ms, 4, 5).read_many(np.array([4, 0], dtype=np.int32)).tolist() == [8, 4]
    assert ms.read_many((np.uint64(3), True)).tolist() == [3, 1] and ms.log == [8, 4, 3, 1]


def test_read_blocks_takes_integer_starts_only():
    # a float or a str start is refused before anything is charged, as
    # read_many refuses such positions; a float is never truncated
    ms = MeteredString(list(range(16)), log=True, track_distinct=True)
    for reader in (ms.read_blocks, View(ms, 4, 9).fetch_blocks):
        for starts in ([1.5], [0, "3"], np.array([1.0]), [1, None], [2.5, -0.5]):
            with pytest.raises(TypeError):
                reader(starts, 2)
    assert ms.count == 0 and ms.log == [] and ms.distinct_count() == 0
    # integer types other than int are read as the ints they are
    assert list(View(ms, 4, 9).fetch_blocks((np.int32(3), 0), 2)) == [[7, 8], [4, 5]]
    assert list(ms.read_blocks((np.uint64(3), True), 1)) == [[3], [1]]
    assert ms.log == [7, 8, 4, 5, 3, 1]
    # the blocks handed out are the ones charged, whatever the caller's
    # starts list becomes afterwards
    starts = [0]
    blocks = ms.read_blocks(starts, 2)
    starts[0] = 14
    assert list(blocks) == [[0, 1]] and ms.log[-2:] == [0, 1]


def test_read_blocks_takes_integer_arrays():
    # an integer array reads as the list of its ints, through a View with an
    # offset too; a float array is refused before anything is charged
    for offset in (0, 5):
        by_list, by_array = (
            MeteredString(range(100, 120), log=True, track_distinct=True) for _ in "ab"
        )
        listed = list(View(by_list, offset, 10).fetch_blocks([3, 0], 4))
        arrayed = View(by_array, offset, 10).fetch_blocks(np.array([3, 0], dtype=np.int32), 4)
        assert list(arrayed) == listed
        assert listed == [
            list(range(103 + offset, 107 + offset)), list(range(100 + offset, 104 + offset))
        ]
        assert (by_array.count, by_array.log, by_array.distinct_count()) == (
            by_list.count, by_list.log, by_list.distinct_count()
        )
        with pytest.raises(TypeError):
            View(by_array, offset, 10).fetch_blocks(np.array([3.0, 0.0]), 4)
        with pytest.raises(IndexError):
            View(by_array, offset, 10).fetch_blocks(np.array([7, 0], dtype=np.int64), 4)
        assert (by_array.count, by_array.log, by_array.distinct_count()) == (8, by_list.log, 7)
    assert list(MeteredString(range(4)).read_blocks(np.array([], dtype=np.int64), 2)) == []


def test_unequal_yields_the_charged_pairs_that_differ():
    # x and y differ at 3 and 11 only; windows with different offsets pair
    # their blocks by window-relative start, in charge order
    x = list(range(100, 120))
    y = [v + 50 if i in (3, 11) else v for i, v in enumerate(x)]
    xm, ym = MeteredString(x), MeteredString([0, 0, *y])
    xv, yv = View(xm, 0, 20), View(ym, 2, 20)
    starts = [8, 0, 12, 8, 2, 16]
    xs, ys = xv.fetch_blocks(starts, 4), yv.fetch_blocks(starts, 4)
    settled, same = set(), bytearray(20)
    got = list(xs.unequal(ys, settled, same))
    assert got == [(x[8:12], y[8:12]), (x[0:4], y[0:4]), (x[2:6], y[2:6])]
    assert settled == {0, 2, 8}  # every start yielded
    assert same == bytes(12) + b"\x01" * 8  # the equal pairs at 12 and 16
    assert list(xs.unequal(ys, settled, same)) == []  # nothing is yielded twice
    assert list(xs.unequal(ys, {8, 0}, same)) == [(x[2:6], y[2:6])]
    assert list(xs.unequal(ys, set(), bytearray(20))) == got
    empty = xv.fetch_blocks([], 4)
    assert list(empty.unequal(yv.fetch_blocks([], 4), settled, same)) == []


def test_unequal_refuses_reads_of_other_starts_or_size():
    # two reads pair only when they charged the same starts and size: a
    # mismatch raises before any block is sliced or any start settled
    x, y = MeteredString(range(20)), MeteredString(range(50, 70))
    xs = View(x, 2, 16).fetch_blocks([4, 0, 4], 3)
    others = (
        View(y, 0, 16).fetch_blocks([4, 0], 3),  # a start fewer
        View(y, 0, 16).fetch_blocks([0, 4, 4], 3),  # the same starts reordered
        View(y, 0, 16).fetch_blocks([4, 0, 8], 3),  # another start
        View(y, 0, 16).fetch_blocks([4, 0, 4], 2),  # another size
    )
    for other in others:
        settled, same = set(), bytearray(16)
        with pytest.raises(ValueError):
            next(xs.unequal(other, settled, same))
        assert settled == set() and same == bytes(16)
    # the start repeated inside the run is yielded once
    settled, same = set(), bytearray(16)
    same_starts = View(y, 0, 16).fetch_blocks([4, 0, 4], 3)
    assert list(xs.unequal(same_starts, settled, same)) == [
        ([6, 7, 8], [54, 55, 56]), ([2, 3, 4], [50, 51, 52])
    ]
    assert settled == {0, 4} and same == bytes(16)


class SliceCounting(list):
    """A list that counts the slices taken of it."""

    def __init__(self, data):
        super().__init__(data)
        self.slices = 0

    def __getitem__(self, key):
        self.slices += isinstance(key, slice)
        return super().__getitem__(key)


def test_unequal_never_slices_a_block_inside_an_equal_one():
    # windows at different offsets of x and y, which differ at window
    # position 13 only: the equal pair [0, 8) covers the blocks inside it,
    # which are skipped unsliced; a block reaching past the cover is sliced
    xl = list(range(100, 130))
    yl = [0, *xl]
    yl[1 + 3 + 13] += 50
    xb, yb, size = 3, 4, 20
    assert [i for i in range(size) if xl[xb + i] != yl[yb + i]] == [13]
    x, y = SliceCounting(xl), SliceCounting(yl)
    same, settled = bytearray(size), {}

    def unequal(length, starts):
        xs, ys = _Blocks(x, xb, length, starts), _Blocks(y, yb, length, starts)
        x.slices = y.slices = 0
        got = list(xs.unequal(ys, settled.setdefault(length, set()), same))
        return got, x.slices

    assert unequal(8, [0, 8, 0]) == ([(xl[11:19], yl[12:20])], 2)
    assert same == b"\x01" * 8 + bytes(12)
    assert unequal(4, [4, 0, 2, 4]) == ([], 0)  # inside [0, 8): no slice
    assert unequal(2, [6, 0, 3]) == ([], 0)
    # [6, 10) reaches past the cover: sliced, equal, and covered
    assert unequal(4, [6, 12]) == ([(xl[15:19], yl[16:20])], 2)
    assert same == b"\x01" * 10 + bytes(10)
    assert y.slices == 2
    # a yielded start is settled for its length, and a covered one is
    # skipped: neither is sliced again
    assert unequal(4, [12, 12, 6]) == ([], 0)
    assert unequal(2, [12, 12]) == ([(xl[15:17], yl[16:18])], 1)  # another length


def charged_positions(calls):
    """The positions [o + s, o + s + size) of (offset o, starts, size) reads."""
    return {o + s + i for o, starts, size in calls for s in starts for i in range(size)}


def test_distinct_count_is_the_union_of_charged_positions():
    # overlapping, repeated and zero-length blocks, a block that ends at the
    # last position, reads through a View with an offset, and read_range and
    # View.fetch, which are one-block reads
    ms = MeteredString(range(40), track_distinct=True)
    calls = []

    def blocks(offset, starts, size, length=None):
        length = 40 - offset if length is None else length
        View(ms, offset, length).fetch_blocks(starts, size)
        calls.append((offset, starts, size))
        assert ms.distinct_count() == len(charged_positions(calls))

    blocks(0, [0, 3, 5], 6)  # overlapping
    blocks(0, [20, 20, 20], 2)  # repeated
    blocks(0, [12, 40, 0], 0)  # zero length, one at the end of the string
    blocks(0, [34, 33], 6)  # ends at the last position
    blocks(7, [1, 12, 1], 3, length=20)  # through a View with an offset
    blocks(25, [], 4)
    assert ms.distinct_count() == 21
    ms.read_range(14, 4)
    calls.append((0, [14], 4))
    View(ms, 30, 5).sub(1, 3).fetch()
    calls.append((31, [0], 3))
    assert ms.distinct_count() == len(charged_positions(calls)) == 27
    empty = MeteredString([], track_distinct=True)
    empty.read_blocks([0, 0], 0)
    assert empty.view().fetch() == [] and empty.distinct_count() == 0


@given(
    st.lists(
        st.tuples(
            st.integers(0, 16), st.integers(0, 9), st.lists(st.integers(0, 1 << 10), max_size=6)
        ),
        max_size=6,
    )
)
def test_distinct_count_is_the_union_of_random_block_reads(reads):
    ms = MeteredString(range(24), track_distinct=True)
    calls = []
    for offset, size, raw in reads:
        size = min(size, 24 - offset)
        room = 24 - offset - size + 1  # the starts a block of this size can take
        starts = [r % room for r in raw]
        View(ms, offset, 24 - offset).fetch_blocks(starts, size)
        calls.append((offset, starts, size))
        assert ms.distinct_count() == len(charged_positions(calls))


def test_symbols_beyond_int64_read_back_exactly():
    # numpy would infer float64 for these and lose the low bits
    big = [2**63, 2**64 + 5, 7, 2**63 - 1]
    ms = MeteredString(big, log=True, track_distinct=True)
    assert ms.read_many([1, 0, 3, 2]).tolist() == [2**64 + 5, 2**63, 2**63 - 1, 7]
    assert View(ms, 1, 3).read_many([0, 2]).tolist() == [2**64 + 5, 2**63 - 1]
    assert ms.read(0) == 2**63 and type(ms.read(0)) is int
    assert ms.distinct_count() == 4 and ms.log == [1, 0, 3, 2, 1, 3, 0, 0]
    mixed = MeteredString([1, 2**63 + 1])
    assert mixed.read_many([1, 0]).tolist() == [2**63 + 1, 1]
    small = MeteredString([2**63 - 1, 0])
    assert small.read_many([0]).tolist() == [2**63 - 1] and type(small.read(1)) is int


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


@pytest.mark.parametrize("m", [1, 2, 3, 16, 131070, 2**63 + 1, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 50, 1000])
def test_uniform_indices_match_scalar_draws(m, count):
    # at m = 2^63 + 1 about half the draws are rejected and drawn again
    a = RandomStream(31)
    b = RandomStream(31)
    got = a.uniform_indices(m, count)
    assert got == [b.uniform_index(m) for _ in range(count)]
    assert all(type(v) is int for v in got)
    assert a._state == b._state
    # a step scales each draw: the starts of tiles of that length
    if m == 1 or (m - 1) * 3 < 2**64:
        assert RandomStream(31).uniform_indices(m, count, 3) == [3 * v for v in got]
    else:
        with pytest.raises(ValueError):
            RandomStream(31).uniform_indices(m, count, 3)
    if m == 1:
        assert a._state == RandomStream(31)._state


def test_uniform_indices_rejects_empty_range():
    with pytest.raises(ValueError):
        RandomStream(1).uniform_indices(0, 5)


parts_strategy = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([1, 2, 8, 1 << 40, 2**64]), st.integers(1, 10**6)),
        st.integers(0, 40),
        st.integers(1, 5),
    ),
    max_size=6,
)


@given(st.integers(0, 2**64 - 1), parts_strategy)
def test_uniform_parts_match_per_part_calls(seed, parts):
    # powers of two and other moduli, m = 1, count = 0 and step > 1
    parts = [(m, count, step if m < 2**64 else 1) for m, count, step in parts]
    a, b = RandomStream(seed), RandomStream(seed)
    got = a.uniform_parts(parts)
    assert all(v.dtype == np.uint64 for v in got)
    assert [v.tolist() for v in got] == [b.uniform_indices(*part) for part in parts]
    assert a._state == b._state


def test_uniform_parts_reject_in_the_middle_and_shift_later_parts():
    # about half the draws of m = 2^63 + 1 are rejected and drawn again, so
    # the parts after it start that many draws later
    parts = [(6, 50, 1), (2**63 + 1, 200, 1), (8, 30, 4), (10, 20, 3)]
    a, b = RandomStream(77), RandomStream(77)
    got = a.uniform_parts(parts)
    want = [[step * b.uniform_index(m) for _ in range(count)] for m, count, step in parts]
    assert [v.tolist() for v in got] == want
    assert a._state == b._state
    # each draw adds the odd constant _GOLDEN to the state, so its inverse
    # mod 2^64 turns the state's advance into the number of draws made
    drawn = (a._state - RandomStream(77)._state) * pow(0x9E3779B97F4A7C15, -1, 2**64) % 2**64
    assert drawn > 300 + 50  # 300 kept, and the middle part's rejected draws


@pytest.mark.parametrize(
    "draw",
    [
        pytest.param(lambda rs: rs.uniform_indices(8, -1), id="power-of-two"),
        pytest.param(lambda rs: rs.uniform_indices(10, -3), id="other-modulus"),
        pytest.param(lambda rs: rs.uniform_indices(1, -2), id="m-one"),
        pytest.param(lambda rs: rs.u64_block(-2), id="u64-block"),
        pytest.param(lambda rs: rs.uniform_parts([(8, 5, 1), (8, -5, 1)]), id="parts"),
        pytest.param(lambda rs: rs.uniform_parts([(8, 5, 1), (0, 5, 1)]), id="parts-empty-range"),
    ],
)
def test_refused_draws_raise_and_leave_the_state_alone(draw):
    # a negative count would move the state backwards, and let one part
    # cancel another part's draws
    rs = RandomStream(9)
    with pytest.raises(ValueError):
        draw(rs)
    assert rs._state == RandomStream(9)._state


@pytest.mark.parametrize(
    "draw",
    [
        pytest.param(lambda rs: rs.uniform_index(2**64 + 1), id="scalar"),
        pytest.param(lambda rs: rs.uniform_indices(2**65, 3), id="indices"),
        pytest.param(lambda rs: rs.uniform_parts([(8, 5, 1), (2**65 - 1, 1, 1)]), id="parts"),
    ],
)
def test_draws_past_2_64_are_refused(draw):
    # the rejection limit 2^64 - (2^64 mod m) is 0 for m > 2^64, so no draw
    # could be accepted; m = 2^64 itself takes every draw as it is
    rs = RandomStream(9)
    with pytest.raises(ValueError, match=r"needs m in \[1, 2\^64\], got "):
        draw(rs)
    assert rs._state == RandomStream(9)._state
    assert rs.uniform_index(2**64) == RandomStream(9).next_u64()


def test_bulk_symbols_in_range():
    rs = RandomStream(8)
    syms = rs.symbols(1000, 7)
    assert len(syms) == 1000 and all(0 <= s < 7 for s in syms)


@pytest.mark.parametrize("alphabet", [3 << 62, 2**64 - 1, 2**64])
def test_bulk_symbols_beyond_int64(alphabet):
    # the symbols are the draws folded into [0, alphabet), as ints
    syms = RandomStream(8).symbols(1000, alphabet)
    raw = RandomStream(8).u64_block(1000).tolist()
    assert syms == [v % alphabet for v in raw]
    assert all(type(s) is int for s in syms) and max(syms) >= 2**63
    with pytest.raises(ValueError):
        RandomStream(8).symbols(10, 2**64 + 1)


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
    assert [len(log) for log in result.plan] == [8, 8]


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
        # one read of every position, the same on every content
        x, y = (m.read_many(range(len(m))).tolist() for m in (xm, ym))
        seen.append((sum(a == b for a, b in zip(x, y)), max(x + y)))

    assert certify_non_adaptive(record, 256, seed=5, trials=5).passed
    assert any(same == 256 for same, _ in seen)
    assert any(top <= 1 and 0 < same < 256 for same, top in seen)


def test_certify_requires_multiple_contents():
    with pytest.raises(ValueError):
        certify_non_adaptive(_sampling_tester, 8, seed=1, trials=1)
