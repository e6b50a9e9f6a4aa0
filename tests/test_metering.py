"""Metered access, seeded randomness, and the non-adaptivity certifier."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapedit.metering import MeteredString, RandomStream, certify_non_adaptive
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
        # out of bounds: the source checks the view's window, or its own,
        # and names the first bad start as given, then the block length; a
        # negative length is refused before any start is looked at; a
        # refused call charges nothing
        charged = (bulk.count, list(bulk.log), bulk.distinct_count())
        for starts, length, bad in (
            ([0, 12], 8, 12), ([-1], 2, -1), ([0], -1, None), ([1.5], -1, None)
        ):
            with pytest.raises(IndexError, match=bounds_message(bad, 19, length)):
                bulk_view.fetch_blocks(starts, length)
        for starts, length, bad in (
            ([0, 29], 2, 29), ([-1, 3], 1, -1), ([], -1, None), ([2**64, 0], 1, 2**64)
        ):
            with pytest.raises(IndexError, match=bounds_message(bad, 30, length)):
                bulk.read_blocks(starts, length)
        assert (bulk.count, bulk.log, bulk.distinct_count()) == charged


def bounds_message(bad, length, size):
    """The whole IndexError message of a block read refused at start `bad`
    of a window of `length`, or, for bad None, for its negative size."""
    if bad is None:
        return rf"^read of a block of length {size} out of bounds \[0, {length}\)$"
    return rf"^read at {bad} out of bounds \[0, {length}\) for a block of length {size}$"


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
    # starts list or array becomes afterwards
    for starts in ([0, 5], np.array([0, 5], dtype=np.int64), np.array([0, 5], dtype=np.uint64)):
        blocks = ms.read_blocks(starts, 2)
        starts[0] = 14
        assert list(blocks) == [[0, 1], [5, 6]] and blocks[0] == [0, 1]
        assert ms.log[-4:] == [0, 1, 5, 6]


def test_iterators_are_read_once_and_refusals_name_the_position():
    # an iterator or a generator cannot be indexed: the charge routine reads
    # it into a list once, so a refused position raises IndexError naming it
    # as given, an int beyond int64 too, and nothing is charged
    ms = MeteredString(range(4), log=True, track_distinct=True)
    for make in (iter, lambda p: (v for v in p)):
        for positions, bad in (([9], 9), ([1, -2], -2), ([0, 2**70], 2**70)):
            with pytest.raises(IndexError, match=bounds_message(bad, 4, 1)):
                ms.read_many(make(positions))
            with pytest.raises(IndexError, match=bounds_message(bad, 4, 1)):
                ms.read_blocks(make(positions), 1)
            with pytest.raises(IndexError, match=bounds_message(bad, 3, 1)):
                View(ms, 1, 3).read_many(make(positions))
    assert (ms.count, ms.log, ms.distinct_count()) == (0, [], 0)
    # an accepted iterator reads as its list
    assert ms.read_many(iter([3, 0])).tolist() == [3, 0]
    assert list(ms.read_blocks((s for s in [2, 0]), 2)) == [[2, 3], [0, 1]]
    assert list(View(ms, 1, 3).fetch_blocks(iter([1]), 2)) == [[2, 3]]
    assert ms.log == [3, 0, 2, 3, 0, 1, 2, 3] and ms.distinct_count() == 4


def test_block_handles_own_their_starts():
    # an int64 array at window start 0 is charged as the caller's own array,
    # with no copy; a handle still copies it, so writes to the caller's array
    # after the read do not move the blocks handed out
    ms = MeteredString(range(100, 116), log=True)
    for reader in (ms.read_blocks, ms.view().fetch_blocks, View(ms, 2, 12).fetch_blocks):
        starts = np.array([0, 5, 3], dtype=np.int64)
        blocks = reader(starts, 2)
        want = [blocks[i] for i in range(3)]
        starts[:] = [9, 1, 7]
        assert [blocks[i] for i in range(3)] == want and list(blocks) == want
        assert starts.tolist() == [9, 1, 7]
    assert ms.log[:6] == [0, 1, 5, 6, 3, 4]
    # a gather hands back fresh symbols, and leaves the caller's array alone
    positions = np.array([4, 0], dtype=np.int64)
    got = ms.read_many(positions)
    positions[0] = 1
    assert got.tolist() == [104, 100] and positions.tolist() == [1, 0]


def test_read_blocks_takes_integer_arrays():
    # an integer array of any width or sign reads as the list of its ints,
    # through a View with an offset too; a float array, a start outside the
    # window (a negative int64 one, or a uint64 one of 2^63 or more, which
    # an int64 view would read as negative) are refused, charging nothing
    for offset, dtype in product((0, 5), (np.int32, np.int64, np.uint64)):
        by_list, by_array = (
            MeteredString(range(100, 120), log=True, track_distinct=True) for _ in "ab"
        )
        listed = list(View(by_list, offset, 10).fetch_blocks([3, 0], 4))
        arrayed = View(by_array, offset, 10).fetch_blocks(np.array([3, 0], dtype=dtype), 4)
        assert list(arrayed) == listed
        assert listed == [
            list(range(103 + offset, 107 + offset)), list(range(100 + offset, 104 + offset))
        ]
        assert (by_array.count, by_array.log, by_array.distinct_count()) == (
            by_list.count, by_list.log, by_list.distinct_count()
        )
        with pytest.raises(TypeError):
            View(by_array, offset, 10).fetch_blocks(np.array([3.0, 0.0]), 4)
        refused = [np.array([7, 0], dtype=dtype)]
        if dtype == np.uint64:
            refused += [np.array([0, 2**63], dtype=dtype), np.array([2**64 - 1], dtype=dtype)]
        else:
            refused += [np.array([0, -1], dtype=dtype), np.array([-(2**31)], dtype=dtype)]
        for starts in refused:
            with pytest.raises(IndexError, match=r"out of bounds \[0, 10\)"):
                View(by_array, offset, 10).fetch_blocks(starts, 4)
        for starts in refused[1:]:
            with pytest.raises(IndexError, match=r"out of bounds \[0, 20\)"):
                by_array.read_blocks(starts, 1)
        assert (by_array.count, by_array.log, by_array.distinct_count()) == (8, by_list.log, 7)
    assert list(MeteredString(range(4)).read_blocks(np.array([], dtype=np.int64), 2)) == []


def charge_state(ms):
    """What reads have charged to `ms`: its count, log and distinct count."""
    return ms.count, list(ms.log), ms.distinct_count()


@given(
    st.integers(0, 12),
    st.one_of(st.none(), st.integers(0, 12)),
    st.lists(
        st.tuples(
            st.lists(
                st.one_of(
                    st.integers(-3, 15),
                    st.integers(-(2**70), 2**70),
                    st.sampled_from([2**63, -(2**63) - 1, 1.5]),
                ),
                max_size=8,
            ),
            st.booleans(),
        ),
        max_size=4,
    ),
)
def test_read_many_and_size_one_blocks_charge_alike(start, length, reads):
    # read_many(p) and read_blocks(p, 1) over one window, with an offset or
    # none and the default length or a given one: the same symbols, the same
    # count, log and distinct marks, and the same refusals, charging nothing
    if length is not None:
        length = min(length, 12 - start)
    gather, blocks = (MeteredString(range(100, 112), log=True, track_distinct=True) for _ in "ab")
    for positions, as_array in reads:
        if as_array and all(isinstance(p, int) and -(2**63) <= p < 2**63 for p in positions):
            positions = np.array(positions, dtype=np.int64)
        got = []
        for ms, read in (
            (gather, lambda p: gather.read_many(p, start, length).tolist()),
            (blocks, lambda p: [b[0] for b in blocks.read_blocks(p, 1, start, length)]),
        ):
            before = charge_state(ms)
            try:
                got.append(read(positions))
            except (IndexError, TypeError) as exc:
                got.append(type(exc))
                assert charge_state(ms) == before
        assert got[0] == got[1]
        assert charge_state(gather) == charge_state(blocks)


class SliceCounting(list):
    """A list that records the slices taken of it, as (start, stop) pairs."""

    def __init__(self, data):
        super().__init__(data)
        self.slices = []

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices.append((key.start, key.stop))
        return super().__getitem__(key)


def test_block_handles_index_the_charged_blocks():
    # handle[i] slices the i-th charged block, in charge order, through a
    # View with an offset; reading slices nothing, and an index past the
    # last charged block raises IndexError and charges nothing
    ms = MeteredString(range(100, 120), log=True)
    data = ms._data = SliceCounting(ms._data)
    blocks = View(ms, 5, 12).fetch_blocks([6, 0, 6, 3], 4)
    assert data.slices == [] and len(blocks) == 4
    assert blocks[3] == [108, 109, 110, 111] and data.slices == [(8, 12)]
    assert [blocks[i] for i in range(4)] == list(blocks) == [
        [111, 112, 113, 114], [105, 106, 107, 108], [111, 112, 113, 114], [108, 109, 110, 111]
    ]
    assert blocks[-4] == blocks[0]
    empty = ms.read_blocks([], 4)
    assert len(empty) == 0 and list(empty) == []
    for handle, past in ((blocks, 4), (empty, 0)):
        with pytest.raises(IndexError):
            handle[past]
    assert ms.count == 16 and ms.log == [*range(11, 15), *range(5, 9), *range(11, 15), *range(8, 12)]


def test_default_window_runs_from_start_to_the_end_of_the_string():
    # with no length the window is [start, len): a read past its end is
    # refused before anything is charged, with or without distinct marks
    for track in (False, True):
        ms = MeteredString(range(10), log=True, track_distinct=track)
        for read in (
            lambda: ms.read_many([7], start=5),
            lambda: ms.read_blocks([6], 3, start=5),
            lambda: ms.read_blocks([3], 3, start=5),
        ):
            with pytest.raises(IndexError):
                read()
        assert ms.count == 0 and ms.log == []
        assert not track or ms.distinct_count() == 0
        assert ms.read_many([4, 0], start=5).tolist() == [9, 5]
        assert list(ms.read_blocks([2], 3, start=5)) == [[7, 8, 9]]
        assert ms.count == 5 and ms.log == [9, 5, 7, 8, 9]
        assert not track or ms.distinct_count() == 4


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
