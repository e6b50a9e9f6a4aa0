"""Query-metered string access, seeded randomness, and non-adaptivity certification.

A tester is non-adaptive when the positions it reads depend only on
(n, parameters, seed) and never on previously read characters. The
certifier replays a tester on several contents under one seed and compares
the logged access sequences. The contents differ in how often x[i] == y[i],
so a tester that branches on symbol equality takes different paths on them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .strings import View, symbols

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# the same constants as uint64 scalars, built once for u64_block
_U_GOLDEN, _U_MUL1, _U_MUL2 = np.uint64(_GOLDEN), np.uint64(_MUL1), np.uint64(_MUL2)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MUL1) & _MASK64
    z ^= z >> 27
    z = (z * _MUL2) & _MASK64
    z ^= z >> 31
    return z


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & _MASK64
    return h


class RandomStream:
    """Deterministic, platform-independent pseudo-random stream.

    Pure 64-bit integer arithmetic: identical seeds give identical draws on
    every platform. Children derived by (seed, label) are independent of
    sibling draws and never advance the parent.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform_index(self, m: int) -> int:
        """Uniform draw from [0..m), unbiased via rejection; 1 <= m <= 2^64."""
        if not 1 <= m <= 1 << 64:
            raise ValueError(f"uniform_index needs m in [1, 2^64], got {m}")
        if m == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % m

    def uniform_indices(self, m: int, count: int, step: int = 1) -> list[int]:
        """`count` draws of `step * uniform_index(m)`: the one-part case of
        `uniform_parts`, as a list."""
        return self.uniform_parts(((m, count, step),))[0].tolist()

    def uniform_parts(self, parts: Sequence[tuple[int, int, int]]) -> list[np.ndarray]:
        """`uniform_indices(m, count, step)` for each part (m, count, step) in
        turn, drawn from one `u64_block`: the same values, as uint64 arrays,
        and the same final state.

        A part with m = 1 draws nothing. Otherwise its accepted draws are kept
        in order and each rejected one is drawn again after the part's last,
        so a rejection shifts every later part by one draw, as back-to-back
        calls would. A draw is scaled by `step` before it leaves the array, so
        (m - 1) * step must stay below 2^64. Every part is checked before
        anything is drawn, so a refused call leaves the state alone.
        """
        # a part accepts the draws below 2^64 - (2^64 mod m), so none is
        # rejected when m is a power of two
        spare = 0  # the largest 2^64 mod m of a part that draws
        for m, count, step in parts:
            if count < 0:
                raise ValueError(f"uniform_indices needs count >= 0, got {count}")
            if not 1 <= m <= 1 << 64:
                raise ValueError(f"uniform_indices needs m in [1, 2^64], got {m}")
            if m > 1 and not (step >= 1 and (m - 1) * step < 1 << 64):
                raise ValueError(f"uniform_indices needs 1 <= step < 2^64 / (m - 1), got {step}")
            if count and (1 << 64) % m > spare:
                spare = (1 << 64) % m
        z = self.u64_block(sum(count for m, count, _ in parts if m > 1))
        # one test over the whole block: if every draw is below the least
        # limit, nothing is rejected and no part is filtered
        clean = not spare or int(z.max()) < (1 << 64) - spare
        i, out = 0, []
        for m, count, step in parts:
            if m == 1 or not count:
                out.append(np.zeros(count, np.uint64))
                continue
            whole = m & (m - 1) == 0
            limit = None if clean or whole else np.uint64((1 << 64) - (1 << 64) % m)
            kept, need = [], count
            while need:
                if i + need > len(z):  # past the block: draw the rejected ones again
                    z = np.concatenate((z[i:], self.u64_block(i + need - len(z))))
                    i = 0
                w = z[i : i + need]
                i += need
                if limit is not None:
                    w = w[w < limit]
                kept.append(w)
                need -= len(w)
            v = kept[0] if len(kept) == 1 else np.concatenate(kept)
            v = v & np.uint64(m - 1) if whole else v % np.uint64(m)
            if step > 1:
                v *= np.uint64(step)
            out.append(v)
        return out

    def child(self, label) -> "RandomStream":
        if isinstance(label, int):
            data = b"i" + label.to_bytes(8, "little", signed=True)
        else:
            data = b"s" + str(label).encode("utf-8")
        return RandomStream(_mix64(self.seed ^ _fnv1a64(data)))

    def u64_block(self, count: int) -> np.ndarray:
        """Vectorized draw of `count` values; matches `next_u64` sequence exactly."""
        if count < 0:
            raise ValueError(f"u64_block needs count >= 0, got {count}")
        z = np.arange(1, count + 1, dtype=np.uint64)  # uint64 arithmetic wraps mod 2^64
        z *= _U_GOLDEN
        z += np.uint64(self._state)
        z ^= z >> _U30
        z *= _U_MUL1
        z ^= z >> _U27
        z *= _U_MUL2
        z ^= z >> _U31
        self._state = (self._state + _GOLDEN * count) & _MASK64
        return z

    def symbols(self, count: int, alphabet: int) -> list[int]:
        """count uniform-ish symbols in [0..alphabet). Bulk generation helper.

        Uses modulo folding; the bias is < alphabet / 2**64 and irrelevant for
        instance generation.
        """
        if not 1 <= alphabet <= 1 << 64:
            raise ValueError(f"alphabet must lie in [1, 2^64], got {alphabet}")
        z = self.u64_block(count)
        # ints as drawn: an int64 cast would wrap values of 2^63 and above
        return (z if alphabet == 1 << 64 else z % np.uint64(alphabet)).tolist()


def _mirror(data: list[int]) -> np.ndarray:
    """`data` as an array to gather from: int64, or Python ints (dtype object)
    when a symbol is beyond int64. The dtype is never inferred, since numpy
    would make [1, 2**63] a float64 array and lose the value."""
    try:
        return np.array(data, dtype=np.int64)
    except OverflowError:
        return np.array(data, dtype=object)


def _int64_index(p) -> int:
    """p as a list index takes it (an int: 1.5 or '3' raise TypeError), or
    -1 for an int beyond int64; either way outside a window iff p is."""
    i = operator.index(p)
    return i if -(1 << 63) <= i < 1 << 63 else -1


def _int64_positions(positions: Sequence[int] | np.ndarray) -> np.ndarray:
    """`positions` as an int64 array: an int64 array as given, anything else
    through `_int64_index`, so a float or a str raises TypeError and an int
    beyond int64 becomes -1, outside any window."""
    if isinstance(positions, np.ndarray) and positions.dtype == np.int64:
        return positions
    return np.fromiter(map(_int64_index, positions), dtype=np.int64)


class _Blocks:
    """The blocks [s, s + size) of `data` at the absolute starts that
    `MeteredString._charge` returned, as a sequence in charge order:
    `handle[i]` slices the i-th charged block, and no block that was not
    charged can be. The starts array is the handle's own (`read_blocks`
    copies a caller's array), so the blocks handed out are those charged
    whatever the caller's starts become."""

    __slots__ = ("_data", "_size", "_starts")

    def __init__(self, data: list[int], size: int, starts: np.ndarray):
        self._data, self._size, self._starts = data, size, starts

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i: int) -> list[int]:
        begin = self._starts.item(i)
        return self._data[begin : begin + self._size]


class MeteredString:
    """Read-only character source that counts (and optionally logs) every access.

    It charges reads and slices the blocks it charged, and decides nothing:
    the block reductions compare their pairs in `reductions._run_gap_calls`.

    Every read is charged by one routine, ``_charge``: ``read_many`` charges
    blocks of size 1 and gathers their symbols from a numpy mirror of the
    string, built on its first call (``_mirror``: int64 unless a symbol is
    beyond int64), and ``read_blocks`` charges blocks of any size and hands
    them back unsliced. Distinct positions are marked in the ``_touched``
    bytearray with one numpy write per call.
    """

    __slots__ = ("_data", "count", "_log", "_touched", "_marks", "_array")

    def __init__(self, data, *, log: bool = False, track_distinct: bool = False):
        self._data = symbols(data)
        self.count = 0
        self._log: Optional[list[int]] = [] if log else None
        self._touched: Optional[bytearray] = None
        self._marks: Optional[np.ndarray] = None
        if track_distinct:
            self._touched = bytearray(len(self._data))
            self._marks = np.frombuffer(self._touched, dtype=np.uint8)
        self._array: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._data)

    @property
    def log(self) -> list[int]:
        if self._log is None:
            raise RuntimeError("access logging is not enabled")
        return self._log

    def view(self) -> View:
        return View(self, 0, len(self._data))

    def _charge(
        self, positions: Sequence[int] | np.ndarray, size: int, start: int, length: Optional[int]
    ) -> np.ndarray:
        """Charge the blocks [p, p + size) for p in `positions` of the window
        [start, start + length) (default: from start to the end of the
        string), and return their absolute starts as an int64 array: the
        caller's own when `positions` is an int64 array and start is 0, else
        a fresh one.

        Positions are ints, as a list index takes them (`_int64_positions`):
        a float or a str raises TypeError. An iterable that cannot be indexed,
        such as an iterator, is read into a list once, so that a refusal can
        name its position. A negative size raises IndexError
        before any position is looked at, and so does, naming the first as
        given, a position outside [0, length - size], an int beyond int64
        too. A refused call charges nothing. Otherwise every block is charged
        with whole-array operations, in the order given: size positions
        each to `count`, one expansion to the log, and one write to the
        distinct marks.
        """
        if length is None:
            length = len(self._data) - start
        if size < 0:
            raise IndexError(f"read of a block of length {size} out of bounds [0, {length})")
        if not hasattr(positions, "__getitem__"):
            positions = list(positions)
        pos = _int64_positions(positions)
        if not pos.size:
            return np.zeros(0, np.int64)
        last = length - size
        # through the unsigned view a negative position reads as >= 2^63, so
        # one comparison checks both ends of every block
        if int(pos.view(np.uint64).max()) > last:
            bad = next(i for i, p in enumerate(pos.tolist()) if not 0 <= p <= last)
            raise IndexError(
                f"read at {positions[bad]} out of bounds [0, {length}) for a block of length {size}"
            )
        if start:
            pos = pos + start
        self.count += size * pos.size
        if self._log is not None:
            self._log.extend((pos[:, None] + np.arange(size)).ravel().tolist())
        if self._marks is not None:
            # size 1 marks the flat view; otherwise row s of an overlapping
            # view is the block [s, s + size), so one fancy-index write marks
            # every block
            rows = self._marks if size == 1 else np.ndarray(
                (len(self._data) - size + 1, size), np.uint8, self._touched, 0, (1, 1)
            )
            rows[pos] = 1
        return pos

    def read(self, i: int) -> int:
        return int(self.read_many([i])[0])

    def read_many(
        self, positions: Sequence[int] | np.ndarray, start: int = 0, length: Optional[int] = None
    ) -> np.ndarray:
        """The symbols at `positions` of the window [start, start + length)
        (default: from start to the end of the string), which lies inside the
        string as a View's does, gathered as one array in the order given.

        Each position is charged as a block of size 1 by `_charge`: a float
        or a str raises TypeError, a position outside the window, an int
        beyond int64 too, raises IndexError naming the first such position,
        and a refused call charges nothing.
        """
        data = self._array
        if data is None:
            data = self._array = _mirror(self._data)
        return data[self._charge(positions, 1, start, length)]

    def read_blocks(
        self,
        starts: Sequence[int] | np.ndarray,
        size: int,
        start: int = 0,
        length: Optional[int] = None,
    ) -> _Blocks:
        """The blocks [s, s + size) for s in `starts` of the window
        [start, start + length) (default: from start to the end of the
        string), as in read_many.

        The blocks are charged by `_charge`, as read_many's positions are:
        a float or a str start raises TypeError, an integer array is read as
        its ints, a block outside the window raises IndexError naming the
        first bad start, and a refused call charges nothing. Every block
        (count, log in the order given, and distinct positions) is charged
        before the call returns the blocks as a sequence in charge order,
        unsliced: a block is sliced only when indexed.
        """
        pos = self._charge(starts, size, start, length)
        # a handle keeps starts of its own, whatever the caller's become
        return _Blocks(self._data, size, pos.copy() if pos is starts else pos)

    def read_range(self, start: int, length: int) -> list[int]:
        """The block [start, start + length): the one-start case of `read_blocks`."""
        return self.read_blocks((start,), length)[0]

    def distinct_count(self) -> int:
        if self._touched is None:
            raise RuntimeError("distinct tracking is not enabled")
        return self._touched.count(1)


Logs = tuple[list[int], list[int]]  # positions read of x, then of y, in order


@dataclass(frozen=True)
class CertificationResult:
    """A PASS carries the plan: the (x, y) read logs every content produced.

    A FAIL carries (t, first logs, content t's logs) for the first content
    pair t whose logs differ.
    """

    passed: bool
    trials: int
    plan: Optional[Logs] = None
    witness: Optional[tuple[int, Logs, Logs]] = None


Tester = Callable[[MeteredString, MeteredString, RandomStream], object]


def _uniform_pair(rs: RandomStream, n: int, alphabet: int):
    return rs.child("x").symbols(n, alphabet), rs.child("y").symbols(n, alphabet)


def _equal_pair(rs: RandomStream, n: int, alphabet: int):
    x = rs.child("x").symbols(n, alphabet)
    return x, list(x)


def _binary_pair(rs: RandomStream, n: int, alphabet: int):
    return _uniform_pair(rs, n, 2)


def _planted_pair(rs: RandomStream, n: int, alphabet: int):
    """x and a copy with a few substitutions."""
    x = rs.child("x").symbols(n, alphabet)
    y = list(x)
    edits = rs.child("edits")
    for _ in range(min(n, 3)):
        i = edits.uniform_index(n)
        y[i] = (y[i] + 1) % max(alphabet, 2)
    return x, y


def _rotated_pair(rs: RandomStream, n: int, alphabet: int):
    x = rs.child("x").symbols(n, alphabet)
    s = max(1, n // 16)
    return x, x[n - s :] + x[: n - s]


# Content pair t is _CONTENTS[t % len(_CONTENTS)]. Over a large alphabet the
# pairs differ at almost every position, at none, at about half (binary), at
# a few, and at almost every position again but equal after a shift.
_CONTENTS = (_uniform_pair, _equal_pair, _binary_pair, _planted_pair, _rotated_pair)


def certify_non_adaptive(
    tester: Tester,
    n: int,
    seed: int,
    trials: int = 5,
    alphabet: int = 1 << 30,
) -> CertificationResult:
    """Replay `tester` under one seed on `trials` content pairs of length n.

    The pairs cycle through uniform symbols over `alphabet`, y = x, a binary
    alphabet, a few planted substitutions and a rotation. PASS iff the logged
    access-position sequences are identical across all contents; FAIL
    returns the first divergent pair of logs.
    """
    if trials < 2:
        raise ValueError("certification needs at least 2 content trials")
    if n < 1:
        raise ValueError(f"certification needs n >= 1, got {n}")
    reference: Optional[Logs] = None
    for t in range(trials):
        crs = RandomStream(seed).child(f"content-{t}")
        x, y = _CONTENTS[t % len(_CONTENTS)](crs, n, alphabet)
        xm = MeteredString(x, log=True)
        ym = MeteredString(y, log=True)
        tester(xm, ym, RandomStream(seed))
        logs = (xm.log, ym.log)
        if reference is None:
            reference = logs
        elif logs != reference:
            return CertificationResult(False, trials, witness=(t, reference, logs))
    return CertificationResult(True, trials, plan=reference)
