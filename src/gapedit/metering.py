"""Query-metered string access, seeded randomness, and non-adaptivity certification.

A tester is non-adaptive when the positions it reads depend only on
(n, parameters, seed) and never on previously read characters. The
certifier replays a tester on several contents under one seed and compares
the logged access sequences. The contents differ in how often x[i] == y[i],
so a tester that branches on symbol equality takes different paths on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .strings import View, symbols

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
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
        """Uniform draw from [0..m), unbiased via rejection."""
        if m < 1:
            raise ValueError(f"uniform_index needs m >= 1, got {m}")
        if m == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % m

    def child(self, label) -> "RandomStream":
        if isinstance(label, int):
            data = b"i" + label.to_bytes(8, "little", signed=True)
        else:
            data = b"s" + str(label).encode("utf-8")
        return RandomStream(_mix64(self.seed ^ _fnv1a64(data)))

    def u64_block(self, count: int) -> np.ndarray:
        """Vectorized draw of `count` values; matches `next_u64` sequence exactly."""
        states = (self._state + _GOLDEN * np.arange(1, count + 1, dtype=np.uint64)) & np.uint64(
            _MASK64
        )
        z = states
        z ^= z >> np.uint64(30)
        z = (z * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(_MASK64)
        z ^= z >> np.uint64(27)
        z = (z * np.uint64(0x94D049BB133111EB)) & np.uint64(_MASK64)
        z ^= z >> np.uint64(31)
        self._state = (self._state + _GOLDEN * count) & _MASK64
        return z

    def symbols(self, count: int, alphabet: int) -> list[int]:
        """count uniform-ish symbols in [0..alphabet). Bulk generation helper.

        Uses modulo folding; the bias is < alphabet / 2**64 and irrelevant for
        instance generation.
        """
        if alphabet < 1:
            raise ValueError("alphabet must be >= 1")
        if count == 0:
            return []
        return (self.u64_block(count) % np.uint64(alphabet)).astype(np.int64).tolist()


class MeteredString:
    """Read-only character source that counts (and optionally logs) every access."""

    __slots__ = ("_data", "count", "_log", "_touched")

    def __init__(self, data, *, log: bool = False, track_distinct: bool = False):
        self._data = symbols(data)
        self.count = 0
        self._log: Optional[list[int]] = [] if log else None
        self._touched: Optional[bytearray] = (
            bytearray(len(self._data)) if track_distinct else None
        )

    def __len__(self) -> int:
        return len(self._data)

    @property
    def log(self) -> list[int]:
        if self._log is None:
            raise RuntimeError("access logging is not enabled")
        return self._log

    def view(self) -> View:
        return View(self, 0, len(self._data))

    def raw(self) -> list[int]:
        """The underlying symbols, without charging the meter."""
        return self._data

    def read(self, i: int) -> int:
        if not 0 <= i < len(self._data):
            raise IndexError(f"read at {i} out of bounds [0, {len(self._data)})")
        self.count += 1
        if self._log is not None:
            self._log.append(i)
        if self._touched is not None:
            self._touched[i] = 1
        return self._data[i]

    def read_many(self, positions: Sequence[int]) -> list[int]:
        data = self._data
        n = len(data)
        for p in positions:
            if not 0 <= p < n:
                raise IndexError(f"read at {p} out of bounds [0, {n})")
        self.count += len(positions)
        if self._log is not None:
            self._log.extend(positions)
        if self._touched is not None:
            t = self._touched
            for p in positions:
                t[p] = 1
        return [data[p] for p in positions]

    def read_range(self, start: int, length: int) -> list[int]:
        if length < 0 or start < 0 or start + length > len(self._data):
            raise IndexError(f"read_range({start}, {length}) out of bounds")
        self.count += length
        if self._log is not None:
            self._log.extend(range(start, start + length))
        if self._touched is not None:
            self._touched[start : start + length] = b"\x01" * length
        return self._data[start : start + length]

    def distinct_count(self) -> int:
        if self._touched is None:
            raise RuntimeError("distinct tracking is not enabled")
        return sum(self._touched)

    def reset(self) -> None:
        self.count = 0
        if self._log is not None:
            self._log.clear()
        if self._touched is not None:
            self._touched[:] = bytes(len(self._touched))


@dataclass(frozen=True)
class SamplePlan:
    """A fixed list of (string-id, position) reads; 'X' or 'Y' per entry."""

    entries: tuple[tuple[str, int], ...]

    def validate_bounds(self, nx: int, ny: int) -> None:
        for sid, pos in self.entries:
            bound = nx if sid == "X" else ny
            if sid not in ("X", "Y") or not 0 <= pos < bound:
                raise ValueError(f"plan entry {(sid, pos)} out of bounds")


@dataclass(frozen=True)
class CertificationResult:
    passed: bool
    trials: int
    plan: Optional[SamplePlan] = None
    witness: Optional[tuple[int, tuple, tuple]] = None

    def __bool__(self) -> bool:
        return self.passed


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
    reference: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    for t in range(trials):
        crs = RandomStream(seed).child(f"content-{t}")
        x, y = _CONTENTS[t % len(_CONTENTS)](crs, n, alphabet)
        xm = MeteredString(x, log=True)
        ym = MeteredString(y, log=True)
        tester(xm, ym, RandomStream(seed))
        logs = (tuple(xm.log), tuple(ym.log))
        if reference is None:
            reference = logs
        elif logs != reference:
            return CertificationResult(False, trials, witness=(t, reference, logs))
    assert reference is not None
    plan = SamplePlan(
        tuple(("X", p) for p in reference[0]) + tuple(("Y", p) for p in reference[1])
    )
    plan.validate_bounds(n, n)
    return CertificationResult(True, trials, plan=plan)
