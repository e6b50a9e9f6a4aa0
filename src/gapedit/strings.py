"""Exact edit-distance computations: ground truth and leaf oracles.

A symbol is an unsigned integer code point. ``symbols`` is the one
normaliser, run by ``MeteredString`` where input enters; ``as_view`` wraps
raw input in one. Below that a string is a ``View`` of a ``MeteredString``
or the list its ``fetch`` returned: the distance kernels use the sequences
they are given (two ``str`` work too) and never fetch a ``View``. All
functions here are pure and safe to call from multiple threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:  # importing this module loads no numpy
    import numpy as np

    from .metering import _Blocks

YES = "YES"
NO = "NO"
GAP = "GAP"


class _Exceeds:
    """Sentinel returned by the banded gap solver when the distance exceeds the threshold."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "EXCEEDS"


EXCEEDS = _Exceeds()


def symbols(s: Union[str, bytes, Iterable[int]]) -> list[int]:
    """Normalize text/bytes/int iterables into a list of symbol code points."""
    if isinstance(s, str):
        return [ord(c) for c in s]
    if isinstance(s, (bytes, bytearray)):
        return list(s)
    out = list(s)
    for v in out:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"symbols must be nonnegative ints, got {v!r}")
    return out


@dataclass(frozen=True)
class View:
    """A (source, start, length) window into a ``MeteredString``.

    Every read goes through the source with the view's window; the source
    checks it, once, and charges it, so a read outside the view raises the
    source's IndexError. Sub-views compose: ``v.sub(a, l).sub(b, m) == v.sub(a + b, m)``.
    """

    source: object
    start: int
    length: int

    def __post_init__(self):
        if self.start < 0 or self.length < 0:
            raise ValueError("view start/length must be nonnegative")
        if self.start + self.length > len(self.source):  # type: ignore[arg-type]
            raise ValueError("view exceeds source bounds")

    def __len__(self) -> int:
        return self.length

    def sub(self, start: int, length: int) -> "View":
        if start < 0 or length < 0 or start + length > self.length:
            raise ValueError("sub-view out of bounds")
        return View(self.source, self.start + start, length)

    def read_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """The symbols at `positions` of this view, gathered as one array."""
        return self.source.read_many(positions, self.start, self.length)

    def fetch(self) -> list[int]:
        """The whole view as a list, charged to the source."""
        return self.source.read_range(self.start, self.length)

    def fetch_blocks(self, starts: Sequence[int] | np.ndarray, length: int) -> _Blocks:
        """The sub-ranges [s, s + length) for s in `starts`, all charged to
        the source when called, as a sequence in charge order: the source
        slices a block only when it is indexed, and comparing blocks is the
        caller's job. The source's one charge routine checks the starts
        against the view and charges them with whole-array operations; an
        int64 array of starts, as a plan's runs hold them, is used with no
        conversion."""
        return self.source.read_blocks(starts, length, self.start, self.length)


def as_view(s) -> View:
    """``s`` if it is a View, else a View of a fresh ``MeteredString(s)``."""
    if isinstance(s, View):
        return s
    from .metering import MeteredString  # metering imports this module

    return MeteredString(s).view()


@dataclass(frozen=True)
class GapInstance:
    """A gap decision instance: YES means ED <= beta, NO means ED > alpha."""

    x: View
    y: View
    alpha: int
    beta: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("gap instance needs equal-length strings")
        if not self.alpha >= self.beta >= 0:
            raise ValueError(f"need alpha >= beta >= 0, got {self.alpha}, {self.beta}")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ShiftedInstance:
    """A shifted gap instance: YES means ED_beta <= gamma, NO means ED > 3*alpha."""

    x: View
    y: View
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("shifted instance needs equal-length strings")
        if not self.alpha >= self.beta >= self.gamma >= 0:
            raise ValueError(
                f"need alpha >= beta >= gamma >= 0, got "
                f"{self.alpha}, {self.beta}, {self.gamma}"
            )

    @property
    def n(self) -> int:
        return len(self.x)


# ---------------------------------------------------------------------------
# Exact edit distance (bit-parallel, Myers 1999 / Hyyro 2003)
# ---------------------------------------------------------------------------


def ed_exact(x, y) -> int:
    """Minimum number of insertions, deletions, and substitutions turning x into y.

    Myers' bit-vector algorithm in Hyyro's global-distance form, on Python
    ints: the shorter string is the pattern, and bit i of the vertical
    deltas ``pv``/``mv`` holds whether D[i+1][j] - D[i][j] is +1/-1 in the
    current column j. Each symbol of the longer string updates one column
    with a constant number of big-int operations under an m-bit mask, and
    the score follows the bottom row D[m][j]. ``peq`` maps each pattern
    symbol to its position mask, so any int alphabet works; symbols absent
    from the pattern match nothing. Time O(n * ceil(m / w)) for w-bit
    big-int digits.
    """
    if len(x) < len(y):
        x, y = y, x
    m = len(y)
    if m == 0:
        return len(x)
    peq: dict[int, int] = {}
    bit = 1
    for c in y:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    top = bit >> 1
    pv, mv, score = mask, 0, m
    get = peq.get
    for c in x:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)  # a carry into bit m of xh is masked off below
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ph << 1 | 1  # row 0 is D[0][j] = j: every horizontal delta there is +1
        pv = (mh << 1 | (xv | ph) ^ mask) & mask
        mv = ph & xv
    return score


def ed_lower_bound(x, y) -> int:
    """A cheap certified lower bound on ed_exact (length gap and bag distance)."""
    diff = Counter(x)
    diff.subtract(Counter(y))
    surplus = sum(v for v in diff.values() if v > 0)
    deficit = -sum(v for v in diff.values() if v < 0)
    return max(abs(len(x) - len(y)), surplus, deficit)


# ---------------------------------------------------------------------------
# Banded gap solver (k-differences diagonal waves)
# ---------------------------------------------------------------------------


def _lcp(x: Sequence[int], y: Sequence[int], i: int, j: int, limit: int) -> int:
    """Length of the longest common prefix of x[i:] and y[j:], capped at limit."""
    k = 0
    step = 64
    while k + step <= limit and x[i + k : i + k + step] == y[j + k : j + k + step]:
        k += step
    while k < limit and x[i + k] == y[j + k]:
        k += 1
    return k


def gap_ed_banded(x, y, beta: int):
    """ed_exact(x, y) when it is <= beta, else the EXCEEDS sentinel.

    Landau-Vishkin diagonal waves (Landau & Vishkin 1989; Ukkonen 1985):
    wave e holds, for each diagonal d = column - row that can still reach
    the target diagonal within beta edits, the furthest row reachable with
    e edits. O(n + beta^2) wave cells plus match-run extension; a run is
    only extended past a first symbol that matches.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    n, m = len(x), len(y)
    if n > m:
        x, y, n, m = y, x, m, n
    dd = m - n  # target diagonal
    if dd > beta:
        return EXCEEDS
    if n == 0:
        return m

    row = _lcp(x, y, 0, 0, n)
    if dd == 0 and row >= n:
        return 0
    # A wave over diagonals lo..hi is stored as lo-2..hi+2, padded with NEG,
    # so the next wave reads diagonals d-1, d, d+1 without bounds checks.
    # Each wave's range lies within one diagonal of the last, so every live
    # diagonal has a live neighbour; as NEG + 1 < 0 <= any row, padding
    # never wins the max.
    NEG = -2
    prev = [NEG, NEG, row, NEG, NEG]
    base = -2  # the diagonal at prev[0]
    for e in range(1, beta + 1):
        slack = beta - e
        lo = max(-e, dd - slack, -n)
        hi = min(e, dd + slack, m)
        cur = [NEG, NEG]
        push = cur.append
        k = lo - base  # index of diagonal d in prev
        for d in range(lo, hi + 1):
            best = prev[k] + 1  # substitution
            v = prev[k + 1] + 1  # deletion from x
            if v > best:
                best = v
            v = prev[k - 1]  # insertion into x (row unchanged)
            if v > best:
                best = v
            k += 1
            cap = m - d
            if cap > n:
                cap = n
            if best >= cap:
                best = cap
            elif x[best] == y[best + d]:
                best += 1 + _lcp(x, y, best + 1, best + 1 + d, cap - best - 1)
            push(best)
        if e >= dd and cur[dd - lo + 2] >= n:
            return e
        cur += (NEG, NEG)
        prev, base = cur, lo - 2
    return EXCEEDS


# ---------------------------------------------------------------------------
# Shifted edit distance (ground truth)
# ---------------------------------------------------------------------------


def shifted_ed_exact(x, y, beta: int) -> int:
    """min over shifts Delta <= beta of the edit distance between truncated strings.

    For each Delta both directions are tried: drop Delta leading symbols of
    one string and Delta trailing symbols of the other. Cost is one banded
    DP per shift; this is a ground-truth oracle, not a tester.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    lx, ly = len(x), len(y)
    cap = min(lx, ly, beta)

    if lx == ly:
        # distance 0 is only possible at equal truncated lengths; cheap scan
        for d in range(cap + 1):
            if x[d:] == y[: ly - d] or x[: lx - d] == y[d:]:
                return 0

    best = ed_exact(x, y)
    for d in range(1, cap + 1):
        if best == 0:
            break
        for a, b in ((x[d:], y[: ly - d]), (x[: lx - d], y[d:])):
            if best == 0:
                break
            r = gap_ed_banded(a, b, best - 1)
            if r is not EXCEEDS:
                best = r
    return best


# ---------------------------------------------------------------------------
# Ground-truth gap adjudicator
# ---------------------------------------------------------------------------


def ed_solve_gap(inst: GapInstance) -> str:
    """True classification of a gap instance: YES, NO, or GAP.

    Output-sensitive: a banded pass at beta settles YES, a certified lower
    bound settles most NO cases, and only genuinely in-between instances pay
    for a banded pass at alpha.
    """
    x = inst.x.fetch()
    y = inst.y.fetch()
    d = gap_ed_banded(x, y, inst.beta)
    if d is not EXCEEDS:
        return YES
    if ed_lower_bound(x, y) > inst.alpha:
        return NO
    d = gap_ed_banded(x, y, inst.alpha)
    return NO if d is EXCEEDS else GAP
