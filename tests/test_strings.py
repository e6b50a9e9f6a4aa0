"""Core string oracles against brute force and stated identities."""

import itertools
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapedit.metering import MeteredString
from gapedit.strings import (
    EXCEEDS,
    GAP,
    NO,
    YES,
    GapInstance,
    ShiftedInstance,
    View,
    as_view,
    ed_exact,
    ed_lower_bound,
    ed_solve_gap,
    gap_ed_banded,
    shifted_ed_exact,
    symbols,
)


def brute_ed(x, y):
    """Independent reference: plain recursion with memoization."""
    x, y = tuple(x), tuple(y)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(x):
            return len(y) - j
        if j == len(y):
            return len(x) - i
        best = go(i + 1, j + 1) + (x[i] != y[j])
        return min(best, go(i + 1, j) + 1, go(i, j + 1) + 1)

    return go(0, 0)


short = st.lists(st.integers(0, 2), max_size=8)


def test_ed_exact_examples():
    assert ed_exact("abc", "abc") == 0
    # rotation by one symbol over distinct characters costs two edits
    assert ed_exact("abcd", "bcda") == 2
    assert brute_ed(symbols("kitten"), symbols("sitting")) == 3
    assert ed_exact("kitten", "sitting") == 3
    assert ed_exact("", "abc") == 3
    assert ed_exact("abc", "") == 3


@given(short, short)
def test_ed_exact_matches_brute(x, y):
    assert ed_exact(x, y) == brute_ed(x, y)


@given(short, short)
def test_ed_symmetry(x, y):
    assert ed_exact(x, y) == ed_exact(y, x)


@given(short, short, short)
def test_ed_triangle(x, y, z):
    assert ed_exact(x, z) <= ed_exact(x, y) + ed_exact(y, z)


def row_dp(x, y):
    """Independent reference: the textbook O(|x| |y|) row dynamic program."""
    n, m = len(x), len(y)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        xi = x[i - 1]
        cur = [i] + [0] * m
        left = i
        for j in range(1, m + 1):
            c = prev[j - 1] if xi == y[j - 1] else prev[j - 1] + 1
            up = prev[j] + 1
            if up < c:
                c = up
            left += 1
            if left < c:
                c = left
            cur[j] = c
            left = c
        prev = cur
    return prev[m]


def edited(rng, x, edits, alphabet):
    """x with `edits` random substitutions, insertions and deletions."""
    y = list(x)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 and y:
            y[rng.randrange(len(y))] = rng.randrange(alphabet)
        elif op == 1:
            y.insert(rng.randrange(len(y) + 1), rng.randrange(alphabet))
        elif y:
            del y[rng.randrange(len(y))]
    return y


# lengths at and around the 30-bit digit and the 64- and 128-bit word edges
EDGE_LENGTHS = (0, 1, 2, 29, 30, 31, 63, 64, 65, 127, 128, 129, 200)


def test_ed_exact_matches_row_dp():
    rng = random.Random(11)
    for alphabet in (2, 4, 1 << 32):
        for lx in EDGE_LENGTHS:
            x = [rng.randrange(alphabet) for _ in range(lx)]
            ly = rng.randrange(0, 201)
            partners = (
                edited(rng, x, rng.randrange(1, 12), alphabet),  # near x, often lx != ly
                [rng.randrange(alphabet) for _ in range(lx)],  # equal length, unrelated
                [rng.randrange(alphabet) for _ in range(ly)],  # unequal length, unrelated
                [alphabet + rng.randrange(4) for _ in range(ly)],  # no symbol shared with x
            )
            for y in partners:
                assert ed_exact(x, y) == row_dp(x, y), (alphabet, lx, len(y))
                assert ed_exact(y, x) == ed_exact(x, y)
            assert ed_exact(x, partners[-1]) == max(lx, ly)
        for _ in range(15):
            x = [rng.randrange(alphabet) for _ in range(rng.randrange(0, 201))]
            y = [rng.randrange(alphabet) for _ in range(rng.randrange(0, 201))]
            assert ed_exact(x, y) == row_dp(x, y)


def test_ed_exact_planted_edits_n1024():
    rng = random.Random(13)
    x = [rng.randrange(4) for _ in range(1024)]
    y = edited(rng, x, 40, 4)
    d = ed_exact(x, y)
    assert d == row_dp(x, y)
    assert 0 < d <= 40


def test_gap_banded_examples():
    x = symbols("abacabad")
    assert gap_ed_banded(x, x, 0) == 0
    assert gap_ed_banded("abcd", "bcda", 1) is EXCEEDS
    assert gap_ed_banded("abcd", "bcda", 2) == 2


def test_kernels_take_sequences_not_views():
    x, y = as_view("abcd"), as_view("abce")
    for call in (
        lambda: ed_exact(x, y),
        lambda: ed_lower_bound(x, y),
        lambda: gap_ed_banded(x, y, 2),
        lambda: shifted_ed_exact(x, y, 1),
    ):
        with pytest.raises(TypeError):
            call()
    assert ed_exact(x.fetch(), y.fetch()) == 1


def test_gap_banded_exhaustive_tiny():
    for lx in range(0, 5):
        for ly in range(0, 5):
            for xs in itertools.product((0, 1), repeat=lx):
                for ys in itertools.product((0, 1), repeat=ly):
                    e = ed_exact(list(xs), list(ys))
                    for beta in range(0, 6):
                        got = gap_ed_banded(list(xs), list(ys), beta)
                        if e <= beta:
                            assert got == e
                        else:
                            assert got is EXCEEDS


@given(short, short, st.integers(0, 10))
def test_gap_banded_matches_exact(x, y, beta):
    e = ed_exact(x, y)
    got = gap_ed_banded(x, y, beta)
    assert (got == e) if e <= beta else (got is EXCEEDS)


def drifted(rng, x, deletions, insertions, alphabet):
    """x with deletions, then insertions, at uniform positions: the optimal
    alignment walks off the main diagonal and back."""
    y = list(x)
    for _ in range(deletions):
        del y[rng.randrange(len(y))]
    for _ in range(insertions):
        y.insert(rng.randrange(len(y) + 1), rng.randrange(alphabet))
    return y


@pytest.mark.parametrize("alphabet", (2, 1 << 32))
def test_gap_banded_near_threshold_indels(alphabet):
    # thresholds one below, at and one above the distance, on partners of
    # equal length and of lengths apart by up to that threshold
    rng = random.Random(29)
    for length in (63, 64, 65, 256, 1024):
        x = [rng.randrange(alphabet) for _ in range(length)]
        for p in (1, 3, 8, 20):
            for skew in (0, 1, p):
                for dels, ins in ((p + skew, p), (p, p + skew)):
                    y = drifted(rng, x, dels, ins, alphabet)
                    assert abs(len(y) - length) == skew
                    e = ed_exact(x, y)
                    for beta in (e - 1, e, e + 1):
                        if beta < 0:
                            continue
                        for a, b in ((x, y), (y, x)):
                            got = gap_ed_banded(a, b, beta)
                            assert (got == e) if e <= beta else (got is EXCEEDS), (
                                length, p, skew, beta, e, got
                            )
    # beta = 0: only equal strings pass, the empty pair included
    x = [rng.randrange(alphabet) for _ in range(64)]
    y = list(x)
    y[17] = (y[17] + 1) % alphabet
    for a, b, want in ((x, list(x), 0), (x, y, EXCEEDS), (x, x[:-1], EXCEEDS), ([], [], 0)):
        assert gap_ed_banded(a, b, 0) == want
        assert gap_ed_banded(b, a, 0) == want


def test_hereditary_on_random_strings():
    # equal-length pairs: any aligned slice pair is at most as far apart
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(1, 65)
        x = [rng.randrange(3) for _ in range(n)]
        y = [rng.randrange(3) for _ in range(n)]
        e = ed_exact(x, y)
        i = rng.randrange(0, n + 1)
        j = rng.randrange(i, n + 1)
        assert ed_exact(x[i:j], y[i:j]) <= e


@given(short, short, short, short)
def test_subadditivity(x1, x2, y1, y2):
    assert ed_exact(x1 + x2, y1 + y2) <= ed_exact(x1, y1) + ed_exact(x2, y2)


def test_shifted_examples():
    x = symbols("0123456789")
    y = x[-2:] + x[:-2]  # move the last two symbols to the front
    assert ed_exact(x, y) == 4
    assert shifted_ed_exact(x, y, 2) == 0
    assert shifted_ed_exact(x, y, 1) > 0
    assert shifted_ed_exact(x, x, 7) == 0
    # with no shift budget the shifted distance is the plain distance
    rng = random.Random(5)
    for _ in range(50):
        a = [rng.randrange(3) for _ in range(rng.randrange(12))]
        b = [rng.randrange(3) for _ in range(rng.randrange(12))]
        assert shifted_ed_exact(a, b, 0) == ed_exact(a, b)


@given(short, short, st.integers(0, 5))
def test_shifted_sandwich(x, y, beta):
    eb = shifted_ed_exact(x, y, beta)
    e = ed_exact(x, y)
    assert eb <= e <= eb + 2 * beta


@given(short, short, st.integers(0, 5))
def test_shifted_monotone_in_beta(x, y, beta):
    assert shifted_ed_exact(x, y, beta + 1) <= shifted_ed_exact(x, y, beta)


def test_shifted_brute_cross_check():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(0, 10)
        m = rng.randrange(0, 10)
        x = [rng.randrange(2) for _ in range(n)]
        y = [rng.randrange(2) for _ in range(m)]
        beta = rng.randrange(0, 4)
        want = min(
            [
                min(
                    brute_ed(x[d:], y[: m - d] if d else y),
                    brute_ed(x[: n - d] if d else x, y[d:]),
                )
                for d in range(0, min(n, m, beta) + 1)
            ]
            or [brute_ed(x, y)]
        )
        assert shifted_ed_exact(x, y, beta) == want


@given(short, short)
def test_lower_bound_is_sound(x, y):
    assert ed_lower_bound(x, y) <= ed_exact(x, y)


def test_ed_solve_gap_examples():
    x = as_view(symbols("abcdefgh"))
    assert ed_solve_gap(GapInstance(x, x, 5, 0)) == YES
    a, b = as_view("abcd"), as_view("bcda")
    assert ed_solve_gap(GapInstance(a, b, 1, 0)) == NO
    assert ed_solve_gap(GapInstance(a, b, 3, 1)) == GAP


def test_view_composition():
    data = list(range(100))
    v = View(MeteredString(data), 10, 60)
    assert v.sub(5, 20).sub(3, 7).fetch() == data[18:25]
    assert v.sub(5, 20).sub(3, 7) == v.sub(8, 7)
    assert len(v.sub(0, 0)) == 0
    with pytest.raises(ValueError):
        v.sub(55, 10)
    with pytest.raises(ValueError):
        View(v.source, 90, 20)


def test_instance_validation():
    x = as_view([1, 2, 3])
    y = as_view([1, 2, 3])
    GapInstance(x, y, 2, 1)
    with pytest.raises(ValueError):
        GapInstance(x, y, 1, 2)
    with pytest.raises(ValueError):
        GapInstance(x, as_view([1, 2]), 2, 1)
    ShiftedInstance(x, y, 3, 2, 1)
    with pytest.raises(ValueError):
        ShiftedInstance(x, y, 3, 1, 2)


def test_symbols_normalization():
    assert symbols("ab") == [97, 98]
    assert symbols(b"\x00\xff") == [0, 255]
    assert symbols([3, 5]) == [3, 5]
    with pytest.raises(ValueError):
        symbols([-1])
    with pytest.raises(TypeError):
        symbols(as_view([1]))  # a View is fetched, not normalised


def test_package_root_imports_nothing():
    # importing one module must not load its siblings or numpy
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))
    probe = (
        "import sys, gapedit.strings; print(sorted(m for m in "
        "('numpy', 'gapedit.metering', 'gapedit.harness') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert proc.stdout.strip() == "[]"
