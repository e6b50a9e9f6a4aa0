"""Integer-exact helpers: cross-checked against float math on safe ranges."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapedit.intmath import (
    ceil_div,
    ceil_log2,
    floor_log2_ratio,
    iroot,
    isqrt_ceil,
)


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_ceil_div(a, b):
    assert ceil_div(a, b) == math.ceil(a / b) or ceil_div(a, b) == -(-a // b)
    assert (ceil_div(a, b) - 1) * b < a <= ceil_div(a, b) * b


@given(st.integers(1, 1 << 62))
def test_log2_bounds(n):
    p = ceil_log2(n)
    assert (1 << p) >= n and (p == 0 or (1 << (p - 1)) < n)


@given(st.integers(1, 1 << 40), st.integers(1, 1 << 40))
def test_floor_log2_ratio(num, den):
    if num < den:
        with pytest.raises(ValueError):
            floor_log2_ratio(num, den)
        return
    p = floor_log2_ratio(num, den)
    assert (1 << p) * den <= num < (1 << (p + 1)) * den


def test_log_edge_cases():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1 and ceil_log2(3) == 2
    with pytest.raises(ValueError):
        ceil_log2(0)


@given(st.integers(0, 1 << 60))
def test_isqrt_ceil(n):
    r = isqrt_ceil(n)
    assert r * r >= n and (r == 0 or (r - 1) * (r - 1) < n)


@given(st.integers(1, 8), st.integers(0, 10**18))
def test_iroot(k, n):
    r = iroot(k, n)
    assert r**k <= n < (r + 1) ** k


def test_iroot_beyond_float_range():
    # n >= 2^1024 cannot be converted to a float; the root stays exact
    for k, n in ((3, 10**400), (2, 1 << 5000), (7, 3**2000 - 1), (4, (10**100 + 1) ** 4)):
        r = iroot(k, n)
        assert r**k <= n < (r + 1) ** k
