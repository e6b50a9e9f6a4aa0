"""Integer-exact arithmetic helpers.

Threshold and level computations multiply small constants by ceil(log2 n)
and must be bit-stable, so everything here stays on Python integers.
"""

from __future__ import annotations

from math import isqrt


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_log2(n: int) -> int:
    """Smallest p with 2**p >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


def floor_log2_ratio(num: int, den: int) -> int:
    """floor(log2(num/den)) for num >= den >= 1, computed without floats."""
    if den < 1 or num < den:
        raise ValueError(f"floor_log2_ratio needs num >= den >= 1, got {num}/{den}")
    # num//den <= num/den < num//den + 1, and both share the same floor-log2
    # because num//den >= 1.
    return (num // den).bit_length() - 1


def isqrt_ceil(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else r + 1


def iroot(k: int, n: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, exact."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0:
        return 0
    # Newton's method from 2^ceil(bits/k) >= n^(1/k): integers only, so no
    # float overflow however large n is; it decreases to the floor root
    r = 1 << ceil_div(n.bit_length(), k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s
