"""Shared integer combinatorics: generalized binomials and double factorials."""

from __future__ import annotations

import math


def binom(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index.

    binom(n, k) = prod_{i=0}^{k-1} (n - i) / k! for k >= 0, and 0 for k < 0.
    This is the product convention shared by every inversion formula in the
    package; for n >= 0 it agrees with math.comb.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    # prod_{i<k}(n-i) = (-1)^k * (k-n-1)(k-n-2)...(-n) = (-1)^k * binom(k-n-1, k) * k!
    return (-1) ** k * math.comb(k - n - 1, k)


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1 needed at diagonal boundaries."""
    if n in (-1, 0):
        return 1
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result

