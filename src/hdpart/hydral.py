"""Closed counting formulas for partitions with the minimal quadric layer.

A partition with k variables, k quadrics and deep socle decomposes into
independent blocks, one per part of a classical partition of k: chains,
headstrong blocks, and square-free-cubic triples. Everything here is exact
integer/rational arithmetic over those block statistics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .intmath import binom
from .series import (
    ONE,
    Polynomial,
    PowerSeries,
    Q,
    RationalFunction,
    one_minus_t_power,
    series_of,
)

Parts = tuple[int, ...]


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Parts]:
    """Weakly decreasing positive tuples summing to n (the empty tuple for n=0)."""
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


class _LinearPartition(NamedTuple):
    """The field of LinearPartition, whose __new__ checks it."""

    parts: Parts


class LinearPartition(_LinearPartition):
    """A classical partition with its multiplicity view and automorphism order."""

    __slots__ = ()

    def __new__(cls, parts: Sequence[int]):
        ps = tuple(parts)
        if any(p <= 0 for p in ps) or any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parts must be weakly decreasing positive integers")
        return super().__new__(cls, ps)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    @property
    def aut_order(self) -> int:
        return math.prod(math.factorial(a) for a in self.multiplicities.values())


def aut_order(parts: Sequence[int]) -> int:
    return LinearPartition(tuple(parts)).aut_order


# --- headstrong compositions ---------------------------------------------------


def headstrong_count(m: int, n: int) -> int:
    """Number of n-tuples of nonnegative integers summing to m whose first
    entry is weakly maximal."""
    if m < 0 or n < 1:
        return 0
    if n == 1:
        return 1
    total = 0
    for head in range((m + n - 1) // n, m + 1):
        # bounded compositions of m-head into n-1 parts, each at most head
        rest = m - head
        acc = 0
        for j in range(n):
            top = rest - j * (head + 1) + n - 2
            if top >= 0:
                acc += (-1) ** j * binom(n - 1, j) * math.comb(top, n - 2)
        total += acc
    return total


def headstrong_tuples(m: int, n: int) -> list[tuple[int, ...]]:
    """Explicit enumeration, used as the oracle for headstrong_count."""
    import itertools

    out = []
    for tail in itertools.product(range(m + 1), repeat=n - 1):
        head = m - sum(tail)
        if head >= 0 and all(head >= x for x in tail):
            out.append((head,) + tail)
    return out


# --- the block series ------------------------------------------------------------


def head_block_count(n: int, m: int) -> int:
    """Partitions with quadric layer {e_1 + e_i : i <= n} and m deep boxes:
    exactly the headstrong compositions after an index shift."""
    return headstrong_count(m - min_weight((n,)), n)


def head_block_series(n: int, order: int) -> PowerSeries:
    return PowerSeries([head_block_count(n, m) for m in range(order + 1)], order)


def head_block_closed(n: int) -> RationalFunction:
    """Rational form of the block series (reduced)."""
    if n < 1:
        raise ValueError("block width must be positive")
    if n == 1:
        return RationalFunction(Polynomial([0, 1]), one_minus_t_power(1))
    total = RationalFunction(Polynomial(), ONE)
    for k in range(1, n + 1):
        sign = (-1) ** (k + 1)
        num = Polynomial([0] * k + [sign * binom(n - 1, k - 1)])
        total = total + RationalFunction(num, one_minus_t_power(k))
    pref = RationalFunction(
        Polynomial([0] * (n - 2) + [1]), one_minus_t_power(1) ** (n - 1)
    )
    return (pref * total).reduced()


# --- block statistics of a linear partition --------------------------------------


def triple_count(parts: Sequence[int]) -> int:
    """Multiplicity of the part 3."""
    return sum(1 for p in parts if p == 3)


def strip_triple(parts: Sequence[int]) -> Parts:
    ps = list(parts)
    try:
        ps.remove(3)
    except ValueError:
        raise ValueError("no part equal to 3 to remove") from None
    return tuple(ps)


def drop_largest(parts: Sequence[int]) -> Parts:
    if not parts:
        raise ValueError("empty partition has no largest part")
    return tuple(parts)[1:]


def min_weight(parts: Sequence[int]) -> int:
    """Least number of deep boxes a block profile can carry."""
    return sum(max(p - 1, 1) for p in parts)


def marked_block_count(parts: Sequence[int]) -> int:
    """Ways to split a set of sum(parts) labels into blocks of the given sizes
    with one marked label per block."""
    parts = tuple(parts)
    d = sum(parts)
    val = Fraction(1, aut_order(parts))
    remaining = d
    for p in parts:
        val *= binom(remaining, p) * p
        remaining -= p
    if val.denominator != 1:
        raise ArithmeticError(f"marked block count for {parts} is not integral")
    return int(val)


def block_weight_count(parts: Sequence[int], m: int) -> int:
    """Ways to distribute m deep boxes over the blocks, each block receiving a
    headstrong-compatible share (the nested-sum definition, taken literally)."""
    parts = tuple(parts)
    if m < min_weight(parts):
        return 0
    s = len(parts)
    if s == 0:
        return 1 if m == 0 else 0
    tail_weights = [min_weight(parts[j:]) for j in range(s + 1)]

    def rec(j: int, used: int) -> int:
        if j == s - 1:
            return head_block_count(parts[s - 1], m - used)
        cap = m - used - tail_weights[j + 1]
        total = 0
        for i in range(cap + 1):
            d = head_block_count(parts[j], i)
            if d:
                total += d * rec(j + 1, used + i)
        return total

    return rec(0, 0)


def profile_series_from_weights(parts: Sequence[int], order: int) -> PowerSeries:
    return PowerSeries(
        [block_weight_count(parts, m) for m in range(order + 1)], order
    )


def profile_series(parts: Sequence[int], order: int) -> PowerSeries:
    """Product of the block series; equal to the nested-sum route."""
    acc = PowerSeries([1], order)
    for p in parts:
        acc = acc * head_block_series(p, order)
    return acc


class BlockStats(NamedTuple):
    """The five block statistics of a linear partition, bundled for inspection."""

    triple_count: int
    stripped: Parts | None
    marked_blocks: int
    tail: Parts | None
    weight_floor: int

    @classmethod
    def of(cls, parts: Sequence[int]) -> "BlockStats":
        parts = tuple(parts)
        t = triple_count(parts)
        return cls(
            triple_count=t,
            stripped=strip_triple(parts) if t else None,
            marked_blocks=marked_block_count(parts),
            tail=drop_largest(parts) if parts else None,
            weight_floor=min_weight(parts),
        )


# --- the full count ---------------------------------------------------------------


def _triple_factor(i: int) -> int:
    """Ways to organise 3i chosen labels into i unordered square-free triples."""
    return math.factorial(3 * i) // (6**i * math.factorial(i))


@lru_cache(maxsize=None)
def _terms(n: int) -> tuple[tuple[int, Parts, int], ...]:
    """The nonzero terms (i, rho, w) of the count in n variables: i square-free
    triples, the block profile rho they leave, and its weight w. Kept per n,
    since hydral_count(n, m) reads the same terms for every m."""
    out = []
    for lam in partitions_of(n):
        rho = lam
        for i in range(triple_count(lam) + 1):
            if i:
                rho = strip_triple(rho)
            w = binom(n, 3 * i) * _triple_factor(i) * marked_block_count(rho)
            if w:
                out.append((i, rho, w))
    return tuple(out)


def hydral_count(n: int, m: int) -> int:
    """Number of partitions with n variables, n quadrics, m deep boxes and
    socle in degree >= 3."""
    if n < 1 or m < 1:
        return 0
    return sum(w * block_weight_count(rho, m - i) for i, rho, w in _terms(n))


def hydral_series(n: int, order: int | None = None) -> RationalFunction:
    """The rational generating function of hydral_count(n, .) in m, reduced."""
    if n < 1:
        raise ValueError("dimension must be positive")
    total = RationalFunction(Polynomial(), ONE)
    closed_cache: dict[int, RationalFunction] = {}

    def closed(p: int) -> RationalFunction:
        if p not in closed_cache:
            closed_cache[p] = head_block_closed(p)
        return closed_cache[p]

    for i, rho, w in _terms(n):
        term = RationalFunction(Polynomial([0] * i + [w]), ONE)
        for p in rho:
            term = term * closed(p)
        total = (total + term).reduced()
    result = total.reduced()
    if order is not None:
        got = series_of(result, order)
        want = PowerSeries([hydral_count(n, m) for m in range(order + 1)], order)
        if got != want:
            raise ArithmeticError("rational form disagrees with the direct count")
    return result


# --- special families ---------------------------------------------------------------


COMPRESSED_VARIANTS = ("3n", "3n-1-compressed", "3n-1-anti", "3n-2")


def compressed_count(n: int, variant: str = "3n") -> int:
    """Closed counts for the extremal socle-type-(0,0,0,n) families.

    "3n": embedding dimension 3n, profile (1,3n,3n,n);
    "3n-1-compressed": embedding dimension 3n-1, profile (1,3n-1,3n,n);
    "3n-1-anti": profile (1,3n-1,3n-1,n);
    "3n-2": anti-compressed with embedding dimension 3n-2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    base = _triple_factor(n)
    if variant == "3n":
        return base
    if variant == "3n-1-compressed":
        val = Fraction(3 * (n - 1), 2) * base
        if val.denominator != 1:
            raise ArithmeticError("compressed count must be integral")
        return int(val)
    if variant == "3n-1-anti":
        return 2 * base
    if variant == "3n-2":
        return (3 * n - 2) ** 2 * _triple_factor(n - 1)
    raise ValueError(f"unknown variant {variant!r}; expected one of {COMPRESSED_VARIANTS}")


def colored_partition_count(n: int) -> int:
    """Set partitions of an n-set with one colored element per block."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(binom(n, k) * k ** (n - k) for k in range(n + 1))


def exp_tower_series(order: int) -> PowerSeries:
    """Exact expansion of exp(t * exp(t))."""
    out = []
    for n in range(order + 1):
        acc = Q(0)
        for j in range(n + 1):
            acc += Q(j ** (n - j), math.factorial(n - j) * math.factorial(j))
        out.append(acc)
    return PowerSeries(out, order)
