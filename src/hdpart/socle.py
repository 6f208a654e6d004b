"""Reduction of embedding-dimension counts to deep-socle counts.

A partition of size 1+a+e with embedding dimension a is built exactly once
from the type (k, q, m) of the subpartition generated by its socle part of
degree >= 3: an M-partition of that type placed on k of the a variables and
padded with e-q-m free quadrics. Summed over the finitely many contributing
types this gives y(a, a+e+1) straight from alpha values. c(a, e), the count
with socle in degrees >= 2, is the binomial inversion of the same placements
over the embedding dimension: `c_from_alpha` is `refine.c_from_y` applied to
`y_from_alpha` with the two sums swapped, so it is the same route as the
pipeline's c, not a second one. The brute-force oracle (`Resolver.c_oracle`)
is c's independent second route.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .intmath import binom

AlphaProvider = Callable[[int, int, int], int]

Triple = tuple[int, int, int]


class MissingDataError(KeyError):
    """A required table entry is unavailable; the message names the indices."""


def placements(e: int, triple: Triple, a: int) -> int:
    """Ways to place one M-partition of the given type on a variables: choose
    its k variables, then e-q-m of the quadrics it leaves free."""
    k, q, m = triple
    return binom(a, k) * binom(binom(a + 1, 2) - q, e - q - m)


def y_from_alpha(e: int, a: int, alpha_of: AlphaProvider) -> int:
    """y(a, a+e+1): every contributing type, placed on the a variables."""
    return sum(
        alpha_of(*triple) * placements(e, triple, a) for triple in contributing_triples(e, a)
    )


def refined_count(e: int, triple: Triple, a: int, alpha_of: AlphaProvider) -> int:
    """Partitions counted by c(a, e) whose degree->=3 socle part has the given type.

    Each placement on j variables is such a partition on the x variables that
    carry a point above them, together with j-x linear socle variables, so
    alpha * placements(j) = sum over x of binom(j, x) * refined(x); the
    alternating sum over j inverts that binomial transform.
    """
    if a < 0:
        raise ValueError("embedding dimension must be >= 0")
    return alpha_of(*triple) * sum(
        (-1) ** (a - j) * binom(a, j) * placements(e, triple, j) for j in range(a + 1)
    )


def contributing_triples(e: int, a: int) -> Iterable[Triple]:
    """All types that can appear in a partition of size 1+a+e with embedding
    dimension a: the zero type plus every positive (k, q, m) with k <= a,
    q + m <= e. Each (k, q) comes first with its largest m, which a single
    search of that size answers for every smaller m too."""
    yield (0, 0, 0)
    for q in range(1, e):
        for m in range(e - q, 0, -1):
            for k in range(1, min(a, q) + 1):
                yield (k, q, m)


def c_from_alpha(e: int, a: int, alpha_of: AlphaProvider) -> int:
    """c(a, e) by summing the refined counts over every contributing type."""
    return sum(refined_count(e, triple, a, alpha_of) for triple in contributing_triples(e, a))
