"""Closed formulas for minimal-quadric-layer counts and their block pieces."""

import math
from collections import Counter

import pytest

from hdpart.hydral import (
    aut_order,
    block_weight_count,
    head_block_closed,
    head_block_count,
    head_block_series,
    headstrong_count,
    hydral_count,
    hydral_series,
    marked_block_count,
    min_weight,
    partitions_of,
    profile_series_from_weights,
    strip_triple,
    triple_count,
)
from hdpart.mpart import alpha_by_hilbert, alpha_count
from reference import (
    colored_partition_count,
    compressed_count,
    exp_tower_series,
    headstrong_tuples,
    inverse_borel,
    profile_series,
)
from hdpart.series import (
    Polynomial,
    format_factored_rational,
    one_minus_t_power,
    parse_polynomial,
    series_of,
)


def test_partitions_of():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(0)) == [()]


def test_linear_partition_type():
    # a linear partition is a parts tuple; equal parts are permuted: 2! * 2!
    assert aut_order((4, 3, 3, 1, 1)) == 4


def test_headstrong_counts():
    assert all(headstrong_count(0, n) == 1 for n in range(1, 6))
    assert headstrong_count(2, 2) == 2  # (2,0) and (1,1)
    assert (4, 1, 2, 3) in headstrong_tuples(10, 4)
    for m in range(10):
        for n in range(1, 5):
            assert headstrong_count(m, n) == len(headstrong_tuples(m, n)), (m, n)


def test_head_block_series_values():
    assert [head_block_count(1, m) for m in range(5)] == [0, 1, 1, 1, 1]
    assert [head_block_count(2, m) for m in range(1, 6)] == [1, 1, 2, 2, 3]
    # the block count is the shifted headstrong count, enumerated
    for n in range(2, 6):
        for m in range(12):
            assert head_block_count(n, m) == len(headstrong_tuples(m - n + 1, n)), (n, m)


def test_head_block_closed_6_prints_its_unfactored_denominator():
    # the reduced denominator is no product of (1 - t^a) factors, so the
    # display falls back to the plain quotient
    assert format_factored_rational(head_block_closed(6)) == (
        "(t^5 - 3*t^6 + 9*t^7 - 9*t^8 + 8*t^9 - 2*t^10 + 8*t^11 - 9*t^12 + 9*t^13"
        " - 3*t^14 + t^15) / (1 - 4*t + 7*t^2 - 8*t^3 + 7*t^4 - 5*t^5 + 4*t^6"
        " - 3*t^7 + t^8 + t^9 - 3*t^10 + 4*t^11 - 5*t^12 + 7*t^13 - 8*t^14"
        " + 7*t^15 - 4*t^16 + t^17)"
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_head_block_closed_matches_sum(n):
    closed = head_block_closed(n)
    assert series_of(closed, 20) == head_block_series(n, 20)


def test_block_statistics_examples():
    assert marked_block_count((1, 1)) == 1
    assert marked_block_count((2,)) == 2
    assert triple_count((3, 1)) == 1
    assert strip_triple((3, 1)) == (1,)
    assert min_weight((3, 1)) == 3
    assert strip_triple((3, 3, 2)) == (3, 2)
    assert min_weight((1, 1, 1)) == 3
    with pytest.raises(ValueError):
        strip_triple((2, 1))


def test_marked_block_count_integrality_over_all_small_partitions():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert marked_block_count(lam) >= 1


def _set_partitions(n):
    """Every set partition of {0..n-1}, as a list of blocks."""
    if n == 0:
        yield []
        return
    for rest in _set_partitions(n - 1):
        yield [[n - 1]] + rest
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n - 1]] + rest[i + 1 :]


@pytest.mark.parametrize("n", range(8))
def test_marked_block_count_against_set_partitions(n):
    # set partitions of {1..n} by block sizes, one marked element per block
    marked = Counter()
    for blocks in _set_partitions(n):
        sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
        marked[sizes] += math.prod(sizes)
    assert {lam: marked_block_count(lam) for lam in partitions_of(n)} == marked


def test_block_weight_count_basics():
    assert block_weight_count((), 0) == 1
    assert block_weight_count((), 1) == 0
    assert block_weight_count((2,), 1) == 1
    assert block_weight_count((2, 1), 1) == 0  # below the weight floor
    assert block_weight_count((2, 1), 2) == 1
    assert block_weight_count((1, 1), 3) == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_nested_sums_equal_block_products(n):
    for lam in partitions_of(n):
        assert profile_series_from_weights(lam, 12) == profile_series(lam, 12), lam


def test_hydral_small_counts():
    assert hydral_count(3, 1) == 1
    assert [hydral_count(2, m) for m in range(1, 6)] == [2, 3, 6, 7, 10]
    assert hydral_count(6, 2) == 10  # two disjoint square-free triples


def test_hydral_series_known_forms():
    assert (
        format_factored_rational(hydral_series(2, order=10))
        == "t*(2 + t + t^2) / ((1 - t)*(1 - t^2))"
    )
    assert (
        format_factored_rational(hydral_series(3, order=10))
        == "t*(1 + 8*t + 6*t^2 + 11*t^3 + 3*t^4 + 2*t^5 - t^6) / ((1 - t)*(1 - t^2)*(1 - t^3))"
    )


def test_hydral_series_n4_numerator():
    rf = hydral_series(4, order=12).reduced()
    body = Polynomial(rf.num.coeffs[rf.num.valuation() :])
    assert rf.num.valuation() == 2
    assert body == parse_polynomial(
        "16 + 40*t + 57*t^2 + 79*t^3 + 81*t^4 + 46*t^5 + 37*t^6 + 7*t^7 + t^8 - 4*t^9"
    )
    assert rf.den == (
        one_minus_t_power(1)
        * one_minus_t_power(2)
        * one_minus_t_power(3)
        * one_minus_t_power(4)
    )


@pytest.mark.parametrize("n", range(1, 5))
def test_hydral_matches_search(n):
    for m in range(1, 9):
        assert hydral_count(n, m) == alpha_count(n, n, m), (n, m)


def test_compressed_counts():
    assert [compressed_count(n) for n in (1, 2, 3)] == [1, 10, 280]
    assert compressed_count(2, "3n-2") == 16
    assert compressed_count(1, "3n-1-anti") == 2 == 2 * hydral_count(2, 1) - 2
    assert compressed_count(1, "3n-1-anti") == hydral_count(2, 1)
    with pytest.raises(ValueError):
        compressed_count(2, "bogus")


def test_compressed_consistency_identity():
    for n in range(1, 6):
        assert compressed_count(n, "3n-1-anti") == 2 * compressed_count(n, "3n")


def test_compressed_against_search():
    # the two anti-compressed families at small n are reachable by search
    assert compressed_count(1) == alpha_count(3, 3, 1, length=3)
    assert compressed_count(2, "3n-2") == alpha_count(4, 4, 2, length=3)
    assert compressed_count(1, "3n-1-anti") == alpha_count(2, 2, 1, length=3)


@pytest.mark.slow
def test_compressed_against_search_wider():
    assert compressed_count(2) == alpha_count(6, 6, 2, length=3)
    assert compressed_count(2, "3n-1-anti") == alpha_count(5, 5, 2, length=3)


def test_colored_partition_counts():
    assert [colored_partition_count(n) for n in range(6)] == [1, 1, 3, 10, 41, 196]


def test_colored_counts_are_transformed_tower_coefficients():
    series = exp_tower_series(10)
    lifted = [int(c) for c in inverse_borel(series).coeffs]
    assert lifted == [colored_partition_count(n) for n in range(11)]


@pytest.mark.parametrize("n", range(5))
def test_profile_count_independent_of_tail_length(n):
    flat3 = (1,) + (n,) * 3 if n else (1,)
    flat4 = (1,) + (n,) * 4 if n else (1,)
    expected = colored_partition_count(n)
    assert alpha_by_hilbert(flat3) == expected
    assert alpha_by_hilbert(flat4) == expected
