"""Product series, refinement discrepancies, and the three conjecture checkers."""

import pytest

from hdpart.intmath import binom
from hdpart.lattice import count_partitions
from hdpart.macmahon import (
    ProductTable,
    check_exponent_divisibility,
    check_refined_rationality,
    discrepancy_table,
    epsilon_value,
    lagrange_interpolation,
    negative_discrepancies,
    omega_exponents,
    partition_numbers,
    plane_partition_numbers,
    product_series,
    refined_product_diagonal,
    search_value_collisions,
    stirling_denominator,
)
from hdpart.refine import IntegrityError, Resolver
from hdpart.series import NumeratorFitError, PowerSeries, Q, fit_numerator

R = Resolver()


def test_product_series_low_dimensions():
    assert [int(c) for c in product_series(3, 5).coeffs] == [1, 1, 3, 6, 13, 24]
    assert [int(c) for c in product_series(2, 9).coeffs] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    # the product specializes correctly below dimension 2
    assert [int(c) for c in product_series(0, 3).coeffs] == [1, 1, 0, 0]
    assert [int(c) for c in product_series(1, 5).coeffs] == [1] * 6


def test_product_vs_true_counts_dimension_four():
    table = ProductTable()
    for d in range(6):
        assert table.value(4, d) == R.p(4, d)
    assert table.value(4, 6) == 141
    assert count_partitions(4, 6) == 140


def test_refined_product_values():
    table = ProductTable()
    for d in range(2, 8):
        assert table.refined(d, 1) == 1
    # below the first discrepancy the refinement equals the true one
    for d in range(1, 6):
        for k in range(d):
            assert table.refined(d, k) == R.y(k, d), (d, k)


def test_discrepancy_table():
    records = discrepancy_table(7, R)
    assert all(r.delta == 0 for r in records if r.index[0] <= 5)
    nonzero = [(r.index, r.delta) for r in records if r.delta]
    assert nonzero[0] == ((6, 4), 1)
    assert negative_discrepancies(records) == []


def test_discrepancy_linearity_identity():
    table = ProductTable()
    records = {r.index: r for r in discrepancy_table(12, R)}
    for n in range(9):
        for d in range(1, 13):
            lhs = sum(binom(n, k) * records[(d, k)].delta for k in range(d))
            assert lhs == table.value(n, d) - R.p(n, d), (n, d)


def test_omega_and_epsilon():
    assert omega_exponents(3, 8, R) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert [epsilon_value(m, 5, R) for m in range(1, 6)] == [0] * 5
    assert all(epsilon_value(m, 3, R) == 0 for m in range(1, 8))
    # first nonzero level: divisible by the dimension-choose-4 factor
    for n in range(4, 11):
        assert epsilon_value(6, n, R) == binom(n, 4), n


def test_epsilon_checker_m6():
    report = check_exponent_divisibility(6, R)
    assert report.verdict == "holds"
    assert report.evidence["quotient_degree"] == 0
    assert report.evidence["irreducibility"] == "not checked"


def test_epsilon_checker_m7():
    report = check_exponent_divisibility(7, R)
    assert report.verdict == "holds"
    assert report.evidence["quotient_degree"] <= 1


def test_epsilon_interpolation_stability():
    base = check_exponent_divisibility(6, R)
    wide = check_exponent_divisibility(6, R, extra_points=2)
    assert base.evidence["quotient"] == wide.evidence["quotient"]


def test_epsilon_trivial_below_onset():
    report = check_exponent_divisibility(5, R)
    assert report.verdict == "holds"
    assert report.evidence["polynomial"] == "0"


def test_lagrange_interpolation_exact():
    poly = lagrange_interpolation([(1, 1), (2, 4), (3, 9), (4, 16)])
    assert [poly(n) for n in range(1, 8)] == [n * n for n in range(1, 8)]


def test_refined_rationality_k1():
    report = check_refined_rationality(1, 50)
    assert report.verdict == "holds"
    assert report.evidence["numerator"] == [1, -1, -1]


def test_refined_rationality_k2():
    report = check_refined_rationality(2, 80)
    assert report.verdict == "holds"


def test_refined_rationality_inconclusive_when_short():
    report = check_refined_rationality(2, 10)
    assert report.verdict == "inconclusive"


def test_true_diagonal_is_negative_control():
    # the same denominator family must NOT fit the true counts at k = 4
    k = 4
    den = stirling_denominator(k)
    bound = binom(k + 4, 2) - 7 - k
    order = den.degree + bound + 4
    diag = [R.y(i + 1, i + k + 2) for i in range(order + 1)]
    series = PowerSeries([Q(v) for v in diag], order)
    with pytest.raises(NumeratorFitError):
        fit_numerator(series, den, bound)


def test_recurrence_columns_match_products():
    assert partition_numbers(12) == [int(c) for c in product_series(2, 12).coeffs]
    assert plane_partition_numbers(10) == [int(c) for c in product_series(3, 10).coeffs]
    # exact far out: a float anywhere in the column would lose these digits
    assert product_series(2, 100)[100] == partition_numbers(100)[100] == 190569292
    assert product_series(3, 100)[100] == plane_partition_numbers(100)[100]
    assert type(ProductTable().value(4, 40)) is int


def test_sparsity_search_small():
    report = search_value_collisions(8, 10**6, R)
    assert report.verdict == "holds"
    values = {c["value"] for c in report.evidence["collisions"]}
    assert {15, 45, 105, 120, 231, 2145, 2485} <= values
    # the published pairs appear with their exact indices
    by_value = {c["value"]: c["entries"] for c in report.evidence["collisions"]}
    assert (3, 5) in by_value[15] and (7, 2) in by_value[15]
    assert (3, 9) in by_value[45] and (4, 5) in by_value[45]
    assert (3, 65) in by_value[2145] and (8, 5) in by_value[2145]


def test_sparsity_search_without_extension():
    report = search_value_collisions(8, 10**6, R, low_dim_extension=False)
    assert report.verdict == "holds"
    values = {c["value"] for c in report.evidence["collisions"]}
    assert {15, 45, 105, 120, 2145} <= values  # pairs with both sizes <= 8


def test_sparsity_reverification_is_independent():
    # one wrong Y entry turns p(2,3) = 3 into 5 = p(2,4), a collision; p(2, d)
    # is inverted from y, so it is the first entry the wrong value reaches. The
    # second route must not read the same table and agree with the error
    bad = Resolver()
    bad.tables["Y"].set((2, 3), 3, "test")
    with pytest.raises(IntegrityError, match=r"p\(2,3\)"):
        search_value_collisions(8, 100, bad)
