"""Product series, refinement discrepancies, and the three conjecture checkers."""

import pytest

from hdpart.cache import load_golden_collisions
from hdpart.intmath import binom
from hdpart.lattice import count_partitions
from hdpart.macmahon import (
    ProductTable,
    check_exponent_divisibility,
    check_refined_rationality,
    epsilon_value,
    interpolate,
    omega_exponents,
    partition_numbers,
    plane_partition_numbers,
    product_series,
    search_value_collisions,
    stirling_denominator,
)
from hdpart.refine import IntegrityError, Resolver
from hdpart.series import NumeratorFitError, Polynomial, PowerSeries, Q, fit_numerator
from reference import discrepancy_table, negative_discrepancies

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


@pytest.mark.parametrize("extra", [-1, -3, -7])
def test_epsilon_checker_refuses_fewer_samples_than_the_degree_needs(extra):
    # m + 1 + extra samples fit a polynomial of degree below m; -3 read "fails"
    # at m = 6 from four samples and -7 read "holds" from none
    with pytest.raises(ValueError, match="extra_points must be nonnegative"):
        check_exponent_divisibility(6, R, extra_points=extra)


def test_epsilon_trivial_below_onset():
    report = check_exponent_divisibility(5, R)
    assert report.verdict == "holds"
    assert report.evidence["polynomial"] == "0"


def test_interpolation_exact():
    num, scale = interpolate([1, 4, 9, 16])
    assert [num(n) / scale for n in range(1, 8)] == [n * n for n in range(1, 8)]
    # C(n + 1, 3) has rational coefficients over the integer numerator
    # 3! C(n + 1, 3) = (n + 1) n (n - 1), with no trailing difference
    num, scale = interpolate([binom(n + 1, 3) for n in range(1, 9)])
    assert scale == 6 and num.coeffs == (0, -1, 0, 1)
    assert interpolate([0, 0, 0]) == (Polynomial(), 1)
    assert type(interpolate([5, 7, 11])[0][2]) is int


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


def test_refined_rationality_refuses_a_negative_k():
    # k = 0 has a negative degree bound and stays inconclusive; k < 0 names
    # no diagonal at all
    with pytest.raises(ValueError):
        check_refined_rationality(-1, 10)
    assert check_refined_rationality(0, 10).verdict == "inconclusive"


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


def test_sparsity_search_pins_its_collisions():
    report = search_value_collisions(8, 10**6, R)
    assert report.verdict == "holds"
    assert [(c["value"], c["entries"]) for c in report.evidence["collisions"]] == [
        (15, [(3, 5), (7, 2)]),
        (45, [(3, 9), (4, 5)]),
        (105, [(3, 14), (4, 7)]),
        (120, [(3, 15), (5, 5)]),
        (231, [(3, 21), (16, 2)]),
        (2145, [(3, 65), (8, 5)]),
        (2485, [(3, 70), (13, 3)]),
        (4005, [(3, 89), (4, 27)]),
        (17205, [(3, 185), (4, 45)]),
    ]


@pytest.mark.parametrize("d_max", [0, 1])
def test_sparsity_search_below_size_3_holds(d_max):
    # the low-dimension columns start at size 3, as the main scan does, so
    # p(2, 3) = p(3, 2) = 3 is no collision: the conjecture is stated for d >= 3
    report = search_value_collisions(d_max, 5, R)
    assert report.verdict == "holds" and report.evidence["collisions"] == []


@pytest.mark.parametrize("d_max, bound", [(-1, 5), (3, 0), (3, 1)])
def test_sparsity_search_refuses_an_empty_range(d_max, bound):
    # no size below 0 is scanned and no value below 2 is indexed, so these
    # ranges held vacuously
    with pytest.raises(ValueError):
        search_value_collisions(d_max, bound, R)


def test_sparsity_search_without_extension():
    report = search_value_collisions(8, 10**6, R, low_dim_extension=False)
    assert report.verdict == "holds"
    values = {c["value"] for c in report.evidence["collisions"]}
    assert {15, 45, 105, 120, 2145} <= values  # pairs with both sizes <= 8


def _reference_collisions(d_max, bound, resolver, low_dim_extension=True):
    """The collision list of a scan that makes one Resolver.p call per value
    of every size 3..d_max, as the checker did before it inverted size 3."""
    index = {}
    for d in range(3, d_max + 1):
        n = 2
        while (v := resolver.p(n, d)) <= bound:
            if v >= 2:
                index.setdefault(v, []).append((d, n))
            n += 1
    if low_dim_extension:
        for n, numbers in ((2, partition_numbers), (3, plane_partition_numbers)):
            column = numbers(4 * d_max)
            while column[-1] <= bound:
                column = numbers(2 * len(column))
            for d in range(max(d_max + 1, 3), len(column)):
                if column[d] > bound:
                    break
                if column[d] >= 2:
                    index.setdefault(column[d], []).append((d, n))
    collisions = []
    for value in sorted(index):
        entries = sorted(set(index[value]))
        if len({d for d, _ in entries}) > 1:
            collisions.append({"value": value, "entries": entries})
    return collisions


def _y_keys(resolver):
    return set(resolver.tables["Y"].entries)


@pytest.mark.parametrize("low_dim_extension", [True, False])
@pytest.mark.parametrize("bound", [2, 5, 50, 10**4, 10**6])
def test_sparsity_search_matches_reference_scan(bound, low_dim_extension):
    for d_max in (0, 1, 2, 3, 4, 5, 8, 12):
        ref, new = Resolver(), Resolver()
        want = _reference_collisions(d_max, bound, ref, low_dim_extension)
        report = search_value_collisions(d_max, bound, new, low_dim_extension)
        assert report.evidence == {"collisions": want, "collision_count": len(want)}, d_max
        # the row is read lazily: no y entry or search node past the reference's
        assert _y_keys(new) <= _y_keys(ref) and new.budget.nodes <= ref.budget.nodes, d_max


@pytest.mark.parametrize("d_max, bound", [(8, 10**6), (12, 10**9), (20, 10**6)])
def test_sparsity_search_reads_the_reference_y_entries(d_max, bound):
    ref, new = Resolver(), Resolver()
    want = _reference_collisions(d_max, bound, ref)
    assert search_value_collisions(d_max, bound, new).evidence["collisions"] == want
    assert new.tables["Y"].provenance == ref.tables["Y"].provenance
    assert new.budget.nodes == ref.budget.nodes


def test_sparsity_search_reproduces_golden_collisions():
    # the size-3 column is inverted, not scanned, so the largest shipped
    # collision, p(2160324, 3) = p(24100, 4), is in reach of the suite
    report = search_value_collisions(8, 2333500972650, Resolver())
    assert report.verdict == "holds"
    pairs = [
        (d, n, e, m, c["value"])
        for c in report.evidence["collisions"]
        for i, (d, n) in enumerate(c["entries"])
        for e, m in c["entries"][i + 1 :]
        if d != e
    ]
    assert pairs == load_golden_collisions()


def test_sparsity_search_refuses_a_size_3_row_that_does_not_rise():
    bad = Resolver()
    bad.tables["Y"].set((2, 3), 0, "test")
    with pytest.raises(IntegrityError, match="size-3 y row"):
        search_value_collisions(4, 100, bad)


def test_sparsity_reverification_is_independent():
    # one wrong Y entry turns p(2,3) = 3 into 5 = p(2,4), a collision; p(2, d)
    # is inverted from y, so it is the first entry the wrong value reaches. The
    # second route must not read the same table and agree with the error
    bad = Resolver()
    bad.tables["Y"].set((2, 3), 3, "test")
    with pytest.raises(IntegrityError, match=r"p\(2,3\)"):
        search_value_collisions(8, 100, bad)
