"""Inversion formulas, recurrences, closed values, generating functions, and
the demand-driven resolver with provenance cross-checks."""

import math
import pathlib
import random
from fractions import Fraction as Q

import pytest

from hdpart import mpart
from hdpart.cache import load_golden_c6
from hdpart.intmath import binom, double_factorial
from hdpart.lattice import ResourceCeilingError
from hdpart.refine import (
    CLOSED_FORM,
    INVERSION,
    SEARCH,
    CountTable,
    IntegrityError,
    Resolver,
    c_diagonal_series,
    c_from_d,
    c_from_y,
    c_recurrence,
    d_from_c,
    p_from_y,
    y_diagonal_numerator,
    y_diagonal_series,
    y_from_c,
    y_from_p,
    y_recurrence,
)
from hdpart.series import (
    HalfPower,
    ONE,
    Polynomial,
    PowerSeries,
    borel,
    expand_half_power,
    one_minus_t_power,
    series_of,
)
from hdpart.socle import MissingDataError

R = Resolver()
DATA = pathlib.Path(__file__).parent / "data"


def test_count_table_boundaries():
    t = CountTable("Y")
    t.set((1, 3), 1, "test")
    with pytest.raises(IntegrityError):
        t.set((3, 3), 5, "test")  # k >= d region is identically zero
    assert t.get((0, 9)) == 0
    t2 = CountTable("C")
    assert t2.get((5, 2)) == 0  # k > 2e
    with pytest.raises(MissingDataError):
        t2.get((1, 1))


def test_count_table_provenance_conflicts():
    t = CountTable("P")
    t.set((3, 3), 6, "oracle")
    t.set((3, 3), 6, "inversion")  # agreement is fine
    with pytest.raises(IntegrityError):
        t.set((3, 3), 7, "inversion")


def test_p_from_y_small():
    y = CountTable("Y")
    y.set((1, 2), 1, "test")
    assert p_from_y(y, 5, 2) == 5  # p(n, 2) = n
    y.set((1, 3), 1, "test")
    y.set((2, 3), 1, "test")
    assert p_from_y(y, 5, 3) == 15  # n + C(n,2) at n=5


def test_y_from_p_examples():
    p = CountTable("P")
    for j, val in [(0, 0), (1, 1), (2, 5)]:
        p.set((j, 4), val, "test")
    assert y_from_p(p, 2, 4) == 3
    with pytest.raises(MissingDataError):
        y_from_p(p, 3, 4)


def test_y_c_inversions():
    c = CountTable("C")
    c.set((0, 1), 0, "test")
    c.set((1, 1), 1, "test")
    c.set((2, 1), 1, "test")
    # y(k, k+2) = k + C(k,2)
    for k in range(1, 6):
        assert y_from_c(c, k, 1) == k + binom(k, 2)
    y = CountTable("Y")
    y.set((0, 2), 0, "test")
    y.set((1, 3), 1, "test")
    y.set((2, 4), 3, "test")
    assert c_from_y(y, 2, 1) == 1


def test_inversions_compose_to_identity():
    # p <-> y on the resolver's data
    for d in range(1, 7):
        p = CountTable("P")
        for j in range(7):
            p.set((j, d), R.p(j, d), "test")
        y = CountTable("Y")
        for k in range(d):
            y.set((k, d), y_from_p(p, k, d), "test")
        for n in range(7):
            assert p_from_y(y, n, d) == R.p(n, d)


def test_d_layer_round_trip_random_tables():
    rng = random.Random(99)
    for _ in range(20):
        c = CountTable("C")
        for e in range(6):
            for k in range(2 * e + 1):
                if not CountTable.forced_zero("C", (k, e)):
                    c.set((k, e), rng.randint(0, 50), "test")
                elif (k, e) == (0, 0):
                    c.set((k, e), 1, "test")
        d = CountTable("D")
        for e in range(6):
            for k in range(2 * e - math.ceil(e / 2) + 1):
                d.set((k, e), d_from_c(c, k, e), "test")
        # the formal composition identity holds pointwise on e <= 2x
        for e in range(6):
            for x in range(math.ceil(e / 2), 2 * e - math.ceil(e / 2) + 1):
                k = 2 * e - x
                assert c_from_d(d, k, e) == c.get((k, e)), (k, e)


def test_d_layer_reproduces_known_diagonal():
    c = CountTable("C")
    for e in range(6):
        for k in range(2 * e + 1):
            if not CountTable.forced_zero("C", (k, e)) or (k, e) == (0, 0):
                c.set((k, e), R.c(k, e), "test")
    c.set((0, 0), 1, "test")
    d = CountTable("D")
    for e in range(6):
        for k in range(2 * e - math.ceil(e / 2) + 1):
            d.set((k, e), d_from_c(c, k, e), "test")
    got = [c_from_d(d, 2 * e - 1, e) for e in range(1, 5)]
    assert got == [1, 6, 45, 420]


def test_d_range_validation():
    c = CountTable("C")
    with pytest.raises(ValueError):
        d_from_c(c, 5, 3)  # k above 2e - ceil(e/2)


def test_y_recurrence():
    assert y_recurrence([1], 0, 5) == 1
    seed_e1 = [R.y(j, j + 2) for j in range(3)]
    assert seed_e1 == [0, 1, 3]
    assert y_recurrence(seed_e1, 1, 10) == binom(11, 2)
    assert y_recurrence(seed_e1, 1, 11) == 66
    with pytest.raises(MissingDataError):
        y_recurrence([1, 2], 1, 5)
    # every e <= 8 and k > 2e with d <= 26, 117 values: the pinned rows give
    # d >= 16 and the all-search resolver the rest
    rows, raw = _frontier_rows(), Resolver(use_closed_forms=False)

    def y(k, d):
        return raw.y(k, d) if d <= 15 else rows[d][k]

    checked = 0
    for e in range(9):
        seed = [y(j, j + e + 1) for j in range(2 * e + 1)]
        for k in range(2 * e + 1, 26 - e):
            assert y_recurrence(seed, e, k) == y(k, k + e + 1), (k, e)
            checked += 1
    assert checked == 117


def test_c_recurrence():
    seed = [R.c(2 * z - 1, z) for z in range(1, 3)]  # x = 1 diagonal
    assert seed == [1, 6]
    assert c_recurrence(seed, 1, 5) == 5 * double_factorial(9)
    for e in range(3, 8):
        assert c_recurrence(seed, 1, e) == e * double_factorial(2 * e - 1)


def test_limit_values_y():
    # the closed values are the product columns for k = 1..3; the forced zeros
    # are never entered
    r = Resolver()
    assert r.y(1, 9) == 1
    assert r.y(2, 7) == 13
    assert r.y(9, 9) == 0
    assert r.y(4, 5) == 1
    assert r.tables["Y"].provenance == {(1, 9): CLOSED_FORM, (2, 7): CLOSED_FORM, (4, 5): SEARCH}
    # the shallow diagonals come from the socle sum
    assert R.y(4, 5) == 1  # k = d-1
    assert R.y(4, 6) == 10  # s_4 = C(5, 2) at k = d-2
    assert R.y(4, 7) == 49  # C(s_4, 2) + 4


def test_limit_values_match_inversion_route():
    # every k for d <= 8, and the six shallowest diagonals k = d-1..d-6 further
    # out (cheap: the complement index stays small); past k = 3 both take the
    # socle sum, and differ in the hydral shortcut for alpha at q == k
    resolver, raw = Resolver(), Resolver(use_closed_forms=False)
    for d in range(1, 23):
        for k in range(d) if d <= 8 else range(d - 6, d):
            assert resolver.y(k, d) == raw.y(k, d), (k, d)
    assert set(resolver.tables["Y"].provenance.values()) == {CLOSED_FORM, SEARCH}
    assert set(raw.tables["Y"].provenance.values()) == {SEARCH}


def test_limit_values_c():
    # the closed values are the diagonals 2e - k = 0 and 1; c(1, e) and c(2, e)
    # off them are inverted from the closed y(0..2, d), at no search node
    r = Resolver()
    assert r.c(0, 0) == 1
    assert r.c(1, 5) == 1
    assert r.c(2, 1) == 1
    assert r.c(8, 4) == 105
    assert r.c(7, 4) == 420
    assert r.c(2, 3) == R.p(2, 6) - 4
    assert r.budget.nodes == 0
    assert r.tables["C"].provenance == {
        (0, 0): CLOSED_FORM, (1, 5): INVERSION, (2, 1): CLOSED_FORM,
        (8, 4): CLOSED_FORM, (7, 4): CLOSED_FORM, (2, 3): INVERSION,
    }


def test_c_closed_diagonals_match_inversion_route():
    # c(2e, e) = (2e-1)!! and c(2e-1, e) = e (2e-1)!! against the raw inversion
    # over searched y values, e <= 10
    resolver, raw = Resolver(), Resolver(use_closed_forms=False)
    for e in range(1, 11):
        for k in (2 * e, 2 * e - 1):
            assert resolver.c(k, e) == raw.c(k, e), (k, e)
    assert set(resolver.tables["C"].provenance.values()) == {CLOSED_FORM}
    assert set(raw.tables["C"].provenance.values()) == {INVERSION}


def test_y_diagonal_series_e1():
    rf = y_diagonal_series(1, R.y_diagonal_seed(1))
    assert rf.num == ONE
    assert rf.den == one_minus_t_power(1) ** 3


def test_y_diagonal_identities_e2():
    num = y_diagonal_numerator(2, R.y_diagonal_seed(2))
    gammas = list(num.coeffs) + [0] * (4 - len(num.coeffs))
    assert sum(gammas) == 3
    assert sum((i + 1) * g for i, g in enumerate(gammas)) == 6


def test_y_diagonal_rejects_corrupt_seed():
    seed = R.y_diagonal_seed(2)
    seed[1] += 1
    with pytest.raises(IntegrityError):
        y_diagonal_numerator(2, seed)


@pytest.mark.parametrize("e", [1, 2])
def test_y_diagonal_matches_direct_values(e):
    rf = y_diagonal_series(e, R.y_diagonal_seed(e))
    series = series_of(rf, 2 * e + 5)
    for k in range(2 * e + 6):
        assert series[k] == R.y(k + 1, k + e + 2), (e, k)


@pytest.mark.parametrize("e", [1, 2])
def test_y_diagonal_matches_oracle(e):
    rf = y_diagonal_series(e, R.y_diagonal_seed(e))
    series = series_of(rf, 6)
    for k in range(3):
        d = k + e + 2
        spec_oracle = Resolver()
        assert series[k] == spec_oracle.y_oracle(k + 1, d), (e, k)


@pytest.mark.slow
@pytest.mark.parametrize("e", [1, 2])
def test_y_diagonal_matches_oracle_wide(e):
    rf = y_diagonal_series(e, R.y_diagonal_seed(e))
    series = series_of(rf, 6)
    oracle = Resolver()
    for k in range(3, 5):
        assert series[k] == oracle.y_oracle(k + 1, k + e + 2), (e, k)


def test_c_diagonal_series_x0():
    num, exponent = c_diagonal_series(0, R.c_diagonal(0, 3))
    assert num == ONE
    assert exponent == Q(3, 2)


def test_c_diagonal_series_x1():
    num, exponent = c_diagonal_series(1, R.c_diagonal(1, 4))
    assert num == Polynomial([1, 1])
    assert exponent == Q(5, 2)


@pytest.mark.parametrize("x", [2, 3])
def test_c_diagonal_series_matches_pipeline(x):
    bound = 2 * x - math.ceil(x / 2)
    diag = R.c_diagonal(x, bound + 3)
    num, exponent = c_diagonal_series(x, diag)
    assert num.degree <= bound
    assert num[0] == (R.c(2, 1 + x // 2) if x % 2 == 0 else 1)
    # resummation against the diagonal is already asserted inside; double-check
    resummed = expand_half_power(HalfPower(-exponent), len(diag) - 1, num)
    assert resummed == borel(PowerSeries([Q(v) for v in diag], len(diag) - 1))


def test_c_diagonal_series_rejects_corrupt_diagonal():
    for x in (0, 1, 2, 3):
        diag = R.c_diagonal(x, 6)
        diag[4] += 1
        with pytest.raises(IntegrityError):
            c_diagonal_series(x, diag)
        short = R.c_diagonal(x, 2 * x - math.ceil(x / 2))  # one value short
        with pytest.raises(MissingDataError):
            c_diagonal_series(x, short)


def test_resolver_prop_values():
    assert [R.c(2 * e, e) for e in range(1, 5)] == [1, 3, 15, 105]
    assert [R.c(2 * e - 1, e) for e in range(1, 5)] == [1, 6, 45, 420]
    assert R.c(2, 6) == R.p(2, 9) - 4
    assert [R.c(1, e) for e in range(1, 6)] == [1] * 5


def test_resolver_pipeline_vs_oracle_small():
    raw = Resolver(use_closed_forms=False)
    for d in range(1, 8):
        for n in range(5):
            assert raw.p(n, d) == R.p(n, d) == raw.p_oracle(n, d), (n, d)


def test_resolver_skips_zero_terms():
    # y comes from the alpha counts, so y(4, 12) fills no c entry
    r = Resolver()
    r.y(4, 12)
    assert not r.tables["C"].entries
    # binom(k, x) = 0 for x > k and c(x, e) = 0 for x > 2e: y_from_c reads x <= min(k, 2e)
    for k, e in [(4, 7), (5, 2)]:
        read = []

        def c(x, e):
            read.append(x)
            return r.c(x, e)

        assert y_from_c(c, k, e) == r.y(k, k + e + 1)
        assert read == list(range(min(k, 2 * e) + 1)), (k, e)
    # binom(4, k) = 0 for k > 4, so p(4, 9) needs y(k, 9) only for k <= 4
    r.p(4, 9)
    assert max(k for k, d in r.tables["Y"].entries if d == 9) == 4


def test_size_series_fitting():
    num4 = R.size_numerator(4)
    assert num4 == Polynomial([1, 1, -1])
    for d in range(1, 7):
        num = R.size_numerator(d)
        assert num.degree <= max(0, d - 2)
        if d <= 3:
            assert num == ONE


def _frontier_rows() -> dict[int, list[int]]:
    # columns: d, the row y(0..d-1, d), the commit and the command that computed it
    rows = {}
    for line in (DATA / "frontier_rows.tsv").read_text().splitlines():
        if line and not line.startswith("#"):
            d, values, _commit, _command = line.split("\t")
            rows[int(d)] = [int(v) for v in values.split()]
    return rows


@pytest.mark.parametrize("d", [16, 17])
def test_frontier_rows(d):
    resolver = Resolver()
    assert [resolver.y(k, d) for k in range(d)] == _frontier_rows()[d]


def test_resolver_sweeps_once_per_pair(monkeypatch):
    # one search to the largest m of each (k, q) fills every smaller m
    calls = []
    search = mpart.alpha_tables

    def counted(k, q, m, **kwargs):
        calls.append((k, q))
        return search(k, q, m, **kwargs)

    monkeypatch.setattr(mpart, "alpha_tables", counted)
    resolver = Resolver()
    assert [resolver.y(k, 17) for k in range(17)] == _frontier_rows()[17]
    assert len(calls) == len(set(calls)) == 13


@pytest.mark.parametrize("workers", [1, 2])
def test_resolver_node_ceiling_is_one_budget(workers):
    # every search behind y(5, 12) is charged to one budget, and so is each
    # hydral closed form, one node per partition of k: 66 nodes in all
    with pytest.raises(ResourceCeilingError):
        Resolver(workers=workers, node_ceiling=65).y(5, 12)
    assert Resolver(workers=workers, node_ceiling=66).y(5, 12) == 23860


@pytest.mark.slow
def test_frontier_row_18():
    resolver = Resolver()
    assert [resolver.y(k, 18) for k in range(18)] == _frontier_rows()[18]


@pytest.mark.slow
@pytest.mark.parametrize("d", [19, 20, 22, 23])
def test_frontier_rows_deep(d):
    resolver = Resolver()
    assert [resolver.y(k, d) for k in range(d)] == _frontier_rows()[d]
    if d == 22:
        assert resolver.p(4, 22) == 10362312
        assert resolver.p(5, 22) == 262769080


def test_frontier_row_22_gives_p():
    # the pinned row alone, by p(n, d) = sum_k binom(n, k) y(k, d)
    row = _frontier_rows()[22]
    assert p_from_y(lambda k, d: row[k], 4, 22) == 10362312
    assert p_from_y(lambda k, d: row[k], 5, 22) == 262769080


def test_frontier_row_23_gives_p():
    row = _frontier_rows()[23]
    assert p_from_y(lambda k, d: row[k], 4, 23) == 19295226
    assert p_from_y(lambda k, d: row[k], 5, 23) == 565502405


def test_golden_c6_diagonal_from_pinned_rows():
    # c(2z+2, z+4) reads y(j, d) for d up to 3z + 7: the pinned rows give
    # d >= 16 and a Resolver the rest, so z = 0..6 is recomputed (z = 7
    # needs d = 28, which is not pinned)
    rows, resolver = _frontier_rows(), Resolver()

    def y(k, d):
        return resolver.y(k, d) if d <= 15 else rows[d][k]

    _, diag = load_golden_c6()
    assert [c_from_y(y, 2 * z + 2, z + 4) for z in range(7)] == diag[:7]


@pytest.mark.parametrize("d, p4, p5", [(25, 65715094, 2569270050), (26, 120256653, 5427963902)])
def test_record_rows_give_p(d, p4, p5):
    # the d = 25, 26 rows are records no test recomputes; this reads them only
    row = _frontier_rows()[d]
    assert p_from_y(lambda k, e: row[k], 4, d) == p4
    assert p_from_y(lambda k, e: row[k], 5, d) == p5
