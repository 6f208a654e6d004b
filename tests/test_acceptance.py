"""Acceptance gate: every criterion at its stated tolerance (exact arithmetic
throughout), with wall-clock budgets where the contract states one.

Each test prints one PASS line; a failed assertion marks the criterion FAIL.
"""

import time
from fractions import Fraction as Q

from hdpart.cache import load_golden_c6, load_golden_records
from hdpart.hydral import hydral_count, hydral_series
from hdpart.intmath import binom, double_factorial
from hdpart.lattice import ConstraintSpec, count_constrained, count_partitions
from hdpart.macmahon import ProductTable, search_value_collisions
from hdpart.mpart import alpha_by_hilbert, alpha_count
from hdpart.refine import Resolver, c_diagonal_series, y_diagonal_numerator
from hdpart.series import (
    HalfPower,
    ONE,
    Polynomial,
    expand_half_power,
    parse_polynomial,
    series_of,
)
from reference import inverse_borel

MAX_WORKERS = 4


def report(num: int, ok: bool, desc: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s): {desc}")
    assert ok, desc
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_oracle_golden_values():
    t0 = time.monotonic()
    ok = (
        count_partitions(3, 3) == 6
        and count_partitions(3, 4) == 13
        and count_partitions(3, 5) == 24
        and count_partitions(2, 7) == 15
    )
    report(1, ok, "oracle values p(3,3)=6 p(3,4)=13 p(3,5)=24 p(2,7)=15", t0, 5.0)


def _pipeline_table(workers: int) -> dict:
    resolver = Resolver(use_closed_forms=False, workers=workers)
    return {(n, d): resolver.p(n, d) for d in range(1, 9) for n in range(5)}


def test_criterion_02_pipeline_equals_oracle():
    t0 = time.monotonic()
    pipeline = _pipeline_table(workers=1)
    ok = all(
        pipeline[(n, d)] == count_partitions(n, d)
        for d in range(1, 9)
        for n in range(5)
    )
    report(2, ok, "inversion+recursion+search pipeline == oracle for d<=8 n<=4", t0, 600.0)


def test_criterion_03_refined_search_values():
    t0 = time.monotonic()
    ok = (
        alpha_count(3, 5, 13, length=4) == 531
        and alpha_by_hilbert((1, 3, 5, 7, 6)) == 504
        and alpha_by_hilbert((1, 3, 5, 6, 7)) == 27
        and alpha_count(3, 5, 13) == 43260
    )
    report(3, ok, "alpha(3,5,13|l=4)=531=504+27 and alpha(3,5,13)=43260", t0, 1800.0)


def test_criterion_04_diagonal_closed_values():
    t0 = time.monotonic()
    resolver = Resolver(use_closed_forms=False)
    ok = True
    for e in range(1, 5):
        ok &= resolver.c(2 * e, e) == double_factorial(2 * e - 1)
        ok &= resolver.c(2 * e - 1, e) == e * double_factorial(2 * e - 1)
    for e in range(1, 4):
        spec = ConstraintSpec(size=1 + 2 * e + e, embedding_dim=2 * e, min_socle_degree=2)
        ok &= count_constrained(2 * e, spec) == double_factorial(2 * e - 1)
        spec = ConstraintSpec(size=2 * e + e, embedding_dim=2 * e - 1, min_socle_degree=2)
        ok &= count_constrained(2 * e - 1, spec) == e * double_factorial(2 * e - 1)
    report(4, ok, "c(2e,e)=(2e-1)!! and c(2e-1,e)=e(2e-1)!! via pipeline and oracle", t0, 600.0)


def test_criterion_05_hydral_closed_forms():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 5):
        series = series_of(hydral_series(n), 8)
        for m in range(1, 9):
            ok &= int(series[m]) == hydral_count(n, m) == alpha_count(n, n, m)
    rf = hydral_series(4).reduced()
    body = Polynomial(rf.num.coeffs[rf.num.valuation():])
    expected = parse_polynomial(
        "16 + 40*t + 57*t^2 + 79*t^3 + 81*t^4 + 46*t^5 + 37*t^6 + 7*t^7 + t^8 - 4*t^9"
    )
    ok &= rf.num.valuation() == 2 and body == expected
    report(5, ok, "hydral series == search for n<=4, m<=8; n=4 numerator exact", t0, 600.0)


def test_criterion_06_nonminimal_quadric_table():
    t0 = time.monotonic()
    expected = [0, 18, 51, 126, 252, 474, 801, 1302, 2001, 3000, 4344, 6183, 8595]
    got = [alpha_count(3, 4, m) for m in range(1, 14)]
    report(6, got == expected, "alpha(3,4,m) for m=1..13 matches the known table", t0, 600.0)


def test_criterion_07_flat_profile_family():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 5):
        expected = sum(binom(n, k) * k ** (n - k) for k in range(n + 1))
        ok &= alpha_by_hilbert((1,) + (n,) * 3) == expected
        ok &= alpha_by_hilbert((1,) + (n,) * 4) == expected
    report(7, ok, "flat-profile counts equal sum C(n,k)k^(n-k) at depths 3 and 4", t0, 600.0)


def test_criterion_08_resummation_identities():
    t0 = time.monotonic()
    ok = True
    for x in range(1, 6):
        series = inverse_borel(expand_half_power(HalfPower(Q(-(1 + 2 * x), 2)), 20))
        ok &= all(
            series[n] == Q(double_factorial(2 * n + 2 * x - 1), double_factorial(2 * x - 1))
            for n in range(21)
        )
    for s in range(1, 6):
        pref = double_factorial(2 * s - 1)
        num = Polynomial([s * pref, pref])
        series = inverse_borel(expand_half_power(HalfPower(Q(-(3 + 2 * s), 2)), 20, num))
        ok &= all(
            series[i] == (s + i) * double_factorial(2 * s + 2 * i - 1) for i in range(21)
        )
    report(8, ok, "both resummation identities hold to order 20, exact rationals", t0, 60.0)


def test_criterion_09_numerator_structure():
    t0 = time.monotonic()
    resolver = Resolver()
    ok = True
    for e in (1, 2):
        num = y_diagonal_numerator(e, resolver.y_diagonal_seed(e))
        gammas = [num[i] for i in range(2 * e)]
        ok &= sum(gammas) == double_factorial(2 * e - 1)
        ok &= sum((i + 1) * g for i, g in enumerate(gammas)) == e * double_factorial(2 * e - 1)
    num0, exp0 = c_diagonal_series(0, resolver.c_diagonal(0, 3))
    ok &= num0 == ONE and exp0 == Q(3, 2)
    (c6_text,), diag = load_golden_c6()
    num6, exp6 = c_diagonal_series(6, diag)
    ok &= num6 == parse_polynomial(c6_text) and exp6 == Q(21, 2)
    # the supplied diagonal's desk-scale prefix is recomputed from scratch
    ok &= all(resolver.c(2 * z + 2, z + 4) == diag[z] for z in range(4))
    report(9, ok, "numerator identities; x=0 unit numerator; x=6 fixture matched", t0, 600.0)


def test_criterion_10_product_onset():
    t0 = time.monotonic()
    table = ProductTable()
    resolver = Resolver()
    ok = all(table.value(4, d) == resolver.p(4, d) for d in range(6))
    oracle = count_partitions(4, 6)
    ok &= table.value(4, 6) != oracle
    report(10, ok, "product matches true counts to size 5 and departs at size 6", t0, 300.0)


def test_criterion_11_sparsity():
    t0 = time.monotonic()
    reportdata = search_value_collisions(8, 10**6, Resolver())
    values = {c["value"] for c in reportdata.evidence["collisions"]}
    ok = reportdata.verdict == "holds"
    ok &= {15, 45, 105, 120, 231, 2145, 2485} <= values
    report(11, ok, "all collisions involve size 3; known values present", t0, 600.0)


def test_criterion_12_fixed_size_series():
    t0 = time.monotonic()
    resolver = Resolver()
    ok = True
    for d in range(1, 11):
        num = resolver.size_numerator(d)
        ok &= num.degree <= max(0, d - 2)
    golden = {r.index: r.value for r in load_golden_records() if r.kind == "P"}
    ok &= golden[(666, 30)] == 5390806817913544023450455014935417834529246670018145780
    report(12, ok, "numerators fit at bound d-2 for d<=10; big value golden-seeded", t0, 600.0)


def test_criterion_13_parallel_determinism():
    t0 = time.monotonic()
    ok = _pipeline_table(1) == _pipeline_table(MAX_WORKERS)
    for workers in (1, MAX_WORKERS):
        ok &= alpha_count(3, 5, 13, workers=workers) == 43260
        ok &= [alpha_count(3, 4, m, workers=workers) for m in (6, 13)] == [474, 8595]
    report(13, ok, "criteria 2/3/6 computations identical at parallelism 1 and max", t0, 1800.0)
