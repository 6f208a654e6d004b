"""Exact series layer: polynomials, rational functions, Borel operators,
product expansions, numerator fitting, and the grammar."""

import random
from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpart.intmath import binom, double_factorial
from hdpart import series as series_mod
from hdpart.series import (
    HalfPower,
    IntegrityError,
    NumeratorFitError,
    ONE,
    Polynomial,
    PowerSeries,
    RationalFunction,
    binomial_series,
    borel,
    euler_product,
    expand_half_power,
    factor_into_one_minus_powers,
    fit_numerator,
    format_factored_rational,
    format_polynomial,
    format_rational,
    inverse_euler,
    one_minus_t_power,
    parse_polynomial,
    series_of,
)
from reference import inverse_borel


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(-1, 0) == 1
    assert binom(-1, 2) == 1
    assert binom(-2, 3) == -4
    assert binom(3, -1) == 0
    assert binom(2, 5) == 0


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert [double_factorial(2 * e - 1) for e in range(1, 5)] == [1, 3, 15, 105]


def test_series_of_examples():
    geom = RationalFunction(ONE, one_minus_t_power(1))
    assert series_of(geom, 4).coeffs == (1, 1, 1, 1, 1)
    num = Polynomial([0, 2, 1, 1])  # t*(2 + t + t^2)
    den = one_minus_t_power(1) * one_minus_t_power(2)
    assert series_of(RationalFunction(num, den), 5).coeffs == (0, 2, 3, 6, 7, 10)
    cube = RationalFunction(ONE, one_minus_t_power(1) ** 3)
    assert series_of(cube, 3).coeffs == (1, 3, 6, 10)


def test_series_of_rejects_vanishing_constant_term():
    with pytest.raises(ValueError):
        RationalFunction(ONE, Polynomial([0, 1]))


def test_borel_inverse_borel():
    s = PowerSeries([factorial(k) for k in range(8)], 7)
    assert borel(s).coeffs == (1,) * 8
    t = PowerSeries(range(12), 11)
    assert inverse_borel(borel(t)) == t
    assert borel(inverse_borel(t)) == t
    rng = random.Random(5)
    for _ in range(5):
        u = PowerSeries([Q(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(41)], 40)
        assert inverse_borel(borel(u)) == u
        assert borel(inverse_borel(u)) == u


def test_half_power_expansions():
    assert expand_half_power(HalfPower(Q(-1, 2)), 2).coeffs == (1, 1, Q(3, 2))
    got = expand_half_power(HalfPower(Q(-3, 2)), 2)
    assert got.coeffs == (1, 3, Q(15, 2))
    # multiplying coefficient k by k! gives the odd double factorials
    odd = inverse_borel(expand_half_power(HalfPower(Q(-3, 2)), 6))
    assert list(odd.coeffs) == [double_factorial(2 * n + 1) for n in range(7)]


def test_half_power_requires_half_integer():
    with pytest.raises(ValueError):
        HalfPower(Q(1, 3))


@pytest.mark.parametrize("x", range(1, 6))
def test_resummation_identity_odd_powers(x):
    # coefficient n of the inverse transform is (2n+2x-1)!!/(2x-1)!!
    series = expand_half_power(HalfPower(Q(-(1 + 2 * x), 2)), 20)
    got = inverse_borel(series)
    for n in range(21):
        assert got[n] == Q(double_factorial(2 * n + 2 * x - 1), double_factorial(2 * x - 1))


@pytest.mark.parametrize("s", range(1, 6))
def test_resummation_identity_linear_numerator(s):
    num = Polynomial([s * double_factorial(2 * s - 1), double_factorial(2 * s - 1)])
    series = expand_half_power(HalfPower(Q(-(3 + 2 * s), 2)), 20, num)
    got = inverse_borel(series)
    for i in range(21):
        assert got[i] == (s + i) * double_factorial(2 * s + 2 * i - 1)


def test_fit_numerator_examples():
    ones = PowerSeries([1] * 10, 9)
    assert fit_numerator(ones, one_minus_t_power(1), 0) == ONE
    diag = PowerSeries([comb(k + 2, 2) for k in range(10)], 9)
    assert fit_numerator(diag, one_minus_t_power(1) ** 3, 1) == ONE
    naturals = PowerSeries(range(1, 11), 9)
    with pytest.raises(NumeratorFitError) as err:
        fit_numerator(naturals, one_minus_t_power(1), 0)
    assert err.value.index == 1


def test_fit_numerator_needs_slack():
    short = PowerSeries([1, 1, 1], 2)
    with pytest.raises(ValueError):
        fit_numerator(short, one_minus_t_power(1), 1)


def test_fit_recovers_random_rational_functions():
    rng = random.Random(20250809)
    for _ in range(25):
        num = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        den = ONE
        for _ in range(rng.randint(1, 3)):
            den = den * Polynomial([1, rng.randint(-3, 3)])
        r = RationalFunction(num, den)
        bound = max(num.degree, 0)
        series = series_of(r, den.degree + bound + 4)
        assert fit_numerator(series, den, bound) == num


def test_euler_product_examples():
    classical = euler_product([1] * 10, 9)
    assert [int(c) for c in classical.coeffs] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    planes = euler_product(list(range(1, 8)), 7)
    assert [int(c) for c in planes.coeffs] == [1, 1, 3, 6, 13, 24, 48, 86]
    geom = series_of(RationalFunction(ONE, one_minus_t_power(1)), 8)
    assert inverse_euler(geom) == [1] + [0] * 7
    # negative exponents: prod (1 - t^m) is Euler's pentagonal series
    pentagonal = [0] * 41
    for k in range(-5, 6):
        pentagonal[k * (3 * k - 1) // 2] = (-1) ** k
    assert euler_product([-1] * 40, 40) == PowerSeries(pentagonal, 40)
    assert inverse_euler(PowerSeries(pentagonal, 40)) == [-1] * 40
    # a rational exponent: (1 - t^2)^(-1/3) is the binomial series in t^2
    cube_root = binomial_series(Q(-1, 3), -1, 10)
    spread = [cube_root[j // 2] if j % 2 == 0 else 0 for j in range(21)]
    assert euler_product([0, Q(1, 3)], 20) == PowerSeries(spread, 20)
    assert inverse_euler(PowerSeries(spread, 20)) == [0, Q(1, 3)] + [0] * 18
    # an integer column divides exactly or raises
    with pytest.raises(IntegrityError):
        series_mod._exact_quotient(7, 2)


def test_euler_round_trip_random_series():
    rng = random.Random(1234)
    for _ in range(50):
        order = rng.randint(3, 12)
        coeffs = [1] + [rng.randint(-6, 6) for _ in range(order)]
        s = PowerSeries(coeffs, order)
        exps = inverse_euler(s)
        assert euler_product(exps, order) == s
        rational = PowerSeries([1] + [Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in coeffs[1:]])
        assert euler_product(inverse_euler(rational), order) == rational


def test_polynomial_arithmetic_basics():
    p = Polynomial([1, 2]) * Polynomial([1, -1])
    assert p == Polynomial([1, 1, -2])
    q, r = Polynomial([1, 1, -2]).divmod(Polynomial([1, 2]))
    assert q == Polynomial([1, -1]) and r.is_zero()
    assert Polynomial([0, 0, 3]).valuation() == 2


def test_rational_equality_is_cross_multiplication():
    a = RationalFunction(Polynomial([1, 1]), one_minus_t_power(2))
    b = RationalFunction(ONE, one_minus_t_power(1))
    assert a == b  # (1+t)/(1-t^2) = 1/(1-t)
    assert a.reduced().den == one_minus_t_power(1)


def test_factor_into_one_minus_powers():
    den = one_minus_t_power(2) * one_minus_t_power(3) * one_minus_t_power(4)
    assert factor_into_one_minus_powers(den) == [2, 3, 4]
    assert factor_into_one_minus_powers(one_minus_t_power(1) ** 3) == [1, 1, 1]
    assert factor_into_one_minus_powers(Polynomial([1, 1])) is None
    # exponents [1, 1] are nonnegative integers, but 1*1 + 2*1 != deg 2
    assert factor_into_one_minus_powers(Polynomial([1, -1, -1])) is None
    assert factor_into_one_minus_powers(ONE) == []
    assert factor_into_one_minus_powers(Polynomial([2, 1])) is None
    den = one_minus_t_power(2) ** 2 * one_minus_t_power(5)
    assert factor_into_one_minus_powers(den) == [2, 2, 5]
    rng = random.Random(13)
    for _ in range(40):
        parts = sorted(rng.randint(1, 9) for _ in range(rng.randint(0, 5)))
        den = ONE
        for a in parts:
            den = den * one_minus_t_power(a)
        assert factor_into_one_minus_powers(den) == parts


def test_format_examples():
    assert format_polynomial(Polynomial([11, 0, Q(-1, 2)])) == "11 - 1/2*t^2"
    assert format_polynomial(Polynomial()) == "0"
    r = RationalFunction(Polynomial([0, 2, 1, 1]), one_minus_t_power(1) * one_minus_t_power(2))
    assert format_factored_rational(r) == "t*(2 + t + t^2) / ((1 - t)*(1 - t^2))"
    assert "/" in format_rational(r)


@pytest.mark.parametrize(
    "num, den, text",
    [
        (Polynomial(), ONE, "0"),
        (Polynomial([1, 2]), one_minus_t_power(1), "(1 + 2*t) / ((1 - t))"),
        (Polynomial([0, 0, 3]), ONE, "t^2*(3)"),
        (Polynomial([5]), ONE, "5"),
        # 1 + t + t^2 is no product of (1 - t^a) factors: the plain quotient
        (ONE, Polynomial([1, 1, 1]), "(1) / (1 + t + t^2)"),
    ],
)
def test_format_factored_rational_branches(num, den, text):
    assert format_factored_rational(RationalFunction(num, den)) == text


coefficients = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


@given(st.lists(coefficients, min_size=0, max_size=8))
@settings(max_examples=120, deadline=None)
def test_grammar_round_trip(coeffs):
    p = Polynomial(coeffs)
    assert parse_polynomial(format_polynomial(p)) == p
