"""Exact univariate polynomial / rational function / truncated power series arithmetic.

Everything is carried over arbitrary-precision rationals (fractions.Fraction);
there is no floating point anywhere. Truncation orders are always explicit.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

Q = Fraction


class IntegrityError(RuntimeError):
    """Two supposedly equal routes disagreed, or a structural identity failed."""


def _normalize(coeffs: Iterable) -> tuple[Fraction, ...]:
    cs = [Q(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _product(a: Sequence, b: Sequence, n: int) -> list[Fraction]:
    """Coefficients 0..n of the product of the coefficient lists a and b.

    Zero coefficients of a are skipped, so a sparse factor belongs first.
    """
    out = [Q(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


class Polynomial:
    """Dense univariate polynomial over Q, lowest degree first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _normalize(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Q(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[i] + other[i] for i in range(n)])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(_product(self.coeffs, other.coeffs, self.degree + other.degree))

    def scale(self, c) -> "Polynomial":
        c = Q(c)
        return Polynomial([a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "Polynomial":
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x) -> Fraction:
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [Q(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q by the Euclidean algorithm (the zero polynomial for two zeros)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.scale(1 / a.coeffs[-1]) if a.coeffs else a


ONE = Polynomial([1])


def one_minus_t_power(a: int) -> Polynomial:
    """The factor 1 - t^a."""
    return Polynomial([1] + [0] * (a - 1) + [-1]) if a > 0 else ONE


class RationalFunction:
    """Quotient num/den with den(0) != 0 so it expands at t = 0.

    Stored as given (no forced gcd reduction); equality is cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = ONE):
        if den.is_zero() or den[0] == 0:
            raise ValueError("denominator must have nonzero constant term")
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def reduced(self) -> "RationalFunction":
        """Lowest terms, normalized so den(0) = 1."""
        if self.num.is_zero():
            return RationalFunction(Polynomial(), ONE)
        g = poly_gcd(self.num, self.den)
        num = self.num.divmod(g)[0]
        den = self.den.divmod(g)[0]
        c = den[0]
        return RationalFunction(num.scale(1 / c), den.scale(1 / c))

    def __repr__(self):
        return f"RationalFunction({format_polynomial(self.num)!r}, {format_polynomial(self.den)!r})"


class PowerSeries:
    """Truncated power series: exact coefficients for degrees 0..order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [Q(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = cs[: order + 1]
        cs += [Q(0)] * (order + 1 - len(cs))
        self.coeffs = tuple(cs)
        self.order = order

    def __getitem__(self, i: int) -> Fraction:
        if i < 0:
            return Q(0)
        if i > self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return self.coeffs[: n + 1] == other.coeffs[: n + 1]
        return NotImplemented

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(_product(self.coeffs, other.coeffs, n), n)

    def mul_polynomial(self, p: Polynomial) -> "PowerSeries":
        return PowerSeries(_product(p.coeffs, self.coeffs, self.order), self.order)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


def series_of(r: RationalFunction, order: int) -> PowerSeries:
    """First order+1 Maclaurin coefficients of a rational function, exact."""
    d0 = r.den[0]
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = r.num[k]
        for i in range(1, min(k, r.den.degree) + 1):
            acc -= r.den[i] * out[k - i]
        out.append(acc / d0)
    return PowerSeries(out, order)


def borel(s: PowerSeries) -> PowerSeries:
    """Divide coefficient k by k!."""
    return PowerSeries([c / math.factorial(k) for k, c in enumerate(s.coeffs)], s.order)


class _HalfPower(NamedTuple):
    """The field of HalfPower, whose __new__ normalises and checks it."""

    exponent: Fraction


class HalfPower(_HalfPower):
    """(1 - 2t) raised to a half-integer exponent (odd numerator over 2)."""

    __slots__ = ()

    def __new__(cls, exponent: Fraction):
        e = Q(exponent)
        if e.denominator != 2:
            raise ValueError("exponent must be a half-integer with denominator 2")
        return super().__new__(cls, e)


def binomial_series(exponent: Fraction, u_coeff, order: int) -> PowerSeries:
    """(1 + c*t)^m for rational m via the generalized binomial expansion."""
    m = Q(exponent)
    c = Q(u_coeff)
    out = [Q(1)]
    term = Q(1)
    for i in range(1, order + 1):
        term = term * (m - (i - 1)) / i * c
        out.append(term)
    return PowerSeries(out, order)


def expand_half_power(power: HalfPower, order: int, numerator: Polynomial = ONE) -> PowerSeries:
    """Exact expansion of numerator * (1-2t)^exponent."""
    base = binomial_series(power.exponent, -2, order)
    return base.mul_polynomial(numerator)


class NumeratorFitError(ValueError):
    """A numerator fit failed: the product series has a nonzero high coefficient."""

    def __init__(self, index: int, value: Fraction):
        self.index = index
        self.value = value
        super().__init__(f"nonvanishing coefficient {value} at index {index}")


FIT_SLACK = 3  # verification coefficients a numerator fit needs beyond its bound


def fit_numerator(s: PowerSeries, den: Polynomial, deg_bound: int) -> Polynomial:
    """Fit num with deg <= deg_bound such that s = num/den, or raise NumeratorFitError.

    Requires at least FIT_SLACK verification coefficients beyond the bound, so a
    successful fit is falsified by data rather than merely interpolated.
    """
    if s.order < den.degree + deg_bound + FIT_SLACK:
        raise ValueError(
            f"series order {s.order} too small: need >= {den.degree + deg_bound + FIT_SLACK}"
        )
    prod = s.mul_polynomial(den)
    for i in range(deg_bound + 1, prod.order + 1):
        if prod.coeffs[i] != 0:
            raise NumeratorFitError(i, prod.coeffs[i])
    return Polynomial(prod.coeffs[: deg_bound + 1])


@functools.cache
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n in increasing order, trial-divided once per n."""
    return tuple(m for m in range(1, n + 1) if n % m == 0)


def _exact_quotient(total, n: int):
    """total / n, kept in plain ints when total is an int (and then exact)."""
    if isinstance(total, int):
        q, r = divmod(total, n)
        if r:
            raise IntegrityError(f"integer Euler column: {total} is not divisible by {n}")
        return q
    return Q(total, n)


class EulerColumn:
    """Coefficients a_0, a_1, ... of prod_{m>=1} (1 - t^m)^(-w_m), append-only.

    Each new coefficient comes from the ones before it by the Euler-transform
    recurrence n*a_n = sum_{k=1..n} s_k*a_{n-k} with s_k = sum_{m|k} m*w_m
    (Bernstein-Sloane, "Some canonical sequences of integers", 1995). The
    callable gives w_m. Integer weights keep the column in plain ints, where an
    inexact division raises IntegrityError; rational weights give Fractions.
    """

    __slots__ = ("_weight", "_w", "_s", "_a")

    def __init__(self, weight: Callable[[int], int | Fraction]):
        self._weight = weight
        self._w = [0]  # w_0 and s_0 are placeholders
        self._s = [0]
        self._a = [1]

    def __getitem__(self, n: int):
        if n < 0:
            raise IndexError(f"coefficient index {n} is negative")
        a, s, w = self._a, self._s, self._w
        while len(a) <= n:
            k = len(a)
            w.append(self._weight(k))
            s.append(sum(m * w[m] for m in _divisors(k)))
            # s_1*a_{k-1} + ... + s_k*a_0, the products taken in C
            a.append(_exact_quotient(sum(map(operator.mul, s[1:], reversed(a))), k))
        return a[n]

    def head(self, order: int) -> list:
        """a_0..a_order."""
        return [self[n] for n in range(order + 1)]


def euler_product(exponents: Sequence, order: int) -> PowerSeries:
    """prod_{m=1}^{M} (1 - t^m)^(-w_m) truncated at the given order."""
    ws = list(exponents)
    column = EulerColumn(lambda m: ws[m - 1] if m <= len(ws) else 0)
    return PowerSeries(column.head(order), order)


def inverse_euler(s: PowerSeries) -> list[Fraction]:
    """Exponents w_1..w_N with s = prod (1-t^m)^(-w_m): the EulerColumn
    recurrence run backwards, s_n = n*a_n - sum_{k<n} s_k*a_{n-k} and
    n*w_n = s_n - sum_{j|n, j<n} j*w_j.

    Requires s(0) = 1. Returns exact rationals; they are integers whenever the
    input is an integer series that genuinely is such a product.
    """
    if s[0] != 1:
        raise ValueError("constant coefficient must be 1")
    a = s.coeffs
    sums: list[Fraction] = [Q(0)]
    ws: list[Fraction] = [Q(0)]
    for n in range(1, s.order + 1):
        sums.append(n * a[n] - sum(sums[k] * a[n - k] for k in range(1, n)))
        ws.append(Q(sums[n] - sum(j * ws[j] for j in _divisors(n)[:-1]), n))
    return ws[1:]


# --- text grammar -----------------------------------------------------------
#
# Polynomials render as `c0 + c1*t + c2*t^2 + ...`: zero terms are skipped,
# unit coefficients are left implicit (`t^2`, not `1*t^2`), rationals print
# as `p/q`, and negative terms join with ` - `. The zero polynomial is `0`.


def _format_term(c: Fraction, k: int) -> str:
    if k == 0:
        return str(c)
    t = "t" if k == 1 else f"t^{k}"
    if c == 1:
        return t
    if c == -1:
        return f"-{t}"
    return f"{c}*{t}"


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        term = _format_term(c, k)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?\s*"
    r"(?:(?P<num>\d+(?:/\d+)?)(?:\s*\*\s*(?P<tn>t(?:\^(?P<en>\d+))?))?"
    r"|(?P<tb>t(?:\^(?P<eb>\d+))?))$"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse the fixed polynomial grammar produced by format_polynomial."""
    text = text.strip()
    if text == "0":
        return Polynomial()
    text = text.replace(" - ", " + -")
    coeffs: dict[int, Fraction] = {}
    for raw in text.split(" + "):
        m = _TERM_RE.match(raw.strip())
        if not m:
            raise ValueError(f"cannot parse polynomial term {raw!r}")
        c = Q(m.group("num")) if m.group("num") else Q(1)
        if m.group("sign") == "-":
            c = -c
        tpart = m.group("tn") or m.group("tb")
        if tpart is None:
            k = 0
        else:
            exp = m.group("en") or m.group("eb")
            k = int(exp) if exp else 1
        coeffs[k] = coeffs.get(k, Q(0)) + c
    n = max(coeffs) + 1
    return Polynomial([coeffs.get(i, Q(0)) for i in range(n)])


def format_rational(r: RationalFunction) -> str:
    if r.den == ONE:
        return format_polynomial(r.num)
    return f"({format_polynomial(r.num)}) / ({format_polynomial(r.den)})"


# --- factored display forms -------------------------------------------------


def factor_into_one_minus_powers(den: Polynomial) -> list[int] | None:
    """Write den (with den(0)=1) as prod (1 - t^{a_i}), or None if impossible.

    1/den = prod (1-t^m)^(-w_m) has exactly one exponent sequence, so den
    factors iff w_1..w_D (D = deg den) are nonnegative integers with
    sum m*w_m = D; w_m is then the multiplicity of (1 - t^m).
    """
    if den.is_zero() or den[0] != 1:
        return None
    ws = inverse_euler(series_of(RationalFunction(ONE, den), den.degree))
    if any(w < 0 or w.denominator != 1 for w in ws):
        return None
    if sum(m * w for m, w in enumerate(ws, 1)) != den.degree:
        return None
    return [m for m, w in enumerate(ws, 1) for _ in range(int(w))]


def format_factored_rational(r: RationalFunction) -> str:
    """Canonical display: t-power pulled out of the numerator, denominator as
    a product of (1 - t^a) factors when such a factorization exists."""
    red = r.reduced()
    if red.num.is_zero():
        return "0"
    v = red.num.valuation()
    body = Polynomial(red.num.coeffs[v:])
    if v == 0:
        num_str = format_polynomial(body)
        num_str = f"({num_str})" if body.degree > 0 else num_str
    else:
        tpow = "t" if v == 1 else f"t^{v}"
        num_str = f"{tpow}*({format_polynomial(body)})"
    if red.den == ONE:
        return num_str
    factors = factor_into_one_minus_powers(red.den)
    if factors is None:
        return format_rational(red)
    counts: dict[int, int] = {}
    for a in factors:
        counts[a] = counts.get(a, 0) + 1
    pieces = []
    for a in sorted(counts):
        base = f"(1 - t^{a})" if a > 1 else "(1 - t)"
        pieces.append(base if counts[a] == 1 else f"{base}^{counts[a]}")
    return f"{num_str} / ({'*'.join(pieces)})"
