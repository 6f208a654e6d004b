"""The infinite-product count, its refinement, the discrepancy measures, and
machine checkers for the three open questions at configurable ranges."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .intmath import binom
from .refine import (
    IntegrityError,
    Resolver,
    p_from_y,
    product_column,
    product_exponent,
    y_from_p,
)
from .series import (
    ONE,
    NumeratorFitError,
    Polynomial,
    PowerSeries,
    Q,
    fit_numerator,
    inverse_euler,
)


def product_series(n: int, order: int) -> PowerSeries:
    """The conjectured partition series for dimension n, truncated exactly."""
    if n < 0 or order < 0:
        raise ValueError("need n >= 0 and order >= 0")
    return PowerSeries(product_column(n).head(order), order)


class ProductTable:
    """Coefficients of the conjectured product, per dimension, read off the
    process-wide product columns."""

    def value(self, n: int, d: int) -> int:
        return product_column(n)[d]

    def refined(self, d: int, k: int) -> int:
        """The embedding-dimension refinement of the product counts, by the
        same alternating inversion that refines the true counts."""
        return y_from_p(self.value, k, d)


def omega_exponents(n: int, order: int, resolver: Optional[Resolver] = None) -> list[int]:
    """True product exponents for dimension n up to the order."""
    resolver = resolver or Resolver()
    series = PowerSeries([resolver.p(n, d) for d in range(order + 1)], order)
    exps = inverse_euler(series)
    out = []
    for w in exps:
        if w.denominator != 1:
            raise IntegrityError("true exponents must be integers")
        out.append(int(w))
    return out


def epsilon_value(m: int, n: int, resolver: Optional[Resolver] = None) -> int:
    """Exponent-level discrepancy at (m, n)."""
    resolver = resolver or Resolver()
    return product_exponent(n, m) - omega_exponents(n, m, resolver)[m - 1]


class ConjectureReport(NamedTuple):
    conjecture: str  # "andrews-rationality" | "epsilon-divisibility" | "sparsity"
    range_descriptor: str
    verdict: str  # "holds" | "fails" | "inconclusive"
    evidence: dict
    witness: Optional[dict] = None

    def exit_code(self) -> int:
        return {"holds": 0, "fails": 2, "inconclusive": 3}[self.verdict]


def refined_product_diagonal(k: int, order: int) -> list[int]:
    """The diagonal (d = i+k+2, embedding index i+1) of the product refinement."""
    products = ProductTable()
    return [products.refined(i + k + 2, i + 1) for i in range(order + 1)]


def stirling_denominator(k: int) -> Polynomial:
    """Nested Stirling blocks: prod_{i=1..k+1} prod_{j=1..i} (1 - j t).

    The product must reach i = k+1 for the degrees to work out: already at
    k = 1 the diagonal grows quadratically, so a block of degree C(k+2,2) is
    the smallest member of this family that can carry it, and the fits then
    land exactly on the conjectured numerator degree bound.
    """
    den = ONE
    for i in range(1, k + 2):
        for j in range(1, i + 1):
            den = den * Polynomial([1, -j])
    return den


def check_refined_rationality(k: int, order: int) -> ConjectureReport:
    """Fit the refined product diagonal against the nested Stirling denominator.

    Holds iff the numerator fits with degree <= C(k+4,2) - 7 - k and every
    diagonal value in range is nonnegative.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, not {k}")
    descriptor = f"k={k}, order={order}"
    den = stirling_denominator(k)
    bound = binom(k + 4, 2) - 7 - k
    if bound < 0:
        return ConjectureReport(
            "andrews-rationality", descriptor, "inconclusive",
            {"reason": f"degree bound {bound} is negative"},
        )
    diag = refined_product_diagonal(k, order)
    series = PowerSeries([Q(v) for v in diag], order)
    negatives = [(i, v) for i, v in enumerate(diag) if v < 0]
    if negatives:
        i, v = negatives[0]
        return ConjectureReport(
            "andrews-rationality", descriptor, "fails",
            {"negative_value": v, "at_index": i},
            witness={"kind": "negative-refined-value", "index": i, "value": v},
        )
    try:
        num = fit_numerator(series, den, bound)
    except ValueError as exc:
        if isinstance(exc, NumeratorFitError):
            return ConjectureReport(
                "andrews-rationality", descriptor, "fails",
                {"first_offending_index": exc.index},
                witness={"kind": "fit-failure", "index": exc.index, "value": str(exc.value)},
            )
        return ConjectureReport(
            "andrews-rationality", descriptor, "inconclusive", {"reason": str(exc)}
        )
    if any(c.denominator != 1 for c in num.coeffs):
        evidence_num = [str(c) for c in num.coeffs]
    else:
        evidence_num = [int(c) for c in num.coeffs]
    return ConjectureReport(
        "andrews-rationality", descriptor, "holds",
        {"numerator": evidence_num, "degree_bound": bound, "den_degree": den.degree},
    )


# --- exponent-level checker ------------------------------------------------------


def lagrange_interpolation(points: list[tuple[int, int]]) -> Polynomial:
    """Exact interpolating polynomial through integer points."""
    total = Polynomial()
    for i, (xi, yi) in enumerate(points):
        term = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * Polynomial([Q(-xj, 1), Q(1)]).scale(Q(1, xi - xj))
        total = total + term
    return total


def binomial_in_n(k: int) -> Polynomial:
    """C(n, k) as a polynomial in n."""
    num = ONE
    for i in range(k):
        num = num * Polynomial([-i, 1])
    return num.scale(Q(1, math.factorial(k)))


def check_exponent_divisibility(
    m: int, resolver: Optional[Resolver] = None, extra_points: int = 0
) -> ConjectureReport:
    """Interpolate the exponent discrepancy at level m as a polynomial in the
    dimension, then test exact divisibility by C(n,4) and the degree bound m-6.

    Irreducibility of the quotient is reported as not checked.
    """
    if m < 1:
        raise ValueError("m must be positive")
    # fewer than m + 1 samples fit a polynomial of too low a degree, so its
    # verdict would read nothing of the discrepancy
    if extra_points < 0:
        raise ValueError(f"extra_points must be nonnegative, not {extra_points}")
    resolver = resolver or Resolver()
    descriptor = f"m={m}, samples=n=1..{m + 1 + extra_points}"
    samples = []
    for n in range(1, m + 2 + extra_points):
        samples.append((n, epsilon_value(m, n, resolver)))
    poly = lagrange_interpolation(samples)
    if poly.degree > m - 1:
        raise IntegrityError(
            f"exponent discrepancy has degree {poly.degree} > {m - 1} in the dimension"
        )
    if poly.is_zero():
        return ConjectureReport(
            "epsilon-divisibility", descriptor, "holds",
            {"polynomial": "0", "quotient": "0", "irreducibility": "not checked"},
        )
    divisor = binomial_in_n(4)
    quot, rem = poly.divmod(divisor)
    if not rem.is_zero():
        return ConjectureReport(
            "epsilon-divisibility", descriptor, "fails",
            {"remainder_degree": rem.degree},
            witness={"kind": "divisibility-failure", "polynomial": [str(c) for c in poly.coeffs]},
        )
    if quot.degree > m - 6:
        return ConjectureReport(
            "epsilon-divisibility", descriptor, "fails",
            {"quotient_degree": quot.degree, "bound": m - 6},
            witness={"kind": "degree-overflow", "quotient": [str(c) for c in quot.coeffs]},
        )
    return ConjectureReport(
        "epsilon-divisibility", descriptor, "holds",
        {
            "quotient": [str(c) for c in quot.coeffs],
            "quotient_degree": quot.degree,
            "irreducibility": "not checked",
        },
    )


# --- sparsity search --------------------------------------------------------------


def partition_numbers(order: int) -> list[int]:
    """Classical partition numbers by the pentagonal recurrence (independent of
    the product machinery)."""
    p = [1] + [0] * order
    for d in range(1, order + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > d and g2 > d:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= d:
                total += sign * p[d - g1]
            if g2 <= d:
                total += sign * p[d - g2]
            k += 1
        p[d] = total
    return p


def plane_partition_numbers(order: int) -> list[int]:
    """Dimension-3 counts by the divisor-power recurrence."""
    sigma2 = [0] * (order + 1)
    for i in range(1, order + 1):
        for j in range(i, order + 1, i):
            sigma2[j] += i * i
    pl = [1] + [0] * order
    for d in range(1, order + 1):
        pl[d] = sum(pl[d - k] * sigma2[k] for k in range(1, d + 1)) // d
    return pl


def search_value_collisions(
    d_max: int,
    value_bound: int,
    resolver: Optional[Resolver] = None,
    low_dim_extension: bool = True,
) -> ConjectureReport:
    """Index every count p(n, d) <= value_bound for sizes 3 <= d <= d_max
    (dimensions n >= 2) and report value collisions across distinct sizes.

    Each size d >= 4 is scanned up its column p(n, d) = sum_k C(n, k) y(k, d)
    (`p_from_y`), reading its y row once and only as far as the scan reaches,
    so the resolver computes the y entries that one `Resolver.p` call per value
    would. Size 3 is not scanned: its column is a quadratic in n, so each value
    the other columns index is tested against it by an exact inverse
    (`_size_3_dimension`), and the scan costs O(bound^(1/3)) values, the size-4
    column, instead of O(bound^(1/2)).

    With low_dim_extension the exactly-solvable dimension-2 and dimension-3
    columns are also scanned from size max(d_max + 1, 3), which is where the
    known large collisions live. Verdict holds iff every collision involves
    size 3.
    """
    # an empty range would hold vacuously: below size 0 no size is scanned,
    # and below value 2 no value is indexed
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, not {d_max}")
    if value_bound < 2:
        raise ValueError(f"value_bound must be at least 2, not {value_bound}")
    resolver = resolver or Resolver()
    descriptor = f"d_max={d_max}, bound={value_bound}, low_dim_extension={low_dim_extension}"
    index: dict[int, list[tuple[int, int]]] = {}

    def record(value: int, d: int, n: int):
        if 2 <= value <= value_bound:
            index.setdefault(value, []).append((d, n))

    if d_max >= 3:
        # read first, as a scan of size 3 did, so the resolver's work keeps its order
        size_3_row = [resolver.y(k, 3) for k in range(3)]
        if min(size_3_row[1:]) <= 0:
            raise IntegrityError(f"size-3 y row {size_3_row} has a coefficient <= 0")
    for d in range(4, d_max + 1):
        row: list[int] = []
        n = 2
        while True:
            while len(row) <= min(n, d - 1):
                row.append(resolver.y(len(row), d))
            v = p_from_y(lambda k, _: row[k], n, d)
            if v > value_bound:
                break
            record(v, d, n)
            n += 1
    if low_dim_extension:
        for n, numbers in ((2, partition_numbers), (3, plane_partition_numbers)):
            column = numbers(4 * d_max)
            while column[-1] <= value_bound:
                column = numbers(2 * len(column))
            for d in range(max(d_max + 1, 3), len(column)):
                if column[d] > value_bound:
                    break
                record(column[d], d, n)
    if d_max >= 3:
        for value, entries in index.items():
            n = _size_3_dimension(value, size_3_row)
            if n is not None:
                entries.append((3, n))

    collisions = []
    for value in sorted(index):
        entries = sorted(set(index[value]))
        sizes = sorted({d for d, _ in entries})
        if len(sizes) > 1:
            collisions.append({"value": value, "entries": entries})
    # the second route shares no table entry and no closed form with the first
    checker = Resolver(
        use_closed_forms=False, workers=resolver.workers, node_ceiling=resolver.node_ceiling
    )
    for col in collisions:
        for d, n in col["entries"]:
            check = _independent_value(d, n, checker)
            if check != col["value"]:
                raise IntegrityError(
                    f"collision entry p({n},{d}) failed re-verification: "
                    f"{col['value']} vs {check}"
                )
    offending = [
        c for c in collisions if min(d for d, _ in c["entries"]) != 3
    ]
    witness = None
    if offending:
        witness = {"kind": "non-size-3-collision", "collision": offending[0]}
    return ConjectureReport(
        "sparsity", descriptor, "fails" if offending else "holds",
        {"collisions": collisions, "collision_count": len(collisions)},
        witness,
    )


def _size_3_dimension(value: int, row: list[int]) -> Optional[int]:
    """The dimension n >= 2 with p(n, 3) == value, or None, from the size-3 y
    row (y(0, 3), a, b): p(n, 3) = a n + b C(n, 2), which rises with n since
    a, b > 0. The isqrt root of b n^2 + (2a - b) n = 2 value never passes the
    least n with p(n, 3) >= value, so stepping up from it finds that n."""
    a, b = row[1], row[2]
    c = 2 * a - b
    n = max(2, (math.isqrt(c * c + 8 * b * value) - c) // (2 * b))
    while (v := p_from_y(lambda k, _: row[k], n, 3)) < value:
        n += 1
    return n if v == value else None


def _independent_value(d: int, n: int, checker: Resolver) -> int:
    """Second-route recomputation of one collision side: the recurrences for
    n = 2 and 3, else the raw pipeline of a checker built with
    use_closed_forms=False (the p-from-y inversion, the socle sum, search)."""
    if n == 2:
        return partition_numbers(d)[d]
    if n == 3:
        return plane_partition_numbers(d)[d]
    return checker.p(n, d)
