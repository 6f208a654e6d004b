"""The infinite-product count, its refinement, the discrepancy measures, and
machine checkers for the three open questions at configurable ranges."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .intmath import binom
from .refine import IntegrityError, Resolver, product_column, product_exponent, y_from_p
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


class DiscrepancyRecord(NamedTuple):
    kind: str  # "Y-level" or "exponent-level"
    index: tuple[int, int]
    predicted: int
    actual: int

    @property
    def delta(self) -> int:
        return self.predicted - self.actual


def discrepancy_table(
    d_max: int, resolver: Optional[Resolver] = None
) -> list[DiscrepancyRecord]:
    """Records for every (d, k) with d <= d_max, 0 <= k <= d-1, refined level."""
    resolver = resolver or Resolver()
    products = ProductTable()
    out = []
    for d in range(1, d_max + 1):
        for k in range(d):
            out.append(
                DiscrepancyRecord(
                    "Y-level",
                    (d, k),
                    products.refined(d, k),
                    resolver.y(k, d),
                )
            )
    return out


def negative_discrepancies(records: list[DiscrepancyRecord]) -> list[DiscrepancyRecord]:
    """A nonempty result would be a finding worth reporting, not suppressing."""
    return [r for r in records if r.delta < 0]


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
    resolver = resolver or Resolver()
    descriptor = f"m={m}, samples=n=1..{m + 1 + extra_points}"
    if m < 1:
        raise ValueError("m must be positive")
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

    With low_dim_extension the exactly-solvable dimension-2 and dimension-3
    columns are also scanned beyond d_max, which is where the known large
    collisions live. Verdict holds iff every collision involves size 3.
    """
    resolver = resolver or Resolver()
    descriptor = f"d_max={d_max}, bound={value_bound}, low_dim_extension={low_dim_extension}"
    index: dict[int, list[tuple[int, int]]] = {}

    def record(value: int, d: int, n: int):
        if 2 <= value <= value_bound:
            index.setdefault(value, []).append((d, n))

    for d in range(3, d_max + 1):
        n = 2
        while True:
            v = resolver.p(n, d)
            if v > value_bound:
                break
            record(v, d, n)
            n += 1
    if low_dim_extension:
        p2 = partition_numbers(4 * d_max)
        while p2[-1] <= value_bound:
            p2 = partition_numbers(2 * len(p2))
        for d in range(d_max + 1, len(p2)):
            if p2[d] > value_bound:
                break
            record(p2[d], d, 2)
        p3 = plane_partition_numbers(4 * d_max)
        while p3[-1] <= value_bound:
            p3 = plane_partition_numbers(2 * len(p3))
        for d in range(d_max + 1, len(p3)):
            if p3[d] > value_bound:
                break
            record(p3[d], d, 3)

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


def _independent_value(d: int, n: int, checker: Resolver) -> int:
    """Second-route recomputation of one collision side: the recurrences for
    n = 2 and 3, else the raw pipeline of a checker built with
    use_closed_forms=False (the p-from-y inversion, the socle sum, search)."""
    if n == 2:
        return partition_numbers(d)[d]
    if n == 3:
        return plane_partition_numbers(d)[d]
    return checker.p(n, d)
