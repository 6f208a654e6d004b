"""Inversion formulas, diagonal recurrences, limit values, and the exact
generating functions for the refined partition counts.

Tables carry a provenance tag per entry so that values produced by two
different routes (oracle / inversion / recurrence / closed form / search) can
be cross-checked; a disagreement raises IntegrityError rather than warning.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import hydral, lattice, mpart, socle
from .intmath import binom, double_factorial
from .series import (
    EulerColumn,
    IntegrityError,
    Polynomial,
    PowerSeries,
    Q,
    RationalFunction,
    binomial_series,
    borel,
    fit_numerator,
    one_minus_t_power,
)
from .socle import MissingDataError

ORACLE = "oracle"
INVERSION = "inversion"
RECURRENCE = "recurrence"
CLOSED_FORM = "closed-form"
SEARCH = "search"

KINDS = ("P", "Y", "C", "D", "ALPHA")

# a count as a function of its two indices: a CountTable, or a Resolver method
Count = Callable[[int, int], int]


class CountTable:
    """Map from index tuples to exact integers with per-entry provenance.

    Boundary conventions are enforced on insert: a nonzero value in a region
    that vanishes identically is rejected immediately.
    """

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown table kind {kind!r}")
        self.kind = kind
        self.entries: dict[tuple, int] = {}
        self.provenance: dict[tuple, str] = {}

    @staticmethod
    def forced_zero(kind: str, idx: tuple) -> bool:
        if kind == "Y":
            k, d = idx
            return k >= d or (k == 0 and d > 1)
        if kind in ("C", "D"):
            k, e = idx
            return k > 2 * e or (k == 0 and e > 0)
        return False

    def set(self, idx: tuple, value: int, provenance: str) -> int:
        idx = tuple(idx)
        if self.forced_zero(self.kind, idx) and value != 0:
            raise IntegrityError(
                f"{self.kind}{idx} lies in the forced-zero region but got {value}"
            )
        if idx in self.entries and self.entries[idx] != value:
            raise IntegrityError(
                f"{self.kind}{idx}: {self.entries[idx]} (from {self.provenance[idx]})"
                f" != {value} (from {provenance})"
            )
        if idx not in self.entries:
            self.entries[idx] = value
            self.provenance[idx] = provenance
        return value

    def get(self, idx: tuple) -> int:
        idx = tuple(idx)
        if self.forced_zero(self.kind, idx):
            return 0
        if idx not in self.entries:
            raise MissingDataError(f"missing {self.kind} entry at {idx}")
        return self.entries[idx]

    def __contains__(self, idx) -> bool:
        return self.forced_zero(self.kind, tuple(idx)) or tuple(idx) in self.entries

    def __call__(self, *idx: int) -> int:
        """The table as a count function: table(k, d) == table.get((k, d))."""
        return self.get(idx)


# --- inversion formulas -------------------------------------------------------


# The binomial transforms between the refinements. Each sum stops where its
# terms vanish (binom(n, k) = 0 for k > n, y(k, d) = 0 for k >= d, c(x, e) = 0
# for x > 2e), so no vanishing term is ever computed.


def p_from_y(y: Count, n: int, d: int) -> int:
    """p(n, d) from the exact-embedding-dimension refinement."""
    if d == 0:
        return 1
    return sum(binom(n, k) * y(k, d) for k in range(min(n, d - 1) + 1))


def y_from_p(p: Count, n: int, d: int) -> int:
    """Alternating inversion of p_from_y."""
    return sum((-1) ** (n + j) * binom(n, j) * p(j, d) for j in range(n + 1))


def y_from_c(c: Count, k: int, e: int) -> int:
    """y(k, k+e+1) from the no-unit-socle refinement."""
    return sum(binom(k, x) * c(x, e) for x in range(min(k, 2 * e) + 1))


def c_from_y(y: Count, k: int, e: int) -> int:
    """Alternating inversion of y_from_c."""
    return sum((-1) ** (k + j) * binom(k, j) * y(j, e + j + 1) for j in range(k + 1))


def c_degree_bound(x: int) -> int:
    """2x - ceil(x/2): the numerator degree bound of the x-th C diagonal, and
    the largest k of the d table at e = x."""
    return 2 * x - (x + 1) // 2


def _check_d_range(k: int, e: int):
    if not (0 <= k <= c_degree_bound(e)):
        raise ValueError(f"d-table index (k={k}, e={e}) outside 0 <= k <= 2e - ceil(e/2)")


def d_from_c(c: CountTable, k: int, e: int) -> int:
    """Stable-layer count from the c table (double-factorial convolution)."""
    _check_d_range(k, e)
    total = 0
    for y in range(k // 2 + 1):
        total += (
            (-1) ** y
            * math.factorial(k)
            // (double_factorial(2 * y) * math.factorial(k - 2 * y))
            * c.get((k - 2 * y, e - y))
        )
    return total


def c_from_d(d: CountTable, k: int, e: int) -> int:
    """Inverse convolution: recover c(k, e) with k = 2e - x from the d table."""
    x = 2 * e - k
    if x < 0:
        raise ValueError("require k <= 2e")
    total = 0
    for y in range((x + 1) // 2, min(e, 2 * x) + 1):
        _check_d_range(2 * y - x, y)
        total += (
            math.factorial(2 * e - x)
            // (double_factorial(2 * e - 2 * y) * math.factorial(2 * y - x))
            * d.get((2 * y - x, y))
        )
    return total


# --- diagonal recurrences -----------------------------------------------------


def y_recurrence(seed: Sequence[int], e: int, k: int) -> int:
    """y(k, k+e+1) for k > 2e from the first 2e+1 diagonal values
    seed[j] = y(j, j+e+1), j = 0..2e."""
    if len(seed) < 2 * e + 1:
        raise MissingDataError(f"need {2 * e + 1} seed values, got {len(seed)}")
    if k <= 2 * e:
        raise ValueError("recurrence applies for k > 2e")
    return sum(
        (-1) ** j * binom(k, j) * binom(k - j - 1, 2 * e - j) * seed[j]
        for j in range(2 * e + 1)
    )


def c_recurrence(seed: Sequence[int], x: int, e: int) -> int:
    """c(2e-x, e) for e > 2x from the leading diagonal values
    seed[z] = c(2z-x, z), z = ceil(x/2)..2x (indexed from z = ceil(x/2))."""
    lo = (x + 1) // 2
    if len(seed) < 2 * x - lo + 1:
        raise MissingDataError(f"need {2 * x - lo + 1} seed values, got {len(seed)}")
    if e <= 2 * x:
        raise ValueError("recurrence applies for e > 2x")
    total = 0
    for z in range(lo, 2 * x + 1):
        total += (
            (-1) ** z
            * binom(2 * e - x, 2 * z - x)
            * binom(e - z - 1, 2 * x - z)
            * double_factorial(2 * e - 2 * z - 1)
            * seed[z - lo]
        )
    return total


# --- limit-case closed values --------------------------------------------------

# 46080 times the degree-10 polynomial giving y(d-6, d); interpolated exactly
# through d = 7..17 and verified against the inversion pipeline further out
_Y_D6_COEFFS = (
    151649280,
    -296696448,
    265417248,
    -143809680,
    51449160,
    -12485652,
    2060220,
    -227400,
    16080,
    -660,
    12,
)


def _quadric_dim(k: int) -> int:
    return binom(k + 1, 2)


def y_depth6_diagonal(d: int) -> int:
    """The polynomial closed form for y(d-6, d), valid from d = 7 on."""
    poly = sum(c * d**i for i, c in enumerate(_Y_D6_COEFFS))
    val = Fraction(poly, 46080)
    if val.denominator != 1:
        raise IntegrityError(f"degree-six diagonal value at d={d} is not integral")
    return int(val)


def limit_value(kind: str, idx: tuple) -> Optional[int]:
    """Closed value for the index when a stable formula applies, else None.

    The low-k forms read the dimension-2/3 partition counts from the product
    columns, which are exact there.
    """
    if kind == "Y":
        k, d = idx
        if CountTable.forced_zero("Y", (k, d)):
            return 0
        if k == d - 1:
            return 1
        if k == 1 and d >= 2:
            return 1
        if k == 2 and d >= 2:
            return product_column(2)[d] - 2
        if k == 3 and d >= 2:
            return product_column(3)[d] - 3 * (product_column(2)[d] - 2 + 1)
        s = _quadric_dim(k)
        if k == d - 2:
            return s
        if k == d - 3:
            return binom(s, 2) + k
        if k == d - 4:
            return binom(s, 3) + k * s + 2 * binom(k, 2)
        if k == d - 5:
            return binom(s, 4) + k * (binom(s, 2) + 1) + binom(k, 2) * (2 * s - 1) + binom(k, 3)
        if k == d - 6 and k >= 1:
            return y_depth6_diagonal(d)
        return None
    if kind == "C":
        k, e = idx
        if CountTable.forced_zero("C", (k, e)):
            return 0
        if (k == 0 and e == 0) or (k == 1 and e > 0) or (k == 2 and e == 1):
            return 1
        if k == 2 * e and e > 0:
            return double_factorial(2 * e - 1)
        if k == 2 * e - 1 and e > 0:
            return e * double_factorial(2 * e - 1)
        if k == 2 and e >= 1:
            return product_column(2)[e + 3] - 4
        return None
    return None


# --- the product column -----------------------------------------------------------


def product_exponent(n: int, m: int) -> int:
    """Exponent of (1-t^m)^-1 in the conjectured product for dimension n.

    Written with the fixed lower index m-1 so that the product specializes
    correctly down to n = 0 and 1 (where it reproduces the true counts).
    """
    return binom(m + n - 3, m - 1)


@functools.cache
def product_column(n: int) -> EulerColumn:
    """The process-wide column of prod_m (1-t^m)^-product_exponent(n, m): the
    partition counts for n <= 3 (MacMahon), the conjectured ones above.

    Its coefficients depend on n alone, so every caller shares and extends it.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return EulerColumn(functools.partial(product_exponent, n))


# --- generating functions -------------------------------------------------------


def y_diagonal_numerator(e: int, seed: Sequence[int]) -> Polynomial:
    """Numerator over (1-t)^(2e+1) for the diagonal y(k+1, k+e+2), k >= 0.

    seed[j] = y(j+1, j+e+2) for j = 0..2e-1. The two structural identities on
    the coefficients (sum and weighted sum against double factorials) are
    verified before returning.
    """
    if e <= 0:
        raise ValueError("diagonal index must be positive")
    if len(seed) < 2 * e:
        raise MissingDataError(f"need {2 * e} seed values, got {len(seed)}")
    # the first 2e coefficients of seed(t) * (1-t)^(2e+1)
    denominator = one_minus_t_power(1) ** (2 * e + 1)
    gammas = PowerSeries(seed, 2 * e - 1).mul_polynomial(denominator).coeffs
    if sum(gammas) != double_factorial(2 * e - 1):
        raise IntegrityError("numerator coefficients fail the sum identity")
    if sum((i + 1) * g for i, g in enumerate(gammas)) != e * double_factorial(2 * e - 1):
        raise IntegrityError("numerator coefficients fail the weighted-sum identity")
    return Polynomial(gammas)


def y_diagonal_series(e: int, seed: Sequence[int]) -> RationalFunction:
    return RationalFunction(y_diagonal_numerator(e, seed), one_minus_t_power(1) ** (2 * e + 1))


def c_diagonal_exponent(x: int) -> Fraction:
    return Q(3, 2) + c_degree_bound(x)


def c_diagonal_series(x: int, diag: Sequence[int]) -> tuple[Polynomial, Fraction]:
    """Numerator polynomial and half-integer denominator exponent for the
    Borel-resummed diagonal c series.

    diag[z] holds the z-th entry c(k, e) with 2e - k = x, from k = 2 - x % 2 in
    steps of 2 (`Resolver.c_diagonal`). One product rule gives every x: the
    numerator is borel(diag) * (1-2t)^exponent, and every coefficient of that
    product above the degree bound, up to the supplied order, must vanish.
    """
    if x < 0:
        raise ValueError("diagonal index must be nonnegative")
    exponent = c_diagonal_exponent(x)
    deg_bound = c_degree_bound(x)
    if len(diag) < deg_bound + 1:
        raise MissingDataError(f"need {deg_bound + 1} diagonal values, got {len(diag)}")
    prod = borel(PowerSeries(diag)) * binomial_series(exponent, -2, len(diag) - 1)
    if any(prod.coeffs[deg_bound + 1 :]):
        raise IntegrityError("closed form disagrees with the Borel transform of the diagonal")
    return Polynomial(prod.coeffs[: deg_bound + 1]), exponent


# --- the resolver ---------------------------------------------------------------


class Resolver:
    """Demand-driven computation of the P/Y/C/ALPHA tables.

    Route preference is closed form, then the raw pipeline: p from y by
    inversion, y from alpha by the socle sum (`socle.y_from_alpha`), alpha by
    search (one sweep per (k, q), which fills every smaller m), and c, off that
    path, inverted from y. Alpha is never searched where `trivial_count`
    decides it, and alpha(n, n, m) is `hydral.hydral_count` (`count hydral`).
    use_closed_forms=False forces the raw pipeline end to end. All values land
    in provenance-tagged tables, so any second route for the same index must
    agree exactly.

    node_ceiling bounds the nodes of every search this resolver runs: they are
    all charged to one budget. Each oracle count gets a fresh budget with the
    same ceiling. workers runs the searches' tasks in a process pool; the
    oracle walks serially. The resolver owns the memo of connected component
    tables that its alpha searches share (`mpart.alpha_tables`), so its node
    totals depend only on the queries it has answered.
    """

    def __init__(
        self,
        use_closed_forms: bool = True,
        workers: int = 1,
        node_ceiling: Optional[int] = mpart.DEFAULT_NODE_CEILING,
    ):
        self.use_closed_forms = use_closed_forms
        self.workers = workers
        self.node_ceiling = node_ceiling
        self.budget = lattice._Budget(node_ceiling)
        self.components: dict[tuple[int, int], tuple[int, mpart.BucketTable]] = {}
        self.tables = {kind: CountTable(kind) for kind in KINDS}

    def p(self, n: int, d: int) -> int:
        if n < 0 or d < 0:
            raise ValueError("indices must be nonnegative")
        if d == 0:
            return 1
        if n == 0:
            return 1 if d == 1 else 0
        if n == 1:
            return 1
        tab = self.tables["P"]
        if (n, d) in tab:
            return tab.get((n, d))
        if self.use_closed_forms and n in (2, 3):
            # the product is exact in dimension <= 3
            return tab.set((n, d), product_column(n)[d], CLOSED_FORM)
        return tab.set((n, d), p_from_y(self.y, n, d), INVERSION)

    def y(self, k: int, d: int) -> int:
        if k < 0 or d < 1:
            raise ValueError("need k >= 0 and d >= 1")
        tab = self.tables["Y"]
        if (k, d) in tab:
            return tab.get((k, d))
        if self.use_closed_forms:
            closed = limit_value("Y", (k, d))
            if closed is not None:
                return tab.set((k, d), closed, CLOSED_FORM)
        return tab.set((k, d), socle.y_from_alpha(d - 1 - k, k, self.alpha), RECURRENCE)

    def c(self, k: int, e: int) -> int:
        if k < 0 or e < 0:
            raise ValueError("indices must be nonnegative")
        tab = self.tables["C"]
        if (k, e) in tab:
            return tab.get((k, e))
        if self.use_closed_forms:
            closed = limit_value("C", (k, e))
            if closed is not None:
                return tab.set((k, e), closed, CLOSED_FORM)
        return tab.set((k, e), c_from_y(self.y, k, e), INVERSION)

    def alpha(self, k: int, q: int, m: int) -> int:
        tab = self.tables["ALPHA"]
        if (k, q, m) in tab:
            return tab.get((k, q, m))
        trivial = mpart.AlphaQuery(k, q, m).trivial_count()
        if trivial is not None:
            return tab.set((k, q, m), trivial, SEARCH)
        if self.use_closed_forms and q == k:
            return tab.set((k, q, m), hydral.hydral_count(k, m), CLOSED_FORM)
        # one sweep to size m holds every smaller size of the same (k, q)
        table = mpart.alpha_tables(
            k, q, m, workers=self.workers, budget=self.budget, components=self.components
        )
        for size in range(1, m + 1):
            tab.set((k, q, size), mpart.select(table, size), SEARCH)
        return tab.get((k, q, m))

    # --- oracle routes (brute force) -----------------------------------------

    def p_oracle(self, n: int, d: int) -> int:
        value = lattice.count_partitions(n, d, max_nodes=self.node_ceiling)
        return self.tables["P"].set((n, d), value, ORACLE)

    def _constrained(self, n: int, spec: lattice.ConstraintSpec) -> int:
        return lattice.count_constrained(n, spec, max_nodes=self.node_ceiling)

    def y_oracle(self, k: int, d: int) -> int:
        value = self._constrained(k, lattice.ConstraintSpec(size=d, embedding_dim=k))
        return self.tables["Y"].set((k, d), value, ORACLE)

    def c_oracle(self, k: int, e: int) -> int:
        # the zero type counts the origin-only partition, as in AlphaQuery.constraint_spec
        msd = 2 if k else None
        spec = lattice.ConstraintSpec(size=1 + k + e, embedding_dim=k, min_socle_degree=msd)
        return self.tables["C"].set((k, e), self._constrained(k, spec), ORACLE)

    def alpha_oracle(self, query: mpart.AlphaQuery) -> int:
        value = self._constrained(query.k, query.constraint_spec())
        if query.length is None and query.profile is None:
            # a refined count never fills the ALPHA(k, q, m) entry
            self.tables["ALPHA"].set((query.k, query.q, query.m), value, ORACLE)
        return value

    # --- derived series -------------------------------------------------------

    def y_diagonal_seed(self, e: int) -> list[int]:
        return [self.y(j + 1, j + e + 2) for j in range(2 * e)]

    def c_diagonal(self, x: int, length: int) -> list[int]:
        """c(k, e) along 2e - k = x, from k = 2 - x % 2 in steps of 2."""
        return [self.c(2 * z + 2 - x % 2, z + 1 + x // 2) for z in range(length)]

    def size_series(self, d: int, order: int) -> PowerSeries:
        """The fixed-size series: coefficient n is p(n+1, d)."""
        return PowerSeries([self.p(n + 1, d) for n in range(order + 1)], order)

    def size_numerator(self, d: int, slack: int = 3) -> Polynomial:
        """Numerator of the fixed-size series over (1-t)^d, degree <= max(0, d-2)."""
        bound = max(0, d - 2)
        order = d + bound + slack
        series = self.size_series(d, order)
        return fit_numerator(series, one_minus_t_power(1) ** d, bound, min_slack=slack)
