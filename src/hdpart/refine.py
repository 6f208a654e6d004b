"""Inversion formulas, the Resolver, and the exact generating
functions for the refined partition counts.

The counts reduce to simpler classes: p to y by embedding dimension, y to
alpha by socle type, and c is the inversion of y. `Resolver` is that chain,
and it takes a closed form only where a theorem replaces a search.

The e-th y diagonal y(k, k+e+1) is a numerator over (1-t)^(2e+1)
(`y_diagonal_series`), so for k > 2e it follows from its first 2e+1 values
(`y_recurrence`). The socle sum `socle.y_from_alpha` is that rule already: a
polynomial of degree <= 2e in k over the same alpha values for every
k >= e-1. So the Resolver takes each y entry from the socle sum, and
`y_recurrence` (`tests/reference.py`) is an identity the tests check.

Tables carry a provenance tag per entry so that values produced by two
different routes (oracle / inversion / closed form / search) can
be cross-checked; a disagreement raises IntegrityError rather than warning.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import hydral, lattice, mpart, socle
from .intmath import binom, double_factorial
from .series import (
    FIT_SLACK,
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
CLOSED_FORM = "closed-form"
SEARCH = "search"

KINDS = ("P", "Y", "C", "ALPHA")

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
        if kind == "C":
            k, e = idx
            return k > 2 * e or (k == 0 and e > 0)
        return False

    @staticmethod
    def check_index(kind: str, idx: tuple):
        """ValueError unless the count is defined at idx: p(n, d) for n, d >= 0,
        y(k, d) for k >= 0 and d >= 1, c(k, e) for k, e >= 0. `mpart.AlphaQuery`
        checks an alpha index."""
        if kind in ("P", "C") and min(idx) < 0:
            raise ValueError("indices must be nonnegative")
        if kind == "Y" and (idx[0] < 0 or idx[1] < 1):
            raise ValueError("need k >= 0 and d >= 1")

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


def c_from_y(y: Count, k: int, e: int) -> int:
    """Alternating inversion of y(k, k+e+1) = sum_x binom(k, x) c(x, e)."""
    return sum((-1) ** (k + j) * binom(k, j) * y(j, e + j + 1) for j in range(k + 1))


def c_degree_bound(x: int) -> int:
    """2x - ceil(x/2): the numerator degree bound of the x-th C diagonal."""
    return 2 * x - (x + 1) // 2


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
    return RationalFunction(y_diagonal_numerator(e, seed), {1: 2 * e + 1})


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

    One rule per count: p is always inverted from y (`p_from_y`), y comes from
    alpha by the socle sum (`socle.y_from_alpha`, tagged search), alpha by
    search (one sweep per (k, q), which fills every smaller m), and c, off that
    path, is inverted from y (`c_from_y`). A closed form replaces a search
    only where a theorem gives it: y(1..3, d) from the product columns, c on
    the diagonals 2e - k = 0 and 1, and alpha where `trivial_count` decides it
    or at q == k (`hydral.hydral_count`, `count hydral`). use_closed_forms=False
    forces the raw pipeline end to end, except `trivial_count`. All values land
    in provenance-tagged tables, so any second route for the same index must
    agree exactly. Each count refuses an index outside its domain
    (`CountTable.check_index`), on the pipeline and the oracle route alike.

    node_ceiling bounds the nodes of every search this resolver runs: they are
    all charged to one budget, and so is each hydral closed form, one node per
    partition of k that it enumerates. Each oracle count gets a fresh budget
    with the same ceiling. workers runs the searches' tasks in a process pool;
    the oracle walks serially. The resolver owns the memo of connected
    component tables that its alpha searches share (`mpart.alpha_tables`). A
    component is swept again when a later query reads it at a larger size, so
    its node totals depend on the queries it has answered and on their order.
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
        CountTable.check_index("P", (n, d))
        tab = self.tables["P"]
        if (n, d) in tab:
            return tab.get((n, d))
        return tab.set((n, d), p_from_y(self.y, n, d), INVERSION)

    def y(self, k: int, d: int) -> int:
        CountTable.check_index("Y", (k, d))
        tab = self.tables["Y"]
        if (k, d) in tab:
            return tab.get((k, d))
        if self.use_closed_forms and 1 <= k <= 3:
            # the product columns are the partition counts in dimension <= 3
            value = y_from_p(lambda j, size: product_column(j)[size], k, d)
            return tab.set((k, d), value, CLOSED_FORM)
        return tab.set((k, d), socle.y_from_alpha(d - 1 - k, k, self.alpha), SEARCH)

    def c(self, k: int, e: int) -> int:
        CountTable.check_index("C", (k, e))
        tab = self.tables["C"]
        if (k, e) in tab:
            return tab.get((k, e))
        x = 2 * e - k
        if self.use_closed_forms and x in (0, 1):
            # c(2e, e) = (2e-1)!! and c(2e-1, e) = e (2e-1)!!
            return tab.set((k, e), (e if x else 1) * double_factorial(2 * e - 1), CLOSED_FORM)
        return tab.set((k, e), c_from_y(self.y, k, e), INVERSION)

    def alpha(self, k: int, q: int, m: int) -> int:
        tab = self.tables["ALPHA"]
        if (k, q, m) in tab:
            return tab.get((k, q, m))
        trivial = mpart.AlphaQuery(k, q, m).trivial_count()
        if trivial is not None:
            return tab.set((k, q, m), trivial, CLOSED_FORM)
        if self.use_closed_forms and q == k:
            self.charge_hydral(k)
            return tab.set((k, q, m), hydral.hydral_count(k, m), CLOSED_FORM)
        # one sweep to size m holds every smaller size of the same (k, q)
        table = mpart.alpha_tables(
            k, q, m, workers=self.workers, budget=self.budget, components=self.components
        )
        for size in range(1, m + 1):
            tab.set((k, q, size), mpart.select(table, size), SEARCH)
        return tab.get((k, q, m))

    def charge_hydral(self, n: int):
        """Charge a hydral closed form one node per partition of n >= 1 it enumerates."""
        if n > 0:
            self.budget.spend(product_column(2)[n])

    # --- oracle routes (brute force) -----------------------------------------

    def p_oracle(self, n: int, d: int) -> int:
        CountTable.check_index("P", (n, d))
        value = lattice.count_partitions(n, d, max_nodes=self.node_ceiling)
        return self.tables["P"].set((n, d), value, ORACLE)

    def _constrained(self, n: int, spec: lattice.ConstraintSpec) -> int:
        return lattice.count_constrained(n, spec, max_nodes=self.node_ceiling)

    def y_oracle(self, k: int, d: int) -> int:
        CountTable.check_index("Y", (k, d))
        value = self._constrained(k, lattice.ConstraintSpec(size=d, embedding_dim=k))
        return self.tables["Y"].set((k, d), value, ORACLE)

    def c_oracle(self, k: int, e: int) -> int:
        CountTable.check_index("C", (k, e))
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

    def size_numerator(self, d: int) -> Polynomial:
        """Numerator of the fixed-size series over (1-t)^d, degree <= max(0, d-2)."""
        if d < 1:
            raise ValueError("need d >= 1: p(n, 0) = 1 for every n, so no numerator exists")
        bound = max(0, d - 2)
        series = self.size_series(d, d + bound + FIT_SLACK)
        return fit_numerator(series, one_minus_t_power(1) ** d, bound)
