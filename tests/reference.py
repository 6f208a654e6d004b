"""References that only the tests read.

No count, table or command of `hdpart` calls these. Each one gives a second
reading that a test compares with the pipeline:
- the partition objects (`Partition`, `AdmissibleSet`) with the apolar
  closure, the socle and the Hilbert-Samuel function, and `iter_partitions`,
  an enumerator on tuples and sets that shares no code with the oracle walk;
- the subset scan over every stable quadric set, with no orbits and no
  exponential formula (`is_m_stable`, `alpha_without_orbit_reduction`);
- the refinement identities that the socle sum and the inversions already
  satisfy (`y_from_c`, `y_recurrence`, `c_recurrence`);
- invariants of a single partition (`socle_type`, `embedding_dimension`,
  `permute_point`);
- the inverse Borel transform, which the diagonal identities read;
- closed families of the minimal-quadric-layer counts, compared with the
  search (`compressed_count`, `colored_partition_count`, ...);
- the y-level discrepancy table between the product and the true counts.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from hdpart.hydral import _triple_factor, head_block_series
from hdpart.intmath import binom, double_factorial
from hdpart.lattice import Point, _Budget
from hdpart.macmahon import ProductTable
from hdpart.mpart import (
    DEFAULT_NODE_CEILING,
    AlphaQuery,
    BoundingRegion,
    _quadric_mask,
    _RegionSearch,
    bounding_region,
    quadric_points,
)
from hdpart.refine import Count, Resolver
from hdpart.series import IntegrityError, PowerSeries, Q
from hdpart.socle import MissingDataError

# --- partition objects and an independent enumerator (lattice) -----------------------


def degree(p: Point) -> int:
    return sum(p)


def point_key(p: Point) -> tuple[int, Point]:
    return (sum(p), p)


def lower_covers(p: Point) -> list[Point]:
    """Points directly below p (one coordinate decremented)."""
    out = []
    for i, v in enumerate(p):
        if v > 0:
            out.append(p[:i] + (v - 1,) + p[i + 1 :])
    return out


def dominates(a: Point, b: Point) -> bool:
    """Componentwise b <= a."""
    return all(x <= y for x, y in zip(b, a))


def is_downward_closed(points: Iterable[Point]) -> bool:
    s = set(points)
    return all(c in s for p in s for c in lower_covers(p))


def is_antichain(points: Sequence[Point]) -> bool:
    return not any(
        a != b and dominates(a, b) for a, b in itertools.permutations(points, 2)
    )


class _PointSet(NamedTuple):
    """The fields of Partition and AdmissibleSet, whose __new__ checks them."""

    ambient_dim: int
    points: tuple[Point, ...]


def _canonical_points(ambient_dim: int, points: Iterable[Point]) -> tuple[Point, ...]:
    """The distinct points sorted by (degree, lex); ValueError for a point
    outside N^ambient_dim."""
    pts = tuple(sorted(set(points), key=point_key))
    for p in pts:
        if len(p) != ambient_dim or any(v < 0 for v in p):
            raise ValueError(f"bad point {p} for ambient dimension {ambient_dim}")
    return pts


class Partition(_PointSet):
    """A downward-closed subset of N^ambient_dim, canonically sorted."""

    __slots__ = ()

    def __new__(cls, ambient_dim: int, points: Iterable[Point]):
        pts = _canonical_points(ambient_dim, points)
        if not is_downward_closed(pts):
            raise ValueError("point set is not downward closed")
        return super().__new__(cls, ambient_dim, pts)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def length(self) -> Optional[int]:
        """Maximal degree of a point; None for the empty partition."""
        if not self.points:
            return None
        return degree(self.points[-1])

    def layer(self, k: int) -> tuple[Point, ...]:
        return tuple(p for p in self.points if degree(p) == k)


class AdmissibleSet(_PointSet):
    """An antichain in N^ambient_dim (the possible socles)."""

    __slots__ = ()

    def __new__(cls, ambient_dim: int, points: Iterable[Point]):
        pts = _canonical_points(ambient_dim, points)
        if not is_antichain(pts):
            raise ValueError("point set is not an antichain")
        return super().__new__(cls, ambient_dim, pts)


def apolar_closure(points: Iterable[Point], ambient_dim: int) -> Partition:
    """Downward closure: all lattice points below some element of the input."""
    seen: set[Point] = set()
    stack = [tuple(p) for p in points]
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        stack.extend(lower_covers(p))
    return Partition(ambient_dim, seen)


def socle(part: Partition) -> AdmissibleSet:
    """Maximal elements; together with apolar_closure this is a bijection."""
    pts = set(part.points)
    out = []
    for p in part.points:
        if not any(
            p[:i] + (p[i] + 1,) + p[i + 1 :] in pts for i in range(part.ambient_dim)
        ):
            out.append(p)
    return AdmissibleSet(part.ambient_dim, out)


def hilbert_samuel(part: Partition) -> tuple[int, ...]:
    """Layer sizes (h_0, ..., h_length); empty tuple for the empty partition."""
    if not part.points:
        return ()
    length = degree(part.points[-1])
    counts = [0] * (length + 1)
    for p in part.points:
        counts[degree(p)] += 1
    return tuple(counts)


def iter_partitions(n: int, size: int) -> Iterator[tuple[Point, ...]]:
    """Yield every partition of N^n with exactly `size` points, as its point
    tuple in (degree, lex) order.

    A partition grows by one point at a time: a point past its last point in
    (degree, lex) order whose lower covers it holds. Each partition has one such
    build order, its sorted points, so each is yielded once. This walk reads
    neither the oracle's universe nor its bit masks.
    """

    def grow(points: tuple[Point, ...], held: set[Point]) -> Iterator[tuple[Point, ...]]:
        if len(points) == size:
            yield points
            return
        last = point_key(points[-1])
        above = {p[:i] + (v + 1,) + p[i + 1 :] for p in points for i, v in enumerate(p)}
        for p in sorted(above, key=point_key):
            if point_key(p) > last and all(c in held for c in lower_covers(p)):
                yield from grow(points + (p,), held | {p})

    if size == 0:
        yield ()
    elif size > 0:
        origin = (0,) * n
        yield from grow((origin,), {origin})


# --- the subset scan (mpart) ---------------------------------------------------


def support_variables(points: Iterable[Point]) -> frozenset[int]:
    out = set()
    for p in points:
        for i, v in enumerate(p):
            if v:
                out.add(i)
    return frozenset(out)


def is_m_stable(U: Iterable[Point], k: int) -> bool:
    """Whether every quadric of U divides a cubic whose lower covers all lie in U.

    This is the constructive stability criterion: the closure of such
    certifying cubics is itself a partition with quadric layer exactly U and
    socle in degree 3. It reads `lower_covers` and no region, so it
    stays the reference that the looped-graph test `mpart._certifiable` is
    checked against.
    """
    mask = _quadric_mask(U, k)
    layer = {p for u, p in enumerate(quadric_points(k)) if mask >> u & 1}
    return all(
        any(set(lower_covers(p[:i] + (v + 1,) + p[i + 1 :])) <= layer for i, v in enumerate(p))
        for p in layer
    )


def all_points(region: BoundingRegion) -> tuple[Point, ...]:
    """The region's cells with the origin, the k unit points and the quadric layer."""
    k = region.k
    low: list[Point] = [(0,) * k]
    for i in range(k):
        e = [0] * k
        e[i] = 1
        low.append(tuple(e))
    mask = region.quadric_mask
    quads = [p for u, p in enumerate(quadric_points(k)) if mask >> u & 1]
    return tuple(sorted(low + quads + list(region.cells), key=point_key))


def alpha_without_orbit_reduction(
    k: int, q: int, m: int, node_ceiling: Optional[int] = DEFAULT_NODE_CEILING
) -> int:
    """alpha(k, q, m) by iterating every stable subset, no symmetry quotient."""
    trivial = AlphaQuery(k, q, m).trivial_count()
    if trivial is not None:
        return trivial
    quads = quadric_points(k)
    budget = _Budget(node_ceiling)
    total = 0
    for combo in itertools.combinations(quads, q):
        if len(support_variables(combo)) != k or not is_m_stable(combo, k):
            continue
        region = bounding_region(combo, m)
        total += _RegionSearch(region, budget).count(m)
    return total


# --- refinement identities (refine) -----------------------------------------------


def y_from_c(c: Count, k: int, e: int) -> int:
    """y(k, k+e+1) from the no-unit-socle refinement; `refine.c_from_y` inverts it."""
    return sum(binom(k, x) * c(x, e) for x in range(min(k, 2 * e) + 1))


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


# --- invariants of one partition (lattice) ------------------------------------------


def socle_type(part: Partition) -> tuple[int, ...]:
    """Socle elements per degree, up to the partition length."""
    if not part.points:
        return ()
    length = degree(part.points[-1])
    counts = [0] * (length + 1)
    for p in socle(part).points:
        counts[degree(p)] += 1
    return tuple(counts)


def embedding_dimension(part: Partition) -> int:
    return len(part.layer(1))


def permute_point(p: Point, perm: Sequence[int]) -> Point:
    """Coordinate i of the image reads coordinate perm[i] of p."""
    return tuple(p[perm[i]] for i in range(len(perm)))


# --- series ---------------------------------------------------------------------------


def inverse_borel(s: PowerSeries) -> PowerSeries:
    """Multiply coefficient k by k!: the inverse of `series.borel`."""
    return PowerSeries([c * math.factorial(k) for k, c in enumerate(s.coeffs)], s.order)


# --- closed families of the minimal quadric layer (hydral) -----------------------------


def headstrong_tuples(m: int, n: int) -> list[tuple[int, ...]]:
    """Explicit enumeration, used as the oracle for `hydral.headstrong_count`."""
    out = []
    for tail in itertools.product(range(m + 1), repeat=n - 1):
        head = m - sum(tail)
        if head >= 0 and all(head >= x for x in tail):
            out.append((head,) + tail)
    return out


def profile_series(parts: Sequence[int], order: int) -> PowerSeries:
    """Product of the block series; equal to the nested-sum route
    `hydral.profile_series_from_weights`."""
    acc = PowerSeries([1], order)
    for p in parts:
        acc = acc * head_block_series(p, order)
    return acc


COMPRESSED_VARIANTS = ("3n", "3n-1-compressed", "3n-1-anti", "3n-2")


def compressed_count(n: int, variant: str = "3n") -> int:
    """Closed counts for the extremal socle-type-(0,0,0,n) families.

    "3n": embedding dimension 3n, profile (1,3n,3n,n);
    "3n-1-compressed": embedding dimension 3n-1, profile (1,3n-1,3n,n);
    "3n-1-anti": profile (1,3n-1,3n-1,n);
    "3n-2": anti-compressed with embedding dimension 3n-2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    base = _triple_factor(n)
    if variant == "3n":
        return base
    if variant == "3n-1-compressed":
        count, rest = divmod(3 * (n - 1) * base, 2)
        if rest:
            raise IntegrityError("compressed count must be integral")
        return count
    if variant == "3n-1-anti":
        return 2 * base
    if variant == "3n-2":
        return (3 * n - 2) ** 2 * _triple_factor(n - 1)
    raise ValueError(f"unknown variant {variant!r}; expected one of {COMPRESSED_VARIANTS}")


def colored_partition_count(n: int) -> int:
    """Set partitions of an n-set with one colored element per block."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(binom(n, k) * k ** (n - k) for k in range(n + 1))


def exp_tower_series(order: int) -> PowerSeries:
    """Exact expansion of exp(t * exp(t))."""
    out = []
    for n in range(order + 1):
        acc = Q(0)
        for j in range(n + 1):
            acc += Q(j ** (n - j), math.factorial(n - j) * math.factorial(j))
        out.append(acc)
    return PowerSeries(out, order)


# --- discrepancies between the product and the true counts (macmahon) -------------------


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
