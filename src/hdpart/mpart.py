"""Search engine for partitions with socle in degree >= 3 (fixed quadric layer).

The count alpha(k, q, m) of such partitions with k variables, q quadrics and m
boxes of degree >= 3 is computed orbitwise: enumerate stable quadric
configurations up to coordinate permutation, bound the reachable cells for each
configuration, then run an exact DFS over downward-closed cell subsets.

Which quadrics lie below a cell is worked out once, in one cell table per
dimension (`_cell_table`). Stability, bounding regions and the region search
all read its indices. It is not the oracle's universe in `lattice`.

`_RegionSearch.sweep` is the only region walker; every alpha count, and every
checkpointed run in `cache` (which honours `workers` too), selects from the
orbit-weighted sum of its tables. The lattice oracle stays a separate walker
on purpose: it is the independent route that checks this one.
"""

from __future__ import annotations

import bisect
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .lattice import (
    ConstraintSpec,
    Point,
    _Budget,
    canonical_orbit,
    lower_covers,
    point_key,
    transpose,
)

DEFAULT_NODE_CEILING = 10**9


def quadric_points(k: int) -> tuple[Point, ...]:
    """All degree-2 points of N^k in lex order."""
    out = []
    for i in range(k):
        for j in range(i, k):
            p = [0] * k
            p[i] += 1
            p[j] += 1
            out.append(tuple(p))
    return tuple(sorted(out))


class _CellTable:
    """The points of N^k of degree 2..top in (degree, lex) order, grown a degree
    at a time and never renumbered, so quadric u is entry u. divisors[i] masks
    the quadrics below entry i (a quadric's own bit, else the OR of its lower
    covers' masks); lower[i] lists its lower covers' entries; start[g] is the
    first entry of degree g.
    """

    def __init__(self, k: int):
        quads = quadric_points(k)
        self.k = k
        self.points = list(quads)
        self.index = {p: u for u, p in enumerate(quads)}
        self.divisors = [1 << u for u in range(len(quads))]
        self.lower: list[tuple[int, ...]] = [()] * len(quads)
        self.start = [0, 0, 0, len(quads)]

    def end(self, top: int) -> int:
        """One past the last entry of degree <= top, growing the table to top."""
        while len(self.start) < top + 2:
            layer = self.points[self.start[-2] :]
            grown = {z[:i] + (z[i] + 1,) + z[i + 1 :] for z in layer for i in range(self.k)}
            for p in sorted(grown):
                low = tuple(self.index[c] for c in lower_covers(p))
                mask = 0
                for c in low:
                    mask |= self.divisors[c]
                self.index[p] = len(self.points)
                self.points.append(p)
                self.divisors.append(mask)
                self.lower.append(low)
            self.start.append(len(self.points))
        return self.start[max(top, 2) + 1]

    def quadric_mask(self, U: Iterable[Point]) -> int:
        """Bit u set for each quadric entry u in U."""
        mask = 0
        for p in U:
            u = self.index.get(tuple(p))
            if u is None or u >= self.start[3]:
                raise ValueError(f"{p} is not a degree-2 point of N^{self.k}")
            mask |= 1 << u
        return mask


@lru_cache(maxsize=None)
def _cell_table(k: int) -> _CellTable:
    return _CellTable(k)


def support_variables(points: Iterable[Point]) -> frozenset[int]:
    out = set()
    for p in points:
        for i, v in enumerate(p):
            if v:
                out.add(i)
    return frozenset(out)


def is_m_stable(U: Iterable[Point], k: int) -> bool:
    """Whether every quadric of U divides a cubic whose quadric divisors stay in U.

    This is the constructive stability criterion: the closure of such
    certifying cubics is itself a partition with quadric layer exactly U and
    socle in degree 3.
    """
    table = _cell_table(k)
    umask = table.quadric_mask(U)
    certified = 0
    for mask in table.divisors[table.start[3] : table.end(3)]:
        if mask & ~umask == 0:
            certified |= mask
    return certified == umask


@dataclass(frozen=True)
class QuadricOrbit:
    """Canonical quadric configuration with its orbit size under S_k."""

    k: int
    rep: tuple[Point, ...]
    orbit_size: int
    support: int


@lru_cache(maxsize=None)
def orbit_reps(k: int, q: int) -> tuple[QuadricOrbit, ...]:
    """One canonical representative per S_k-orbit of stable q-element quadric sets."""
    quads = quadric_points(k)
    if q < 1 or q > len(quads):
        return ()
    reps = []
    for combo in itertools.combinations(quads, q):
        if not is_m_stable(combo, k):
            continue
        # cheap local-minimum filter before the exact orbit walk
        if any(transpose(combo, i) < combo for i in range(k - 1)):
            continue
        rep, size = canonical_orbit(combo, k)
        if rep != combo:
            continue
        reps.append(QuadricOrbit(k, combo, size, len(support_variables(combo))))
    return tuple(sorted(reps, key=lambda o: o.rep))


@dataclass(frozen=True)
class BoundingRegion:
    """All cells reachable by partitions of bounded length with a fixed quadric layer.

    quadric_mask has bit u for each quadric entry u of the layer in the cell
    table; entries are the table entries of degree 3..max_degree whose quadric
    divisors all lie in the layer, in (degree, lex) order.
    """

    k: int
    max_degree: int
    quadric_mask: int
    entries: tuple[int, ...]

    @property
    def cells(self) -> tuple[Point, ...]:
        """The degree >= 3 points, sorted by (degree, lex)."""
        points = _cell_table(self.k).points
        return tuple(points[i] for i in self.entries)

    def all_points(self) -> tuple[Point, ...]:
        """The cells with the origin, the k unit points and the quadric layer."""
        points = _cell_table(self.k).points
        low: list[Point] = [(0,) * self.k]
        for i in range(self.k):
            e = [0] * self.k
            e[i] = 1
            low.append(tuple(e))
        mask = self.quadric_mask
        quads = [points[u] for u in range(mask.bit_length()) if mask >> u & 1]
        return tuple(sorted(low + quads + list(self.cells), key=point_key))


def bounding_region(U: Iterable[Point], max_degree: int) -> BoundingRegion:
    """Materialize the region: every cell of degree 3..max_degree whose full set
    of quadric divisors lies inside U."""
    pts = {tuple(p) for p in U}
    if not pts:
        raise ValueError("empty quadric layer")
    k = len(next(iter(pts)))
    table = _cell_table(k)
    umask = table.quadric_mask(pts)
    divisors = table.divisors
    entries = tuple(
        i for i in range(table.start[3], table.end(max_degree)) if divisors[i] & ~umask == 0
    )
    return BoundingRegion(k, max_degree, umask, entries)


@dataclass(frozen=True)
class AlphaQuery:
    """A request for one count: type (k, q, m), optionally refined by length or
    by the full layer-size profile.

    Socles lie in degree >= 3, save one convention: the zero type (0, 0, 0)
    counts the origin-only partition once (socle.c_from_alpha needs
    alpha(0, 0, 0) = 1), in `trivial_count` and in `constraint_spec`.
    """

    k: int
    q: int
    m: int
    length: Optional[int] = None
    profile: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.profile is not None:
            h = self.profile
            if not h or h[0] != 1:
                raise ValueError("layer profile must start with 1")
            if len(h) > 1 and h[1] != self.k:
                raise ValueError("profile embedding dimension must equal k")
            if (h[2] if len(h) > 2 else 0) != self.q:
                raise ValueError("profile quadric count must equal q")
            if sum(h[3:]) != self.m:
                raise ValueError("profile tail must sum to m")
            if self.length is not None and self.length != len(h) - 1:
                raise ValueError("length must match the profile")

    @classmethod
    def from_profile(cls, h: Iterable[int]) -> AlphaQuery:
        """The query that prescribes the whole layer profile h = (1, k, q, ...)."""
        h = tuple(h)  # __post_init__ validates it
        k = h[1] if len(h) > 1 else 0
        q = h[2] if len(h) > 2 else 0
        return cls(k, q, sum(h[3:]), length=len(h) - 1, profile=h)

    def constraint_spec(self) -> ConstraintSpec:
        """The same count for the brute-force oracle in dimension k."""
        return ConstraintSpec(
            size=1 + self.k + self.q + self.m,
            embedding_dim=self.k,
            quadric_count=self.q,
            tail_mass=self.m,
            min_socle_degree=3 if self.k else None,
            length=self.length,
            hilbert_samuel=self.profile,
        )

    def trivial_count(self) -> Optional[int]:
        """The count when it is decided without search (boundary conventions and
        vanishing cases), else None."""
        k, q, m = self.k, self.q, self.m
        if k < 0 or q < 0 or m < 0:
            return 0
        if k == 0:  # the zero-type convention: the origin-only partition
            origin = q == m == 0 and self.length in (None, 0) and self.profile in (None, (1,))
            return 1 if origin else 0
        if q == 0 or m == 0:
            return 0
        if q < k:  # each variable needs a quadric above it and a cubic above that
            return 0
        if q > k * (k + 1) // 2:
            return 0
        if q > 3 * m:  # a cubic dominates at most three quadrics
            return 0
        if self.length is not None and not 3 <= self.length <= m + 2:
            return 0
        return None


BucketTable = dict[tuple[int, int, tuple[int, ...]], int]
# key: (size m, length, layer profile h3..h_length), value: count for one representative

# Bump when the order of full_support_reps or the meaning of a BucketTable
# changes: checkpoints store tables by representative index, and the cache
# recomputes any checkpoint written under another version.
SEARCH_FORMAT_VERSION = 1


class _RegionSearch:
    """Exact DFS over downward-closed cell subsets of one bounding region."""

    def __init__(self, region: BoundingRegion, node_ceiling: Optional[int]):
        table = _cell_table(region.k)
        entries = region.entries
        local = {e: i for i, e in enumerate(entries)}
        self.degrees = [bisect.bisect_right(table.start, e) - 1 for e in entries]
        self.n_cubics = self.degrees.count(3)
        self.full_mask = region.quadric_mask
        # bit j of parent_mask[i]: cell j is a lower cover of cell i
        self.parent_mask: list[int] = []
        # bit u of covers[i]: quadric entry u is a lower cover of cubic i
        self.covers: list[int] = []
        # highest cubic index covering each quadric, for dead-branch detection
        self.last_cover = [-1] * table.start[3]
        for i, e in enumerate(entries):
            parents = cover = 0
            if i < self.n_cubics:
                cover = table.divisors[e]
                for u in table.lower[e]:
                    self.last_cover[u] = i
            else:
                for c in table.lower[e]:
                    parents |= 1 << local[c]
            self.parent_mask.append(parents)
            self.covers.append(cover)
        self.budget = _Budget(node_ceiling)

    @property
    def nodes(self) -> int:
        return self.budget.nodes

    def sweep(self, m_max: int) -> BucketTable:
        """Count every valid subset of size <= m_max, bucketed by
        (size, length, layer profile)."""
        table: BucketTable = {}
        layer_counts: dict[int, int] = {}
        parent_mask, degrees, covers = self.parent_mask, self.degrees, self.covers
        spend = self.budget.spend

        def rec(last: int, size: int, cover: int, maxdeg: int, chosen: int):
            if cover == self.full_mask and size >= 1:
                profile = tuple(layer_counts.get(g, 0) for g in range(3, maxdeg + 1))
                key = (size, maxdeg, profile)
                table[key] = table.get(key, 0) + 1
            if size == m_max:
                return
            if cover != self.full_mask:
                # only further cubics can complete the quadric cover
                missing = self.full_mask & ~cover
                u = missing.bit_length() - 1
                limit = self.n_cubics
                if self.last_cover[u] <= last:
                    return
            else:
                limit = len(degrees)
            for i in range(last + 1, limit):
                if parent_mask[i] & ~chosen:
                    continue
                spend()
                g = degrees[i]
                layer_counts[g] = layer_counts.get(g, 0) + 1
                rec(i, size + 1, cover | covers[i], max(maxdeg, g), chosen | 1 << i)
                layer_counts[g] -= 1

        rec(-1, 0, 0, 2, 0)
        return table

    def count(self, m: int) -> int:
        """Count valid subsets of exactly m cells (all lengths)."""
        return select(self.sweep(m), m)


def full_support_reps(k: int, q: int) -> tuple[QuadricOrbit, ...]:
    return tuple(o for o in orbit_reps(k, q) if o.support == k)


def _rep_search(args) -> BucketTable:
    """Bucket table of one representative; a process-pool task."""
    rep, m_max, length_cap, node_ceiling = args
    return _RegionSearch(bounding_region(rep, length_cap), node_ceiling).sweep(m_max)


def rep_tables(
    reps: Sequence[QuadricOrbit],
    m_max: int,
    length_cap: Optional[int],
    workers: int,
    node_ceiling: Optional[int],
) -> Iterator[BucketTable]:
    """Unweighted bucket table of each representative, yielded in order."""
    max_degree = length_cap if length_cap is not None else m_max + 2
    tasks = [(o.rep, m_max, max_degree, node_ceiling) for o in reps]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(_rep_search, tasks)
    else:
        yield from map(_rep_search, tasks)


def weighted_table(
    reps: Sequence[QuadricOrbit], tables: Iterable[BucketTable]
) -> BucketTable:
    """Sum of the representatives' tables, each weighted by its orbit size."""
    out: BucketTable = {}
    for orbit, table in zip(reps, tables, strict=True):
        for key, val in sorted(table.items()):
            out[key] = out.get(key, 0) + orbit.orbit_size * val
    return out


def select(
    table: BucketTable,
    m: int,
    length: Optional[int] = None,
    profile: Optional[tuple[int, ...]] = None,
) -> int:
    """Total of the buckets of size m, optionally of one length and one
    layer profile (h_0, ..., h_length)."""
    total = 0
    for (size, maxdeg, tail), val in table.items():
        if size != m:
            continue
        if length is not None and maxdeg != length:
            continue
        if profile is not None and tail != tuple(profile[3:]):
            continue
        total += val
    return total


def alpha_tables(
    k: int,
    q: int,
    m_max: int,
    length_cap: Optional[int] = None,
    workers: int = 1,
    node_ceiling: Optional[int] = DEFAULT_NODE_CEILING,
) -> BucketTable:
    """Orbit-weighted bucket table for all sizes up to m_max at once.

    Keys are (m, length, profile); the value already includes orbit weights.
    """
    reps = full_support_reps(k, q)
    return weighted_table(
        reps, rep_tables(reps, m_max, length_cap, workers, node_ceiling)
    )


def alpha(
    query: AlphaQuery,
    workers: int = 1,
    node_ceiling: Optional[int] = DEFAULT_NODE_CEILING,
) -> int:
    """Exact number of partitions matching the query (socle degree >= 3 built in)."""
    trivial = query.trivial_count()
    if trivial is not None:
        return trivial
    k, q, m = query.k, query.q, query.m
    table = alpha_tables(
        k, q, m, length_cap=query.length, workers=workers, node_ceiling=node_ceiling
    )
    return select(table, m, query.length, query.profile)


def alpha_count(
    k: int,
    q: int,
    m: int,
    length: Optional[int] = None,
    workers: int = 1,
    node_ceiling: Optional[int] = DEFAULT_NODE_CEILING,
) -> int:
    return alpha(
        AlphaQuery(k, q, m, length=length), workers=workers, node_ceiling=node_ceiling
    )


def alpha_by_hilbert(
    h: Sequence[int],
    workers: int = 1,
    node_ceiling: Optional[int] = DEFAULT_NODE_CEILING,
) -> int:
    """Count with the entire layer profile prescribed."""
    return alpha(AlphaQuery.from_profile(h), workers=workers, node_ceiling=node_ceiling)


def alpha_without_orbit_reduction(
    k: int, q: int, m: int, node_ceiling: Optional[int] = DEFAULT_NODE_CEILING
) -> int:
    """Reference implementation iterating every stable subset, no symmetry quotient."""
    trivial = AlphaQuery(k, q, m).trivial_count()
    if trivial is not None:
        return trivial
    quads = quadric_points(k)
    total = 0
    for combo in itertools.combinations(quads, q):
        if len(support_variables(combo)) != k or not is_m_stable(combo, k):
            continue
        region = bounding_region(combo, m + 2)
        total += _RegionSearch(region, node_ceiling).count(m)
    return total


def alpha_targeted(
    k: int,
    q: int,
    m: int,
    node_ceiling: Optional[int] = DEFAULT_NODE_CEILING,
) -> int:
    """Total over all lengths and profiles of one size, in one process;
    equals alpha_count(k, q, m)."""
    trivial = AlphaQuery(k, q, m).trivial_count()
    if trivial is not None:
        return trivial
    return select(alpha_tables(k, q, m, node_ceiling=node_ceiling), m)
