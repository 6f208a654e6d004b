"""Search engine for partitions with socle in degree >= 3 (fixed quadric layer).

The count alpha(k, q, m) of such partitions with k variables, q quadrics and m
boxes of degree >= 3 is computed orbitwise: enumerate stable quadric
configurations up to coordinate permutation, bound the reachable cells for each
configuration, then run an exact DFS over downward-closed cell subsets.

`_RegionSearch.sweep` is the only region walker; every alpha count, and every
checkpointed run in `cache` (which honours `workers` too), selects from the
orbit-weighted sum of its tables. The lattice oracle stays a separate walker
on purpose: it is the independent route that checks this one.
"""

from __future__ import annotations

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
    degree,
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


def quadric_divisors(p: Point) -> list[Point]:
    """Degree-2 points below p."""
    k = len(p)
    out = []
    for i in range(k):
        if p[i] >= 2:
            q = [0] * k
            q[i] = 2
            out.append(tuple(q))
        for j in range(i + 1, k):
            if p[i] >= 1 and p[j] >= 1:
                q = [0] * k
                q[i] = 1
                q[j] = 1
                out.append(tuple(q))
    return out


@lru_cache(maxsize=None)
def _space(k: int):
    """Per-dimension tables: quadrics with index map, cubics with divisor masks."""
    quads = quadric_points(k)
    qindex = {p: i for i, p in enumerate(quads)}
    cubics = []
    seen = set()
    for q in quads:
        for i in range(k):
            c = q[:i] + (q[i] + 1,) + q[i + 1 :]
            if c in seen:
                continue
            seen.add(c)
            mask = 0
            for d in quadric_divisors(c):
                mask |= 1 << qindex[d]
            cubics.append((c, mask))
    cubics.sort(key=lambda cm: point_key(cm[0]))
    return quads, qindex, tuple(cubics)


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
    quads, qindex, cubics = _space(k)
    pts = {tuple(p) for p in U}
    for p in pts:
        if p not in qindex:
            raise ValueError(f"{p} is not a degree-2 point of N^{k}")
    umask = 0
    for p in pts:
        umask |= 1 << qindex[p]
    for p in pts:
        bit = 1 << qindex[p]
        if not any(mask & bit and mask & ~umask == 0 for _, mask in cubics):
            return False
    return True


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
    quads, _, _ = _space(k)
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

    cells holds the degree >= 3 points, sorted by (degree, lex); the degree <= 2
    part is the k unit points, the origin, and the quadric set itself.
    """

    k: int
    quadrics: tuple[Point, ...]
    max_degree: int
    cells: tuple[Point, ...]

    def all_points(self) -> tuple[Point, ...]:
        low: list[Point] = [(0,) * self.k]
        for i in range(self.k):
            e = [0] * self.k
            e[i] = 1
            low.append(tuple(e))
        return tuple(sorted(low + list(self.quadrics) + list(self.cells), key=point_key))


def bounding_region(U: Iterable[Point], max_degree: int) -> BoundingRegion:
    """Materialize the region: every cell of degree 3..max_degree whose full set
    of quadric divisors lies inside U."""
    pts = tuple(sorted({tuple(p) for p in U}, key=point_key))
    if not pts:
        raise ValueError("empty quadric layer")
    k = len(pts[0])
    uset = set(pts)
    _, _, cubics = _space(k)
    layers: list[list[Point]] = []
    layer3 = [c for c, _ in cubics if all(d in uset for d in quadric_divisors(c))]
    layers.append(sorted(layer3))
    for g in range(4, max_degree + 1):
        prev = layers[-1]
        cand = set()
        for z in prev:
            for i in range(k):
                cand.add(z[:i] + (z[i] + 1,) + z[i + 1 :])
        layer = [c for c in sorted(cand) if all(d in uset for d in quadric_divisors(c))]
        layers.append(layer)
        if not layer:
            break
    cells = tuple(
        p for layer in layers for p in layer if degree(p) <= max_degree
    )
    return BoundingRegion(k, pts, max_degree, cells)


@dataclass(frozen=True)
class AlphaQuery:
    """A request for one count: type (k, q, m), optionally refined by length or
    by the full layer-size profile."""

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
            min_socle_degree=3,
            length=self.length,
            hilbert_samuel=self.profile,
        )


BucketTable = dict[tuple[int, int, tuple[int, ...]], int]
# key: (size m, length, layer profile h3..h_length), value: count for one representative

# Bump when the order of full_support_reps or the meaning of a BucketTable
# changes: checkpoints store tables by representative index, and the cache
# recomputes any checkpoint written under another version.
SEARCH_FORMAT_VERSION = 1


class _RegionSearch:
    """Exact DFS over downward-closed cell subsets of one bounding region."""

    def __init__(self, region: BoundingRegion, node_ceiling: Optional[int]):
        qindex = {p: i for i, p in enumerate(region.quadrics)}
        cells = region.cells
        self.cells = cells
        self.degrees = [degree(p) for p in cells]
        self.n_cubics = self.degrees.count(3)
        self.full_mask = (1 << len(qindex)) - 1
        cellindex = {p: i for i, p in enumerate(cells)}
        # bit j of parent_mask[i]: cell j is a lower cover of cell i
        self.parent_mask: list[int] = []
        # bit u of covers[i]: quadric u is a lower cover of cubic i
        self.covers: list[int] = []
        # highest cubic index covering each quadric, for dead-branch detection
        self.last_cover = [-1] * len(qindex)
        for i, p in enumerate(cells):
            parents = cover = 0
            for c in lower_covers(p):
                if degree(c) == 2:
                    cover |= 1 << qindex[c]
                    self.last_cover[qindex[c]] = i
                else:
                    parents |= 1 << cellindex[c]
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
                limit = len(self.cells)
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


def _trivial_alpha(k: int, q: int, m: int) -> Optional[int]:
    """Boundary conventions and vanishing cases decided without search."""
    if k < 0 or q < 0 or m < 0:
        return 0
    if k == 0:
        return 1 if (q == 0 and m == 0) else 0
    if q == 0 or m == 0:
        return 0
    if q < k:  # each variable needs a quadric above it and a cubic above that
        return 0
    if q > k * (k + 1) // 2:
        return 0
    if q > 3 * m:  # a cubic dominates at most three quadrics
        return 0
    return None


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
    k, q, m = query.k, query.q, query.m
    trivial = _trivial_alpha(k, q, m)
    if trivial is not None:
        if trivial == 0:
            return 0
        # the single conventional object (k=q=m=0): the origin-only partition
        ok_len = query.length in (None, 0)
        ok_prof = query.profile in (None, (1,))
        return 1 if ok_len and ok_prof else 0
    if query.length is not None and not (3 <= query.length <= m + 2):
        return 0
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
    trivial = _trivial_alpha(k, q, m)
    if trivial is not None:
        return trivial
    quads, _, _ = _space(k)
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
    trivial = _trivial_alpha(k, q, m)
    if trivial is not None:
        return trivial
    return select(alpha_tables(k, q, m, node_ceiling=node_ceiling), m)
