"""Search engine for partitions with socle in degree >= 3 (fixed quadric layer).

The count alpha(k, q, m) of such partitions with k variables, q quadrics and m
boxes of degree >= 3 is computed orbitwise: enumerate stable quadric
configurations up to coordinate permutation, bound the reachable cells for each
configuration, then count its downward-closed cell subsets exactly, a degree
at a time.

A quadric layer is a looped graph on the k variables (x_i x_j is the edge ij,
x_i^2 a loop at i); it is stable exactly when every non-loop edge has a looped
end or lies in a triangle. `orbit_reps` generates the stable layers that touch
every variable, one canonical graph per isomorphism class, by orderly
generation with bitmask edges; no subset of the quadrics is scanned.

Which quadrics lie below a cell is worked out once, in one cell table per
dimension (`_cell_table`). Stability, bounding regions and the region search
all read its indices. It is not the oracle's universe in `lattice`.

`_RegionSearch.sweep` is the only region walker. One subset walker takes every
layer, the cubics too: a cubic set counts once it covers the quadric layer, and
the layers above it are counted by the transfer-matrix method (Stanley,
EC1, §4.7): what can stand above a chosen degree-g layer depends only on the
degree-(g+1) cells it allows, so the tails above are memoised per sweep on
(allowed mask, size left). It buckets the subsets by layer profile
(h_3, ..., h_length), which fixes their size and length, so one sweep to size
m_max holds every count with m <= m_max. Every alpha count, and every
checkpointed run in `cache` (which honours `workers` too), selects from the
orbit-weighted sum of its tables. The sweeps run through the task runner
`lattice.charged_map` and charge the oracle's node counter `lattice._Budget`,
one node per memo state or layer-set transition; the oracle stays a separate
walker on purpose: it is the independent route that checks this one.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .lattice import (
    ConstraintSpec,
    Point,
    _Budget,
    charged_map,
    lower_covers,
    point_key,
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
    covers' masks); lower[i] and upper[i] list its lower and upper covers'
    entries (upper is complete below the top degree); start[g] is the first
    entry of degree g.
    """

    def __init__(self, k: int):
        quads = quadric_points(k)
        self.k = k
        self.points = list(quads)
        self.index = {p: u for u, p in enumerate(quads)}
        self.divisors = [1 << u for u in range(len(quads))]
        self.lower: list[tuple[int, ...]] = [()] * len(quads)
        self.upper: list[list[int]] = [[] for _ in quads]
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
                    self.upper[c].append(len(self.points))
                self.index[p] = len(self.points)
                self.points.append(p)
                self.divisors.append(mask)
                self.lower.append(low)
                self.upper.append([])
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


# --- stable layers as looped graphs ----------------------------------------------
#
# Quadric entry u = a(a+1)/2 + b (a >= b) of the cell table is x_{k-1-a} x_{k-1-b}:
# an edge ab of a looped graph on the vertices 0..k-1, a loop when a == b. Read
# in entry order, the edges come column by column, (0,0), (1,0), (1,1), (2,0), ...
# The least sorted entry tuple of an S_k-orbit is its greatest column string:
# column a of a labelling is the bits (a, 0), ..., (a, a), first bit highest.


def _relabellings(adj: list[int], early: bool) -> tuple[list[int], int]:
    """The greatest column string over all relabellings of the graph, and the
    number of relabellings that read it (|Aut|).

    adj[v] has bit w for each edge vw, bit v for a loop at v. The search fixes
    new vertex 0, 1, ... in turn and drops a branch as soon as its column falls
    below the best string so far. Twins (vertices whose transposition is an
    automorphism) are tried once per level, weighted by how many are left.
    With early, it returns count 0 as soon as a labelling beats the given one.
    """
    n = len(adj)
    classes: list[int] = []  # twin classes as vertex masks
    for v in range(n):
        for i, cls in enumerate(classes):
            w = cls.bit_length() - 1
            both = 1 << v | 1 << w
            if (adj[v] >> v & 1) == (adj[w] >> w & 1) and adj[v] & ~both == adj[w] & ~both:
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    best = []  # the given labelling's columns to begin with
    for a, row in enumerate(adj):
        col = 0
        for b in range(a + 1):
            col = col << 1 | (row >> b & 1)
        best.append(col)
    count = 0

    def rec(a: int, used: int, weight: int, read: list[int]) -> bool:
        # read[v]: v's bits towards the vertices placed so far, in order
        nonlocal count
        if a == n:
            count += weight
            return True
        for cls in classes:
            free = cls & ~used
            if not free:
                continue
            v = (free & -free).bit_length() - 1
            col = read[v] << 1 | (adj[v] >> v & 1)
            if col < best[a]:
                continue
            if col > best[a]:
                if early:
                    return False
                best[a:] = [col] + [-1] * (n - a - 1)
                count = 0
            bits = [r << 1 | (row >> v & 1) for r, row in zip(read, adj)]
            if not rec(a + 1, used | 1 << v, weight * free.bit_count(), bits):
                return False
        return True

    found = rec(0, 0, 1, [0] * n)
    return best, count if found else 0


def _graph(k: int, mask: int) -> list[int]:
    """Adjacency rows of the looped graph whose edges are the quadric entries in mask."""
    adj = [0] * k
    u = 0
    for a in range(k):
        for b in range(a + 1):
            if mask >> u & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            u += 1
    return adj


def _certifiable(adj: list[int], future: Sequence[int]) -> bool:
    """Whether every non-loop edge has a looped end or lies in a triangle, once
    the edges in future (adjacency rows like adj) are added as needed.

    These are the three certifying cubics: x_i^3, x_i^2 x_j and x_i x_j x_l.
    """
    able = [row | more for row, more in zip(adj, future)]
    for a, row in enumerate(adj):
        if able[a] >> a & 1:
            continue
        below = row & ((1 << a) - 1)
        while below:
            b = below.bit_length() - 1
            below ^= 1 << b
            # past the loop tests, a common neighbour is a third vertex
            if not able[b] >> b & 1 and not able[a] & able[b]:
                return False
    return True


def canonical_orbit(U: Iterable[Point], k: int) -> tuple[tuple[Point, ...], int]:
    """The lexicographically least S_k-image of a quadric set, and its orbit size."""
    table = _cell_table(k)
    best, aut = _relabellings(_graph(k, table.quadric_mask(U)), early=False)
    rep = []
    u = 0
    for a, col in enumerate(best):
        for b in range(a + 1):
            if col >> (a - b) & 1:
                rep.append(table.points[u])
            u += 1
    return tuple(rep), math.factorial(k) // aut


@dataclass(frozen=True)
class QuadricOrbit:
    """Canonical quadric configuration with its orbit size under S_k."""

    k: int
    rep: tuple[Point, ...]
    orbit_size: int


@lru_cache(maxsize=None)
def orbit_reps(k: int, q: int) -> tuple[QuadricOrbit, ...]:
    """One canonical representative per S_k-orbit of stable q-element quadric
    sets that touch every variable, in the order of their sorted entry tuples.

    Orderly generation (Read, Ann. Discrete Math. 2, 1978): a canonical graph
    less its last edge is canonical, so each one grows from its parent by one
    later edge. A branch stops when its uncovered vertices outnumber what the
    edges left can touch, or when an edge can no longer be certified.
    """
    n_quads = k * (k + 1) // 2
    if k < 1 or q < 1 or q > n_quads:
        return ()
    points = _cell_table(k).points
    ends = [(a, b) for a in range(k) for b in range(a + 1)]
    # future[x][v]: the edges at v with entry x or later
    future = [_graph(k, ((1 << n_quads) - 1) >> x << x) for x in range(n_quads + 1)]
    adj = [0] * k
    found = []

    def grow(last: int, mask: int, left: int, touched: int):
        # left: the edges still to add after the next one
        for x in range(last + 1, n_quads - left):
            a, b = ends[x]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            reached = touched | 1 << a | 1 << b
            later = future[x + 1 if left else n_quads]
            if k - reached.bit_count() <= 2 * left and _certifiable(adj, later):
                _, aut = _relabellings(adj, early=True)
                if aut and left:
                    grow(x, mask | 1 << x, left - 1, reached)
                elif aut:
                    rep = tuple(points[u] for u in range(x + 1) if (mask | 1 << x) >> u & 1)
                    found.append(QuadricOrbit(k, rep, math.factorial(k) // aut))
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)

    grow(-1, 0, q - 1, 0)
    return tuple(found)


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
    of quadric divisors lies inside U.

    Above the cubics a cell qualifies exactly when all its lower covers do, so
    each degree is read from the upper covers of the last one's kept cells.
    """
    pts = {tuple(p) for p in U}
    if not pts:
        raise ValueError("empty quadric layer")
    k = len(next(iter(pts)))
    table = _cell_table(k)
    umask = table.quadric_mask(pts)
    table.end(max_degree)
    layer = [i for i in range(table.start[3], table.end(3)) if table.divisors[i] & ~umask == 0]
    entries: list[int] = []
    for g in range(3, max_degree + 1):
        if g > 3:
            kept_below: dict[int, int] = {}
            for i in layer:
                for j in table.upper[i]:
                    kept_below[j] = kept_below.get(j, 0) + 1
            layer = sorted(j for j, n in kept_below.items() if n == len(table.lower[j]))
        entries += layer
    return BoundingRegion(k, max_degree, umask, tuple(entries))


@dataclass(frozen=True)
class AlphaQuery:
    """A request for one count: type (k, q, m), optionally refined by length or
    by the full layer-size profile.

    Socles lie in degree >= 3, save one convention: the zero type (0, 0, 0)
    counts the origin-only partition once (socle.y_from_alpha needs
    alpha(0, 0, 0) = 1 for the partitions with no socle in degree >= 3), in
    `trivial_count` and in `constraint_spec`.
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


BucketTable = dict[tuple[int, ...], int]
# key: the layer profile (h_3, ..., h_length), so size m is its sum and the
# length is 2 + its length; value: the count for one representative

# Bump when the order of orbit_reps or the meaning of a BucketTable
# changes: checkpoints store tables by representative index, and the cache
# recomputes any checkpoint written under another version.
SEARCH_FORMAT_VERSION = 2


class _RegionSearch:
    """Exact count of the downward-closed cell subsets of one bounding region
    whose cubics cover its quadric layer, charging its nodes to budget.

    parent_mask and upper hold each cell's lower and upper covers as local
    indices; cells stay in (degree, lex) order, so the cells of one degree
    are a run of bits and a mask of them implies their degree.
    """

    def __init__(self, region: BoundingRegion, budget: _Budget):
        table = _cell_table(region.k)
        entries = region.entries
        local = {e: i for i, e in enumerate(entries)}
        self.n_cubics = bisect.bisect_left(entries, table.start[4])
        self.full_mask = region.quadric_mask
        # bit j of parent_mask[i]: cell j is a lower cover of cell i (above the cubics)
        self.parent_mask: list[int] = []
        # upper[i]: the region's cells that cover cell i
        self.upper: list[list[int]] = [[] for _ in entries]
        # bit u of covers[i]: quadric entry u is a lower cover of cell i (0 above the cubics)
        self.covers: list[int] = []
        # the highest cubic covering each quadric, -1 for none
        last_cover = [-1] * table.start[3]
        for i, e in enumerate(entries):
            parents = cover = 0
            if i < self.n_cubics:
                cover = table.divisors[e]
                for u in table.lower[e]:
                    last_cover[u] = i
            else:
                for c in table.lower[e]:
                    parents |= 1 << local[c]
                    self.upper[local[c]].append(i)
            self.parent_mask.append(parents)
            self.covers.append(cover)
        # (last covering cubic, quadric bit) for the layer's quadrics, ascending
        self.cover_order = sorted(
            (last, 1 << u) for u, last in enumerate(last_cover) if self.full_mask >> u & 1
        )
        self.budget = budget

    @property
    def nodes(self) -> int:
        return self.budget.nodes

    def sweep(self, m_max: int) -> BucketTable:
        """Count every valid subset of size <= m_max, bucketed by layer profile.

        One walker, `layers`, takes each layer set by set. It ORs the chosen
        cells' quadric covers into the set's cover and counts a set only when
        that holds need: the quadric layer for the cubics, nothing above. Its
        child loop ends at the least last covering cubic of the quadrics still
        missing, and it enters no child missing more quadrics than three per
        cell it may still add, since a cubic covers at most three; a child cut
        by either bound reaches no covering set. What can follow a chosen
        degree-g layer depends only on the degree-(g+1) cells whose lower
        covers it holds, so `above` is memoised for this sweep on (allowed
        mask, size left): the transfer-matrix method over the graded region
        (Stanley, EC1, §4.7). One node is one memo state or one layer-set
        transition.
        """
        parent_mask, upper, covers, cover_order = (
            self.parent_mask, self.upper, self.covers, self.cover_order
        )
        spend = self.budget.spend
        memo: dict[tuple[int, int], BucketTable] = {}
        # one shared tuple per profile tail keeps the memo small
        profiles: dict[tuple[int, ...], tuple[int, ...]] = {}

        def stack(steps: dict[tuple[int, int], int], left: int) -> BucketTable:
            """Profile tails of the layers in steps, (size, allowed mask above
            it) -> ways, with at most left cells in all."""
            tails: BucketTable = {}
            for (size, allowed), ways in steps.items():
                tails[(size,)] = tails.get((size,), 0) + ways
                if allowed and size < left:
                    for tail, n in above(allowed, left - size).items():
                        key = (size, *tail)
                        key = profiles.setdefault(key, key)
                        tails[key] = tails.get(key, 0) + ways * n
            return tails

        def above(allowed: int, left: int) -> BucketTable:
            """Profile tails of the non-empty layers that can follow a layer
            allowing these cells, with at most left cells in all."""
            tails = memo.get((allowed, left))
            if tails is not None:
                return tails
            spend()
            cells = [j for j in range(allowed.bit_length()) if allowed >> j & 1]
            tails = memo[allowed, left] = stack(layers(cells, 0, left), left)
            return tails

        def layers(cells: Sequence[int], need: int, left: int) -> dict[tuple[int, int], int]:
            """The non-empty sets of at most left of these cells whose cover
            holds need, as (size, allowed mask above the set) -> ways."""
            steps: dict[tuple[int, int], int] = {}

            def layer(pos: int, size: int, chosen: int, cover: int, nxt: int):
                end = len(cells)
                missing = need & ~cover
                if missing:
                    # only the cubic layer has a need, and its cell x is local index x
                    end = next(last for last, bit in cover_order if missing & bit) + 1
                for x in range(pos, end):
                    c = cells[x]
                    spend()
                    s = chosen | 1 << c
                    got = cover | covers[c]
                    n = nxt
                    for j in upper[c]:
                        if not parent_mask[j] & ~s:
                            n |= 1 << j
                    short = (need & ~got).bit_count()
                    if not short:
                        steps[size + 1, n] = steps.get((size + 1, n), 0) + 1
                    # a cubic covers at most three quadrics
                    if size + 1 < left and short <= 3 * (left - size - 1):
                        layer(x + 1, size + 1, s, got, n)

            layer(0, 0, 0, 0, 0)
            return steps

        return stack(layers(range(self.n_cubics), self.full_mask, m_max), m_max)

    def count(self, m: int) -> int:
        """Count valid subsets of exactly m cells (all lengths)."""
        return select(self.sweep(m), m)


def _rep_search(args) -> tuple[BucketTable, int]:
    """Bucket table and node count of one representative; a process-pool task."""
    rep, m_max, length_cap, node_ceiling = args
    search = _RegionSearch(bounding_region(rep, length_cap), _Budget(node_ceiling))
    return search.sweep(m_max), search.nodes


def rep_tables(
    reps: Sequence[QuadricOrbit],
    m_max: int,
    length_cap: Optional[int],
    workers: int,
    budget: _Budget,
) -> Iterator[BucketTable]:
    """Unweighted bucket table of each representative, yielded in order.

    Every representative's nodes are charged to budget in representative
    order (`lattice.charged_map`), so the count fails exactly when the serial
    walk does, under any number of workers.
    """
    max_degree = length_cap if length_cap is not None else m_max + 2
    tasks = [(o.rep, m_max, max_degree, budget.left) for o in reps]
    return charged_map(_rep_search, tasks, workers, budget)


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
    return sum(
        val
        for tail, val in table.items()
        if sum(tail) == m
        and (length is None or len(tail) + 2 == length)
        and (profile is None or tail == tuple(profile[3:]))
    )


def alpha_tables(
    k: int,
    q: int,
    m_max: int,
    length_cap: Optional[int] = None,
    workers: int = 1,
    budget: Optional[_Budget] = None,
) -> BucketTable:
    """Orbit-weighted bucket table for all sizes up to m_max at once, from
    one sweep per representative; the values include the orbit weights.
    The sweeps are charged to budget, or to a fresh default-ceiling one."""
    reps = orbit_reps(k, q)
    budget = _Budget(DEFAULT_NODE_CEILING) if budget is None else budget
    return weighted_table(reps, rep_tables(reps, m_max, length_cap, workers, budget))


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
        k, q, m, length_cap=query.length, workers=workers, budget=_Budget(node_ceiling)
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
    budget = _Budget(node_ceiling)
    total = 0
    for combo in itertools.combinations(quads, q):
        if len(support_variables(combo)) != k or not is_m_stable(combo, k):
            continue
        region = bounding_region(combo, m + 2)
        total += _RegionSearch(region, budget).count(m)
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
    return select(alpha_tables(k, q, m, budget=_Budget(node_ceiling)), m)
