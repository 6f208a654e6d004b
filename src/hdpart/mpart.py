"""Search engine for partitions with socle in degree >= 3 (fixed quadric layer).

The count alpha(k, q, m) of such partitions with k variables, q quadrics and m
boxes of degree >= 3 is computed from connected layers: enumerate the
connected stable configurations up to coordinate permutation, bound the
reachable cells for each, count its downward-closed cell subsets exactly, a
degree at a time, and assemble every layer from its connected components.

A quadric layer is a looped graph on the k variables (x_i x_j is the edge ij,
x_i^2 a loop at i); it is stable exactly when every non-loop edge has a looped
end or lies in a triangle. `connected_reps` generates the connected stable
layers, one canonical graph per isomorphism class, by orderly generation with
bitmask edges; no subset of the quadrics is scanned. A cell whose support
meets two components has a quadric divisor x_i x_j outside the layer, so a
disconnected layer's region is the disjoint union of its components' regions
and its profile table is the convolution of theirs. The labelled table A_k(q)
is therefore the exponential transform of the connected tables C_j(q)
(`exponential_table`; Harary-Palmer, Graphical Enumeration, 1973, ch. 1;
Flajolet-Sedgewick, Analytic Combinatorics, 2009, II.2). `orbit_reps`, which
generates every stable layer, and `alpha_without_orbit_reduction` stay as
the references the tests compare this route with.

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
m_max holds every count with m <= m_max. Every alpha count selects from the
exponential formula over the orbit-weighted sums of connected tables, which
`alpha_tables` memoises per component pair; a checkpointed run in `cache`
passes a memo that persists itself as a log. One task per component pair
generates and sweeps its connected representatives; the tasks run through
`lattice.charged_map` and charge the oracle's node counter `lattice._Budget`,
one node per memo state or layer-set transition; the oracle stays a separate
walker on purpose: it is the independent route that checks this one.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

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


def _open_matching(adj: list[int]) -> int:
    """The size of a greedy matching of the open edges: non-loop edges with no
    looped end and no common neighbour yet. Each needs a later edge at one of
    its own ends, and the ends of a matching are disjoint.
    """
    matched = 0
    size = 0
    for a, row in enumerate(adj):
        if row >> a & 1:
            continue
        below = row & ((1 << a) - 1) & ~matched
        while below:
            b = below.bit_length() - 1
            below ^= 1 << b
            if not adj[b] >> b & 1 and not row & adj[b]:
                matched |= 1 << a | 1 << b
                size += 1
                break
    return size


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


class QuadricOrbit(NamedTuple):
    """Canonical quadric configuration with its orbit size under S_k."""

    k: int
    rep: tuple[Point, ...]
    orbit_size: int


def _orderly(k: int, q: int, connected: bool) -> tuple[QuadricOrbit, ...]:
    """One canonical representative per S_k-orbit of stable q-element quadric
    sets that touch every variable, only the connected ones if connected, in
    the order of their sorted entry tuples.

    Orderly generation (Read, Ann. Discrete Math. 2, 1978): a canonical graph
    less its last edge is canonical, so each one grows from its parent by one
    later edge. A branch stops when the edges left have too few ends for its
    uncovered vertices and a matching of its uncertified edges, or when an
    edge can no longer be certified. In the canonical labelling of a
    connected graph every vertex a >= 1 has a neighbour b < a: else a vertex
    past a with an edge into 0..a-1, swapped with a, would read a greater
    column a. So a connected branch also stops once it passes a column with
    no lower edge, or when fewer edges are left than columns still to link.
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

    def grow(last: int, mask: int, left: int, touched: int, col: int, linked: bool):
        # left: the edges still to add after the next one; col: the last
        # edge's column, linked: whether column col has a lower edge (or is 0)
        end = n_quads - left
        if connected:  # the next edge lies in column col, or col + 1 once col is linked
            c = col + 1 if linked else col
            end = min(end, (c + 1) * (c + 2) // 2)
        for x in range(last + 1, end):
            a, b = ends[x]
            now_linked = b < a or a == 0 or (a == col and linked)
            if connected and k - 1 - a + (not now_linked) > left:
                continue  # each column still to link needs an edge of its own
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            reached = touched | 1 << a | 1 << b
            later = future[x + 1 if left else n_quads]
            # each untouched vertex and each open edge of a matching needs a
            # later edge at its own ends, and one edge has at most two ends
            need = k - reached.bit_count() + _open_matching(adj)
            if need <= 2 * left and _certifiable(adj, later):
                _, aut = _relabellings(adj, early=True)
                if aut and left:
                    grow(x, mask | 1 << x, left - 1, reached, a, now_linked)
                elif aut:
                    rep = tuple(points[u] for u in range(x + 1) if (mask | 1 << x) >> u & 1)
                    found.append(QuadricOrbit(k, rep, math.factorial(k) // aut))
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)

    grow(-1, 0, q - 1, 0, 0, True)
    return tuple(found)


@lru_cache(maxsize=None)
def connected_reps(k: int, q: int) -> tuple[QuadricOrbit, ...]:
    """The connected stable layers of orbit_reps(k, q): the same
    representatives, orbit sizes and order, generated without the others."""
    return _orderly(k, q, connected=True)


class BoundingRegion(NamedTuple):
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


class _AlphaQuery(NamedTuple):
    """The fields of AlphaQuery, whose __new__ checks them."""

    k: int
    q: int
    m: int
    length: Optional[int] = None
    profile: Optional[tuple[int, ...]] = None


class AlphaQuery(_AlphaQuery):
    """A request for one count: type (k, q, m), optionally refined by length or
    by the full layer-size profile.

    Socles lie in degree >= 3, save one convention: the zero type (0, 0, 0)
    counts the origin-only partition once (socle.y_from_alpha needs
    alpha(0, 0, 0) = 1 for the partitions with no socle in degree >= 3), in
    `trivial_count` and in `constraint_spec`.
    """

    __slots__ = ()

    def __new__(
        cls,
        k: int,
        q: int,
        m: int,
        length: Optional[int] = None,
        profile: Optional[tuple[int, ...]] = None,
    ):
        if profile is not None:
            h = profile
            if not h or h[0] != 1:
                raise ValueError("layer profile must start with 1")
            if len(h) > 1 and h[1] != k:
                raise ValueError("profile embedding dimension must equal k")
            if (h[2] if len(h) > 2 else 0) != q:
                raise ValueError("profile quadric count must equal q")
            if sum(h[3:]) != m:
                raise ValueError("profile tail must sum to m")
            if length is not None and length != len(h) - 1:
                raise ValueError("length must match the profile")
        return super().__new__(cls, k, q, m, length, profile)

    @classmethod
    def from_profile(cls, h: Iterable[int]) -> AlphaQuery:
        """The query that prescribes the whole layer profile h = (1, k, q, ...)."""
        h = tuple(h)  # __new__ validates it
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

# Bump when the meaning of a component pair, of the size a component table is
# swept to, or of a BucketTable changes: checkpoints store orbit-weighted
# component tables by (j, q1) and size, and the cache sweeps again any pair
# logged under another version.
SEARCH_FORMAT_VERSION = 4


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


def weighted_table(
    reps: Sequence[QuadricOrbit], m_max: int, max_degree: int, budget: _Budget
) -> BucketTable:
    """Sum of the representatives' sweeps to size m_max over their bounding
    regions to max_degree, each weighted by its orbit size."""
    out: BucketTable = {}
    for orbit in reps:
        table = _RegionSearch(bounding_region(orbit.rep, max_degree), budget).sweep(m_max)
        for key, val in sorted(table.items()):
            out[key] = out.get(key, 0) + orbit.orbit_size * val
    return out


def _component_search(args) -> tuple[BucketTable, int]:
    """Weighted table and node count of one component pair; a process-pool task."""
    pair, m_max, max_degree, ceiling = args
    budget = _Budget(ceiling)
    return weighted_table(connected_reps(*pair), m_max, max_degree, budget), budget.nodes


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


# --- the exponential formula -------------------------------------------------
#
# A_k(q) is the labelled table of the stable layers on k variables with q
# quadrics, C_j(q) that of the connected ones. The component of variable 0 has
# j variables, chosen in binom(k-1, j-1) ways, and q1 quadrics; the rest is any
# layer on the other k - j, and the tables convolve:
#   A_k(q) = sum_{j, q1} binom(k-1, j-1) C_j(q1) * A_{k-j}(q-q1),  A_0(0) = {(): 1}.


def _min_size(q: int) -> int:
    """The fewest cells above q quadrics: a cubic covers at most three."""
    return -(-q // 3)


def _splits(k: int, q: int, m: int):
    """The terms of A_k(q) to size m: (ways, the component (j, q1), the size
    its table is read to, the rest (k - j, q - q1, the size its table is read
    to)). A connected layer on j variables has j to j(j+1)/2 quadrics."""
    for j in range(1, k + 1):
        rest_k = k - j
        for q1 in range(j, min(q, j * (j + 1) // 2) + 1):
            rest_q = q - q1
            if not rest_k <= rest_q <= rest_k * (rest_k + 1) // 2:
                continue
            m1 = m - _min_size(rest_q)
            if m1 >= _min_size(q1):
                yield math.comb(k - 1, j - 1), (j, q1), m1, (rest_k, rest_q, m - _min_size(q1))


def component_needs(k: int, q: int, m_max: int) -> dict[tuple[int, int], int]:
    """The connected tables (j, q1) that A_k(q) reads to size m_max, each
    with the largest size it is read to."""
    needs: dict[tuple[int, int], int] = {}
    seen = set()

    def visit(k: int, q: int, m: int):
        if k and (k, q, m) not in seen:
            seen.add((k, q, m))
            for _, pair, m1, rest in _splits(k, q, m):
                needs[pair] = max(needs.get(pair, 0), m1)
                visit(*rest)

    visit(k, q, m_max)
    return needs


def exponential_table(
    k: int, q: int, m_max: int, components: dict[tuple[int, int], BucketTable]
) -> BucketTable:
    """A_k(q) to size m_max from the connected tables in components, which
    hold every size `component_needs` reads. Profile tails add position by
    position: the components' cells lie in disjoint variables, so their
    regions and down-sets multiply."""
    memo: dict[tuple[int, int, int], BucketTable] = {}

    def table(k: int, q: int, m: int) -> BucketTable:
        if not k:
            return {(): 1}
        out = memo.get((k, q, m))
        if out is None:
            out = memo[k, q, m] = {}
            for ways, pair, m1, rest in _splits(k, q, m):
                others = [(t, sum(t), v) for t, v in table(*rest).items()]
                for t1, v1 in components[pair].items():
                    s1 = sum(t1)
                    if s1 > m1:
                        continue
                    for t2, s2, v2 in others:
                        if s1 + s2 <= m:
                            t = tuple(map(sum, itertools.zip_longest(t1, t2, fillvalue=0)))
                            out[t] = out.get(t, 0) + ways * v1 * v2
        return out

    return table(k, q, m_max)


def alpha_tables(
    k: int,
    q: int,
    m_max: int,
    length_cap: Optional[int] = None,
    workers: int = 1,
    budget: Optional[_Budget] = None,
    components: Optional[dict[tuple[int, int], tuple[int, BucketTable]]] = None,
) -> BucketTable:
    """Labelled bucket table A_k(q) for all sizes up to m_max at once; the
    values include the orbit weights.

    Each connected table C_j(q1) it reads is one `_component_search` task,
    run in (j, q1) order by `lattice.charged_map` and charged to budget, or
    to a fresh default-ceiling one. components, when given, memoises those
    tables across calls as (size, table) under this length_cap, each pair as
    its task returns; a table is swept again only when a larger size is read.
    """
    budget = _Budget(DEFAULT_NODE_CEILING) if budget is None else budget
    components = {} if components is None else components
    needs = component_needs(k, q, m_max)
    todo = [(p, m) for p, m in sorted(needs.items()) if components.get(p, (0,))[0] < m]
    tasks = [(p, m, m + 2 if length_cap is None else length_cap, budget.left) for p, m in todo]
    tables = charged_map(_component_search, tasks, workers, budget)
    for (p, m), table in zip(todo, tables, strict=True):
        components[p] = m, table
    return exponential_table(k, q, m_max, {p: components[p][1] for p in needs})


def alpha(
    query: AlphaQuery,
    workers: int = 1,
    node_ceiling: Optional[int] = DEFAULT_NODE_CEILING,
    components: Optional[dict[tuple[int, int], tuple[int, BucketTable]]] = None,
) -> int:
    """Exact number of partitions matching the query (socle degree >= 3 built in);
    components is the memo of connected tables that `alpha_tables` takes."""
    trivial = query.trivial_count()
    if trivial is not None:
        return trivial
    k, q, m = query.k, query.q, query.m
    table = alpha_tables(
        k, q, m, length_cap=query.length, workers=workers, budget=_Budget(node_ceiling),
        components=components,
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


@lru_cache(maxsize=None)
def orbit_reps(k: int, q: int) -> tuple[QuadricOrbit, ...]:
    """Reference: one canonical representative per S_k-orbit of every stable
    q-element quadric set that touches all k variables, connected or not, in
    the order of their sorted entry tuples; their weighted_table, which
    sweeps each one, is A_k(q) with no exponential formula."""
    return _orderly(k, q, connected=False)


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
    """alpha_count(k, q, m) in one process; `perfbench` traces it by this name."""
    return alpha(AlphaQuery(k, q, m), node_ceiling=node_ceiling)
