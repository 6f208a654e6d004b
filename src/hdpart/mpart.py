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
bitmask edges; no subset of the quadrics is scanned. One relabelling search
(`_relabellings`) both tests a grown graph for canonicity and gives its orbit
size k!/|Aut|; nothing else computes a canonical form. It reads the columns
that generation updates edge by edge, rejects most graphs that are not
canonical by a pre-test over the swaps of adjacent vertices, and packs the
rows it reads into one integer per branch. A cell whose support
meets two components has a quadric divisor x_i x_j outside the layer, so a
disconnected layer's region is the disjoint union of its components' regions
and its profile table is the convolution of theirs. The labelled table A_k(q)
is therefore the exponential transform of the connected tables C_j(q)
(`exponential_table`; Harary-Palmer, Graphical Enumeration, 1973, ch. 1;
Flajolet-Sedgewick, Analytic Combinatorics, 2009, II.2). `orbit_reps`, which
generates every stable layer, stays as the reference the tests compare this
route with.

One lower bound, `_cubics_needed`, says how many cubics a set of quadrics
needs from its loops and its size. Generation for a size stops at a loop past
what the size allows, a region keeps a cell only when its own cells above the
layer plus the cubics the rest of the layer needs fit in the size, and the
cubic walk enters no child whose missing quadrics need more cubics than the
size left.

Each region grows from its layer's quadrics a degree at a time, the cubics
by the same rule as every higher degree, keeping only the cells a sweep to
its size can reach, and holds the cover masks and lists the search walks.
The regions share no table of cells with the oracle's universe in `lattice`.

`_RegionSearch.sweep` is the only region walker. One subset walker takes every
layer, the cubics too: a cubic set counts once it covers the quadric layer, and
the layers above it are counted by the transfer-matrix method (Stanley,
EC1, §4.7): what can stand above a chosen degree-g layer depends only on the
degree-(g+1) cells it allows, so the tails above are memoised per sweep on
(allowed mask, size left). Under a length cap it buckets the subsets by layer
profile (h_3, ..., h_length), which fixes their size and length, for the
queries that select a length or a profile; with no cap, by size alone, as every
count the chain reads is one. Either way one sweep to size m_max holds every
count with m <= m_max. Every alpha count selects from the
exponential formula over the orbit-weighted sums of connected tables, which
`alpha_tables` memoises per component pair; a checkpointed run in `cache`
passes a memo that persists itself as a log. One task per component pair
generates and sweeps its connected representatives, one node per memo state
or layer-set transition. Each task carries the run's node count and ceiling
as they stood when it was built, and `charged_map` runs the tasks, in a
process pool under several workers, and charges their nodes to the run's
`lattice._Budget` in task order, so a run fails exactly where the serial walk
does. The search shares only that node counter with the oracle in `lattice`,
a separate walker on purpose: it is the independent route that checks this one.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .lattice import ConstraintSpec, Point, _Budget

DEFAULT_NODE_CEILING = 10**9


@lru_cache(maxsize=None)
def quadric_points(k: int) -> tuple[Point, ...]:
    """All degree-2 points of N^k in lex order; quadric entry u is point u."""
    out = []
    for i in range(k):
        for j in range(i, k):
            p = [0] * k
            p[i] += 1
            p[j] += 1
            out.append(tuple(p))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def quadric_index(k: int) -> dict[Point, int]:
    """The entry of each degree-2 point of N^k in quadric_points(k)."""
    return {p: u for u, p in enumerate(quadric_points(k))}


@lru_cache(maxsize=None)
def _loop_mask(k: int) -> int:
    """Bit u set for each loop x_i^2 among the quadric entries of N^k."""
    return sum(1 << u for u, p in enumerate(quadric_points(k)) if 2 in p)


def _cubics_needed(loops: int, quadrics: int) -> int:
    """The fewest cubics whose quadric divisors include a set of quadrics,
    loops of them loops x_i^2.

    A cubic covers at most one loop (x_i^3 covers only it, x_i^2 x_j also
    x_i x_j), one that covers a loop covers at most one other quadric, and
    x_i x_j x_l covers three and no loop: so at least
    loops + ceil(max(0, quadrics - 2 loops) / 3). The bound never falls as
    loops or quadrics grow, and taking one cubic's quadrics out of the set
    lowers it by at most one.
    """
    return loops + max(0, quadrics - 2 * loops + 2) // 3


def _quadric_mask(U: Iterable[Point], k: int) -> int:
    """Bit u set for each quadric entry u in U."""
    index = quadric_index(k)
    mask = 0
    for p in U:
        u = index.get(tuple(p))
        if u is None:
            raise ValueError(f"{p} is not a degree-2 point of N^{k}")
        mask |= 1 << u
    return mask


# --- stable layers as looped graphs ----------------------------------------------
#
# Quadric entry u = a(a+1)/2 + b (a >= b) is x_{k-1-a} x_{k-1-b}:
# an edge ab of a looped graph on the vertices 0..k-1, a loop when a == b. Read
# in entry order, the edges come column by column, (0,0), (1,0), (1,1), (2,0), ...
# The least sorted entry tuple of an S_k-orbit is its greatest column string:
# column a of a labelling is the bits (a, 0), ..., (a, a), first bit highest.


def _relabellings(adj: list[int], own: list[int]) -> int:
    """|Aut| of the graph when no relabelling reads a greater column string
    than own, its columns, else 0: the graph is canonical exactly when this
    is nonzero. adj[v] has bit w for each edge vw, bit v for a loop at v.

    A pre-test reads each swap of a and a + 1 first: it moves column a + 1,
    less its bit (a + 1, a), to column a, and on a tie changes each later
    column c only at its bits (c, a) and (c, a + 1). The search then fixes
    new vertex 0, 1, ... in turn, drops a branch once its column falls below
    own, and stops at the first column above it. read packs each vertex's
    bits towards the placed vertices in a field of n + 1 bits, so placing v
    shifts it once and ORs in v's row spread a bit per field. A tying
    vertex is tried once with its free twins (vertices whose transposition
    with it is an automorphism), weighted by their number.
    """
    n = len(adj)
    if not n:
        return 1
    for a in range(n - 1):
        col = own[a + 1] >> 1 & ~1 | own[a + 1] & 1
        later = (adj[a] ^ adj[a + 1]) >> a + 2  # the later columns the swap changes
        if col > own[a] or col == own[a] and later & -later & adj[a + 1] >> a + 2:
            return 0
    w = n + 1
    field = (1 << w) - 1
    # row * copies puts bit x of row at n j + x for each j < n, all apart,
    # and the fields mask keeps the one at w x
    copies = ((1 << n * n) - 1) // ((1 << n) - 1)
    fields = ((1 << w * n) - 1) // field
    spread = [row * copies & fields for row in adj]
    count = 0

    def rec(a: int, free: int, weight: int, read: int) -> bool:
        nonlocal count
        rest = free
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            col = (read >> w * v & field) << 1 | own[v] & 1
            if col < own[a]:
                continue
            if col > own[a]:
                return False
            if free == bit:
                count += weight
                return True
            row = adj[v]
            twins = bit
            others = rest
            while others:
                u = others & -others
                others ^= u
                x = u.bit_length() - 1
                if not (row ^ adj[x]) & ~(bit | u) and (col ^ own[x]) & 1 == 0:
                    twins |= u
            rest &= ~twins
            if not rec(a + 1, free ^ bit, weight * twins.bit_count(), read << 1 | spread[v]):
                return False
        return True

    return count if rec(0, (1 << n) - 1, 1, 0) else 0


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


@lru_cache(maxsize=None)
def _future(k: int) -> tuple[tuple[int, ...], ...]:
    """future[x][v]: the edges at v with quadric entry x or later."""
    n_quads = k * (k + 1) // 2
    return tuple(tuple(_graph(k, ((1 << n_quads) - 1) >> x << x)) for x in range(n_quads + 1))


class QuadricOrbit(NamedTuple):
    """Canonical quadric configuration with its orbit size under S_k."""

    rep: tuple[Point, ...]
    orbit_size: int


def _most_loops(k: int, q: int, size: Optional[int]) -> int:
    """The most loops that q quadrics on k variables may hold with their cubics
    within size: k with no size, -1 when no set fits."""
    return k if size is None else sum(_cubics_needed(n, q) <= size for n in range(k + 1)) - 1


def _orderly(k: int, q: int, connected: bool, most: int) -> tuple[QuadricOrbit, ...]:
    """One canonical representative per S_k-orbit of stable q-element quadric
    sets that touch every variable, only the connected ones if connected, in
    the order of their sorted entry tuples, with at most `most` loops.

    Orderly generation (Read, Ann. Discrete Math. 2, 1978): a canonical graph
    less its last edge is canonical, so each one grows from its parent by one
    later edge. A branch stops when the edges left have too few ends for its
    uncovered vertices and a matching of its uncertified edges, or when an
    edge can no longer be certified. In the canonical labelling of a
    connected graph every vertex a >= 1 has a neighbour b < a: else a vertex
    past a with an edge into 0..a-1, swapped with a, would read a greater
    column a. So a connected branch also stops once it passes a column with
    no lower edge, or when fewer edges are left than columns still to link.
    A branch also stops at a loop past the most its cubics allow: the loops
    only grow along a branch, and the bound never falls as they do.
    """
    n_quads = k * (k + 1) // 2
    if k < 1 or q < 1 or q > n_quads or most < 0:
        return ()
    points = quadric_points(k)
    ends = [(a, b) for a in range(k) for b in range(a + 1)]
    future = _future(k)
    adj = [0] * k
    cols = [0] * k  # the graph's own columns
    found = []

    def grow(last: int, mask: int, left: int, touched: int, col: int, linked: bool, loops: int):
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
            if a == b and loops == most:
                continue
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            cols[a] ^= 1 << a - b
            reached = touched | 1 << a | 1 << b
            # each untouched vertex and each open edge of a matching needs a
            # later edge at its own ends, and one edge has at most two ends;
            # so no edge left means none open, and before the last column
            # vertex k - 1 can still close any edge into a triangle
            need = k - reached.bit_count() + _open_matching(adj)
            if need <= 2 * left and (a < k - 1 or not left or _certifiable(adj, future[x + 1])):
                aut = _relabellings(adj, cols)
                if aut and left:
                    grow(x, mask | 1 << x, left - 1, reached, a, now_linked, loops + (a == b))
                elif aut:
                    rep = tuple(points[u] for u in range(x + 1) if (mask | 1 << x) >> u & 1)
                    found.append(QuadricOrbit(rep, math.factorial(k) // aut))
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)
            cols[a] ^= 1 << a - b

    grow(-1, 0, q - 1, 0, 0, True, 0)
    return tuple(found)


@lru_cache(maxsize=None)
def connected_reps(k: int, q: int, size: Optional[int] = None) -> tuple[QuadricOrbit, ...]:
    """The connected stable layers of orbit_reps(k, q): the same
    representatives, orbit sizes and order, generated without the others.
    With a size, those whose loops need more cubics than size are not
    generated: a sweep to size finds no set above them. Sizes with the same
    `_most_loops` share one tuple."""
    return _connected_reps(k, q, _most_loops(k, q, size))


@lru_cache(maxsize=None)
def _connected_reps(k: int, q: int, most: int) -> tuple[QuadricOrbit, ...]:
    return _orderly(k, q, True, most)


class BoundingRegion(NamedTuple):
    """All cells of the partitions with a fixed quadric layer, bounded length
    and a bounded number of cells above the layer, in the form the sweep walks.

    quadric_mask has bit u for each quadric entry u of the layer (in lex
    order). cells are the degree >= 3 points, sorted by (degree, lex), so the
    n_cubics cubics come first and the cells of one degree are a run of local
    indices. covers[i] masks the quadric entries below cubic i (0 above the
    cubics); parent_mask[i] has bit j for each lower cover j of cell i above
    the cubics (0 for a cubic); upper[i] lists the cells whose highest lower
    cover is cell i, as a layer set walked in index order holds all the lower
    covers of such a cell only once it holds that one.
    cover_order pairs each quadric bit of the layer with its highest covering
    cubic, -1 for none, ascending. size is the bound: each cell's down-set
    holds at most size cells of degree >= 3 less the cubics that the layer
    quadrics outside it need, so a layer that needs more than size cubics has
    no cell. A count of at most size cells loses nothing to the cut, since a
    partition holds the down-set of each cell and cubics over every quadric.
    """

    k: int
    quadric_mask: int
    cells: tuple[Point, ...]
    n_cubics: int
    covers: tuple[int, ...]
    parent_mask: tuple[int, ...]
    upper: tuple[tuple[int, ...], ...]
    cover_order: tuple[tuple[int, int], ...]
    size: int


def bounding_region(
    U: Iterable[Point], size: int, length_cap: Optional[int] = None
) -> BoundingRegion:
    """The region of the layer U to size, and to degree length_cap if given:
    each cell of degree >= 3 whose lower covers all lie in U or in the region,
    and whose down-set's cells of degree >= 3, with the cubics needed over the
    quadrics of U outside that down-set, number at most size. That down-set
    holds a chain from a cubic up to the cell, so its degree is <= size + 2.

    Each degree grows from the upper neighbours of the last one's cells, the
    layer's quadrics first, listing the kept lower covers of each as they are
    found: a cubic's give its cover mask and the highest cubic over each
    quadric, a higher cell's its parent mask and its entry in upper. A point
    c with support s and t exponents >= 2 has prod(c_i + 1) points in its
    down-set, of which 1 + s + t + s(s - 1)/2 have degree <= 2, and t + s(s -
    1)/2 of those are quadrics, t of them loops. So the test reads only a
    neighbour's product, updated from its lower cover's, against a room fixed
    by (s, t), and a point over the bound is dropped before it is built.
    """
    pts = {tuple(p) for p in U}
    if not pts:
        raise ValueError("empty quadric layer")
    k = len(next(iter(pts)))
    umask = _quadric_mask(pts, k)
    cells: list[Point] = []
    covers: list[int] = []
    parent_mask: list[int] = []
    upper: list[list[int]] = []
    quads = quadric_points(k)
    ids = [u for u in range(len(quads)) if umask >> u & 1]  # the last degree's cells
    below = [quads[u] for u in ids]
    n_loops, n_quads = (umask & _loop_mask(k)).bit_count(), len(ids)

    def room(s: int, t: int) -> int:
        # the most points in the down-set of a cell with support s and t
        # exponents >= 2: size, plus its points of degree <= 2, less the
        # cubics needed above the layer's other quadrics
        under = t + s * (s - 1) // 2  # its quadrics, t of them loops
        return size + 1 + s + under - _cubics_needed(n_loops - t, n_quads - under)

    # the room of a neighbour raised at an exponent 0, 1 or >= 2, by (s, t)
    rooms: dict[tuple[int, int], tuple[int, int, int]] = {}
    # the highest cubic covering each quadric of the layer; a quadric that no
    # cubic covers keeps -1, so a sweep of an unstable layer enters no cubic
    last = dict.fromkeys(ids, -1)
    n_cubics = 0
    for degree in range(3, (size + 2 if length_cap is None else length_cap) + 1):
        grown: dict[Point, list[int]] = {}
        for j, p in zip(ids, below):
            s = k - p.count(0)
            t = s - p.count(1)
            fit = rooms.get((s, t))
            if fit is None:
                fit = rooms[s, t] = (room(s + 1, t), room(s, t + 1), room(s, t))
            prod = math.prod([v + 1 for v in p])
            up = list(p)  # p with one exponent raised at a time
            for a, v in enumerate(p):
                if prod // (v + 1) * (v + 2) <= fit[v if v < 2 else 2]:
                    up[a] = v + 1
                    grown.setdefault(tuple(up), []).append(j)
                    up[a] = v
        first = len(cells)
        # one lower cover per axis of its support
        for c in sorted([c for c, low in grown.items() if len(low) == k - c.count(0)]):
            low = grown[c]
            mask = sum(1 << j for j in low)
            if degree == 3:  # low holds quadric entries
                covers.append(mask)
                parent_mask.append(0)
                for u in low:
                    last[u] = len(cells)
            else:
                covers.append(0)
                parent_mask.append(mask)
                upper[max(low)].append(len(cells))
            cells.append(c)
            upper.append([])
        ids, below = range(first, len(cells)), cells[first:]
        if degree == 3:
            n_cubics = len(cells)
        if not below:  # no cell of the next degree has its lower covers
            break
    return BoundingRegion(
        k, umask, tuple(cells), n_cubics, tuple(covers), tuple(parent_mask),
        tuple(map(tuple, upper)), tuple(sorted((i, 1 << u) for u, i in last.items())), size,
    )


class _AlphaQuery(NamedTuple):
    """The fields of AlphaQuery, whose __new__ checks them."""

    k: int
    q: int
    m: int
    length: Optional[int] = None
    profile: Optional[tuple[int, ...]] = None


class AlphaQuery(_AlphaQuery):
    """A request for one count: type (k, q, m) of nonnegative indices,
    optionally refined by length or by the full layer-size profile, which
    fixes the length.

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
        # a length and a profile entry (a layer size) are as nonnegative as k, q and m
        if min(k, q, m, length or 0, *(profile or ())) < 0:
            raise ValueError("indices must be nonnegative")
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
            length = len(h) - 1  # a profile fixes the length, so it sweeps under a cap
        return super().__new__(cls, k, q, m, length, profile)

    @classmethod
    def from_profile(cls, h: Iterable[int]) -> AlphaQuery:
        """The query that prescribes the whole layer profile h = (1, k, q, ...)."""
        h = tuple(h)  # __new__ validates it
        k = h[1] if len(h) > 1 else 0
        q = h[2] if len(h) > 2 else 0
        return cls(k, q, sum(h[3:]), profile=h)

    def constraint_spec(self) -> ConstraintSpec:
        """The same count for the brute-force oracle in dimension k; the size and
        the two layer targets leave m points above degree 2."""
        return ConstraintSpec(
            size=1 + self.k + self.q + self.m,
            embedding_dim=self.k,
            quadric_count=self.q,
            min_socle_degree=3 if self.k else None,
            length=self.length,
            hilbert_samuel=self.profile,
        )

    def trivial_count(self) -> Optional[int]:
        """The count when it is decided without search (boundary conventions and
        vanishing cases), else None."""
        k, q, m = self.k, self.q, self.m
        if k == 0:  # the zero-type convention: the origin-only partition
            origin = q == m == 0 and self.length in (None, 0) and self.profile in (None, (1,))
            return 1 if origin else 0
        if not k <= q <= k * (k + 1) // 2:  # each variable needs a quadric above it
            return 0
        if _cubics_needed(0, q) > m:  # m cells hold too few cubics over the q quadrics
            return 0
        if self.length is not None and not 3 <= self.length <= m + 2:
            return 0
        return None


BucketTable = dict[tuple[int, ...], int]
# key: under a length cap, the layer profile (h_3, ..., h_length), so size m is
# its sum and the length is 2 + its length; with no cap, the size alone, (m,);
# value: the count for one representative, or the orbit-weighted sum

# Bump when the meaning of a component pair, of the size a component table is
# swept to, or of a BucketTable changes: checkpoints store orbit-weighted
# component tables by (j, q1) and size, and the cache sweeps again any pair
# logged under another version. Since version 5 a log with no cap holds size
# tables, one under a cap profile tables.
SEARCH_FORMAT_VERSION = 5


class _RegionSearch:
    """Exact count of the downward-closed cell subsets of one bounding region
    whose cubics cover its quadric layer, charging its nodes to budget; the
    sweep walks the region's own arrays.
    """

    def __init__(self, region: BoundingRegion, budget: _Budget):
        self.region = region
        self.budget = budget

    @property
    def nodes(self) -> int:
        return self.budget.nodes

    def sweep(self, m_max: int, by_profile: bool = True) -> BucketTable:
        """Count every valid subset of size <= m_max, bucketed by layer profile,
        or by size alone (keys (m,)) when not by_profile; the two differ only
        in how `stack` joins a layer's size to a tail from `above`.

        One walker, `layers`, takes each layer set by set. It ORs the chosen
        cells' quadric covers into the set's cover and counts a set only when
        that holds need: the quadric layer for the cubics, nothing above. Its
        child loop ends at the least last covering cubic of the quadrics still
        missing, and it enters no child whose missing quadrics need more
        cubics (`_cubics_needed`, from their loops and their number) than the
        cells it may still add; a child cut by either bound reaches no
        covering set. Above the cubics nothing is missing, and neither bound
        is read. A chosen cell c allows each cell of upper[c], whose highest
        lower cover it is, when the set holds all that cell's lower covers.
        What can follow a chosen
        degree-g layer depends only on the degree-(g+1) cells whose lower
        covers it holds, so `above` is memoised for this sweep on (allowed
        mask, size left): the transfer-matrix method over the graded region
        (Stanley, EC1, §4.7). One node is one memo state or one layer-set
        transition. m_max may not pass the region's size, past which the
        region lacks cells that larger sets hold.
        """
        region = self.region
        if m_max > region.size:
            raise ValueError(f"sweep to size {m_max} over a region cut at size {region.size}")
        parent_mask, upper, covers, cover_order = (
            region.parent_mask, region.upper, region.covers, region.cover_order
        )
        loops = _loop_mask(region.k)
        spend = self.budget.spend
        memo: dict[tuple[int, int], BucketTable] = {}
        # one shared tuple per profile tail keeps the memo small
        profiles: dict[tuple[int, ...], tuple[int, ...]] = {}
        sizes = [(m,) for m in range(m_max + 1)]

        def stack(steps: dict[tuple[int, int], int], left: int) -> BucketTable:
            """Profile tails (or sizes) of the layers in steps, (size, allowed
            mask above it) -> ways, with at most left cells in all."""
            tails: BucketTable = {}
            for (size, allowed), ways in steps.items():
                tails[sizes[size]] = tails.get(sizes[size], 0) + ways
                if allowed and size < left:
                    for tail, n in above(allowed, left - size).items():
                        if by_profile:
                            key = (size, *tail)
                            key = profiles.setdefault(key, key)
                        else:
                            key = sizes[size + tail[0]]
                        tails[key] = tails.get(key, 0) + ways * n
            return tails

        def above(allowed: int, left: int) -> BucketTable:
            """Profile tails (or sizes) of the non-empty layers that can follow
            a layer allowing these cells, with at most left cells in all."""
            tails = memo.get((allowed, left))
            if tails is not None:
                return tails
            spend()
            cells = []
            rest = allowed
            while rest:
                bit = rest & -rest
                cells.append(bit.bit_length() - 1)
                rest ^= bit
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
                    short = need & ~got
                    if not short:
                        steps[size + 1, n] = steps.get((size + 1, n), 0) + 1
                    if size + 1 < left and (
                        not short
                        or _cubics_needed((short & loops).bit_count(), short.bit_count())
                        < left - size
                    ):
                        layer(x + 1, size + 1, s, got, n)

            try:
                if left:
                    layer(0, 0, 0, 0, 0)
                return steps
            finally:
                # layer calls itself, a reference cycle that would keep steps
                # until the cyclic collector runs: break it
                del layer

        try:
            return stack(layers(range(region.n_cubics), region.quadric_mask, m_max), m_max)
        finally:
            # stack and above call each other, a reference cycle that would
            # keep the memo until the cyclic collector runs: break it, so
            # the memo is freed as the sweep returns
            del above

    def count(self, m: int) -> int:
        """Count valid subsets of exactly m cells (all lengths)."""
        return select(self.sweep(m, by_profile=False), m)


def weighted_table(
    reps: Sequence[QuadricOrbit], m_max: int, length_cap: Optional[int], budget: _Budget
) -> BucketTable:
    """Sum of the representatives' sweeps to size m_max over their bounding
    regions to length_cap, if any, each weighted by its orbit size: by
    profile under a cap, by size with none, since only a query that selects
    a length or a profile reads a profile, and it always comes with a cap."""
    out: BucketTable = {}
    by_profile = length_cap is not None
    for orbit in reps:
        region = bounding_region(orbit.rep, m_max, length_cap)
        table = _RegionSearch(region, budget).sweep(m_max, by_profile)
        for key, val in sorted(table.items()):
            out[key] = out.get(key, 0) + orbit.orbit_size * val
    return out


def _component_search(args) -> tuple[BucketTable, int]:
    """Weighted table of one component pair and the nodes it adds to a run
    that had spent `spent` nodes of its ceiling when the task was built."""
    pair, m_max, length_cap, spent, ceiling = args
    budget = _Budget(ceiling)
    budget.nodes = spent
    table = weighted_table(connected_reps(*pair, m_max), m_max, length_cap, budget)
    return table, budget.nodes - spent


def charged_map(fn: Callable, tasks: Sequence, workers: int, budget: _Budget) -> Iterator:
    """Yield the value of each fn(task) -> (value, nodes) in task order, and
    charge its nodes to budget in that order.

    A process pool runs the tasks when workers > 1 and there is more than one;
    only then is the pool module imported. A task that starts from budget's
    count and ceiling as they stood when it was built fails exactly when the
    serial walk does, under any number of workers, with the same error.
    """
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            for value, nodes in ex.map(fn, tasks):
                budget.spend(nodes)
                yield value
    else:
        for value, nodes in map(fn, tasks):
            budget.spend(nodes)
            yield value


def select(
    table: BucketTable,
    m: int,
    length: Optional[int] = None,
    profile: Optional[tuple[int, ...]] = None,
) -> int:
    """Total of the buckets of size m, optionally of one length and one
    layer profile (h_0, ..., h_length), which only a table swept under a
    length cap holds."""
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
            m1, least = m - _cubics_needed(0, rest_q), _cubics_needed(0, q1)
            if m1 >= least:
                yield math.comb(k - 1, j - 1), (j, q1), m1, (rest_k, rest_q, m - least)


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
    position, and so do the 1-tuple keys of size tables: the components'
    cells lie in disjoint variables, so their regions and down-sets multiply."""
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
    run in (j, q1) order by `charged_map` and charged to budget, or to a
    fresh default-ceiling one. components, when given, memoises those
    tables across calls as (size, table) under this length_cap, each pair as
    its task returns; a table is swept again only when a larger size is read.
    """
    budget = _Budget(DEFAULT_NODE_CEILING) if budget is None else budget
    components = {} if components is None else components
    needs = component_needs(k, q, m_max)
    todo = [(p, m) for p, m in sorted(needs.items()) if components.get(p, (0,))[0] < m]
    run = budget.nodes, budget.ceiling
    tasks = [(p, m, length_cap, *run) for p, m in todo]
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
    budget = _Budget(node_ceiling)  # checks the ceiling, also for a trivial count
    trivial = query.trivial_count()
    if trivial is not None:
        return trivial
    k, q, m = query.k, query.q, query.m
    table = alpha_tables(
        k, q, m, length_cap=query.length, workers=workers, budget=budget, components=components
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
    return _orderly(k, q, False, k)


def alpha_targeted(
    k: int,
    q: int,
    m: int,
    node_ceiling: Optional[int] = DEFAULT_NODE_CEILING,
) -> int:
    """alpha_count(k, q, m) in one process; `perfbench` traces it by this name."""
    return alpha(AlphaQuery(k, q, m), node_ceiling=node_ceiling)
