"""Lattice partitions: invariants, apolarity, and the brute-force counting oracle.

Points of N^n are plain int tuples ordered by (degree, lex). A partition is a
finite downward-closed set of points; enumeration proceeds by appending points
in strictly increasing order, which visits every partition exactly once
(Bratley–McKay, CACM Algorithm 313; Knuth, Math. Comp. 24, 1970).

The oracle walks an integer-indexed universe: every point whose down-set fits
the target size, numbered in (degree, lex) order, with one cover record per
point (its layer's first index and, per upper cover, that cover's lower-cover
mask and bit) and an upper-cover mask. A state is a chosen-set mask, its layer
counts and the mask of addable indices; since index order is enumeration
order, the walk pops the low bit of that mask for the next point, and a
child's candidates are the bits above it joined with the new point's fresh
upper covers. Points become tuples again only for `iter_partitions`.
The constraint checker reads that state too: layer counts for the layer
targets, upper-cover masks for the socle test. Since the layer below the
degree being filled is settled, every point that can still join that layer is
already a candidate, so a layer whose target its remaining candidates cannot
reach is cut at once. Without a checker or visitor a state two points short
of the target counts its leaves in one step: the child of the i-th of its R
candidates keeps the R - 1 - i candidates above it and gains f(c) fresh
covers, so the leaves are C(R, 2) + sum f(c). The state charges R + leaves
nodes at once, what a walk that visits every leaf spends, and node ceilings
fail exactly where that walk fails. The oracle is one serial walk and takes
no `workers` value. `mpart`'s region search shares the node counter `_Budget`
with this module and runs its tasks through `charged_map`; the walks
themselves are separate code, so the oracle stays an independent route.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

Point = tuple[int, ...]


class ResourceCeilingError(RuntimeError):
    """Raised when an enumeration exceeds its configured state ceiling."""


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


class ConstraintSpec(NamedTuple):
    """Active constraints for a counting query; inconsistent combinations count 0."""

    size: int
    embedding_dim: Optional[int] = None
    min_socle_degree: Optional[int] = None
    hilbert_samuel: Optional[tuple[int, ...]] = None
    quadric_count: Optional[int] = None
    tail_mass: Optional[int] = None  # sum of layer sizes in degrees >= 3
    length: Optional[int] = None


# --- enumeration core --------------------------------------------------------


class _Budget:
    """Node counter of a search walker; raises once it passes its ceiling."""

    __slots__ = ("nodes", "ceiling")

    def __init__(self, ceiling: Optional[int]):
        self.nodes = 0
        self.ceiling = ceiling

    def spend(self, nodes: int = 1):
        self.nodes += nodes
        if self.ceiling is not None and self.nodes > self.ceiling:
            raise ResourceCeilingError(f"search exceeded the {self.ceiling}-node ceiling")

    @property
    def left(self) -> Optional[int]:
        """The nodes still allowed, or None without a ceiling."""
        return None if self.ceiling is None else self.ceiling - self.nodes


def charged_map(fn: Callable, tasks: Sequence, workers: int, budget: _Budget) -> Iterator:
    """Yield the value of each fn(task) -> (value, nodes) in task order, and
    charge its nodes to budget in that order.

    A process pool runs the tasks when workers > 1 and there is more than one;
    only then is the pool module imported. `mpart.alpha_tables` is the only
    caller, one task per component pair: the oracle walks serially.
    A task whose own ceiling is budget.left when it is built then fails
    exactly when the serial walk does, under any number of workers, and its
    error names the budget's ceiling.
    """
    try:
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
    except ResourceCeilingError:
        raise ResourceCeilingError(f"search exceeded the {budget.ceiling}-node ceiling") from None


class _Universe(NamedTuple):
    """Every point of N^n whose down-set has at most `size` points.

    Points are numbered in (degree, lex) order, so the low bit of a mask of
    indices is its first point in enumeration order. cover[i] is one record
    (shift, pairs): shift is the first index of point i's layer, and pairs
    holds (need_j, 1 << j) for each upper cover j, where bit b of need_j marks
    lower cover shift + b of j. All lower covers of j lie in i's layer, so
    each need mask is only as wide as that layer.
    """

    points: tuple[Point, ...]
    degrees: tuple[int, ...]
    start: tuple[int, ...]  # index of the first point of each degree
    cover: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    upmask: tuple[int, ...]  # the upper covers of each point as a mask

    def decode(self, chosen: int) -> tuple[Point, ...]:
        """The points of a chosen-set mask, in enumeration order."""
        out = []
        while chosen:
            low = chosen & -chosen
            out.append(self.points[low.bit_length() - 1])
            chosen ^= low
        return tuple(out)


@functools.lru_cache(maxsize=16)
def _universe(n: int, size: int, ceiling: Optional[int] = None) -> _Universe:
    """The point universe of a walk to `size` points in N^n.

    Point p is the last point of the partition down(p), so an unconstrained
    walk visits at least one node per point; a universe larger than its node
    ceiling raises before any table is built.
    """
    budget = _Budget(ceiling)
    points: list[Point] = []
    start: list[int] = []
    layer = {(0,) * n: 1} if size >= 1 else {}  # point -> down-set size
    while layer:
        budget.spend(len(layer))
        start.append(len(points))
        points.extend(sorted(layer))
        above = {}
        for p, cells in layer.items():
            for i, v in enumerate(p):
                q_cells = cells // (v + 1) * (v + 2)
                if q_cells <= size:
                    above[p[:i] + (v + 1,) + p[i + 1 :]] = q_cells
        layer = above
    index = {p: i for i, p in enumerate(points)}
    degrees = tuple(sum(p) for p in points)
    shifts = [start[g] for g in degrees]
    up: list[list[int]] = []
    need = [0] * len(points)
    for i, p in enumerate(points):
        covers = []
        for k, v in enumerate(p):
            j = index.get(p[:k] + (v + 1,) + p[k + 1 :])
            if j is not None:
                covers.append(j)
                need[j] |= 1 << (i - shifts[i])
        up.append(covers)
    cover = tuple(
        (shift, tuple((need[j], 1 << j) for j in covers)) for shift, covers in zip(shifts, up)
    )
    upmask = tuple(sum(1 << j for j in covers) for covers in up)
    return _Universe(tuple(points), degrees, tuple(start), cover, upmask)


class _ConstraintChecker:
    """Incremental admissibility for the ordered DFS over one universe.

    Additions arrive in increasing (degree, lex) order, so when a point of
    degree g is appended every layer below g is final except layer g itself.
    """

    def __init__(self, spec: ConstraintSpec, universe: _Universe):
        # the spec's fields, read once rather than per candidate or per leaf
        self.length = spec.length
        self.hilbert_samuel = hs = spec.hilbert_samuel
        self.tail_mass = spec.tail_mass
        # equality targets (degree, size) of single layers, by degree; a degree may repeat
        pairs = [(1, spec.embedding_dim), (2, spec.quadric_count), *enumerate(hs or ())]
        self.targets = sorted(p for p in pairs if p[1] is not None)
        # the highest degree a point may have; every nonempty partition has h_0 = 1
        tops = [spec.length, None if hs is None else len(hs) - 1 if hs[:1] == (1,) else -1]
        self.top = min((t for t in tops if t is not None), default=len(universe.start))
        # ends[g] is the first index of degree >= g, for g up to one past the last degree
        self.ends = ends = universe.start + (len(universe.points),)
        msd = spec.min_socle_degree
        # the mask of every point of degree below the minimal socle degree
        self.socle_low = 0 if msd is None else (1 << ends[min(max(msd, 0), len(ends) - 1)]) - 1
        self.upmask = universe.upmask
        self.degrees = universe.degrees

    def settled(self, layers: list[int], top: int) -> bool:
        """Do the equality targets of the layers below degree top all hold?"""
        for g, target in self.targets:
            if g >= top:
                return True
            if layers[g] != target:
                return False
        return True

    def admits(self, layers: list[int], g: int, cands: int, c: int) -> bool:
        """May candidate c, of degree g, be appended to a state with these layer
        counts, when `cands` is the mask of candidates not yet tried?"""
        if g > self.top:
            return False
        have, end = layers[g], self.ends[g + 1]
        for i, target in self.targets:
            # the layer below g is settled: layer g can gain only its candidates from c on
            if i == g and not have < target <= have + (cands >> c & (1 << end - c) - 1).bit_count():
                return False
        tail = self.tail_mass
        if tail is not None and g >= 3 and sum(layers[3:]) + 1 > tail:
            return False
        return self.settled(layers, g)

    def accepts_leaf(self, chosen: int, layers: list[int]) -> bool:
        """Does the complete state (chosen-set mask, layer counts) match the spec?"""
        length = self.degrees[chosen.bit_length() - 1] if chosen else None
        if self.length is not None and length != self.length:
            return False
        hs = self.hilbert_samuel
        if hs is not None and len(hs) != (0 if length is None else length + 1):
            return False
        tail = self.tail_mass
        if tail is not None and sum(layers[3:]) != tail:
            return False
        if not self.settled(layers, len(layers)):
            return False
        # a point below the minimal socle degree needs an upper cover in the set
        low = chosen & self.socle_low
        while low:
            bit = low & -low
            if not chosen & self.upmask[bit.bit_length() - 1]:
                return False
            low ^= bit
        return True


def _count_dfs(
    universe: _Universe,
    target_size: int,
    checker: Optional[_ConstraintChecker],
    budget: _Budget,
    chosen: int,
    size: int,
    layers: list[int],
    cands: int,
    visitor: Optional[Callable[[tuple[Point, ...]], None]] = None,
) -> int:
    """Count the leaves below a state: `chosen` is a mask of universe indices,
    `layers` its points per degree, `cands` the mask of addable indices."""
    if size == target_size:
        if checker is None or checker.accepts_leaf(chosen, layers):
            if visitor is not None:
                visitor(universe.decode(chosen))
            return 1
        return 0
    cover = universe.cover
    if checker is None and visitor is None and size == target_size - 2:
        # the child of the i-th of R candidates keeps the R - 1 - i above it
        # and gains its fresh covers, and each of its candidates is one leaf:
        # C(R, 2) + the fresh covers of all children, after one node per child
        children = cands.bit_count()
        leaves = children * (children - 1) // 2
        rest = cands
        while rest:
            low = rest & -rest
            rest ^= low
            shift, pairs = cover[low.bit_length() - 1]
            below = (chosen | low) >> shift
            for need, _ in pairs:
                if need & below == need:
                    leaves += 1
        budget.spend(children + leaves)
        return leaves
    degrees = universe.degrees
    total = 0
    rest = cands
    while rest:
        low = rest & -rest
        c = low.bit_length() - 1
        g = degrees[c]
        admitted = checker is None or checker.admits(layers, g, rest, c)
        rest ^= low
        if not admitted:
            continue
        budget.spend()
        mask = chosen | low
        shift, pairs = cover[c]
        below = mask >> shift
        child = rest
        for need, bit in pairs:
            if need & below == need:
                child |= bit
        layers[g] += 1
        total += _count_dfs(
            universe, target_size, checker, budget, mask, size + 1, layers, child, visitor
        )
        layers[g] -= 1
    return total


def _count(
    n: int,
    spec: Optional[ConstraintSpec],
    target_size: int,
    max_nodes: Optional[int] = None,
    visitor: Optional[Callable[[tuple[Point, ...]], None]] = None,
) -> int:
    # a checker can prune below one node per point: only an unconstrained walk
    # may refuse a universe larger than its ceiling
    universe = _universe(n, target_size, max_nodes if spec is None else None)
    checker = _ConstraintChecker(spec, universe) if spec is not None else None
    return _count_dfs(
        universe,
        target_size,
        checker,
        _Budget(max_nodes),
        0,
        0,
        [0] * max(target_size + 2, 3),  # the leaf test reads layers 0..2
        1 if universe.points else 0,
        visitor,
    )


def count_partitions(n: int, d: int, max_nodes: Optional[int] = None) -> int:
    """Number of downward-closed subsets of N^n with exactly d points (one serial walk)."""
    if n < 0 or d < 0:
        raise ValueError("dimension and size must be nonnegative")
    return _count(n, None, d, max_nodes=max_nodes)


def count_constrained(n: int, spec: ConstraintSpec, max_nodes: Optional[int] = None) -> int:
    """Partitions in N^n matching every active constraint of the spec (one serial walk)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return _count(n, spec, spec.size, max_nodes=max_nodes)


def iter_partitions(n: int, size: int) -> Iterator[tuple[Point, ...]]:
    """Yield every partition of the exact size as a sorted point tuple."""
    found: list[tuple[Point, ...]] = []
    _count(n, None, size, visitor=found.append)
    return iter(found)


# --- coordinate symmetry ------------------------------------------------------


def permute_point(p: Point, perm: Sequence[int]) -> Point:
    """Coordinate i of the image reads coordinate perm[i] of p."""
    return tuple(p[perm[i]] for i in range(len(perm)))
