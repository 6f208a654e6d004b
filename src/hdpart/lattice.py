"""The brute-force counting oracle for lattice partitions, and the node counter.

Points of N^n are plain int tuples ordered by (degree, lex). A partition is a
finite downward-closed set of points; enumeration proceeds by appending points
in strictly increasing order, which visits every partition exactly once
(Bratley–McKay, CACM Algorithm 313; Knuth, Math. Comp. 24, 1970).

The oracle walks an integer-indexed universe: every point whose down-set fits
the target size, numbered in (degree, lex) order, with one cover record per
point (its layer's first index and, per upper cover, that cover's lower-cover
mask and bit). A state is a chosen-set mask, its layer counts and the mask of
addable indices; since index order is enumeration order, the walk pops the
low bit of that mask for the next point, and a child's candidates are the bits
above it joined with the new point's fresh upper covers.
The constraint checker reads that state too: layer counts for the layer
targets, and a pending mask for the socle bound. Since the layer below the
degree being filled is settled, every point that can still join that layer is
already a candidate, so a layer whose target its remaining candidates cannot
reach is cut at once. The pending mask holds the chosen points below the
minimal socle degree that have no chosen upper cover yet; a new point clears
its lower covers and, if it is low itself, joins. Only points above the new
one can join later, so a state with a pending point whose last upper cover
lies at or below the new point is never entered, and a leaf matches the
socle bound exactly when its pending mask is empty (a socle-cover lookahead).
A state one point short of the target tests each admitted child as a leaf in
place, one node each. Without a checker a state two points short counts its
leaves in one step: the child of the i-th of its R candidates keeps the
R - 1 - i candidates above it and gains f(c) fresh covers, so the leaves are
C(R, 2) + sum f(c). The state charges R + leaves nodes at once, what a walk
that visits every leaf spends, and node ceilings fail exactly where that walk
fails.

`count_partitions` also folds the axis symmetry (Atkin–Bratley–Macdonald–McKay,
Proc. Cambridge Philos. Soc. 63, 1967, split partition counts by the axes
used). The length L_a of axis a is the largest t with t e_a in the partition,
and a partition of two or more points holds the origin and the chains e_a,
..., L_a e_a of the j axes it uses. Permuting the axes permutes the lengths,
state for state. So it charges the origin once and walks, for each
non-decreasing tuple L of positive lengths with sum at most d - 1, only the
states whose axis points are the chains of lengths L on the first j unit
points: those chains and the origin are its start state, the points e_a + e_b
of those axes its candidates, and no axis point is ever a candidate. No such
state leaves the first min(n, d-1) axes, so the count builds its universe on
those axes alone. Each leaf it finds counts once per placement of L on the n
axes, C(n, j) j! / prod mult(L)! times, and so does each node it charges, so
node totals and ceiling verdicts are those of the full walk. The constrained
walk is not folded. The oracle is one serial walk and takes no `workers`
value; the fold reads nothing from `refine` or `mpart`, so the oracle stays an
independent route.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, NamedTuple, Optional, Sequence

Point = tuple[int, ...]


class ResourceCeilingError(RuntimeError):
    """Raised when an enumeration exceeds its configured state ceiling."""


class ConstraintSpec(NamedTuple):
    """Active constraints for a counting query; inconsistent combinations count 0."""

    size: int
    embedding_dim: Optional[int] = None
    min_socle_degree: Optional[int] = None
    hilbert_samuel: Optional[tuple[int, ...]] = None
    quadric_count: Optional[int] = None
    length: Optional[int] = None


# --- enumeration core --------------------------------------------------------


class _Budget:
    """Node counter of a walk, the oracle's or the search's; raises once it
    passes its ceiling, which is None or at least 0."""

    __slots__ = ("nodes", "ceiling")

    def __init__(self, ceiling: Optional[int]):
        if ceiling is not None and ceiling < 0:
            raise ValueError(f"a node ceiling needs at least 0, not {ceiling}")
        self.nodes = 0
        self.ceiling = ceiling

    def spend(self, nodes: int = 1):
        self.nodes += nodes
        if self.ceiling is not None and self.nodes > self.ceiling:
            raise ResourceCeilingError(f"exceeded the {self.ceiling}-node ceiling")


class _Weighted:
    """A budget view that charges each node `weight` times to its budget."""

    __slots__ = ("budget", "weight")

    def __init__(self, budget: _Budget, weight: int):
        self.budget = budget
        self.weight = weight

    def spend(self, nodes: int = 1):
        self.budget.spend(nodes * self.weight)


class _Universe(NamedTuple):
    """Every point of N^n whose down-set has at most `size` points.

    Points are numbered in (degree, lex) order, so the low bit of a mask of
    indices is its first point in enumeration order. cover[i] is one record
    (shift, pairs): shift is the first index of point i's layer, and pairs
    holds (need_j, 1 << j) for each upper cover j, where bit b of need_j marks
    lower cover shift + b of j. All lower covers of j lie in i's layer, so
    each need mask is only as wide as that layer. No upper cover of a point off
    the axes lies on one. chains[a][t] is the mask of the axis points e, 2e,
    ..., t * e of the unit point e of index a + 1.
    """

    points: tuple[Point, ...]
    degrees: tuple[int, ...]
    start: tuple[int, ...]  # index of the first point of each degree
    cover: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    chains: tuple[tuple[int, ...], ...]


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
    chains = []
    for e in points[1 : n + 1]:
        # t * e has a down-set of t + 1 points: the chain reaches t = size - 1
        bits = (1 << index[tuple(t * v for v in e)] for t in range(1, size))
        chains.append(tuple(itertools.accumulate(bits, initial=0)))
    return _Universe(tuple(points), degrees, tuple(start), cover, tuple(chains))


class _ConstraintChecker:
    """Incremental admissibility for the ordered DFS over one universe.

    Additions arrive in increasing (degree, lex) order, so when a point of
    degree g is appended every layer below g is final except layer g itself.
    The socle bound is checked as the walk goes: the walk carries the mask of
    chosen low points (below the minimal socle degree) still waiting for an
    upper cover, and a point whose arrival leaves one of them with no upper
    cover above it is refused, since no later point can cover it.
    """

    def __init__(self, spec: ConstraintSpec, universe: _Universe):
        # the spec's fields, read once rather than per candidate or per leaf
        self.length = spec.length
        self.hilbert_samuel = hs = spec.hilbert_samuel
        # equality targets (degree, size) of single layers, by degree; a degree may repeat
        pairs = [(1, spec.embedding_dim), (2, spec.quadric_count), *enumerate(hs or ())]
        self.targets = sorted(p for p in pairs if p[1] is not None)
        # the highest degree a point may have; every nonempty partition has h_0 = 1
        tops = [spec.length, None if hs is None else len(hs) - 1 if hs[:1] == (1,) else -1]
        self.top = min((t for t in tops if t is not None), default=len(universe.start))
        # ends[g] is the first index of degree >= g, for g up to one past the last degree
        self.ends = ends = universe.start + (len(universe.points),)
        msd = spec.min_socle_degree
        # the points of degree below the minimal socle degree: each needs a chosen upper cover
        n_low = 0 if msd is None else ends[min(max(msd, 0), len(ends) - 1)]
        self.socle_low = (1 << n_low) - 1
        # lower[c]: the low points that c covers; doomed[c]: the low points whose
        # last upper cover is at or below c, so no later point can cover them
        lower = [0] * len(universe.points)
        last = [0] * (len(universe.points) + 1)
        for i in range(n_low):
            bit = 1 << i
            up = 0  # the upper covers of point i as a mask
            for _, cover_bit in universe.cover[i][1]:
                up |= cover_bit
                lower[cover_bit.bit_length() - 1] |= bit
            last[up.bit_length()] |= bit  # slot 0 holds the points with no upper cover
        self.lower = lower
        self.doomed = list(itertools.accumulate(last))[1:]
        self.degrees = universe.degrees

    def settled(self, layers: list[int], top: int) -> bool:
        """Do the equality targets of the layers below degree top all hold?"""
        for g, target in self.targets:
            if g >= top:
                return True
            if layers[g] != target:
                return False
        return True

    def admits(self, layers: list[int], g: int, cands: int, c: int, pending: int) -> Optional[int]:
        """The pending mask after candidate c, of degree g, joins a state with
        these layer counts and pending mask, when `cands` is the mask of
        candidates not yet tried; None if c may not join."""
        if g > self.top:
            return None
        have, end = layers[g], self.ends[g + 1]
        for i, target in self.targets:
            # the layer below g is settled: layer g can gain only its candidates from c on
            if i == g and not have < target <= have + (cands >> c & (1 << end - c) - 1).bit_count():
                return None
        if not self.settled(layers, g):
            return None
        # c covers its lower covers and, if low, waits for a cover of its own
        pending = pending & ~self.lower[c] | (1 << c) & self.socle_low
        return None if pending & self.doomed[c] else pending

    def accepts_leaf(self, chosen: int, layers: list[int], pending: int) -> bool:
        """Does the complete state (chosen-set mask, layer counts, pending mask)
        match the spec?"""
        length = self.degrees[chosen.bit_length() - 1] if chosen else None
        if self.length is not None and length != self.length:
            return False
        hs = self.hilbert_samuel
        if hs is not None and len(hs) != (0 if length is None else length + 1):
            return False
        # every low point has a chosen upper cover
        return pending == 0 and self.settled(layers, len(layers))


def _count_dfs(
    universe: _Universe,
    target_size: int,
    checker: Optional[_ConstraintChecker],
    budget: _Budget,
    chosen: int,
    size: int,
    layers: list[int],
    cands: int,
    pending: int = 0,
) -> int:
    """Count the leaves below a state: `chosen` is a mask of universe indices,
    `layers` its points per degree, `cands` the mask of addable indices and
    `pending` the checker's low points with no chosen upper cover (0 without one)."""
    if size == target_size:
        return int(checker is None or checker.accepts_leaf(chosen, layers, pending))
    cover = universe.cover
    if checker is None and size == target_size - 2:
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
    # one point short: each admitted child is a leaf, tested in place
    last = size == target_size - 1
    total = 0
    rest = cands
    while rest:
        low = rest & -rest
        c = low.bit_length() - 1
        g = degrees[c]
        child_pending = 0 if checker is None else checker.admits(layers, g, rest, c, pending)
        rest ^= low
        if child_pending is None:
            continue
        budget.spend()
        mask = chosen | low
        layers[g] += 1
        if last:
            total += checker is None or checker.accepts_leaf(mask, layers, child_pending)
        else:
            shift, pairs = cover[c]
            below = mask >> shift
            child = rest
            for need, bit in pairs:
                if need & below == need:
                    child |= bit
            total += _count_dfs(
                universe, target_size, checker, budget, mask, size + 1, layers, child, child_pending
            )
        layers[g] -= 1
    return total


def _sorted_lengths(axes: int, room: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """Every non-decreasing tuple of 1 to `axes` lengths, each at least `least`,
    with sum at most `room`."""
    for t in range(least, room + 1) if axes else ():
        yield (t,)
        for rest in _sorted_lengths(axes - 1, room - t, t):
            yield (t, *rest)


def _orbit_size(lengths: Sequence[int], n: int) -> int:
    """The points of N^n whose nonzero coordinates are the sorted `lengths`:
    n! / ((n - j)! prod mult!) for j lengths, C(n, j) j! / prod mult!."""
    out = math.perm(n, len(lengths))
    for _, run in itertools.groupby(lengths):
        out //= math.factorial(len(tuple(run)))
    return out


def count_partitions(n: int, d: int, max_nodes: Optional[int] = None) -> int:
    """Number of downward-closed subsets of N^n with exactly d points (one serial walk).

    For d >= 2 the walk is folded by the axis lengths: with the origin charged
    once, the partitions whose axis lengths are exactly a sorted tuple L, on the
    first len(L) unit points in index order, are walked once and counted, node
    by node and leaf by leaf, as often as L has arrangements on the n axes.
    Those walks read only the min(n, d-1) axes, so the universe spans just them.
    """
    if n < 0 or d < 0:
        raise ValueError("dimension and size must be nonnegative")
    if d < 2:
        # no point or the origin alone: one partition, one node per point
        budget = _Budget(max_nodes)
        if d:
            budget.spend()
        return 1
    axes = min(n, d - 1)
    universe = _universe(axes, d, max_nodes)
    # firsts[j]: the points e_a + e_b of the first j unit points, the candidates of
    # every start on j axes; 2e, the one cover of a unit e with one lower cover, is not
    firsts, units = [0], 1
    for j in range(1, axes + 1):
        units |= 1 << j
        shift, pairs = universe.cover[j]
        below = units >> shift
        fresh = sum(bit for need, bit in pairs if need.bit_count() == 2 and need & below == need)
        firsts.append(firsts[-1] | fresh)
    budget = _Budget(max_nodes)
    budget.spend()  # the origin
    total, layers = 0, [0] * (d + 1)  # an unchecked walk never reads its layer counts
    for lengths in _sorted_lengths(axes, d - 1):
        chosen = 1
        for chain, t in zip(universe.chains, lengths):
            chosen |= chain[t]
        walk = _Weighted(budget, _orbit_size(lengths, n))
        walk.spend()  # the start state
        size, cands = 1 + sum(lengths), firsts[len(lengths)]
        total += walk.weight * _count_dfs(universe, d, None, walk, chosen, size, layers, cands)
    return total


def count_constrained(n: int, spec: ConstraintSpec, max_nodes: Optional[int] = None) -> int:
    """Partitions in N^n matching every active constraint of the spec (one serial walk)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    # a checker can prune below one node per point, so the universe takes no ceiling
    universe = _universe(n, spec.size, None)
    checker = _ConstraintChecker(spec, universe)
    layers = [0] * max(spec.size + 2, 3)  # the leaf test reads layers 0..2
    origin = 1 if universe.points else 0
    return _count_dfs(universe, spec.size, checker, _Budget(max_nodes), 0, 0, layers, origin)

