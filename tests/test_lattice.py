"""Ground-truth layer: lattice types, apolarity, and the enumeration oracle."""

import functools
import itertools
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdpart import lattice
from hdpart.lattice import (
    AdmissibleSet,
    ConstraintSpec,
    Partition,
    ResourceCeilingError,
    apolar_closure,
    count_constrained,
    count_partitions,
    embedding_dimension,
    hilbert_samuel,
    is_antichain,
    is_downward_closed,
    iter_partitions,
    permute_point,
    socle,
    socle_type,
)
from hdpart.mpart import AlphaQuery, canonical_orbit
from hdpart.refine import Resolver

CLASSICAL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]  # dimension 2
PLANE = [1, 1, 3, 6, 13, 24, 48, 86, 160]  # dimension 3
SOLID = [1, 1, 4, 10, 26, 59, 140, 307, 684]  # dimension 4


def test_apolar_closure_examples():
    assert apolar_closure([], 2).points == ()
    assert apolar_closure([(0, 0)], 2).points == ((0, 0),)
    got = apolar_closure([(2, 0), (0, 1)], 2)
    assert got.points == ((0, 0), (0, 1), (1, 0), (2, 0))
    assert got.size == 4


def test_socle_examples():
    assert socle(Partition(2, [(0, 0)])).points == ((0, 0),)
    stair = apolar_closure([(1, 0), (0, 1)], 2)
    assert socle(stair).points == ((0, 1), (1, 0))
    s = [(3, 0), (1, 1)]
    assert socle(apolar_closure(s, 2)).points == tuple(sorted(s, key=lambda p: (sum(p), p)))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(2, [(1, 0)])  # origin missing
    with pytest.raises(ValueError):
        AdmissibleSet(2, [(1, 0), (1, 1)])  # comparable pair


def test_hilbert_samuel():
    chain = Partition(1, [(0,), (1,), (2,), (3,)])
    assert hilbert_samuel(chain) == (1, 1, 1, 1)
    square = apolar_closure([(1, 1)], 2)
    assert hilbert_samuel(square) == (1, 2, 1)
    # closure of a single (2,1) corner has layers 1,2,2,1
    corner = apolar_closure([(2, 1)], 2)
    assert hilbert_samuel(corner) == (1, 2, 2, 1)
    assert hilbert_samuel(Partition(2, [])) == ()
    assert sum(hilbert_samuel(corner)) == corner.size


@pytest.mark.parametrize(
    "n,expected",
    [(2, CLASSICAL), (3, PLANE[:8]), (4, SOLID[:7])],
)
def test_count_partitions_known_columns(n, expected):
    assert [count_partitions(n, d) for d in range(len(expected))] == expected


def test_count_partitions_degenerate_dimensions():
    assert [count_partitions(0, d) for d in range(4)] == [1, 1, 0, 0]
    assert all(count_partitions(1, d) == 1 for d in range(8))


def test_count_partitions_reference_values():
    assert count_partitions(3, 3) == 6
    assert count_partitions(3, 4) == 13
    assert count_partitions(3, 5) == 24
    assert count_partitions(2, 7) == 15


def test_count_constrained_examples():
    assert count_constrained(2, ConstraintSpec(size=4, embedding_dim=2)) == 3
    assert (
        count_constrained(
            2, ConstraintSpec(size=4, embedding_dim=2, min_socle_degree=2)
        )
        == 1
    )
    assert (
        count_constrained(
            2,
            ConstraintSpec(
                size=6,
                embedding_dim=2,
                quadric_count=2,
                tail_mass=1,
                min_socle_degree=3,
            ),
        )
        == 2
    )


def test_count_constrained_inconsistent_is_zero():
    spec = ConstraintSpec(size=3, embedding_dim=3, quadric_count=5)
    assert count_constrained(3, spec) == 0


def test_constrained_profile_and_length():
    # degree-layer profile (1,2,1): the square and the two L-shapes
    assert count_constrained(2, ConstraintSpec(size=4, hilbert_samuel=(1, 2, 1))) == 3
    assert count_constrained(2, ConstraintSpec(size=4, length=3)) == 2  # the two chains


def test_resource_guard():
    with pytest.raises(ResourceCeilingError):
        count_partitions(3, 9, max_nodes=50)


@pytest.mark.parametrize(
    "n, d, nodes, value",
    [
        # 623 nodes: one per partition of size 1..9 in N^3, the last level counted
        pytest.param(3, 9, 623, 282, id="1"),
        # 131,090 nodes: the last two levels are counted, each leaf still one node
        pytest.param(5, 12, 131090, 76965, id="1-n5-d12"),
    ],
)
def test_counted_last_level_keeps_node_accounting(n, d, nodes, value):
    assert count_partitions(n, d, max_nodes=nodes) == value
    with pytest.raises(ResourceCeilingError):
        count_partitions(n, d, max_nodes=nodes - 1)


@pytest.mark.parametrize(
    "dim, spec, nodes, value",
    [
        # without the prune the walk needs 1079 nodes: an embedding-dimension
        # layer that can no longer reach 10 points is cut as soon as it falls short
        pytest.param(10, ConstraintSpec(size=12, embedding_dim=10), 66, 55, id="1"),
        # the spec of the `count alpha --k 3 --q 4 --m 8` oracle walks 8,117 nodes
        pytest.param(3, AlphaQuery(3, 4, 8).constraint_spec(), 8117, 1302, id="1-alpha-3-4-8"),
    ],
)
def test_dead_layer_prune_node_total(dim, spec, nodes, value):
    assert count_constrained(dim, spec, max_nodes=nodes) == value
    with pytest.raises(ResourceCeilingError):
        count_constrained(dim, spec, max_nodes=nodes - 1)


@pytest.mark.parametrize(
    "n, d", [(n, d) for n in range(6) for d in range(10)] + [(5, 12)]
)
def test_counted_walk_charges_what_the_visiting_walk_does(monkeypatch, n, d):
    # the constrained walk visits every leaf and prunes nothing; the counted
    # walk charges a state two points short in one closed-form step
    budgets = []

    class Recorded(lattice._Budget):
        def __init__(self, ceiling):
            super().__init__(ceiling)
            budgets.append(self)

    with monkeypatch.context() as m:
        m.setattr(lattice, "_Budget", Recorded)
        value = count_partitions(n, d)
    nodes = budgets[-1].nodes  # the walk's budget is made after the universe's
    spec = ConstraintSpec(size=d)
    assert count_constrained(n, spec) == value
    assert count_partitions(n, d, max_nodes=nodes) == value
    assert count_constrained(n, spec, max_nodes=nodes) == value
    if nodes:  # a walk of no nodes cannot pass a ceiling
        with pytest.raises(ResourceCeilingError):
            count_partitions(n, d, max_nodes=nodes - 1)
        with pytest.raises(ResourceCeilingError):
            count_constrained(n, spec, max_nodes=nodes - 1)


def test_visitor_sees_every_counted_partition():
    # the visitor walks every leaf: the bulk count of the last two levels
    # must never stand in for it
    for n in range(5):
        for d in range(9):
            parts = list(iter_partitions(n, d))
            assert len(parts) == len(set(parts)) == count_partitions(n, d)
            assert all(len(p) == d and is_downward_closed(p) for p in parts)


def test_node_ceiling_is_global_under_workers():
    # the walk needs 1231 nodes; a resolver's workers reach only its searches
    with pytest.raises(ResourceCeilingError):
        count_partitions(4, 8, max_nodes=899)
    for workers in (1, 2):
        with pytest.raises(ResourceCeilingError):
            Resolver(workers=workers, node_ceiling=899).p_oracle(4, 8)
        assert Resolver(workers=workers, node_ceiling=1231).p_oracle(4, 8) == 684


def test_permutation_invariance_of_enumeration():
    # permuting coordinates maps the set of partitions to itself
    for n, d in [(3, 5), (4, 4)]:
        parts = {frozenset(p) for p in iter_partitions(n, d)}
        for perm in itertools.permutations(range(n)):
            image = {
                frozenset(permute_point(pt, perm) for pt in p) for p in parts
            }
            assert image == parts


def test_symmetric_constraint_counts_match_permuted_enumeration():
    spec = ConstraintSpec(size=6, embedding_dim=2, quadric_count=2)
    base = count_constrained(3, spec)
    # constraints are symmetric, so a direct filtered enumeration agrees
    manual = 0
    for pts in iter_partitions(3, 6):
        part = Partition(3, pts)
        hs = hilbert_samuel(part)
        if len(hs) > 2 and hs[1] == 2 and hs[2] == 2:
            manual += 1
    assert base == manual


def test_canonical_orbit_examples():
    rep, size = canonical_orbit([(2, 0), (0, 2)], 2)
    assert size == 1
    rep1, size1 = canonical_orbit([(2, 0)], 2)
    assert size1 == 2
    a, _ = canonical_orbit([(2, 0), (1, 1)], 2)
    b, _ = canonical_orbit([(0, 2), (1, 1)], 2)
    assert a == b


@st.composite
def quadric_layers(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    quads = [p for p in itertools.product(range(3), repeat=n) if sum(p) == 2]
    return draw(st.lists(st.sampled_from(quads), unique=True)), n


@given(quadric_layers())
@example(([(2, 0, 0), (1, 1, 0)], 3))
@example(([(1, 0, 1), (0, 1, 1), (2, 0, 0)], 3))
@settings(max_examples=200, deadline=None)
def test_canonical_orbit_regeneration_consistency(layer):
    pts, n = layer
    rep, size = canonical_orbit(pts, n)
    images = {
        tuple(sorted((permute_point(p, perm) for p in pts), key=lambda q: (sum(q), q)))
        for perm in itertools.permutations(range(n))
    }
    assert len(images) == size
    assert min(images) == rep


def test_canonical_orbit_ceiling():
    # the looped-graph canonical form has no permutation ceiling, only a domain
    rep, size = canonical_orbit([(2,) + (0,) * 12], 13)
    assert rep == ((0,) * 12 + (2,),) and size == 13
    with pytest.raises(ValueError):
        canonical_orbit([(1,) + (0,) * 12], 13)


@st.composite
def antichains(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=8))
    pts = draw(
        st.lists(
            st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(n))),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    # reduce to the maximal elements: always an antichain
    maximal = [
        p for p in pts if not any(q != p and all(a <= b for a, b in zip(p, q)) for q in pts)
    ]
    return n, maximal


@given(antichains())
@settings(max_examples=80, deadline=None)
def test_socle_closure_round_trip(data):
    n, pts = data
    assert is_antichain(pts)
    part = apolar_closure(pts, n)
    assert socle(part).points == tuple(sorted(set(pts), key=lambda p: (sum(p), p)))
    # and the other direction
    assert apolar_closure(socle(part).points, n).points == part.points


def test_hilbert_sum_equals_size_over_enumeration():
    for pts in iter_partitions(3, 6):
        part = Partition(3, pts)
        assert sum(hilbert_samuel(part)) == part.size


def test_socle_type_and_embedding_dimension():
    part = apolar_closure([(2, 1), (0, 2)], 2)
    assert embedding_dimension(part) == 2
    assert socle_type(part) == (0, 0, 1, 1)


@functools.cache
def _brute_partitions(n: int, size: int) -> tuple[Partition, ...]:
    """Every partition of N^n with `size` points, from all subsets of a box.

    A down-set holding p holds the prod(p_i + 1) points below it, so the box
    keeps only the points with that product at most `size`.
    """
    box = [
        p
        for p in itertools.product(range(size), repeat=n)
        if math.prod(v + 1 for v in p) <= size
    ]
    return tuple(
        Partition(n, subset)
        for subset in itertools.combinations(box, size)
        if is_downward_closed(subset)
    )


def _matches(part: Partition, spec: ConstraintSpec) -> bool:
    hs = hilbert_samuel(part)
    checks = [
        (spec.embedding_dim, embedding_dimension(part)),
        (spec.hilbert_samuel, hs),
        (spec.quadric_count, hs[2] if len(hs) > 2 else 0),
        (spec.tail_mass, sum(hs[3:])),
        (spec.length, part.length),
    ]
    if any(want is not None and got != want for want, got in checks):
        return False
    low = spec.min_socle_degree
    return low is None or not any(socle_type(part)[:low])


@st.composite
def small_specs(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    spec = ConstraintSpec(
        size=draw(st.integers(min_value=0, max_value=6)),
        embedding_dim=draw(st.none() | st.integers(min_value=0, max_value=3)),
        min_socle_degree=draw(st.none() | st.integers(min_value=0, max_value=4)),
        hilbert_samuel=draw(
            st.none() | st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(tuple)
        ),
        quadric_count=draw(st.none() | st.integers(min_value=0, max_value=4)),
        tail_mass=draw(st.none() | st.integers(min_value=0, max_value=4)),
        length=draw(st.none() | st.integers(min_value=0, max_value=5)),
    )
    return n, spec


@given(small_specs())
@example((2, ConstraintSpec(size=0, hilbert_samuel=())))
@example((3, ConstraintSpec(size=6, embedding_dim=3, min_socle_degree=2)))
@settings(max_examples=150, deadline=None)
def test_oracle_matches_subset_brute_force(data):
    n, spec = data
    brute = _brute_partitions(n, spec.size)
    assert count_constrained(n, spec) == sum(_matches(p, spec) for p in brute)
    assert set(iter_partitions(n, spec.size)) == {p.points for p in brute}


def test_parallel_determinism():
    # every oracle route of a resolver gives the serial walk's count under any workers
    spec = ConstraintSpec(size=7, embedding_dim=2, min_socle_degree=2)
    for workers in (1, 2, 4):
        resolver = Resolver(workers=workers)
        assert resolver.p_oracle(3, 7) == count_partitions(3, 7) == 86
        assert resolver.c_oracle(2, 4) == count_constrained(2, spec)


def test_oracle_starts_no_pool():
    # the oracle walks serially under any --workers value
    probe = (
        "import sys; from hdpart.cli import main\n"
        "main('--workers 2 count p --n 4 --d 11 --oracle'.split())\n"
        "main('--workers 2 count alpha --k 3 --q 4 --m 8 --oracle'.split())\n"
        "print(*(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6500", "1302"]


def test_cli_import_leaves_the_pool_unloaded():
    # only charged_map starts a pool, and it imports the pool module there
    probe = (
        "import sys, hdpart.cli; "
        "print(*(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
