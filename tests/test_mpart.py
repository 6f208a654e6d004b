"""The deep-socle search engine: stability, orbits, regions, and exact counts."""

import hashlib
import itertools
import math
import pathlib
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdpart.cache import CheckpointedAlphaRun
from hdpart.hydral import hydral_count
from hdpart.lattice import ConstraintSpec, ResourceCeilingError, _Budget, count_constrained
from hdpart.mpart import (
    AlphaQuery,
    _certifiable,
    _graph,
    _open_matching,
    alpha,
    alpha_by_hilbert,
    alpha_count,
    alpha_tables,
    alpha_targeted,
    alpha_without_orbit_reduction,
    bounding_region,
    connected_reps,
    is_m_stable,
    orbit_reps,
    quadric_points,
    rep_tables,
    select,
    support_variables,
    weighted_table,
)


def test_quadric_points():
    assert quadric_points(2) == ((0, 2), (1, 1), (2, 0))
    assert len(quadric_points(5)) == 15


def test_stability_examples():
    assert is_m_stable([(2, 0)], 2)
    assert not is_m_stable([(1, 1)], 2)
    assert is_m_stable([(2, 0), (1, 1)], 2)


def test_stability_rejects_non_quadrics():
    with pytest.raises(ValueError):
        is_m_stable([(1, 0)], 2)


def test_looped_graph_reading_of_stability():
    # entry a(a+1)/2 + b is x_{k-1-a} x_{k-1-b}; stable iff every non-loop edge
    # has a looped end or lies in a triangle
    total = 0
    for k in range(1, 5):
        quads = quadric_points(k)
        for u, p in enumerate(quads):
            a = next(a for a in range(k) if u < (a + 1) * (a + 2) // 2)
            b = u - a * (a + 1) // 2
            assert p == tuple((i == k - 1 - a) + (i == k - 1 - b) for i in range(k))
        for mask in range(1 << len(quads)):
            subset = [p for u, p in enumerate(quads) if mask >> u & 1]
            assert _certifiable(_graph(k, mask), [0] * k) == is_m_stable(subset, k), subset
            total += 1
    assert total == 2 + 8 + 64 + 1024


def test_open_matching_of_uncertified_edges():
    # the path 0-1-2-3 has three open edges, two of them disjoint; a loop at 1
    # certifies 01 and 12; the triangle 0-1-2 certifies its edges
    path = [0b0010, 0b0101, 0b1010, 0b0100]
    assert _open_matching(path) == 2
    assert _open_matching([0b0010, 0b0111, 0b1010, 0b0100]) == 1
    assert _open_matching([0b0110, 0b0101, 0b0011]) == 0
    for k in range(1, 5):
        for mask in range(1 << (k * (k + 1) // 2)):
            adj = _graph(k, mask)
            size = _open_matching(adj)
            assert (size == 0) == _certifiable(adj, [0] * k) and 2 * size <= k


def test_orbit_reps_k2_q2():
    reps = orbit_reps(2, 2)
    assert len(reps) == 2
    assert sum(o.orbit_size for o in reps) == 3
    sizes = {o.rep: o.orbit_size for o in reps}
    assert sizes[((0, 2), (2, 0))] == 1  # the two squares
    assert sizes[((0, 2), (1, 1))] == 2  # square plus product


def test_orbit_reps_k1():
    reps = orbit_reps(1, 1)
    assert len(reps) == 1 and reps[0].orbit_size == 1 and reps[0].rep == ((2,),)


def test_orbit_rep_counts_against_direct_enumeration():
    # a stable set touches some j <= k variables: choose them, then a full-support orbit
    for k, q in [(2, 1), (2, 2), (3, 2), (3, 3), (3, 4), (4, 5)]:
        stable = [
            c
            for c in itertools.combinations(quadric_points(k), q)
            if is_m_stable(c, k)
        ]
        by_support = sum(
            math.comb(k, j) * sum(o.orbit_size for o in orbit_reps(j, q)) for j in range(k + 1)
        )
        assert by_support == len(stable), (k, q)


def _subset_scan_table() -> dict[tuple[int, int], tuple[int, str]]:
    # columns: k, q, representatives, orbit sizes as size x multiplicity
    rows = {}
    path = pathlib.Path(__file__).parent / "data" / "orbit_reps.tsv"
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            k, q, count, sizes = line.split("\t")
            rows[int(k), int(q)] = (int(count), sizes)
    return rows


def _orbit_row(k, q):
    reps = orbit_reps(k, q)
    assert list(reps) == sorted(reps, key=lambda o: o.rep)  # generated in sorted order
    sizes = sorted(Counter(o.orbit_size for o in reps).items())
    return len(reps), " ".join(f"{s}x{n}" for s, n in sizes) or "-"


def _small(k, q):
    return k <= 5 or (k == 6 and q <= 8)


def test_orbit_reps_match_subset_scan():
    table = _subset_scan_table()
    small = [(k, q) for k, q in table if _small(k, q)]
    assert len(small) == 35 + 8
    for kq in small:
        assert _orbit_row(*kq) == table[kq], kq


@pytest.mark.slow
def test_orbit_reps_match_subset_scan_wide():
    table = _subset_scan_table()
    wide = [(k, q) for k, q in table if not _small(k, q)]
    assert wide == [(6, q) for q in range(9, 22)] + [(7, 7)]
    for kq in wide:
        assert _orbit_row(*kq) == table[kq], kq


def _connected(k, rep):
    adj = _graph(k, sum(1 << quadric_points(k).index(p) for p in rep))
    reached, frontier = 1, 1
    while frontier:
        v = frontier.bit_length() - 1
        frontier ^= 1 << v
        frontier |= adj[v] & ~reached
        reached |= adj[v]
    return reached == (1 << k) - 1


def _check_connected_reps(k, qs):
    for q in qs:
        want = tuple(o for o in orbit_reps(k, q) if _connected(k, o.rep))
        assert connected_reps(k, q) == want, (k, q)


def test_connected_reps_are_the_connected_orbit_reps():
    # the same representatives, order and orbit sizes as filtering the reference
    for k in range(1, 7):
        _check_connected_reps(k, range(1, k * (k + 1) // 2 + 1))
    assert [len(connected_reps(6, q)) for q in (6, 7, 8)] == [1, 7, 44]


@pytest.mark.slow
def test_connected_reps_are_the_connected_orbit_reps_k7():
    _check_connected_reps(7, range(1, 13))


def test_exponential_formula_matches_orbit_reps():
    # the formula over connected tables equals the weighted sweep of every layer
    for k in range(1, 7):
        m = {1: 6, 2: 6, 3: 6, 4: 5, 5: 4, 6: 3}[k]
        for q in range(1, k * (k + 1) // 2 + 1):
            for cap in (None, 4):
                reps = orbit_reps(k, q)
                layers = [(o.rep, m) for o in reps]
                direct = weighted_table(reps, rep_tables(layers, cap, 1, _Budget(None)))
                assert alpha_tables(k, q, m, length_cap=cap) == direct, (k, q, cap)


def test_exponential_formula_matches_hydral():
    # q == k: hydral_count multiplies closed block counts, a route with no search
    for k in range(1, 7):
        table = alpha_tables(k, k, 8)
        for m in range(1, 9):
            assert select(table, m) == hydral_count(k, m), (k, m)


def test_bounding_region_examples():
    full = bounding_region(quadric_points(2), 3)
    assert len(full.all_points()) == 10  # all monomials of degree <= 3 in 2 variables
    partial = bounding_region([(1, 1), (2, 0)], 3)
    assert partial.cells == ((2, 1), (3, 0))
    chain = bounding_region([(2,)], 5)
    assert chain.cells == ((3,), (4,), (5,))


def test_bounding_region_is_union_of_admissible_members():
    # region = union of all partitions with the given quadric layer and length
    U = [(2, 0), (1, 1)]
    region = bounding_region(U, 4)
    region_pts = set(region.all_points())
    union = set()
    from hdpart.lattice import Partition, hilbert_samuel, iter_partitions

    for pts in iter_partitions(2, 8):
        part = Partition(2, pts)
        if part.layer(2) == tuple(sorted(U)) and (part.length or 0) <= 4:
            union |= set(pts)
    assert union <= region_pts
    # and every region cell is reachable: the region itself is such a partition
    assert set(
        bounding_region(U, 4).all_points()
    ) == region_pts


def test_alpha_known_small_values():
    assert alpha_count(2, 2, 1) == 2
    assert alpha_count(1, 1, 3) == 1
    assert alpha_count(3, 2, 5) == 0  # fewer quadrics than variables
    assert alpha_count(0, 0, 0) == 1
    assert alpha_count(2, 2, 0) == 0


def test_alpha_against_oracle_small():
    queries = [
        AlphaQuery(k, q, m, length=length)
        for k in (1, 2, 3)
        for q in range(1, 5)
        for m in range(1, 5)
        for length in (None, *range(3, m + 3))
    ]
    # every layer profile of one triple: the compositions of m over degrees >= 3
    k, q, m = 3, 4, 5
    for cuts in itertools.product((0, 1), repeat=m - 1):
        tail = [1]
        for cut in cuts:
            tail[-1:] = [tail[-1], 1] if cut else [tail[-1] + 1]
        queries.append(AlphaQuery.from_profile((1, k, q, *tail)))
    for query in queries:
        assert alpha(query) == count_constrained(query.k, query.constraint_spec()), query


@st.composite
def small_queries(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    q = draw(st.integers(min_value=k, max_value=k * (k + 1) // 2))  # q < k is trivially 0
    refinement = draw(st.sampled_from(("none", "length", "profile")))
    if refinement == "profile":
        tails = st.lists(st.integers(min_value=0, max_value=3), max_size=4)
        tail = draw(tails.filter(lambda t: sum(t) <= 5))
        return AlphaQuery.from_profile((1, k, q, *tail))
    m = draw(st.integers(min_value=0, max_value=5))
    length = draw(st.integers(min_value=2, max_value=m + 3)) if refinement == "length" else None
    return AlphaQuery(k, q, m, length=length)


@given(small_queries())
@example(AlphaQuery(0, 0, 0))
@example(AlphaQuery(0, 0, 0, length=0))
@example(AlphaQuery.from_profile((1,)))
@example(AlphaQuery.from_profile((1, 2)))
@example(AlphaQuery(3, 2, 5))
@example(AlphaQuery(3, 6, 5))
@settings(max_examples=300, deadline=None)
def test_region_search_matches_oracle(query):
    assert alpha(query) == count_constrained(query.k, query.constraint_spec())


def _sweep_record() -> dict[tuple[int, int, int], list[str]]:
    # columns: k, q, m, one sha256 per representative, the commit and the command
    rows = {}
    path = pathlib.Path(__file__).parent / "data" / "sweep_tables.tsv"
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            k, q, m, hashes, _commit, _command = line.split("\t")
            rows[int(k), int(q), int(m)] = hashes.split()
    return rows


def test_sweep_tables_match_record():
    # every representative's bucket table, sizes far past the oracle's reach
    record = _sweep_record()
    assert len(record) == 19
    for (k, q, m), hashes in record.items():
        tables = rep_tables([(o.rep, m) for o in orbit_reps(k, q)], None, 1, _Budget(None))
        got = [hashlib.sha256(repr(sorted(t.items())).encode()).hexdigest() for t in tables]
        assert got == hashes, (k, q, m)


@pytest.mark.slow
def test_alpha_against_oracle_full_range():
    for k in (1, 2, 3):
        for q in range(1, 7):
            for m in range(1, 7):
                spec = ConstraintSpec(
                    size=1 + k + q + m,
                    embedding_dim=k,
                    quadric_count=q,
                    tail_mass=m,
                    min_socle_degree=3,
                )
                assert alpha_count(k, q, m) == count_constrained(k, spec), (k, q, m)


def test_orbit_weighting_soundness():
    for k, q, m in [(2, 2, 3), (2, 3, 2), (3, 3, 2), (3, 4, 3)]:
        assert alpha_count(k, q, m) == alpha_without_orbit_reduction(k, q, m)


def test_length_additivity():
    k, q, m = 3, 4, 5
    total = alpha_count(k, q, m)
    by_length = [alpha_count(k, q, m, length=l) for l in range(3, m + 3)]
    assert sum(by_length) == total
    assert alpha_count(k, q, m, length=2) == 0
    assert alpha_count(k, q, m, length=m + 3) == 0


def test_profile_additivity():
    k, q, m, length = 3, 5, 6, 4
    table = alpha_tables(k, q, m, length_cap=length)
    refined = alpha_count(k, q, m, length=length)
    # a bucket's key is its profile (h_3, ..., h_length): size is the sum
    by_profile = sum(
        v for profile, v in table.items() if sum(profile) == m and len(profile) + 2 == length
    )
    assert by_profile == refined
    # and each bucket matches the direct profile query
    for profile, v in sorted(table.items()):
        if sum(profile) != m or len(profile) + 2 != length:
            continue
        h = (1, k, q) + profile
        assert alpha_by_hilbert(h) == v, h


def test_alpha_by_hilbert_examples():
    assert alpha_by_hilbert((1, 3, 5, 7, 6)) == 504
    assert alpha_by_hilbert((1, 3, 5, 6, 7)) == 27
    assert alpha_by_hilbert((1, 3, 3, 3)) == 10


def test_macaulay_pruning_is_conservative():
    # the single-size entry point agrees with the bucketed sweep
    for k, q, m in [(2, 3, 4), (3, 4, 5), (3, 5, 4)]:
        assert alpha_targeted(k, q, m) == alpha_count(k, q, m)


def test_parallel_determinism(tmp_path):
    base = alpha_count(3, 4, 6)
    assert alpha_count(3, 4, 6, workers=2) == base
    assert alpha_count(3, 4, 6, workers=4) == base
    parallel = CheckpointedAlphaRun(tmp_path / "2")
    serial = CheckpointedAlphaRun(tmp_path / "1")
    query = AlphaQuery(3, 4, 6)
    assert alpha(query, workers=2, components=parallel) == base
    assert alpha(query, workers=1, components=serial) == base
    assert parallel.path.read_bytes() == serial.path.read_bytes()


def test_node_ceiling():
    with pytest.raises(ResourceCeilingError):
        alpha_count(3, 4, 8, node_ceiling=100)
    # one ceiling per count: the connected representatives' searches walk 631
    # nodes together; those of (5, 8, 8) walk 50,397, as the cubic walk
    # enters only children that can still cover the quadric layer; (6, 11, 4)
    # walks 8,683, as it enters none whose cells left cannot cover the rest
    for (k, q, m), nodes, value in [
        ((3, 4, 8), 631, 1302),
        ((5, 8, 8), 50397, 2097875),
        ((6, 11, 4), 8683, 1800),
    ]:
        for workers in (1, 2):
            with pytest.raises(ResourceCeilingError):
                alpha_count(k, q, m, workers=workers, node_ceiling=nodes - 1)
            assert alpha_count(k, q, m, workers=workers, node_ceiling=nodes) == value


def test_node_ceiling_without_orbit_reduction():
    # one ceiling per count: the stable subsets' searches walk 648 nodes together
    with pytest.raises(ResourceCeilingError):
        alpha_without_orbit_reduction(3, 4, 5, node_ceiling=647)
    assert alpha_without_orbit_reduction(3, 4, 5, node_ceiling=648) == 252


def test_support_filtering():
    # configurations not touching every variable contribute nothing at level k
    assert orbit_reps(2, 1) == ()
    # the lone square is stable: the one-variable orbit, placed on either variable
    stable = [c for c in itertools.combinations(quadric_points(2), 1) if is_m_stable(c, 2)]
    assert stable == [((0, 2),), ((2, 0),)]
    assert math.comb(2, 1) * sum(o.orbit_size for o in orbit_reps(1, 1)) == len(stable)
    assert alpha_count(2, 1, 5) == 0


def test_query_validation():
    with pytest.raises(ValueError):
        AlphaQuery(3, 5, 13, profile=(1, 3, 5, 7, 7))  # tail sums to 14, not 13
    with pytest.raises(ValueError):
        AlphaQuery(3, 5, 13, length=3, profile=(1, 3, 5, 7, 6))  # length mismatch
