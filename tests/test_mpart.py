"""The deep-socle search engine: stability, orbits, regions, and exact counts."""

import hashlib
import itertools
import math
import pathlib
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdpart.cache import CheckpointedAlphaRun
from hdpart.hydral import hydral_count
from hdpart.lattice import ConstraintSpec, ResourceCeilingError, _Budget, count_constrained
from hdpart.mpart import (
    AlphaQuery,
    _RegionSearch,
    _certifiable,
    _cubics_needed,
    _graph,
    _most_loops,
    _open_matching,
    _orderly,
    _relabellings,
    alpha,
    alpha_by_hilbert,
    alpha_count,
    alpha_tables,
    alpha_targeted,
    bounding_region,
    connected_reps,
    orbit_reps,
    quadric_index,
    quadric_points,
    select,
    weighted_table,
)
from reference import (
    Partition,
    all_points,
    alpha_without_orbit_reduction,
    is_m_stable,
    iter_partitions,
    lower_covers,
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


def test_relabellings_against_all_permutations():
    # column a of a labelling is its bits (a, 0), ..., (a, a), first bit highest
    def columns(adj, perm):
        out = []
        for a, v in enumerate(perm):
            col = 0
            for w in perm[: a + 1]:
                col = col << 1 | adj[v] >> w & 1
            out.append(col)
        return tuple(out)

    def check(adj, perms):
        own = columns(adj, range(len(adj)))
        strings = [columns(adj, perm) for perm in perms]
        aut = strings.count(own) if max(strings) == own else 0
        assert _relabellings(adj, list(own)) == aut, adj

    for k in range(5):
        perms = list(itertools.permutations(range(k)))
        for mask in range(1 << (k * (k + 1) // 2)):
            check(_graph(k, mask), perms)
    perms = list(itertools.permutations(range(5)))
    for mask in range(0, 1 << 15, 11):
        check(_graph(5, mask), perms)
    # the connected stable layers on 6 vertices, some with |Aut| > 1, each
    # canonical and with its labelling reversed
    perms = list(itertools.permutations(range(6)))
    auts = []
    for q in range(6, 10):
        for orbit in connected_reps(6, q):
            adj = _graph(6, sum(1 << quadric_index(6)[p] for p in orbit.rep))
            check(adj, perms)
            check([sum((adj[5 - v] >> 5 - w & 1) << w for w in range(6)) for v in range(6)], perms)
            auts.append(720 // orbit.orbit_size)
    assert max(auts) > 1


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
                direct = weighted_table(orbit_reps(k, q), m, cap, _Budget(None))
                assert alpha_tables(k, q, m, length_cap=cap) == direct, (k, q, cap)


def test_exponential_formula_matches_hydral():
    # q == k: hydral_count multiplies closed block counts, a route with no search
    for k in range(1, 7):
        table = alpha_tables(k, k, 8)
        for m in range(1, 9):
            assert select(table, m) == hydral_count(k, m), (k, m)


def test_bounding_region_examples():
    # the full layer in 2 variables has two loops, so it needs two cubics and
    # keeps none at size 1: the origin, the 2 unit points and the 3 quadrics
    full = bounding_region(quadric_points(2), 1)
    assert len(all_points(full)) == 6 and full.cells == ()
    assert len(all_points(bounding_region(quadric_points(2), 2, 3))) == 10
    # x^3 leaves xy to a second cubic, so only x^2 y covers the layer alone
    partial = bounding_region([(1, 1), (2, 0)], 1)
    assert partial.cells == ((2, 1),)
    chain = bounding_region([(2,)], 3)
    assert chain.cells == ((3,), (4,), (5,))


def test_bounding_region_is_union_of_admissible_members():
    # the region cut at length 4 and size s is the union of the partitions
    # with that quadric layer, whose cubics cover it, of length <= 4 and with
    # at most s cells above the layer
    U = [(2, 0), (1, 1)]
    members = [Partition(2, pts) for n in range(1, 10) for pts in iter_partitions(2, n)]
    for size in range(1, 5):
        union = set()
        for part in members:
            above = sum(1 for p in part.points if sum(p) >= 3)
            cubics = [p for p in part.points if sum(p) == 3]
            covered = all(any(u in lower_covers(c) for c in cubics) for u in U)
            if (
                part.layer(2) == tuple(sorted(U))
                and covered
                and (part.length or 0) <= 4
                and above <= size
            ):
                union |= set(part.points)
        assert set(all_points(bounding_region(U, size, 4))) == union, size


def test_region_cut_at_the_sweep_size_moves_no_count_or_node():
    # a cell whose down-set holds more than m cells above the layer can enter
    # an allowed mask only once m cells are chosen, when no memo state reads it
    m = 7
    for k, q in ((3, 4), (4, 6), (5, 8)):
        for o in orbit_reps(k, q):
            cut, whole = _Budget(None), _Budget(None)
            got = _RegionSearch(bounding_region(o.rep, m), cut).sweep(m)
            want = _RegionSearch(bounding_region(o.rep, 10**6, m + 2), whole).sweep(m)
            assert got == want and cut.nodes == whole.nodes, o
    with pytest.raises(ValueError):
        _RegionSearch(bounding_region(o.rep, m), _Budget(None)).sweep(m + 1)


def test_cubics_needed_is_a_lower_bound():
    # against the fewest cubics of N^k whose quadric divisors hold each
    # quadric set, found by trying every set of cubics, smallest first
    for k in (1, 2, 3):
        quads = quadric_points(k)
        cubics = [c for c in itertools.product(range(4), repeat=k) if sum(c) == 3]
        for r in range(1, len(quads) + 1):
            for layer in itertools.combinations(quads, r):
                fewest = next(
                    n
                    for n in range(len(cubics) + 1)
                    for chosen in itertools.combinations(cubics, n)
                    if set(layer) <= {p for c in chosen for p in lower_covers(c)}
                )
                loops = sum(2 in p for p in layer)
                assert _cubics_needed(loops, len(layer)) <= fewest, layer
    # the full layer in 2 variables: x^2 y and x y^2 cover it, and no one cubic does
    assert _cubics_needed(2, 3) == 2


# layers with many loops, where the bound cuts below the down-set test
_LOOPED = [(4, q) for q in range(7, 11)] + [(5, q) for q in range(6, 10)]


def _sweep(region, m):
    return _RegionSearch(region, _Budget(None)).sweep(m)


def test_connected_reps_cut_at_a_size_keep_every_nonzero_representative():
    # generation cut at size m keeps, in order and with its orbit size, every
    # representative whose sweep to m over its whole region is nonzero
    dropped = 0
    for k, q in _LOOPED:
        whole = connected_reps(k, q)
        for m in range(2, 6):
            cut = connected_reps(k, q, m)
            assert cut == tuple(o for o in whole if o in cut), (k, q, m)
            for o in whole:
                if o not in cut:
                    assert _sweep(bounding_region(o.rep, 10**6, m + 2), m) == {}, (o, m)
                    dropped += 1
    assert dropped > 0


def test_connected_reps_generate_once_per_loop_cap():
    # generation reads a size only through the most loops it allows, so two
    # sizes with the same cap return one tuple, generated once
    shared = 0
    for k in range(1, 6):
        for q in range(1, k * (k + 1) // 2 + 1):
            by_cap = {}
            for size in (*range(1, 9), None):
                most = _most_loops(k, q, size)
                reps = connected_reps(k, q, size)
                assert reps == _orderly(k, q, True, most), (k, q, size)
                assert reps is by_cap.setdefault(most, reps), (k, q, size)
            shared += 9 - len(by_cap)  # the sizes that reused a tuple
    assert shared > 0


def test_region_cut_by_the_cubics_needed_sweeps_as_the_whole_region():
    # a region grown under the bound sweeps to the same table as the whole
    # region, and a layer whose loops need more cubics than m keeps no cubic
    cut = 0
    for k, q in _LOOPED:
        for o in orbit_reps(k, q):
            loops = sum(2 in p for p in o.rep)
            for m in range(2, 6):
                region = bounding_region(o.rep, m)
                whole = bounding_region(o.rep, 10**6, m + 2)
                assert _sweep(region, m) == _sweep(whole, m), (o, m)
                if _cubics_needed(loops, q) > m:
                    assert region.cells == () and whole.cells, (o, m)
                cut += len(whole.cells) - len(region.cells)
    assert cut > 0


def test_sweep_to_size_0_counts_no_set():
    # layers records a one-cell set only when the size left allows one
    region = bounding_region([(2, 0), (1, 1)], 3, 4)
    budget = _Budget(None)
    assert _RegionSearch(region, budget).sweep(0) == {}
    assert budget.nodes == 0


def test_region_holds_the_arrays_its_sweep_walks():
    # a layer quadric that no kept cubic covers stays in cover_order as
    # (-1, bit), so a layer that is not stable sweeps to nothing at no node
    for U in ([(1, 1)], [(1, 1, 0), (0, 1, 1), (2, 0, 0)]):
        budget = _Budget(None)
        assert _RegionSearch(bounding_region(U, 3), budget).sweep(3) == {}
        assert budget.nodes == 0
    m = 7
    for k, q in ((3, 4), (4, 6), (5, 8)):
        index = quadric_index(k)
        for o in orbit_reps(k, q):
            region = bounding_region(o.rep, m)
            cells, n = region.cells, region.n_cubics
            assert [sum(c) == 3 for c in cells] == [i < n for i in range(len(cells))]
            local = {c: i for i, c in enumerate(cells)}
            covers, parents, upper = [], [], [[] for _ in cells]
            for i, c in enumerate(cells):
                low = lower_covers(c)
                if i < n:
                    covers.append(sum(1 << index[p] for p in low))
                    parents.append(0)
                else:
                    covers.append(0)
                    parents.append(sum(1 << local[p] for p in low))
                    upper[max(local[p] for p in low)].append(i)
            quads = [u for u in range(len(index)) if region.quadric_mask >> u & 1]
            last = [max((i for i in range(n) if covers[i] >> u & 1), default=-1) for u in quads]
            assert region.covers == tuple(covers), o
            assert region.parent_mask == tuple(parents), o
            assert region.upper == tuple(map(tuple, upper)), o
            assert region.cover_order == tuple(sorted(zip(last, [1 << u for u in quads]))), o


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
@example(AlphaQuery(3, 4, 5, profile=(1, 3, 4, 3, 2)))  # 33: a profile fixes the length
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
    # every representative's bucket table, sizes far past the oracle's reach;
    # its sweep by size is that table summed by size, at the same node total
    record = _sweep_record()
    assert len(record) == 19
    for (k, q, m), hashes in record.items():
        tables = []
        for o in orbit_reps(k, q):
            region = bounding_region(o.rep, m)
            by_profile, by_size = _Budget(None), _Budget(None)
            table = _RegionSearch(region, by_profile).sweep(m)
            sizes = _RegionSearch(region, by_size).sweep(m, by_profile=False)
            summed = Counter()
            for tail, v in table.items():
                summed[sum(tail),] += v
            assert sizes == summed and by_size.nodes == by_profile.nodes, (o, m)
            tables.append(table)
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


def test_pool_tasks_generate_the_representatives():
    # each component pair's task generates its own representatives, so a
    # search under a pool generates none in the parent
    probe = (
        "from hdpart.mpart import alpha_tables, connected_reps, select; "
        "print(select(alpha_tables(5, 8, 8, workers=2), 8), connected_reps.cache_info().misses)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2097875", "0"]


def test_node_ceiling():
    with pytest.raises(ResourceCeilingError):
        alpha_count(3, 4, 8, node_ceiling=100)
    # one ceiling per count: the connected representatives' searches walk 631
    # nodes together; those of (5, 8, 8) walk 50,370, as the cubic walk
    # enters only children that can still cover the quadric layer; (6, 11, 4)
    # walks 610, as no layer whose loops need more than 4 cubics is generated
    # and the walk enters no child whose cells left cannot cover the rest
    for (k, q, m), nodes, value in [
        ((3, 4, 8), 631, 1302),
        ((5, 8, 8), 50370, 2097875),
        ((6, 11, 4), 610, 1800),
    ]:
        # the error names the run's ceiling, whichever task crossed it
        error = f"exceeded the {nodes - 1}-node ceiling"
        for workers in (1, 2):
            with pytest.raises(ResourceCeilingError, match=error):
                alpha_count(k, q, m, workers=workers, node_ceiling=nodes - 1)
            assert alpha_count(k, q, m, workers=workers, node_ceiling=nodes) == value


def test_task_ceiling_counts_the_run_nodes():
    # (3, 4, 8) sends tasks (1, 1), (2, 3), (3, 4) of 13, 160 and 458 nodes. After
    # 37 nodes spent earlier in the run, (3, 4) crosses a 494-node ceiling inside
    # its own task, and the error names the run's ceiling, not the 457 left; the
    # whole run needs 37 + 631 = 668
    def spent(ceiling):
        budget = _Budget(ceiling)
        budget.spend(37)
        return budget

    for workers in (1, 2):
        for ceiling in (494, 667):
            with pytest.raises(ResourceCeilingError, match=f"exceeded the {ceiling}-node ceiling"):
                alpha_tables(3, 4, 8, workers=workers, budget=spent(ceiling))
        budget = spent(668)
        alpha_tables(3, 4, 8, workers=workers, budget=budget)
        assert budget.nodes == 668


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
