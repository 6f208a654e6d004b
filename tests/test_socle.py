"""The reduction of embedding-dimension counts to deep-socle counts."""

import functools

from hdpart.intmath import binom, double_factorial
from hdpart.lattice import ConstraintSpec, count_constrained
from hdpart.refine import Resolver
from hdpart.socle import c_from_alpha, contributing_triples, refined_count, y_from_alpha
from reference import Partition, hilbert_samuel, iter_partitions, socle, y_from_c

R = Resolver()


def alpha_of(k, q, m):
    return R.alpha(k, q, m)


def test_zero_embedding_dimension_is_zero():
    for triple in [(0, 0, 0), (1, 1, 1), (2, 2, 1)]:
        assert refined_count(3, triple, 0, alpha_of) == 0


def test_boundary_rows_match_oracle():
    # c(a, 0) is 1 at a = 0 (the origin, by convention) and 0 above, where the
    # linear layer is socle; the inversion's j = 0 term gives that, with no
    # special case, and c(0, e) = 0 for e > 0
    assert [refined_count(0, (0, 0, 0), a, alpha_of) for a in range(5)] == [1, 0, 0, 0, 0]
    for i in range(5):
        assert c_from_alpha(0, i, alpha_of) == R.c_oracle(i, 0), i  # c(a, 0)
        assert c_from_alpha(i, 0, alpha_of) == R.c_oracle(0, i), i  # c(0, e)


def test_known_vanishing_refined_count():
    assert refined_count(3, (2, 2, 1), 3, alpha_of) == 0


def test_unit_socle_free_decomposition_e1():
    # only the zero type contributes at e = 1, a = 2, giving the single count
    assert refined_count(1, (0, 0, 0), 2, alpha_of) == 1
    total = sum(refined_count(1, t, 2, alpha_of) for t in contributing_triples(1, 2))
    assert total == 1 == c_from_alpha(1, 2, alpha_of)


def test_negative_padding_raises_no_contribution():
    # e - q - m < 0 gives a vanishing binomial, not an error
    assert refined_count(1, (2, 2, 1), 4, alpha_of) == 0


def test_c_total_closed_values():
    assert [c_from_alpha(e, 2 * e, alpha_of) for e in range(1, 5)] == [
        double_factorial(2 * e - 1) for e in range(1, 5)
    ]
    assert [c_from_alpha(e, 1, alpha_of) for e in range(1, 6)] == [1] * 5
    # size-9 family at embedding dimension 2
    assert c_from_alpha(4, 2, alpha_of) == R.p(2, 7) - 4 == 11


def test_c_total_matches_oracle():
    for e in range(1, 5):
        for a in range(2 * e + 1):
            spec = ConstraintSpec(size=1 + a + e, embedding_dim=a, min_socle_degree=2)
            assert c_from_alpha(e, a, alpha_of) == count_constrained(a, spec), (a, e)


def test_zero_type_counts_socle_exactly_in_degree_two():
    # the (0,0,0) slice equals the partitions whose socle is the whole quadric layer
    for e, a in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        got = refined_count(e, (0, 0, 0), a, alpha_of)
        manual = 0
        for pts in iter_partitions(a, 1 + a + e):
            part = Partition(a, pts)
            hs = hilbert_samuel(part)
            if len(hs) > 1 and hs[1] == a:
                soc = socle(part).points
                layer2 = part.layer(2)
                if soc == layer2:
                    manual += 1
        assert got == manual, (e, a)


@functools.cache
def _prefix_recursion(e, triple, a):
    # the unrestricted construction on a variables overcounts by the same
    # quantity at every smaller embedding dimension
    if a == 0:
        return 0
    k, q, m = triple
    placed = alpha_of(*triple) * binom(a, k) * binom(binom(a + 1, 2) - q, e - q - m)
    return placed - sum(binom(a, i) * _prefix_recursion(e, triple, i) for i in range(1, a))


def test_refined_count_solves_prefix_recursion():
    for e in range(1, 7):
        for a in range(2 * e + 2):
            for triple in contributing_triples(e, a):
                assert refined_count(e, triple, a, alpha_of) == _prefix_recursion(e, triple, a)


def test_y_from_alpha_matches_c_route():
    raw = Resolver(use_closed_forms=False)
    for e in range(1, 7):
        for a in range(2 * e + 3):
            via_c = y_from_c(lambda x, e: c_from_alpha(e, x, raw.alpha), a, e)
            assert y_from_alpha(e, a, raw.alpha) == via_c, (e, a)
