from collections import Counter, defaultdict
from itertools import combinations
from math import comb

import pytest

from evansk import (
    BASEPOINT,
    boundary_pattern,
    delete_coordinate,
    enumerate_tuples,
    format_index_tuple,
)
from evansk.indexsets import labels


def plus_minus(p, k):
    """The canonical order cut after its first ``comb(k-1, p-1)`` tuples:
    the plus block (tuples ending in ``k``), then the minus block.

    The block recursion rests on two maps: psi drops the trailing ``k`` of
    a plus tuple, phi reads a rank ``k - 1`` tuple at rank ``k``.  The
    tests named after them check the order realises both, in order.
    """
    tuples = enumerate_tuples(p, k)
    cut = comb(k - 1, p - 1) if p >= 1 else 0
    return tuples[:cut], tuples[cut:]


def test_order_matches_block_figure_labels():
    assert enumerate_tuples(2, 4) == ((3, 4), (2, 4), (1, 4), (2, 3), (1, 3), (1, 2))


def test_degree_zero_is_basepoint():
    assert enumerate_tuples(0, 3) == (BASEPOINT,)
    assert enumerate_tuples(0, 0) == (BASEPOINT,)


def test_rank_four_degree_one_is_descending():
    assert enumerate_tuples(1, 4) == ((4,), (3,), (2,), (1,))


def test_degree_above_rank_is_empty():
    assert enumerate_tuples(3, 2) == ()


def test_top_degree_is_full_tuple():
    assert enumerate_tuples(4, 4) == ((1, 2, 3, 4),)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        enumerate_tuples(-1, 3)
    with pytest.raises(ValueError):
        enumerate_tuples(0, -2)


@pytest.mark.parametrize("k", range(13))
def test_sizes_and_positions(k):
    for p in range(k + 1):
        order = enumerate_tuples(p, k)
        assert len(order) == comb(k, p)
        assert len(set(order)) == len(order)
        for a in order:
            assert all(x < y for x, y in zip(a, a[1:]))
            assert all(1 <= x <= k for x in a)


@pytest.mark.parametrize("k", range(10))
def test_order_is_reverse_colexicographic(k):
    # A closed form that shares no code with the recursion: sort by the
    # reversed tuple, largest first.
    for p in range(k + 2):
        colex = sorted(combinations(range(1, k + 1), p), key=lambda a: a[::-1], reverse=True)
        assert enumerate_tuples(p, k) == tuple(colex)


def test_partition_examples():
    plus, minus = plus_minus(3, 4)
    assert plus == ((2, 3, 4), (1, 3, 4), (1, 2, 4))
    assert minus == ((1, 2, 3),)
    assert plus_minus(1, 1) == (((1,),), ())
    plus, minus = plus_minus(2, 4)
    assert plus == ((3, 4), (2, 4), (1, 4))
    assert minus == ((2, 3), (1, 3), (1, 2))


def test_degree_zero_partition():
    assert plus_minus(0, 3) == ((), (BASEPOINT,))


@pytest.mark.parametrize("k", range(1, 9))
def test_partition_concatenation_is_canonical_order(k):
    for p in range(k + 1):
        plus, minus = plus_minus(p, k)
        assert plus + minus == enumerate_tuples(p, k)
        assert all(a[-1] == k for a in plus)
        assert all(not a or a[-1] != k for a in minus)


def test_delete_coordinate_examples():
    assert delete_coordinate((1, 3, 4), 2) == (1, 4)
    assert delete_coordinate((2, 3, 4), 3) == (2, 3)
    assert delete_coordinate((1,), 1) == BASEPOINT


def test_delete_coordinate_out_of_range():
    with pytest.raises(ValueError):
        delete_coordinate((1, 2), 0)
    with pytest.raises(ValueError):
        delete_coordinate((1, 2), 3)
    with pytest.raises(ValueError):
        delete_coordinate(BASEPOINT, 1)


def test_psi_examples():
    # Dropping the trailing k of a plus tuple lands in the minus block below.
    plus, _ = plus_minus(3, 4)
    assert [a[:-1] for a in plus] == [(2, 3), (1, 3), (1, 2)]
    assert plus_minus(1, 4)[0][0][:-1] == BASEPOINT
    assert (1, 4)[:-1] in plus_minus(1, 4)[1]


@pytest.mark.parametrize("k", range(1, 9))
def test_psi_is_order_preserving_bijection(k):
    for p in range(1, k + 1):
        plus, _ = plus_minus(p, k)
        _, minus_below = plus_minus(p - 1, k)
        assert tuple(a[:-1] for a in plus) == minus_below


@pytest.mark.parametrize("k", range(1, 9))
def test_append_k_inverts_psi(k):
    for p in range(1, k + 1):
        plus, _ = plus_minus(p, k)
        assert tuple(b + (k,) for b in enumerate_tuples(p - 1, k - 1)) == plus


def test_phi_examples():
    assert enumerate_tuples(3, 3) == plus_minus(3, 4)[1]
    assert enumerate_tuples(0, 1) == plus_minus(0, 2)[1]
    assert (2, 3) in plus_minus(2, 4)[1]


@pytest.mark.parametrize("k", range(1, 9))
def test_phi_image_is_minus_block_in_order(k):
    for p in range(k):
        _, minus = plus_minus(p, k)
        assert enumerate_tuples(p, k - 1) == minus


@pytest.mark.parametrize("k", range(1, 8))
def test_minus_block_closed_under_deletion(k):
    for p in range(1, k + 1):
        _, minus = plus_minus(p, k)
        _, minus_below = plus_minus(p - 1, k)
        for a in minus:
            for i in range(1, p + 1):
                assert delete_coordinate(a, i) in minus_below


def test_format_index_tuple():
    assert format_index_tuple(BASEPOINT) == "*"
    assert format_index_tuple((2, 3, 4)) == "(2,3,4)"


def test_labels():
    assert labels(1, 2, ("v",)) == ["(2):v", "(1):v"]
    assert labels(0, 1, ("v0", "v1")) == ["*:v0", "*:v1"]


@pytest.mark.parametrize("k", range(2, 8))
def test_boundary_pattern_squares_to_zero(k):
    # Over commuting formal symbols, d_p d_(p+1) cancels term by term:
    # each (row, col, B_i B_j) coefficient of the product is zero.
    for p in range(1, k):
        into = defaultdict(list)
        for row, mid, i, sign in boundary_pattern(p, k):
            into[mid].append((row, i, sign))
        product = Counter()
        for mid, col, j, sign in boundary_pattern(p + 1, k):
            for row, i, s in into[mid]:
                product[row, col, min(i, j), max(i, j)] += s * sign
        assert product and not any(product.values())

