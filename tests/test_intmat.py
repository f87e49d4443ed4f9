import random

import pytest

from evansk import IntMatrix

from oracles import block, block_diagonal, det_cofactor


def test_constructor_checks_shape():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix(1, 2, [[1, 2, 3]])
    with pytest.raises(ValueError):
        IntMatrix(-1, 0, [])


def test_constructor_rejects_non_ints():
    with pytest.raises(TypeError):
        IntMatrix(1, 1, [[1.5]])
    with pytest.raises(TypeError):
        IntMatrix(1, 1, [["3"]])
    with pytest.raises(TypeError):
        IntMatrix(1, 2, [[1, True]])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[False]])


def test_basic_accessors():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.shape() == (2, 3)
    assert m[1, 2] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.to_lists() == [[1, 2, 3], [4, 5, 6]]


def test_scaled_and_sum():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.scaled(-1).to_lists() == [[-1, -2], [-3, -4]]
    assert m.scaled(3).to_lists() == [[3, 6], [9, 12]]
    assert (m + m).to_lists() == [[2, 4], [6, 8]]
    assert IntMatrix.identity(2) + m.scaled(-1) == IntMatrix.from_rows([[0, -2], [-3, -3]])
    with pytest.raises(ValueError):
        m + IntMatrix(2, 3, [[0] * 3] * 2)


def test_matmul():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    b = IntMatrix.from_rows([[0, 1], [1, 1]])
    assert (a @ b).to_lists() == [[1, 2], [0, 1]]
    assert (b @ a).to_lists() == [[1, 0], [2, 1]]
    with pytest.raises(ValueError):
        a @ IntMatrix.from_rows([[1, 2, 3]])


def test_matmul_matches_triple_loop():
    # Entries past 2**64 and below zero, and every empty inner or outer side.
    rng = random.Random(21)
    shapes = [(0, 3, 2), (3, 0, 2), (0, 0, 0), (2, 3, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for n, m, p in shapes:
        bound = rng.choice((3, 2**70))
        a = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
        b = [[rng.randint(-bound, bound) for _ in range(p)] for _ in range(m)]
        naive = [[0] * p for _ in range(n)]
        for i in range(n):
            for j in range(p):
                for t in range(m):
                    naive[i][j] += a[i][t] * b[t][j]
        product = IntMatrix(n, m, a) @ IntMatrix(m, p, b)
        assert product.shape() == (n, p)
        assert product.to_lists() == naive


def test_empty_shapes():
    e = IntMatrix(0, 3, [])
    assert (e @ IntMatrix(3, 2, [[0] * 2] * 3)).shape() == (0, 2)
    f = IntMatrix(3, 0, [[]] * 3)
    assert (f @ IntMatrix(0, 2, [])) == IntMatrix(3, 2, [[0] * 2] * 3)
    assert IntMatrix(0, 0, []).det() == 1


def test_block_assembly():
    a = IntMatrix.from_rows([[1]])
    b = IntMatrix.from_rows([[2]])
    m = block([[a, b], [b, a]])
    assert m.to_lists() == [[1, 2], [2, 1]]


def test_block_with_degenerate_pieces():
    top = IntMatrix(0, 2, [])
    bottom_left = IntMatrix.from_rows([[5, 6]])
    bottom_right = IntMatrix(1, 0, [[]])
    m = block([[top, IntMatrix(0, 0, [])], [bottom_left, bottom_right]])
    assert m.to_lists() == [[5, 6]]


def test_block_shape_mismatch():
    a = IntMatrix.from_rows([[1]])
    wide = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        block([[a, a], [a, wide]])
    with pytest.raises(ValueError):
        block([[a], [a, a]])


def test_block_diagonal():
    a = IntMatrix.from_rows([[2]])
    m = block_diagonal([a, a, a])
    assert m.to_lists() == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert block_diagonal([]) == IntMatrix(0, 0, [])


def test_det_small_cases():
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix.from_rows([[0, -1], [-1, 1]]).det() == -1
    assert IntMatrix.from_rows([[2, 4], [6, 8]]).det() == -8
    with pytest.raises(ValueError):
        IntMatrix(2, 3, [[0] * 3] * 2).det()


def test_det_matches_cofactor_oracle():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert IntMatrix.from_rows(rows).det() == det_cofactor(rows)


def test_equality_and_hash():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix(1, 2, [[1, 2]])
    assert a == b and hash(a) == hash(b)
    assert a != IntMatrix.from_rows([[1, 3]])
    assert a != IntMatrix.from_rows([[1], [2]])
    assert (a == object()) is False
