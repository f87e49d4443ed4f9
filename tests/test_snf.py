import random

import pytest
from hypothesis import given, settings, strategies as st

from evansk import (
    Analysis,
    IntMatrix,
    elementary_divisors,
    monoid_spec,
    smith_normal_form,
    snf,
    spec_from_matrices,
)

from oracles import minor_gcd_divisors


def assert_certified(m, res):
    assert res.left @ m @ res.right == res.matrix
    assert res.left.det() in (1, -1)
    assert res.right.det() in (1, -1)
    for i in range(res.matrix.rows):
        for j in range(res.matrix.cols):
            if i != j:
                assert res.matrix[i, j] == 0
    divisors = res.divisors
    assert all(d >= 0 for d in divisors)
    nonzero = [d for d in divisors if d]
    assert list(divisors[: len(nonzero)]) == nonzero  # zeros trail
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_example_2x2():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(m)
    assert res.divisors == (2, 4)
    assert_certified(m, res)


def test_identity():
    m = IntMatrix.identity(3)
    res = smith_normal_form(m)
    assert res.divisors == (1, 1, 1)
    assert_certified(m, res)


def test_single_zero():
    res = smith_normal_form(IntMatrix.from_rows([[0]]))
    assert res.divisors == (0,)


def test_rank_one_symmetric():
    m = IntMatrix.from_rows([[1, -1], [-1, 1]])
    res = smith_normal_form(m)
    assert res.divisors == (1, 0)
    assert_certified(m, res)


def test_empty_matrices():
    for rows, cols in ((0, 0), (0, 3), (2, 0)):
        m = IntMatrix(rows, cols, [[0] * cols] * rows)
        res = smith_normal_form(m)
        assert res.divisors == ()
        assert res.left == IntMatrix.identity(rows)
        assert res.right == IntMatrix.identity(cols)
        assert elementary_divisors(m) == ()


def test_divisors_need_entry_mixing():
    # diag(2, 3) is not in normal form; the chain forces (1, 6).
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    res = smith_normal_form(m)
    assert res.divisors == (1, 6)
    assert_certified(m, res)


def test_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        m = IntMatrix.from_rows(rows)
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first.matrix == second.matrix
        assert first.left == second.left
        assert first.right == second.right


def test_fast_path_matches_full():
    rng = random.Random(6)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)])
        assert elementary_divisors(m) == smith_normal_form(m).divisors


def test_random_certificates_and_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)]
        m = IntMatrix.from_rows(rows)
        res = smith_normal_form(m)
        assert_certified(m, res)
        assert res.divisors == minor_gcd_divisors(rows)


def test_entry_growth_is_handled_exactly():
    # Entries this size overflow any fixed-width pipeline immediately.
    big = 10 ** 30
    m = IntMatrix.from_rows([[big, big + 2], [big - 2, big]])
    res = smith_normal_form(m)
    assert_certified(m, res)
    assert res.divisors[0] == 2  # gcd of all entries
    assert elementary_divisors(m) == res.divisors


def _circulant_boundary():
    # M_i = q_i(P) for the 6-cycle P, each q_i a sum of three powers of P as
    # in the benchmark's cyclic workload: no B_i is unimodular, and d_2 mixes
    # units with the 2-torsion that q_i(1) = 3 forces.
    def q(*powers):
        return [[sum((c - r) % 6 == e for e in powers) for c in range(6)] for r in range(6)]

    spec = spec_from_matrices([q(0, 1, 1), q(0, 2, 3), q(1, 1, 4)])
    return Analysis(spec).complex.boundary(2)


def test_divisors_do_not_use_the_certified_engine(monkeypatch):
    cases = [
        Analysis(monoid_spec([3, 5, 7])).complex.boundary(2),  # B = (-2, -4, -6): no unit entry
        IntMatrix.from_rows([[1, 2, 0, 3], [0, 4, 6, 1], [2, 0, 8, 0], [6, 4, 2, 10]]),
        _circulant_boundary(),
    ]
    expected = [smith_normal_form(m).divisors for m in cases]
    assert any(d > 1 for d in expected[0]) and 1 not in expected[0]

    def refuse(*args, **kwargs):
        raise AssertionError("elementary_divisors must not call the certified engine")

    monkeypatch.setattr(snf, "_eliminate", refuse)
    monkeypatch.setattr(snf, "smith_normal_form", refuse)
    assert [elementary_divisors(m) for m in cases] == expected


@pytest.mark.parametrize("n, seed", [(20, 1), (20, 2), (30, 1), (30, 2)])
def test_divisors_of_many_vertex_coadjacencies(n, seed):
    # B = I - M^T for a random 0..2 matrix M: the one-boundary shape of a
    # many-vertex rank-1 document, past the sides the Hypothesis cases draw.
    rng = random.Random(seed)
    m = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    b = IntMatrix.from_rows([[(r == c) - m[c][r] for c in range(n)] for r in range(n)])
    assert elementary_divisors(b) == smith_normal_form(b).divisors


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), max_size=5))
def test_invariant_factors_match_minor_oracle(values):
    n = len(values)
    diag = [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    chain = minor_gcd_divisors(diag)
    assert snf.invariant_factors(values) == tuple(d for d in chain if d > 1)


# Entries mix units, zeros, small non-units and values past 2**64, so the
# sparse elimination of elementary_divisors meets fill-in, rows and columns
# that vanish, and non-unit pivots that leave remainders.
ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -6]),
    st.integers(-(2 ** 70), 2 ** 70),
)


@st.composite
def matrices(draw, entries=ENTRIES, max_side=7):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix(rows, cols, data)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_divisors_match_certified_snf(m):
    assert elementary_divisors(m) == smith_normal_form(m).divisors


@settings(max_examples=100, deadline=None)
@given(matrices(entries=st.sampled_from([0, 0, 2, -2, 4, 6, -9]), max_side=5))
def test_divisors_without_unit_entries(m):
    assert elementary_divisors(m) == smith_normal_form(m).divisors


@settings(max_examples=150, deadline=None)
@given(matrices(max_side=4))
def test_divisors_match_minor_oracle(m):
    assert elementary_divisors(m) == minor_gcd_divisors(m.to_lists())


def test_divisors_with_zero_rows_and_columns():
    m = IntMatrix.from_rows([[0, 0, 0, 0], [0, 1, 0, 2], [0, 0, 0, 0], [0, 3, 0, 4]])
    assert elementary_divisors(m) == (1, 2, 0, 0)
    assert elementary_divisors(IntMatrix(3, 5, [[0] * 5] * 3)) == (0, 0, 0)
    assert elementary_divisors(IntMatrix.identity(4)) == (1, 1, 1, 1)
    # Units only, with fill-in from the first pivot: the residue is empty.
    m = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, -1]])
    assert elementary_divisors(m) == smith_normal_form(m).divisors == (1, 1, 0)
