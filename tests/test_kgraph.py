import pytest
from hypothesis import given, settings, strategies as st

from evansk import (
    IntMatrix,
    KGraphSpec,
    StructuralError,
    coadjacency,
    monoid_spec,
    spec_from_matrices,
    validate,
)
from evansk.kgraph import MAX_RANK

from oracles import commutation_witnesses, permute_coordinates


def test_monoid_spec_is_valid():
    report = validate(monoid_spec([3, 5]))
    assert report.ok
    assert report.summary() == "valid"


def test_non_commuting_pair_reported_with_witness():
    spec = spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]])
    report = validate(spec)
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds == ["non_commuting"]
    v = report.violations[0]
    assert v.where[:2] == (1, 2)
    i, j, r, c = v.where
    lhs = spec.adjacency[i - 1] @ spec.adjacency[j - 1]
    rhs = spec.adjacency[j - 1] @ spec.adjacency[i - 1]
    assert lhs[r, c] != rhs[r, c]
    assert v.where == (1, 2, 0, 1)
    assert v.message == ("adjacency matrices 1 and 2 do not commute: "
                         "products differ at (0,1): 2 vs 0")


def test_one_vertex_violations_and_messages():
    spec = monoid_spec([3, -1, 0, 2])
    assert [(v.kind, v.where, v.message) for v in validate(spec).violations] == [
        ("negative_entry", (2, 0, 0), "adjacency matrix 2 has negative entry -1 at (0,0)"),
        ("zero_row", (3, 0), "not source-free at vertex 'v': row 0 of adjacency matrix 3 is zero"),
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.integers(-1, 2), min_size=n, max_size=n), min_size=n, max_size=n),
    min_size=1, max_size=4)))
def test_commutation_witnesses_match_dense_products(mats):
    found = [v.where for v in validate(spec_from_matrices(mats)).violations
             if v.kind == "non_commuting"]
    assert found == commutation_witnesses(mats)


def test_zero_row_reported_at_vertex():
    spec = spec_from_matrices([[[0, 0], [1, 1]]], vertices=("a", "b"))
    report = validate(spec)
    assert [v.kind for v in report.violations] == ["zero_row"]
    assert report.violations[0].where == (1, 0)
    assert "'a'" in report.violations[0].message


def test_negative_entry_reported():
    spec = spec_from_matrices([[[1, -2], [1, 1]]])
    report = validate(spec)
    assert [v.kind for v in report.violations] == ["negative_entry"]
    assert report.violations[0].where == (1, 0, 1)


def test_multiple_violations_all_listed():
    spec = spec_from_matrices([[[0, 0], [1, 1]], [[1, -1], [0, 0]]])
    kinds = sorted(v.kind for v in validate(spec).violations)
    assert kinds == ["negative_entry", "non_commuting", "zero_row", "zero_row"]


def test_structural_errors():
    with pytest.raises(StructuralError):
        KGraphSpec(rank=2, vertices=("v",), adjacency=(IntMatrix.from_rows([[1]]),))
    with pytest.raises(StructuralError):
        KGraphSpec(rank=1, vertices=("v",), adjacency=(IntMatrix.from_rows([[1, 0]]),))
    with pytest.raises(StructuralError):
        KGraphSpec(rank=0, vertices=("v",), adjacency=())
    with pytest.raises(StructuralError):
        KGraphSpec(rank=1, vertices=(), adjacency=(IntMatrix.zeros(0, 0),))
    with pytest.raises(StructuralError):
        monoid_spec([])
    assert 30 <= MAX_RANK == monoid_spec([3] * MAX_RANK).rank
    with pytest.raises(StructuralError, match=f"^rank must be <= {MAX_RANK}, got {MAX_RANK + 1}$"):
        monoid_spec([3] * (MAX_RANK + 1))


def test_coadjacency_examples():
    assert coadjacency(monoid_spec([3]), 1).to_lists() == [[-2]]
    spec = spec_from_matrices([[[1, 1], [1, 0]]])
    assert coadjacency(spec, 1).to_lists() == [[0, -1], [-1, 1]]
    eye = spec_from_matrices([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert coadjacency(eye, 1) == IntMatrix.zeros(3, 3)


def test_coadjacency_transpose_convention():
    spec = spec_from_matrices([[[0, 2], [1, 0]]])
    assert coadjacency(spec, 1).to_lists() == [[1, -1], [-2, 1]]


def test_coadjacency_identity_relation():
    for spec in (monoid_spec([4, 7]), spec_from_matrices([[[0, 2], [1, 0]], [[1, 3], [5, 2]]])):
        for i in (1, 2):
            m_t = IntMatrix.from_rows([list(c) for c in zip(*spec.adjacency[i - 1].to_lists())])
            assert coadjacency(spec, i) + m_t == IntMatrix.identity(spec.num_vertices)


def test_coadjacency_range():
    with pytest.raises(ValueError):
        coadjacency(monoid_spec([3]), 2)
    with pytest.raises(ValueError):
        coadjacency(monoid_spec([3]), 0)


def test_permute_coordinates():
    spec = monoid_spec([3, 5])
    assert permute_coordinates(spec, (1, 2)) == spec
    assert permute_coordinates(spec, (2, 1)) == monoid_spec([5, 3])
    assert permute_coordinates(monoid_spec([3, 5, 7]), (3, 2, 1)) == monoid_spec([7, 5, 3])
    with pytest.raises(ValueError):
        permute_coordinates(spec, (1, 1))
    with pytest.raises(ValueError):
        permute_coordinates(spec, (1,))


def test_coadjacency_commutes_with_permutation():
    spec = spec_from_matrices([[[3, 0], [0, 3]], [[5, 0], [0, 5]]])
    sigma = (2, 1)
    permuted = permute_coordinates(spec, sigma)
    for i in (1, 2):
        assert coadjacency(permuted, i) == coadjacency(spec, sigma[i - 1])


def test_spec_from_matrices_default_labels():
    spec = spec_from_matrices([[[1, 1], [1, 1]]])
    assert spec.vertices == ("v0", "v1")
    assert spec.num_vertices == 2
    assert not spec.is_monoid
    assert monoid_spec([2]).is_monoid
