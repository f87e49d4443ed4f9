import random

import pytest
from hypothesis import given, settings, strategies as st

from evansk import (
    IntMatrix,
    KGraphSpec,
    StructuralError,
    coadjacencies,
    monoid_spec,
    spec_from_matrices,
    validate,
)
from evansk import kgraph, limits
from evansk.corpus import random_polynomial_documents
from evansk.limits import MAX_PRODUCT_MADDS, MAX_RANK, LimitError

from oracles import permute_coordinates, validate_by_products


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


_BIG = [s * (2**64 + d) for s in (1, -1) for d in (-2, -1, 0, 1, 2)] + [2**70, -2**70]
_entries = st.one_of(st.integers(-1, 2), st.sampled_from(_BIG))


@st.composite
def _families(draw):
    """k = 1..4 square matrices on n = 1..5 vertices; each is either drawn
    entry by entry or is ``a I + b A`` for one shared ``A``, so commuting
    and non-commuting pairs both occur."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    square = st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    base = draw(square)
    mats = []
    for _ in range(k):
        if draw(st.booleans()):
            mats.append(draw(square))
        else:
            a, b = draw(_entries), draw(_entries)
            mats.append([[a * (r == c) + b * x for c, x in enumerate(row)]
                         for r, row in enumerate(base)])
    return mats


@settings(max_examples=300, deadline=None)
@given(_families())
def test_commutation_witnesses_match_dense_products(mats):
    # The whole report, in order: each non-commuting pair's witness from the
    # dense products, and the negative entries and zero rows around it.
    spec = spec_from_matrices(mats)
    assert [(v.kind, v.where, v.message)
            for v in validate(spec).violations] == validate_by_products(spec)


def _pack(row, w):
    return sum(x << (w * c) for c, x in enumerate(row))


@pytest.mark.parametrize("a, b, narrow, witness", [
    # Entries of size 1 on 3 vertices give product entries of size at most 3,
    # so w = 3.  Row 0 is (-1, -3, 0) in M_1 M_2 and (-1, 1, -1) in M_2 M_1:
    # a difference of (0, -4, 1), and -4 * 2**2 + 1 * 2**4 = 0.
    ([[-1, 1, -1], [0, 0, 0], [0, -1, -1]], [[1, 1, 0], [0, -1, 0], [0, 1, 0]], 2,
     (0, 1, -3, 1)),
    # The largest entry is 1 but the largest |entry| is 2, so w = 5.  At the
    # width a top of 1 would give, 3, row 2's difference (8, -1, 0) packs to 0.
    ([[-2, 0, 0], [1, 0, 0], [-2, 0, 1]], [[-1, 0, 0], [0, -1, 0], [1, -1, 1]], 3,
     (2, 0, 3, -5)),
    # The rows below have no narrow collision; they test reading the witness
    # back out of the packed rows.  Row 0 is (-1, -1, -1) against (-1, 1, 1):
    # slot 0 is negative in both, so slot 1 is read across a borrow.
    ([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 1], [0, 1, 0], [0, 0, 1]], None,
     (0, 1, -1, 1)),
    # The first difference is in the last column, the top slot of row 0.
    ([[1, 0, 1], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 2]], None,
     (0, 2, 2, 1)),
    # w = 9 and slot 1 differs by 128 = 2**7: its lowest set bit is 7 bits
    # into the slot.
    ([[8, 8], [1, 0]], [[0, 8], [1, 8]], None, (0, 1, 128, 0)),
    # Entries past 2**64, one of them negative; only the last row differs.
    ([[2**64 + 7, 0, 0], [0, 2**64 + 7, 0], [-2**70, 0, 2**64 + 7]],
     [[2**64 + 7, 0, 0], [0, 2**64 + 7, 0], [0, 0, 2**64 + 8]], None,
     (2, 0, -2**70 * (2**64 + 7), -2**70 * (2**64 + 8))),
])
def test_packed_rows_need_the_full_slot_width(a, b, narrow, witness):
    # At the narrow width every row of M_1 M_2 packs to the same integer as
    # the row of M_2 M_1, although a row differs; validation must not.  Its
    # witness is the first differing entry of the dense products.
    spec = spec_from_matrices([a, b])
    ab, ba = spec.adjacency[0] @ spec.adjacency[1], spec.adjacency[1] @ spec.adjacency[0]
    assert ab != ba
    if narrow is not None:
        assert [_pack(ab.row(r), narrow) for r in range(3)] == [_pack(ba.row(r), narrow)
                                                                for r in range(3)]
    found = [(v.kind, v.where, v.message) for v in validate(spec).violations]
    assert found == validate_by_products(spec)
    r, c, x, y = witness
    assert found[-1] == ("non_commuting", (1, 2, r, c), "adjacency matrices 1 and 2 do not "
                         f"commute: products differ at ({r},{c}): {x} vs {y}")


def test_valid_specs_share_one_report():
    assert validate(monoid_spec([3, 5])) is validate(spec_from_matrices([[[1, 1], [1, 1]]] * 2))


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
        KGraphSpec(rank=1, vertices=(), adjacency=(IntMatrix(0, 0, []),))
    with pytest.raises(StructuralError):
        monoid_spec([])
    assert 30 <= MAX_RANK == monoid_spec([3] * MAX_RANK).rank
    with pytest.raises(LimitError, match=f"^rank must be <= {MAX_RANK}, got {MAX_RANK + 1}$"):
        monoid_spec([3] * (MAX_RANK + 1))


def test_spec_work_refused_before_its_matrices(monkeypatch):
    # The check needs only k and n, so no matrix is looked at, and the rank
    # is refused first.
    labels = tuple(f"v{i}" for i in range(600))
    with pytest.raises(LimitError) as info:
        KGraphSpec(rank=2, vertices=labels, adjacency=())
    assert str(info.value) == (f"the spec's validation and determinants would take "
                               f"{4 * 600 ** 3} multiply-adds, over the limit of "
                               f"{MAX_PRODUCT_MADDS}")
    with pytest.raises(LimitError, match="^rank must be <= 1000, got 15000$"):
        KGraphSpec(rank=15_000, vertices=labels, adjacency=())
    # cyclic-large (k = 6, n = 8) and every one-vertex spec stay far inside.
    assert limits.spec_madds(6, 8) == 18_432
    assert limits.spec_madds(MAX_RANK, 1) == 10**6 < MAX_PRODUCT_MADDS
    mats = [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]] * 2
    monkeypatch.setattr(limits, "MAX_PRODUCT_MADDS", limits.spec_madds(2, 3))
    assert spec_from_matrices(mats).rank == 2
    monkeypatch.setattr(limits, "MAX_PRODUCT_MADDS", limits.spec_madds(2, 3) - 1)
    with pytest.raises(LimitError, match=f"would take {4 * 27} multiply-adds"):
        spec_from_matrices(mats)


def test_spec_estimate_bounds_validation_and_determinants(monkeypatch):
    # Validation's packed kernel makes k(k-1) n^2 multiply-adds by n-slot
    # integers when n > 1, commuting or not; counted as k(k-1) n^3 slot
    # multiply-adds, with each Bareiss determinant's sum(m^2 for m < n)
    # two-product updates they stay within the spec estimate k^2 n^3.  No
    # spec, valid or not, takes an IntMatrix product: a non-commuting pair's
    # witness is read from the packed rows.
    packed, products = [], []
    product = IntMatrix.__matmul__

    def counted_mul(a, b):
        packed.append(1)
        return a * b

    def counted_product(a, b):
        products.append(1)
        return product(a, b)

    monkeypatch.setattr(kgraph, "mul", counted_mul)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted_product)
    rng = random.Random(5)
    specs = [doc.spec for doc in random_polynomial_documents(40, seed=5)]
    specs += [spec_from_matrices([[[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
                                  for _ in range(k)])
              for n, k in ((rng.randint(1, 7), rng.randint(1, 5)) for _ in range(40))]
    # Rank 4 on 6 vertices with every pair non-commuting: 2 592 slot
    # multiply-adds against the estimate 3 456, witnesses included.
    specs.append(spec_from_matrices([[[rng.randint(0, 2) for _ in range(6)] for _ in range(6)]
                                     for _ in range(4)]))
    products.clear()  # the polynomial documents are drawn with products
    reports = []
    for spec in specs:
        k, n = spec.rank, spec.num_vertices
        packed.clear()
        report = validate(spec)
        reports.append(report)
        assert len(packed) == (k * (k - 1) * n * n if n > 1 else 0)
        bareiss = k * 2 * sum(m * m for m in range(n))
        assert len(packed) * n + bareiss <= limits.spec_madds(k, n)
    assert products == []
    assert [v.kind for v in reports[-1].violations] == ["non_commuting"] * 6
    assert len(packed) * 6 == 2_592 < limits.spec_madds(4, 6) == 3_456
    assert any(r.ok and s.num_vertices > 1 for r, s in zip(reports, specs))


def test_coadjacency_examples():
    assert coadjacencies(monoid_spec([3]))[0].to_lists() == [[-2]]
    spec = spec_from_matrices([[[1, 1], [1, 0]]])
    assert coadjacencies(spec)[0].to_lists() == [[0, -1], [-1, 1]]
    eye = spec_from_matrices([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert coadjacencies(eye)[0] == IntMatrix(3, 3, [[0] * 3] * 3)


def test_coadjacency_transpose_convention():
    spec = spec_from_matrices([[[0, 2], [1, 0]]])
    assert coadjacencies(spec)[0].to_lists() == [[1, -1], [-2, 1]]


def test_coadjacency_identity_relation():
    for spec in (monoid_spec([4, 7]), spec_from_matrices([[[0, 2], [1, 0]], [[1, 3], [5, 2]]])):
        for i in (1, 2):
            m_t = IntMatrix.from_rows([list(c) for c in zip(*spec.adjacency[i - 1].to_lists())])
            assert coadjacencies(spec)[i - 1] + m_t == IntMatrix.identity(spec.num_vertices)


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
    assert coadjacencies(permuted) == tuple(coadjacencies(spec)[s - 1] for s in sigma)


def test_spec_from_matrices_default_labels():
    spec = spec_from_matrices([[[1, 1], [1, 1]]])
    assert spec.vertices == ("v0", "v1")
    assert spec.num_vertices == 2
    assert not spec.is_monoid
    assert monoid_spec([2]).is_monoid
