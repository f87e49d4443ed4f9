import ast
import dataclasses
import inspect
import itertools
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evansk import (
    AbelianGroup,
    Analysis,
    ChainComplex,
    ChainComplexError,
    IntMatrix,
    SpecValidationError,
    build_differential_direct,
    coadjacencies,
    differential_product_witness,
    enumerate_tuples,
    evans_boundary,
    homology,
    monoid_spec,
    spec_from_matrices,
    validate,
)
from evansk import complexes, spectral
from evansk.corpus import evaluate_polynomial, random_polynomial_documents
from evansk.limits import MAX_BOUNDARY_CELLS, LimitError, dense_cells

import oracles
from oracles import (
    boundary,
    build_differential_recursive,
    dense_product_witness,
    minor_gcd_divisors,
    tensor_monoid_complex,
    tensor_two,
)


def is_zero(m: IntMatrix) -> bool:
    return m == IntMatrix(m.rows, m.cols, [[0] * m.cols] * m.rows)


def complex_of(spec) -> ChainComplex:
    """The complex of a valid spec, certified by its validation."""
    return Analysis(spec).complex


def dense_complex(bs) -> ChainComplex:
    """The public constructor's complex of raw matrices: its dense products certify it."""
    k, n = len(bs), bs[0].rows
    return ChainComplex(tuple(comb(k, p) * n for p in range(k + 1)),
                        tuple(evans_boundary(bs, p) for p in range(1, k + 1)))


def blocks_of(matrix, p, k, n=1):
    """Read the (row tuple, col tuple) -> value block map of a differential."""
    return {
        (b, a): matrix[ri * n, cj * n]
        for cj, a in enumerate(enumerate_tuples(p, k))
        for ri, b in enumerate(enumerate_tuples(p - 1, k))
    }


def test_monoid_rank2_differentials():
    spec = monoid_spec([3, 5])  # B1 = -2, B2 = -4
    assert build_differential_direct(spec, 1).to_lists() == [[-4, -2]]
    assert build_differential_direct(spec, 2).to_lists() == [[-2], [4]]


def test_rank4_degree3_block_pattern():
    # m = (2,3,4,5) gives distinct B = (-1,-2,-3,-4), pinning every block.
    spec = monoid_spec([2, 3, 4, 5])
    got = blocks_of(build_differential_direct(spec, 3), 3, 4)
    b = {1: -1, 2: -2, 3: -3, 4: -4}
    expected = {
        ((3, 4), (2, 3, 4)): b[2], ((2, 4), (2, 3, 4)): -b[3], ((2, 3), (2, 3, 4)): b[4],
        ((3, 4), (1, 3, 4)): b[1], ((1, 4), (1, 3, 4)): -b[3], ((1, 3), (1, 3, 4)): b[4],
        ((2, 4), (1, 2, 4)): b[1], ((1, 4), (1, 2, 4)): -b[2], ((1, 2), (1, 2, 4)): b[4],
        ((2, 3), (1, 2, 3)): b[1], ((1, 3), (1, 2, 3)): -b[2], ((1, 2), (1, 2, 3)): b[3],
    }
    for key, value in got.items():
        assert value == expected.get(key, 0), key


def test_rank4_top_degree_column():
    spec = monoid_spec([2, 3, 4, 5])
    d4 = build_differential_direct(spec, 4)
    assert d4.to_lists() == [[-1], [2], [-3], [4]]  # B1, -B2, B3, -B4


def test_rank1_base_case():
    spec = spec_from_matrices([[[0, 1], [1, 0]]])
    expected = [[1, -1], [-1, 1]]
    assert build_differential_direct(spec, 1).to_lists() == expected
    assert [d.to_lists() for d in build_differential_recursive(spec)] == [expected]


def test_degree_out_of_range():
    spec = monoid_spec([3, 5])
    for p in (0, 3):
        with pytest.raises(ValueError, match=f"degree {p} out of range 1..2"):
            build_differential_direct(spec, p)
        with pytest.raises(ValueError, match=f"degree {p} out of range 1..2"):
            evans_boundary(coadjacencies(spec), p)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_direct_equals_recursive_on_monoids(k):
    for ms in itertools.product((1, 2, 4, 7), repeat=k):
        spec = monoid_spec(ms)
        direct = tuple(build_differential_direct(spec, p) for p in range(1, k + 1))
        assert direct == build_differential_recursive(spec)


def test_direct_equals_recursive_multivertex():
    a = [[1, 1], [1, 0]]
    spec = spec_from_matrices([a, [[2, 1], [1, 1]], [[3, 2], [2, 1]]])  # A, A^2, A^2 + A
    direct = tuple(build_differential_direct(spec, p) for p in (1, 2, 3))
    assert direct == build_differential_recursive(spec)


def test_build_complex_monoid():
    cc = complex_of(monoid_spec([3, 5]))
    assert cc.ranks == (1, 2, 1)
    assert cc.boundaries[0].to_lists() == [[-4, -2]]
    assert cc.boundaries[1].to_lists() == [[-2], [4]]
    assert differential_product_witness(cc) is None
    assert complex_of(spec_from_matrices([[[1, 1], [1, 1]]])).ranks == (2, 2)


def test_chain_complex_is_ranks_and_boundaries():
    # The complex layer knows matrices, not graphs: no vertex labels, no
    # B_i, and no validation of its own beyond the d o d = 0 certificate.
    assert [f.name for f in dataclasses.fields(ChainComplex)] == ["ranks", "boundaries"]
    assert list(inspect.signature(evans_boundary).parameters) == ["bs", "p"]
    tree = ast.parse(Path(complexes.__file__).read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "coadjacencies" in names  # the walk sees imports and calls
    assert not names & {"validate", "require_valid"}


def minors_homology(cc: ChainComplex) -> list[AbelianGroup]:
    """Homology from the divisor chains of gcds of minors, one per boundary."""
    divisors = [minor_gcd_divisors(b.to_lists()) for b in cc.boundaries] + [()]
    rank_d = [0] + [sum(1 for d in ds if d) for ds in divisors]  # rank_d[p] is rank d_p
    return [AbelianGroup(r - rank_d[p] - rank_d[p + 1], [d for d in divisors[p] if d > 1])
            for p, r in enumerate(cc.ranks)]


def test_commuting_family_that_is_no_graph():
    # B_i = I - q_i(A)^T for an A with a negative entry and a zero row: no
    # k-graph has these matrices, but they commute, so they make a complex.
    a = IntMatrix.from_rows([[1, -1, 2], [0, 0, 0], [2, 1, -1]])
    polynomials = ([0, 1], [1, 0, 2], [2, 3])
    bs = tuple(
        IntMatrix.from_rows([[(r == c) - q[c, r] for c in range(3)] for r in range(3)])
        for q in (evaluate_polynomial(cs, a) for cs in polynomials))
    for k in (1, 2, 3):
        cc = dense_complex(bs[:k])
        assert cc.ranks == tuple(comb(k, p) * 3 for p in range(k + 1))
        assert homology(cc) == minors_homology(cc)
    assert any(not g.is_trivial for g in homology(dense_complex(bs[:2])))


def test_build_complex_assembles_without_block_matrices(monkeypatch):
    # Dense block assembly lives only in the oracle module: the library's
    # matrices have no block constructors, and the build never reaches
    # the oracle's.
    assert not hasattr(IntMatrix, "block") and not hasattr(IntMatrix, "block_diagonal")
    calls = []
    block = oracles.block

    def counted(grid):
        calls.append(grid)
        return block(grid)

    monkeypatch.setattr(oracles, "block", counted)
    for spec in (monoid_spec([2, 3, 4, 5]),
                 *(doc.spec for doc in random_polynomial_documents(5, seed=7))):
        complex_of(spec)
    assert calls == []
    build_differential_recursive(monoid_spec([2, 3, 4]))
    assert calls  # the counter sees the recursion, which is built from blocks


def test_trivial_monoid_has_zero_boundaries():
    cc = complex_of(monoid_spec([1, 1, 1]))
    assert cc.ranks == (1, 3, 3, 1)
    assert all(is_zero(b) for b in cc.boundaries)


def test_non_commuting_spec_refused():
    # Validation refuses the spec before its complex is built; the matrices
    # alone are refused by the public constructor's d o d = 0 certificate.
    spec = spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]])
    with pytest.raises(SpecValidationError) as info:
        Analysis(spec).complex
    assert any(v.kind == "non_commuting" for v in info.value.report.violations)
    with pytest.raises(ChainComplexError):
        dense_complex(coadjacencies(spec))


def test_non_commuting_negative_control_breaks_complex_axiom():
    # Deliberately skip validation: without commutation d1 @ d2 != 0.
    spec = spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]])
    d1 = build_differential_direct(spec, 1)
    d2 = build_differential_direct(spec, 2)
    assert not is_zero(d1 @ d2)


def test_chain_complex_shape_validation():
    with pytest.raises(ValueError, match="boundaries must list degrees 1..length"):
        ChainComplex((1, 1), ())
    with pytest.raises(ValueError, match="boundaries must list degrees 1..length"):
        ChainComplex((1,), (IntMatrix(1, 1, [[0]]),))
    with pytest.raises(ValueError, match=r"boundary 1 has shape \(2, 1\), expected \(1, 1\)"):
        ChainComplex((1, 1), (IntMatrix(2, 1, [[0]] * 2),))


def test_boundary_end_maps():
    # The complex holds d_1..d_k only; the oracle materializes the zero
    # maps at the ends, which the tensor route reads.
    cc = complex_of(monoid_spec([3, 5]))
    assert boundary(cc, 0).shape() == (0, 1)
    assert boundary(cc, 3).shape() == (1, 0)
    assert boundary(cc, 1) == cc.boundary(1)
    with pytest.raises(ValueError):
        boundary(cc, 4)
    for p in (0, 3):
        with pytest.raises(ValueError):
            cc.boundary(p)


def test_tensor_two_terms():
    cc = tensor_two(tensor_monoid_complex([-2]), -4)
    assert cc.ranks == (1, 2, 1)
    assert [str(g) for g in homology(cc)] == ["Z2", "Z2", "0"]


def test_tensor_zero_maps():
    cc = tensor_two(tensor_monoid_complex([0]), 0)
    assert all(is_zero(b) for b in cc.boundaries)
    groups = homology(cc)
    assert [g.free_rank for g in groups] == [1, 2, 1]
    assert all(g.is_torsion_free for g in groups)


def test_iterated_tensor_squares_to_zero():
    rng = random.Random(2024)
    for _ in range(30):
        k = rng.randint(1, 6)
        bs = [rng.randint(-9, 0) for _ in range(k)]
        cc = tensor_monoid_complex(bs)
        assert cc.length == k
        assert differential_product_witness(cc) is None


def test_tensor_monoid_ranks_are_binomial():
    cc = tensor_monoid_complex([-2, -4, -6])
    assert cc.ranks == (1, 3, 3, 1)
    assert [str(g) for g in homology(cc)] == ["Z2", "Z2^2", "Z2", "0"]


def test_tensor_single_zero_scalar():
    cc = tensor_monoid_complex([0])
    assert [str(g) for g in homology(cc)] == ["Z", "Z"]


def test_tensor_empty_rejected():
    with pytest.raises(ValueError):
        tensor_monoid_complex([])


@pytest.mark.parametrize("ms", [(3, 5), (2, 2, 2), (1, 4, 6), (3, 5, 7, 9)])
def test_tensor_homology_matches_block_construction(ms):
    evans = homology(complex_of(monoid_spec(ms)))
    tensor = homology(tensor_monoid_complex([1 - m for m in ms]))
    assert evans == tensor


def error_fields(err: ChainComplexError) -> tuple[int, int, int, int]:
    return (err.degree, err.row, err.col, err.value)


def test_constructor_rejects_non_complex():
    # No ChainComplex holds maps with d_1 d_2 = [[1]], so homology never sees them.
    with pytest.raises(ChainComplexError) as info:
        ChainComplex((1, 1, 1), (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])))
    assert error_fields(info.value) == (1, 0, 0, 1)
    assert list(inspect.signature(homology).parameters) == ["cc"]


def test_witness_matches_dense_scan_on_valid_complexes():
    specs = [monoid_spec(ms) for ms in ((2, 3, 4, 5), (3, 5, 7), (2, 2, 2, 2, 2))]
    specs += [doc.spec for doc in random_polynomial_documents(10, seed=7)]
    for spec in specs:
        cc = complex_of(spec)
        assert differential_product_witness(cc) is None
        assert dense_product_witness(cc.boundaries) is None


def test_witness_matches_dense_scan_on_non_commuting_control():
    spec = spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]])
    bs = (build_differential_direct(spec, 1), build_differential_direct(spec, 2))
    with pytest.raises(ChainComplexError) as info:
        ChainComplex((2, 4, 2), bs)
    assert error_fields(info.value) == dense_product_witness(bs)


@st.composite
def boundary_maps(draw):
    length = draw(st.integers(1, 4))
    ranks = tuple(draw(st.integers(0, 5)) for _ in range(length + 1))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 2 ** 66])
    boundaries = tuple(
        IntMatrix(ranks[p - 1], ranks[p],
                  [[draw(entries) for _ in range(ranks[p])] for _ in range(ranks[p - 1])])
        for p in range(1, length + 1)
    )
    return ranks, boundaries


@settings(max_examples=300, deadline=None)
@given(boundary_maps())
def test_witness_matches_dense_scan_on_arbitrary_boundaries(maps):
    # Random boundaries rarely square to zero: the constructor must refuse
    # them at the dense scan's first (p, r, c, value), in degree, then
    # row-major, order, and accept exactly the maps the scan passes.
    ranks, boundaries = maps
    witness = dense_product_witness(boundaries)
    try:
        ChainComplex(ranks, boundaries)
    except ChainComplexError as err:
        assert error_fields(err) == witness
    else:
        assert witness is None


def test_boundary_cells_estimate():
    for ms in ([3], [3, 5], [2, 3, 4, 5], [3] * 7):
        cc = complex_of(monoid_spec(ms))
        assert dense_cells(len(ms), 1) == max(b.rows * b.cols for b in cc.boundaries)
    for doc in random_polynomial_documents(10, seed=7):
        cc = complex_of(doc.spec)
        assert dense_cells(cc.length, doc.spec.num_vertices) == max(
            b.rows * b.cols for b in cc.boundaries)
    # cyclic-large's largest boundary is 120 x 160; loop counts [2] + [3]*29
    # would need C(30, 14) * C(30, 15) cells in degree 15.
    assert dense_cells(6, 8) == 120 * 160
    assert dense_cells(6, 8) * 500 < MAX_BOUNDARY_CELLS
    assert dense_cells(30, 1) == comb(30, 14) * comb(30, 15) > MAX_BOUNDARY_CELLS


def test_build_complex_refuses_over_budget(monkeypatch):
    def refuse(*args):
        raise AssertionError("nothing is assembled over budget")

    monkeypatch.setattr(spectral, "evans_boundary", refuse)
    with pytest.raises(LimitError, match=f"over the limit of {MAX_BOUNDARY_CELLS}$"):
        complex_of(monoid_spec([2] + [3] * 29))


def test_boundary_cells_limit_is_exact(monkeypatch):
    # The cell limit is the only one a complex meets: [3] * 11 (C(11, 5) *
    # C(11, 6) = 213 444 cells), whose dense d o d products would take about
    # 2e8 multiply-adds, is built, and certified by its validation.
    assert dense_cells(11, 1) == 213_444 < MAX_BOUNDARY_CELLS
    assert complex_of(monoid_spec([3] * 11)).ranks == tuple(comb(11, p) for p in range(12))
    # The preflight's estimate is the largest boundary: at that many cells
    # the complex is built, at one fewer it is refused.
    specs = [monoid_spec(ms) for ms in ([3], [3, 5], [2, 3, 4, 5], [3] * 7)]
    specs += [doc.spec for doc in random_polynomial_documents(10, seed=7)]
    for spec in specs:
        cells = dense_cells(spec.rank, spec.num_vertices)
        monkeypatch.setattr("evansk.limits.MAX_BOUNDARY_CELLS", cells)
        complex_of(spec)
        monkeypatch.setattr("evansk.limits.MAX_BOUNDARY_CELLS", cells - 1)
        with pytest.raises(LimitError, match=f"would have {cells} dense cells"):
            complex_of(spec)


@st.composite
def families(draw):
    """``k <= 4`` matrices, ``n x n`` with ``n <= 3``: polynomials in one matrix
    (so they commute), or drawn entry by entry (so they rarely do)."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entries = st.sampled_from([0, 0, 1, -1, 2, -3, 2 ** 66])

    def matrix():
        return IntMatrix(n, n, [[draw(entries) for _ in range(n)] for _ in range(n)])

    if not draw(st.booleans()):
        return [matrix() for _ in range(k)]
    a, one = matrix(), IntMatrix.identity(n)
    return [one.scaled(draw(entries)) + a.scaled(draw(entries)) + (a @ a).scaled(draw(entries))
            for _ in range(k)]


@settings(max_examples=300, deadline=None)
@given(families())
def test_validation_refuses_exactly_the_families_whose_d_o_d_is_nonzero(bs):
    # B_i B_j - B_j B_i = (M_j M_i - M_i M_j)^T for B_i = I - M_i^T, and these
    # commutators are the blocks of d_p d_(p+1): validation's proof is the
    # one d o d = 0 needs.
    spec = spec_from_matrices([b.to_lists() for b in bs])
    refused = any(v.kind == "non_commuting" for v in validate(spec).violations)
    bs = coadjacencies(spec)
    boundaries = tuple(evans_boundary(bs, p) for p in range(1, spec.rank + 1))
    assert boundaries == oracles.recursive_boundaries(bs)
    assert refused == (dense_product_witness(boundaries) is not None)


def test_build_complex_multiplies_no_boundaries(monkeypatch):
    def refuse(*args):
        raise AssertionError("no dense product")

    specs = [monoid_spec([3] * 6), *(doc.spec for doc in random_polynomial_documents(10, seed=7))]
    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    monkeypatch.setattr(complexes, "differential_product_witness", refuse)
    for spec in specs:
        complex_of(spec)
    with pytest.raises(SpecValidationError):
        complex_of(spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]]))


def test_oracles_stay_independent():
    # The oracle routes share neither the production path's signed-deletion
    # pattern nor its elimination code.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "evansk" in names and "evansk.IntMatrix" in names  # the walk sees imports
    forbidden = {"boundary_pattern", "evans_boundary", "snf", "smith_normal_form",
                 "elementary_divisors", "invariant_factors"}
    found = {n for n in names if n.split(".")[-1] in forbidden or n.startswith("evansk.snf")}
    assert found == set()
