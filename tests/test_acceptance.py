"""Acceptance suite: one test per criterion, each at its stated tolerance.

The exhaustive single-vertex corpus (loop counts 1..9 in every coordinate,
ranks 1..5: 66429 specs) is swept once by a module-scoped fixture that
builds every complex from the signed-deletion pattern, checks its
``d o d = 0`` with the oracle's dense products, compares each boundary
with the paper's block recursion, checks the boundary shapes,
computes homology along both the pattern and the tensor routes (the
recursion and the tensor complex come from ``oracles``), and compares
the verdict path's page (the determinant proof or the Künneth closed
form, no complex) with the SNF page of every spec; criteria then assert
over the collected results, and the homology it keeps for ranks up to 4
checks the verdicts that the verdict path proves without building a
complex.  All comparisons are exact.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with timings.
"""

import contextlib
import io
import itertools
import json
import random
import time

import pytest

from evansk import (
    AbelianGroup,
    Analysis,
    ChainComplex,
    ChainComplexError,
    GraphDocument,
    IntMatrix,
    SpecValidationError,
    TRIVIAL_GROUP,
    VerdictKind,
    build_complex,
    build_differential_direct,
    coadjacencies,
    document_to_dict,
    homology,
    k_theory_verdict,
    monoid_closed_form,
    monoid_spec,
    smith_normal_form,
    spec_from_matrices,
)
from evansk.cli import main
from evansk.corpus import random_polynomial_documents
from evansk.render import render_symbolic_differential, symbolic_blocks

from oracles import (
    block,
    build_differential_recursive,
    dense_product_witness,
    minor_gcd_divisors,
    random_unimodular,
    tensor_monoid_complex,
)

M_VALUES = range(1, 10)
RANKS = (1, 2, 3, 4, 5)
MONOID_TOTAL = sum(9 ** k for k in RANKS)

POLY_COUNT = 50
POLY_SEED = 101
UNIMODULAR_COUNT = 25
UNIMODULAR_SEED = 211
SNF_COUNT = 200
SNF_SEED = 307
BASIS_TRIALS = 20
BASIS_SEED = 401
PROOF_MAX_RANK = 4
PROOF_POLY_SEEDS = (1, 2)
PROOF_POLY_COUNT = 1000


def announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def edge_shapes_ok(cc, bs) -> bool:
    k = len(bs)
    d1_expected = block([[bs[i] for i in reversed(range(k))]])
    dk_expected = block([[bs[i].scaled(1 if i % 2 == 0 else -1)] for i in range(k)])
    return cc.boundary(1) == d1_expected and cc.boundary(k) == dk_expected


@pytest.fixture(scope="module")
def monoid_sweep():
    t0 = time.perf_counter()
    recursive_mismatches = []
    shape_failures = []
    dd_failures = []  # d_p d_(p+1) != 0 by the dense products
    tensor_failures = []
    closed_failures = []
    analysis_failures = []  # the production page differs from SNF's
    pages = {}  # loop counts -> homology, for ranks <= PROOF_MAX_RANK
    built = 0
    for k in RANKS:
        for ms in itertools.product(M_VALUES, repeat=k):
            spec = monoid_spec(ms)
            analysis = Analysis(spec)
            cc = analysis.complex  # validated; built certifies d o d = 0 by commutators
            built += 1
            if dense_product_witness(cc.boundaries) is not None:
                dd_failures.append(ms)
            for p, d in enumerate(build_differential_recursive(spec), start=1):
                if d != cc.boundary(p):
                    recursive_mismatches.append((ms, p))
            if not edge_shapes_ok(cc, analysis.coadjacencies):
                shape_failures.append(ms)
            hs = tuple(homology(cc))
            if analysis.homology != hs:  # a one-vertex page reads no complex
                analysis_failures.append(ms)
            if k <= PROOF_MAX_RANK:
                pages[ms] = hs
            try:
                tensor = tensor_monoid_complex([1 - m for m in ms])
            except ChainComplexError:
                tensor_failures.append((ms, "tensor complex fails d o d = 0"))
            else:
                if tuple(homology(tensor)) != hs:
                    tensor_failures.append((ms, "tensor homology differs"))
            expected = tuple(monoid_closed_form([1 - m for m in ms]))
            if hs != expected:
                closed_failures.append((ms, hs, expected))
    return {
        "built": built,
        "recursive_mismatches": recursive_mismatches,
        "shape_failures": shape_failures,
        "dd_failures": dd_failures,
        "tensor_failures": tensor_failures,
        "closed_failures": closed_failures,
        "analysis_failures": analysis_failures,
        "pages": pages,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def poly_sweep():
    t0 = time.perf_counter()
    docs = random_polynomial_documents(POLY_COUNT, seed=POLY_SEED)
    recursive_mismatches = []
    shape_failures = []
    dd_failures = []
    built = 0
    for doc in docs:
        spec = doc.spec
        analysis = Analysis(spec)
        cc = analysis.complex
        built += 1
        if dense_product_witness(cc.boundaries) is not None:
            dd_failures.append(doc.name)
        for p, d in enumerate(build_differential_recursive(spec), start=1):
            if d != cc.boundary(p):
                recursive_mismatches.append((doc.name, p))
        if not edge_shapes_ok(cc, analysis.coadjacencies):
            shape_failures.append(doc.name)
    return {
        "built": built,
        "recursive_mismatches": recursive_mismatches,
        "shape_failures": shape_failures,
        "dd_failures": dd_failures,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_01_differential_equivalence(monoid_sweep, poly_sweep):
    assert monoid_sweep["built"] == MONOID_TOTAL
    assert poly_sweep["built"] == POLY_COUNT
    assert monoid_sweep["recursive_mismatches"] == []
    assert poly_sweep["recursive_mismatches"] == []
    announce(1, f"direct == recursive on {MONOID_TOTAL} monoid + {POLY_COUNT} "
                f"polynomial-family specs, every degree "
                f"(corpus sweep {monoid_sweep['elapsed']:.1f}s, "
                f"shared by criteria 1, 2, 4, 5, 8)")


def test_criterion_02_complex_axiom(monoid_sweep, poly_sweep):
    # build_complex certified every corpus complex from the commutators of
    # its B_i, and multiplied no boundaries; the sweeps checked each one with
    # the oracle's dense products.
    assert monoid_sweep["built"] == MONOID_TOTAL
    assert poly_sweep["built"] == POLY_COUNT
    assert monoid_sweep["dd_failures"] == []
    assert poly_sweep["dd_failures"] == []
    # Negative control: a non-commuting family breaks the axiom.  Its
    # matrices are refused by either certificate alone, at the same entry;
    # the spec is refused by validation before any complex is built.
    bad = spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]])
    d1 = build_differential_direct(bad, 1)
    d2 = build_differential_direct(bad, 2)
    assert d1 @ d2 != IntMatrix(d1.rows, d2.cols, [[0] * d2.cols] * d1.rows)
    with pytest.raises(ChainComplexError) as dense:
        ChainComplex((2, 4, 2), (d1, d2))
    with pytest.raises(ChainComplexError) as commutators:
        build_complex(coadjacencies(bad))
    assert str(commutators.value) == str(dense.value)
    with pytest.raises(SpecValidationError) as info:
        Analysis(bad).complex
    assert [v.kind for v in info.value.report.violations] == ["non_commuting"]
    announce(2, f"d_p d_(p+1) = 0 on all {MONOID_TOTAL + POLY_COUNT} corpus "
                "specs; non-commuting control is nonzero and refused")


RANK4_DEGREE3 = """\
      | (2,3,4) (1,3,4) (1,2,4) : (1,2,3)
------+----------------------------------
(3,4) |      B2      B1       0 :       0
(2,4) |     -B3       0      B1 :       0
(1,4) |       0     -B3     -B2 :       0
- - - - - - - - - - - - - - - - - - - - -
(2,3) |      B4       0       0 :      B1
(1,3) |       0      B4       0 :     -B2
(1,2) |       0       0      B4 :      B3"""

RANK4_DEGREE4 = """\
        | (1,2,3,4)
--------+----------
(2,3,4) |        B1
(1,3,4) |       -B2
(1,2,4) |        B3
(1,2,3) |       -B4"""


def test_criterion_03_figure_golden():
    assert symbolic_blocks(3, 4) == [
        ["B2", "B1", "0", "0"],
        ["-B3", "0", "B1", "0"],
        ["0", "-B3", "-B2", "0"],
        ["B4", "0", "0", "B1"],
        ["0", "B4", "0", "-B2"],
        ["0", "0", "B4", "B3"],
    ]
    assert symbolic_blocks(4, 4) == [["B1"], ["-B2"], ["B3"], ["-B4"]]
    assert render_symbolic_differential(3, 4) == RANK4_DEGREE3
    assert render_symbolic_differential(4, 4) == RANK4_DEGREE4
    # The symbolic pattern must agree with the numeric construction when
    # every coordinate has a distinct value.
    spec = monoid_spec([2, 3, 4, 5])
    values = {f"B{i}": 1 - m for i, m in enumerate([2, 3, 4, 5], start=1)}
    d3 = build_differential_direct(spec, 3)
    for r, row in enumerate(symbolic_blocks(3, 4)):
        for c, cell in enumerate(row):
            if cell == "0":
                expected = 0
            elif cell.startswith("-"):
                expected = -values[cell[1:]]
            else:
                expected = values[cell]
            assert d3[r, c] == expected
    announce(3, "rendered degree-3 and degree-4 rank-4 boundaries match the "
                "block pattern symbol for symbol, partitions included")


def test_criterion_04_edge_shapes(monoid_sweep, poly_sweep):
    assert monoid_sweep["shape_failures"] == []
    assert poly_sweep["shape_failures"] == []
    announce(4, "d_1 = [B_k ... B_1] and d_k = [B_1, -B_2, ...]^T on every "
                "corpus spec")


def test_criterion_05_monoid_closed_form(monoid_sweep):
    assert monoid_sweep["built"] == MONOID_TOTAL
    assert monoid_sweep["closed_failures"] == []
    assert monoid_sweep["analysis_failures"] == []
    announce(5, f"homology equals the gcd closed form ((Z_g)^C(k-1,p), or "
                f"Z^C(k,p) when g = 0) on all {MONOID_TOTAL} monoid specs, and "
                f"the verdict path's page equals SNF's on all of them")


def test_criterion_06_invertible_triviality():
    docs = random_polynomial_documents(UNIMODULAR_COUNT, seed=UNIMODULAR_SEED,
                                       unimodular_base=True)
    assert len(docs) == UNIMODULAR_COUNT
    for doc in docs:
        bs = coadjacencies(doc.spec)
        assert any(b.det() in (1, -1) for b in bs), doc.name
        groups = homology(Analysis(doc.spec).complex)
        assert all(g.is_trivial for g in groups), doc.name
        verdict = k_theory_verdict(doc.spec)
        assert verdict.kind is VerdictKind.TRIVIAL, doc.name
    announce(6, f"{UNIMODULAR_COUNT} specs with a unimodular co-adjacency "
                "matrix: homology vanishes and the verdict is trivial")


def test_criterion_07_trivial_monoid():
    from math import comb

    for k in RANKS:
        spec = monoid_spec([1] * k)
        groups = homology(Analysis(spec).complex)
        assert groups == [AbelianGroup.free(comb(k, p)) for p in range(k + 1)]
        verdict = k_theory_verdict(spec)
        assert (verdict.kind, verdict.rule) == (VerdictKind.DETERMINED, "R2")
        assert verdict.k0 == verdict.k1 == AbelianGroup.free(2 ** (k - 1))
    announce(7, "trivial monoids k = 1..5: homology Z^C(k,p), "
                "K0 = K1 = Z^(2^(k-1))")


def test_criterion_08_tensor_route_agreement(monoid_sweep):
    assert monoid_sweep["built"] == MONOID_TOTAL
    assert monoid_sweep["tensor_failures"] == []
    announce(8, f"iterated tensor homology equals block-construction homology "
                f"on all {MONOID_TOTAL} monoid specs; both complexes square "
                "to zero")


def test_criterion_09_rank3_monoid_verdict():
    z2 = AbelianGroup.cyclic(2)
    verdict = k_theory_verdict(monoid_spec([3, 5, 7]))
    assert verdict.kind is VerdictKind.SHORT_EXACT_SEQUENCE
    assert verdict.rule == "R4"
    assert verdict.k1 == AbelianGroup(0, (2, 2))
    assert verdict.ses == (z2, z2)
    assert verdict.e2 == (z2, AbelianGroup(0, (2, 2)), z2, TRIVIAL_GROUP)
    announce(9, "loop counts (3,5,7): K1 = Z2^2 with K0 constrained by "
                "0 -> Z2 -> K0 -> Z2 -> 0; page columns Z2, Z2^2, Z2, 0")


def test_criterion_10_snf_certification():
    t0 = time.perf_counter()
    rng = random.Random(SNF_SEED)
    oracle_checked = 0
    for _ in range(SNF_COUNT):
        rows_n = rng.randint(1, 8)
        cols_n = rng.randint(1, 8)
        rows = [[rng.randint(-10, 10) for _ in range(cols_n)] for _ in range(rows_n)]
        m = IntMatrix.from_rows(rows)
        res = smith_normal_form(m)
        assert res.left @ m @ res.right == res.matrix
        assert res.left.det() in (1, -1)
        assert res.right.det() in (1, -1)
        nonzero = [d for d in res.divisors if d]
        assert all(d > 0 for d in nonzero)
        assert list(res.divisors[:len(nonzero)]) == nonzero
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        if rows_n <= 6 and cols_n <= 6:
            assert res.divisors == minor_gcd_divisors(rows)
            oracle_checked += 1
    announce(10, f"{SNF_COUNT} random matrices certified (U M V = S, "
                 f"unimodular transforms, divisor chain); {oracle_checked} "
                 f"checked against the minors oracle "
                 f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_11_basis_change_invariance():
    rng = random.Random(BASIS_SEED)
    pool = [
        Analysis(monoid_spec([3, 5])).complex,
        Analysis(monoid_spec([3, 5, 7])).complex,
        Analysis(monoid_spec([2, 4, 6, 8])).complex,
        Analysis(spec_from_matrices([[[3, 0], [0, 3]], [[5, 0], [0, 5]]])).complex,
        Analysis(spec_from_matrices([[[1, 2], [1, 2]], [[3, 6], [3, 6]]])).complex,
    ]
    baselines = [homology(cc) for cc in pool]
    for trial in range(BASIS_TRIALS):
        cc = pool[trial % len(pool)]
        transforms = [random_unimodular(r, rng, ops=r + 5) for r in cc.ranks]
        conjugated = ChainComplex(
            cc.ranks,
            tuple(
                transforms[p - 1][0] @ cc.boundary(p) @ transforms[p][1]
                for p in range(1, cc.length + 1)
            ),
        )
        assert homology(conjugated) == baselines[trial % len(pool)]
    announce(11, f"homology invariant under unimodular conjugation in "
                 f"{BASIS_TRIALS} trials")


def test_proved_verdicts_match_computed_homology(monoid_sweep, tmp_path):
    # The verdict path proves every group zero from gcd det(B_i) = 1 and
    # then builds no complex.  The rule dispatch applied to homology
    # computed from the built complex must give the same verdict, through
    # the library and through the CLI's JSON report.
    t0 = time.perf_counter()
    cases = [(monoid_spec(ms), hs) for ms, hs in monoid_sweep["pages"].items()]
    for seed in PROOF_POLY_SEEDS:
        for doc in random_polynomial_documents(PROOF_POLY_COUNT, seed):
            cases.append((doc.spec, homology(Analysis(doc.spec).complex)))
    assert len(cases) == (sum(9 ** k for k in range(1, PROOF_MAX_RANK + 1))
                          + len(PROOF_POLY_SEEDS) * PROOF_POLY_COUNT)
    path = tmp_path / "doc.json"
    argv = ["verdict", str(path), "--format", "json"]
    # One handle, rewritten in place: truncating on open is slow on some disks.
    with open(path, "w", encoding="utf-8") as doc_file:
        for spec, hs in cases:
            dispatched = Analysis(spec)
            dispatched.homology = tuple(hs)  # the stage's type, and so the verdict's e2
            expected = dispatched.verdict
            assert k_theory_verdict(spec) == expected
            doc_file.seek(0)
            doc_file.write(json.dumps(document_to_dict(GraphDocument(spec=spec))))
            doc_file.truncate()
            doc_file.flush()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            # The verdict carries the E2 page, so this compares the homology too.
            assert json.loads(out.getvalue())["verdict"] == expected.to_dict()
    print(f"PASS proved verdicts: {len(cases)} library and CLI verdicts equal the "
          f"dispatch on computed homology ({time.perf_counter() - t0:.1f}s)")
