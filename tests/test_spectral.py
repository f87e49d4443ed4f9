import itertools
import os
import subprocess
import sys
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evansk import (
    TRIVIAL_GROUP,
    AbelianGroup,
    Analysis,
    IntMatrix,
    SpecValidationError,
    VerdictKind,
    boundary_pattern,
    coadjacencies,
    homology,
    k_theory_verdict,
    monoid_closed_form,
    monoid_spec,
    spec_from_matrices,
    validate,
)
from evansk import snf, spectral
from evansk.corpus import random_polynomial_documents

from oracles import adjugate, det_cofactor
from strategies import specs, wide_monoid_specs

Z2 = AbelianGroup.cyclic(2)
Z3 = AbelianGroup.cyclic(3)


def test_page_from_monoid_rank3():
    groups = homology(Analysis(monoid_spec([3, 5, 7])).complex)
    assert [str(g) for g in groups] == ["Z2", "Z2^2", "Z2", "0"]
    assert Analysis(monoid_spec([3, 5, 7])).homology == tuple(groups)


@pytest.mark.parametrize("spec", [
    monoid_spec([3, 5, 7]),
    spec_from_matrices([[[2, 1], [1, 2]], [[1, 2], [2, 1]]]),
])
def test_verdict_carries_the_page_stage(spec):
    analysis = Analysis(spec)
    assert analysis.verdict.e2 is analysis.homology


def test_trivial_monoid_rank2_page():
    groups = homology(Analysis(monoid_spec([1, 1])).complex)
    assert [g.free_rank for g in groups] == [1, 2, 1]


def test_closed_form_examples():
    # g is the gcd of the absolute values: negative scalars, a zero scalar
    # (gcd(a, 0) = |a|) and a single scalar.
    assert monoid_closed_form([-2, -4, -6]) == [Z2, AbelianGroup(0, (2, 2)), Z2, TRIVIAL_GROUP]
    assert monoid_closed_form([-2, -3]) == [TRIVIAL_GROUP] * 3
    assert monoid_closed_form([-4, 0]) == [
        AbelianGroup.cyclic(4), AbelianGroup.cyclic(4), TRIVIAL_GROUP,
    ]
    z6 = AbelianGroup.cyclic(6)
    assert monoid_closed_form([0, 0, -6]) == [z6, AbelianGroup.cyclic(6, 2), z6, TRIVIAL_GROUP]
    assert monoid_closed_form([-5]) == [AbelianGroup.cyclic(5), TRIVIAL_GROUP]


def test_closed_form_all_zero_matches_snf():
    # Every scalar 0 is the torus: free homology Z^C(k, p), as SNF of the
    # pattern-built complex finds.
    for k in range(1, 7):
        expected = [AbelianGroup.free(comb(k, p)) for p in range(k + 1)]
        assert monoid_closed_form([0] * k) == expected
        assert homology(Analysis(monoid_spec([1] * k)).complex) == expected


def test_closed_form_matches_pipeline_on_mixed_zero():
    spec = monoid_spec([5, 1])  # B = (-4, 0)
    assert homology(Analysis(spec).complex) == monoid_closed_form([-4, 0])


def test_verdict_r1_unimodular():
    spec = spec_from_matrices([[[1, 1], [1, 0]], [[2, 1], [1, 1]]])
    v = k_theory_verdict(spec)
    assert (v.kind, v.rule) == (VerdictKind.TRIVIAL, "R1")
    assert v.k0 == TRIVIAL_GROUP and v.k1 == TRIVIAL_GROUP
    assert all(g.is_trivial for g in v.e2)


def test_verdict_r2_trivial_monoid():
    v = k_theory_verdict(monoid_spec([1, 1, 1, 1]))
    assert (v.kind, v.rule) == (VerdictKind.DETERMINED, "R2")
    assert v.k0 == v.k1 == AbelianGroup.free(8)
    v = k_theory_verdict(monoid_spec([1]))  # a single zero scalar: the circle
    assert (v.rule, v.k0, v.k1) == ("R2", AbelianGroup.free(1), AbelianGroup.free(1))


def test_verdict_r3_coprime_scalars():
    v = k_theory_verdict(monoid_spec([3, 4]))
    assert (v.kind, v.rule) == (VerdictKind.TRIVIAL, "R3")
    v = k_theory_verdict(monoid_spec([1, 3, 4]))  # B = (0, -2, -3): gcd(0, a) = |a|
    assert (v.kind, v.rule) == (VerdictKind.TRIVIAL, "R3")
    # A single scalar's gcd is its absolute value: B = -5 is not coprime.
    v = k_theory_verdict(monoid_spec([6]))
    assert (v.rule, v.k0, v.k1) == ("R5", AbelianGroup.cyclic(5), TRIVIAL_GROUP)


def test_verdict_r4_monoid_rank3():
    v = k_theory_verdict(monoid_spec([3, 5, 7]))
    assert (v.kind, v.rule) == (VerdictKind.SHORT_EXACT_SEQUENCE, "R4")
    assert v.k1 == AbelianGroup(0, (2, 2))
    assert v.ses == (Z2, Z2)
    assert v.k0 is None
    assert [str(g) for g in v.e2] == ["Z2", "Z2^2", "Z2", "0"]
    assert "Z4" in v.commentary and "Z2^2" in v.commentary
    v = k_theory_verdict(monoid_spec([1, 1, 7]))  # B = (0, 0, -6): g = 6
    z6 = AbelianGroup.cyclic(6)
    assert (v.rule, v.k1, v.ses) == ("R4", AbelianGroup.cyclic(6, 2), (z6, z6))
    assert "g = 6" in v.justification


def test_verdict_r5_rank1():
    v = k_theory_verdict(spec_from_matrices([[[0, 1], [1, 0]]]))
    assert (v.kind, v.rule) == (VerdictKind.DETERMINED, "R5")
    assert v.k0 == AbelianGroup.free(1) and v.k1 == AbelianGroup.free(1)


def test_verdict_r6_rank2():
    spec = spec_from_matrices([[[3, 0], [0, 3]], [[5, 0], [0, 5]]])
    v = k_theory_verdict(spec)
    assert (v.kind, v.rule) == (VerdictKind.DETERMINED, "R6")
    assert v.k0 == AbelianGroup(0, (2, 2))
    assert v.k1 == AbelianGroup(0, (2, 2))


def test_verdict_r7_rank3_with_torsion_middle():
    m = [[2, 2], [2, 2]]
    v = k_theory_verdict(spec_from_matrices([m, m, m]))
    assert (v.kind, v.rule) == (VerdictKind.SHORT_EXACT_SEQUENCE, "R7")
    assert v.k1 == AbelianGroup(0, (3, 3))
    assert v.ses == (Z3, Z3)


def test_verdict_r7_upgrades_when_middle_free():
    # Polynomials of A = [[1,2],[1,2]]: no unimodular co-adjacency (dets -2,
    # -8, -11), the top homology vanishes, and H2 is torsion-free, so the
    # collapse argument determines K0 outright.
    spec = spec_from_matrices([[[1, 2], [1, 2]], [[3, 6], [3, 6]], [[4, 8], [4, 8]]])
    groups = homology(Analysis(spec).complex)
    assert groups[3].is_trivial and groups[2].is_torsion_free
    v = k_theory_verdict(spec)
    assert (v.kind, v.rule) == (VerdictKind.DETERMINED, "R7")
    assert v.k0 == groups[0].direct_sum(groups[2])
    assert v.k1 == groups[1].direct_sum(groups[3])


def test_verdict_r8_indeterminate():
    s = [[0, 1], [1, 0]]
    v = k_theory_verdict(spec_from_matrices([s, s, s]))
    assert (v.kind, v.rule) == (VerdictKind.INDETERMINATE, "R8")
    assert v.k0 is None and v.k1 is None and v.ses is None
    assert [g.free_rank for g in v.e2] == [1, 3, 3, 1]


def test_verdict_rank4_monoid_nontrivial_is_indeterminate():
    v = k_theory_verdict(monoid_spec([3, 5, 7, 9]))
    assert (v.kind, v.rule) == (VerdictKind.INDETERMINATE, "R8")
    assert [str(g) for g in v.e2] == ["Z2", "Z2^3", "Z2^3", "Z2", "0"]


@pytest.mark.parametrize("ms", [(3, 5, 7), (3, 3, 9), (5, 5, 5), (5, 9, 13)])
def test_r4_consistent_with_homology_ends(ms):
    # The rank-3 monoid verdict must agree with the independently computed
    # page: K1 with column 1, and the extension ends with columns 0 and 2.
    groups = homology(Analysis(monoid_spec(ms)).complex)
    v = k_theory_verdict(monoid_spec(ms))
    assert v.rule == "R4"
    assert v.k1 == groups[1]
    assert v.ses == (groups[0], groups[2])
    assert groups[3].is_trivial


def test_verdict_rejects_invalid_spec():
    with pytest.raises(SpecValidationError):
        k_theory_verdict(spec_from_matrices([[[1, 1], [1, 0]], [[0, 1], [1, 1]]]))


@pytest.mark.parametrize("spec", [
    monoid_spec([0, 3]),  # a zero row: vertex v is a source
    monoid_spec([3, -2]),  # a negative loop count
], ids=["zero-row", "negative"])
def test_invalid_one_vertex_spec_raises_from_every_page_stage(spec, monkeypatch):
    validations = []

    def counted(s):
        validations.append(s)
        return validate(s)

    monkeypatch.setattr(spectral, "validate", counted)
    analysis = Analysis(spec)
    for stage in ("determinants", "homology", "verdict"):
        with pytest.raises(SpecValidationError):
            getattr(analysis, stage)
    assert len(validations) == 1
    assert list(analysis.seconds) == ["validation"]


one_vertex_loop_counts = st.integers(1, 10**30) | st.sampled_from([1, 2])


@settings(max_examples=150, deadline=None)
@given(st.lists(one_vertex_loop_counts, min_size=1, max_size=6).map(monoid_spec))
def test_one_vertex_determinants_match_bareiss_property(spec):
    # B_i = 1 - m_i, so m_i = 1 gives B_i = 0 and m_i = 2 gives B_i = -1.
    analysis = Analysis(spec)
    assert analysis.determinants == tuple(b.det() for b in coadjacencies(spec))
    assert "coadjacencies" not in analysis.seconds


def test_dispatch_is_total_and_unique():
    specs = [monoid_spec(ms) for ms in itertools.product((1, 2, 3, 8), repeat=2)]
    specs += [monoid_spec(ms) for ms in itertools.product((1, 3, 7), repeat=3)]
    specs += [d.spec for d in random_polynomial_documents(10, seed=3)]
    for spec in specs:
        v = k_theory_verdict(spec)
        assert v.kind in VerdictKind
        assert v.rule in {f"R{i}" for i in range(1, 9)}
        if v.kind is VerdictKind.SHORT_EXACT_SEQUENCE:
            assert v.ses is not None
        if v.kind in (VerdictKind.TRIVIAL, VerdictKind.DETERMINED):
            assert v.k0 is not None and v.k1 is not None



# Which of K0, K1 and the K0 sequence each kind of verdict sets.
KIND_FIELDS = {
    VerdictKind.TRIVIAL: (True, True, False),
    VerdictKind.DETERMINED: (True, True, False),
    VerdictKind.SHORT_EXACT_SEQUENCE: (False, True, True),
    VerdictKind.INDETERMINATE: (False, False, False),
}


@settings(max_examples=80, deadline=None)
@given(specs)
def test_dispatch_is_total_property(spec):
    v = k_theory_verdict(spec)
    assert v.rule in {f"R{i}" for i in range(1, 9)}
    assert (v.k0 is not None, v.k1 is not None, v.ses is not None) == KIND_FIELDS[v.kind]


def test_verdict_serialization_shape():
    v = k_theory_verdict(monoid_spec([3, 5, 7]))
    d = v.to_dict()
    assert d["kind"] == "short_exact_sequence"
    assert d["rule"] == "R4"
    assert d["K0"] is None
    assert d["K1"] == {"free_rank": 0, "torsion": [2, 2], "pretty": "Z2^2"}
    assert d["ses"]["sub"]["pretty"] == "Z2"
    assert len(d["e2"]["columns"]) == 4


@pytest.mark.parametrize("spec", [
    monoid_spec([2, 4]),  # R1
    monoid_spec([1, 1]),  # R2
    monoid_spec([3, 5, 7]),  # R4
    monoid_spec([3, 5, 7, 9]),  # R8
    spec_from_matrices([[[2, 2], [2, 2]]] * 3),  # R7 with a sequence
    *(d.spec for d in random_polynomial_documents(20, seed=5)),
])
def test_verdict_dict_holds_one_dict_per_distinct_group(spec):
    v = k_theory_verdict(spec)
    d = v.to_dict()
    placed = [(g, d[key]) for g, key in ((v.k0, "K0"), (v.k1, "K1")) if g is not None]
    if v.ses is not None:
        placed += [(v.ses[0], d["ses"]["sub"]), (v.ses[1], d["ses"]["quotient"])]
    placed += list(zip(v.e2, d["e2"]["columns"], strict=True))
    ids = {}
    for g, g_dict in placed:
        assert g_dict == g.to_dict()
        ids.setdefault(g, set()).add(id(g_dict))
    assert all(len(same) == 1 for same in ids.values())
    page = spectral.e2_dict(v.e2)
    assert page == d["e2"]
    assert len({id(c) for c in page["columns"]}) == len(set(v.e2))


def test_verdict_r4_large_prime_gcd_commentary():
    g = 10 ** 6 + 3  # prime: the candidates are Zg^2 and Z(g^2)
    v = k_theory_verdict(monoid_spec([g + 1] * 3))
    assert v.rule == "R4"
    assert v.commentary == (
        "possible K0 up to isomorphism (not determined): Z1000003^2, Z1000006000009"
    )


def test_verdict_r4_commentary_for_g_with_many_divisors():
    # g = 2^6 5^6: one candidate Z(g*2^a*5^b) x Z(g/(2^a*5^b)) per pair
    # of exponents, listed in ascending order of the divisor.
    v = k_theory_verdict(monoid_spec([10 ** 6 + 1] * 3))
    names = v.commentary.split(": ", 1)[1].split(", ")
    assert len(names) == 7 * 7
    assert names[:2] == ["Z1000000^2", "Z500000 x Z2000000"]
    assert names[-1] == "Z1000000000000"


def _r4_listing_from_groups(g):
    """R4's listing as each divisor's direct sum writes it, equal names kept once."""
    names = (str(AbelianGroup.cyclic(g * d).direct_sum(AbelianGroup.cyclic(g // d)))
             for d in range(1, g + 1) if g % d == 0)
    return ", ".join(dict.fromkeys(names))


def test_r4_listing_written_from_divisor_pairs_equals_the_direct_sums():
    # 9 699 690 = 2*3*5*7*11*13*17*19, below R4_LIST_BOUND, has 256 divisors.
    for g in [*range(2, 3001), 9_699_690]:
        assert spectral._ses_middle_candidates(g) == _r4_listing_from_groups(g), g


def test_verdict_r4_commentary_lists_up_to_the_bound(monkeypatch):
    # The enumeration is kept through R4_LIST_BOUND; past it the family is named.
    monkeypatch.setattr(spectral, "R4_LIST_BOUND", 12)
    listed = k_theory_verdict(monoid_spec([13] * 3))  # g = 12
    assert listed.commentary == (
        "possible K0 up to isomorphism (not determined): "
        "Z12^2, Z6 x Z24, Z4 x Z36, Z3 x Z48, Z2 x Z72, Z144"
    )
    named = k_theory_verdict(monoid_spec([14] * 3))  # g = 13
    assert named.commentary == (
        "possible K0 up to isomorphism (not determined): "
        "Z(g*d) x Z(g/d) for each divisor d of g = 13"
    )


def test_verdict_r4_on_a_huge_gcd_returns_in_bounded_time():
    # Scanning d = 1..g would never finish: g = 10**12 and a 4000-digit g.
    script = (
        "import time\n"
        "from evansk import k_theory_verdict, monoid_spec\n"
        "for g in (10**12, 10**3999 + 7):\n"
        "    start = time.perf_counter()\n"
        "    v = k_theory_verdict(monoid_spec([g + 1, 2 * g + 1, 3 * g + 1]))\n"
        "    print(v.rule, time.perf_counter() - start, v.commentary.endswith(f'g = {g}'))\n"
    )
    env = dict(os.environ)
    src = str(Path(spectral.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(rule, named) for rule, _, named in lines] == [("R4", "True")] * 2
    assert all(float(seconds) < 1 for _, seconds, _ in lines)


def _contraction(pattern, i: int, adj: list[list[int]], rows: int, cols: int) -> IntMatrix:
    """``h[col, row] = sign * adj`` for each entry ``(row, col, i, sign)``
    of a boundary pattern: the transposed signed deletions of coordinate
    ``i``, as a map from degree ``p`` (``cols``) to degree ``p + 1``."""
    n = len(adj)
    data = [[0] * cols for _ in range(rows)]
    for row, col, coordinate, sign in pattern:
        if coordinate == i:
            for r in range(n):
                data[col * n + r][row * n:row * n + n] = [sign * x for x in adj[r]]
    return IntMatrix.from_rows(data)


@settings(max_examples=60, deadline=None)
@given(specs)
def test_adjugate_contracts_to_determinant_property(spec):
    # d h + h d = det(B_i) * 1 in every degree, exactly: the homotopy behind
    # the vanishing proof, built from cofactors alone.
    analysis = Analysis(spec)
    cc, k = analysis.complex, spec.rank
    for i, b in enumerate(analysis.coadjacencies, start=1):
        rows = b.to_lists()
        det, adj = det_cofactor(rows), adjugate(rows)
        h = [_contraction(boundary_pattern(p + 1, k), i, adj, cc.ranks[p + 1], cc.ranks[p])
             for p in range(k)]
        for p in range(k + 1):
            r = cc.ranks[p]
            total = IntMatrix(r, r, [[0] * r] * r)
            if p < k:
                total = total + cc.boundary(p + 1) @ h[p]
            if p > 0:
                total = total + h[p - 1] @ cc.boundary(p)
            assert total == IntMatrix.identity(cc.ranks[p]).scaled(det), (i, p)


@settings(max_examples=60, deadline=None)
@given(specs)
def test_annihilator_kills_every_group_property(spec):
    # D = gcd(det B_i) annihilates every H_p of the pattern-built complex:
    # when D != 0 each group is finite and each torsion order divides D.
    analysis = Analysis(spec)
    bs = coadjacencies(spec)
    assert analysis.annihilator == gcd(*(det_cofactor(b.to_lists()) for b in bs))
    d = analysis.annihilator
    for group in homology(Analysis(spec).complex):
        if d:
            assert group.free_rank == 0 and all(d % t == 0 for t in group.torsion)
    h0_zero = homology(Analysis(spec).complex)[0].is_trivial
    analysis.homology
    assert ("complex" in analysis.seconds) == (d != 1 and not spec.is_monoid and not h0_zero)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verdict_page_equals_snf_page_and_h0_zero_builds_no_complex(seed):
    # The verdict path's page against Smith normal form of every boundary
    # of the built complex.  H_0 = 0 proves the page zero from d_1's
    # divisors alone, so those documents run no complex stage.
    h0_zero = []
    for doc in random_polynomial_documents(1000, seed):
        analysis = Analysis(doc.spec)
        hs = tuple(homology(Analysis(doc.spec).complex))
        assert analysis.homology == hs, doc.name
        routed = analysis.annihilator != 1 and not doc.spec.is_monoid
        assert ("complex" in analysis.seconds) == (routed and not hs[0].is_trivial), doc.name
        if routed and hs[0].is_trivial:
            assert all(g.is_trivial for g in hs), doc.name
            h0_zero.append(doc.name)
    assert h0_zero
    if seed == 1:
        assert "poly-1-363" in h0_zero


def test_h0_zero_page_pinned():
    # poly-1-363: D = 2 and rank 2, so R6 applies to an all-zero page that
    # d_1's divisors prove, with no complex built.
    (doc,) = [d for d in random_polynomial_documents(364, 1) if d.name == "poly-1-363"]
    analysis = Analysis(doc.spec)
    assert (doc.spec.rank, doc.spec.num_vertices, analysis.annihilator) == (2, 2, 2)
    assert analysis.verdict.rule == "R6"
    assert analysis.verdict.e2 == (TRIVIAL_GROUP,) * 3
    assert "complex" not in analysis.seconds


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coprime_determinants_give_zero_homology(seed):
    proved = 0
    for doc in random_polynomial_documents(300, seed):
        bs = coadjacencies(doc.spec)
        if gcd(*(det_cofactor(b.to_lists()) for b in bs)) == 1:
            proved += 1
            assert all(g.is_trivial for g in homology(Analysis(doc.spec).complex)), doc.name
    assert proved > 100


@pytest.mark.parametrize("ms, rule", [
    ([2] + [3] * 29, "R1"),  # B_1 = -1
    ([3, 4] * 15, "R3"),  # dets -2 and -3
])
def test_rank_30_vanishing_builds_no_complex(ms, rule, monkeypatch):
    # Degree 15 alone would have C(30, 15) ~ 1.55e8 columns.
    def refuse(*args, **kwargs):
        raise AssertionError("the determinants prove this page zero")

    monkeypatch.setattr(spectral, "build_complex", refuse)
    v = k_theory_verdict(monoid_spec(ms))
    assert (v.kind, v.rule) == (VerdictKind.TRIVIAL, rule)
    assert v.e2 == (TRIVIAL_GROUP,) * 31


@settings(max_examples=120, deadline=None)
@given(wide_monoid_specs)
def test_one_vertex_closed_form_matches_snf_property(spec):
    # The production page (proof or Künneth closed form, no complex) against
    # Smith normal form of the pattern-built complex.
    analysis = Analysis(spec)
    hs = tuple(homology(Analysis(spec).complex))
    assert analysis.homology == hs
    assert "complex" not in analysis.seconds
    dispatched = Analysis(spec)
    dispatched.homology = hs  # the rule dispatch on the SNF groups
    assert analysis.verdict == dispatched.verdict


@pytest.mark.parametrize("ms, rule, column", [
    ([3] * 30, "R8", lambda p: AbelianGroup.cyclic(2, comb(29, p))),  # g = 2
    ([1] * 30, "R2", lambda p: AbelianGroup.free(comb(30, p))),  # the torus
])
def test_rank_30_one_vertex_page_builds_no_complex(ms, rule, column, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-vertex page comes from the closed form")

    monkeypatch.setattr(spectral, "build_complex", refuse)
    v = k_theory_verdict(monoid_spec(ms))
    assert v.rule == rule
    assert v.e2 == tuple(column(p) for p in range(31))


def test_assigned_stage_is_not_timed():
    spec = monoid_spec([3, 5, 7])
    analysis = Analysis(spec)
    analysis.homology = Analysis(spec).homology
    assert analysis.verdict.rule == "R4"
    assert list(analysis.seconds) == [
        "validation", "determinants", "annihilator", "verdict",
    ]
    assert all(t >= 0 for t in analysis.seconds.values())


def _circulant(n, coeffs):
    """q(P) for the n-cycle's shift P, q the coefficient list."""
    return [[coeffs[(c - r) % n] for c in range(n)] for r in range(n)]


def test_power_of_two_annihilator_takes_the_packed_kernel(monkeypatch):
    # D = 2**e: every boundary's divisors come from two_power_divisors, and
    # the page equals Smith normal form's; other D still eliminate over Z.
    circulants = [spec_from_matrices([_circulant(4, c) for c in ([0, 1, 1, 1], [2, 0, 1, 0],
                                                                  [1, 0, 0, 2])]),
                  spec_from_matrices([_circulant(6, c) for c in ([1, 1, 0, 1, 0, 0],
                                                                  [0, 2, 0, 0, 1, 0],
                                                                  [0, 0, 1, 1, 1, 0])])]
    routed = [d.spec for d in random_polynomial_documents(300, 1)
              if not d.spec.is_monoid and Analysis(d.spec).annihilator != 1]
    specs = circulants + routed
    expected = [tuple(homology(Analysis(s).complex)) for s in specs]
    calls = []
    monkeypatch.setattr(spectral, "elementary_divisors",
                        lambda m: calls.append(m) or snf.elementary_divisors(m))
    two_power = 0
    for spec, hs in zip(specs, expected):
        analysis = Analysis(spec)
        before = len(calls)
        assert analysis.homology == hs
        g = analysis.annihilator
        if g and not g & (g - 1):
            two_power += 1
            assert len(calls) == before, spec
        else:
            assert len(calls) > before, spec
    assert [Analysis(s).annihilator for s in circulants] == [16, 4]
    assert two_power >= 20
