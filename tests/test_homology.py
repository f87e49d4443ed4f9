import random

import pytest
from hypothesis import given, settings, strategies as st

from evansk import (
    TRIVIAL_GROUP,
    AbelianGroup,
    Analysis,
    ChainComplex,
    ChainComplexError,
    IntMatrix,
    homology,
    monoid_spec,
    smith_normal_form,
    spec_from_matrices,
)

from oracles import permute_coordinates, random_unimodular
from strategies import specs


def test_monoid_rank2_example():
    groups = homology(Analysis(monoid_spec([3, 5])).complex)
    assert groups == [AbelianGroup.cyclic(2), AbelianGroup.cyclic(2), TRIVIAL_GROUP]


def test_trivial_monoid_rank3():
    groups = homology(Analysis(monoid_spec([1, 1, 1])).complex)
    assert [g.free_rank for g in groups] == [1, 3, 3, 1]
    assert all(g.is_torsion_free for g in groups)


def test_unimodular_coadjacency_kills_homology():
    groups = homology(Analysis(spec_from_matrices([[[1, 1], [1, 0]]])).complex)
    assert groups == [TRIVIAL_GROUP, TRIVIAL_GROUP]


def test_rank1_swap_graph():
    groups = homology(Analysis(spec_from_matrices([[[0, 1], [1, 0]]])).complex)
    assert groups == [AbelianGroup.free(1), AbelianGroup.free(1)]


def test_top_group_is_torsion_free():
    for ms in [(2,), (3, 5), (3, 5, 7), (2, 4, 6, 8)]:
        groups = homology(Analysis(monoid_spec(ms)).complex)
        assert groups[-1].is_torsion_free


def test_euler_characteristic():
    for ms in [(3, 5), (2, 3, 4), (3, 5, 7, 9)]:
        cc = Analysis(monoid_spec(ms)).complex
        groups = homology(cc)
        chi_ranks = sum((-1) ** p * r for p, r in enumerate(cc.ranks))
        chi_homology = sum((-1) ** p * g.free_rank for p, g in enumerate(groups))
        assert chi_ranks == chi_homology



@settings(max_examples=60, deadline=None)
@given(specs)
def test_euler_characteristic_property(spec):
    cc = Analysis(spec).complex
    groups = homology(cc)
    chi_ranks = sum((-1) ** p * r for p, r in enumerate(cc.ranks))
    assert chi_ranks == sum((-1) ** p * g.free_rank for p, g in enumerate(groups))


def test_basis_change_invariance():
    rng = random.Random(99)
    cc = Analysis(monoid_spec([3, 5, 7])).complex
    base = homology(cc)
    for _ in range(5):
        transforms = [random_unimodular(r, rng) for r in cc.ranks]
        conjugated = ChainComplex(
            cc.ranks,
            tuple(
                transforms[p - 1][0] @ cc.boundary(p) @ transforms[p][1]
                for p in range(1, cc.length + 1)
            ),
        )
        assert homology(conjugated) == base


def test_permuted_coordinates_same_homology():
    spec = monoid_spec([3, 5, 7])
    base = homology(Analysis(spec).complex)
    for sigma in [(2, 1, 3), (3, 1, 2), (3, 2, 1)]:
        assert homology(Analysis(permute_coordinates(spec, sigma)).complex) == base



@settings(max_examples=40, deadline=None)
@given(st.data(), specs)
def test_permuted_coordinates_same_homology_property(data, spec):
    sigma = data.draw(st.permutations(range(1, spec.rank + 1)))
    permuted = permute_coordinates(spec, sigma)
    assert homology(Analysis(permuted).complex) == homology(Analysis(spec).complex)


def test_group_formatting():
    assert str(TRIVIAL_GROUP) == "0"
    assert str(AbelianGroup.free(1)) == "Z"
    assert str(AbelianGroup.free(4)) == "Z^4"
    assert str(AbelianGroup(0, (2, 2))) == "Z2^2"
    assert str(AbelianGroup(2, (2, 4))) == "Z^2 x Z2 x Z4"
    assert str(AbelianGroup(0, (2, 2, 6))) == "Z2^2 x Z6"


def test_group_invariants_enforced():
    for args, message in [
        ((-1,), "free rank must be nonnegative, got -1"),
        ((0, (1,)), "torsion orders must be >= 2, got 1"),
        ((0, (2, 2, 0)), "torsion orders must be >= 2, got 0"),
        ((0, (4, 2)), "torsion orders must form a divisibility chain: (4, 2)"),
        ((0, (2, 2, 3, 3)), "torsion orders must form a divisibility chain: (2, 2, 3, 3)"),
    ]:
        with pytest.raises(ValueError) as exc:
            AbelianGroup(*args)
        assert str(exc.value) == message


def test_group_direct_sum():
    assert AbelianGroup.free(1).direct_sum(AbelianGroup.cyclic(2)) == AbelianGroup(1, (2,))
    # Z6 + Z4 = Z2 + Z12 in invariant-factor form
    assert AbelianGroup.cyclic(6).direct_sum(AbelianGroup.cyclic(4)) == AbelianGroup(0, (2, 12))
    assert AbelianGroup.cyclic(2).direct_sum(AbelianGroup.cyclic(2)) == AbelianGroup(0, (2, 2))
    assert TRIVIAL_GROUP.direct_sum(TRIVIAL_GROUP) == TRIVIAL_GROUP


def test_cyclic_constructor():
    assert AbelianGroup.cyclic(0, 3) == AbelianGroup.free(3)
    assert AbelianGroup.cyclic(1, 5) == TRIVIAL_GROUP
    assert AbelianGroup.cyclic(-4) == AbelianGroup(0, (4,))
    assert AbelianGroup.cyclic(-1, 3) == TRIVIAL_GROUP
    assert AbelianGroup.cyclic(-2) == AbelianGroup(0, (2,))


def test_group_to_dict():
    assert AbelianGroup(1, (2,)).to_dict() == {
        "free_rank": 1,
        "torsion": [2],
        "pretty": "Z x Z2",
    }
    assert AbelianGroup.cyclic(2, 2).direct_sum(AbelianGroup.cyclic(6)).to_dict() == {
        "free_rank": 0,
        "torsion": [2, 2, 6],
        "pretty": "Z2^2 x Z6",
    }
    assert TRIVIAL_GROUP.to_dict() == {"free_rank": 0, "torsion": [], "pretty": "0"}


def test_group_runs_of_invariant_factors():
    group = AbelianGroup(3, (2, 2, 6, 6, 6, 12))
    assert group.runs == ((2, 2), (6, 3), (12, 1))
    assert group.torsion == (2, 2, 6, 6, 6, 12)
    assert str(group) == "Z^3 x Z2^2 x Z6^3 x Z12"
    assert AbelianGroup(0, (2, 2, 2)) == AbelianGroup.cyclic(2, 3)
    assert hash(AbelianGroup(0, (5,) * 4)) == hash(AbelianGroup.cyclic(-5, 4))
    assert AbelianGroup(0, (2, 2)) != AbelianGroup(0, (2, 4))
    assert AbelianGroup.cyclic(7, 0) == TRIVIAL_GROUP


def test_huge_cyclic_power_is_one_run():
    # 10**12 summands as one (order, multiplicity) pair: built, compared
    # and printed without expanding.
    group = AbelianGroup.cyclic(2, 10**12)
    assert group.runs == ((2, 10**12),)
    assert str(group) == "Z2^1000000000000"
    assert group == AbelianGroup.cyclic(-2, 10**12)
    assert group != AbelianGroup.cyclic(2, 10**12 + 1)
    assert not group.is_trivial and not group.is_torsion_free


def test_zero_length_complex():
    cc = ChainComplex((3,), ())
    assert homology(cc) == [AbelianGroup.free(3)]


def test_homology_degrees_count():
    groups = homology(Analysis(monoid_spec([2, 3, 4, 5])).complex)
    assert len(groups) == 5


def test_constructor_catches_bad_products():
    with pytest.raises(ChainComplexError) as info:
        ChainComplex((1, 1, 1), (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])))
    assert (info.value.degree, info.value.value) == (1, 6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 60), max_size=6), st.lists(st.integers(0, 60), max_size=6))
def test_direct_sum_matches_snf_of_block_diagonal(xs, ys):
    def group(orders):
        g = TRIVIAL_GROUP
        for order in orders:
            g = g.direct_sum(AbelianGroup.cyclic(order))
        return g

    diag = [[x if i == j else 0 for j in range(len(xs + ys))] for i, x in enumerate(xs + ys)]
    divisors = smith_normal_form(IntMatrix(len(diag), len(diag), diag)).divisors
    expected = AbelianGroup(divisors.count(0), tuple(d for d in divisors if d > 1))
    assert group(xs).direct_sum(group(ys)) == expected
