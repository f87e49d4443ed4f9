import random

import pytest

from evansk import corpus, dumps_documents, validate
from evansk.corpus import (
    CorpusError,
    companion_matrix,
    evaluate_polynomial,
    exhaustive_monoid_documents,
    monoid_document,
    polynomial_family_document,
    random_polynomial_documents,
)
from evansk.intmat import IntMatrix
from evansk.kgraph import coadjacencies, monoid_spec
from evansk.limits import MAX_DOCUMENTS, MAX_PRODUCT_MADDS, MAX_RANK, LimitError


def test_monoid_document_naming():
    doc = monoid_document([3, 5])
    assert doc.name == "monoid-3-5"
    assert doc.spec.rank == 2
    assert validate(doc.spec).ok


def test_exhaustive_count():
    docs = exhaustive_monoid_documents(2, range(2, 5))
    assert len(docs) == 9
    assert len({d.name for d in docs}) == 9
    assert all(validate(d.spec).ok for d in docs)


def test_exhaustive_rejects_bad_parameters():
    with pytest.raises(CorpusError):
        exhaustive_monoid_documents(0, range(1, 3))
    with pytest.raises(CorpusError):
        exhaustive_monoid_documents(2, [0, 1])


def test_document_budget_checked_from_the_estimate(monkeypatch):
    # gen monoid --k 6 would make 531 441 documents and run out of memory
    # first; the refusal comes before any document is made.
    def refuse(*args, **kwargs):
        raise AssertionError("the budget is checked before generating")

    monkeypatch.setattr(corpus, "monoid_document", refuse)
    monkeypatch.setattr(corpus, "polynomial_family_document", refuse)
    for k, values, estimate in [
        (6, range(1, 10), "9^6"),
        (10**12, range(1, 10), "9^1000000000000"),  # no huge power is computed
        (1, range(1, 10**12), "999999999999^1"),  # no loop count is scanned
    ]:
        with pytest.raises(LimitError) as exc:
            exhaustive_monoid_documents(k, values)
        assert str(exc.value) == f"would generate {estimate} documents, over the limit of 100000"
    with pytest.raises(LimitError, match="^would generate 100001 documents, over the limit "):
        random_polynomial_documents(MAX_DOCUMENTS + 1, seed=1)

    monkeypatch.setattr(corpus, "monoid_document", lambda ms: ms)
    assert len(exhaustive_monoid_documents(5, range(1, 11))) == MAX_DOCUMENTS == 10**5


def test_rank_over_limit_refused_before_generating(monkeypatch):
    # One loop count passes the document budget, and --max-rank only bounds
    # the draw; a rank over MAX_RANK is refused before any matrix is made,
    # with the message KGraphSpec gives, and the earlier checks come first.
    def refuse(*args, **kwargs):
        raise AssertionError("the rank is checked before generating")

    monkeypatch.setattr(corpus, "monoid_document", refuse)
    monkeypatch.setattr(corpus, "evaluate_polynomial", refuse)
    with pytest.raises(LimitError) as spec_exc:
        monoid_spec([1] * 1001)
    with pytest.raises(LimitError) as exc:
        exhaustive_monoid_documents(1001, [1])
    assert str(exc.value) == str(spec_exc.value) == f"rank must be <= {MAX_RANK}, got 1001"
    with pytest.raises(LimitError, match="^rank must be <= 1000, got 100000000$"):
        exhaustive_monoid_documents(10**8, [1])
    with pytest.raises(CorpusError, match="^loop counts below 1 "):
        exhaustive_monoid_documents(10**8, [0])
    with pytest.raises(LimitError, match="^would generate 2"):
        exhaustive_monoid_documents(10**8, [1, 2])
    with pytest.raises(LimitError, match="^rank must be <= 1000, got 79542917$"):
        random_polynomial_documents(1, seed=3, max_rank=10**8)

    monkeypatch.setattr(corpus, "monoid_document", lambda ms: ms)
    assert exhaustive_monoid_documents(MAX_RANK, [1]) == [(1,) * MAX_RANK]


def test_vertices_over_limit_refused_before_drawing_entries(monkeypatch):
    # --max-vertices 100000 with seed 3 draws n = 31 191 and k = 2; the spec
    # check sees them before any of the ~10^9 base entries is drawn, and it
    # draws no number itself, so every corpus that passes is unchanged.
    draws = []

    class Counted(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(corpus.random, "Random", Counted)
    with pytest.raises(LimitError) as info:
        random_polynomial_documents(1, seed=3, max_vertices=100_000)
    assert draws == [(1, 100_000), (1, 4)]
    assert str(info.value) == (f"the spec's validation and determinants would take "
                               f"{4 * 31_191 ** 3} multiply-adds, over the limit of "
                               f"{MAX_PRODUCT_MADDS}")


def test_polynomial_family_example():
    doc = polynomial_family_document([[1, 1], [1, 0]], [[0, 1], [0, 0, 1]])
    m1, m2 = doc.spec.adjacency
    assert m1.to_lists() == [[1, 1], [1, 0]]
    assert m2.to_lists() == [[2, 1], [1, 1]]
    assert validate(doc.spec).ok


def test_polynomial_evaluation():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    assert evaluate_polynomial([2], a).to_lists() == [[2, 0], [0, 2]]
    assert evaluate_polynomial([1, 0, 1], a).to_lists() == [[3, 1], [1, 2]]


def test_polynomial_evaluation_takes_degree_minus_one_products(monkeypatch):
    # Horner's rule from c_d A + c_(d-1) I: a degree-d polynomial takes d - 1
    # products, none of them with the zero matrix, and trailing zero
    # coefficients take none.
    products = []
    matmul = IntMatrix.__matmul__

    def counted(x, y):
        products.append(x)
        return matmul(x, y)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    a = IntMatrix.from_rows([[1, 1, 0], [1, 0, 2], [0, 1, 1]])
    power = IntMatrix.identity(3)
    powers = [power]
    for _ in range(4):
        power = matmul(power, a)
        powers.append(power)
    for coeffs, degree in [([], 0), ([0], 0), ([2], 0), ([3, 0, 0], 0), ([0, 1], 1),
                           ([1, 2], 1), ([0, 0, 1], 2), ([2, 0, 1, 0], 2),
                           ([1, 2, 0, 1], 3), ([0, 0, 0, 0, 2], 4)]:
        products.clear()
        want = IntMatrix.zeros(3, 3)
        for c, pw in zip(coeffs, powers):
            want = want + pw.scaled(c)
        assert evaluate_polynomial(coeffs, a) == want, coeffs
        assert len(products) == max(degree - 1, 0), coeffs
        assert IntMatrix.zeros(3, 3) not in products


def test_companion_matrix_shape_and_charpoly():
    c = companion_matrix([1, 1])
    assert c.to_lists() == [[1, 1], [1, 0]]
    # det(I - C) = 1 - (sum of coefficients)
    for coeffs in ([2], [1, 1], [0, 2], [1, 0, 1]):
        c = companion_matrix(coeffs)
        n = c.rows
        assert (IntMatrix.identity(n) + c.scaled(-1)).det() == 1 - sum(coeffs)


def test_zero_polynomial_rejected_with_witness():
    with pytest.raises(CorpusError) as info:
        polynomial_family_document([[1, 1], [1, 0]], [[0, 1], [0]])
    assert "polynomial 2" in str(info.value)
    assert "zero row" in str(info.value)


def test_zero_row_base_rejected():
    with pytest.raises(CorpusError) as info:
        polynomial_family_document([[0, 0], [1, 1]], [[0, 1]])
    assert "zero row 0" in str(info.value)


def test_negative_inputs_rejected():
    with pytest.raises(CorpusError):
        polynomial_family_document([[1, -1], [1, 1]], [[0, 1]])
    with pytest.raises(CorpusError):
        polynomial_family_document([[1, 1], [1, 1]], [[-1, 1]])


def test_random_documents_all_valid():
    docs = random_polynomial_documents(25, seed=11)
    assert len(docs) == 25
    for doc in docs:
        assert validate(doc.spec).ok
        assert doc.spec.rank <= 4 and doc.spec.num_vertices <= 4


def test_random_documents_deterministic():
    first = random_polynomial_documents(10, seed=7)
    second = random_polynomial_documents(10, seed=7)
    assert dumps_documents(first) == dumps_documents(second)
    other = random_polynomial_documents(10, seed=8)
    assert dumps_documents(first) != dumps_documents(other)


def test_unimodular_base_has_unimodular_coadjacency():
    docs = random_polynomial_documents(15, seed=13, unimodular_base=True)
    for doc in docs:
        assert coadjacencies(doc.spec)[0].det() in (1, -1)
        assert validate(doc.spec).ok
