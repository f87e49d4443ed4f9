"""Test-corpus generators, shipped so users can reproduce the acceptance runs.

Two kinds of documents:

* ``monoid``: single-vertex specs from explicit loop counts, exhaustively
  over a range.
* ``polynomial-family``: ``M_i = q_i(A)`` for a nonnegative base matrix
  ``A`` with no zero row and nonzero polynomials ``q_i`` with nonnegative
  coefficients.  Powers of a fixed matrix commute, so the family commutes
  by construction, and any nonzero such polynomial keeps every row
  nonzero.

Random generation is driven entirely by a seeded ``random.Random``, so a
fixed seed reproduces the same documents byte for byte.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence

from . import limits
from .documents import GraphDocument
from .intmat import IntMatrix
from .kgraph import KGraphSpec, monoid_spec, validate


class CorpusError(ValueError):
    """Generator parameters produce an invalid spec; the message carries a witness."""


def monoid_document(ms: Sequence[int], name: str | None = None) -> GraphDocument:
    if name is None:
        name = "monoid-" + "-".join(str(m) for m in ms)
    return GraphDocument(spec=monoid_spec(ms), name=name)


def exhaustive_monoid_documents(k: int, m_values: Sequence[int]) -> list[GraphDocument]:
    """All rank-``k`` single-vertex specs with loop counts from ``m_values``."""
    if k < 1:
        raise CorpusError(f"rank must be >= 1, got {k}")
    limits.check_documents(len(m_values), k)
    if any(m < 1 for m in m_values):
        raise CorpusError("loop counts below 1 are not source-free")
    limits.check_spec(k, 1)  # with one loop count the budget sees one document
    return [monoid_document(ms) for ms in itertools.product(m_values, repeat=k)]


def evaluate_polynomial(coeffs: Sequence[int], a: IntMatrix) -> IntMatrix:
    """``coeffs[0] + coeffs[1] x + ...`` evaluated at the matrix ``a``, by
    Horner's rule from ``c_d a + c_(d-1)``: ``d - 1`` products at degree ``d``."""
    identity = IntMatrix.identity(a.rows)
    d = max((i for i, c in enumerate(coeffs) if c), default=0)  # trailing zeros add nothing
    if d == 0:
        return identity.scaled(coeffs[0] if coeffs else 0)
    result = a.scaled(coeffs[d]) + identity.scaled(coeffs[d - 1])
    for c in reversed(coeffs[:d - 1]):
        result = result @ a + identity.scaled(c)
    return result


def companion_matrix(coeffs: Sequence[int]) -> IntMatrix:
    """Companion matrix with characteristic polynomial
    ``x^n - coeffs[0] x^(n-1) - ... - coeffs[n-1]``."""
    n = len(coeffs)
    rows = [list(coeffs)]
    for i in range(1, n):
        rows.append([1 if j == i - 1 else 0 for j in range(n)])
    return IntMatrix(n, n, rows)


def polynomial_family_document(
    base: Sequence[Sequence[int]] | IntMatrix,
    polynomials: Sequence[Sequence[int]],
    name: str | None = None,
) -> GraphDocument:
    """Build ``M_i = q_i(A)`` on vertices ``v0..v(n-1)``; reject anything not source-free."""
    a = base if isinstance(base, IntMatrix) else IntMatrix.from_rows(base)
    if a.rows != a.cols:
        raise CorpusError(f"base matrix must be square, got {a.shape()}")
    n = a.rows
    for r in range(n):
        if all(x == 0 for x in a.row(r)):
            raise CorpusError(f"base matrix has zero row {r}; not source-free")
        if any(x < 0 for x in a.row(r)):
            raise CorpusError(f"base matrix has a negative entry in row {r}")
    mats = []
    for idx, coeffs in enumerate(polynomials, start=1):
        if any(c < 0 for c in coeffs):
            raise CorpusError(f"polynomial {idx} has a negative coefficient")
        m = evaluate_polynomial(coeffs, a)
        for r in range(n):
            if all(x == 0 for x in m.row(r)):
                raise CorpusError(
                    f"polynomial {idx} evaluates to a matrix with zero row {r}; "
                    "not source-free"
                )
        mats.append(m)
    vertices = tuple(f"v{i}" for i in range(n))
    spec = KGraphSpec(rank=len(mats), vertices=vertices, adjacency=tuple(mats))
    report = validate(spec)
    if not report.ok:
        raise CorpusError("generated spec failed validation:\n" + report.summary())
    return GraphDocument(spec=spec, name=name)


def random_polynomial_documents(
    count: int,
    seed: int,
    *,
    max_vertices: int = 4,
    max_rank: int = 4,
    unimodular_base: bool = False,
) -> list[GraphDocument]:
    """Seed-reproducible polynomial families.

    With ``unimodular_base`` the base matrix is a companion matrix whose
    characteristic polynomial has coefficient sum 2, so evaluating it at 1
    gives -1; the first polynomial is then ``x``, making the first
    co-adjacency matrix unimodular.
    """
    if count < 0 or max_vertices < 1 or max_rank < 1:
        raise CorpusError(
            "need count >= 0, max-vertices >= 1 and max-rank >= 1, got "
            f"{count}, {max_vertices} and {max_rank}"
        )
    limits.check_documents(count)
    rng = random.Random(seed)
    prefix = "poly-uni" if unimodular_base else "poly"
    docs = []
    for idx in range(count):
        n = rng.randint(1, max_vertices)
        k = rng.randint(1, max_rank)
        limits.check_spec(k, n)  # refused before any entry is drawn
        if unimodular_base:
            coeffs = [0] * n
            coeffs[rng.randrange(n)] += 1
            coeffs[rng.randrange(n)] += 1
            base = companion_matrix(coeffs)
        else:
            rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            for r in range(n):
                if all(x == 0 for x in rows[r]):
                    rows[r][rng.randrange(n)] = rng.randint(1, 2)
            base = IntMatrix.from_rows(rows)
        polynomials = []
        for i in range(k):
            if unimodular_base and i == 0:
                polynomials.append([0, 1])
                continue
            cs = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
            if all(c == 0 for c in cs):
                cs[rng.randrange(len(cs))] = rng.randint(1, 2)
            polynomials.append(cs)
        docs.append(
            polynomial_family_document(base, polynomials, name=f"{prefix}-{seed}-{idx}")
        )
    return docs
