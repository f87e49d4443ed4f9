"""The Evans chain complex of a family of commuting matrices.

Given ``k`` commuting ``n x n`` integer matrices ``B_1, ..., B_k`` (for a
k-graph, its co-adjacency matrices ``B_i = I - M_i^T``), degree ``p`` of
the complex is one copy of ``Z^n`` per strictly increasing ``p``-tuple, in
the canonical order of :mod:`evansk.indexsets`.  The boundary sends the
block of tuple ``a`` to the block of ``a`` with its ``i``-th coordinate
deleted, through ``(-1)^(i+1) B_{a_i}``.

Every boundary is filled in from that signed-deletion pattern,
:func:`~evansk.indexsets.boundary_pattern`, which depends on ``(k, p)``
only.  The paper presents the same map as a block recursion on the top
coordinate ``j``:

.. code-block:: text

    d[j, p] = | d[j-1, p-1]        0        |
              | (-1)^(p+1) B_j   d[j-1, p]  |

where the top block row is empty for p = 1, the right block column is
empty for p = j, the base case is d[1, 1] = B_1, and the signed block is
B_j repeated once per tuple ending in j (dropping the trailing j maps
those tuples onto the degree ``p - 1`` tuples avoiding j, in order, so
the block is literally block-diagonal).  The pattern satisfies this
recursion entry for entry; the test suite builds the recursion, and the
iterated tensor of the two-term complexes ``0 -> Z -(B_j)-> Z -> 0`` for
one vertex, independently and compares them with every boundary built
here.

The blocks of ``d_p d_(p+1)`` are the commutators ``B_j B_i - B_i B_j``,
so the ``d o d = 0`` certificate of a :class:`ChainComplex` is the check
that the ``B_i`` commute.  No graph is validated here:
:class:`evansk.spectral.Analysis` does that before it builds a complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from collections.abc import Sequence

from . import limits
from .indexsets import boundary_pattern
from .intmat import IntMatrix
from .kgraph import KGraphSpec, coadjacencies


class ChainComplexError(ValueError):
    """The boundary maps fail d o d = 0; carries the offending entry."""

    def __init__(self, degree: int, row: int, col: int, value: int):
        limits.check_digits((abs(value),))  # LimitError instead, if the entry cannot be written
        self.degree = degree
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"d_{degree} @ d_{degree + 1} is nonzero: entry ({row},{col}) = {value}"
        )


@dataclass(frozen=True)
class ChainComplex:
    """A finite free chain complex over the integers.

    ``ranks`` lists degrees ``0..length``; ``boundaries[p-1]`` is the map
    from degree ``p`` to degree ``p - 1`` and has shape
    ``ranks[p-1] x ranks[p]``.  Construction checks the shapes, then
    ``d o d = 0`` (:class:`ChainComplexError`).
    """

    ranks: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]

    def __post_init__(self):
        if len(self.boundaries) != len(self.ranks) - 1:
            raise ValueError("boundaries must list degrees 1..length, ranks 0..length")
        for p in range(1, self.length + 1):
            b = self.boundaries[p - 1]
            want = (self.ranks[p - 1], self.ranks[p])
            if b.shape() != want:
                raise ValueError(f"boundary {p} has shape {b.shape()}, expected {want}")
        if (witness := differential_product_witness(self)) is not None:
            raise ChainComplexError(*witness)

    @property
    def length(self) -> int:
        """The top degree, ``len(ranks) - 1``."""
        return len(self.ranks) - 1

    def boundary(self, p: int) -> IntMatrix:
        """The degree-``p`` boundary, ``1 <= p <= length``."""
        if not 1 <= p <= self.length:
            raise ValueError(f"degree {p} out of range 1..{self.length}")
        return self.boundaries[p - 1]


def differential_product_witness(cc: ChainComplex) -> tuple[int, int, int, int] | None:
    """First nonzero entry of any consecutive product, or None if d o d = 0."""
    for p in range(1, cc.length):
        prod = cc.boundary(p) @ cc.boundary(p + 1)
        for r in range(prod.rows):
            for c, x in enumerate(prod.row(r)):
                if x:
                    return (p, r, c, x)
    return None


def _from_pattern(bs: Sequence[IntMatrix], n: int, k: int, p: int) -> IntMatrix:
    rows, cols = comb(k, p - 1) * n, comb(k, p) * n
    plus = [[b.row(r) for r in range(n)] for b in bs]
    minus = [[tuple(-x for x in row) for row in block] for block in plus]
    data = [[0] * cols for _ in range(rows)]
    for row, col, i, sign in boundary_pattern(p, k):
        block = plus[i - 1] if sign > 0 else minus[i - 1]
        c = col * n
        for r in range(n):
            data[row * n + r][c:c + n] = block[r]
    return IntMatrix._raw(rows, cols, tuple(map(tuple, data)))


def build_differential_direct(spec: KGraphSpec, p: int) -> IntMatrix:
    """Boundary of degree ``p``, filled in from the signed-deletion pattern.

    Rows follow the canonical order of degree ``p - 1``, columns of
    degree ``p``; the caller is responsible for validating the spec.  No
    report calls it; it stays because ``perfbench/reference.py`` does.
    """
    if not 1 <= p <= spec.rank:
        raise ValueError(f"degree {p} out of range 1..{spec.rank}")
    return _from_pattern(coadjacencies(spec), spec.num_vertices, spec.rank, p)


def build_complex(bs: Sequence[IntMatrix]) -> ChainComplex:
    """The Evans chain complex of the commuting ``n x n`` matrices ``bs``.

    The boundaries are filled in from the signed-deletion pattern, and the
    :class:`ChainComplex` constructor certifies ``d o d = 0``: matrices
    that do not commute raise :class:`ChainComplexError`.  An empty family
    or matrices that are not all ``n x n`` raise ``ValueError``, and a
    complex over a limit of :mod:`evansk.limits` raises ``LimitError``,
    before anything is assembled.
    """
    if not bs:
        raise ValueError("at least one matrix is required")
    k, n = len(bs), bs[0].rows
    for i, b in enumerate(bs, start=1):
        if b.shape() != (n, n):
            raise ValueError(f"matrix {i} has shape {b.shape()}, expected {n}x{n}")
    limits.check_complex(k, n)
    ranks = tuple(comb(k, p) * n for p in range(k + 1))
    boundaries = tuple(_from_pattern(bs, n, k, p) for p in range(1, k + 1))
    return ChainComplex(ranks, boundaries)
