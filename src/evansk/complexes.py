"""The Evans chain complex of a k-graph.

Degree ``p`` of the complex is one copy of ``Z^n`` (n = number of
vertices) per strictly increasing ``p``-tuple, in the canonical order of
:mod:`evansk.indexsets`.  The boundary sends the block of tuple ``a`` to
the block of ``a`` with its ``i``-th coordinate deleted, through
``(-1)^(i+1) B_{a_i}`` where ``B_j = I - M_j^T``.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from collections.abc import Sequence

from . import limits
from .indexsets import boundary_pattern, enumerate_tuples, format_index_tuple
from .intmat import IntMatrix
from .kgraph import KGraphSpec, coadjacencies, require_valid


class ChainComplexError(ValueError):
    """The boundary maps fail d o d = 0; carries the offending entry."""

    def __init__(self, degree: int, row: int, col: int, value: int):
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
    ``ranks[p-1] x ranks[p]``.  ``vertices`` and ``coadjacencies``, when
    present, are the vertex labels and the ``B_i`` of the spec the complex
    was built from.  Construction checks the shapes, then ``d o d = 0``
    (:class:`ChainComplexError`).
    """

    ranks: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]
    vertices: tuple[str, ...] | None = None
    coadjacencies: tuple[IntMatrix, ...] | None = None

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

    def labels(self, p: int) -> list[str]:
        """The degree-``p`` coordinates as printed: ``(1,3):v`` or ``*:v``."""
        return [f"{format_index_tuple(a)}:{v}"
                for a in enumerate_tuples(p, self.length) for v in self.vertices]


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
    degree ``p``; the caller is responsible for validating the spec.
    """
    if not 1 <= p <= spec.rank:
        raise ValueError(f"degree {p} out of range 1..{spec.rank}")
    return _from_pattern(coadjacencies(spec), spec.num_vertices, spec.rank, p)


def build_complex(spec: KGraphSpec, *,
                  bs: tuple[IntMatrix, ...] | None = None) -> ChainComplex:
    """The full Evans chain complex of a validated spec.

    The spec is validated first (commuting matrices are a hard
    requirement: without them the boundaries do not square to zero), and
    the boundaries are filled in from the signed-deletion pattern; the
    :class:`ChainComplex` constructor then certifies ``d o d = 0``, so
    any convention bug fails loudly at build time.  The complex carries
    the ``B_i`` it was built from.  A caller that has already validated
    the spec passes its co-adjacency matrices as ``bs``; they are then
    used as given, and the spec is not validated again.  A complex over a limit
    of :mod:`evansk.limits` raises ``LimitError`` before anything is assembled.
    """
    if bs is None:
        require_valid(spec)
        bs = coadjacencies(spec)
    k, n = spec.rank, spec.num_vertices
    limits.check_complex(k, n)
    ranks = tuple(comb(k, p) * n for p in range(k + 1))
    boundaries = tuple(_from_pattern(bs, n, k, p) for p in range(1, k + 1))
    return ChainComplex(ranks, boundaries, spec.vertices, bs)
