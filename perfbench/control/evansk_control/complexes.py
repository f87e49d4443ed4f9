"""The Evans chain complex of a k-graph, built two independent ways.

Degree ``p`` of the complex is one copy of ``Z^n`` (n = number of
vertices) per strictly increasing ``p``-tuple, in the canonical order of
:mod:`evansk.indexsets`.  The boundary sends the block of tuple ``a`` to
the block of ``a`` with its ``i``-th coordinate deleted, through
``(-1)^(i+1) B_{a_i}`` where ``B_j = I - M_j^T``.

Two constructions are provided and must agree entrywise:

* the direct construction places each signed co-adjacency block by
  explicitly deleting coordinates;
* the recursive construction peels off the top coordinate ``j``:

  .. code-block:: text

      d[j, p] = | d[j-1, p-1]        0        |
                | (-1)^(p+1) B_j   d[j-1, p]  |

  where the top block row is empty for p = 1, the right block column is
  empty for p = j, the base case is d[1, 1] = B_1, and the signed block is
  B_j repeated once per tuple ending in j (the plus/minus bijection makes
  it literally block-diagonal).

Single-vertex complexes are also isomorphic to an iterated tensor of the
two-term complexes ``0 -> Z -(B_j)-> Z -> 0``; :func:`tensor_two` and
:func:`tensor_monoid_complex` build that route so homology can be
compared against the block construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from collections.abc import Sequence

from .indexsets import IndexTuple, delete_coordinate, enumerate_tuples
from .intmat import IntMatrix
from .kgraph import KGraphSpec, coadjacencies, require_valid

BasisLabels = tuple[tuple[tuple[IndexTuple, str], ...], ...]


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

    ``boundaries[p-1]`` is the map from degree ``p`` to degree ``p - 1``
    and has shape ``ranks[p-1] x ranks[p]``.  ``basis_labels``, when
    present, lists the (index tuple, vertex) pair behind each coordinate
    of each degree.
    """

    length: int
    ranks: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]
    basis_labels: BasisLabels | None = None

    def __post_init__(self):
        if len(self.ranks) != self.length + 1:
            raise ValueError("ranks must list degrees 0..length")
        if len(self.boundaries) != self.length:
            raise ValueError("boundaries must list degrees 1..length")
        for p in range(1, self.length + 1):
            b = self.boundaries[p - 1]
            want = (self.ranks[p - 1], self.ranks[p])
            if b.shape() != want:
                raise ValueError(f"boundary {p} has shape {b.shape()}, expected {want}")

    def rank(self, p: int) -> int:
        return self.ranks[p] if 0 <= p <= self.length else 0

    def boundary(self, p: int) -> IntMatrix:
        """The degree-``p`` boundary, with the maps into and out of the
        zero modules at the ends materialized as empty matrices."""
        if 1 <= p <= self.length:
            return self.boundaries[p - 1]
        if p == 0:
            return IntMatrix.zeros(0, self.ranks[0])
        if p == self.length + 1:
            return IntMatrix.zeros(self.ranks[self.length], 0)
        raise ValueError(f"degree {p} out of range 0..{self.length + 1}")


def differential_product_witness(cc: ChainComplex) -> tuple[int, int, int, int] | None:
    """First nonzero entry of any consecutive product, or None if d o d = 0."""
    for p in range(1, cc.length):
        prod = cc.boundary(p) @ cc.boundary(p + 1)
        for r in range(prod.rows):
            row = prod.row(r)
            for c in range(prod.cols):
                if row[c] != 0:
                    return (p, r, c, row[c])
    return None


def _direct_from_blocks(bs: Sequence[IntMatrix], n: int, k: int, p: int) -> IntMatrix:
    rows_order = enumerate_tuples(p - 1, k)
    cols_order = enumerate_tuples(p, k)
    data = [[0] * (len(cols_order) * n) for _ in range(len(rows_order) * n)]
    for cj, a in enumerate(cols_order.tuples):
        for i in range(1, p + 1):
            b = delete_coordinate(a, i)
            ri = rows_order.position[b]
            block = bs[a[i - 1] - 1]
            negate = i % 2 == 0
            for r in range(n):
                row = data[ri * n + r]
                brow = block.row(r)
                base = cj * n
                for c in range(n):
                    row[base + c] = -brow[c] if negate else brow[c]
    return IntMatrix._raw(
        len(rows_order) * n, len(cols_order) * n, tuple(tuple(r) for r in data)
    )


def _recursive_from_blocks(
    bs: Sequence[IntMatrix], n: int, j: int, p: int,
    cache: dict[tuple[int, int], IntMatrix] | None = None,
) -> IntMatrix:
    # Subtrees repeat across degrees; one build shares a (j, p) cache.
    if cache is not None:
        hit = cache.get((j, p))
        if hit is not None:
            return hit
    if j == 1:
        return bs[0]  # p == 1 is forced here
    if p >= 2:
        top = _recursive_from_blocks(bs, n, j - 1, p - 1, cache)
    else:
        top = IntMatrix.zeros(0, comb(j - 1, p - 1) * n)
    if p <= j - 1:
        bottom_right = _recursive_from_blocks(bs, n, j - 1, p, cache)
    else:
        bottom_right = IntMatrix.zeros(comb(j - 1, p - 1) * n, 0)
    copies = comb(j - 1, p - 1)
    signed = bs[j - 1] if p % 2 == 1 else -bs[j - 1]
    diagonal = IntMatrix.block_diagonal([signed] * copies)
    zero = IntMatrix.zeros(top.rows, bottom_right.cols)
    result = IntMatrix.block([[top, zero], [diagonal, bottom_right]])
    if cache is not None:
        cache[(j, p)] = result
    return result


def build_differential_direct(spec: KGraphSpec, p: int) -> IntMatrix:
    """Boundary of degree ``p`` by explicit coordinate deletion.

    Rows follow the canonical order of degree ``p - 1``, columns of
    degree ``p``; the caller is responsible for validating the spec.
    """
    if not 1 <= p <= spec.rank:
        raise ValueError(f"degree {p} out of range 1..{spec.rank}")
    return _direct_from_blocks(coadjacencies(spec), spec.num_vertices, spec.rank, p)


def build_differential_recursive(spec: KGraphSpec, p: int) -> IntMatrix:
    """Boundary of degree ``p`` by the block recursion on the top coordinate."""
    if not 1 <= p <= spec.rank:
        raise ValueError(f"degree {p} out of range 1..{spec.rank}")
    return _recursive_from_blocks(coadjacencies(spec), spec.num_vertices, spec.rank, p)


def basis_labels_for(spec: KGraphSpec) -> BasisLabels:
    return tuple(
        tuple((a, v) for a in enumerate_tuples(p, spec.rank).tuples for v in spec.vertices)
        for p in range(spec.rank + 1)
    )


def build_complex(spec: KGraphSpec) -> ChainComplex:
    """The full Evans chain complex of a validated spec.

    The spec is validated first (commuting matrices are a hard
    requirement: without them the boundaries do not square to zero), the
    boundaries come from the block recursion, and ``d o d = 0`` is checked
    eagerly so that any convention bug fails loudly at build time.
    """
    require_valid(spec)
    k, n = spec.rank, spec.num_vertices
    bs = coadjacencies(spec)
    ranks = tuple(comb(k, p) * n for p in range(k + 1))
    cache: dict[tuple[int, int], IntMatrix] = {}
    boundaries = tuple(_recursive_from_blocks(bs, n, k, p, cache) for p in range(1, k + 1))
    cc = ChainComplex(k, ranks, boundaries, basis_labels_for(spec))
    witness = differential_product_witness(cc)
    if witness is not None:
        raise ChainComplexError(*witness)
    return cc


@dataclass(frozen=True)
class TwoTermComplex:
    """The complex ``0 -> Z -(entry)-> Z -> 0`` concentrated in degrees 1, 0."""

    entry: int

    def as_chain_complex(self) -> ChainComplex:
        return ChainComplex(1, (1, 1), (IntMatrix(1, 1, [[self.entry]]),))


def tensor_two(a: ChainComplex, c: TwoTermComplex) -> ChainComplex:
    """Tensor a complex with a two-term complex.

    Degree ``p`` of the result is ``A_p (x) C_0  (+)  A_{p-1} (x) C_1``, in
    that order, so the boundary is the block matrix

    .. code-block:: text

        | d_p^A    (-1)^(p-1) entry * I |
        | 0        d_{p-1}^A            |

    with the Koszul sign on the second summand.
    """
    k = a.length + 1
    ranks = tuple(a.rank(p) + a.rank(p - 1) for p in range(k + 1))
    boundaries = []
    for p in range(1, k + 1):
        sign = 1 if (p - 1) % 2 == 0 else -1
        koszul = IntMatrix.identity(a.rank(p - 1)).scaled(sign * c.entry)
        grid = [
            [a.boundary(p), koszul],
            [IntMatrix.zeros(a.rank(p - 2), a.rank(p)), a.boundary(p - 1)],
        ]
        boundaries.append(IntMatrix.block(grid))
    return ChainComplex(k, ranks, tuple(boundaries))


def tensor_monoid_complex(b_values: Sequence[int]) -> ChainComplex:
    """Left-associated iterated tensor of the two-term complexes with the
    given scalars, one per coordinate."""
    if not b_values:
        raise ValueError("at least one scalar is required")
    cc = TwoTermComplex(b_values[0]).as_chain_complex()
    for b in b_values[1:]:
        cc = tensor_two(cc, TwoTermComplex(b))
    return cc
