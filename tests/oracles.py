"""Independent oracles for the test suite.

Deliberately naive implementations: cofactor-expansion determinants and
adjugates, divisor chains from gcds of minors, the ``d o d`` witness
from dense products, the standing hypotheses checked through dense
products, and unimodular matrices assembled from elementary
operations with the inverse tracked alongside.  Two routes to the Evans
complex itself live here too: the paper's block recursion on the top
coordinate, and, for one vertex, the iterated tensor of the two-term
complexes ``0 -> Z -(B_j)-> Z -> 0``, both assembled from dense blocks.
Nothing here calls into the library's elimination code or its
signed-deletion pattern, so these stay valid as cross-checks no matter
how the library evolves.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from math import comb, gcd

from evansk import ChainComplex, IntMatrix, KGraphSpec, coadjacencies


def block(grid: Sequence[Sequence[IntMatrix]]) -> IntMatrix:
    """Assemble a block matrix from a rectangular grid of blocks.

    Blocks in a grid row must share their height, blocks in a grid
    column their width.  Zero-height and zero-width blocks are fine;
    they contribute nothing but keep degenerate layouts uniform.
    """
    if not grid:
        return IntMatrix(0, 0, [])
    ncols_blocks = len(grid[0])
    for grow in grid:
        if len(grow) != ncols_blocks:
            raise ValueError("block grid must be rectangular")
    for bj in range(ncols_blocks):
        w = grid[0][bj].cols
        for grow in grid:
            if grow[bj].cols != w:
                raise ValueError(f"inconsistent widths in block column {bj}")
    data: list[tuple[int, ...]] = []
    for grow in grid:
        h = grow[0].rows
        for bl in grow:
            if bl.rows != h:
                raise ValueError("inconsistent heights in block row")
        for r in range(h):
            line: tuple[int, ...] = ()
            for bl in grow:
                line += bl.row(r)
            data.append(line)
    total_cols = sum(grid[0][bj].cols for bj in range(ncols_blocks))
    return IntMatrix(len(data), total_cols, data)


def block_diagonal(blocks: Sequence[IntMatrix]) -> IntMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    data = []
    c0 = 0
    for b in blocks:
        right = cols - c0 - b.cols
        for i in range(b.rows):
            data.append((0,) * c0 + b.row(i) + (0,) * right)
        c0 += b.cols
    return IntMatrix(rows, cols, data)


def _recursive_from_blocks(
    bs: Sequence[IntMatrix], n: int, j: int, p: int,
    cache: dict[tuple[int, int], IntMatrix],
) -> IntMatrix:
    # Subtrees repeat within a degree (d[j-2, p-1] sits under both
    # halves) and across degrees; the cache shares them.
    hit = cache.get((j, p))
    if hit is not None:
        return hit
    if j == 1:
        return bs[0]  # p == 1 is forced here
    copies = comb(j - 1, p - 1)
    if p >= 2:
        top = _recursive_from_blocks(bs, n, j - 1, p - 1, cache)
    else:
        top = IntMatrix(0, copies * n, [])
    if p <= j - 1:
        bottom_right = _recursive_from_blocks(bs, n, j - 1, p, cache)
    else:
        bottom_right = IntMatrix(copies * n, 0, [[]] * (copies * n))
    signed = bs[j - 1] if p % 2 == 1 else bs[j - 1].scaled(-1)
    diagonal = block_diagonal([signed] * copies)
    zero = IntMatrix(top.rows, bottom_right.cols, [[0] * bottom_right.cols] * top.rows)
    cache[(j, p)] = result = block([[top, zero], [diagonal, bottom_right]])
    return result


def build_differential_recursive(spec: KGraphSpec) -> tuple[IntMatrix, ...]:
    """The boundaries ``d_1..d_k`` by the paper's block recursion on the
    top coordinate, with one ``(j, p)`` cache shared by every degree."""
    bs, cache = coadjacencies(spec), {}
    return tuple(
        _recursive_from_blocks(bs, spec.num_vertices, spec.rank, p, cache)
        for p in range(1, spec.rank + 1)
    )


def rank(cc: ChainComplex, p: int) -> int:
    """Rank of degree ``p``, zero outside ``0..length``."""
    return cc.ranks[p] if 0 <= p <= cc.length else 0


def boundary(cc: ChainComplex, p: int) -> IntMatrix:
    """The degree-``p`` boundary, with the maps into and out of the
    zero modules at the ends materialized as empty matrices."""
    if 1 <= p <= cc.length:
        return cc.boundary(p)
    if p == 0:
        return IntMatrix(0, cc.ranks[0], [])
    if p == cc.length + 1:
        return IntMatrix(cc.ranks[cc.length], 0, [[]] * cc.ranks[cc.length])
    raise ValueError(f"degree {p} out of range 0..{cc.length + 1}")


def tensor_two(a: ChainComplex, entry: int) -> ChainComplex:
    """Tensor a complex with the two-term complex ``0 -> Z -(entry)-> Z -> 0``.

    Degree ``p`` of the result is ``A_p (x) C_0  (+)  A_{p-1} (x) C_1``, in
    that order, so the boundary is the block matrix

    .. code-block:: text

        | d_p^A    (-1)^(p-1) entry * I |
        | 0        d_{p-1}^A            |

    with the Koszul sign on the second summand.
    """
    k = a.length + 1
    ranks = tuple(rank(a, p) + rank(a, p - 1) for p in range(k + 1))
    boundaries = []
    for p in range(1, k + 1):
        sign = 1 if (p - 1) % 2 == 0 else -1
        koszul = IntMatrix.identity(rank(a, p - 1)).scaled(sign * entry)
        zero = IntMatrix(rank(a, p - 2), rank(a, p), [[0] * rank(a, p)] * rank(a, p - 2))
        grid = [
            [boundary(a, p), koszul],
            [zero, boundary(a, p - 1)],
        ]
        boundaries.append(block(grid))
    return ChainComplex(ranks, tuple(boundaries))


def tensor_monoid_complex(b_values: Sequence[int]) -> ChainComplex:
    """Left-associated iterated tensor of the two-term complexes with the
    given scalars, one per coordinate."""
    if not b_values:
        raise ValueError("at least one scalar is required")
    cc = ChainComplex((1, 1), (IntMatrix(1, 1, [[b_values[0]]]),))
    for b in b_values[1:]:
        cc = tensor_two(cc, b)
    return cc


def permute_coordinates(spec: KGraphSpec, sigma: Sequence[int]) -> KGraphSpec:
    """Reorder coordinates: the new coordinate ``i`` is the old ``sigma[i-1]``."""
    if sorted(sigma) != list(range(1, spec.rank + 1)):
        raise ValueError(f"not a permutation of 1..{spec.rank}: {list(sigma)!r}")
    return KGraphSpec(
        rank=spec.rank,
        vertices=spec.vertices,
        adjacency=tuple(spec.adjacency[s - 1] for s in sigma),
    )


def det_cofactor(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def adjugate(rows: list[list[int]]) -> list[list[int]]:
    """Transposed cofactor matrix: ``adj[i][j]`` is ``(-1)^(i+j)`` times
    the determinant of ``rows`` without row ``j`` and column ``i``."""
    n = len(rows)
    return [
        [(-1) ** (i + j) * det_cofactor([r[:i] + r[i + 1:] for t, r in enumerate(rows) if t != j])
         for j in range(n)]
        for i in range(n)
    ]


def minor_gcd_divisors(rows: list[list[int]]) -> tuple[int, ...]:
    """Divisor chain from gcds of i x i minors: d_i = g_i / g_{i-1}."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    limit = min(m, n)
    gs = [1]
    for size in range(1, limit + 1):
        g = 0
        for ri in itertools.combinations(range(m), size):
            for ci in itertools.combinations(range(n), size):
                sub = [[rows[r][c] for c in ci] for r in ri]
                g = gcd(g, abs(det_cofactor(sub)))
        gs.append(g)
        if g == 0:
            break
    divisors: list[int] = []
    for i in range(1, len(gs)):
        if gs[i] == 0:
            break
        divisors.append(gs[i] // gs[i - 1])
    divisors += [0] * (limit - len(divisors))
    return tuple(divisors)


def dense_product_witness(boundaries: Sequence[IntMatrix]) -> tuple[int, int, int, int] | None:
    """First nonzero entry of any ``d_p @ d_(p+1)``, with ``d_p`` at
    ``boundaries[p - 1]``, scanning each dense product in row-major order."""
    for p in range(1, len(boundaries)):
        prod = boundaries[p - 1] @ boundaries[p]
        for r in range(prod.rows):
            for c in range(prod.cols):
                if prod[r, c] != 0:
                    return (p, r, c, prod[r, c])
    return None


def validate_by_products(spec: KGraphSpec) -> list[tuple[str, tuple[int, ...], str]]:
    """``(kind, where, message)`` of every violation, in order, found the
    plain way: each row scanned for negative entries and zeros, and each
    pair ``i < j`` compared through its two dense products."""
    found = []
    n = spec.num_vertices
    for idx, m in enumerate(spec.adjacency, start=1):
        for r in range(n):
            row = m.row(r)
            found += [("negative_entry", (idx, r, c),
                       f"adjacency matrix {idx} has negative entry {x} at ({r},{c})")
                      for c, x in enumerate(row) if x < 0]
            if not any(row):
                found.append(("zero_row", (idx, r),
                              f"not source-free at vertex {spec.vertices[r]!r}: "
                              f"row {r} of adjacency matrix {idx} is zero"))
    for (i, a), (j, b) in itertools.combinations(enumerate(spec.adjacency, start=1), 2):
        ab, ba = a @ b, b @ a
        diff = [(r, c) for r in range(n) for c in range(n) if ab[r, c] != ba[r, c]]
        if diff:
            r, c = diff[0]
            found.append(("non_commuting", (i, j, r, c),
                          f"adjacency matrices {i} and {j} do not commute: "
                          f"products differ at ({r},{c}): {ab[r, c]} vs {ba[r, c]}"))
    return found


def random_unimodular(n: int, rng, ops: int | None = None) -> tuple[IntMatrix, IntMatrix]:
    """A random unimodular matrix and its exact inverse.

    Built from elementary row operations on the identity, mirroring each
    with the inverse column operation, so the pair multiplies to the
    identity by construction (and is asserted to).
    """
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops if ops is not None else 3 * n + 2):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:  # row_i += c * row_j  /  col_j -= c * col_i
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            t[i] = [x + c * y for x, y in zip(t[i], t[j])]
            for row in tinv:
                row[j] -= c * row[i]
        elif kind == 1 and n >= 2:  # swap rows  /  swap cols
            i, j = rng.sample(range(n), 2)
            t[i], t[j] = t[j], t[i]
            for row in tinv:
                row[i], row[j] = row[j], row[i]
        else:  # negate row  /  negate col
            i = rng.randrange(n)
            t[i] = [-x for x in t[i]]
            for row in tinv:
                row[i] = -row[i]
    tm = IntMatrix.from_rows(t)
    tim = IntMatrix.from_rows(tinv)
    assert tm @ tim == IntMatrix.identity(n)
    return tm, tim
