"""Independent oracles for the test suite.

Deliberately naive implementations: cofactor-expansion determinants and
adjugates, divisor chains from gcds of minors, the ``d o d`` witness
from dense products, and unimodular matrices assembled from elementary
operations with the inverse tracked alongside.  Nothing here calls into the
library's elimination code, so these stay valid as cross-checks no
matter how the library evolves.
"""

from __future__ import annotations

import itertools
from math import gcd

from evansk import IntMatrix


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


def dense_product_witness(cc) -> tuple[int, int, int, int] | None:
    """First nonzero entry of any ``d_p @ d_(p+1)``, scanning each dense
    product in row-major order."""
    for p in range(1, cc.length):
        prod = cc.boundary(p) @ cc.boundary(p + 1)
        for r in range(prod.rows):
            for c in range(prod.cols):
                if prod[r, c] != 0:
                    return (p, r, c, prod[r, c])
    return None


def commutation_witnesses(mats: list[list[list[int]]]) -> list[tuple[int, int, int, int]]:
    """``(i, j, r, c)`` for every pair ``i < j`` (1-based) of square
    matrices whose dense products differ, at the first differing entry
    in row-major order."""
    found = []
    for (i, a), (j, b) in itertools.combinations(enumerate(mats, start=1), 2):
        ab = IntMatrix.from_rows(a) @ IntMatrix.from_rows(b)
        ba = IntMatrix.from_rows(b) @ IntMatrix.from_rows(a)
        diff = [(r, c) for r in range(ab.rows) for c in range(ab.cols) if ab[r, c] != ba[r, c]]
        if diff:
            found.append((i, j, *diff[0]))
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
