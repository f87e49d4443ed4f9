"""Smith normal form over the integers: one fast path, one certified engine.

:func:`elementary_divisors` serves the homology pipeline, which only
needs ranks and divisors.  One sparse elimination on row-sparse data
splits the matrix into 1x1 pivot blocks, each an entry of least absolute
value (in a shortest row, in its sparsest column, to keep fill-in low),
so +-1 pivots come first.  Each split is a unimodular change of basis,
so the divisors are the units, then the invariant factors of the other
pivots (:func:`invariant_factors`), then zeros.  Evans boundaries are
very sparse and full of +-1 entries, so most pivots are units.

:func:`smith_normal_form` is the certified, independent engine: dense
elimination with pivot selection by minimal nonzero absolute value
(ties broken by lowest row, then lowest column), recording unimodular
``U`` and ``V`` with ``U @ M @ V == S`` exactly.  It shares no code with
the fast path, so the tests compare the two.  Both work entirely in
Python ints; the divisors are nonnegative, form a divisibility chain,
and trailing zeros mark the cokernel's free part.  The Smith form is
unique, so both give the same tuple.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

from .intmat import IntMatrix


@dataclass(frozen=True)
class SnfResult:
    """``U @ M @ V == S``; kept for ``perfbench/reference.py``, the benchmark's oracle."""

    matrix: IntMatrix  # S, diagonal
    left: IntMatrix  # U
    right: IntMatrix  # V
    divisors: tuple[int, ...]  # diagonal of S, length min(rows, cols)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """The certified engine; no report calls it, and it stays because the tests and
    ``perfbench/reference.py`` check :func:`elementary_divisors` against it."""
    s, u, v = _eliminate(m)
    limit = min(m.rows, m.cols)
    divisors = tuple(s[i][i] for i in range(limit))
    return SnfResult(
        matrix=IntMatrix(m.rows, m.cols, s),
        left=IntMatrix(m.rows, m.rows, u),
        right=IntMatrix(m.cols, m.cols, v),
        divisors=divisors,
    )


def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    units, pivots = _diagonalise([{c: x for c, x in enumerate(m.row(i)) if x}
                                  for i in range(m.rows)])
    factors = invariant_factors(pivots)
    # Every pivot took a row and a column; the zeros of the diagonal trail.
    ones = units + len(pivots) - len(factors)
    return (1,) * ones + factors + (0,) * (min(m.rows, m.cols) - units - len(pivots))


def invariant_factors(values: Sequence[int]) -> tuple[int, ...]:
    """The divisibility chain of ``diag(values)`` (positive ints), units left out.

    Replacing a pair (a, b) by (gcd, lcm) keeps the group; sweeping every
    later slot into slot i leaves slot i dividing all of them.
    """
    factors = list(values)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            factors[i], factors[j] = g, a // g * b
    return tuple(f for f in factors if f > 1)


def _diagonalise(rows: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Split row-sparse ``rows`` into 1x1 pivot blocks, in place.

    A step takes an entry of least absolute value, in a shortest row,
    in the column with the fewest entries: a Markowitz-style choice that
    keeps fill-in low.  Every row is searched; no index of the rows that
    hold a +-1 is kept.  A +-1 has the least absolute value, so unit
    pivots come first, and once one is held longer rows are skipped.
    The step clears the pivot's column from every other row by
    floor-division row operations.  Once the column is clear, it reduces
    the rest of the pivot row modulo the pivot: column operations that
    touch no other row.  A pivot left alone in its row and column is
    split off; a remainder is smaller than the pivot, so the next step
    picks a strictly smaller one.  Returns the number of +-1 pivots and
    the absolute values of the others.
    """
    where: defaultdict[int, set[int]] = defaultdict(set)  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    units, pivots = 0, []
    while True:
        best = None
        for i, row in enumerate(rows):
            n = len(row)
            if best is not None and least == 1 and n > length:
                continue  # no entry of a longer row beats a unit
            for c, x in row.items():
                if x < 0:
                    x = -x
                if best is None or x < least or x == least and (
                        n < length or n == length and len(where[c]) < fewest):
                    best, least, length, fewest = (i, c), x, n, len(where[c])
        if best is None:
            return units, pivots
        pi, col = best
        pivot = rows[pi]
        p = pivot[col]
        for i in where[col] - {pi}:
            row = rows[i]
            q = row[col] // p
            for c, y in pivot.items():
                v = row.get(c, 0) - q * y
                if v:
                    if c not in row:
                        where[c].add(i)
                    row[c] = v
                else:
                    del row[c]
                    where[c].discard(i)
        if len(where[col]) > 1:
            continue  # remainders are smaller than the pivot; reselect
        rows[pi] = rest = {c: r for c, x in pivot.items() if (r := x % p)}
        for c in pivot:
            if c not in rest:
                where[c].discard(pi)
        if rest:  # the pivot stays, and a smaller entry is picked next
            rest[col] = p
            where[col].add(pi)
            continue
        if p == 1 or p == -1:
            units += 1
        else:
            pivots.append(abs(p))


def _eliminate(m: IntMatrix):
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    limit = min(rows, cols)
    t = 0
    while t < limit:
        pivot = _find_pivot(a, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

        piv = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            x = a[i][t]
            if x:
                q = x // piv
                if q:
                    ai, at = a[i], a[t]
                    for j in range(t, cols):
                        ai[j] -= q * at[j]
                    ui, ut = u[i], u[t]
                    for j in range(rows):
                        ui[j] -= q * ut[j]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            x = a[t][j]
            if x:
                q = x // piv
                if q:
                    for i in range(t, rows):
                        a[i][j] -= q * a[i][t]
                    for i in range(cols):
                        v[i][j] -= q * v[i][t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders are smaller than the pivot; reselect

        # Row and column are clear; make the pivot divide the rest of the
        # submatrix before moving on, so the diagonal forms a chain.
        fix = None
        for i in range(t + 1, rows):
            ai = a[i]
            for j in range(t + 1, cols):
                if ai[j] % piv:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            af, at = a[fix], a[t]
            for j in range(t, cols):
                at[j] += af[j]
            uf, ut = u[fix], u[t]
            for j in range(rows):
                ut[j] += uf[j]
            continue
        t += 1
    return a, u, v


def _find_pivot(a, t, rows, cols):
    best = None
    where = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x:
                if x < 0:
                    x = -x
                if best is None or x < best:
                    best = x
                    where = (i, j)
                    if best == 1:
                        return where
    return where
