"""Smith normal form over the integers, with transform certificates.

Elimination with pivot selection by minimal nonzero absolute value
(ties broken by lowest row, then lowest column), entirely in Python ints.
The result is deterministic for a fixed input: the divisors are
nonnegative, form a divisibility chain, and trailing zeros mark the
cokernel's free part.  ``U @ M @ V == S`` holds exactly with unimodular
``U`` and ``V``.

:func:`elementary_divisors` serves the homology pipeline, which only
needs ranks and divisors.  It first runs an exact unit-pivot elimination
on row-sparse data: take a +-1 entry in a shortest row that has one
(in the sparsest column among those rows' units, to keep fill-in low),
clear its column with integer row operations, drop that row and column,
and repeat until no unit entry is left.  Each step is a unimodular change
of basis that splits off a ``[1]`` block (column operations clear the
rest of the pivot row without touching the other rows), so the divisors
are ``(1,) * units`` followed by those of the residue, which the dense
elimination above computes without recording transforms.  The Smith form
is unique, so the tuple is exactly what :func:`smith_normal_form` gives.
Evans boundaries are very sparse and full of +-1 entries, so the dense
residue is a fraction of the input.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .intmat import IntMatrix


@dataclass(frozen=True)
class SnfResult:
    matrix: IntMatrix  # S, diagonal
    left: IntMatrix  # U
    right: IntMatrix  # V
    divisors: tuple[int, ...]  # diagonal of S, length min(rows, cols)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    s, u, v = _eliminate(m, track=True)
    limit = min(m.rows, m.cols)
    divisors = tuple(s[i][i] for i in range(limit))
    return SnfResult(
        matrix=IntMatrix(m.rows, m.cols, s),
        left=IntMatrix(m.rows, m.rows, u),
        right=IntMatrix(m.cols, m.cols, v),
        divisors=divisors,
    )


def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    units, residue, diagonal = 0, m, ()
    if any(1 in r or -1 in r for r in m._data):  # else there is no pivot to take
        rows = m._sparse_rows()
        units = _unit_pivots(rows)
        residue = _compact([row for row in rows if row])
    if residue.rows:
        s, _, _ = _eliminate(residue, track=False)
        diagonal = tuple(s[i][i] for i in range(min(residue.rows, residue.cols)))
    # Each pivot took a row and a column, so units + len(diagonal) is at
    # most min(rows, cols); the residue's zeros trail, and so do the pads.
    return (1,) * units + diagonal + (0,) * (min(m.rows, m.cols) - units - len(diagonal))


def _unit_pivots(rows: list[dict[int, int]]) -> int:
    """Eliminate unit pivots from row-sparse ``rows`` in place.

    Each step takes a +-1 entry in a shortest row that has one, in the
    column with the fewest entries among those rows' units, so that the
    step adds few new nonzeros (a Markowitz-style choice); clears its
    column from every other row by an exact integer row operation; and
    empties the pivot row.  The pivot column is then zero in what is
    left.  Returns the number of pivots taken.
    """
    unit = {i for i, row in enumerate(rows) if 1 in row.values() or -1 in row.values()}
    where: defaultdict[int, set[int]] = defaultdict(set)  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    taken = 0
    while unit:
        shortest = min(len(rows[i]) for i in unit)
        best, fewest = None, 0
        for i in unit:
            row = rows[i]
            if len(row) == shortest:
                for c, x in row.items():
                    if (x == 1 or x == -1) and (best is None or len(where[c]) < fewest):
                        best, fewest = (i, c), len(where[c])
        pi, col = best
        pivot, rows[pi] = rows[pi], {}
        unit.discard(pi)
        for c in pivot:
            where[c].discard(pi)
        sign = pivot[col]
        for i in where.pop(col):
            row = rows[i]
            q = row[col] * sign
            for c, y in pivot.items():
                v = row.get(c, 0) - q * y
                if v:
                    if c not in row:
                        where[c].add(i)
                    row[c] = v
                else:
                    del row[c]
                    if c != col:
                        where[c].discard(i)
            values = row.values()
            if 1 in values or -1 in values:
                unit.add(i)
            else:
                unit.discard(i)
        taken += 1
    return taken


def _compact(rows: list[dict[int, int]]) -> IntMatrix:
    """Dense matrix of the nonzero ``rows`` over the columns they use."""
    cols = sorted(set().union(*rows))
    where = {c: j for j, c in enumerate(cols)}
    data = []
    for row in rows:
        line = [0] * len(cols)
        for c, x in row.items():
            line[where[c]] = x
        data.append(tuple(line))
    return IntMatrix._raw(len(rows), len(cols), tuple(data))


def rank_from_divisors(divisors: tuple[int, ...]) -> int:
    return sum(1 for d in divisors if d != 0)


def _eliminate(m: IntMatrix, track: bool):
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)] if track else None
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if track else None

    limit = min(rows, cols)
    t = 0
    while t < limit:
        pivot = _find_pivot(a, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if track:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            if track:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if track:
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
                    if track:
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
                    if track:
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
            if track:
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
