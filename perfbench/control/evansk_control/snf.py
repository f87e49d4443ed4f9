"""Smith normal form over the integers, with transform certificates.

Elimination with pivot selection by minimal nonzero absolute value
(ties broken by lowest row, then lowest column), entirely in Python ints.
The result is deterministic for a fixed input: the divisors are
nonnegative, form a divisibility chain, and trailing zeros mark the
cokernel's free part.  ``U @ M @ V == S`` holds exactly with unimodular
``U`` and ``V``.

:func:`elementary_divisors` runs the same elimination without recording
transforms; the homology pipeline only needs ranks and divisors, and
skipping the bookkeeping roughly halves the cost on the bulk corpora.
"""

from __future__ import annotations

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
    s, _, _ = _eliminate(m, track=False)
    limit = min(m.rows, m.cols)
    return tuple(s[i][i] for i in range(limit))


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
