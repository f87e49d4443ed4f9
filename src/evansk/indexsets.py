"""Strictly increasing index tuples and the block bookkeeping built on them.

The degree-``p`` index set over rank ``k`` consists of the strictly
increasing ``p``-tuples with entries in ``{1..k}``; the empty tuple is the
single degree-0 element (the basepoint, printed ``*``).  A fixed enumeration
order makes every block-matrix statement in :mod:`evansk.complexes` a
literal statement about matrix layout:

* tuples ending in ``k`` come first, ordered by appending ``k`` to the
  canonical order of degree ``p - 1`` over rank ``k - 1``;
* tuples avoiding ``k`` follow, in the canonical order of rank ``k - 1``.

>>> enumerate_tuples(2, 4)
((3, 4), (2, 4), (1, 4), (2, 3), (1, 3), (1, 2))
>>> enumerate_tuples(0, 3)
((),)
>>> enumerate_tuples(3, 2)
()

The degree-``p`` boundary deletes each coordinate of each tuple in turn,
with alternating signs; :func:`boundary_pattern` lists those signed
deletions once per ``(p, k)``, and every boundary matrix and symbolic
table is read from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

IndexTuple = tuple[int, ...]


@lru_cache(maxsize=None)
def enumerate_tuples(p: int, k: int) -> tuple[IndexTuple, ...]:
    """Canonical order of the strictly increasing ``p``-tuples in ``{1..k}``.

    Degenerate degrees return an empty order (``p > k``) or the basepoint
    alone (``p == 0``); negative arguments are rejected.
    """
    if p < 0 or k < 0:
        raise ValueError(f"degree and rank must be nonnegative, got p={p}, k={k}")
    if p == 0:
        return ((),)
    if p > k:
        return ()
    with_k = tuple(a + (k,) for a in enumerate_tuples(p - 1, k - 1))
    return with_k + enumerate_tuples(p, k - 1)


@lru_cache(maxsize=None)
def boundary_pattern(p: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The signed deletions that make up the degree-``p`` boundary.

    One ``(row, col, coordinate, sign)`` entry per nonzero block: column
    tuple ``a`` (slot ``col`` of degree ``p``) loses its ``i``-th entry,
    landing in slot ``row`` of degree ``p - 1``, through
    ``sign * B_coordinate`` with ``coordinate = a[i - 1]`` and
    ``sign = (-1)^(i+1)``.  Columns come in canonical order, deletions
    in order of ``i``.

    >>> boundary_pattern(2, 2)
    ((0, 0, 1, 1), (1, 0, 2, -1))
    """
    rows = {a: row for row, a in enumerate(enumerate_tuples(p - 1, k))}
    return tuple(
        (rows[a[:i - 1] + a[i:]], col, a[i - 1], 1 if i % 2 else -1)
        for col, a in enumerate(enumerate_tuples(p, k))
        for i in range(1, p + 1)
    )


def format_index_tuple(a: IndexTuple) -> str:
    """Render a tuple the way row/column labels are printed: ``(1,3)`` or ``*``."""
    if not a:
        return "*"
    return "(" + ",".join(str(x) for x in a) + ")"


def labels(p: int, k: int, vertices: Sequence[str]) -> list[str]:
    """The degree-``p`` coordinates as printed: ``(1,3):v`` or ``*:v``."""
    return [f"{format_index_tuple(a)}:{v}" for a in enumerate_tuples(p, k) for v in vertices]
