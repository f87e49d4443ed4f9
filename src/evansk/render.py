"""Plain-text rendering of boundary matrices in the labeled-block layout.

Rows and columns are labeled by their index tuples in canonical order.
The plus/minus partition is drawn with a dotted column rule and a dashed
row rule exactly when both partitions are nontrivial (``2 <= p <= k-1``),
i.e. when the full 2x2 recursion shape is present; the degenerate top and
bottom degrees print as plain single-block tables.

A complex holds no labels: the caller passes the vertex labels and the
``B_i``.  Single-vertex specs render symbolically (``B2``, ``-B3``, ``0``)
with a legend of the ``B_i``, which keeps the block pattern auditable even
when different coordinates share a value.  Everything else renders the
integer matrix, one column per :func:`~evansk.indexsets.labels` entry.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .complexes import ChainComplex
from .indexsets import boundary_pattern, enumerate_tuples, format_index_tuple, labels
from .intmat import IntMatrix


def symbolic_blocks(p: int, k: int) -> list[list[str]]:
    """The sign/index pattern of the degree-``p`` boundary as strings."""
    grid = [["0"] * comb(k, p) for _ in range(comb(k, p - 1))]
    for row, col, i, sign in boundary_pattern(p, k):
        grid[row][col] = f"B{i}" if sign > 0 else f"-B{i}"
    return grid


def _partition_splits(p: int, k: int) -> tuple[int | None, int | None]:
    if 2 <= p <= k - 1:
        return comb(k - 1, p - 2), comb(k - 1, p - 1)
    return None, None


def _render_grid(
    row_labels: list[str],
    col_labels: list[str],
    entries: list[list[str]],
    row_split: int | None,
    col_split: int | None,
) -> str:
    label_width = max((len(s) for s in row_labels), default=0)
    widths = []
    for j, label in enumerate(col_labels):
        w = len(label)
        for row in entries:
            w = max(w, len(row[j]))
        widths.append(w)

    def line(label: str, cells: list[str]) -> str:
        out = [label.rjust(label_width), " |"]
        for j, cell in enumerate(cells):
            if col_split is not None and j == col_split:
                out.append(" :")
            out.append(" " + cell.rjust(widths[j]))
        return "".join(out)

    header = line("", col_labels)
    rule = "-" * (label_width + 1) + "+" + "-" * (len(header) - label_width - 2)
    body = [header, rule]
    for i, row in enumerate(entries):
        if row_split is not None and i == row_split and i > 0:
            dashed = ("- " * len(header))[: len(header)]
            body.append(dashed)
        body.append(line(row_labels[i], row))
    return "\n".join(body)


def render_symbolic_differential(p: int, k: int) -> str:
    """Figure-style symbolic table for a single-vertex boundary."""
    row_labels = [format_index_tuple(a) for a in enumerate_tuples(p - 1, k)]
    col_labels = [format_index_tuple(a) for a in enumerate_tuples(p, k)]
    row_split, col_split = _partition_splits(p, k)
    return _render_grid(row_labels, col_labels, symbolic_blocks(p, k), row_split, col_split)


def render_numeric_differential(cc: ChainComplex, p: int, vertices: Sequence[str]) -> str:
    """Integer table of one boundary, labeled by tuple and vertex."""
    matrix = cc.boundary(p)
    n = len(vertices)
    entries = [[str(x) for x in matrix.row(i)] for i in range(matrix.rows)]
    row_split, col_split = _partition_splits(p, cc.length)
    return _render_grid(
        labels(p - 1, cc.length, vertices), labels(p, cc.length, vertices), entries,
        row_split * n if row_split is not None else None,
        col_split * n if col_split is not None else None,
    )


def b_legend(bs: Sequence[IntMatrix]) -> str:
    """The values of the 1x1 matrices ``bs``: ``where B1 = -2, B2 = -4``."""
    return "where " + ", ".join(f"B{i} = {b[0, 0]}" for i, b in enumerate(bs, start=1))


def render_differential(cc: ChainComplex, p: int, vertices: Sequence[str],
                        bs: Sequence[IntMatrix]) -> str:
    """Symbolic table plus legend of ``bs`` for one vertex, numeric otherwise."""
    if len(vertices) == 1:
        return render_symbolic_differential(p, cc.length) + "\n" + b_legend(bs)
    return render_numeric_differential(cc, p, vertices)
