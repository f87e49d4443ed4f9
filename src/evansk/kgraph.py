"""Higher-rank graphs presented by commuting adjacency matrices.

A rank-``k`` graph is carried here purely by its ``k`` coordinate
adjacency matrices over a common vertex set.  Convention: ``M[v][w]``
counts the degree-``e_i`` edges with range ``v`` and source ``w``, so the
co-adjacency matrix ``B_i = I - M_i^T`` acts on column vectors indexed by
vertices, and the rank-1 case reproduces the usual graph-algebra pairing
(K0 = coker B, K1 = ker B).

Structural defects (wrong matrix count, non-square, dimension mismatch)
raise :class:`StructuralError` at construction.  Semantic defects against
the standing hypotheses (nonnegative entries, no zero row, pairwise
commuting matrices) are collected by :func:`validate` into a report with
reproducible witnesses; :class:`evansk.spectral.Analysis` builds no chain
complex from an invalid spec.  It compares products as packed rows, and
reads a non-commuting pair's witness from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from itertools import chain, combinations

from . import limits
from .intmat import IntMatrix, product_differences


class StructuralError(ValueError):
    """Malformed presentation: shapes or counts are wrong."""


@dataclass(frozen=True)
class Violation:
    """One violated hypothesis, with enough indices to reproduce it."""

    kind: str  # "negative_entry" | "zero_row" | "non_commuting"
    where: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


_VALID = ValidationReport(())


class SpecValidationError(ValueError):
    """Raised when an operation requiring a valid spec receives an invalid one."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("invalid k-graph spec:\n" + report.summary())


@dataclass(frozen=True)
class KGraphSpec:
    """A k-graph presented by vertex labels and adjacency matrices.

    ``adjacency[i]`` is the matrix of coordinate ``i + 1``.  Labels are
    carried for reporting only; all mathematics is positional.
    """

    rank: int
    vertices: tuple[str, ...]
    adjacency: tuple[IntMatrix, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise StructuralError(f"rank must be >= 1, got {self.rank}")
        n = len(self.vertices)
        limits.check_spec(self.rank, n)
        if n < 1:
            raise StructuralError("at least one vertex is required")
        if len(self.adjacency) != self.rank:
            raise StructuralError(
                f"expected {self.rank} adjacency matrices, got {len(self.adjacency)}"
            )
        for idx, m in enumerate(self.adjacency, start=1):
            if m.shape() != (n, n):
                raise StructuralError(
                    f"adjacency matrix {idx} has shape {m.shape()}, expected {n}x{n}"
                )

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_monoid(self) -> bool:
        return len(self.vertices) == 1


def monoid_spec(ms: Sequence[int]) -> KGraphSpec:
    """Single-vertex spec with ``m_i`` loops of each degree."""
    if not ms:
        raise StructuralError("at least one loop count is required")
    return KGraphSpec(
        rank=len(ms),
        vertices=("v",),
        adjacency=tuple(IntMatrix(1, 1, [[m]]) for m in ms),
    )


def spec_from_matrices(mats: Sequence[Sequence[Sequence[int]]],
                       vertices: Sequence[str] | None = None) -> KGraphSpec:
    """Convenience constructor from nested lists; labels default to v0, v1, ..."""
    adjacency = tuple(IntMatrix.from_rows(m) for m in mats)
    if not adjacency:
        raise StructuralError("at least one adjacency matrix is required")
    n = adjacency[0].rows
    if vertices is None:
        vertices = tuple(f"v{i}" for i in range(n))
    return KGraphSpec(rank=len(adjacency), vertices=tuple(vertices), adjacency=adjacency)


def validate(spec: KGraphSpec) -> ValidationReport:
    """Check the standing hypotheses and report every violation found.

    One scan of all rows decides whether the per-row search for negative
    entries and zero rows (not source-free, under the adjacency convention)
    runs.  Each pair ``i < j`` compares ``M_i M_j`` with ``M_j M_i`` on packed
    rows (:func:`~evansk.intmat.product_differences`, which
    :func:`~evansk.complexes.build_complex` shares), and a pair that differs is
    reported at its first differing entry in row-major order.  Every valid
    spec gets the same report.  An entry a message would write past Python's
    digit limit raises :class:`~evansk.limits.LimitError` instead.
    """
    ms, n = spec.adjacency, spec.num_vertices
    rows = [row for m in ms for row in m._data]
    lo = min(chain.from_iterable(rows))
    violations: list[Violation] = []
    if lo < 0 or not all(map(any, rows)):
        limits.check_digits((-lo,))  # lo <= 0: the lowest entry, written if negative
        for idx, m in enumerate(ms, start=1):
            for r, row in enumerate(m._data):
                if min(row) < 0:
                    violations.extend(Violation(
                        "negative_entry", (idx, r, c),
                        f"adjacency matrix {idx} has negative entry {x} at ({r},{c})",
                    ) for c, x in enumerate(row) if x < 0)
                if not any(row):
                    violations.append(Violation(
                        "zero_row", (idx, r),
                        f"not source-free at vertex {spec.vertices[r]!r}: "
                        f"row {r} of adjacency matrix {idx} is zero",
                    ))
    if n > 1:  # 1x1 matrices always commute
        for i, j, r, c, x, y in product_differences(ms, combinations(range(spec.rank), 2)):
            limits.check_digits((abs(x), abs(y)))  # in-limit entries can make products past it
            violations.append(Violation(
                "non_commuting", (i + 1, j + 1, r, c),
                f"adjacency matrices {i + 1} and {j + 1} do not commute: "
                f"products differ at ({r},{c}): {x} vs {y}",
            ))
    return ValidationReport(tuple(violations)) if violations else _VALID


def coadjacencies(spec: KGraphSpec) -> tuple[IntMatrix, ...]:
    """The co-adjacency matrices ``B_i = I - M_i^T``, one per coordinate."""
    n = spec.num_vertices
    return tuple(
        IntMatrix._raw(n, n, tuple([
            tuple([(r == c) - x for c, x in enumerate(column)])
            for r, column in enumerate(zip(*[m.row(i) for i in range(n)]))
        ]))
        for m in spec.adjacency
    )
