"""Dense integer matrices with exact arithmetic.

Every entry is a plain Python int.  Elimination and determinant work blow
past 64 bits even on small inputs, so nothing in this package may pass
through floats or fixed-width integer types.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, combinations
from operator import lshift, mul


class IntMatrix:
    """Immutable ``rows x cols`` matrix of Python ints, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[int]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        frozen = []
        for r in data:
            if len(r) != cols:
                raise ValueError(f"expected {cols} columns, got {len(r)}")
            for x in r:
                if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
                    raise TypeError(f"matrix entries must be ints, got {type(x).__name__}")
            frozen.append(tuple(r))
        self._data: tuple[tuple[int, ...], ...] = tuple(frozen)
        self.rows = rows
        self.cols = cols

    @classmethod
    def _raw(cls, rows: int, cols: int, data: tuple[tuple[int, ...], ...]) -> IntMatrix:
        # Internal fast path: data must already be a tuple of int tuples.
        m = object.__new__(cls)
        m._data = data
        m.rows = rows
        m.cols = cols
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> IntMatrix:
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls._raw(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def scaled(self, c: int) -> IntMatrix:
        return IntMatrix._raw(
            self.rows, self.cols, tuple(tuple(c * x for x in r) for r in self._data)
        )

    def __add__(self, other: IntMatrix) -> IntMatrix:
        self._check_same_shape(other)
        return IntMatrix._raw(
            self.rows, self.cols,
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self._data, other._data)),
        )

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} @ {other.shape()}")
        bt = tuple(zip(*other._data)) if other.rows else ((),) * other.cols
        out = tuple(
            tuple(sum(map(mul, arow, bcol)) for bcol in bt)
            for arow in self._data
        )
        return IntMatrix._raw(self.rows, other.cols, out)

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _check_same_shape(self, other: IntMatrix) -> None:
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape() == other.shape() and self._data == other._data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {[list(r) for r in self._data]})"

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self._data]
        sign = 1
        prev = 1
        for t in range(n - 1):
            if a[t][t] == 0:
                for i in range(t + 1, n):
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        sign = -sign
                        break
                else:
                    return 0
            piv = a[t][t]
            for i in range(t + 1, n):
                ai, at = a[i], a[t]
                lead = ai[t]
                for j in range(t + 1, n):
                    ai[j] = (ai[j] * piv - lead * at[j]) // prev
            prev = piv
        return sign * a[n - 1][n - 1]


def product_differences(ms: Sequence[IntMatrix]) -> Iterator[tuple[int, int, int, int, int, int]]:
    """``(a, b, r, c, x, y)`` for each pair ``a < b``, in order, whose products
    differ: ``x = (ms[a] @ ms[b])[r, c]`` and ``y = (ms[b] @ ms[a])[r, c]`` at the
    first differing entry in row-major order.  ``ms`` holds ``n x n`` matrices.

    No product is formed: each row of ``ms[b]`` packs into one integer, a
    ``w``-bit slot per column with ``w = (n * top**2).bit_length() + 1`` for
    ``top`` the largest ``|entry|``, so ``sum(map(mul, row, packed_b))`` packs
    that row of ``ms[a] @ ms[b]``; its signed digits stay below ``2**(w - 1)``,
    so equal packed rows are equal rows.  Where two differ, the lowest set bit
    of ``x ^ y`` lies in the lowest differing slot, and ``2**(w - 1)`` added to
    every slot makes each digit a plain ``w``-bit field.
    """
    n = ms[0].rows
    top = max(map(abs, chain.from_iterable(chain.from_iterable(m._data for m in ms))))
    w = (n * top * top).bit_length() + 1
    packed = [[sum(map(lshift, row, range(0, w * n, w))) for row in m._data] for m in ms]
    half = 1 << (w - 1)
    bias = None
    for a, b in combinations(range(len(ms)), 2):
        ab = [sum(map(mul, row, packed[b])) for row in ms[a]._data]
        ba = [sum(map(mul, row, packed[a])) for row in ms[b]._data]
        if ab == ba:
            continue
        r = next(r for r in range(n) if ab[r] != ba[r])
        diff = ab[r] ^ ba[r]
        c = ((diff & -diff).bit_length() - 1) // w
        if bias is None:
            bias = sum(half << s for s in range(0, w * n, w))
        x, y = (((v + bias) >> (w * c) & (2 * half - 1)) - half for v in (ab[r], ba[r]))
        yield a, b, r, c, x, y
