"""Dense matrices of arbitrary-precision integers with exact arithmetic."""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence


class ShapeError(ValueError):
    """An operand has the wrong shape for the requested operation."""


class PreconditionError(ValueError):
    """A mathematical precondition on the input is violated."""


class SearchLimitExceeded(RuntimeError):
    """A search hit its configured cap: candidate bases of the fan-matrix
    equivalence, or partial fans of the fan enumeration."""


class IntMatrix:
    """Immutable row-major matrix of Python integers.

    Every constructed matrix has at least one row and one column and all
    arithmetic is exact; there is no floating point anywhere.
    """

    __slots__ = ("_rows",)

    def __init__(self, data: Iterable[Iterable[int]]):
        rows = tuple(tuple(operator.index(x) for x in row) for row in data)
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("rows have inconsistent lengths")
        object.__setattr__(self, "_rows", rows)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def block_diagonal(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        total_r = sum(b.rows for b in blocks)
        total_c = sum(b.cols for b in blocks)
        out = [[0] * total_c for _ in range(total_r)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                out[r0 + i][c0 : c0 + b.cols] = b.row(i)
            r0 += b.rows
            c0 += b.cols
        return cls(out)

    @classmethod
    def permutation(cls, images: Sequence[int]) -> "IntMatrix":
        """Permutation matrix S with (A @ S) placing column images[j] of A at j."""
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ShapeError("not a permutation of 0..n-1")
        out = [[0] * n for _ in range(n)]
        for j, src in enumerate(images):
            out[src][j] = 1
        return cls(out)

    # -- shape and access ----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return tuple(r[j] for r in self._rows)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._rows[i][j]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._rows)

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    # -- slicing -------------------------------------------------------------

    def select_rows(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix([self._rows[i] for i in indices])

    def select_cols(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix([[r[j] for j in indices] for r in self._rows])

    def top_rows(self, k: int) -> "IntMatrix":
        return IntMatrix(self._rows[:k])

    def bottom_rows(self, k: int) -> "IntMatrix":
        return IntMatrix(self._rows[self.rows - k :])

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if other.cols != self.cols:
            raise ShapeError("column counts differ")
        return IntMatrix(self._rows + other._rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if other.rows != self.rows:
            raise ShapeError("row counts differ")
        return IntMatrix([a + b for a, b in zip(self._rows, other._rows)])

    # -- arithmetic ----------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self._rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        cols = list(zip(*other._rows))
        return IntMatrix([[sum(map(operator.mul, r, c)) for c in cols] for r in self._rows])

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError("shape mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError("shape mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self._rows, other._rows)]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-x for x in r] for r in self._rows])

    def __mul__(self, scalar: int) -> "IntMatrix":
        k = operator.index(scalar)
        return IntMatrix([[k * x for x in r] for r in self._rows])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"IntMatrix({_int_list_text(self._rows)})"


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise ShapeError("determinant requires a square matrix")
    return _det_rows(m.tolist())


def _det_rows(a: list[list[int]]) -> int:
    """``det`` of the square matrix with rows ``a``, a list of lists that the
    Bareiss elimination overwrites; 1 for no rows, and two rows expanded
    directly."""
    n = len(a)
    if n == 0:
        return 1
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _det_adjugate(m: IntMatrix) -> tuple[int, Optional[IntMatrix]]:
    """Determinant and adjugate of a square matrix; ``(0, None)`` if singular."""
    if not m.is_square():
        raise ShapeError("adjugate requires a square matrix")
    d, adj = _det_adjugate_rows(m.tolist())
    return d, None if adj is None else IntMatrix(adj)


def _det_adjugate_rows(
    rows: Sequence[Sequence[int]],
) -> tuple[int, Optional[tuple[tuple[int, ...], ...]]]:
    """``(det, adj)`` of the square matrix with rows ``rows``, the adjugate as
    a tuple of row tuples; ``(0, None)`` if singular.

    One fraction-free Gauss-Jordan pass over ``[m | I]`` (Bareiss) leaves
    ``p * I`` on the left and ``s * adj(m)`` on the right, where ``s`` is the
    sign of the row swaps and ``p = s * det(m)``.  Every intermediate entry
    is a minor of ``[m | I]``, so each division is exact.
    """
    n = len(rows)
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


# (id(m), key) -> (m, value) in the outermost open ``_shared_tables`` block;
# holding m keeps its id from being reused while the block is open
_TABLES: ContextVar[Optional[dict]] = ContextVar("torifactor_tables", default=None)


@contextmanager
def _shared_tables():
    """Block of one call in which ``_cached`` keeps its values; nested blocks
    share the outermost table, which is dropped when that block exits."""
    token = _TABLES.set({}) if _TABLES.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _TABLES.reset(token)


def _cached(m, key, compute):
    """``compute()``, once per matrix object ``m`` and ``key`` inside a
    ``_shared_tables`` block; outside any block it simply computes."""
    tables = _TABLES.get()
    if tables is None:
        return compute()
    if (id(m), key) not in tables:
        tables[id(m), key] = (m, compute())
    return tables[id(m), key][1]


def _int_text(x: int) -> str:
    """``str(x)``, or the digit count of ``x`` when it has more digits than the
    interpreter converts to a string, so a message never fails to format."""
    try:
        return str(x)
    except ValueError:
        digits = int((abs(x).bit_length() - 1) * 0.30102999566398120)  # at most the count
        while abs(x) >= 10**digits:
            digits += 1
        return f"{'-' if x < 0 else ''}<integer of {digits} digits>"


def _int_list_text(values) -> str:
    """The ``repr`` of ``values``, nested sequences of integers, as lists, with
    each integer written by ``_int_text``."""
    if isinstance(values, int):
        return _int_text(values)
    return "[" + ", ".join(map(_int_list_text, values)) + "]"


def _int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as exact integers; ``ShapeError`` for any non-integer, which
    ``int`` would truncate silently."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ShapeError(f"{what} must be integers: {exc}") from None


def _search_cap(cap: Optional[int], what: str) -> Optional[int]:
    """A search cap as an exact integer (``ShapeError``) of at least 1
    (``PreconditionError``), or ``None`` for no cap."""
    if cap is not None:
        (cap,) = _int_tuple((cap,), what)
        if cap < 1:
            raise PreconditionError(f"{what} must be at least 1, got {_int_text(cap)}")
    return cap


def vector_content(v: Sequence[int]) -> int:
    """Gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g
