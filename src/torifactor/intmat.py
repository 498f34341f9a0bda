"""Dense matrices of arbitrary-precision integers with exact arithmetic."""

from __future__ import annotations

import operator
from contextvars import ContextVar
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence


class ShapeError(ValueError):
    """An operand has the wrong shape for the requested operation."""


class PreconditionError(ValueError):
    """A mathematical precondition on the input is violated."""


class SearchLimitExceeded(RuntimeError):
    """A search hit its configured cap: candidate bases of the fan-matrix
    equivalence, or partial fans of the fan enumeration."""


_setattr = object.__setattr__


class Record:
    """Base of the immutable result records, with frozen-dataclass semantics.

    A subclass declares its fields as class annotations, read in order into
    ``_fields``.  It is built from positional or keyword fields, and runs its
    ``__post_init__``, if any, on them.  A record equals only a record of
    the same class with equal fields, hashes as its field tuple, prints as
    ``Name(field=value, ...)`` and refuses assignment and deletion.
    ``_replace(**changes)`` builds a changed copy through the constructor.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if args or len(kwargs) != len(names):
            if kwargs or len(args) != len(names):
                args = self._bind(args, kwargs)
            for name, value in zip(names, args):
                _setattr(self, name, value)
        else:  # all by keyword
            try:
                for name in names:
                    _setattr(self, name, kwargs[name])
            except KeyError:
                self._bind(args, kwargs)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from positional and keyword fields."""
        names = self._fields
        rest = names[len(args) :]
        wrong = []
        if len(args) > len(names):
            wrong.append(f"{len(args)} positional for {len(names)} fields")
        for key in kwargs:
            if key not in rest:
                wrong.append(f"{'repeated' if key in names else 'unexpected'} field {key!r}")
        wrong += [f"missing field {name!r}" for name in rest if name not in kwargs]
        if wrong:  # from None: no KeyError context from the keyword path of __init__
            raise TypeError(f"{type(self).__qualname__}: {', '.join(wrong)}") from None
        return args + tuple([kwargs[name] for name in rest])

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes) -> "Record":
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntMatrix:
    """Immutable row-major matrix of Python integers.

    Every constructed matrix has at least one row and one column and all
    arithmetic is exact; there is no floating point anywhere.  The public
    constructor checks its data: exact integers, a nonempty shape, rows of
    equal length.  Results built from matrices that passed those checks,
    such as products, transposes, stacks and normal forms, go through
    ``_of`` and skip them.
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

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix with ``rows``, unchecked: a nonempty tuple of int tuples
        of equal nonzero length, for internal results whose shape cannot be
        empty."""
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", rows)
        return m

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
        return IntMatrix._of(self._rows[: self._row_count(k)])

    def bottom_rows(self, k: int) -> "IntMatrix":
        return IntMatrix._of(self._rows[len(self._rows) - self._row_count(k) :])

    def _row_count(self, k: int) -> int:
        if not 1 <= k <= len(self._rows):
            raise ShapeError(f"cannot take {k} of {len(self._rows)} rows")
        return k

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if other.cols != self.cols:
            raise ShapeError("column counts differ")
        return IntMatrix._of(self._rows + other._rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if other.rows != self.rows:
            raise ShapeError("row counts differ")
        return IntMatrix._of(tuple(a + b for a, b in zip(self._rows, other._rows)))

    # -- arithmetic ----------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self._rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        cols = list(zip(*other._rows))
        return IntMatrix._of(
            tuple(tuple([sum(map(operator.mul, r, c)) for c in cols]) for r in self._rows)
        )

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
        return IntMatrix._of(tuple(tuple([-x for x in r]) for r in self._rows))

    def __mul__(self, scalar: int) -> "IntMatrix":
        k = operator.index(scalar)
        return IntMatrix._of(tuple(tuple([k * x for x in r]) for r in self._rows))

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


def _row_times(row: Sequence[int], cols: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The row ``row`` times the matrix with columns ``cols``."""
    return tuple([sum(map(operator.mul, row, c)) for c in cols])


def _memo_product(
    rows: Iterable[tuple[int, ...]], cols: Sequence[Sequence[int]], memo: dict
) -> tuple[tuple[int, ...], ...]:
    """The rows of ``rows`` times the matrix with columns ``cols``.  ``memo``
    maps each row seen with these ``cols`` to its product, so each distinct
    row is multiplied once (``_row_times``) however many calls hold it."""
    out = []
    for row in rows:
        p = memo.get(row)
        if p is None:
            p = memo[row] = _row_times(row, cols)
        out.append(p)
    return tuple(out)


def _laplace_minors(rows: Sequence[Sequence[int]], m: int) -> dict[int, int]:
    """The k x k minors of the k x m matrix with rows ``rows``, keyed by the
    bitmask of their columns, in the lexicographic order of the column subsets.

    Level t holds the minors of rows 0..t-1 on every t-subset of columns.  A
    (t+1)-subset ``s`` expands along row t, ``sum_i (-1)^(t+i) rows[t][s_i]
    level_t[s - s_i]``, so the subsets share their sub-minors and no division
    is taken.  No rows give the one empty minor, 1.
    """
    level = {0: 1}
    for t, row in enumerate(rows):
        nxt = {}
        for s in combinations(range(m), t + 1):
            mask = 0
            for j in s:
                mask |= 1 << j
            acc, neg = 0, t & 1
            for j in s:
                x = row[j]
                if x:
                    d = level[mask ^ 1 << j]
                    if d:
                        acc += -x * d if neg else x * d
                neg ^= 1
            nxt[mask] = acc
        level = nxt
    return level


def _det_adjugate(m: IntMatrix) -> tuple[int, Optional[IntMatrix]]:
    """Determinant and adjugate of a square matrix; ``(0, None)`` if singular."""
    if not m.is_square():
        raise ShapeError("adjugate requires a square matrix")
    d, adj = _det_adjugate_rows(m.tolist())
    return d, None if adj is None else IntMatrix._of(adj)


def _det_adjugate_rows(
    rows: Sequence[Sequence[int]],
) -> tuple[int, Optional[tuple[tuple[int, ...], ...]]]:
    """``(det, adj)`` of the square matrix with rows ``rows``, the adjugate as
    a tuple of row tuples; ``(0, None)`` if singular.

    ``_bareiss_jordan`` on ``[m | I]`` leaves ``p * I`` on the left and
    ``s * adj(m)`` on the right, where ``s`` is the sign of the row swaps and
    ``p = s * det(m)``.
    """
    n = len(rows)
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    pivots = _bareiss_jordan(a, n)
    if pivots is None:
        return 0, None
    sign, p = pivots
    return sign * p, tuple(tuple(sign * x for x in row[n:]) for row in a)


def _bareiss_jordan(a: list[list[int]], n: int) -> Optional[tuple[int, int]]:
    """Fraction-free Gauss-Jordan pass (Bareiss) over the rows ``a`` in place:
    pivot ``k`` is the first nonzero entry of column ``k`` in rows ``k`` on,
    and every other row is cleared in that column, so the first ``n`` columns
    end as ``p I`` over zero rows; each entry is a minor, each division exact.
    ``(sign of the row swaps, p)``, or ``None`` for fewer than ``n`` pivots."""
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign, prev


# (id(m), key) -> (m, value) in the outermost open ``shared_tables`` block;
# holding m keeps its id from being reused while the block is open
_TABLES: ContextVar[Optional[dict]] = ContextVar("torifactor_tables", default=None)


class shared_tables:
    """Block in which every library call computes each table of a matrix
    object once: its kernel, maximal minors, circuits, classification and
    the like, kept by ``_cached``.  Matrices are keyed by identity and held
    while the block is open; nested blocks share the outermost table, which
    is dropped when that block exits, also on an exception.  ``analyze`` runs
    in one; a caller that passes the same matrices to several calls can open
    one around them.  Every ``picard_basis`` call enters one, so it is a
    slotted class, not a generator: an inner block only reads the open
    table on entry and does nothing on exit."""

    __slots__ = ("_token",)

    def __enter__(self) -> None:
        self._token = _TABLES.set({}) if _TABLES.get() is None else None

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            _TABLES.reset(self._token)


def _cached(m, key, compute):
    """``compute()``, once per matrix object ``m`` and ``key`` inside a
    ``shared_tables`` block; outside any block it simply computes."""
    tables = _TABLES.get()
    if tables is None:
        return compute()
    if (id(m), key) not in tables:
        tables[id(m), key] = (m, compute())
    return tables[id(m), key][1]


def _held(m, key) -> bool:
    """Whether the open ``shared_tables`` block already holds ``key`` for ``m``."""
    tables = _TABLES.get()
    return tables is not None and (id(m), key) in tables


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
