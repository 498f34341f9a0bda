"""Hermite and Smith normal forms with full unimodular transformation matrices.

Conventions used throughout the package:

* row HNF, left action: ``U @ A == H`` with ``U`` square unimodular.  Pivots
  are positive, pivot columns shift strictly right, entries above a pivot are
  reduced into ``[0, pivot)`` and zero rows sit at the bottom.  ``H`` is the
  unique such form; ``U`` is unique only when ``A`` has full row rank.
* SNF, two-sided action: ``U_left @ A @ U_right == D`` diagonal with
  nonnegative entries, each dividing the next, zeros last.  ``D`` is unique,
  the transforms are not.  ``snf`` runs no elimination of its own: the one
  row HNF routine, ``_hnf_in_place``, takes ``D`` and ``D^T`` in turn, with
  ``U_left`` and ``U_right^T`` as their trailing columns.  On a
  nonsingular ``A`` they are bounded by ``A^-1`` and ``|det A|``: the first
  ``U_left`` is ``H A^-1``, with entries at most ``n max|adj A|``, and every
  later pass reduces an HNF with entries at most ``|det A|``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .intmat import IntMatrix, PreconditionError, Record, _cached, _det_adjugate


class HnfResult(Record):
    H: IntMatrix
    U: IntMatrix


class SnfResult(Record):
    D: IntMatrix
    U_left: IntMatrix
    U_right: IntMatrix


def hnf(a: IntMatrix) -> HnfResult:
    """Row Hermite normal form ``H`` of ``a`` with transform ``U @ a == H``."""
    m, n = a.shape
    rows = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    _hnf_in_place(rows, n)
    return HnfResult(*_split(rows, n))


def _split(rows: list[list[int]], n: int) -> tuple[IntMatrix, IntMatrix]:
    """The first ``n`` columns of ``rows`` and the columns after them."""
    return (
        IntMatrix._of(tuple(tuple(row[:n]) for row in rows)),
        IntMatrix._of(tuple(tuple(row[n:]) for row in rows)),
    )


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero rows of the row HNF of
    ``m``, computed in place without a transform."""
    h = m.tolist()
    _hnf_in_place(h, m.cols)
    return sum(1 for row in h if any(row))


def _hnf_in_place(rows: list[list[int]], n: int) -> None:
    """Bring the first ``n`` columns of ``rows`` to row HNF in place.

    The columns after ``n`` take every row operation and never steer the
    pivoting, so ``[a | I]`` ends as ``[H | U]`` with ``U @ a == H``.  Each
    column is pivoted on its entry of least absolute value, the lowest row
    on ties, until the entries below it vanish.  Rows are replaced, never
    changed in place, as in ``_hnf_fold``.
    """
    m = len(rows)
    r = 0
    for col in range(n):
        if r == m:
            break
        while True:
            nz = [(abs(rows[i][col]), i) for i in range(r, m) if rows[i][col]]
            if not nz:
                break
            i = min(nz)[1]
            rows[r], rows[i] = rows[i], rows[r]
            if len(nz) == 1:
                break
            top = rows[r]
            for i in range(r + 1, m):
                q = rows[i][col] // top[col]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
        if not nz:
            continue
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        top = rows[r]
        for i in range(r):
            q = rows[i][col] // top[col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
        r += 1


def _modular_hnf(rows: Iterable[Sequence[int]], r: int, delta: int) -> list[list[int]]:
    """Row HNF of ``span(rows) + delta Z^r``, ``delta >= 1``, as r rows of length r.

    Modular HNF (Domich-Kannan-Trotter 1987; Cohen, GTM 138, Alg. 2.4.8): the
    rows are folded into ``delta * I`` by ``_hnf_fold`` and the entries above
    the pivots reduced by ``_hnf_reduce``, which gives the canonical form of
    ``hnf``.
    """
    w = [[delta if i == j else 0 for j in range(r)] for i in range(r)]
    _hnf_fold(w, rows, delta)
    _hnf_reduce(w)
    return w


def _hnf_fold(w: list[list[int]], rows: Iterable[Sequence[int]], delta: int) -> None:
    """Fold ``rows`` into ``w`` in place: ``w`` is an upper triangular basis
    with positive pivots of a lattice containing ``delta Z^r`` and ends as one
    of that lattice plus ``span(rows)``.

    Each row ``x`` is folded in one column at a time.  At column k a multiple
    of the pivot row is subtracted from ``x``; when the pivot does not divide
    ``x[k]``, the two rows swap and the subtraction repeats, an extended gcd
    carried out on the rows.  Rows ``w[k:]`` always span every ``delta e_j``
    with ``j >= k``, so all entries may be reduced mod ``delta``; the pivots
    stay positive and divide ``delta``.  Rows of ``w`` are replaced, never
    changed in place, so a shallow copy of ``w`` keeps the state before.
    """
    r = len(w)
    for row in rows:
        x = [v % delta for v in row]
        for k in range(r):
            while x[k]:
                wk = w[k]
                c = x[k] // wk[k]
                x = [(v - c * u) % delta for u, v in zip(wk, x)]
                if x[k]:
                    w[k], x = x, wk


def _hnf_reduce(w: list[list[int]]) -> None:
    """Reduce the entries above each pivot of the upper triangular ``w`` into
    ``[0, pivot)`` in place, in ascending column order, which gives the row
    HNF of the lattice ``w`` spans; rows are replaced as in ``_hnf_fold``."""
    for j in range(1, len(w)):
        wj = w[j]
        p = wj[j]
        for i in range(j):
            c = w[i][j] // p
            if c:
                w[i] = [u - c * v for u, v in zip(w[i], wj)]


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form of ``a`` with both unimodular transforms.

    Kannan-Bachem (SIAM J. Comput. 8, 1979; Cohen, GTM 138, §2.4.4): a row
    HNF of ``[d | U_left]`` by ``_hnf_in_place``, then one of ``[d^T |
    U_right^T]``, repeated until ``d`` is diagonal.  Where
    a nonzero ``d_ii`` does not divide a later ``d_jj``, column j is added to
    column i and the loop goes on; a row addition would be undone by the
    next row HNF.

    The loop ends: the first pivot is a positive integer that never grows,
    since each HNF makes it the gcd of a column or row holding it.  Once it
    divides its row and column, both are cleared and no later HNF touches
    them, so the argument repeats on the rest; a column addition strictly
    lowers its ``d_ii``.  The transforms stay small: the HNF transform of a
    nonsingular matrix is unique, ``U_left = H a^-1`` after the first pass,
    and every later pass acts on HNFs with entries at most ``|det a|``.
    Zero rows and columns come last: the HNFs put the nonzero entries on
    the first ``rank a`` diagonal places.
    """
    m, n = a.shape
    d = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    right_t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = min(m, n)
    while True:
        _hnf_in_place(d, n)
        d_t = [list(col) + row for col, row in zip(zip(*d), right_t)]
        _hnf_in_place(d_t, m)
        right_t = [row[m:] for row in d_t]
        d = [list(col) + row[n:] for col, row in zip(zip(*d_t), d)]
        if any(x for i, row in enumerate(d) for j, x in enumerate(row[:n]) if i != j):
            continue
        fix = next(
            ((i, j) for i in range(k) for j in range(i + 1, k) if d[i][i] and d[j][j] % d[i][i]),
            None,
        )
        if fix is None:
            return SnfResult(*_split(d, n), IntMatrix._of(tuple(zip(*right_t))))
        i, j = fix
        d[j][i] = d[j][j]
        right_t[i] = [x + y for x, y in zip(right_t[i], right_t[j])]


def unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix: ``d * adj(u)`` with ``d = det(u)``,
    both from one fraction-free pass of ``_det_adjugate``.

    ``ShapeError`` unless ``u`` is square, ``PreconditionError`` unless ``d``
    is 1 or -1.
    """
    d, adj = _det_adjugate(u)
    if d not in (1, -1):
        raise PreconditionError("matrix is not unimodular")
    return d * adj


def _identity_block_transform(a: IntMatrix) -> Optional[IntMatrix]:
    """Transform ``U`` with ``U @ a^T == [I; 0]``, or ``None`` for another HNF.

    ``[I; 0]`` holds iff the columns of ``a`` generate Z^rows; then the top
    block of ``U`` pairs with ``a`` to I and the lower block is a basis of ker a.
    """
    k, m = a.shape
    res = _transposed_hnf(a)
    if res.H != IntMatrix.identity(k).vstack(IntMatrix.zeros(m - k, k)):
        return None
    return res.U


def _transposed_hnf(a: IntMatrix) -> HnfResult:
    """``hnf(a^T)``, once per ``a`` inside a ``shared_tables`` block: the
    kernel of ``a`` and the ``[I; 0]`` test read the same form."""
    return _cached(a, "transposed hnf", lambda: hnf(a.transpose()))
