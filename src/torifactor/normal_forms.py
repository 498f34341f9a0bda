"""Hermite and Smith normal forms with full unimodular transformation matrices.

Conventions used throughout the package:

* row HNF, left action: ``U @ A == H`` with ``U`` square unimodular.  Pivots
  are positive, pivot columns shift strictly right, entries above a pivot are
  reduced into ``[0, pivot)`` and zero rows sit at the bottom.  ``H`` is the
  unique such form; ``U`` is unique only when ``A`` has full row rank.
* SNF, two-sided action: ``U_left @ A @ U_right == D`` diagonal with
  nonnegative entries, each dividing the next, zeros last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .intmat import IntMatrix, PreconditionError, _det_adjugate


@dataclass(frozen=True)
class HnfResult:
    H: IntMatrix
    U: IntMatrix


@dataclass(frozen=True)
class SnfResult:
    D: IntMatrix
    U_left: IntMatrix
    U_right: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.shape)))


def hnf(a: IntMatrix) -> HnfResult:
    """Row Hermite normal form ``H`` of ``a`` with transform ``U @ a == H``."""
    m = a.rows
    h = a.tolist()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    _hnf_in_place(h, u)
    return HnfResult(IntMatrix(h), IntMatrix(u))


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero rows of the row HNF of
    ``m``, computed in place without a transform."""
    h = m.tolist()
    _hnf_in_place(h)
    return sum(1 for row in h if any(row))


def _hnf_in_place(h: list[list[int]], u: Optional[list[list[int]]] = None) -> None:
    """Bring the nonempty rows ``h`` to row HNF in place.

    Every row operation is applied to ``u`` as well when it is given, so an
    identity ``u`` ends as the transform of ``hnf``.
    """
    m, n = len(h), len(h[0])

    def swap(i, j):
        h[i], h[j] = h[j], h[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def add_multiple(dst, src, q):
        # row_dst -= q * row_src
        hd, hs = h[dst], h[src]
        for k in range(n):
            hd[k] -= q * hs[k]
        if u is not None:
            ud, us = u[dst], u[src]
            for k in range(m):
                ud[k] -= q * us[k]

    def negate(i):
        h[i] = [-x for x in h[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    row = 0
    for col in range(n):
        if row == m:
            break
        while True:
            nz = [i for i in range(row, m) if h[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(h[i][col]), i))
            if best != row:
                swap(row, best)
            if len(nz) == 1:
                break
            for i in range(row + 1, m):
                if h[i][col] != 0:
                    add_multiple(i, row, h[i][col] // h[row][col])
        if h[row][col] == 0:
            continue
        if h[row][col] < 0:
            negate(row)
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                add_multiple(i, row, q)
        row += 1


def _modular_hnf(rows: Iterable[Sequence[int]], r: int, delta: int) -> list[list[int]]:
    """Row HNF of ``span(rows) + delta Z^r``, ``delta >= 1``, as r rows of length r.

    Modular HNF (Domich-Kannan-Trotter 1987; Cohen, GTM 138, Alg. 2.4.8): the
    basis ``w`` starts as ``delta * I`` and each row ``x`` is folded in, one
    column at a time, keeping ``w`` upper triangular.  At column k a multiple
    of the pivot row is subtracted from ``x``; when the pivot does not divide
    ``x[k]``, the two rows swap and the subtraction repeats, an extended gcd
    carried out on the rows.  Rows ``w[k:]`` always span every ``delta e_j``
    with ``j >= k``, so all entries may be reduced mod ``delta``; the pivots
    stay positive and divide ``delta``.  The entries above each pivot are
    reduced last, in ascending column order, which gives the canonical form
    of ``hnf``.
    """
    w = [[delta if i == j else 0 for j in range(r)] for i in range(r)]
    for row in rows:
        x = [v % delta for v in row]
        for k in range(r):
            while x[k]:
                wk = w[k]
                c = x[k] // wk[k]
                x = [(v - c * u) % delta for u, v in zip(wk, x)]
                if x[k]:
                    w[k], x = x, wk
    for j in range(1, r):
        wj = w[j]
        p = wj[j]
        for i in range(j):
            c = w[i][j] // p
            if c:
                w[i] = [u - c * v for u, v in zip(w[i], wj)]
    return w


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form of ``a`` with both unimodular transforms."""
    m, n = a.shape
    d = a.tolist()
    left = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    right = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def row_sub(dst, src, q):
        for k in range(n):
            d[dst][k] -= q * d[src][k]
        for k in range(m):
            left[dst][k] -= q * left[src][k]

    def col_sub(dst, src, q):
        for r in d:
            r[dst] -= q * r[src]
        for r in right:
            r[dst] -= q * r[src]

    def min_entry(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = min_entry(t)
        if pos is None:
            break
        if pos[0] != t:
            swap_rows(t, pos[0])
        if pos[1] != t:
            swap_cols(t, pos[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    row_sub(i, t, d[i][t] // d[t][t])
                    if d[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    col_sub(j, t, d[t][j] // d[t][t])
                    if d[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining block for the divisor chain
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            left[t] = [-x for x in left[t]]
        t += 1
    return SnfResult(IntMatrix(d), IntMatrix(left), IntMatrix(right))


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
    res = hnf(a.transpose())
    if res.H != IntMatrix.identity(k).vstack(IntMatrix.zeros(m - k, k)):
        return None
    return res.U
