"""Exact integer arithmetic on lists of rows, independent of ``torifactor``.

The benchmark builds its instances and checks every result with these
helpers, so no change to the library can alter a workload or its oracle.
Matrices are lists (or tuples) of equal-length integer rows.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def column(a, j):
    return tuple(row[j] for row in a)


def select_cols(a, cols):
    return [[row[j] for j in cols] for row in a]


def det(a):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def content(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def maximal_minors(a):
    """All ``n x n`` minors of an ``n x m`` matrix, keyed by column subset."""
    n, m = len(a), len(a[0])
    return {cols: det(select_cols(a, cols)) for cols in combinations(range(m), n)}


def rank(a):
    """Rank over the rationals by fraction-free row echelon."""
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    r, prev = 0, 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def _hyperplane_normal(vectors):
    """Normal of the hyperplane through ``n - 1`` vectors of R^n, by cofactors."""
    n = len(vectors) + 1
    return tuple(
        (-1) ** i * det([[v[k] for k in range(n) if k != i] for v in vectors])
        for i in range(n)
    )


def positively_spans(a):
    """Whether the columns of ``a`` positively span R^n.

    True iff ``a`` has full row rank and no hyperplane spanned by columns
    leaves every column on one closed side.
    """
    n, m = len(a), len(a[0])
    if rank(a) != n:
        return False
    cols = [column(a, j) for j in range(m)]
    if n == 1:
        return any(c[0] > 0 for c in cols) and any(c[0] < 0 for c in cols)
    for subset in combinations(cols, n - 1):
        normal = _hyperplane_normal(subset)
        if not any(normal):
            continue
        dots = [sum(u * x for u, x in zip(normal, c)) for c in cols]
        if all(d >= 0 for d in dots) or all(d <= 0 for d in dots):
            return False
    return True


def positively_proportional_pair(a):
    cols = [column(a, j) for j in range(len(a[0]))]
    for u, w in combinations(cols, 2):
        parallel = all(u[p] * w[q] == u[q] * w[p] for p, q in combinations(range(len(u)), 2))
        if parallel and sum(x * y for x, y in zip(u, w)) > 0:
            return True
    return False


def is_reduced_fan_matrix(a):
    """Fan-matrix conditions: full rank, positive spanning, no zero column,
    no positively proportional pair; and every column has content 1."""
    m = len(a[0])
    return (
        len(a) < m
        and all(content(column(a, j)) == 1 for j in range(m))
        and not positively_proportional_pair(a)
        and positively_spans(a)
    )


def column_lattice_is_full(a):
    """Whether the columns generate Z^n: the maximal minors have gcd 1."""
    return content(maximal_minors(a).values()) == 1


def smith_left(a):
    """Smith form of ``a`` with its left transform only.

    Returns ``(d, u)``: ``u`` is unimodular and ``u @ a @ w`` is diagonal with
    entries ``d`` (nonnegative, each dividing the next, zeros last) for some
    unimodular ``w`` that is not tracked.
    """
    rows, cols = len(a), len(a[0])
    m = [list(r) for r in a]
    u = identity(rows)

    def row_op(dst, src, q):
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    t = 0
    while t < min(rows, cols):
        nz = [(abs(m[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]]
        if not nz:
            break
        _, i, j = min(nz)
        m[t], m[i] = m[i], m[t]
        u[t], u[i] = u[i], u[t]
        for r in m:
            r[t], r[j] = r[j], r[t]
        while True:
            p = m[t][t]
            bad_row = next((i for i in range(t + 1, rows) if m[i][t] % p), None)
            bad_col = next((j for j in range(t + 1, cols) if m[t][j] % p), None)
            if bad_row is not None:
                row_op(bad_row, t, m[bad_row][t] // p)
                m[t], m[bad_row] = m[bad_row], m[t]
                u[t], u[bad_row] = u[bad_row], u[t]
                continue
            if bad_col is not None:
                q = m[t][bad_col] // p
                for r in m:
                    r[bad_col] -= q * r[t]
                    r[t], r[bad_col] = r[bad_col], r[t]
                continue
            for i in range(t + 1, rows):
                if m[i][t]:
                    row_op(i, t, m[i][t] // p)
            for j in range(t + 1, cols):
                q = m[t][j] // p
                for r in m:
                    r[j] -= q * r[t]
            offender = next(
                (i for i in range(t + 1, rows) if any(m[i][j] % p for j in range(t + 1, cols))),
                None,
            )
            if offender is None:
                break
            row_op(t, offender, -1)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [m[i][i] if i < cols else 0 for i in range(rows)]
    return d, u


def class_group(v):
    """Presentation of ``Z^m / rowspace(v)`` for a full-rank ``n x m`` matrix.

    Returns ``(q, moduli, gamma)``: ``q`` (``m - n`` rows) spans the integer
    kernel of ``v``; ``moduli`` are the torsion invariants; ``gamma`` holds
    one row per invariant, reduced modulo it, so that ``x -> (q x, gamma x)``
    maps ``Z^m`` onto ``Z^(m-n) + Z/moduli`` with kernel the row lattice of ``v``.
    """
    n = len(v)
    d, u = smith_left(transpose(v))
    q = u[n:]
    moduli = [x for x in d[:n] if x > 1]
    gamma = [[x % t for x in u[i]] for i, t in enumerate(d[:n]) if t > 1]
    return q, moduli, gamma
