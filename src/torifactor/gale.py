"""Gale duals and the fan-matrix / weight-matrix classification predicates.

A fan matrix ("F-matrix") is an n x (n+r) integer matrix whose columns
positively span R^n, with no zero column and no positively proportional
column pair.  A weight matrix ("W-matrix") is an r x (n+r) Gale dual of such
a matrix.  Both notions are invariant under the choice of lattice basis, so
the predicates below accept any representative.

Every cone test on a fan matrix ``V`` reads one table of its maximal minors,
``_minors``, built from the smaller side of the Gale pair: on ``V`` itself
when ``r >= n``, otherwise from the r x r minors of the saturated kernel
``Q`` of ``V``, the one ``gale_dual`` returns, with one n x n minor of ``V``
to fix their common factor.  A kernel of rank other than r means ``V`` has
rank below n, and then every minor is 0.

``classify_W`` reads two weight conditions on the integer kernel ``K`` of
``Q`` as fan conditions; the rational row space of ``Q`` is ``{x : K x = 0}``:

* W (c), a vector with all entries positive in the row lattice, is F (a)
  and (b) on ``K``: ``Q`` has full rank and the columns of ``K`` positively span;
* W (f), no row-lattice vector with exactly two nonzero entries of opposite
  sign, is F (c) and (d) on ``K`` with one zero column allowed: meeting a
  coordinate plane, the row lattice has rank 2 iff both columns of ``K``
  vanish, and a generator of opposite signs iff they are positively
  proportional.  Both are rational notions, so ``Q`` need not be saturated;
* W (a), (b), (d) and (e) are read on ``Q``; (e) stays a membership test,
  since ``2 e_j`` in the row lattice does not put ``e_j`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .intmat import (
    IntMatrix,
    PreconditionError,
    ShapeError,
    _cached,
    _det_rows,
    _laplace_minors,
    _shared_tables,
    vector_content,
)
from .lattices import Lattice, kernel_saturation
from .normal_forms import _identity_block_transform


@dataclass(frozen=True)
class FMatrixReport:
    is_F: bool
    is_CF: bool
    is_reduced: bool
    failed_conditions: tuple[str, ...]


@dataclass(frozen=True)
class WMatrixReport:
    is_W: bool
    failed_conditions: tuple[str, ...]


def gale_dual(a: IntMatrix) -> IntMatrix:
    """Canonical HNF basis of the saturated integer kernel of ``a``.

    The result G satisfies G @ a^T == 0 and its rows span the full lattice of
    integer relations among the columns of ``a``; ``a`` has full row rank iff
    that kernel has rank ``cols - rows``.  Inside a ``_shared_tables`` block the
    kernel is the one ``_minors`` reads.
    """
    ker = _kernel(a)
    if ker.rank != a.cols - a.rows:
        raise PreconditionError("gale_dual requires full row rank")
    if ker.rank == 0:
        raise PreconditionError("square full-rank matrix has trivial kernel")
    return ker.basis_matrix()


def _kernel(a: IntMatrix) -> Lattice:
    """``kernel_saturation(a)``, once per ``a`` inside a ``_shared_tables`` block."""
    return _cached(a, "kernel", lambda: kernel_saturation(a))


def positive_span_is_full(v: IntMatrix) -> bool:
    """Exact test that the columns of ``v`` positively span all of R^n.

    The positive hull is full iff ``v`` has full row rank and no hyperplane
    spanned by n-1 of the columns has all columns on one closed side: the
    cocircuit table is nonempty and each of its rows has both signs.
    """
    rows = _cocircuits(v).values()
    return bool(rows) and all(min(row) < 0 < max(row) for row in rows)


def _minors(v: IntMatrix) -> dict[tuple[int, ...], int]:
    """``det V_c`` of every n-subset ``c`` of columns, keyed by the sorted
    subset in lexicographic order; built once per ``v`` inside a
    ``_shared_tables`` block.  Every cone test on ``v`` is read off it."""
    return _cached(v, "minors", lambda: _minor_table(v))


def _minor_table(v: IntMatrix) -> dict[tuple[int, ...], int]:
    """The table of ``_minors``, from the smaller side of the Gale pair, with
    all minors of one side taken by ``_laplace_minors`` on plain rows: level t
    holds the t x t minors of the first t rows, each expanded along row t from
    the level before.

    For ``m = n + r`` columns with ``r >= n`` the n x n minors of ``V`` are the
    table.  For ``r < n`` the saturated kernel ``Q`` of ``V`` is read first
    (``_kernel``, shared with ``gale_dual``).  If its rank is not r, ``V`` has
    rank below n and every minor is 0, with no determinant taken.  Otherwise
    the r x r minors of ``Q`` give them all: for every n-subset ``c`` with
    complement ``cbar``, ``det V_c = lam (-1)^(sum c + n(n-1)/2) det Q_cbar``
    with ``|lam| = |det beta|`` (Bjorner-Las Vergnas-Sturmfels-White-Ziegler,
    Oriented Matroids, 3.4), and one n x n ``det V_c``, at the first ``c``
    whose ``det Q_cbar`` is nonzero, fixes ``lam`` by an exact division.
    Taking complements reverses the lexicographic order of the subsets, so
    the r-subsets are walked in that order and their list reversed.
    """
    n, m = v.shape
    r = m - n
    if r >= n:
        return dict(zip(combinations(range(m), n), _laplace_minors(tuple(v), m).values()))
    ker = _kernel(v)
    if ker.rank != r:
        return dict.fromkeys(combinations(range(m), n), 0)
    # (-1)^(sum c + n(n-1)/2), with sum c = m(m-1)/2 - sum cbar
    base = (m * (m - 1) // 2 + n * (n - 1) // 2) % 2
    q_minors = _laplace_minors(ker.basis_rows, m).values()
    signed = [
        -d if (base + sum(cbar)) % 2 else d for cbar, d in zip(combinations(range(m), r), q_minors)
    ]
    signed.reverse()
    table = dict(zip(combinations(range(m), n), signed))
    c, d = next((c, d) for c, d in table.items() if d)
    lam, rest = divmod(_det_rows([[row[j] for j in c] for row in v]), d)
    if rest:
        raise PreconditionError("maximal minors of a Gale pair are not proportional")
    return {c: lam * d for c, d in table.items()}


def _cocircuits(v: IntMatrix) -> dict[tuple[int, ...], list[int]]:
    """For each (n-1)-subset ``h`` of columns spanning a hyperplane, the row
    ``det[V_h | v_j]`` over all columns ``j``, whose signs are the sides of the
    columns: ``(-1)^(n-1-i) det V_c`` for ``h = c - c_i`` and ``j = c_i``."""
    n, m = v.shape
    rows: dict[tuple[int, ...], list[int]] = {}
    for c, d in _minors(v).items():
        if d:
            sign_d = d if n % 2 else -d  # (-1)^(n-1-i) d at i = 0, flipping with i
            for i, j in enumerate(c):
                h = c[:i] + c[i + 1 :]
                row = rows.get(h)
                if row is None:
                    row = rows[h] = [0] * m
                row[j] = sign_d
                sign_d = -sign_d
    return rows


def classify_F(v: IntMatrix) -> FMatrixReport:
    """Test the fan-matrix conditions (a)-(d), the CF condition (e), reducedness."""
    n, m = v.shape
    if n >= m:
        raise ShapeError("a fan matrix must have more columns than rows")
    failed = []
    with _shared_tables():
        minors = _minors(v).values()
        # v has rank n iff some n-subset of its columns is nonsingular
        if not any(minors):
            failed.append("a")
        if not positive_span_is_full(v):
            failed.append("b")
    columns = [v.col(j) for j in range(m)]
    if any(not any(c) for c in columns):
        failed.append("c")
    if _has_positively_proportional_pair(columns):
        failed.append("d")
    is_f = not failed
    # (e): for rank n, the gcd of the maximal minors is the index of the column lattice
    cf = is_f and vector_content(minors) == 1
    if is_f and not cf:
        failed.append("e")
    reduced = all(vector_content(c) == 1 for c in columns)
    return FMatrixReport(is_f, cf, reduced, tuple(failed))


def _has_positively_proportional_pair(columns) -> bool:
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            a, b = columns[i], columns[j]
            if not any(a) or not any(b):
                continue
            collinear = all(
                a[p] * b[q] == a[q] * b[p] for p in range(len(a)) for q in range(p + 1, len(a))
            )
            if collinear and sum(x * y for x, y in zip(a, b)) > 0:
                return True
    return False


def classify_W(q: IntMatrix) -> WMatrixReport:
    """Test the weight-matrix conditions (a)-(f); (c) and (f) are read on the
    integer kernel ``K`` of ``q`` (see the module docstring).  ``K`` and the
    ``[I; 0]`` test of (b) read one HNF of ``q^T``.  When (b) holds, the row
    lattice of ``q`` is saturated, so it is the kernel of ``K`` that the minor
    table of (c) reads: ``q`` takes one kernel then, not two."""
    r, m = q.shape
    if r >= m:
        raise ShapeError("a weight matrix must have more columns than rows")
    failed = []
    with _shared_tables():
        # one HNF of q^T gives both; r < m, so the kernel is never zero, and it
        # is gale_dual(q) when q has full rank
        ker = kernel_saturation(q)
        saturated = _identity_block_transform(q) is not None
    full_rank = ker.rank == m - r
    if not full_rank:
        failed.append("a")
    if not saturated:
        failed.append("b")
    kernel = ker.basis_matrix()
    row_lattice = Lattice.from_matrix(q)
    with _shared_tables():
        if saturated:
            # the kernel of K is the saturation of the row lattice of q, which (b) gives
            _cached(kernel, "kernel", lambda: row_lattice)
        if not (full_rank and positive_span_is_full(kernel)):
            failed.append("c")
    if any(not any(q.col(j)) for j in range(m)):
        failed.append("d")
    if any([int(k == j) for k in range(m)] in row_lattice for j in range(m)):
        failed.append("e")
    columns = [kernel.col(j) for j in range(m)]
    if sum(not any(c) for c in columns) >= 2 or _has_positively_proportional_pair(columns):
        failed.append("f")
    return WMatrixReport(not failed, tuple(failed))


def require_F(v: IntMatrix, reduced: bool = False) -> FMatrixReport:
    """Raise ``PreconditionError`` unless ``v`` is an F-matrix (and reduced);
    inside a ``_shared_tables`` block ``v`` is classified once."""
    report = _cached(v, "F report", lambda: classify_F(v))
    if not report.is_F:
        raise PreconditionError(
            "not a fan matrix; failed conditions: " + ", ".join(report.failed_conditions)
        )
    if reduced and not report.is_reduced:
        raise PreconditionError("fan matrix is not reduced (a column has content > 1)")
    return report


def require_W(q: IntMatrix) -> WMatrixReport:
    """Raise ``PreconditionError`` unless ``q`` is a W-matrix."""
    report = classify_W(q)
    if not report.is_W:
        raise PreconditionError(
            "not a weight matrix; failed conditions: " + ", ".join(report.failed_conditions)
        )
    return report
