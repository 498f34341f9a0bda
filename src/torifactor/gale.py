"""Gale duals and the fan-matrix / weight-matrix classification predicates.

A fan matrix ("F-matrix") is an n x (n+r) integer matrix whose columns
positively span R^n, with no zero column and no positively proportional
column pair.  A weight matrix ("W-matrix") is an r x (n+r) Gale dual of such
a matrix.  Both notions are invariant under the choice of lattice basis, so
the predicates below accept any representative.

Every cone test on a fan matrix ``V`` reads one table of its maximal minors,
``_minors``, keyed by column bitmask and built from the side of the Gale pair
that costs less (``_minor_table``).  Its signed circuits, ``_circuits``, are
read off that table once per ``V``, for F (b) and for the fan search.  F (d)
and W (f) hash the primitive columns, so no column pair is compared.

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

from itertools import combinations
from math import comb

from .intmat import (
    IntMatrix,
    PreconditionError,
    Record,
    ShapeError,
    _cached,
    _det_rows,
    _held,
    _laplace_minors,
    shared_tables,
    vector_content,
)
from .lattices import Lattice, kernel_saturation
from .normal_forms import _identity_block_transform


class FMatrixReport(Record):
    is_F: bool
    is_CF: bool
    is_reduced: bool
    failed_conditions: tuple[str, ...]


class WMatrixReport(Record):
    is_W: bool
    failed_conditions: tuple[str, ...]


def gale_dual(a: IntMatrix) -> IntMatrix:
    """Canonical HNF basis of the saturated integer kernel of ``a``.

    The result G satisfies G @ a^T == 0 and its rows span the full lattice of
    integer relations among the columns of ``a``; ``a`` has full row rank iff
    that kernel has rank ``cols - rows``.  Inside a ``shared_tables`` block the
    kernel is the one ``_minors`` reads.
    """
    ker = _kernel(a)
    if ker.rank != a.cols - a.rows:
        raise PreconditionError("gale_dual requires full row rank")
    if ker.rank == 0:
        raise PreconditionError("square full-rank matrix has trivial kernel")
    return ker.basis_matrix()


def _kernel(a: IntMatrix) -> Lattice:
    """``kernel_saturation(a)``, once per ``a`` inside a ``shared_tables`` block."""
    return _cached(a, "kernel", lambda: kernel_saturation(a))


def positive_span_is_full(v: IntMatrix) -> bool:
    """Exact test that the columns of ``v`` positively span all of R^n.

    They do iff every column lies on a positive circuit, one whose relation has
    all coefficients positive.  If so, ``v`` has rank n and the sum of those
    relations has all coefficients positive, so each ``-v_j`` is a positive
    combination of the columns (Gordan's alternative); conversely, spanning
    columns have such a relation, and its conformal decomposition into
    circuits covers every column with positive ones.  A zero column is a
    positive circuit of its own; if ``v`` has rank below n it has no
    circuits, and the test fails.
    """
    covered = 0
    for pos, neg in _circuits(v):
        if not neg:
            covered |= pos
    return covered == (1 << v.cols) - 1


def _minors(v: IntMatrix) -> dict[int, int]:
    """``det V_c`` of every n-subset ``c`` of columns, keyed by the bitmask of
    ``c``, as ``_laplace_minors`` keys them, in the lexicographic order of the
    subsets; built once per ``v`` inside a ``shared_tables`` block.  Every cone
    test on ``v`` is read off it, and the fan search keeps its keys."""
    return _cached(v, "minors", lambda: _minor_table(v))


def _minor_table(v: IntMatrix) -> dict[int, int]:
    """The table of ``_minors``, from the side of the Gale pair that costs
    less, with all minors of one side taken by ``_laplace_minors`` on plain
    rows: level t holds the t x t minors of the first t rows, each expanded
    along row t from the level before.

    For ``m = n + r`` columns, ``_laplace_cost(m, k)`` counts the
    multiplications on k rows.  The n x n minors of ``V`` cost
    ``_laplace_cost(m, n)``; the r x r minors of its saturated kernel ``Q``
    (``_kernel``, shared with ``gale_dual``) cost ``_laplace_cost(m, r)``,
    plus ``2 m^2 n`` for the HNF of ``V^T`` with its m x m transform when the
    open ``shared_tables`` block does not hold ``Q`` yet.  The kernel side is
    taken when ``r < n`` and either ``Q`` is held or that sum is smaller; so
    ``r >= n`` and small ``n`` read ``V``, tall matrices read ``Q``.  The
    weight 2 on the HNF is fitted to measured times: on the 21 shapes with
    ``r < n`` measured, from (2, 1) to (10, 2), the rule picks the faster side.

    On the kernel side, if the rank of ``Q`` is not r, ``V`` has rank below n
    and every minor is 0, with no determinant taken.  Otherwise the r x r
    minors of ``Q`` give them all: for every n-subset ``c`` with complement
    ``cbar``, ``det V_c = lam (-1)^(sum c + n(n-1)/2) det Q_cbar``
    (Bjorner-Las Vergnas-Sturmfels-White-Ziegler, Oriented Matroids, 3.4),
    and one n x n ``det V_c``, at the first ``c`` whose ``det Q_cbar`` is
    nonzero, fixes ``lam``.  That division is exact: ``V = beta B`` for a
    basis ``B`` of the saturated row lattice of ``V``, whose maximal minors
    are those of ``Q``, its orthogonal saturated lattice, up to that sign
    and one unit, so ``lam = +-det beta``.  The mask of ``c`` is
    ``full ^ cbar``, and taking complements reverses the lexicographic order
    of the subsets, so the table of ``Q`` is walked in reverse.
    """
    n, m = v.shape
    r = m - n
    kernel_cost = _laplace_cost(m, r) + 2 * m * m * n
    if r >= n or not (_held(v, "kernel") or kernel_cost < _laplace_cost(m, n)):
        return _laplace_minors(tuple(v), m)
    ker = _kernel(v)
    if ker.rank != r:
        return dict.fromkeys(map(sum, combinations([1 << j for j in range(m)], n)), 0)
    full = (1 << m) - 1
    # (-1)^(sum c + n(n-1)/2), with sum c = m(m-1)/2 - sum cbar, and sum cbar
    # odd iff cbar holds an odd number of odd columns
    base = (m * (m - 1) // 2 + n * (n - 1) // 2) % 2
    odd = sum(1 << j for j in range(1, m, 2))
    q_minors = _laplace_minors(ker.basis_rows, m)
    cbar, d = next((cbar, d) for cbar, d in reversed(q_minors.items()) if d)
    c = full ^ cbar
    lam = _det_rows([[x for j, x in enumerate(row) if c >> j & 1] for row in v]) // d
    if (base + (cbar & odd).bit_count()) % 2:
        lam = -lam
    # lam with the complement sign folded in, by the parity of cbar
    signed = (lam, -lam)
    return {
        full ^ cbar: signed[(base + (cbar & odd).bit_count()) % 2] * d
        for cbar, d in reversed(q_minors.items())
    }


def _laplace_cost(m: int, k: int) -> int:
    """Multiplications of ``_laplace_minors`` on k rows and m columns: level t
    expands each of its ``C(m, t)`` minors along t entries."""
    return sum(t * comb(m, t) for t in range(1, k + 1))


def _circuits(v: IntMatrix) -> frozenset[tuple[int, int]]:
    """Signed circuits of the columns of ``v`` as ``(positive, negative)``
    bitmasks, in both orientations; built once per ``v`` inside a
    ``shared_tables`` block."""
    return _cached(v, "circuits", lambda: _circuit_table(v))


def _circuit_table(v: IntMatrix) -> frozenset[tuple[int, int]]:
    """The table of ``_circuits``, read off ``_minors``.

    For sorted columns ``s`` of size n+1, Cramer's rule gives the relation
    ``sum_k (-1)^k det V_{s - s_k} v_{s_k} = 0``, the only one on ``s`` when
    nonzero, so its support is a circuit.  Every circuit arises so, because a
    circuit minus one element extends to a basis.
    """
    minors = _minors(v)
    circuits = set()
    for s in combinations([1 << j for j in range(v.cols)], v.rows + 1):
        full = sum(s)
        pos = neg = 0
        even = True
        for bit in s:
            x = minors[full ^ bit]
            if x:
                if (x > 0) == even:
                    pos |= bit
                else:
                    neg |= bit
            even = not even
        if pos | neg:
            circuits.update(((pos, neg), (neg, pos)))
    return frozenset(circuits)


def classify_F(v: IntMatrix) -> FMatrixReport:
    """Test the fan-matrix conditions (a)-(d), the CF condition (e), reducedness."""
    n, m = v.shape
    if n >= m:
        raise ShapeError("a fan matrix must have more columns than rows")
    failed = []
    with shared_tables():
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
    """Whether two nonzero columns are positive multiples of each other: two
    nonzero columns are so iff they have the same primitive vector, the column
    divided by its content."""
    seen = set()
    for c in columns:
        g = vector_content(c)
        if g:
            primitive = tuple(x // g for x in c)
            if primitive in seen:
                return True
            seen.add(primitive)
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
    with shared_tables():
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
    with shared_tables():
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
    inside a ``shared_tables`` block ``v`` is classified once."""
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
