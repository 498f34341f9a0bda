"""Gale duals and the fan-matrix / weight-matrix classification predicates.

A fan matrix ("F-matrix") is an n x (n+r) integer matrix whose columns
positively span R^n, with no zero column and no positively proportional
column pair.  A weight matrix ("W-matrix") is an r x (n+r) Gale dual of such
a matrix.  Both notions are invariant under the choice of lattice basis, so
the predicates below accept any representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import IntMatrix, PreconditionError, ShapeError, rank, vector_content
from .lattices import Lattice, kernel_saturation, lattice_intersection
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
    integer relations among the columns of ``a``.
    """
    if rank(a) != a.rows:
        raise PreconditionError("gale_dual requires full row rank")
    ker = kernel_saturation(a)
    if ker.rank == 0:
        raise PreconditionError("square full-rank matrix has trivial kernel")
    return ker.basis_matrix()


def positive_span_is_full(v: IntMatrix) -> bool:
    """Exact test that the columns of ``v`` positively span all of R^n.

    The positive hull is full iff ``v`` has full row rank and no hyperplane
    spanned by n-1 of the columns has all columns on one closed side.
    """
    n, m = v.shape
    if rank(v) != n:
        return False
    columns = [v.col(j) for j in range(m)]
    if n == 1:
        return any(c[0] > 0 for c in columns) and any(c[0] < 0 for c in columns)
    for normal in _facet_normal_candidates(v):
        dots = [sum(u * x for u, x in zip(normal, c)) for c in columns]
        if all(d >= 0 for d in dots) or all(d <= 0 for d in dots):
            return False
    return True


def _facet_normal_candidates(v: IntMatrix):
    """Normals of all hyperplanes spanned by n-1 linearly independent columns."""
    from itertools import combinations

    n, m = v.shape
    seen = set()
    for subset in combinations(range(m), n - 1):
        block = IntMatrix([v.col(j) for j in subset])
        if rank(block) != n - 1:
            continue
        normal = kernel_saturation(block).basis_rows[0]
        key = normal if normal > tuple(-x for x in normal) else tuple(-x for x in normal)
        if key not in seen:
            seen.add(key)
            yield normal


def classify_F(v: IntMatrix) -> FMatrixReport:
    """Test the fan-matrix conditions (a)-(d), the CF condition (e), reducedness."""
    n, m = v.shape
    if n >= m:
        raise ShapeError("a fan matrix must have more columns than rows")
    failed = []
    if rank(v) != n:
        failed.append("a")
    if not positive_span_is_full(v):
        failed.append("b")
    columns = [v.col(j) for j in range(m)]
    if any(not any(c) for c in columns):
        failed.append("c")
    if _has_positively_proportional_pair(columns):
        failed.append("d")
    is_f = not failed
    cf = is_f and _identity_block_transform(v) is not None
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
    """Test the weight-matrix conditions (a)-(f)."""
    r, m = q.shape
    if r >= m:
        raise ShapeError("a weight matrix must have more columns than rows")
    failed = []
    full_rank = rank(q) == r
    if not full_rank:
        failed.append("a")
    if _identity_block_transform(q) is None:
        failed.append("b")
    # positivity of the row lattice is dual to completeness of the kernel
    if not (full_rank and positive_span_is_full(gale_dual(q))):
        failed.append("c")
    if any(not any(q.col(j)) for j in range(m)):
        failed.append("d")
    row_lattice = Lattice.from_matrix(q)
    if _contains_unit_vector(row_lattice):
        failed.append("e")
    if _contains_opposite_sign_pair(row_lattice):
        failed.append("f")
    return WMatrixReport(not failed, tuple(failed))


def _contains_unit_vector(lat: Lattice) -> bool:
    m = lat.ambient_dim
    for j in range(m):
        unit = [0] * m
        unit[j] = 1
        if unit in lat:
            return True
    return False


def _contains_opposite_sign_pair(lat: Lattice) -> bool:
    """Whether the lattice holds a vector with exactly two nonzero entries of
    opposite sign.

    For each coordinate plane the intersection with the lattice is computed
    exactly; a rank-2 intersection always contains such a vector, a rank-1
    intersection does iff its generator has two nonzero entries of opposite
    sign.
    """
    m = lat.ambient_dim
    for i in range(m):
        for j in range(i + 1, m):
            plane_rows = []
            for axis in (i, j):
                row = [0] * m
                row[axis] = 1
                plane_rows.append(row)
            plane = Lattice(m, plane_rows)
            inter = lattice_intersection(lat, plane)
            if inter.rank == 2:
                return True
            if inter.rank == 1:
                gen = inter.basis_rows[0]
                if gen[i] * gen[j] < 0:
                    return True
    return False


def reduce_F(v: IntMatrix) -> IntMatrix:
    """Divide every column by the gcd of its entries; idempotent."""
    n, m = v.shape
    cols = []
    for j in range(m):
        c = v.col(j)
        g = vector_content(c)
        if g == 0:
            raise PreconditionError(f"column {j} is zero and cannot be reduced")
        cols.append(tuple(x // g for x in c))
    return IntMatrix(cols).transpose()


def require_F(v: IntMatrix, reduced: bool = False) -> FMatrixReport:
    """Raise ``PreconditionError`` unless ``v`` is an F-matrix (and reduced)."""
    report = classify_F(v)
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
