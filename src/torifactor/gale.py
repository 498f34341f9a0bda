"""Gale duals and the fan-matrix / weight-matrix classification predicates.

A fan matrix ("F-matrix") is an n x (n+r) integer matrix whose columns
positively span R^n, with no zero column and no positively proportional
column pair.  A weight matrix ("W-matrix") is an r x (n+r) Gale dual of such
a matrix.  Both notions are invariant under the choice of lattice basis, so
the predicates below accept any representative.

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
from typing import Sequence

from .intmat import IntMatrix, PreconditionError, ShapeError, _det_adjugate, rank, vector_content
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
    spanned by n-1 of the columns has all columns on one closed side.  Every
    independent (n-1)-set extends to a nonsingular n-subset ``c``, and the
    rows of ``s * adj(V_c)`` are normals of those hyperplanes with a positive
    value on the remaining column of ``c``; so the test asks each coordinate
    row of ``_cone_frame`` for a negative entry.
    """
    return _spans_positively(_cone_frames(v))


def _spans_positively(frames: dict[tuple[int, ...], tuple]) -> bool:
    """``positive_span_is_full`` read off the frames of ``_cone_frames``."""
    return bool(frames) and all(min(row) < 0 for _, coords in frames.values() for row in coords)


def _cone_frames(v: IntMatrix) -> dict[tuple[int, ...], tuple]:
    """``_cone_frame`` of each nonsingular n-subset of columns, in lexicographic order."""
    n, m = v.shape
    return {c: f for c in combinations(range(m), n) if (f := _cone_frame(v, c)) is not None}


def _cone_frame(v: IntMatrix, cone: Sequence[int]):
    """``(s * adj(V_c), s * adj(V_c) @ V)`` with ``s = sign det V_c``, the
    inner facet normals and the scaled barycentric coordinates of every column;
    ``None`` when ``V_c`` is singular."""
    d, adj = _det_adjugate(v.select_cols(cone))
    if d == 0:
        return None
    s = 1 if d > 0 else -1
    inverse = [tuple(s * x for x in row) for row in adj]
    cols = [v.col(j) for j in range(v.cols)]
    coords = [tuple(sum(a * x for a, x in zip(row, col)) for col in cols) for row in inverse]
    return inverse, coords


def classify_F(v: IntMatrix) -> FMatrixReport:
    """Test the fan-matrix conditions (a)-(d), the CF condition (e), reducedness."""
    return _classify_F(v)[0]


def _classify_F(v: IntMatrix) -> tuple[FMatrixReport, dict[tuple[int, ...], tuple]]:
    """``classify_F`` and the ``_cone_frames`` it reads (b) from, for callers
    that go on to use the frames."""
    n, m = v.shape
    if n >= m:
        raise ShapeError("a fan matrix must have more columns than rows")
    failed = []
    # v has rank n iff some n-subset of its columns is nonsingular
    frames = _cone_frames(v)
    if not frames:
        failed.append("a")
    if not _spans_positively(frames):
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
    return FMatrixReport(is_f, cf, reduced, tuple(failed)), frames


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
    integer kernel ``K`` of ``q`` (see the module docstring)."""
    r, m = q.shape
    if r >= m:
        raise ShapeError("a weight matrix must have more columns than rows")
    failed = []
    full_rank = rank(q) == r
    if not full_rank:
        failed.append("a")
    if _identity_block_transform(q) is None:
        failed.append("b")
    # r < m, so the kernel is never zero; it is gale_dual(q) when q has full rank
    kernel = kernel_saturation(q).basis_matrix()
    if not (full_rank and positive_span_is_full(kernel)):
        failed.append("c")
    if any(not any(q.col(j)) for j in range(m)):
        failed.append("d")
    row_lattice = Lattice.from_matrix(q)
    if any([int(k == j) for k in range(m)] in row_lattice for j in range(m)):
        failed.append("e")
    columns = [kernel.col(j) for j in range(m)]
    if sum(not any(c) for c in columns) >= 2 or _has_positively_proportional_pair(columns):
        failed.append("f")
    return WMatrixReport(not failed, tuple(failed))


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
    return _require_F(v, reduced)[0]


def _require_F(
    v: IntMatrix, reduced: bool = False
) -> tuple[FMatrixReport, dict[tuple[int, ...], tuple]]:
    """``require_F`` that also returns the ``_cone_frames`` of ``v``, so that
    fan enumeration need not build them again."""
    report, frames = _classify_F(v)
    if not report.is_F:
        raise PreconditionError(
            "not a fan matrix; failed conditions: " + ", ".join(report.failed_conditions)
        )
    if reduced and not report.is_reduced:
        raise PreconditionError("fan matrix is not reduced (a column has content > 1)")
    return report, frames


def require_W(q: IntMatrix) -> WMatrixReport:
    """Raise ``PreconditionError`` unless ``q`` is a W-matrix."""
    report = classify_W(q)
    if not report.is_W:
        raise PreconditionError(
            "not a weight matrix; failed conditions: " + ", ".join(report.failed_conditions)
        )
    return report
