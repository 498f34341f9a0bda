"""Free-part generators, Picard lattice, and Cartier bases.

All coordinates refer to the basis of torus-invariant prime divisors
D_0 .. D_{n+r-1} given by the columns of the fan matrix, and to the free-part
basis fixed by the HNF transform of the transposed weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .intmat import IntMatrix, PreconditionError, ShapeError, _cached, _det_adjugate, _int_tuple
from .fans import PicardIndexFamily
from .gale import require_W
from .lattices import Lattice
from .normal_forms import _identity_block_transform, unimodular_inverse


@dataclass(frozen=True)
class ClassGroupData:
    """Divisor class group presentation: free rank, torsion, generator rows."""

    rank: int
    torsion: tuple[int, ...]
    free_generators: IntMatrix
    torsion_generator_rows: Optional[IntMatrix]


@dataclass(frozen=True)
class PicardData:
    """Basis of the Picard lattice inside the free part of the class group."""

    B: IntMatrix
    index: int
    delta_sigma: int

    def __post_init__(self):
        if self.index == 0:
            raise PreconditionError("Picard basis must be nonsingular")
        if self.index % self.delta_sigma != 0:
            raise PreconditionError("delta_sigma must divide the Picard index")


def weight_transform(q: IntMatrix) -> IntMatrix:
    """Unimodular U with ``U @ q^T`` in HNF; requires the HNF to be [I; 0]."""
    u = _identity_block_transform(q)
    if u is None:
        raise PreconditionError("row lattice of the weight matrix is not saturated")
    return u


def free_part_generators(q: IntMatrix) -> ClassGroupData:
    """Rows expressing a basis of the free part of the class group.

    The upper block of the HNF transform of ``q^T``; satisfies
    ``q @ rows^T == identity``.
    """
    require_W(q)
    r = q.rows
    u_q = weight_transform(q)
    gens = u_q.top_rows(r)
    if q @ gens.transpose() != IntMatrix.identity(r):
        raise PreconditionError("generator identity failed")
    return ClassGroupData(rank=r, torsion=(), free_generators=gens, torsion_generator_rows=None)


def picard_basis(q: IntMatrix, index_family: PicardIndexFamily) -> PicardData:
    """Canonical basis of the Picard lattice for one fan.

    The Picard lattice is the intersection of the column lattices ``Q_I Z^r``
    of the square weight blocks indexed by the complements of the maximal
    cones.  It is computed by duality: with ``delta`` the lcm of the
    ``|det Q_I|``, which divides the index of the Picard lattice, the scaled
    dual ``delta * Pic^*`` is spanned by the rows of all ``(delta / d_I) adj(Q_I)``;
    its HNF basis ``M`` gives ``Pic = delta M^{-1} Z^r``.  Each index set must
    hold r distinct column indices.  ``(d_I, adj Q_I)`` is read through
    ``_weight_block``, so within one ``analyze`` call each distinct ``I`` is
    inverted once, not once per fan.
    """
    r, m = q.shape
    sets = []
    columns = set(range(m))
    for idx in index_family.sets:
        idx = _int_tuple(idx, "index set entries")
        if len(idx) != r:
            raise ShapeError("index set size must equal the weight-matrix rank")
        s = set(idx)
        if len(s) != r or not s <= columns:
            raise ShapeError(f"index set {idx} is not {r} distinct columns in 0..{m - 1}")
        sets.append(idx)
    if not sets:
        raise PreconditionError("empty index family")
    blocks = []
    for idx in sets:
        d, adj = _weight_block(q, idx)
        if d == 0:
            raise PreconditionError(f"singular weight block at columns {idx}")
        blocks.append((d, adj))
    delta = lcm(*(abs(d) for d, _ in blocks))
    dual = Lattice(r, [[delta // d * x for x in row] for d, adj in blocks for row in adj])
    det_m, adj_m = _det_adjugate(dual.basis_matrix())
    # the rows of delta * adj(M)^T / det M span Pic, which lies in Z^r
    rows = [[delta * x for x in col] for col in adj_m.transpose()]
    if any(x % det_m for row in rows for x in row):
        raise PreconditionError("Picard lattice is not integral")
    basis = Lattice(r, [[x // det_m for x in row] for row in rows]).basis_matrix()
    return PicardData(B=basis, index=delta**r // abs(det_m), delta_sigma=delta)


def _weight_block(q: IntMatrix, idx: tuple[int, ...]) -> tuple[int, Optional[IntMatrix]]:
    """``(det Q_I, adj Q_I)`` of the columns ``idx`` of ``q``, ``(0, None)`` if
    singular; computed once per ``q`` and ``I`` inside a ``_shared_tables`` block."""
    return _cached(q, idx, lambda: _det_adjugate(q.select_cols(idx)))


def cartier_basis(b: IntMatrix, u_q: IntMatrix, beta: IntMatrix) -> IntMatrix:
    """Basis of the locally principal divisors inside the Weil group.

    ``blockdiag(b, beta) @ u_q``: the top block expresses the Picard basis in
    the prime-divisor coordinates, the bottom block reproduces the fan matrix.
    With ``beta`` the identity this is the Cartier basis of the covering.
    """
    if not b.is_square() or not beta.is_square():
        raise ShapeError("b and beta must be square")
    if not u_q.is_square() or u_q.rows != b.rows + beta.rows:
        raise ShapeError("transform size must equal rank + dimension")
    return IntMatrix.block_diagonal([b, beta]) @ u_q


def weil_inclusion(u_q: IntMatrix, beta: IntMatrix) -> IntMatrix:
    """Matrix of the pullback of Weil divisors along the covering map.

    ``A = u_q^T @ blockdiag(I, beta^T) @ (u_q^T)^{-1}``; integral because the
    transform is unimodular, and it carries the covering Cartier basis onto
    the Cartier basis downstairs.
    """
    if not beta.is_square():
        raise ShapeError("beta must be square")
    if not u_q.is_square() or u_q.rows <= beta.rows:
        raise ShapeError("transform must be square and larger than beta")
    r = u_q.rows - beta.rows
    ut = u_q.transpose()
    middle = IntMatrix.block_diagonal([IntMatrix.identity(r), beta.transpose()])
    return ut @ middle @ unimodular_inverse(ut)
