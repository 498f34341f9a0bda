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
from .normal_forms import _identity_block_transform, _modular_hnf, unimodular_inverse


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
    dual ``delta * Pic^*`` is spanned by the rows of all ``(delta / |d_I|) adj(Q_I)``
    and contains ``delta Z^r``, so its HNF basis ``M`` is a modular fold
    (``_modular_hnf``) of those rows into ``delta I``; then
    ``Pic = delta M^{-1} Z^r``, which contains ``delta Z^r`` as well, and its
    basis is the modular HNF of the rows of ``delta adj(M)^T / det M``.  Each
    index set must hold r distinct column indices.  The rows of each ``I`` are
    read through ``_dual_rows``, so within one ``analyze`` call each distinct
    ``I`` is inverted and reduced once, not once per fan.
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
        d, rows = _dual_rows(q, idx)
        if d == 0:
            raise PreconditionError(f"singular weight block at columns {idx}")
        blocks.append((d, rows))
    delta = lcm(*(d for d, _ in blocks))
    dual = _modular_hnf(
        ([delta // d * x for x in row] for d, rows in blocks for row in rows), r, delta
    )
    det_m, adj_m = _det_adjugate(IntMatrix(dual))
    # the rows of delta * adj(M)^T / det M span Pic, which lies in Z^r
    rows = [[delta * x for x in col] for col in adj_m.transpose()]
    if any(x % det_m for row in rows for x in row):
        raise PreconditionError("Picard lattice is not integral")
    basis = _modular_hnf(([x // det_m for x in row] for row in rows), r, delta)
    return PicardData(B=IntMatrix(basis), index=delta**r // abs(det_m), delta_sigma=delta)


def _weight_block(q: IntMatrix, idx: tuple[int, ...]) -> tuple[int, Optional[IntMatrix]]:
    """``(det Q_I, adj Q_I)`` of the columns ``idx`` of ``q``, ``(0, None)`` if
    singular; computed once per ``q`` and ``I`` inside a ``_shared_tables`` block."""
    return _cached(q, idx, lambda: _det_adjugate(q.select_cols(idx)))


def _dual_rows(q: IntMatrix, idx: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(|d_I|, rows)``: the rows of the HNF of the row lattice of ``adj Q_I``,
    which contains ``|d_I| Z^r``, other than the ``|d_I| e_k``; ``(0, ())`` if
    ``Q_I`` is singular.  Computed once per ``q`` and ``I`` inside a
    ``_shared_tables`` block, beside ``_weight_block``."""

    def compute():
        d, adj = _weight_block(q, idx)
        if d == 0:
            return 0, ()
        d = abs(d)
        # a row with pivot |d_I| is |d_I| e_k, already in the fold's start delta I
        h = _modular_hnf(adj, q.rows, d)
        return d, tuple(tuple(row) for k, row in enumerate(h) if row[k] != d)

    return _cached(q, ("dual", idx), compute)


def cartier_basis(b: IntMatrix, u_q: IntMatrix, beta: IntMatrix) -> IntMatrix:
    """Basis of the locally principal divisors inside the Weil group.

    ``blockdiag(b, beta) @ u_q``, computed block by block as
    ``b @ (top r rows of u_q)`` over ``beta @ (bottom n rows of u_q)``: the top
    block expresses the Picard basis in the prime-divisor coordinates, the
    bottom block reproduces the fan matrix.  With ``beta`` the identity this is
    the Cartier basis of the covering.  The bottom block does not depend on
    ``b``, so inside a ``_shared_tables`` block it is computed once per
    ``u_q`` and ``beta``, not once per fan.
    """
    if not b.is_square() or not beta.is_square():
        raise ShapeError("b and beta must be square")
    if not u_q.is_square() or u_q.rows != b.rows + beta.rows:
        raise ShapeError("transform size must equal rank + dimension")
    top, bottom = _cached(
        u_q,
        ("cartier blocks", beta),
        lambda: (u_q.top_rows(b.rows), beta @ u_q.bottom_rows(beta.rows)),
    )
    return (b @ top).vstack(bottom)


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
