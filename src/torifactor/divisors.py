"""Free-part generators, Picard lattice, and Cartier bases.

All coordinates refer to the basis of torus-invariant prime divisors
D_0 .. D_{n+r-1} given by the columns of the fan matrix, and to the free-part
basis fixed by the HNF transform of the transposed weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from operator import mul
from typing import Iterator, Optional

from .intmat import (
    IntMatrix,
    PreconditionError,
    ShapeError,
    _cached,
    _det_adjugate_rows,
    _int_tuple,
)
from .fans import PicardIndexFamily
from .gale import require_W
from .normal_forms import (
    _hnf_fold,
    _hnf_reduce,
    _identity_block_transform,
    _modular_hnf,
    unimodular_inverse,
)


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
    (``_hnf_fold``) of those rows into ``delta I``.  The fold runs one index
    set at a time with the lcm ``delta_k`` of the sets so far: when it grows
    to ``delta_k'``, the state is scaled by ``delta_k' / delta_k`` first.  Then
    ``Pic = delta M^{-1} Z^r``, which contains ``delta Z^r`` as well: ``M`` is
    upper triangular with pivots dividing ``delta``, so the columns of
    ``delta M^{-1}`` come by back substitution, ``det M`` is the product of the
    pivots, and the basis is the modular HNF of those columns.

    Each index set must hold r distinct column indices.  Inside a
    ``_shared_tables`` block, such as one ``analyze`` call, the table keeps for
    ``q`` the dual rows of each distinct ``I`` (inverted and reduced once, by
    ``_dual_rows``), so the length, distinctness and range of ``I`` are checked
    once too, and the fold states after each index set of the previous family.
    The next family folds only its index sets after the longest common prefix
    with that one.  Outside a block nothing is kept.
    """
    r, m = q.shape
    # for q: the dual rows of each checked I, and the fold stack of the last family,
    # folds[k] = (I_k, delta_k, state after I_0 .. I_k); both fresh outside a table
    blocks, folds = _cached(q, "picard sweep", lambda: ({}, []))
    sets = []
    for idx in index_family.sets:
        idx = _int_tuple(idx, "index set entries")
        if idx not in blocks:
            if len(idx) != r:
                raise ShapeError("index set size must equal the weight-matrix rank")
            if len(set(idx)) != r or not all(0 <= j < m for j in idx):
                raise ShapeError(f"index set {idx} is not {r} distinct columns in 0..{m - 1}")
            blocks[idx] = _dual_rows(q, idx)
        sets.append(idx)
    if not sets:
        raise PreconditionError("empty index family")
    shared = 0
    while shared < min(len(folds), len(sets)) and folds[shared][0] == sets[shared]:
        shared += 1
    del folds[shared:]
    if folds:
        _, delta, w = folds[-1]
    else:
        delta, w = 1, [[int(i == j) for j in range(r)] for i in range(r)]
    for idx in sets[shared:]:
        d, rows = blocks[idx]
        if d == 0:
            raise PreconditionError(f"singular weight block at columns {idx}")
        grown = lcm(delta, d)
        # w is a triangular basis of L, which contains delta Z^r: c * w is one of
        # c * L, which contains grown Z^r
        c = grown // delta
        w = [[c * x for x in row] for row in w] if c != 1 else list(w)
        delta = grown
        _hnf_fold(w, ([delta // d * x for x in row] for row in rows), delta)
        folds.append((idx, delta, w))
    # reduced in place, the stored state still spans the same lattice
    _hnf_reduce(w)
    basis = _modular_hnf(_scaled_inverse_columns(w, delta), r, delta)
    det_m = prod(row[k] for k, row in enumerate(w))
    return PicardData(B=IntMatrix(basis), index=delta**r // det_m, delta_sigma=delta)


def _scaled_inverse_columns(m: list[list[int]], delta: int) -> Iterator[list[int]]:
    """The columns of ``delta m^{-1}`` for an upper triangular ``m``, by back
    substitution in ``m x = delta e_j``; ``PreconditionError`` unless every
    division is exact."""
    r = len(m)
    for j in range(r):
        x = [0] * r
        for i in range(j, -1, -1):
            mi = m[i]
            s = delta if i == j else 0
            x[i], rest = divmod(s - sum(map(mul, mi[i + 1 : j + 1], x[i + 1 : j + 1])), mi[i])
            if rest:
                raise PreconditionError("Picard lattice is not integral")
        yield x


def _weight_block(
    q: IntMatrix, idx: tuple[int, ...]
) -> tuple[int, Optional[tuple[tuple[int, ...], ...]]]:
    """``(det Q_I, adj Q_I)`` of the columns ``idx`` of ``q``, the adjugate as
    plain rows, ``(0, None)`` if singular; computed once per ``q`` and ``I``
    inside a ``_shared_tables`` block."""
    return _cached(q, idx, lambda: _det_adjugate_rows(_block_rows(q, idx)))


def _block_rows(q: IntMatrix, idx: tuple[int, ...]) -> list[list[int]]:
    """The rows of ``Q_I``, the columns ``idx`` of ``q``, as plain lists."""
    return [[row[j] for j in idx] for row in q]


def _dual_rows(q: IntMatrix, idx: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(|d_I|, rows)``: the rows of the HNF of the row lattice of ``adj Q_I``,
    which contains ``|d_I| Z^r``, other than the ``|d_I| e_k``; ``(0, ())`` if
    ``Q_I`` is singular.  ``picard_basis`` keeps them in its table entry for ``q``."""
    d, adj = _weight_block(q, idx)
    if d == 0:
        return 0, ()
    d = abs(d)
    # a row with pivot |d_I| is |d_I| e_k, already in the fold's start delta I
    h = _modular_hnf(adj, q.rows, d)
    return d, tuple(tuple(row) for k, row in enumerate(h) if row[k] != d)


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
