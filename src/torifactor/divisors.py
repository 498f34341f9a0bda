"""Free-part generators, Picard lattice, and Cartier bases.

All coordinates refer to the basis of torus-invariant prime divisors
D_0 .. D_{n+r-1} given by the columns of the fan matrix, and to the free-part
basis fixed by the HNF transform of the transposed weight matrix.
"""

from __future__ import annotations

from math import lcm, prod
from operator import mul
from typing import Iterator, Optional, Sequence

from .intmat import (
    IntMatrix,
    PreconditionError,
    Record,
    ShapeError,
    _cached,
    _int_tuple,
    _laplace_minors,
    shared_tables,
)
from .fans import PicardIndexFamily, _cone, _mask
from .gale import require_W
from .normal_forms import (
    _hnf_fold,
    _hnf_reduce,
    _identity_block_transform,
    _modular_hnf,
    unimodular_inverse,
)


class ClassGroupData(Record):
    """Divisor class group presentation: free rank, torsion, generator rows."""

    rank: int
    torsion: tuple[int, ...]
    free_generators: IntMatrix
    torsion_generator_rows: Optional[IntMatrix]


class PicardData(Record):
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
    ``q @ rows^T == identity`` by the ``[I; 0]`` check of ``weight_transform``.
    """
    require_W(q)
    r = q.rows
    gens = weight_transform(q).top_rows(r)
    return ClassGroupData(rank=r, torsion=(), free_generators=gens, torsion_generator_rows=None)


def picard_basis(q: IntMatrix, index_family: PicardIndexFamily) -> PicardData:
    """Canonical basis of the Picard lattice for one fan.

    The Picard lattice is the intersection of the column lattices ``Q_I Z^r``
    of the square weight blocks indexed by the complements of the maximal
    cones.  It is computed by duality: with ``delta`` the lcm of the
    ``|det Q_I|``, which divides the index of the Picard lattice, the scaled
    dual ``delta * Pic^*`` is spanned by the rows of all ``(delta / |d_I|) adj(Q_I)``
    and contains ``delta Z^r``.  Those rows, each reversed, are folded into
    ``delta I`` (``_hnf_fold``), so the state ``M`` is an upper triangular
    basis of ``delta Pic^*`` in reversed coordinates, with pivots dividing
    ``delta``.  The fold runs one index set at a time with the lcm ``delta_k``
    of the sets so far: when it grows to ``delta_k'``, the state is scaled by
    ``delta_k' / delta_k`` first.  Then ``Pic`` is spanned by the columns of
    ``delta M^{-1}``, reversed; they come by back substitution
    (``_scaled_inverse_columns``), and ``det M`` is the product of the pivots.
    ``delta M^{-1}`` is upper triangular with pivots ``delta / M_kk``, so the
    reversed columns taken last to first are already an upper triangular basis
    of ``Pic``, and reducing the entries above its pivots (``_hnf_reduce``)
    gives its HNF.  They are not reduced mod ``delta``: a pivot equal to
    ``delta`` would become 0.

    Every call checks every index set: r distinct column indices in range,
    each an exact int or converted to one.  The sets, as column masks, then
    go to ``_picard_fold``, which ``analyze`` calls directly.
    """
    r, m = q.shape
    try:
        sets = iter(index_family.sets)
    except TypeError:
        raise ShapeError("index family must be an iterable of index sets") from None
    masks = []
    for idx in sets:
        if type(idx) is not tuple or not all(type(j) is int for j in idx):
            idx = _int_tuple(idx, "index set entries")
        if len(idx) != r:
            raise ShapeError("index set size must equal the weight-matrix rank")
        if len(set(idx)) != r or not all(0 <= j < m for j in idx):
            raise ShapeError(f"index set {idx} is not {r} distinct columns in 0..{m - 1}")
        masks.append(_mask(idx))
    # outside a block, one for this call: the cofactor tables are built once
    with shared_tables():
        return _picard_fold(q, masks)


def _picard_fold(q: IntMatrix, masks: Sequence[int]) -> PicardData:
    """``picard_basis`` of index sets given as checked column masks, on the
    table of ``q`` in the open ``shared_tables`` block (``_picard_table``).
    Each distinct mask's dual rows are read off the cofactor tables of ``q``
    and reduced once (``_dual_rows``).  The fold stack holds the states
    after each set of the previous family, so a family folds only its sets
    after the longest common prefix with that one.  The final state, reduced
    above its pivots, is the row HNF of ``delta Pic^*``: with ``delta`` it
    names the lattice, and a family that ends on a known one returns that
    same ``PicardData``."""
    r = q.rows
    blocks, folds, records = _picard_table(q)
    if not masks:
        raise PreconditionError("empty index family")
    shared, bound = 0, min(len(folds), len(masks))
    while shared < bound and folds[shared][0] == masks[shared]:
        shared += 1
    del folds[shared:]
    if folds:
        _, delta, w = folds[-1]
    else:
        delta, w = 1, [[int(i == j) for j in range(r)] for i in range(r)]
    for mask in masks[shared:]:
        entry = blocks.get(mask)
        if entry is None:
            entry = blocks[mask] = _dual_rows(q, _cone(mask))
        d, rows = entry
        if d == 0:
            raise PreconditionError(f"singular weight block at columns {_cone(mask)}")
        grown = lcm(delta, d)
        # w is a triangular basis of L, which contains delta Z^r: c * w is one of
        # c * L, which contains grown Z^r
        c = grown // delta
        w = [[c * x for x in row] for row in w] if c != 1 else list(w)
        delta = grown
        _hnf_fold(w, ([delta // d * x for x in reversed(row)] for row in rows), delta)
        folds.append((mask, delta, w))
    # reduced in place, the stored state still spans the same lattice, and is
    # the row HNF of delta Pic^*: with delta it names the record
    _hnf_reduce(w)
    key = (delta, tuple(map(tuple, w)))
    pd = records.get(key)
    if pd is None:
        basis = [x[::-1] for x in _scaled_inverse_columns(w, delta)]
        basis.reverse()
        _hnf_reduce(basis)
        det_m = prod(row[k] for k, row in enumerate(w))
        pd = records[key] = PicardData(
            B=IntMatrix._of(tuple(map(tuple, basis))), index=delta**r // det_m, delta_sigma=delta
        )
    return pd


def _picard_table(q: IntMatrix) -> tuple[dict, list, dict]:
    """``_picard_fold``'s table for ``q``, fresh outside a block: ``blocks``,
    the entry ``(|d_I|, dual rows)`` of each index set ``I`` by column mask;
    the fold stack of the last family, ``folds[k] = (mask of I_k, delta_k,
    state after I_0 .. I_k)``; and the ``PicardData`` of each final fold
    state."""
    return _cached(q, "picard", lambda: ({}, [], {}))


def _scaled_inverse_columns(m: list[list[int]], delta: int) -> Iterator[list[int]]:
    """The columns of ``delta m^{-1}`` for an upper triangular ``m``, by back
    substitution in ``m x = delta e_j``.  The rows of ``m`` span a lattice
    that contains ``delta Z^r``, so ``delta m^{-1}`` is integral and every
    division is exact.  Column ``j`` is zero below row ``j`` and has
    ``delta / m_jj`` in row ``j``, so the columns form an upper triangular
    matrix; ``_picard_fold`` reads them reversed as the rows of one."""
    r = len(m)
    for j in range(r):
        x = [0] * r
        for i in range(j, -1, -1):
            mi = m[i]
            s = delta if i == j else 0
            x[i] = (s - sum(map(mul, mi[i + 1 : j + 1], x[i + 1 : j + 1]))) // mi[i]
        yield x


def _weight_block(
    q: IntMatrix, idx: tuple[int, ...]
) -> tuple[int, Optional[tuple[tuple[int, ...], ...]]]:
    """``(det Q_I, adj Q_I)`` of the columns ``idx`` of ``q``, taken in
    ascending order, the adjugate as plain rows; ``(0, None)`` if singular.

    Both are read off the cofactor tables of ``q`` (``_cofactor_tables``):
    with ``T_b`` the (r-1)-minors of ``q`` without row b,
    ``adj(Q_I)[a][b] = (-1)^(a+b) T_b[I - I_a]``, and ``det Q_I`` is the
    expansion along the last row, ``sum_a q[r-1][I_a] adj(Q_I)[a][r-1]``.  So
    no block is eliminated, and the blocks of one ``q`` share their minors.
    """
    idx = sorted(idx)
    tables = _cofactor_tables(q)
    full = _mask(idx)
    adj = tuple(
        tuple(-t[full ^ 1 << j] if (a + b) % 2 else t[full ^ 1 << j] for b, t in enumerate(tables))
        for a, j in enumerate(idx)
    )
    last = q.row(len(idx) - 1)
    d = sum(last[j] * row[-1] for j, row in zip(idx, adj))
    return (d, adj) if d else (0, None)


def _cofactor_tables(q: IntMatrix) -> list[dict[int, int]]:
    """For each row b of ``q``, the (r-1)-minors of ``q`` without row b, keyed
    by column bitmask (``_laplace_minors``); built once per ``q`` inside a
    ``shared_tables`` block."""

    def build():
        rows = tuple(q)
        return [_laplace_minors(rows[:b] + rows[b + 1 :], q.cols) for b in range(len(rows))]

    return _cached(q, "cofactor tables", build)


def _dual_rows(q: IntMatrix, idx: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(|d_I|, rows)``: the rows of the HNF of the row lattice of ``adj Q_I``,
    which contains ``|d_I| Z^r``, other than the ``|d_I| e_k``; ``(0, ())`` if
    ``Q_I`` is singular.  ``_picard_fold`` keeps them in its table entry for ``q``."""
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
    ``b``, so inside a ``shared_tables`` block it is computed once per
    ``u_q`` and ``beta`` object, not once per fan, and no call hashes a
    matrix.
    """
    if not b.is_square() or not beta.is_square():
        raise ShapeError("b and beta must be square")
    if not u_q.is_square() or u_q.rows != b.rows + beta.rows:
        raise ShapeError("transform size must equal rank + dimension")
    # the entry holds beta, so its id names no other matrix while the table lives
    _, top, bottom = _cached(
        u_q,
        ("cartier blocks", id(beta)),
        lambda: (beta, u_q.top_rows(b.rows), beta @ u_q.bottom_rows(beta.rows)),
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
