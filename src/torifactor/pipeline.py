"""End-to-end analysis of a fan matrix: weights, covering, torsion, divisors.

Chains the individual operations with one consistent choice of
representatives: the covering fan matrix is taken from the lower block of
the weight transform, so the Cartier basis reproduces the input fan matrix
in its bottom rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional

from .intmat import IntMatrix, PreconditionError, ShapeError, _int_text, _int_tuple
from .intmat import _det_rows, _search_cap, _shared_tables, det
from .covering import (
    CoveringData,
    TorsionMatrix,
    _check_torsion_congruences,
    _covering_decomposition,
    torsion_generators,
    torsion_matrix,
    torsion_order,
)
from .divisors import (
    ClassGroupData,
    PicardData,
    _dual_rows,
    _picard_table,
    cartier_basis,
    picard_basis,
    weight_transform,
)
from .fans import Fan, PicardIndexFamily, enumerate_fans, picard_index_sets
from .gale import gale_dual, require_F


@dataclass(frozen=True)
class FanAnalysis:
    """Per-fan divisor data."""

    fan: Fan
    index_sets: PicardIndexFamily
    picard: PicardData
    cartier: IntMatrix


@dataclass(frozen=True)
class PipelineResult:
    V: IntMatrix
    Q: IntMatrix
    U_Q: IntMatrix
    covering: CoveringData
    gamma: TorsionMatrix
    class_group: ClassGroupData
    fans: tuple[FanAnalysis, ...]


def analyze(
    v: IntMatrix,
    fan_index: Optional[int] = None,
    verify: bool = True,
    max_partial_fans: Optional[int] = None,
) -> PipelineResult:
    """Run the whole pipeline on a reduced fan matrix.

    ``fan_index`` restricts the per-fan stage to one fan of the deterministic
    enumeration; by default every fan is processed.  ``max_partial_fans``
    caps the fan search as in ``enumerate_fans``.  ``V_hat`` is the lower
    block of ``U_Q``, a row action away from ``covering_decomposition``'s row
    HNF: for ``V = (1 -1)``, ``V_hat = (-1 1)`` and ``beta = (-1)`` here.
    One ``_shared_tables`` block, dropped on return, serves the whole call:
    ``V`` is classified and its maximal minors computed once, for the validation
    and the fan enumeration, each cone's complement once, for every
    ``picard_index_sets`` call, the cofactor tables of ``Q`` once, and off them
    the ``(det Q_I, adj Q_I)`` of each distinct ``I`` once, with the dual HNF
    rows that every ``picard_basis`` call folds and that ``verify_result``
    certifies, each ``I`` checked once.  The fans come in
    sorted order, so consecutive index families share long prefixes: the table
    keeps the fold states of the last family, and each ``picard_basis`` call
    folds only the index sets after the common prefix.  No fan inverts a matrix
    or runs a second HNF: the fold state is triangular, solved by back
    substitution, and its reversed solution is already triangular.  The
    fan-independent bottom block of the Cartier bases is computed once as
    well, and so is the one m x m determinant that ``verify_result`` takes.
    """
    if fan_index is not None:
        (fan_index,) = _int_tuple((fan_index,), "fan index")
    max_partial_fans = _search_cap(max_partial_fans, "max_partial_fans")
    with _shared_tables():
        require_F(v, reduced=True)
        q = gale_dual(v)
        u_q = weight_transform(q)
        r = q.rows
        # weight_transform's [I; 0] check proves Q @ (top block)^T == I and the lower
        # block a basis of ker Q, the saturated row lattice of v: no re-check needed.
        cd = _covering_decomposition(v, u_q.bottom_rows(v.rows))
        gamma = torsion_matrix(cd)
        gens = torsion_generators(cd)
        class_group = ClassGroupData(
            rank=r,
            torsion=cd.torsion_invariants,
            free_generators=u_q.top_rows(r),
            torsion_generator_rows=gens,
        )
        all_fans = enumerate_fans(v, max_partial_fans=max_partial_fans)
        if fan_index is not None:
            if not 0 <= fan_index < len(all_fans):
                raise PreconditionError(
                    f"fan index {_int_text(fan_index)} out of range (found {len(all_fans)} fans)"
                )
            selected = (all_fans[fan_index],)
        else:
            selected = all_fans
        analyses = []
        for fan in selected:
            family = picard_index_sets(fan)
            pd = picard_basis(q, family)
            cx = cartier_basis(pd.B, u_q, cd.beta)
            analyses.append(FanAnalysis(fan=fan, index_sets=family, picard=pd, cartier=cx))
        result = PipelineResult(
            V=v,
            Q=q,
            U_Q=u_q,
            covering=cd,
            gamma=gamma,
            class_group=class_group,
            fans=tuple(analyses),
        )
        if verify:
            verify_result(result)
    return result


def verify_result(res: PipelineResult) -> None:
    """Re-check every cross-module identity of a pipeline result.

    No value is taken on trust from the table that ``analyze`` shares with
    ``picard_basis``; each check below rests on ``Q``, ``V`` and the result.

    * Cartier bases.  Each ``C = [C_top; B']`` must be square with bottom
      block ``B' = V``, and ``|det C| = index |det beta|``.  With ``V Q^T = 0``
      and ``F Q^T = I`` checked first (``F`` the free-part generators),
      ``|det C| = |det(C_top Q^T)| |det [F; V]|``: extend ``Q^T`` to a
      unimodular ``W`` and expand ``C W`` and ``[F; V] W`` by blocks.  So one
      m x m determinant serves the call, and each fan takes an r x r one.
    * Index sets.  Each fan's family must be the complements of its cones,
      and each distinct set must hold ``r`` columns.
    * Weight blocks.  For each distinct index set ``I`` of the fans,
      ``d = |det Q_I|`` is taken afresh and must be nonzero.  The dual rows
      ``H`` of ``I`` come from ``picard_basis``'s table, or from
      ``_dual_rows`` outside one (on cofactor tables of ``Q`` built once for
      the call), and are certified: strictly increasing
      pivot columns, positive pivots, ``prod pivots * d^(r - |H|) = d^(r-1)``
      and ``h Q_I == 0 mod d`` for each row ``h``.  Then ``H`` and the
      ``d e_k`` span ``L = {x : x Q_I == 0 mod d} = rowspan(adj Q_I)``: they
      lie in ``L``, and ``H`` with the ``d e_k`` at the columns that are no
      pivot of ``H`` is a triangular matrix of determinant ``d^(r-1)``, whose
      rows span a sublattice of ``L`` of index ``d^(r-1)``, the index of ``L``.  A Picard row ``b`` lies
      in ``Q_I Z^r`` iff ``x b == 0 mod d`` for every ``x`` in ``L``, so it is
      tested against the rows of ``H`` alone, once for each distinct pair of
      ``I`` and a row of a fan that has ``I``.
    """
    v, q = res.V, res.Q
    if not (q @ v.transpose()).is_zero():
        raise PreconditionError("weights are not orthogonal to the fan matrix")
    cd = res.covering
    if cd.beta @ cd.V_hat != v:
        raise PreconditionError("covering factorization failed")
    if cd.mu @ cd.beta @ cd.nu != cd.Delta:
        raise PreconditionError("diagonal form identity failed")
    if cd.V_aligned != cd.Delta @ cd.V_hat_aligned:
        raise PreconditionError("alignment identity failed")
    det_beta = abs(det(cd.beta))
    if det_beta != torsion_order(cd):
        raise PreconditionError("factor determinant disagrees with the torsion order")
    free = res.class_group.free_generators
    r = q.rows
    if q @ free.transpose() != IntMatrix.identity(r):
        raise PreconditionError("free-part generator identity failed")
    if res.gamma.rows:
        _check_torsion_congruences(res.gamma, v, res.class_group.torsion_generator_rows)
    v_rows, q_rows = tuple(v), tuple(q)
    det_fv = abs(det(free.vstack(v)))
    rows_by_set: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for fa in res.fans:
        pd = fa.picard
        if not fa.cartier.is_square():
            raise ShapeError("determinant requires a square matrix")
        c_rows = tuple(fa.cartier)
        if c_rows[-v.rows :] != v_rows:
            raise PreconditionError("Cartier basis does not end in the fan matrix")
        top = [[sum(map(mul, c, qk)) for qk in q_rows] for c in c_rows[:r]]
        if abs(_det_rows(top)) * det_fv != pd.index * det_beta:
            raise PreconditionError("Cartier determinant factorization failed")
        for idx in fa.index_sets.sets:
            rows_by_set.setdefault(idx, set()).update(pd.B)
    q_cols = tuple(zip(*q_rows))
    # outside a block, one for this call: each cone's complement is taken once,
    # and the cofactor tables are built once
    with _shared_tables():
        if any(fa.index_sets != picard_index_sets(fa.fan) for fa in res.fans):
            raise PreconditionError("index sets are not the complements of the fan's cones")
        tabled, _ = _picard_table(q)
        for idx, rows in rows_by_set.items():
            if len(idx) != r:
                raise PreconditionError(f"index set {idx} does not hold r = {r} columns")
            cols = [q_cols[j] for j in idx]
            d = abs(_det_rows([list(c) for c in cols]))
            if d == 0:
                raise PreconditionError(f"singular weight block at columns {idx}")
            h = tabled[idx][1] if idx in tabled else _dual_rows(q, idx)[1]
            if not _spans_block_duals(h, cols, d):
                raise PreconditionError("weight block adjugate identity failed")
            # b lies in Q_I Z^r iff h b == 0 mod d for each h in H
            if any(sum(map(mul, hrow, b)) % d for hrow in h for b in rows):
                raise PreconditionError("Picard basis escapes a weight block lattice")


def _spans_block_duals(h, cols, d: int) -> bool:
    """Whether the rows ``h`` and the ``d e_k`` span ``{x : x Q_I == 0 mod d}``,
    for ``Q_I`` with columns ``cols`` and ``d = |det Q_I| > 0``, by the
    certificate of ``verify_result``."""
    r = len(cols)
    last, pivots = -1, 1
    for row in h:
        k = next((k for k, x in enumerate(row) if x), r)
        if len(row) != r or k <= last or k == r or row[k] < 0:
            return False
        last, pivots = k, pivots * row[k]
    if pivots * d ** (r - len(h)) != d ** (r - 1):
        return False
    return not any(sum(map(mul, row, c)) % d for row in h for c in cols)
