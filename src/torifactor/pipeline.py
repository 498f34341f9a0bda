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

from .intmat import IntMatrix, PreconditionError, _int_text, _int_tuple, _search_cap
from .intmat import _shared_tables, det
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
    _weight_block,
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
    and the fan enumeration, and the ``(det Q_I, adj Q_I)`` of each distinct
    ``I`` once, for every ``picard_basis`` call and for ``verify_result``, with
    the dual HNF rows that ``picard_basis`` folds, each ``I`` checked once.  The
    fans come in sorted order, so consecutive index families share long
    prefixes: the table keeps the fold states of the last family, and each
    ``picard_basis`` call folds only the index sets after the common prefix.
    No fan inverts a matrix: ``M`` is triangular and solved by back
    substitution.  The fan-independent bottom block of the Cartier bases is
    computed once as well.
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

    Each distinct index set ``I`` of the fans is checked once: ``Q_I`` is
    taken from ``Q`` again and its ``(d_I, adj Q_I)`` must satisfy
    ``Q_I adj Q_I == d_I I`` with ``d_I != 0``.  Then a Picard row ``b`` lies in
    ``Q_I Z^r`` iff ``adj(Q_I) b == 0 mod d_I``, which is checked once for each
    distinct pair of ``I`` and a row of a fan that has ``I``.  Inside
    ``analyze`` the ``(d_I, adj Q_I)`` are those the Picard bases used, checked
    all the same, so that shared table need not be trusted.
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
    identity = IntMatrix.identity(q.rows)
    if q @ res.class_group.free_generators.transpose() != identity:
        raise PreconditionError("free-part generator identity failed")
    if res.gamma.rows:
        _check_torsion_congruences(res.gamma, v, res.class_group.torsion_generator_rows)
    v_rows = tuple(v)
    rows_by_set: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for fa in res.fans:
        pd = fa.picard
        if abs(det(fa.cartier)) != pd.index * det_beta:
            raise PreconditionError("Cartier determinant factorization failed")
        if tuple(fa.cartier)[-v.rows :] != v_rows:
            raise PreconditionError("Cartier basis does not end in the fan matrix")
        for idx in fa.index_sets.sets:
            rows_by_set.setdefault(idx, set()).update(pd.B)
    for idx, rows in rows_by_set.items():
        block = q.select_cols(idx)
        d, adj = _weight_block(q, idx)
        if d == 0:
            raise PreconditionError(f"singular weight block at columns {idx}")
        if block @ adj != d * identity:
            raise PreconditionError("weight block adjugate identity failed")
        # b lies in Q_I Z^r iff adj(Q_I) b == 0 mod d_I
        if any(sum(map(mul, arow, b)) % d for arow in adj for b in rows):
            raise PreconditionError("Picard basis escapes a weight block lattice")
