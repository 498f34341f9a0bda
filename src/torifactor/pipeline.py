"""End-to-end analysis of a fan matrix: weights, covering, torsion, divisors.

Chains the individual operations with one consistent choice of
representatives: the covering fan matrix is taken from the lower block of
the weight transform, so the Cartier basis reproduces the input fan matrix
in its bottom rows.
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import Optional

from .intmat import IntMatrix, PreconditionError, Record, ShapeError, _int_text, _int_tuple
from .intmat import _memo_product, _search_cap, det, shared_tables
from .covering import (
    CoveringData,
    TorsionMatrix,
    _covering_decomposition,
    torsion_generators,
    torsion_matrix,
    torsion_order,
)
from .divisors import (
    ClassGroupData,
    PicardData,
    _dual_rows,
    _picard_fold,
    _picard_table,
    cartier_basis,
    weight_transform,
)
from .fans import Fan, PicardIndexFamily, _complements, _cone, _fan_records, _fans_by_root
from .fans import enumerate_fans, picard_index_sets
from .gale import _kernel, _weight_minors, gale_dual, require_F


class FanAnalysis(Record):
    """Per-fan divisor data."""

    fan: Fan
    picard: PicardData
    cartier: IntMatrix

    @property
    def index_sets(self) -> PicardIndexFamily:
        """The complements of the fan's maximal cones (``picard_index_sets``)."""
        return picard_index_sets(self.fan)


class PipelineResult(Record):
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
    enumeration; by default every fan is processed.  The fan search runs its
    roots in ascending order, and the fans of a root sort before those of
    every later root, so for ``fan_index=k`` it stops after the root that
    brings the fan count past ``k`` and builds the ``Fan`` record of fan k
    only.  Inside that root it holds only the smallest fans it needs and drops
    each partial fan whose every completion sorts after the largest of them
    (``fans._sorts_after`` has the proof); a root with fewer fans than it
    needs is searched whole.  A negative ``k``, or one past the last fan, runs
    every root uncut, so the message counts every fan.  ``max_partial_fans``
    caps the fan search as in ``enumerate_fans``, by the partial fans pushed
    up to where it stops.
    ``V_hat`` is the lower block of ``U_Q`` (see ``covering_decomposition``).
    One ``shared_tables`` block, dropped on return, serves the whole call:
    the kernel of ``V`` is taken once, for ``gale_dual`` and, when r < n, for
    the minor table, whose r x r minors of ``Q`` ``verify_result`` reads
    again; ``V`` is classified and its maximal minors and signed
    circuits computed once, for the validation and the fan search.  The
    per-fan stage runs on candidate cones: ``fans._fan_records`` builds each
    candidate's cone tuple once, ``fans._complements`` each cone's complement
    mask once, and ``divisors._picard_fold`` folds each fan's complement masks
    (it says what the fans share).  No family is stored: a ``FanAnalysis``
    reads its index sets off its cones.
    ``cartier_basis`` runs once per distinct ``PicardData``; its fan-independent
    bottom block and the one m x m determinant of ``verify_result`` are
    computed once as well, and each distinct row of a Picard basis is
    multiplied by the free-part generators once, however many records hold it.
    """
    if fan_index is not None:
        (fan_index,) = _int_tuple((fan_index,), "fan index")
    max_partial_fans = _search_cap(max_partial_fans, "max_partial_fans")
    with shared_tables():
        # held before the check, the kernel that gale_dual needs is the side
        # the minor table reads
        _kernel(v)
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
        if fan_index is None:
            selected = enumerate_fans(v, max_partial_fans=max_partial_fans)
        else:
            found = 0
            for fans in _fans_by_root(v, max_partial_fans, fan_index):
                if 0 <= fan_index - found < len(fans):
                    break
                found += len(fans)
            else:
                raise PreconditionError(
                    f"fan index {_int_text(fan_index)} out of range (found {found} fans)"
                )
            selected = _fan_records(v, [fans[fan_index - found]])
        analyses = []
        cartiers: dict[int, IntMatrix] = {}  # id(PicardData) -> its Cartier basis
        for fan in selected:
            pd = _picard_fold(q, [mask for _, mask in _complements(fan)])
            # analyses holds pd, so its id stays its own for the call
            cx = cartiers.get(id(pd))
            if cx is None:
                cx = cartiers[id(pd)] = cartier_basis(pd.B, u_q, cd.beta)
            analyses.append(FanAnalysis(fan=fan, picard=pd, cartier=cx))
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

    No value is taken on trust from the Picard table that ``analyze`` fills
    (``divisors._picard_table``); each check below rests on ``Q``, ``V`` and
    the result, and the index sets are the complements of each fan's cones
    (``fans._complements``, a function of the cones alone).  Those come from
    the same ``"complements"`` memo that ``analyze`` fills in its block, so a
    fault there reaches both; the independent check of the complements is the
    test ``test_index_sets_are_the_complements_of_the_cones``.

    * Cartier bases.  Each ``C = [C_top; B']`` must be square with bottom
      block ``B' = V``, ``C_top Q^T`` must equal ``B``, ``B`` must be upper
      triangular, and ``|prod diag B| |det [F; V]| = index |det beta|``.  With
      ``V Q^T = 0`` and ``F Q^T = I`` checked first (``F`` the free-part
      generators), ``|det C| = |det(C_top Q^T)| |det [F; V]|``: extend ``Q^T``
      to a unimodular ``W`` and expand ``C W`` and ``[F; V] W`` by blocks.  For
      ``C = blockdiag(B, beta) U_Q`` the top block is ``B F``, so
      ``C_top Q^T = B F Q^T = B``, and a triangular ``B`` has determinant
      ``prod diag B``.  So the three checks give ``|det C| = index |det beta|``
      and more; the call takes one m x m determinant and no r x r one.  Fans
      that hold the same Cartier and ``B`` objects and index are checked
      once; the result holds those objects for the call, so their ids stay
      theirs.  Each distinct row ``c`` of a ``C_top`` is multiplied by
      ``Q^T`` once, in a memo of this call's own, not read from ``analyze``'s
      table; every row of every checked record is still compared with ``B``.
    * Index sets.  Each fan's matrix must be ``V``.  The rows of each fan's
      ``B`` are pooled by the complements of its cones, as column masks; a
      fan with a repeated mask lists a cone twice, and each distinct
      complement must hold ``r`` columns.
    * Weight blocks.  For each distinct index set ``I`` of the fans,
      ``d = |det Q_I|`` is read off the table of the r x r minors of ``Q``
      (``gale._weight_minors``), and must be nonzero.  Inside ``analyze``
      that table is the one its minors of ``V`` came from when r < n;
      standalone the call takes its own.  The fold reads its ``d_I`` off the
      cofactor tables instead, separate ``_laplace_minors`` calls, so ``d``
      does not rest on the Picard table.
      The dual rows ``H`` of ``I`` come from the Picard table, or from
      ``_dual_rows`` of the mask outside one (on cofactor tables of ``Q``
      built once for the call), and are certified: strictly increasing pivot columns,
      positive pivots, ``prod pivots * d^(r - |H|) = d^(r-1)``
      and ``h Q_I == 0 mod d`` for each row ``h``.  Then ``H`` and the
      ``d e_k`` span ``L = {x : x Q_I == 0 mod d} = rowspan(adj Q_I)``: they
      lie in ``L``, and ``H`` with the ``d e_k`` at the columns that are no
      pivot of ``H`` is a triangular matrix of determinant ``d^(r-1)``, whose
      rows span a sublattice of ``L`` of index ``d^(r-1)``, the index of ``L``.  A Picard row ``b`` lies
      in ``Q_I Z^r`` iff ``x b == 0 mod d`` for every ``x`` in ``L``, so it is
      tested against the rows of ``H`` alone, once for each distinct pair of
      ``I`` and a row of a fan that has ``I``.  Each distinct row of a ``B``
      is one bit, each ``B`` object the mask of its rows, computed once, and
      the rows of each ``I`` the OR of the masks of its fans.
    """
    v, q = res.V, res.Q
    if not (q @ v.transpose()).is_zero():
        raise PreconditionError("weights are not orthogonal to the fan matrix")
    cd = res.covering
    if cd.beta @ cd.V_hat != v:
        raise PreconditionError("covering factorization failed")
    diag = [x for i, row in enumerate(cd.Delta) for j, x in enumerate(row) if i == j]
    if cd.mu @ cd.beta @ cd.nu != cd.Delta or cd.Delta != IntMatrix.diagonal(diag):
        raise PreconditionError("diagonal form identity failed")
    # with Delta diagonal, Delta @ V_hat_aligned scales row i by Delta_ii
    scaled = tuple(tuple(c * x for x in row) for c, row in zip(diag, cd.V_hat_aligned))
    if cd.V_hat_aligned.rows != len(diag) or tuple(cd.V_aligned) != scaled:
        raise PreconditionError("alignment identity failed")
    if cd.mu @ v != cd.V_aligned:
        raise PreconditionError("aligned fan matrix identity failed")
    det_beta = abs(det(cd.beta))
    if det_beta != torsion_order(cd):
        raise PreconditionError("factor determinant disagrees with the torsion order")
    invariants = tuple(c for c in diag if c > 1)
    if (
        any(c < 1 for c in diag)
        or any(b % a for a, b in zip(diag, diag[1:]))
        or cd.torsion_invariants != invariants
        or res.class_group.torsion != invariants
    ):
        raise PreconditionError("torsion invariants disagree with the diagonal form")
    free = res.class_group.free_generators
    r = q.rows
    if q @ free.transpose() != IntMatrix.identity(r):
        raise PreconditionError("free-part generator identity failed")
    if res.gamma.rows:
        g = res.gamma.to_int_matrix()
        against_fan = g @ v.transpose()
        against_gens = g @ res.class_group.torsion_generator_rows.transpose()
        for k, tau in enumerate(res.gamma.moduli):
            if any(x % tau for x in against_fan.row(k)):
                raise PreconditionError("torsion matrix does not annihilate the fan rows")
            if any((x - int(j == k)) % tau for j, x in enumerate(against_gens.row(k))):
                raise PreconditionError("torsion matrix does not normalize the generators")
    v_rows, q_rows = tuple(v), tuple(q)
    det_fv = abs(det(free.vstack(v)))
    certified: set[tuple[int, int, int]] = set()
    tops: dict[tuple[int, ...], tuple[int, ...]] = {}  # row c of a C_top -> c Q^T
    # each distinct row of a B is one bit; pooled[mask of I] holds the rows of
    # every B whose fan has a cone with complement I
    row_bits: dict[tuple[int, ...], int] = {}
    basis_bits: dict[int, int] = {}  # id(B) -> the bits of its rows
    pooled: dict[int, int] = {}
    # outside a block, one for this call: each cone's complement and the
    # cofactor tables are computed once
    with shared_tables():
        for fa in res.fans:
            if fa.fan.matrix != v:
                raise PreconditionError("a fan's matrix is not V")
            pd = fa.picard
            b = pd.B
            # the result holds these objects for the call, so their ids stay theirs
            key = (id(fa.cartier), id(b), pd.index)
            if key not in certified:
                if not fa.cartier.is_square():
                    raise ShapeError("Cartier basis is not square")
                c_rows = tuple(fa.cartier)
                if c_rows[-v.rows :] != v_rows:
                    raise PreconditionError("Cartier basis does not end in the fan matrix")
                top = _memo_product(c_rows[:r], q_rows, tops)
                if (
                    top != tuple(b)
                    or any(row[:k] != (0,) * k for k, row in enumerate(top))
                    or abs(prod(row[k] for k, row in enumerate(top))) * det_fv
                    != pd.index * det_beta
                ):
                    raise PreconditionError("Cartier determinant factorization failed")
                certified.add(key)
            bits = basis_bits.get(id(b))
            if bits is None:
                bits = 0
                for row in b:
                    bit = row_bits.get(row)
                    if bit is None:
                        bit = row_bits[row] = 1 << len(row_bits)
                    bits |= bit
                basis_bits[id(b)] = bits
            masks = [mask for _, mask in _complements(fa.fan)]
            if len(set(masks)) != len(masks):
                raise PreconditionError("a fan lists a maximal cone twice")
            for mask in masks:
                pooled[mask] = pooled.get(mask, 0) | bits
        distinct_rows = list(row_bits)
        q_cols = tuple(zip(*q_rows))
        minors = _weight_minors(q)
        tabled = _picard_table(q)[0]
        for mask, bits in pooled.items():
            if mask.bit_count() != r:
                raise PreconditionError(f"index set {_cone(mask)} does not hold r = {r} columns")
            d = abs(minors[mask])
            if d == 0:
                raise PreconditionError(f"singular weight block at columns {_cone(mask)}")
            cols = [c for j, c in enumerate(q_cols) if mask >> j & 1]
            h = tabled[mask][1] if mask in tabled else _dual_rows(q, mask)[1]
            if not _spans_block_duals(h, cols, d):
                raise PreconditionError("weight block adjugate identity failed")
            # b lies in Q_I Z^r iff h b == 0 mod d for each h in H
            rows = [b for b, bit in zip(distinct_rows, bin(bits)[:1:-1]) if bit == "1"]
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
