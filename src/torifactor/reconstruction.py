"""Recovering a fan matrix from quotient data, and fan-matrix equivalence.

A quotient presentation (weight matrix plus torsion residue matrix)
determines the covering fan matrix by Gale duality; the integer factor
carrying it onto a fan matrix of the quotient is rebuilt from the HNF of a
small relation system; ``reconstruct`` returns all three, verified, as one
``Reconstruction``.  Equivalence of fan matrices (simultaneous unimodular
row action and column permutation) is decided without an HNF: invariants
of the row action (column contents, the multiset of |maximal minor| and a
per-column minor signature) reject most inequivalent pairs at once, and
otherwise R is fixed by where one basis of columns goes, so only the
candidate images of that basis are tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional

from .intmat import (
    IntMatrix,
    PreconditionError,
    SearchLimitExceeded,
    ShapeError,
    _det_adjugate,
    _int_text,
    _search_cap,
    det,
    vector_content,
)
from .covering import TorsionMatrix
from .gale import _minors, gale_dual, require_W
from .lattices import Lattice
from .normal_forms import hnf


@dataclass(frozen=True)
class QuotientPresentation:
    """Weight matrix and torsion matrix presenting a variety as a quotient."""

    Q: IntMatrix
    gamma: TorsionMatrix

    def __post_init__(self):
        require_W(self.Q)
        if self.gamma.cols != self.Q.cols:
            raise ShapeError("torsion matrix width must match the weight matrix")


@dataclass(frozen=True)
class Reconstruction:
    """A fan matrix ``V == beta @ V_hat`` of a quotient, rebuilt from its presentation.

    ``V_hat`` is a Gale dual of the weights; ``K`` is the relation system,
    the pairing block ``V_hat @ Gamma^T`` stacked over diag(moduli), or
    ``None`` when there is no torsion; the rows of ``beta`` span the first
    ``n`` coordinates of the integer solutions of ``z @ K == 0``.
    """

    V_hat: IntMatrix
    K: Optional[IntMatrix]
    beta: IntMatrix
    V: IntMatrix


def reconstruct(p: QuotientPresentation, v_hat: Optional[IntMatrix] = None) -> Reconstruction:
    """Covering, relation system, factor and fan matrix of the quotient ``p``.

    ``v_hat`` may supply a specific Gale dual of the weight matrix; ``K`` and
    ``beta`` depend on that choice, and ``beta`` is determined only up to
    left unimodular action.  One HNF of ``K`` gives ``beta`` (lower rows of
    the transform) and the order of the subgroup the residue pairing
    generates (upper block of the form).  Raises ``PreconditionError``
    unless ``V`` is orthogonal to the weights, meets the torsion
    congruences, the pairing generates all of ``Z/moduli`` and
    ``|det beta|`` equals its order.
    """
    dual = gale_dual(p.Q)
    if v_hat is None:
        v_hat = dual
    elif Lattice.from_matrix(v_hat) != Lattice.from_matrix(dual):
        raise PreconditionError("supplied covering matrix is not a Gale dual of Q")
    n = v_hat.rows
    k, beta, subgroup_order = None, IntMatrix.identity(n), 1
    if p.gamma.rows:
        residues = p.gamma.to_int_matrix().transpose()
        k = (v_hat @ residues).vstack(IntMatrix.diagonal(list(p.gamma.moduli)))
        res = hnf(k)
        beta = res.U.bottom_rows(n).select_cols(range(n))
        if det(beta) == 0:
            raise PreconditionError("degenerate torsion data produced a singular factor")
        subgroup_order = prod(p.gamma.moduli) // abs(det(res.H.top_rows(p.gamma.rows)))
    v = beta @ v_hat
    if not (v @ p.Q.transpose()).is_zero():
        raise PreconditionError("reconstructed matrix is not orthogonal to the weights")
    if p.gamma.rows:
        rel = v @ residues
        for j, tau in enumerate(p.gamma.moduli):
            if any(rel[i, j] % tau != 0 for i in range(rel.rows)):
                raise PreconditionError("torsion congruences fail on the reconstruction")
        order = prod(p.gamma.moduli)
        if subgroup_order != order:
            raise PreconditionError(
                f"the residue pairing generates {_int_text(subgroup_order)} "
                f"of the {_int_text(order)} torsion classes"
            )
        if abs(det(beta)) != subgroup_order:
            raise PreconditionError("factor determinant disagrees with the subgroup order")
    return Reconstruction(v_hat, k, beta, v)


def fan_matrix_equivalence(
    v1: IntMatrix,
    v2: IntMatrix,
    max_permutations: Optional[int] = None,
) -> Optional[tuple[IntMatrix, IntMatrix]]:
    """Witness (R, S) with ``R @ v1 @ S == v2``, or ``None`` if inequivalent.

    Column contents, the multiset of ``|maximal minor|`` and each column's
    signature (content, sorted ``|det|`` of the n-subsets containing it) do
    not change under the row action, so a mismatch answers ``None`` with no
    search.  Otherwise R is fixed by where one nonsingular n-subset ``c`` of
    ``v1`` goes: each ordered n-tuple ``t`` of ``v2`` columns with the same
    signatures and ``|det v2_t| = |det v1_c|`` is a candidate base, giving
    ``R = v2_t @ adj(v1_c) / det(v1_c)`` when the division is exact, and R is
    kept when the columns of ``R @ v1`` are those of ``v2`` as a multiset.
    S is the lexicographically smallest permutation over all such R, equal
    columns going smallest source to smallest target, so the witness is the
    first one a search over all column permutations in lexicographic order
    would accept.  ``max_permutations`` (at least 1; ``None``: no cap) caps
    the candidate bases tried; exceeding it raises ``SearchLimitExceeded``.
    """
    max_permutations = _search_cap(max_permutations, "max_permutations")
    if v1.shape != v2.shape:
        raise ShapeError("fan matrices must have equal shape")
    n, m = v1.shape
    cols1 = [v1.col(j) for j in range(m)]
    cols2 = [v2.col(j) for j in range(m)]
    if sorted(map(vector_content, cols1)) != sorted(map(vector_content, cols2)):
        return None
    minors1, minors2 = ({c: abs(d) for c, d in _minors(v).items()} for v in (v1, v2))
    if not any(minors2.values()):
        raise PreconditionError("fan matrices must have full row rank")
    if sorted(minors1.values()) != sorted(minors2.values()):
        return None
    sig1, sig2 = _column_signatures(cols1, minors1), _column_signatures(cols2, minors2)
    if sorted(sig1) != sorted(sig2):
        return None
    by_signature: dict[tuple, list[int]] = {}
    for j, sig in enumerate(sig2):
        by_signature.setdefault(sig, []).append(j)
    c = min(
        (c for c, d in minors1.items() if d),
        key=lambda c: prod(len(by_signature[sig1[j]]) for j in c),
    )
    d, adj = _det_adjugate(v1.select_cols(c))
    positions: dict[tuple[int, ...], list[int]] = {}
    for j, col in enumerate(cols2):
        positions.setdefault(col, []).append(j)
    best: Optional[tuple[list[int], IntMatrix]] = None
    tried = 0
    for t in product(*(by_signature[sig1[j]] for j in c)):
        if len(set(t)) < n or minors2[tuple(sorted(t))] != abs(d):
            continue
        tried += 1
        if max_permutations is not None and tried > max_permutations:
            raise SearchLimitExceeded(
                f"equivalence search exceeded {max_permutations} candidate bases"
            )
        scaled = v2.select_cols(t) @ adj
        if any(x % d for row in scaled for x in row):
            continue
        r = IntMatrix([[x // d for x in row] for row in scaled])
        perm = _column_matching(r @ v1, positions)
        if perm is not None and (best is None or perm < best[0]):
            best = (perm, r)
    if best is None:
        return None
    r, s = best[1], IntMatrix.permutation(best[0])
    return (r, s) if r @ v1 @ s == v2 else None


def _column_signatures(
    cols: list[tuple[int, ...]], minors: dict[tuple[int, ...], int]
) -> list[tuple]:
    """Per column: its content and the sorted minors of the subsets containing it."""
    dets: list[list[int]] = [[] for _ in cols]
    for c, d in minors.items():
        for j in c:
            dets[j].append(d)
    return [(vector_content(col), tuple(sorted(ds))) for col, ds in zip(cols, dets)]


def _column_matching(moved: IntMatrix, positions: dict) -> Optional[list[int]]:
    """Smallest ``perm`` with column ``perm[j]`` of ``moved`` at position ``j``
    of ``v2`` (``positions``: column to its ascending positions), or ``None``
    when the column multisets differ."""
    perm = [0] * moved.cols
    free = {col: iter(js) for col, js in positions.items()}
    for i in range(moved.cols):
        j = next(free.get(moved.col(i), iter(())), None)
        if j is None:
            return None
        perm[j] = i
    return perm
