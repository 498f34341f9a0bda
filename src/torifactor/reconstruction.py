"""Recovering a fan matrix from quotient data, and fan-matrix equivalence.

A quotient presentation (weight matrix plus torsion residue matrix)
determines the covering fan matrix by Gale duality; the integer factor
carrying it onto a fan matrix of the quotient is rebuilt from the HNF of a
small relation system; ``reconstruct`` returns all three, verified, as one
``Reconstruction``.  Equivalence of fan matrices (simultaneous unimodular
row action and column permutation) is decided without an HNF: invariants
of the row action (column contents and a per-column minor signature) reject
most inequivalent pairs at once, and otherwise R is fixed by where the first
basis of the second matrix comes from, so only the candidate preimages of
that basis are tried, in lexicographic order, up to the first that fits.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Optional

from .intmat import (
    IntMatrix,
    PreconditionError,
    Record,
    SearchLimitExceeded,
    ShapeError,
    _det_adjugate,
    _int_text,
    _search_cap,
    vector_content,
)
from .covering import TorsionMatrix
from .fans import _cone, _mask
from .gale import _minors, gale_dual, require_W
from .lattices import Lattice
from .normal_forms import hnf, unimodular_inverse


class QuotientPresentation(Record):
    """Weight matrix and torsion matrix presenting a variety as a quotient."""

    Q: IntMatrix
    gamma: TorsionMatrix

    def __post_init__(self):
        require_W(self.Q)
        if self.gamma.cols != self.Q.cols:
            raise ShapeError("torsion matrix width must match the weight matrix")


class Reconstruction(Record):
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
    generates (from the pivots of the form, on its diagonal as ``K`` has full
    column rank).  Those lower rows are a basis of ``{z : z @ K == 0}``, and
    as diag(moduli) is nonsingular, projecting them onto the first ``n``
    coordinates loses nothing: the rows of ``beta`` are a basis of the
    kernel of the pairing map ``Z^n -> sum Z/moduli``.
    So ``V @ Gamma^T == 0`` modulo the moduli, ``V @ Q^T == beta @ V_hat @
    Q^T == 0`` and ``|det beta|`` is the subgroup order.  Raises
    ``PreconditionError`` unless the pairing generates all of ``Z/moduli``,
    so that ``|det beta|`` is the product of the moduli.
    """
    dual = gale_dual(p.Q)
    if v_hat is None:
        v_hat = dual
    elif Lattice.from_matrix(v_hat) != Lattice.from_matrix(dual):
        raise PreconditionError("supplied covering matrix is not a Gale dual of Q")
    n = v_hat.rows
    k, beta = None, IntMatrix.identity(n)
    if p.gamma.rows:
        residues = p.gamma.to_int_matrix().transpose()
        k = (v_hat @ residues).vstack(IntMatrix.diagonal(list(p.gamma.moduli)))
        res = hnf(k)
        beta = res.U.bottom_rows(n).select_cols(range(n))
        order = prod(p.gamma.moduli)
        subgroup_order = order // prod(res.H[i, i] for i in range(p.gamma.rows))
        if subgroup_order != order:
            raise PreconditionError(
                f"the residue pairing generates {_int_text(subgroup_order)} "
                f"of the {_int_text(order)} torsion classes"
            )
    return Reconstruction(v_hat, k, beta, beta @ v_hat)


def fan_matrix_equivalence(
    v1: IntMatrix,
    v2: IntMatrix,
    max_permutations: Optional[int] = None,
) -> Optional[tuple[IntMatrix, IntMatrix]]:
    """Witness (R, S) with ``R @ v1 @ S == v2``, or ``None`` if inequivalent.

    Column contents and each column's signature (content, sorted ``|det|`` of
    the n-subsets containing it) do not change under the row action, so a
    mismatch answers ``None`` with no search.  Otherwise R is fixed by the
    ``v1`` columns that map onto ``g``, the lexicographically first basis of
    ``v2``.  The candidate bases are the n-tuples ``t`` of distinct ``v1``
    columns with the signatures of ``g`` and ``|det v1_t| = |det v2_g|``, in
    lexicographic order; the first with an integral
    ``R^-1 = v1_t @ adj(v2_g) / det(v2_g)`` that carries the columns of ``v2``
    onto those of ``v1`` is returned, each column taking the smallest free
    ``v1`` column equal to its image.  As ``g`` is greedy, each ``v2`` column
    lies in the span of the ``g`` columns before it, so the images of ``g``
    fix a witness's permutation position by position: the first witness found
    is the one a search over all column permutations in lexicographic order
    would accept first.  ``max_permutations`` (at least 1; ``None``: no cap)
    caps the candidate bases tried; exceeding it raises ``SearchLimitExceeded``.
    """
    max_permutations = _search_cap(max_permutations, "max_permutations")
    if v1.shape != v2.shape:
        raise ShapeError("fan matrices must have equal shape")
    n, m = v1.shape
    cols1, cols2 = ([v.col(j) for j in range(m)] for v in (v1, v2))
    if sorted(map(vector_content, cols1)) != sorted(map(vector_content, cols2)):
        return None
    minors1, minors2 = ({c: abs(d) for c, d in _minors(v).items()} for v in (v1, v2))
    first = next((c for c, d in minors2.items() if d), None)
    if first is None:
        raise PreconditionError("fan matrices must have full row rank")
    g = _cone(first)
    sig1, sig2 = _column_signatures(cols1, minors1), _column_signatures(cols2, minors2)
    if sorted(sig1) != sorted(sig2):
        return None
    by_signature: dict[tuple, list[int]] = {}
    positions: dict[tuple[int, ...], list[int]] = {}
    for j, (sig, col) in enumerate(zip(sig1, cols1)):
        by_signature.setdefault(sig, []).append(j)
        positions.setdefault(col, []).append(j)
    d, adj = _det_adjugate(v2.select_cols(g))
    tuples = product(*(by_signature[sig2[j]] for j in g))
    bases = (t for t in tuples if len(set(t)) == n and minors1[_mask(t)] == abs(d))
    for tried, t in enumerate(bases, 1):
        if max_permutations is not None and tried > max_permutations:
            raise SearchLimitExceeded(
                f"equivalence search exceeded {max_permutations} candidate bases"
            )
        scaled = v1.select_cols(t) @ adj
        if any(x % d for row in scaled for x in row):
            continue
        r_inv = IntMatrix._of(tuple(tuple(x // d for x in row) for row in scaled))
        perm = _column_matching(r_inv @ v2, positions)
        if perm is not None:
            r, s = unimodular_inverse(r_inv), IntMatrix.permutation(perm)
            return (r, s) if r @ v1 @ s == v2 else None
    return None


def _column_signatures(cols: list[tuple[int, ...]], minors: dict[int, int]) -> list[tuple]:
    """Per column: its content and the sorted minors of the subsets containing
    it, the minors keyed by column mask."""
    return [
        (vector_content(col), tuple(sorted(d for c, d in minors.items() if c >> j & 1)))
        for j, col in enumerate(cols)
    ]


def _column_matching(moved: IntMatrix, positions: dict) -> Optional[list[int]]:
    """Smallest ``perm`` with column ``perm[j]`` of ``v1`` equal to column ``j``
    of ``moved`` (``positions``: column of ``v1`` to its ascending indices), or
    ``None`` when the column multisets differ."""
    free = {col: iter(js) for col, js in positions.items()}
    perm = []
    for j in range(moved.cols):
        i = next(free.get(moved.col(j), iter(())), None)
        if i is None:
            return None
        perm.append(i)
    return perm
