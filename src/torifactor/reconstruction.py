"""Recovering a fan matrix from quotient data, and fan-matrix equivalence.

A quotient presentation (weight matrix plus torsion residue matrix)
determines the covering fan matrix by Gale duality; the integer factor
carrying it onto a fan matrix of the quotient is rebuilt from the HNF of a
small relation system.  Equivalence of fan matrices (simultaneous unimodular
row action and column permutation) is decided without an HNF: invariants
of the row action (column contents, the multiset of |maximal minor| and a
per-column minor signature) reject most inequivalent pairs at once, and
otherwise R is fixed by where one basis of columns goes, so only the
candidate images of that basis are tried.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Optional

from .intmat import IntMatrix, PreconditionError, ShapeError, _det_adjugate, det, vector_content
from .covering import TorsionMatrix
from .gale import gale_dual, require_W
from .lattices import Lattice
from .normal_forms import hnf

MAX_PERM_ENV = "TORIFACTOR_MAX_PERM"


@dataclass(frozen=True)
class QuotientPresentation:
    """Weight matrix and torsion matrix presenting a variety as a quotient."""

    Q: IntMatrix
    gamma: TorsionMatrix

    def __post_init__(self):
        require_W(self.Q)
        if self.gamma.cols != self.Q.cols:
            raise ShapeError("torsion matrix width must match the weight matrix")


class SearchLimitExceeded(RuntimeError):
    """The equivalence search hit the configured cap on candidate bases."""


def _max_permutations_from_env() -> Optional[int]:
    """The cap set by TORIFACTOR_MAX_PERM; ``None`` when unset or empty."""
    env = os.environ.get(MAX_PERM_ENV)
    if not env:
        return None
    if not env.isdecimal() or int(env) == 0:
        raise ValueError(f"{MAX_PERM_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _covering_matrix(p: QuotientPresentation, v_hat: Optional[IntMatrix]) -> IntMatrix:
    if v_hat is None:
        return gale_dual(p.Q)
    if Lattice.from_matrix(v_hat) != Lattice.from_matrix(gale_dual(p.Q)):
        raise PreconditionError("supplied covering matrix is not a Gale dual of Q")
    return v_hat


def reconstruction_system(
    p: QuotientPresentation, v_hat: Optional[IntMatrix] = None
) -> Optional[IntMatrix]:
    """The relation system ``K``: pairing block stacked over diag(moduli).

    Integer solutions of ``z @ K == 0`` encode the rows of the factor matrix.
    ``None`` when there is no torsion.  ``v_hat`` may supply a specific Gale
    dual of the weight matrix; entries of ``K`` depend on that choice.
    """
    return _reconstruction_system(p, _covering_matrix(p, v_hat))


def _reconstruction_system(p: QuotientPresentation, vh: IntMatrix) -> Optional[IntMatrix]:
    if p.gamma.rows == 0:
        return None
    pairing = vh @ p.gamma.to_int_matrix().transpose()
    return pairing.vstack(IntMatrix.diagonal(list(p.gamma.moduli)))


def reconstruct_beta(
    p: QuotientPresentation, v_hat: Optional[IntMatrix] = None
) -> IntMatrix:
    """A factor matrix whose rows span all solutions of the torsion relations.

    Determined only up to left unimodular action; its absolute determinant
    equals the order of the subgroup generated by the residue pairing.
    """
    vh = _covering_matrix(p, v_hat)
    return _factor_from_system(p, _reconstruction_system(p, vh), vh.rows)[0]


def _factor_from_system(
    p: QuotientPresentation, k: Optional[IntMatrix], n: int
) -> tuple[IntMatrix, int]:
    """Factor matrix and order of the subgroup the residue pairing generates.

    Both come from one HNF of the relation system ``k``: the lower rows of
    the transform solve it, and the upper block of the form spans the
    pairing rows together with diag(moduli).
    """
    if k is None:
        return IntMatrix.identity(n), 1
    res = hnf(k)
    beta = res.U.bottom_rows(n).select_cols(range(n))
    if det(beta) == 0:
        raise PreconditionError("degenerate torsion data produced a singular factor")
    subgroup_order = prod(p.gamma.moduli) // abs(det(res.H.top_rows(p.gamma.rows)))
    return beta, subgroup_order


def reconstruct_fan_matrix(
    p: QuotientPresentation, v_hat: Optional[IntMatrix] = None
) -> IntMatrix:
    """A fan matrix of the quotient: factor times covering fan matrix.

    Verifies the defining relations: orthogonality to the weights, the
    torsion congruences, that the residue pairing generates the whole
    torsion group ``Z/moduli``, and that the factor determinant equals the
    order of that group.
    """
    return _reconstruct(p, _covering_matrix(p, v_hat))[2]


def _reconstruct(
    p: QuotientPresentation, vh: IntMatrix
) -> tuple[Optional[IntMatrix], IntMatrix, IntMatrix]:
    """Relation system, factor matrix and verified fan matrix for the covering ``vh``."""
    k = _reconstruction_system(p, vh)
    beta, subgroup_order = _factor_from_system(p, k, vh.rows)
    v = beta @ vh
    if not (v @ p.Q.transpose()).is_zero():
        raise PreconditionError("reconstructed matrix is not orthogonal to the weights")
    if p.gamma.rows:
        rel = v @ p.gamma.to_int_matrix().transpose()
        for j, tau in enumerate(p.gamma.moduli):
            if any(rel[i, j] % tau != 0 for i in range(rel.rows)):
                raise PreconditionError("torsion congruences fail on the reconstruction")
        order = prod(p.gamma.moduli)
        if subgroup_order != order:
            raise PreconditionError(
                f"the residue pairing generates {subgroup_order} of the {order} torsion classes"
            )
        if abs(det(beta)) != subgroup_order:
            raise PreconditionError("factor determinant disagrees with the subgroup order")
    return k, beta, v


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
    would accept.  ``max_permutations``, by default the environment variable
    TORIFACTOR_MAX_PERM, caps the number of candidate bases tried; exceeding
    it raises ``SearchLimitExceeded``, and a value that is not a positive
    integer raises ``ValueError``.
    """
    if v1.shape != v2.shape:
        raise ShapeError("fan matrices must have equal shape")
    if max_permutations is None:
        max_permutations = _max_permutations_from_env()
    n, m = v1.shape
    cols1 = [v1.col(j) for j in range(m)]
    cols2 = [v2.col(j) for j in range(m)]
    if sorted(map(vector_content, cols1)) != sorted(map(vector_content, cols2)):
        return None
    minors1, minors2 = _abs_minors(v1), _abs_minors(v2)
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


def _abs_minors(v: IntMatrix) -> dict[tuple[int, ...], int]:
    """``|det|`` of every n-subset of columns, keyed by the sorted subset."""
    return {c: abs(det(v.select_cols(c))) for c in combinations(range(v.cols), v.rows)}


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
