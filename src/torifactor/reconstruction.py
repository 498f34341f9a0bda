"""Recovering a fan matrix from quotient data, and fan-matrix equivalence.

A quotient presentation (weight matrix plus torsion residue matrix)
determines the covering fan matrix by Gale duality; the integer factor
carrying it onto a fan matrix of the quotient is rebuilt from the HNF of a
small relation system.  Equivalence of fan matrices (simultaneous unimodular
row action and column permutation) is decided by brute-force permutation
search with HNF canonicalization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations
from math import prod
from typing import Optional

from .intmat import IntMatrix, PreconditionError, ShapeError, det, vector_content
from .covering import TorsionMatrix
from .gale import gale_dual, require_W
from .lattices import Lattice
from .normal_forms import hnf, unimodular_inverse

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
    """The equivalence search hit the configured permutation cap."""


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

    S ranges over column permutation matrices in lexicographic order (the
    identity first); for each candidate the row HNFs are compared and R is
    recovered from the two transforms.  Column contents prune the search.
    The environment variable TORIFACTOR_MAX_PERM caps the number of
    permutations tried; exceeding it raises ``SearchLimitExceeded``, and a
    value that is not a positive integer raises ``ValueError``.
    """
    if v1.shape != v2.shape:
        raise ShapeError("fan matrices must have equal shape")
    if max_permutations is None:
        max_permutations = _max_permutations_from_env()
    m = v1.cols
    contents1 = [vector_content(v1.col(j)) for j in range(m)]
    contents2 = [vector_content(v2.col(j)) for j in range(m)]
    if sorted(contents1) != sorted(contents2):
        return None
    res2 = hnf(v2)
    if not any(res2.H.row(v1.rows - 1)):
        raise PreconditionError("fan matrices must have full row rank")
    u2_inv = unimodular_inverse(res2.U)
    tried = 0
    for perm in permutations(range(m)):
        if any(contents1[perm[j]] != contents2[j] for j in range(m)):
            continue
        tried += 1
        if max_permutations is not None and tried > max_permutations:
            raise SearchLimitExceeded(
                f"equivalence search exceeded {max_permutations} permutations"
            )
        permuted = v1.select_cols(perm)
        res1 = hnf(permuted)
        if res1.H != res2.H:
            continue
        r = u2_inv @ res1.U
        s = IntMatrix.permutation(perm)
        if r @ v1 @ s == v2:
            return (r, s)
    return None
