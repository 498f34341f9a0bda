"""Universal 1-coverings, class-group torsion, and the torsion matrix.

Every complete simplicial fan matrix ``V`` factors as ``V = beta @ V_hat``
through the double Gale dual ``V_hat``, whose variety carries no torsion in
its divisor class group.  The Smith normal form of ``beta`` aligns the two
matrices row by row; the diagonal entries exceeding 1 are the torsion
invariants and the aligned rows yield explicit torsion generators and a
residue matrix describing the torsion part of the divisor class map.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from .intmat import (
    IntMatrix,
    PreconditionError,
    ShapeError,
    _det_adjugate,
    _int_list_text,
    _int_tuple,
    _shared_tables,
    det,
)
from .gale import gale_dual, require_F
from .lattices import Lattice
from .normal_forms import _identity_block_transform, snf, unimodular_inverse


@dataclass(frozen=True)
class CoveringData:
    """Aligned covering decomposition of a reduced fan matrix.

    Invariants: ``beta @ V_hat == V``; ``Delta == mu @ beta @ nu`` diagonal
    with a divisor chain; ``V_aligned == mu @ V``; ``V_hat_aligned`` equals
    ``nu^{-1} @ V_hat``; ``V_aligned == Delta @ V_hat_aligned``; the torsion
    invariants are the diagonal entries of ``Delta`` exceeding 1.
    """

    V_hat: IntMatrix
    beta: IntMatrix
    Delta: IntMatrix
    mu: IntMatrix
    nu: IntMatrix
    V_aligned: IntMatrix
    V_hat_aligned: IntMatrix
    torsion_invariants: tuple[int, ...]


class TorsionMatrix:
    """Matrix of residue classes, one modulus per row.

    Entry (k, j) lives in Z/moduli[k] and is stored reduced into
    [0, moduli[k]).  Zero rows of moduli are allowed to be absent entirely
    (s == 0), in which case only the width is kept.
    """

    __slots__ = ("_moduli", "_entries", "_width")

    def __init__(
        self,
        moduli: Sequence[int],
        entries: Sequence[Sequence[int]],
        width: Optional[int] = None,
    ):
        moduli = _int_tuple(moduli, "moduli")
        rows = [_int_tuple(row, "torsion entries") for row in entries]
        if width is not None:
            (width,) = _int_tuple((width,), "width")
        if len(rows) != len(moduli):
            raise ShapeError("one modulus per row required")
        if any(t <= 1 for t in moduli):
            raise PreconditionError("moduli must exceed 1")
        for t, u in zip(moduli, moduli[1:]):
            if u % t != 0:
                raise PreconditionError("moduli must form a divisor chain")
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ShapeError("ragged rows")
            if width is not None and width != w:
                raise ShapeError("width disagrees with entries")
            width = w
        elif width is None:
            raise ShapeError("width required for an empty torsion matrix")
        if width < 1:
            raise ShapeError("width must be positive")
        reduced = tuple(
            tuple(x % t for x in row) for t, row in zip(moduli, rows)
        )
        self._moduli = moduli
        self._entries = reduced
        self._width = width

    @property
    def moduli(self) -> tuple[int, ...]:
        return self._moduli

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._entries

    @property
    def rows(self) -> int:
        return len(self._moduli)

    @property
    def cols(self) -> int:
        return self._width

    def row(self, k: int) -> tuple[int, ...]:
        return self._entries[k]

    def to_int_matrix(self) -> IntMatrix:
        if not self._entries:
            raise ValueError("empty torsion matrix has no integer matrix form")
        return IntMatrix(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorsionMatrix):
            return NotImplemented
        return (
            self._moduli == other._moduli
            and self._entries == other._entries
            and self._width == other._width
        )

    def __hash__(self) -> int:
        return hash((self._moduli, self._entries, self._width))

    def __repr__(self) -> str:
        return (
            f"TorsionMatrix(moduli={_int_list_text(self._moduli)}, "
            f"entries={_int_list_text(self._entries)}, width={self._width})"
        )


def universal_covering(v: IntMatrix) -> IntMatrix:
    """Fan matrix of the universal 1-covering: the double Gale dual of ``v``.

    Returned in canonical HNF; its row lattice is the saturation of the row
    lattice of ``v`` and its column lattice is all of Z^n.  The validation and
    the first dual share the kernel of ``v``.
    """
    with _shared_tables():
        require_F(v, reduced=True)
        return gale_dual(gale_dual(v))


def beta_factor(v: IntMatrix, v_hat: IntMatrix) -> IntMatrix:
    """The unique integer matrix with ``beta @ v_hat == v``.

    ``v_hat`` has full row rank, so its Gram matrix ``G = v_hat @ v_hat^T`` is
    nonsingular and the only candidate is ``v @ v_hat^T @ G^-1``.  One
    fraction-free pass gives ``(d, A) = (det G, adj G)``, and ``beta`` is
    ``v @ v_hat^T @ A`` divided exactly by ``d``.  A remainder, or a product
    ``beta @ v_hat`` other than ``v``, means that the row lattice of ``v`` is
    not contained in that of ``v_hat``.
    """
    if v.shape != v_hat.shape:
        raise ShapeError("fan matrices must have equal shape")
    d, adj = _det_adjugate(v_hat @ v_hat.transpose())
    if d == 0:
        raise PreconditionError("both matrices must have full row rank")
    scaled = v @ v_hat.transpose() @ adj
    if any(x % d for row in scaled for x in row):
        raise PreconditionError("row lattice of v is not contained in that of v_hat")
    beta = IntMatrix([[x // d for x in row] for row in scaled])
    if beta @ v_hat != v:
        raise PreconditionError("no integer factor maps v_hat onto v")
    if det(beta) == 0:
        raise PreconditionError("both matrices must have full row rank")
    return beta


def covering_decomposition(v: IntMatrix, v_hat: Optional[IntMatrix] = None) -> CoveringData:
    """Full aligned decomposition ``V = beta @ V_hat`` with SNF data.

    ``v_hat`` may be any fan matrix of the covering (a basis of the saturated
    row lattice); by default the row HNF from ``universal_covering``, where
    ``analyze`` takes the lower block of ``U_Q``.  For ``V = (1 -1)`` these give
    ``V_hat = (1 -1), beta = (1)`` and ``V_hat = (-1 1), beta = (-1)``.
    The rows of the aligned covering matrix that correspond to nontrivial
    invariants are sign-normalized to lead with a positive entry.
    """
    saturated = universal_covering(v)
    if v_hat is None:
        v_hat = saturated
    elif Lattice.from_matrix(v_hat) != Lattice.from_matrix(saturated):
        raise PreconditionError("v_hat does not span the saturated row lattice of v")
    return _covering_decomposition(v, v_hat)


def _covering_decomposition(v: IntMatrix, v_hat: IntMatrix) -> CoveringData:
    """Body of ``covering_decomposition`` for an already checked ``v`` and ``v_hat``."""
    beta = beta_factor(v, v_hat)
    res = snf(beta)
    delta, mu, nu = res.D, res.U_left, res.U_right
    v_aligned = mu @ v
    v_hat_aligned = unimodular_inverse(nu) @ v_hat

    n = v.rows
    diag = [delta[i, i] for i in range(n)]
    s = sum(1 for c in diag if c > 1)
    if s and any(c != 1 for c in diag[: n - s]):
        raise PreconditionError("unexpected invariant order in the diagonal form")

    # sign-normalize the generator rows to lead with a positive entry: with
    # E = diag(+-1), E @ E == I and E @ Delta @ E == Delta, so replacing mu by
    # E @ mu and nu by nu @ E keeps every stated identity intact.
    signs = [1] * n
    for i in range(n - s, n):
        if next((x for x in v_hat_aligned.row(i) if x != 0), 0) < 0:
            signs[i] = -1
    if -1 in signs:
        e = IntMatrix.diagonal(signs)
        v_aligned, v_hat_aligned, mu, nu = e @ v_aligned, e @ v_hat_aligned, e @ mu, nu @ e

    if v_aligned != delta @ v_hat_aligned:
        raise PreconditionError("alignment identity failed")
    return CoveringData(
        V_hat=v_hat,
        beta=beta,
        Delta=delta,
        mu=mu,
        nu=nu,
        V_aligned=v_aligned,
        V_hat_aligned=v_hat_aligned,
        torsion_invariants=tuple(c for c in diag if c > 1),
    )


def torsion_order(cd: CoveringData) -> int:
    return prod(cd.torsion_invariants)


def torsion_generators(cd: CoveringData) -> Optional[IntMatrix]:
    """Rows generating the torsion subgroup of the divisor class group.

    Row k is the corresponding aligned row of the fan matrix divided exactly
    by its invariant; ``None`` when the class group is torsion free.
    """
    s = len(cd.torsion_invariants)
    if s == 0:
        return None
    n = cd.V_aligned.rows
    gens = cd.V_hat_aligned.bottom_rows(s)
    for k, tau in enumerate(cd.torsion_invariants):
        aligned_row = cd.V_aligned.row(n - s + k)
        if tuple(tau * x for x in gens.row(k)) != aligned_row:
            raise PreconditionError("aligned rows are not exact multiples")
    return gens


def torsion_matrix(cd: CoveringData) -> TorsionMatrix:
    """Residue matrix representing the torsion part of the class map.

    Built from the HNF transform of the torsion-free aligned rows and from
    the pairing with the generator rows; satisfies, modulo the invariants,
    ``G @ V_aligned^T == 0`` and ``G @ generators^T == identity``.
    """
    n, m = cd.V_aligned.shape
    s = len(cd.torsion_invariants)
    if s == 0:
        return TorsionMatrix((), (), width=m)
    w_u = _identity_block_transform(cd.V_aligned.top_rows(n - s))
    if w_u is None:
        raise PreconditionError("torsion-free rows are not a saturated block")
    w_low = w_u.bottom_rows(m - (n - s))
    gens = cd.V_hat_aligned.bottom_rows(s)
    g_u = _identity_block_transform(gens @ w_low.transpose())
    if g_u is None:
        raise PreconditionError("generator pairing is not unimodular")
    gamma = g_u.top_rows(s) @ w_low
    result = TorsionMatrix(cd.torsion_invariants, gamma.tolist())
    _check_torsion_congruences(result, cd.V_aligned, gens)
    return result


def _check_torsion_congruences(gamma: TorsionMatrix, v: IntMatrix, gens: IntMatrix) -> None:
    """Modulo the invariants, ``gamma @ v^T == 0`` and ``gamma @ gens^T == I``."""
    g = gamma.to_int_matrix()
    against_fan = g @ v.transpose()
    against_gens = g @ gens.transpose()
    for k, tau in enumerate(gamma.moduli):
        if any(x % tau != 0 for x in against_fan.row(k)):
            raise PreconditionError("torsion matrix does not annihilate the fan rows")
        for j in range(gamma.rows):
            if (against_gens[k, j] - (1 if j == k else 0)) % tau != 0:
                raise PreconditionError("torsion matrix does not normalize the generators")

