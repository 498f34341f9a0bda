"""Universal 1-coverings, class-group torsion, and the torsion matrix.

Every complete simplicial fan matrix ``V`` factors as ``V = beta @ V_hat``
through the double Gale dual ``V_hat``, whose variety carries no torsion in
its divisor class group.  The Smith normal form of ``beta`` aligns the two
matrices row by row; the diagonal entries exceeding 1 are the torsion
invariants and the aligned rows yield explicit torsion generators and a
residue matrix describing the torsion part of the divisor class map.
"""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence

from .intmat import (
    IntMatrix,
    PreconditionError,
    Record,
    ShapeError,
    _bareiss_jordan,
    _int_list_text,
    _int_tuple,
    det,
    shared_tables,
)
from .gale import gale_dual, require_F
from .lattices import Lattice
from .normal_forms import _transposed_hnf, snf


class CoveringData(Record):
    """Aligned covering decomposition of a reduced fan matrix.

    Invariants: ``beta @ V_hat == V``; ``Delta == mu @ beta @ nu`` diagonal
    with a divisor chain; ``V_aligned == mu @ V``; ``nu @ V_hat_aligned ==
    V_hat``; ``V_aligned == Delta @ V_hat_aligned``; the torsion invariants
    are the diagonal entries of ``Delta`` exceeding 1.  The first three give
    ``mu V == Delta nu^-1 V_hat``, so ``V_hat_aligned`` is ``V_aligned`` with
    row i divided exactly by ``Delta_ii``, and no inverse is taken.
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
    with shared_tables():
        require_F(v, reduced=True)
        return gale_dual(gale_dual(v))


def beta_factor(v: IntMatrix, v_hat: IntMatrix) -> IntMatrix:
    """The unique integer matrix with ``beta @ v_hat == v``.

    The Bareiss pass of the adjugate, ``_bareiss_jordan``, over ``[v_hat^T |
    v^T]`` leaves ``p I | p beta^T`` in its n pivot rows and zeros below
    them.  Fewer pivots mean that ``v_hat`` has rank below n; a nonzero row
    below them, or a remainder on dividing by ``p``, that the row lattice of
    ``v`` is not in that of ``v_hat``; a singular ``beta``, that ``v`` has
    rank below n.  The pass is invertible over Q and carries ``[v_hat^T |
    v^T]`` to ``[p I; 0 | p beta^T; 0]``, so ``v^T == v_hat^T beta^T`` needs
    no re-check.
    """
    if v.shape != v_hat.shape:
        raise ShapeError("fan matrices must have equal shape")
    n = v.rows
    a = [list(x + y) for x, y in zip(zip(*v_hat), zip(*v))]
    pivots = _bareiss_jordan(a, n)
    if pivots is None:
        raise PreconditionError("both matrices must have full row rank")
    p = pivots[1]
    if any(any(row[n:]) for row in a[n:]) or any(x % p for row in a[:n] for x in row[n:]):
        raise PreconditionError("row lattice of v is not contained in that of v_hat")
    beta = IntMatrix._of(tuple(zip(*([x // p for x in row[n:]] for row in a[:n]))))
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
    n = v.rows
    # det beta != 0, so the diagonal is a positive divisor chain, 1s first
    diag = [delta[i, i] for i in range(n)]
    s = sum(1 for c in diag if c > 1)
    v_aligned, mu_rows, nu_cols = list(mu @ v), list(mu), list(zip(*nu))
    hat = [tuple(x // c for x in row) for c, row in zip(diag, v_aligned)]
    # sign-normalize the generator rows to lead with a positive entry: negating
    # row i of mu and column i of nu keeps every stated identity intact
    for i in range(n - s, n):
        if next((x for x in hat[i] if x), 0) < 0:
            for t in (v_aligned, hat, mu_rows, nu_cols):
                t[i] = tuple(-x for x in t[i])
    nu, v_hat_aligned = IntMatrix._of(tuple(zip(*nu_cols))), IntMatrix._of(tuple(hat))
    return CoveringData(
        V_hat=v_hat,
        beta=beta,
        Delta=delta,
        mu=IntMatrix._of(tuple(mu_rows)),
        nu=nu,
        V_aligned=IntMatrix._of(tuple(v_aligned)),
        V_hat_aligned=v_hat_aligned,
        torsion_invariants=tuple(c for c in diag if c > 1),
    )


def torsion_order(cd: CoveringData) -> int:
    return prod(cd.torsion_invariants)


def torsion_generators(cd: CoveringData) -> Optional[IntMatrix]:
    """Rows generating the torsion subgroup of the divisor class group.

    Row k is the corresponding aligned row of the fan matrix divided exactly
    by its invariant; ``None`` when the class group is torsion free.  Trusts
    ``cd`` from ``covering_decomposition`` or ``analyze``; ``verify_result``
    certifies a hand-built one.
    """
    s = len(cd.torsion_invariants)
    return cd.V_hat_aligned.bottom_rows(s) if s else None


def torsion_matrix(cd: CoveringData) -> TorsionMatrix:
    """Residue matrix representing the torsion part of the class map.

    Built from the HNF transform of the torsion-free aligned rows and from
    the pairing with the generator rows; satisfies, modulo the invariants,
    ``G @ V_aligned^T == 0`` and ``G @ generators^T == identity``.  The rows
    of ``V_hat`` are a basis of a saturated lattice, so ``V_hat_aligned ==
    nu^-1 V_hat == [A; G]`` extends to a unimodular matrix: the columns of
    ``A`` generate Z^(n-s), and ``G`` maps ``ker A`` onto Z^s.  So both
    transposed HNFs are ``[I; 0]``, and only their transforms are read.
    Trusts ``cd`` from ``covering_decomposition`` or ``analyze``;
    ``verify_result`` certifies a hand-built one.
    """
    n, m = cd.V_aligned.shape
    s = len(cd.torsion_invariants)
    if s == 0:
        return TorsionMatrix((), (), width=m)
    w_low = _transposed_hnf(cd.V_aligned.top_rows(n - s)).U.bottom_rows(m - (n - s))
    g_u = _transposed_hnf(cd.V_hat_aligned.bottom_rows(s) @ w_low.transpose()).U
    return TorsionMatrix(cd.torsion_invariants, (g_u.top_rows(s) @ w_low).tolist())
