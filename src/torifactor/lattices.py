"""Sublattices of Z^m: canonical bases, saturated kernels, intersections."""

from __future__ import annotations

from typing import Iterable, Sequence

from .intmat import IntMatrix, ShapeError, _int_tuple
from .normal_forms import _hnf_in_place, hnf, hnf_pivot_columns


class Lattice:
    """A sublattice of Z^m stored by its canonical row-HNF basis.

    The basis is unique, so two lattices are equal exactly when their stored
    bases are equal.  The zero lattice has an empty basis.
    """

    __slots__ = ("_ambient", "_basis")

    def __init__(self, ambient: int, rows: Iterable[Sequence[int]] = ()):
        (ambient,) = _int_tuple((ambient,), "ambient dimension")
        rows = [list(_int_tuple(r, "lattice rows")) for r in rows]
        if ambient < 1:
            raise ShapeError("ambient dimension must be positive")
        if any(len(r) != ambient for r in rows):
            raise ShapeError("row length does not match ambient dimension")
        basis: tuple[tuple[int, ...], ...] = ()
        nonzero = [r for r in rows if any(r)]
        if nonzero:
            _hnf_in_place(nonzero)
            basis = tuple(tuple(r) for r in nonzero if any(r))
        object.__setattr__(self, "_ambient", ambient)
        object.__setattr__(self, "_basis", basis)

    @classmethod
    def from_matrix(cls, m: IntMatrix) -> "Lattice":
        return cls(m.cols, list(m))

    @classmethod
    def full(cls, ambient: int) -> "Lattice":
        (ambient,) = _int_tuple((ambient,), "ambient dimension")
        return cls(ambient, IntMatrix.identity(ambient).tolist())

    @classmethod
    def zero(cls, ambient: int) -> "Lattice":
        return cls(ambient)

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    @property
    def rank(self) -> int:
        return len(self._basis)

    @property
    def basis_rows(self) -> tuple[tuple[int, ...], ...]:
        return self._basis

    def basis_matrix(self) -> IntMatrix:
        if not self._basis:
            raise ValueError("the zero lattice has no basis matrix")
        return IntMatrix(self._basis)

    def __contains__(self, vector: Sequence[int]) -> bool:
        v = list(_int_tuple(vector, "vector entries"))
        if len(v) != self._ambient:
            raise ShapeError("vector length does not match ambient dimension")
        if not self._basis:
            return not any(v)
        pivots = hnf_pivot_columns(IntMatrix(self._basis))
        for row, p in zip(self._basis, pivots):
            if v[p] % row[p] != 0:
                return False
            q = v[p] // row[p]
            if q:
                for k in range(self._ambient):
                    v[k] -= q * row[k]
        return not any(v)

    def is_sublattice_of(self, other: "Lattice") -> bool:
        if self._ambient != other._ambient:
            raise ShapeError("ambient dimensions differ")
        return all(r in other for r in self._basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self._ambient == other._ambient and self._basis == other._basis

    def __hash__(self) -> int:
        return hash((self._ambient, self._basis))

    def __repr__(self) -> str:
        return f"Lattice(ambient={self._ambient}, basis={[list(r) for r in self._basis]})"


def kernel_saturation(m: IntMatrix) -> Lattice:
    """The full integer kernel ``{x : m @ x^T == 0}`` as a lattice in Z^cols.

    The kernel of an integer matrix is automatically saturated: the rows of
    the HNF transform of ``m^T`` that align with zero rows of the form are a
    basis of it.
    """
    res = hnf(m.transpose())
    zero_rows = [i for i in range(res.H.rows) if not any(res.H.row(i))]
    return Lattice(m.cols, [res.U.row(i) for i in zero_rows])


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two sublattices of the same Z^m.

    Stacks the bases, takes the saturated kernel of ``[A^T | -B^T]`` and maps
    the solutions back through ``A``.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("ambient dimensions differ")
    if a.rank == 0 or b.rank == 0:
        return Lattice.zero(a.ambient_dim)
    stacked = a.basis_matrix().vstack(-b.basis_matrix())
    relations = kernel_saturation(stacked.transpose())
    gens = []
    for rel in relations.basis_rows:
        coeffs = rel[: a.rank]
        gens.append(
            tuple(
                sum(c * row[k] for c, row in zip(coeffs, a.basis_rows))
                for k in range(a.ambient_dim)
            )
        )
    return Lattice(a.ambient_dim, gens)
