"""Enumeration and validation of the complete simplicial fans on a fan matrix.

Maximal cones are size-n sets of column indices (0-based) with nonsingular
column blocks.  A collection of such cones is accepted when the cones meet
pairwise along common faces and every facet of every cone is shared by
exactly one other cone; together these force the support to be all of R^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .intmat import IntMatrix, PreconditionError, ShapeError, det, vector_content
from .gale import require_F
from .lattices import kernel_saturation

Cone = tuple[int, ...]


@dataclass(frozen=True)
class Fan:
    """Maximal cones of a complete simplicial fan over a fan matrix."""

    matrix: IntMatrix
    maximal_cones: tuple[Cone, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.rows

    def rays_used(self) -> tuple[int, ...]:
        used = set()
        for cone in self.maximal_cones:
            used.update(cone)
        return tuple(sorted(used))


@dataclass(frozen=True)
class PicardIndexFamily:
    """Complements of the maximal cones; one size-r index set per cone."""

    sets: tuple[Cone, ...]


@dataclass(frozen=True)
class FanValidation:
    valid: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.valid


def _normalize_constraint(w: Sequence[int]) -> tuple[int, ...]:
    g = vector_content(w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _strict_system_feasible(constraints: list[tuple[int, ...]]) -> bool:
    """Feasibility of ``w . y > 0`` for all w, decided by Fourier-Motzkin.

    The system is homogeneous, so everything stays in exact integers: a pair
    with opposite signs on the pivot coordinate combines with positive
    multipliers into a constraint free of that coordinate.
    """
    if not constraints:
        return True
    dim = len(constraints[0])
    cons = set()
    for w in constraints:
        if not any(w):
            return False
        cons.add(_normalize_constraint(w))
    for coord in range(dim):
        pos = [w for w in cons if w[coord] > 0]
        neg = [w for w in cons if w[coord] < 0]
        keep = {w for w in cons if w[coord] == 0}
        for wp in pos:
            for wn in neg:
                comb = tuple(
                    -wn[coord] * wp[k] + wp[coord] * wn[k] for k in range(dim)
                )
                if not any(comb):
                    return False
                keep.add(_normalize_constraint(comb))
        cons = keep
        if not cons:
            return True
    return not cons


def _orthogonal_complement_rows(v: IntMatrix, indices: Sequence[int]) -> list[tuple[int, ...]]:
    """Integer basis of the subspace orthogonal to the selected columns."""
    n = v.rows
    if not indices:
        return IntMatrix.identity(n).tolist()
    block = IntMatrix([v.col(j) for j in indices])
    return [tuple(r) for r in kernel_saturation(block).basis_rows]


def _cones_meet_in_common_face(v: IntMatrix, a: Cone, b: Cone) -> bool:
    """Whether two simplicial cones intersect exactly in the face they share.

    Searches for a linear functional vanishing on the shared rays and
    strictly separating the remaining generators; such a functional exists
    iff the intersection is the common face spanned by the shared rays.
    """
    shared = sorted(set(a) & set(b))
    basis = _orthogonal_complement_rows(v, shared)
    if not basis:
        return False
    constraints = []
    for j in sorted(set(a) - set(shared)):
        col = v.col(j)
        constraints.append(tuple(sum(row[k] * col[k] for k in range(len(col))) for row in basis))
    for j in sorted(set(b) - set(shared)):
        col = v.col(j)
        constraints.append(
            tuple(-sum(row[k] * col[k] for k in range(len(col))) for row in basis)
        )
    return _strict_system_feasible(constraints)


def _barycentric_sign_data(v: IntMatrix, cone: Cone, point: Sequence[int]):
    """Cramer data (det, numerators) for point = V_cone . lambda."""
    block = v.select_cols(cone)
    d = det(block)
    nums = []
    for i in range(len(cone)):
        replaced = [
            list(point) if k == i else list(block.col(k)) for k in range(len(cone))
        ]
        nums.append(det(IntMatrix(replaced).transpose()))
    return d, nums


def _interior_point(v: IntMatrix, cone: Cone, point: Sequence[int]) -> bool:
    d, nums = _barycentric_sign_data(v, cone, point)
    return all(num * d > 0 for num in nums)


def _generic_point(v: IntMatrix) -> tuple[int, ...]:
    """Integer point avoiding every hyperplane spanned by n-1 columns."""
    from .gale import _facet_normal_candidates

    n = v.rows
    if n == 1:
        return (1,)
    normals = list(_facet_normal_candidates(v))
    t = 1
    while True:
        point = tuple(t**k for k in range(n))
        if all(sum(u * x for u, x in zip(nrm, point)) != 0 for nrm in normals):
            return point
        t += 1


def _facets(cone: Cone) -> list[Cone]:
    return [tuple(x for x in cone if x != j) for j in cone]


def validate_fan(v: IntMatrix, cones: Iterable[Sequence[int]]) -> FanValidation:
    """Check the maximal-cone collection against the fan invariants.

    Reported problems: wrong cone size, out-of-range or repeated indices,
    duplicate cones, singular column blocks, a cone pair that does not meet
    along a common face, and facets not shared by exactly two cones.
    """
    n, m = v.shape
    problems: list[str] = []
    cone_list = [tuple(sorted(int(x) for x in c)) for c in cones]
    if not cone_list:
        return FanValidation(False, ("no maximal cones given",))
    for c in cone_list:
        if len(set(c)) != len(c) or len(c) != n:
            problems.append(f"cone {c} is not a set of {n} distinct indices")
        elif not all(0 <= j < m for j in c):
            raise ShapeError(f"cone {c} has column indices outside 0..{m - 1}")
    if len(set(cone_list)) != len(cone_list):
        problems.append("duplicate maximal cones")
    if problems:
        return FanValidation(False, tuple(problems))
    for c in cone_list:
        if det(v.select_cols(c)) == 0:
            problems.append(f"cone {c} is not simplicial (singular column block)")
    if problems:
        return FanValidation(False, tuple(problems))
    distinct = sorted(set(cone_list))
    for a, b in combinations(distinct, 2):
        if not _cones_meet_in_common_face(v, a, b):
            problems.append(f"cones {a} and {b} do not meet in a common face")
    facet_count: dict[Cone, int] = {}
    for c in distinct:
        for f in _facets(c):
            facet_count[f] = facet_count.get(f, 0) + 1
    for f, count in sorted(facet_count.items()):
        if count != 2:
            problems.append(f"facet {f} lies on {count} cone(s) instead of 2")
    return FanValidation(not problems, tuple(problems))


def make_fan(v: IntMatrix, cones: Iterable[Sequence[int]]) -> Fan:
    """Build a validated ``Fan``; raises on any violated invariant."""
    result = validate_fan(v, cones)
    if not result.valid:
        raise PreconditionError("invalid fan: " + "; ".join(result.problems))
    normalized = tuple(sorted(tuple(sorted(int(x) for x in c)) for c in cones))
    return Fan(v, normalized)


def enumerate_fans(v: IntMatrix) -> tuple[Fan, ...]:
    """All complete simplicial fans whose rays are exactly the columns of ``v``.

    Candidate cones are the nonsingular size-n column subsets.  Starting from
    each cone whose interior contains a fixed generic point, unpaired facets
    are resolved one at a time; a collection with every facet paired and all
    rays used is a complete fan, and each fan is reached exactly once from
    its unique cone around the generic point.
    """
    require_F(v)
    return _enumerate_fans(v)


def _enumerate_fans(v: IntMatrix) -> tuple[Fan, ...]:
    """Body of ``enumerate_fans`` for a ``v`` already known to be a fan matrix."""
    n, m = v.shape
    candidates = [c for c in combinations(range(m), n) if det(v.select_cols(c)) != 0]
    compatible: dict[tuple[Cone, Cone], bool] = {}

    def ok(a: Cone, b: Cone) -> bool:
        key = (a, b) if a < b else (b, a)
        if key not in compatible:
            compatible[key] = _cones_meet_in_common_face(v, key[0], key[1])
        return compatible[key]

    point = _generic_point(v)
    seeds = [c for c in candidates if _interior_point(v, c, point)]
    found: set[tuple[Cone, ...]] = set()

    def grow(chosen: list[Cone], facet_count: dict[Cone, int]) -> None:
        unpaired = sorted(f for f, cnt in facet_count.items() if cnt == 1)
        if not unpaired:
            fan_cones = tuple(sorted(chosen))
            if set().union(*fan_cones) == set(range(m)):
                found.add(fan_cones)
            return
        target = unpaired[0]
        for cand in candidates:
            if cand in chosen or not set(target) <= set(cand):
                continue
            if any(facet_count.get(f, 0) >= 2 for f in _facets(cand)):
                continue
            if not all(ok(cand, c) for c in chosen):
                continue
            next_count = dict(facet_count)
            for f in _facets(cand):
                next_count[f] = next_count.get(f, 0) + 1
            chosen.append(cand)
            grow(chosen, next_count)
            chosen.pop()

    for seed in seeds:
        grow([seed], {f: 1 for f in _facets(seed)})
    return tuple(Fan(v, cones) for cones in sorted(found))


def picard_index_sets(fan: Fan) -> PicardIndexFamily:
    """Size-r complements of the maximal cones, in cone order."""
    m = fan.matrix.cols
    sets = tuple(
        tuple(j for j in range(m) if j not in cone) for cone in fan.maximal_cones
    )
    return PicardIndexFamily(sets)


def fans_correspond(first: Fan, second: Fan, column_map: Sequence[int]) -> bool:
    """Whether a column relabeling carries the first fan onto the second.

    ``column_map[j]`` is the column of the second matrix matching column ``j``
    of the first.
    """
    mapped = sorted(tuple(sorted(column_map[j] for j in cone)) for cone in first.maximal_cones)
    return mapped == sorted(second.maximal_cones)
