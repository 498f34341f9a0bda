"""Enumeration and validation of the complete simplicial fans on a fan matrix.

Maximal cones are size-n sets of column indices (0-based) with nonsingular
column blocks.  One fraction-free pass per cone gives ``s * adj(V_c)`` with
``s = sign det V_c``: its rows are the cone's facet normals, and its product
with ``V`` holds the barycentric coordinates of every column in the cone's
basis, scaled by ``|det V_c|``.  Each column outside the cone has one relation
with the cone's columns, read off those coordinates; these relations are the
signed circuits of ``V``.  Two cones meet in their common face iff no circuit
has its positive part in the first cone and its negative part in the second
(De Loera, Rambau, Santos, *Triangulations*, 2010, Section 4.1).  A collection
is a complete fan when its cones meet pairwise in common faces and every facet
lies on exactly two cones.  The enumeration starts from the cones around a
point off every facet hyperplane and closes open facets one at a time, taking
the candidates for each facet from a table built once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .intmat import IntMatrix, PreconditionError, ShapeError
from .gale import _cone_frames, _require_F

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


def _circuits(v: IntMatrix, frames: dict[Cone, tuple]) -> set[tuple[int, int]]:
    """Signed circuits of the columns of ``v`` as ``(positive, negative)``
    bitmasks, in both orientations.

    For a nonsingular ``c`` and a column ``j`` outside it, column ``j`` of the
    frame's coordinates gives the one relation on ``c + {j}``:
    ``|det V_c| v_j = sum_i coords[i][j] v_{c_i}``.  Every circuit arises so,
    because a circuit minus one element extends to a basis.
    """
    circuits = set()
    for c, (_, coords) in frames.items():
        for j in set(range(v.cols)).difference(c):
            pos = 1 << j | _mask(k for k, row in zip(c, coords) if row[j] < 0)
            neg = _mask(k for k, row in zip(c, coords) if row[j] > 0)
            circuits.update(((pos, neg), (neg, pos)))
    return circuits


def _meet_in_common_face(a: int, b: int, circuits: Iterable[tuple[int, int]]) -> bool:
    """Whether the simplicial cones with column bitmasks ``a`` and ``b`` meet
    in their shared face: no signed circuit has its positive part in ``a`` and
    its negative part in ``b``."""
    return not any(p & ~a == 0 and q & ~b == 0 for p, q in circuits)


def _mask(columns: Iterable[int]) -> int:
    return sum(1 << j for j in columns)


def _generic_point(normals: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Integer point ``(1, t, t^2, ...)`` orthogonal to none of the normals."""
    n = len(normals[0])
    t = 1
    while True:
        point = tuple(t**k for k in range(n))
        if all(sum(u * x for u, x in zip(nrm, point)) != 0 for nrm in normals):
            return point
        t += 1


def _facets(cone: Cone) -> list[Cone]:
    return [tuple(x for x in cone if x != j) for j in cone]


def _cone_list(cones: Iterable[Sequence[int]]) -> list[Cone]:
    """Each cone as a sorted tuple of integer column indices."""
    try:
        return [tuple(sorted(operator.index(x) for x in c)) for c in cones]
    except TypeError as exc:
        raise ShapeError(f"cones must be sequences of integer column indices: {exc}") from None


def validate_fan(v: IntMatrix, cones: Iterable[Sequence[int]]) -> FanValidation:
    """Check the maximal-cone collection against the fan invariants.

    Reported problems: wrong cone size, out-of-range or repeated indices,
    duplicate cones, singular column blocks, a cone pair that does not meet
    along a common face, and facets not shared by exactly two cones.
    """
    n, m = v.shape
    problems: list[str] = []
    cone_list = _cone_list(cones)
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
    frames = _cone_frames(v)
    for c in cone_list:
        if c not in frames:
            problems.append(f"cone {c} is not simplicial (singular column block)")
    if problems:
        return FanValidation(False, tuple(problems))
    circuits = _circuits(v, frames)
    distinct = sorted(cone_list)
    for a, b in combinations(distinct, 2):
        if not _meet_in_common_face(_mask(a), _mask(b), circuits):
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
    cone_list = _cone_list(cones)
    result = validate_fan(v, cone_list)
    if not result.valid:
        raise PreconditionError("invalid fan: " + "; ".join(result.problems))
    return Fan(v, tuple(sorted(cone_list)))


def enumerate_fans(v: IntMatrix) -> tuple[Fan, ...]:
    """All complete simplicial fans whose rays are exactly the columns of ``v``.

    Candidate cones are the nonsingular size-n column subsets.  Starting from
    each cone whose interior contains a fixed generic point, unpaired facets
    are resolved one at a time; a collection with every facet paired and all
    rays used is a complete fan, and each fan is reached exactly once from
    its unique cone around the generic point.
    """
    return _enumerate_fans(v, _require_F(v)[1])


def _enumerate_fans(v: IntMatrix, frames: dict[Cone, tuple]) -> tuple[Fan, ...]:
    """Body of ``enumerate_fans`` for a fan matrix ``v`` and its ``_cone_frames``."""
    m = v.cols
    candidates = list(frames)
    masks = [_mask(c) for c in candidates]
    circuits = _circuits(v, frames)
    facets = [_facets(c) for c in candidates]
    by_facet: dict[Cone, list[int]] = {}
    for k, cone_facets in enumerate(facets):
        for f in cone_facets:
            by_facet.setdefault(f, []).append(k)
    compatible: dict[tuple[int, int], bool] = {}

    def ok(a: int, b: int) -> bool:
        # symmetric, since every circuit is stored in both orientations
        key = (a, b) if a < b else (b, a)
        if key not in compatible:
            compatible[key] = _meet_in_common_face(masks[a], masks[b], circuits)
        return compatible[key]

    # Every independent set of n-1 columns extends to a candidate, so the facet
    # normals of the candidates cover every hyperplane that n-1 columns span.
    point = _generic_point(list({row for inverse, _ in frames.values() for row in inverse}))
    seeds = [
        k
        for k, (inverse, _) in enumerate(frames.values())
        if all(sum(a * x for a, x in zip(row, point)) > 0 for row in inverse)
    ]
    found: set[tuple[Cone, ...]] = set()
    # depth-first over partial fans, with an explicit stack: a recursive closure
    # would form a reference cycle that keeps these tables alive until a full gc
    stack = [([seed], {f: 1 for f in facets[seed]}) for seed in seeds]
    while stack:
        chosen, facet_count = stack.pop()
        unpaired = [f for f, cnt in facet_count.items() if cnt == 1]
        if not unpaired:
            fan_cones = tuple(sorted(candidates[k] for k in chosen))
            if set().union(*fan_cones) == set(range(m)):
                found.add(fan_cones)
            continue
        for k in by_facet[min(unpaired)]:
            if k in chosen or any(facet_count.get(f, 0) >= 2 for f in facets[k]):
                continue
            if not all(ok(k, c) for c in chosen):
                continue
            next_count = dict(facet_count)
            for f in facets[k]:
                next_count[f] = next_count.get(f, 0) + 1
            stack.append((chosen + [k], next_count))
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
