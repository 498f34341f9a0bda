"""Enumeration and validation of the complete simplicial fans on a fan matrix.

Maximal cones are size-n sets of column indices (0-based) with nonsingular
column blocks.  Every cone test reads the signs of the maximal minors of ``V``,
one table per ``V`` (``gale._minors``): the candidate cones are the n-subsets
with a nonzero minor, and the signed circuits of ``V``, one table per ``V`` as
well (``gale._circuits``), are read off the minors by Cramer's rule.  Two cones
meet in their common face iff no circuit has its positive part in the first
cone and its negative part in the second (De Loera, Rambau, Santos,
*Triangulations*, 2010, Section 4.1); one conflict bitmask per candidate cone,
built once from the circuits, holds the candidates it does not meet so.  A
collection is a complete fan when its cones meet pairwise in common faces,
every facet lies on exactly two cones and every column is a ray; the search and
``validate_fan`` read one set of tables per ``V`` (``_fan_tables``).  The
enumeration roots one search at each candidate, in ascending order, and admits
only later ones, so a fan is reached from its smallest cone only; it closes
open facets one at a time, and a partial fan is four bitmasks: its cones, the
facets on one of them, the facets on two, and the rays used.
"""

from __future__ import annotations

import operator
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

from .intmat import (
    IntMatrix,
    PreconditionError,
    Record,
    SearchLimitExceeded,
    ShapeError,
    _cached,
    _int_tuple,
    _search_cap,
    shared_tables,
)
from .gale import _circuits, _minors, require_F

Cone = tuple[int, ...]


class Fan(Record):
    """Maximal cones of a complete simplicial fan over a fan matrix."""

    matrix: IntMatrix
    maximal_cones: tuple[Cone, ...]

    def rays_used(self) -> tuple[int, ...]:
        return tuple(sorted({j for cone in self.maximal_cones for j in cone}))


class PicardIndexFamily(Record):
    """Complements of the maximal cones; one size-r index set per cone."""

    sets: tuple[Cone, ...]


class FanValidation(Record):
    valid: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.valid


def _conflicts(masks: Sequence[int], circuits: Iterable[tuple[int, int]]) -> list[int]:
    """For each candidate cone, given by its column bitmask, the bitmask of the
    candidates it does not meet in a common face.

    Bit ``b`` of ``conflict[a]`` is set iff some signed circuit has its positive
    part in cone ``a`` and its negative part in cone ``b``; every circuit is
    stored in both orientations, so the table is symmetric.
    """
    holders: dict[int, int] = {}  # column bit -> the candidates that contain it
    for k, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            holders[low] = holders.get(low, 0) | 1 << k
            mask ^= low

    @cache
    def containing(part: int) -> int:
        acc = (1 << len(masks)) - 1
        while part and acc:
            low = part & -part
            acc &= holders.get(low, 0)
            part ^= low
        return acc

    clashes: dict[int, int] = {}  # positive part -> the candidates holding a negative part
    for pos, neg in circuits:
        clashes[pos] = clashes.get(pos, 0) | containing(neg)
    conflict = [0] * len(masks)
    for pos, clash in clashes.items():
        if clash:
            for k in _bits(containing(pos)):
                conflict[k] |= clash
    return conflict


def _mask(columns: Iterable[int]) -> int:
    return sum(1 << j for j in columns)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _cone_list(cones: Iterable[Sequence[int]]) -> list[Cone]:
    """Each cone as a sorted tuple of integer column indices."""
    try:
        return [tuple(sorted(operator.index(x) for x in c)) for c in cones]
    except TypeError as exc:
        raise ShapeError(f"cones must be sequences of integer column indices: {exc}") from None


def validate_fan(v: IntMatrix, cones: Iterable[Sequence[int]]) -> FanValidation:
    """Check the maximal-cone collection against the fan invariants: valid
    iff ``enumerate_fans`` finds the fan.  Problems: wrong cone size or
    repeated indices, duplicate cones, singular column blocks, a cone pair not
    meeting in a common face, facets not on exactly two cones, and columns
    that are a ray of no cone; bad indices raise ``ShapeError``.
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
    with shared_tables():
        candidates, masks, conflict, facet_masks, by_facet = _fan_tables(v)
        index = _cached(v, "cone index", lambda: {c: k for k, c in enumerate(candidates)})
    for c in cone_list:
        if c not in index:
            problems.append(f"cone {c} is not simplicial (singular column block)")
    if problems:
        return FanValidation(False, tuple(problems))
    chosen = _mask(index[c] for c in cone_list)
    rays = seen = twice = over = 0  # facets on 1+, 2+, 3+ chosen cones
    for k in _bits(chosen):
        for b in _bits(conflict[k] & chosen >> k + 1 << k + 1):
            problems.append(f"cones {candidates[k]} and {candidates[b]} do not meet in a common face")
        f = facet_masks[k]
        over |= twice & f
        twice |= seen & f
        seen |= f
        rays |= masks[k]
    for i in _bits(seen & ~twice | over):
        on = [k for k in by_facet[i] if chosen >> k & 1]
        # by id, a cone's facets omit its columns from the last one down
        c, p = candidates[on[0]], n - 1 - _bits(facet_masks[on[0]]).index(i)
        problems.append(f"facet {c[:p] + c[p + 1:]} lies on {len(on)} cone(s) instead of 2")
    for j in _bits(~rays & (1 << m) - 1):
        problems.append(f"column {j} is a ray of no cone")
    return FanValidation(not problems, tuple(problems))


def make_fan(v: IntMatrix, cones: Iterable[Sequence[int]]) -> Fan:
    """Build a validated ``Fan``; raises on any violated invariant."""
    cone_list = _cone_list(cones)
    result = validate_fan(v, cone_list)
    if not result.valid:
        raise PreconditionError("invalid fan: " + "; ".join(result.problems))
    return Fan(v, tuple(sorted(cone_list)))


def enumerate_fans(v: IntMatrix, max_partial_fans: Optional[int] = None) -> tuple[Fan, ...]:
    """All complete simplicial fans whose rays are exactly the columns of ``v``.

    The search (module docstring) is exhaustive and reaches each fan once, from
    its smallest cone, so the sorted fans of a root follow those of every
    earlier root.  ``max_partial_fans`` (at least 1; ``None``: no cap) caps the
    partial fans pushed, each root counted when its search starts; exceeding it
    raises ``SearchLimitExceeded``.
    """
    max_partial_fans = _search_cap(max_partial_fans, "max_partial_fans")
    return tuple(fan for fans in _fans_by_root(v, max_partial_fans) for fan in fans)


def _fans_by_root(v: IntMatrix, max_partial_fans: Optional[int]) -> Iterator[list[Fan]]:
    """The sorted fans of each root of ``enumerate_fans``'s search, roots in
    ascending order, for a cap already checked by ``_search_cap``.  The pushed
    count runs on across the roots, so a caller that stops after a root pays
    for that root and the earlier ones only."""
    with shared_tables():
        require_F(v)
        candidates, masks, conflict, facet_masks, by_facet = _fan_tables(v)

    all_rays = (1 << v.cols) - 1
    pushed = 0
    for root in range(len(candidates)):
        found: list[int] = []
        # depth-first over partial fans (chosen cones, facets on one chosen cone,
        # facets on two, rays used), with an explicit stack: a recursive closure
        # would form a reference cycle that keeps these tables alive until a full gc
        stack = [(1 << root, facet_masks[root], 0, masks[root])]
        pushed += 1
        while stack:
            if max_partial_fans is not None and pushed > max_partial_fans:
                raise SearchLimitExceeded(f"fan search exceeded {max_partial_fans} partial fans")
            chosen, once, twice, rays = stack.pop()
            if not once:
                if rays == all_rays:
                    found.append(chosen)
                continue
            # the root is the smallest chosen cone: neither it nor a cone below
            # it may join; every other chosen cone has a facet on two cones
            for k in by_facet[(once & -once).bit_length() - 1]:
                f = facet_masks[k]
                if k <= root or f & twice or conflict[k] & chosen:
                    continue
                stack.append((chosen | 1 << k, once ^ f, twice | once & f, rays | masks[k]))
                pushed += 1
        fans = sorted(tuple(candidates[k] for k in _bits(chosen)) for chosen in found)
        yield [Fan(v, cones) for cones in fans]


def _fan_tables(v: IntMatrix) -> tuple:
    """The tables of the fan search and ``validate_fan``, once per ``v`` in a
    ``shared_tables`` block: the candidate cones in lexicographic order, their
    column masks, conflict masks (``_conflicts``) and facet table."""

    def build():
        candidates = [c for c, d in _minors(v).items() if d]
        masks = [_mask(c) for c in candidates]
        return candidates, masks, _conflicts(masks, _circuits(v)), *_facet_tables(candidates, v.cols)

    return _cached(v, "fan tables", build)


def _facet_tables(candidates: Sequence[Cone], m: int) -> tuple[list[int], list[list[int]]]:
    """The facet table of the fan search: for each candidate cone the bitmask
    of its facet ids, and for each facet id the candidates on it, in order.
    The ids follow the descending order of the bit-reversed facet masks, column
    j at bit m-1-j, which is the lexicographic order of the facet tuples: the
    smallest column where two facets differ is the highest bit where they do."""
    facets = []
    for c in candidates:
        bits = [1 << m - 1 - j for j in c]
        cone = sum(bits)
        facets.append([cone ^ b for b in bits])
    facet_id = {f: i for i, f in enumerate(sorted({f for fs in facets for f in fs}, reverse=True))}
    facet_masks = []
    by_facet: list[list[int]] = [[] for _ in facet_id]
    for k, cone_facets in enumerate(facets):
        ids = [facet_id[f] for f in cone_facets]
        facet_masks.append(sum(1 << i for i in ids))
        for i in ids:
            by_facet[i].append(k)
    return facet_masks, by_facet


def picard_index_sets(fan: Fan) -> PicardIndexFamily:
    """Size-r complements of the maximal cones, in cone order.  Inside a
    ``shared_tables`` block each cone's complement is computed once per
    fan matrix, for all its fans; outside one, once per call."""
    m = fan.matrix.cols
    complements = _cached(fan.matrix, "complements", dict)
    sets = []
    for cone in fan.maximal_cones:
        comp = complements.get(cone)
        if comp is None:
            comp = complements[cone] = tuple(j for j in range(m) if j not in cone)
        sets.append(comp)
    return PicardIndexFamily(tuple(sets))


def fans_correspond(first: Fan, second: Fan, column_map: Sequence[int]) -> bool:
    """Whether a column relabeling carries the first fan onto the second.

    ``column_map[j]`` is the column of the second matrix matching column ``j``
    of the first; ``ShapeError`` unless both matrices have m columns and the
    map is a permutation of ``0..m-1``.
    """
    m = first.matrix.cols
    column_map = _int_tuple(column_map, "column map")
    if second.matrix.cols != m or sorted(column_map) != list(range(m)):
        raise ShapeError("column map must be a permutation of the columns of both fans")
    mapped = sorted(tuple(sorted(column_map[j] for j in cone)) for cone in first.maximal_cones)
    return mapped == sorted(second.maximal_cones)
