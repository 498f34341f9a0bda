"""Enumeration and validation of the complete simplicial fans on a fan matrix.

Maximal cones are size-n sets of column indices (0-based) with nonsingular
column blocks.  Every cone test reads the signs of the maximal minors of ``V``,
one table per ``V`` (``gale._minors``), keyed by column bitmask: the candidate
cones are the keys of the nonzero minors, kept as masks from that table to the
search, and the signed circuits of ``V``, one table per ``V`` as
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
open facets one at a time, the lowest candidate first, and a partial fan is
four bitmasks: its cones, the facets on one of them, the facets on two, and
the rays used.  A fan found is the bitmask of its candidates; a ``Fan``
record, with its cones as column tuples, is built only for the fans a caller
returns (``_fan_records``).  A search for fan k alone is branch and bound: a
root holds the smallest fans it needs and drops a partial fan whose every
completion sorts after the largest fan held (``_sorts_after`` has the proof).
"""

from __future__ import annotations

import operator
from functools import cache, cmp_to_key
from itertools import combinations
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
            holding = containing(pos)
            while holding:
                low = holding & -holding
                conflict[low.bit_length() - 1] |= clash
                holding ^= low
    return conflict


def _mask(columns: Iterable[int]) -> int:
    return sum(1 << j for j in columns)


def _cone(mask: int) -> Cone:
    """The columns of a column mask, as a sorted tuple."""
    return tuple(_bits(mask))


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
    cone_masks = [_mask(c) for c in cone_list]
    with shared_tables():
        masks, conflict, facet_masks, by_facet = _fan_tables(v)
        index = _cached(v, "cone index", lambda: {c: k for k, c in enumerate(masks)})
    for c, mask in zip(cone_list, cone_masks):
        if mask not in index:
            problems.append(f"cone {c} is not simplicial (singular column block)")
    if problems:
        return FanValidation(False, tuple(problems))
    chosen = _mask(index[mask] for mask in cone_masks)
    rays = seen = twice = over = 0  # facets on 1+, 2+, 3+ chosen cones
    for k in _bits(chosen):
        for b in _bits(conflict[k] & chosen >> k + 1 << k + 1):
            problems.append(
                f"cones {_cone(masks[k])} and {_cone(masks[b])} do not meet in a common face"
            )
        f = facet_masks[k]
        over |= twice & f
        twice |= seen & f
        seen |= f
        rays |= masks[k]
    for i in _bits(seen & ~twice | over):
        on = [k for k in by_facet[i] if chosen >> k & 1]
        # by id, a cone's facets omit its columns from the last one down
        c, p = _cone(masks[on[0]]), n - 1 - _bits(facet_masks[on[0]]).index(i)
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
    with shared_tables():
        found = [chosen for fans in _fans_by_root(v, max_partial_fans) for chosen in fans]
        return _fan_records(v, found)


def _fans_by_root(
    v: IntMatrix, max_partial_fans: Optional[int], fan_index: Optional[int] = None
) -> Iterator[list[int]]:
    """The fans of each root of ``enumerate_fans``'s search, roots in
    ascending order, for a cap already checked by ``_search_cap``; a fan is
    the bitmask of its cones' indices among the candidates of ``_fan_tables``,
    and the fans of a root come in the order of their sorted ``Fan`` records
    (``_fan_order``).  The pushed count runs on across the roots, so a caller
    that stops after a root pays for that root and the earlier ones only.

    With ``fan_index=k`` (k >= 0), each root holds only the ``need`` smallest
    fans found so far, ``need = k + 1 -`` (the fans of the earlier roots), and
    drops a partial fan that cannot complete to a fan sorting before the
    largest one held, ``b`` (``_sorts_after``); a root that holds ``need``
    fans yields them and ends the search, so its last fan is fan k.  A root
    with fewer fans is never cut, and neither is any root for a negative or
    no ``k``, so an out-of-range index still counts every fan and push.
    """
    with shared_tables():
        require_F(v)
        masks, conflict, facet_masks, by_facet = _fan_tables(v)

    all_rays = (1 << v.cols) - 1
    need = 0 if fan_index is None else fan_index + 1
    pushed = 0
    for root in range(len(masks)):
        found: list[int] = []
        bound = 0  # b, once need fans are held
        # depth-first over partial fans (chosen cones, facets on one chosen cone,
        # facets on two, rays used), with an explicit stack: a recursive closure
        # would form a reference cycle that keeps these tables alive until a full gc
        stack = [(1 << root, facet_masks[root], 0, masks[root])]
        pushed += 1
        while stack:
            if max_partial_fans is not None and pushed > max_partial_fans:
                raise SearchLimitExceeded(f"fan search exceeded {max_partial_fans} partial fans")
            chosen, once, twice, rays = stack.pop()
            if bound and _sorts_after(chosen, bound, root, conflict):
                continue
            if not once:
                if rays == all_rays:
                    found.append(chosen)
                    if len(found) >= need > 0:
                        found.sort(key=_fan_order)
                        del found[need:]
                        bound = found[-1]
                continue
            # the root is the smallest chosen cone: neither it nor a cone below
            # it may join; every other chosen cone has a facet on two cones.
            # Pushed in descending order, the lowest candidate pops first
            for k in by_facet[(once & -once).bit_length() - 1]:
                f = facet_masks[k]
                if k <= root or f & twice or conflict[k] & chosen:
                    continue
                stack.append((chosen | 1 << k, once ^ f, twice | once & f, rays | masks[k]))
                pushed += 1
        found.sort(key=_fan_order)
        yield found
        if bound:
            return
        need -= len(found)


def _sorts_after(chosen: int, b: int, root: int, conflict: Sequence[int]) -> bool:
    """Whether the partial fan ``chosen`` of ``root``'s search may be dropped:
    true only if every fan that completes it sorts after the fan ``b``.

    Let ``y`` be the lowest candidate in ``b`` but not in ``chosen``, and
    ``x`` the lowest in ``chosen`` but not in ``b``.  If ``x`` is absent or
    ``y < x``, then ``b`` and ``chosen`` hold the same candidates below ``y``.
    A completion adds joinable candidates only: above the root, outside
    ``chosen`` and outside the conflict masks of its cones.  If neither ``y``
    nor a candidate below ``y`` missing from ``b`` is joinable, a completion
    agrees with ``b`` below ``y`` and lacks ``y``, which ``b`` holds, so it
    sorts after ``b``.  The conflict masks of ``chosen`` are read only here,
    and only while some such candidate is left.
    """
    diff = chosen ^ b
    y = diff & -diff
    if not y & b:
        return False
    # y, and the candidates below y that b lacks (so chosen lacks them too), above the root
    rescue = (y | (y - 1) & ~b) >> root + 1 << root + 1
    while rescue and chosen:
        low = chosen & -chosen
        rescue &= ~conflict[low.bit_length() - 1]
        chosen ^= low
    return not rescue


def _lex_cmp(a: int, b: int) -> int:
    """The order of two distinct sets of candidates, neither holding the
    other, as sorted tuples: the one that holds the smallest candidate where
    they differ comes first."""
    low = (a ^ b) & -(a ^ b)
    return -1 if a & low else 1


# no fan of a root holds another, since both cover the space
_fan_order = cmp_to_key(_lex_cmp)


def _fan_records(v: IntMatrix, found: Iterable[int]) -> tuple[Fan, ...]:
    """The ``Fan`` of each fan of ``_fans_by_root`` on ``v``, read off the fan
    tables of the open ``shared_tables`` block: the candidates are in
    lexicographic order, so a fan's cones come sorted.  A table per ``v`` in
    the block holds each candidate's cone tuple, built once, so the fans that
    share a candidate share its tuple."""
    masks = _fan_tables(v)[0]
    table = _cached(v, "candidate cones", dict)  # candidate bit -> its cone
    fans = []
    for chosen in found:
        cones = []
        while chosen:
            low = chosen & -chosen
            cone = table.get(low)
            if cone is None:
                cone = table[low] = _cone(masks[low.bit_length() - 1])
            cones.append(cone)
            chosen ^= low
        fans.append(Fan(v, tuple(cones)))
    return tuple(fans)


def _fan_tables(v: IntMatrix) -> tuple:
    """The tables of the fan search and ``validate_fan``, once per ``v`` in a
    ``shared_tables`` block: the column masks of the candidate cones (the
    keys of the nonzero minors of ``gale._minors``, in lexicographic order),
    their conflict masks (``_conflicts``) and facet table, with each facet's
    candidates in descending order, the order the search pushes them."""

    def build():
        masks = [c for c, d in _minors(v).items() if d]
        facet_masks, by_facet = _facet_tables(masks, v.rows, v.cols)
        return masks, _conflicts(masks, _circuits(v)), facet_masks, [ks[::-1] for ks in by_facet]

    return _cached(v, "fan tables", build)


def _facet_tables(masks: Sequence[int], n: int, m: int) -> tuple[list[int], list[list[int]]]:
    """The facet table of the fan search: for each candidate cone, given by
    its column mask, the bitmask of its facet ids, and for each facet id the
    candidates on it, in order.  The ids follow the lexicographic order of
    the facets as column subsets, the order ``combinations`` walks them in."""
    on: dict[int, list[int]] = {}  # facet mask -> the candidates on it
    for k, c in enumerate(masks):
        rest = c
        while rest:
            low = rest & -rest
            on.setdefault(c ^ low, []).append(k)
            rest ^= low
    by_facet = [on[f] for f in map(sum, combinations([1 << j for j in range(m)], n - 1)) if f in on]
    facet_masks = [0] * len(masks)
    for i, ks in enumerate(by_facet):
        for k in ks:
            facet_masks[k] |= 1 << i
    return facet_masks, by_facet


def _complements(fan: Fan) -> list[tuple[Cone, int]]:
    """The complement of each maximal cone of ``fan``, in cone order, as the
    sorted tuple of the columns outside the cone and as their column mask.
    Inside a ``shared_tables`` block each cone's entry is computed once per
    fan matrix, for all its fans; outside one, once per call."""
    m = fan.matrix.cols
    table = _cached(fan.matrix, "complements", dict)  # cone -> (complement, its mask)
    entries = []
    for cone in fan.maximal_cones:
        entry = table.get(cone)
        if entry is None:
            comp = tuple(j for j in range(m) if j not in cone)
            entry = table[cone] = (comp, _mask(comp))
        entries.append(entry)
    return entries


def picard_index_sets(fan: Fan) -> PicardIndexFamily:
    """Size-r complements of the maximal cones, in cone order
    (``_complements``)."""
    return PicardIndexFamily(tuple(comp for comp, _ in _complements(fan)))


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
