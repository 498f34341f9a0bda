import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, strategies as st

from torifactor import (
    IntMatrix,
    PreconditionError,
    SearchLimitExceeded,
    ShapeError,
    classify_F,
    det,
    enumerate_fans,
    fans_correspond,
    make_fan,
    picard_index_sets,
    rank,
    validate_fan,
)

from _exampledata import EX1_FAN_CONES, EX1_V, EX2_V
from _randgen import (
    SMALL_FAN_SHAPES,
    kernel_cones_meet_in_common_face,
    oracle_enumerate_fans,
    pick_fan_shape,
    random_matrix,
    random_reduced_f_matrix,
    random_unimodular,
    tuple_facet_tables,
    tuple_table_search,
)
from torifactor.fans import _conflicts, _facet_tables
from torifactor.gale import _circuits, _minors
from torifactor.intmat import shared_tables


def _cone_contains(v, cone, point):
    """Exact membership of a rational point in a simplicial cone."""
    block = [[Fraction(v[i, j]) for j in cone] for i in range(v.rows)]
    vec = [Fraction(x) for x in point]
    n = len(cone)
    aug = [row + [vec[i]] for i, row in enumerate(block)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    coords = [aug[i][n] for i in range(n)]
    return all(c >= 0 for c in coords), all(c > 0 for c in coords)


def _tiles_space(v, cones, rng, samples=120):
    """Brute-force completeness oracle: generic rational points must lie in
    exactly one maximal cone."""
    n = v.rows
    for _ in range(samples):
        point = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(n))
        strict_hits = 0
        weak_hits = 0
        for cone in cones:
            weak, strict = _cone_contains(v, cone, point)
            strict_hits += strict
            weak_hits += weak
        if strict_hits > 1:
            return False
        if weak_hits == 0:
            return False
    return True


def test_first_example_has_one_fan():
    fans = enumerate_fans(EX1_V)
    assert len(fans) == 1
    assert fans[0].maximal_cones == EX1_FAN_CONES


def test_second_example_has_three_fans():
    fans = enumerate_fans(EX2_V)
    assert len(fans) == 3
    for fan in fans:
        assert validate_fan(EX2_V, fan.maximal_cones).valid
        assert fan.rays_used() == tuple(range(6))


def test_line_has_one_fan():
    v = IntMatrix([[1, -1]])
    fans = enumerate_fans(v)
    assert len(fans) == 1
    assert fans[0].maximal_cones == ((0,), (1,))


def test_enumerated_fans_tile_space():
    rng = random.Random(51)
    for fan in enumerate_fans(EX1_V) + enumerate_fans(EX2_V):
        assert _tiles_space(fan.matrix, fan.maximal_cones, rng)


def test_validate_first_example_cones():
    assert validate_fan(EX1_V, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).valid


def test_validate_rejects_incomplete():
    v = IntMatrix([[1, -1]])
    result = validate_fan(v, [(0,)])
    assert not result.valid
    assert any("facet" in p for p in result.problems)


def test_validate_rejects_duplicates():
    result = validate_fan(EX1_V, [(0, 1, 2), (0, 1, 2)])
    assert not result.valid
    assert any("duplicate" in p for p in result.problems)


def test_validate_rejects_out_of_range():
    with pytest.raises(ShapeError):
        validate_fan(EX1_V, [(0, 1, 9), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_validate_rejects_overlapping_cones():
    # overlapping interiors: both cones contain the first
    v = IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]])
    result = validate_fan(v, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)])
    assert not result.valid


def test_validate_reports_overlap_found_by_circuits():
    # eight rays winding twice around the origin: every ray lies on exactly
    # two cones, so only the pair test finds the overlaps
    v = IntMatrix([[1, 0, -1, 0, 1, -1, -1, 1], [0, 1, 0, -1, 1, 1, -1, -1]])
    cones = [(k, (k + 1) % 8) for k in range(8)]
    result = validate_fan(v, cones)
    assert not result.valid
    assert "cones (0, 1) and (4, 5) do not meet in a common face" in result.problems
    assert all("do not meet in a common face" in p for p in result.problems)
    for a, b in combinations(sorted(tuple(sorted(c)) for c in cones), 2):
        overlap = f"cones {a} and {b} do not meet in a common face" in result.problems
        assert overlap != kernel_cones_meet_in_common_face(v, a, b)


@pytest.mark.parametrize(
    "cones", [[(0.9, 1.5), (1, 2), (0, 2)], [(0, 1), (1, "2"), (0, 2)], [0, (1, 2)]]
)
def test_non_integer_cone_indices_are_rejected(cones):
    v = IntMatrix([[1, 0, -1], [0, 1, -1]])
    with pytest.raises(ShapeError):
        validate_fan(v, cones)
    with pytest.raises(ShapeError):
        make_fan(v, cones)


def test_make_fan_reads_cones_once():
    v = IntMatrix([[1, 0, -1], [0, 1, -1]])
    fan = make_fan(v, (c for c in [(1, 0), (2, 1), (0, 2)]))
    assert fan.maximal_cones == ((0, 1), (0, 2), (1, 2))


def test_make_fan_raises_on_invalid():
    with pytest.raises(PreconditionError):
        make_fan(IntMatrix([[1, -1]]), [(0,)])


# a complete fan on columns 0, 1, 2 that leaves column 3 unused; the only fan
# whose rays are all four columns is ((0, 2), (0, 3), (1, 2), (1, 3))
UNUSED_COLUMN_V = IntMatrix([[1, 0, -1, 1], [0, 1, -1, 1]])
UNUSED_COLUMN_CONES = [(0, 1), (1, 2), (0, 2)]


def test_validate_fan_reports_a_column_that_is_a_ray_of_no_cone():
    # the truth value of a FanValidation is its validity, both ways
    result = validate_fan(UNUSED_COLUMN_V, UNUSED_COLUMN_CONES)
    assert not result
    assert result.problems == ("column 3 is a ray of no cone",)
    (fan,) = enumerate_fans(UNUSED_COLUMN_V)
    assert fan.maximal_cones == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert validate_fan(UNUSED_COLUMN_V, fan.maximal_cones)


def test_make_fan_rejects_a_fan_that_leaves_a_column_unused():
    with pytest.raises(PreconditionError, match="column 3 is a ray of no cone"):
        make_fan(UNUSED_COLUMN_V, UNUSED_COLUMN_CONES)


# the first fan of the second worked example
EX2_FAN0 = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 4, 5)]
EX2_FAN0 += [(0, 2, 3, 4), (0, 3, 4, 5), (1, 2, 3, 4), (1, 3, 4, 5)]


@pytest.mark.parametrize(
    "cones, problems",
    [
        (
            EX2_FAN0[:3] + EX2_FAN0[4:],
            [f"facet {f} lies on 1 cone(s) instead of 2" for f in ((0, 1, 4), (0, 1, 5), (0, 4, 5), (1, 4, 5))],
        ),
        (
            EX2_FAN0 + [(0, 1, 2, 5)],
            [
                "cones (0, 1, 2, 3) and (0, 1, 2, 5) do not meet in a common face",
                "cones (0, 1, 2, 5) and (0, 1, 3, 5) do not meet in a common face",
                "facet (0, 1, 2) lies on 3 cone(s) instead of 2",
                "facet (0, 1, 5) lies on 3 cone(s) instead of 2",
                "facet (0, 2, 5) lies on 1 cone(s) instead of 2",
                "facet (1, 2, 5) lies on 1 cone(s) instead of 2",
            ],
        ),
    ],
    ids=["dropped", "added"],
)
def test_validate_fan_lists_pair_and_facet_problems_in_order(cones, problems):
    # pairs in sorted order, then facets in lexicographic order with their counts
    assert enumerate_fans(EX2_V)[0].maximal_cones == tuple(EX2_FAN0)
    assert validate_fan(EX2_V, cones).problems == tuple(problems)


@pytest.mark.parametrize(
    "cones, problem",
    [
        ([], "no maximal cones given"),
        ([(0, 1), (1, 2, 3)], "cone (0, 1) is not a set of 3 distinct indices"),
        ([(0, 1, 1), (1, 2, 3)], "cone (0, 1, 1) is not a set of 3 distinct indices"),
        ([(0, 1, 2, 3), (1, 2, 3)], "cone (0, 1, 2, 3) is not a set of 3 distinct indices"),
    ],
)
def test_validate_fan_rejects_a_collection_that_is_not_n_subsets(cones, problem):
    result = validate_fan(EX1_V, cones)
    assert (result.valid, result.problems) == (False, (problem,))


def _oracle_is_fan(v, cones, meets):
    """Test-side fan check: distinct nonsingular cones (sympy determinants),
    each pair meeting in a common face (``meets``), every facet on exactly two
    cones, and every column a ray."""
    n, m = v.shape
    if len(set(cones)) != len(cones):
        return False
    if any(sympy.Matrix(v.select_cols(c).tolist()).det() == 0 for c in cones):
        return False
    facets = {}
    for c in cones:
        for k in range(n):
            facets[c[:k] + c[k + 1 :]] = facets.get(c[:k] + c[k + 1 :], 0) + 1
    return (
        all(meets(a, b) for a, b in combinations(sorted(cones), 2))
        and set(facets.values()) == {2}
        and {j for c in cones for j in c} == set(range(m))
    )


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_validate_fan_accepts_exactly_what_the_test_side_oracle_accepts(shape, seed):
    # each fan, and each fan with one cone dropped, added or replaced
    rng = random.Random(seed)
    v = random_reduced_f_matrix(rng, *shape)
    subsets = list(combinations(range(v.cols), v.rows))
    pairs = {}

    def meets(a, b):
        if (a, b) not in pairs:
            pairs[a, b] = kernel_cones_meet_in_common_face(v, a, b)
        return pairs[a, b]

    fans = [list(f.maximal_cones) for f in enumerate_fans(v)]
    found = {tuple(cones) for cones in fans}
    collections = []
    for cones in rng.sample(fans, min(3, len(fans))):
        k = rng.randrange(len(cones))
        collections += [
            cones,
            cones[:k] + cones[k + 1 :],
            cones + [rng.choice(subsets)],
            cones[:k] + [rng.choice(subsets)] + cones[k + 1 :],
        ]
    # complete fans that leave one column out: the fans of the other columns
    kept = [j for j in range(v.cols) if j != rng.randrange(v.cols)]
    if len(kept) > v.rows and classify_F(v.select_cols(kept)).is_F:
        for fan in enumerate_fans(v.select_cols(kept))[:2]:
            collections.append([tuple(kept[x] for x in cone) for cone in fan.maximal_cones])
    for collection in collections:
        valid = validate_fan(v, collection).valid
        assert valid == _oracle_is_fan(v, collection, meets)
        assert valid == (tuple(sorted(collection)) in found and len(set(collection)) == len(collection))


def test_enumerate_rejects_non_f_matrix():
    with pytest.raises(PreconditionError):
        enumerate_fans(IntMatrix([[1, 0, 1], [0, 1, 1]]))


def test_picard_index_sets_are_complements():
    fan = enumerate_fans(EX1_V)[0]
    fam = picard_index_sets(fan)
    assert fam.sets == ((3,), (2,), (1,), (0,))
    fan2 = enumerate_fans(EX2_V)[0]
    fam2 = picard_index_sets(fan2)
    assert len(fam2.sets) == len(fan2.maximal_cones)
    assert all(len(s) == 2 for s in fam2.sets)
    for cone, comp in zip(fan2.maximal_cones, fam2.sets):
        assert sorted(cone + comp) == list(range(6))


def test_picard_index_sets_take_each_complement_once_inside_a_table():
    from torifactor.intmat import _TABLES, shared_tables

    fans = enumerate_fans(EX2_V)
    direct = [
        tuple(tuple(j for j in range(EX2_V.cols) if j not in c) for c in f.maximal_cones)
        for f in fans
    ]
    with shared_tables():
        families = [picard_index_sets(f) for f in fans + fans]
    assert [f.sets for f in families] == direct * 2
    # one complement per distinct cone, shared by every fan that has the cone
    seen = {}
    for fam, fan in zip(families, fans * 2):
        for cone, comp in zip(fan.maximal_cones, fam.sets):
            assert seen.setdefault(cone, comp) is comp
    assert len(seen) < sum(len(f.maximal_cones) for f in fans)
    assert _TABLES.get() is None
    assert [picard_index_sets(f).sets for f in fans] == direct


def test_line_picard_index_sets():
    fan = enumerate_fans(IntMatrix([[1, -1]]))[0]
    assert picard_index_sets(fan).sets == ((1,), (0,))


def test_fans_invariant_under_unimodular_action():
    rng = random.Random(52)
    mats = [EX1_V]
    for _ in range(6):
        n, r = pick_fan_shape(rng, max_dim=3, max_total=6)
        mats.append(random_reduced_f_matrix(rng, n, r))
    for v in mats:
        base = [f.maximal_cones for f in enumerate_fans(v)]
        u = random_unimodular(rng, v.rows)
        moved = [f.maximal_cones for f in enumerate_fans(u @ v)]
        assert base == moved


def test_fans_of_covering_match():
    # fans of a fan matrix and of its double Gale dual coincide as index sets
    from torifactor import gale_dual

    for v in (EX1_V, EX2_V):
        vhat = gale_dual(gale_dual(v))
        ours = [f.maximal_cones for f in enumerate_fans(v)]
        covering = [f.maximal_cones for f in enumerate_fans(vhat)]
        assert ours == covering


def test_enumerated_fans_are_valid_and_deterministic():
    rng = random.Random(53)
    for _ in range(10):
        n, r = pick_fan_shape(rng, max_dim=3, max_total=6)
        v = random_reduced_f_matrix(rng, n, r)
        fans = enumerate_fans(v)
        assert len(fans) >= 1
        assert fans == enumerate_fans(v)
        for fan in fans:
            assert validate_fan(v, fan.maximal_cones).valid
            assert fan.rays_used() == tuple(range(v.cols))
        cones_lists = [f.maximal_cones for f in fans]
        assert cones_lists == sorted(cones_lists)


def test_all_candidate_subsets_appear_in_some_fan_of_projective_space():
    # the n-simplex configuration has exactly one fan using all candidates
    v = IntMatrix([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    fans = enumerate_fans(v)
    assert len(fans) == 1
    assert fans[0].maximal_cones == tuple(sorted(combinations(range(4), 3)))


def test_fans_correspond_via_permutation():
    fan = enumerate_fans(EX1_V)[0]
    assert fans_correspond(fan, fan, [0, 1, 2, 3])
    # the cone family of the simplex fan is symmetric under any relabeling
    assert fans_correspond(fan, fan, [1, 0, 2, 3])
    fan2 = enumerate_fans(EX2_V)[0]
    assert fans_correspond(fan2, fan2, [0, 1, 2, 3, 4, 5])
    assert not fans_correspond(fan2, enumerate_fans(EX2_V)[1], [0, 1, 2, 3, 4, 5])


@pytest.mark.parametrize("column_map", [[0], [0, 0, 0, 0], [0, 1, 2, 3.0], [1, 2, 3, 4], [0, 1, 2, 3, 4]])
def test_fans_correspond_requires_a_column_permutation(column_map):
    fan = enumerate_fans(EX1_V)[0]
    with pytest.raises(ShapeError):
        fans_correspond(fan, fan, column_map)


def test_fans_correspond_requires_equal_column_counts():
    with pytest.raises(ShapeError):
        fans_correspond(enumerate_fans(EX1_V)[0], enumerate_fans(EX2_V)[0], [0, 1, 2, 3])


def test_simplicial_determinants_nonzero():
    for fan in enumerate_fans(EX2_V):
        for cone in fan.maximal_cones:
            assert det(EX2_V.select_cols(cone)) != 0


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_coordinate_pair_test_matches_kernel_oracle(shape, seed):
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    masks = [c for c, d in _minors(v).items() if d]
    candidates = [tuple(j for j in range(v.cols) if c >> j & 1) for c in masks]
    conflict = _conflicts(masks, _circuits(v))
    assert len(conflict) == len(candidates)
    for a, row in enumerate(conflict):
        assert row >> len(candidates) == 0 and not row >> a & 1
    for a, b in combinations(range(len(candidates)), 2):
        clash = conflict[a] >> b & 1
        assert clash == conflict[b] >> a & 1
        assert bool(clash) != kernel_cones_meet_in_common_face(v, candidates[a], candidates[b])


def _assert_circuits_match_brute_force(v):
    """The supports of ``_circuits`` are the minimal dependent column sets, each
    once in both orientations, signed like the one relation on the set."""
    m = v.cols

    def independent(s):
        return not s or rank(v.select_cols(s)) == len(s)

    minimal = {
        s
        for size in range(1, v.rows + 2)
        for s in combinations(range(m), size)
        if not independent(s) and all(independent(s[:k] + s[k + 1 :]) for k in range(size))
    }
    circuits = _circuits(v)
    supports = {tuple(j for j in range(m) if (p | q) >> j & 1) for p, q in circuits}
    assert supports == minimal
    assert len(circuits) == 2 * len(minimal)
    for p, q in circuits:
        assert p & q == 0 and (q, p) in circuits
        s = tuple(j for j in range(m) if (p | q) >> j & 1)
        (relation,) = sympy.Matrix(v.select_cols(s).tolist()).nullspace()
        assert len({(x > 0) == bool(p >> j & 1) for j, x in zip(s, relation)}) == 1


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_circuits_are_the_minimal_dependent_sets(shape, seed):
    _assert_circuits_match_brute_force(random_reduced_f_matrix(random.Random(seed), *shape))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32))
def test_circuits_of_integer_matrices_are_the_minimal_dependent_sets(n, r, seed):
    # zero, repeated and proportional columns are allowed here
    v = random_matrix(random.Random(seed), n, n + r, bound=2)
    assume(rank(v) == n)
    _assert_circuits_match_brute_force(v)


def test_circuits_of_the_examples_are_the_minimal_dependent_sets():
    for v in (EX1_V, EX2_V, IntMatrix([[1, -1]])):
        _assert_circuits_match_brute_force(v)


def test_classify_F_builds_the_circuit_table_that_the_fan_search_reads(count_calls):
    from torifactor import gale

    tables = count_calls(gale, "_circuit_table", everywhere=False)
    for v in (EX1_V, EX2_V):
        tables.clear()
        with shared_tables():
            classify_F(v)
            assert tables == [(v,)]
            enumerate_fans(v)
            assert tables == [(v,)]


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_enumerate_fans_matches_oracle_enumeration(shape, seed):
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    assert tuple(f.maximal_cones for f in enumerate_fans(v)) == oracle_enumerate_fans(v)


# the tall shapes of the benchmark's enumeration ladder, beyond n + r <= 6;
# (7, 3) is left out, as the oracle takes seconds per instance there
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", [(5, 3), (6, 3)], ids=["5x3", "6x3"])
def test_enumerate_fans_matches_oracle_enumeration_on_tall_shapes(shape, seed):
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    assert tuple(f.maximal_cones for f in enumerate_fans(v)) == oracle_enumerate_fans(v)


def test_enumerate_fans_matches_oracle_enumeration_on_examples():
    for v in (EX1_V, EX2_V):
        assert tuple(f.maximal_cones for f in enumerate_fans(v)) == oracle_enumerate_fans(v)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_fans_invariant_under_row_action_and_column_permutation(shape, seed):
    rng = random.Random(seed)
    v = random_reduced_f_matrix(rng, *shape)
    order = list(range(v.cols))
    rng.shuffle(order)
    moved = (random_unimodular(rng, v.rows) @ v).select_cols(order)
    mapped_back = sorted(
        tuple(sorted(tuple(sorted(order[k] for k in cone)) for cone in fan.maximal_cones))
        for fan in enumerate_fans(moved)
    )
    assert mapped_back == [f.maximal_cones for f in enumerate_fans(v)]


# partial fans pushed by the search on each matrix, starting cones included
PUSHED_PARTIAL_FANS = [
    pytest.param(IntMatrix([[1, -1]]), 3, id="line"),
    pytest.param(EX1_V, 7, id="ex1"),
    pytest.param(EX2_V, 41, id="ex2"),
]


@pytest.mark.parametrize("v, pushed", PUSHED_PARTIAL_FANS)
def test_partial_fan_cap_counts_every_pushed_partial_fan(v, pushed):
    # the search reads only which minors vanish and their signs; a row action
    # multiplies every minor by one unit and circuits are kept in both
    # orientations, so every image pushes the same count
    rng = random.Random(58)
    for w in (v, random_unimodular(rng, v.rows) @ v, random_unimodular(rng, v.rows) @ v):
        assert enumerate_fans(w, max_partial_fans=pushed) == enumerate_fans(w)
        with pytest.raises(SearchLimitExceeded, match=f"exceeded {pushed - 1} partial fans"):
            enumerate_fans(w, max_partial_fans=pushed - 1)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_facet_tables_from_column_masks_match_the_tuple_tables(shape, seed):
    # the same facet ids, by_facet lists and so search order: the same pushed count
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    masks = [c for c, d in _minors(v).items() if d]
    candidates = [tuple(j for j in range(v.cols) if c >> j & 1) for c in masks]
    assert _facet_tables(masks, v.rows, v.cols) == tuple_facet_tables(candidates)
    fans, pushed = tuple_table_search(v)
    assert enumerate_fans(v, max_partial_fans=pushed) == enumerate_fans(v)
    assert tuple(f.maximal_cones for f in enumerate_fans(v)) == fans
    if pushed > 1:
        with pytest.raises(SearchLimitExceeded, match=f"exceeded {pushed - 1} partial fans"):
            enumerate_fans(v, max_partial_fans=pushed - 1)


def test_tuple_table_search_pushes_the_counts_of_the_examples():
    for param in PUSHED_PARTIAL_FANS:
        v, pushed = param.values
        assert tuple_table_search(v) == (oracle_enumerate_fans(v), pushed)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_partial_fan_cap_below_the_fan_count_is_reached(shape, seed):
    # a search pushes every fan it finds, so a cap below the fan count is reached;
    # a cap is at least 1, and cap 1 is reached too, since every candidate cone is
    # pushed as a root and a complete fan has at least n + 1 >= 2 of them
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    fans = enumerate_fans(v)
    with pytest.raises(SearchLimitExceeded):
        enumerate_fans(v, max_partial_fans=max(len(fans) - 1, 1))
