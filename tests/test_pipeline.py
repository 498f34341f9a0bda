import contextlib
import json
import random
from collections import Counter
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from torifactor import (
    IntMatrix,
    PreconditionError,
    SearchLimitExceeded,
    ShapeError,
    TorsionMatrix,
    analyze,
    covering_decomposition,
    det,
    enumerate_fans,
    fan_matrix_equivalence,
    verify_result,
)
from torifactor.fans import _fans_by_root

from _exampledata import EX1_V, EX2_V, SHARED_PICARD, SHARED_V
from _randgen import (
    SMALL_FAN_SHAPES,
    pick_fan_shape,
    random_reduced_f_matrix,
    random_unimodular,
    rational_membership,
    tuple_table_search,
)


def test_pipeline_first_example():
    res = analyze(EX1_V)
    assert res.covering.torsion_invariants == (5,)
    assert res.gamma.moduli == (5,)
    assert len(res.fans) == 1
    fa = res.fans[0]
    assert fa.picard.B == IntMatrix([[1]])
    assert fa.picard.delta_sigma == 1
    assert fa.cartier.bottom_rows(3) == EX1_V


def test_covering_sign_convention_on_the_projective_line():
    # analyze takes V_hat from the weight transform, covering_decomposition
    # from the row HNF of the saturated row lattice
    v = IntMatrix([[1, -1]])
    res = analyze(v)
    assert (res.covering.V_hat, res.covering.beta) == (IntMatrix([[-1, 1]]), IntMatrix([[-1]]))
    cd = covering_decomposition(v)
    assert (cd.V_hat, cd.beta) == (IntMatrix([[1, -1]]), IntMatrix([[1]]))


def _assert_coverings_agree(v):
    ours = analyze(v, verify=False).covering
    canonical = covering_decomposition(v)
    rows, canonical_rows = ours.V_hat.tolist(), canonical.V_hat.tolist()
    assert all(rational_membership(r, canonical_rows) for r in rows)
    assert all(rational_membership(r, rows) for r in canonical_rows)
    assert abs(det(ours.beta)) == abs(det(canonical.beta))
    assert ours.torsion_invariants == canonical.torsion_invariants
    assert covering_decomposition(v, ours.V_hat).beta == ours.beta


def test_coverings_of_analyze_and_covering_decomposition_agree_on_examples():
    for v in (IntMatrix([[1, -1]]), EX1_V, EX2_V):
        _assert_coverings_agree(v)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_coverings_of_analyze_and_covering_decomposition_agree(shape, seed):
    _assert_coverings_agree(random_reduced_f_matrix(random.Random(seed), *shape))


def test_pipeline_second_example():
    res = analyze(EX2_V)
    assert res.covering.torsion_invariants == (3, 15)
    assert len(res.fans) == 3
    for fa in res.fans:
        assert abs(det(fa.cartier)) == fa.picard.index * 45


def test_pipeline_fan_selection():
    res = analyze(EX2_V, fan_index=1)
    assert len(res.fans) == 1
    with pytest.raises(PreconditionError, match="fan index 5 out of range"):
        analyze(EX2_V, fan_index=5)


@pytest.mark.parametrize("fan_index", ["0", 1.5, 1.0])
def test_pipeline_rejects_a_non_integer_fan_index(fan_index):
    with pytest.raises(ShapeError, match="fan index"):
        analyze(EX2_V, fan_index=fan_index)


def test_pipeline_rejects_non_reduced():
    with pytest.raises(PreconditionError):
        analyze(IntMatrix([[2, 0, -2], [0, 1, -1]]))


def test_pipeline_verification_random():
    rng = random.Random(91)
    for _ in range(8):
        n, r = pick_fan_shape(rng, max_dim=3, max_total=6)
        v = random_reduced_f_matrix(rng, n, r)
        res = analyze(v)
        verify_result(res)
        assert res.class_group.rank == r
        assert res.class_group.torsion == res.covering.torsion_invariants


# the fans of the worked examples, in enumeration order
EX1_FANS = [((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
EX2_FANS = [
    (
        (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 4, 5),
        (0, 2, 3, 4), (0, 3, 4, 5), (1, 2, 3, 4), (1, 3, 4, 5),
    ),
    (
        (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 4, 5), (0, 2, 3, 4), (0, 2, 3, 5),
        (0, 3, 4, 5), (1, 2, 3, 4), (1, 2, 3, 5), (1, 3, 4, 5),
    ),
    (
        (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 4, 5), (0, 2, 3, 4),
        (0, 2, 3, 5), (0, 3, 4, 5), (1, 2, 4, 5), (2, 3, 4, 5),
    ),
]


def test_analyze_lists_the_worked_examples_fans_off_the_gale_dual(count_calls):
    # r < n on both: analyze reads the minor table off the kernel that gale_dual
    # takes, a standalone enumerate_fans off V, and both list the same fans
    from torifactor import gale

    laplace = count_calls(gale, "_laplace_minors", everywhere=False)
    for v, want in ((EX1_V, EX1_FANS), (EX2_V, EX2_FANS)):
        laplace.clear()
        assert [fa.fan.maximal_cones for fa in analyze(v).fans] == want
        assert [len(args[0]) for args in laplace] == [v.cols - v.rows]
        laplace.clear()
        assert [fan.maximal_cones for fan in enumerate_fans(v)] == want
        assert [len(args[0]) for args in laplace] == [v.rows]


def test_analyze_classifies_the_fan_matrix_once(count_calls):
    # the validation builds the table of maximal minors and the fan enumeration
    # reuses it
    from torifactor import gale

    tables = count_calls(gale, "_minor_table", everywhere=False)
    reports = count_calls(gale, "classify_F")
    weights = count_calls(gale, "classify_W")
    for v in (EX1_V, EX2_V):
        tables.clear()
        reports.clear()
        analyze(v)
        assert tables == [(v,)]
        assert reports == [(v,)]
    assert weights == []


def test_analyze_builds_the_circuits_once(count_calls):
    # the positive-span test of the validation builds the circuits, and the fan
    # search reads the same table
    from torifactor import gale

    tables = count_calls(gale, "_circuit_table", everywhere=False)
    for v in (EX1_V, EX2_V):
        tables.clear()
        analyze(v)
        assert tables == [(v,)]


def test_analyze_calls_each_public_step(count_calls):
    # the calls analyze makes itself; the fan search validates V once more.
    # All fans come from enumerate_fans, one fan from the search root by root,
    # which takes the index to bound its search.  The per-fan stage folds each
    # fan's complement masks, in cone order, in the private core of divisors,
    # and calls neither picard_index_sets nor the public picard_basis (which
    # reading fa.index_sets would call, so the masks are taken off the cones)
    from torifactor import divisors, fans, pipeline

    steps = ("require_F", "enumerate_fans", "_fans_by_root", "_picard_fold", "verify_result")
    calls = {name: count_calls(pipeline, name, everywhere=False) for name in steps}
    public = [count_calls(divisors, "picard_basis"), count_calls(fans, "picard_index_sets")]
    for fan_index, verify in ((None, True), (None, False), (1, True)):
        for seen in calls.values():
            seen.clear()
        res = analyze(EX2_V, fan_index=fan_index, verify=verify)
        assert calls["require_F"] == [(EX2_V,)]
        assert calls["enumerate_fans"] == ([(EX2_V,)] if fan_index is None else [])
        assert calls["_fans_by_root"] == ([] if fan_index is None else [(EX2_V, None, fan_index)])
        full = (1 << EX2_V.cols) - 1
        assert [masks for _, masks in calls["_picard_fold"]] == [
            [full ^ sum(1 << j for j in cone) for cone in fa.fan.maximal_cones]
            for fa in res.fans
        ]
        assert calls["verify_result"] == ([(res,)] if verify else [])
        assert public == [[], []]


def test_one_fan_analysis_builds_one_fan_record(count_calls):
    # the search yields its fans as candidate masks: analyze(fan_index=k) builds
    # the Fan of fan k alone, enumerate_fans one Fan per fan
    from torifactor import fans as fans_module

    records = count_calls(fans_module, "Fan", everywhere=False)
    tall = random_reduced_f_matrix(random.Random("tall/7x3/0"), 7, 3)
    for v in (EX1_V, EX2_V, SHARED_V, tall):
        records.clear()
        every_fan = enumerate_fans(v)
        assert len(records) == len(every_fan)
        for k in {0, len(every_fan) // 2, len(every_fan) - 1}:
            records.clear()
            assert analyze(v, fan_index=k, verify=False).fans[0].fan == every_fan[k]
            assert records == [(v, every_fan[k].maximal_cones)]


def test_no_shared_table_outlives_its_call(count_calls):
    from torifactor import gale, intmat

    tables = count_calls(gale, "_minor_table", everywhere=False)
    analyze(EX2_V)
    analyze(EX2_V)
    assert tables == [(EX2_V,)] * 2
    assert intmat._TABLES.get() is None
    with pytest.raises(PreconditionError, match="out of range"):
        analyze(EX2_V, fan_index=99)
    assert intmat._TABLES.get() is None
    assert tables == [(EX2_V,)] * 3


def test_analyze_inverts_each_weight_block_once(count_calls):
    from torifactor import divisors, intmat, normal_forms

    # every inversion, of plain rows or of an IntMatrix, runs _det_adjugate_rows
    calls = count_calls(intmat, "_det_adjugate_rows")
    tables = count_calls(divisors, "_laplace_minors", everywhere=False)
    folds = count_calls(normal_forms, "_modular_hnf")

    def block(q, idx):
        return tuple(q.select_cols(idx))

    for v in (EX2_V, random_reduced_f_matrix(random.Random(0), 3, 2)):
        calls.clear()
        tables.clear()
        folds.clear()
        res = analyze(v, verify=True)
        distinct = {idx for fa in res.fans for idx in fa.index_sets.sets}
        assert len(distinct) < sum(len(fa.index_sets.sets) for fa in res.fans)
        blocks = {block(res.Q, idx) for idx in distinct}
        seen = [tuple(map(tuple, m)) for (m,) in calls]
        # no weight block is inverted: det Q_I and adj Q_I are read off the
        # cofactor tables of Q, built once per call, one table per row of Q
        assert not blocks & set(seen)
        assert len(tables) == res.Q.rows
        # one dual-row HNF of adj Q_I per distinct I, modulo |d_I|
        adjugates = Counter((abs(d), adj) for d, adj in map(intmat._det_adjugate_rows, blocks))
        dual_hnfs = Counter((d, rows) for rows, _, d in folds if (d, rows) in adjugates)
        assert dual_hnfs == adjugates
        # and nothing per fan: the inversions are as many as in a one-fan call
        calls.clear()
        tables.clear()
        analyze(v, fan_index=0, verify=True)
        assert len(calls) == len(seen)
        assert len(tables) == res.Q.rows


def test_verify_result_outside_a_table_builds_the_cofactor_tables_once(count_calls):
    from torifactor import divisors

    for v in (EX1_V, EX2_V):
        res = analyze(v)
        tables = count_calls(divisors, "_laplace_minors", everywhere=False)
        verify_result(res)
        assert len(tables) == res.Q.rows


@pytest.mark.parametrize("name", ["EX1_V", "EX2_V", "tall/7x3/0"])
def test_analyze_takes_one_table_of_the_r_by_r_minors_of_q(count_calls, name):
    # r < n on all three: the kernel side of the minor table of V and
    # verify_result read one table of the r x r minors of Q in analyze's
    # block, keyed by the matrix that gale_dual returns there; a standalone
    # verify_result takes its own
    from torifactor import intmat

    v = {"EX1_V": EX1_V, "EX2_V": EX2_V, "tall/7x3/0": TALL_7X3_0}[name]
    laplace = count_calls(intmat, "_laplace_minors")
    res = analyze(v, fan_index=0 if name == "tall/7x3/0" else None)
    q_rows = tuple(res.Q)
    assert [tuple(rows) for rows, _ in laplace].count(q_rows) == 1
    laplace.clear()
    verify_result(res)
    assert [tuple(rows) for rows, _ in laplace].count(q_rows) == 1


def test_gale_dual_is_one_matrix_per_fan_matrix_in_a_block():
    from torifactor import gale_dual, shared_tables

    with shared_tables():
        assert gale_dual(EX2_V) is gale_dual(EX2_V)
    assert gale_dual(EX2_V) is not gale_dual(EX2_V)
    assert gale_dual(EX2_V) == gale_dual(EX2_V)


def _invariants(res):
    """Torsion, fan count and the multiset of Picard (index, delta_sigma)."""
    return (
        res.covering.torsion_invariants,
        res.gamma.moduli,
        res.class_group.torsion,
        len(res.fans),
        sorted((fa.picard.index, fa.picard.delta_sigma) for fa in res.fans),
    )


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_analyze_invariants_under_row_action_and_column_permutation(shape, seed):
    rng = random.Random(seed)
    v = random_reduced_f_matrix(rng, *shape)
    order = list(range(v.cols))
    rng.shuffle(order)
    moved = (random_unimodular(rng, v.rows) @ v).select_cols(order)
    assert _invariants(analyze(moved)) == _invariants(analyze(v))


def test_verify_result_rejects_a_basis_outside_a_block_lattice():
    from torifactor import PicardData, cartier_basis

    res = analyze(EX2_V)
    fa = res.fans[0]
    full = IntMatrix.identity(res.Q.rows)
    forged = fa._replace(
        picard=PicardData(B=full, index=1, delta_sigma=1),
        cartier=cartier_basis(full, res.U_Q, res.covering.beta),
    )
    with pytest.raises(PreconditionError, match="escapes a weight block lattice"):
        verify_result(res._replace(fans=(forged,) + res.fans[1:]))


def test_verification_rejects_a_forged_basis_on_the_last_fan(monkeypatch):
    # rows are pooled per index set, so the last fan's rows must still meet
    # a block lattice that an earlier fan shares: forge the Picard lattice of
    # the last fan without one such shared set, which leaves that block alone
    from torifactor import Lattice, PicardIndexFamily, picard_basis, pipeline

    res = analyze(EX2_V, verify=False)
    q, families = res.Q, [fa.index_sets.sets for fa in res.fans]
    *earlier, last = families

    def block_lattices_left(pd):
        pic = Lattice.from_matrix(pd.B)
        blocks = {i: Lattice.from_matrix(q.select_cols(i).transpose()) for i in last}
        return [i for i in last if not pic.is_sublattice_of(blocks[i])]

    idx = next(i for i in last if any(i in f for f in earlier))
    forged = picard_basis(q, PicardIndexFamily(tuple(i for i in last if i != idx)))
    assert block_lattices_left(forged) == [idx]
    calls = []
    fold = pipeline._picard_fold

    # analyze folds each fan's complement masks in its private core
    def forge_last(q, masks):
        calls.append(masks)
        pd = fold(q, masks)
        return forged if len(calls) % len(families) == 0 else pd

    monkeypatch.setattr(pipeline, "_picard_fold", forge_last)
    with pytest.raises(PreconditionError, match="escapes a weight block lattice"):
        analyze(EX2_V)
    res = analyze(EX2_V, verify=False)
    assert res.fans[-1].picard == forged
    with pytest.raises(PreconditionError, match="escapes a weight block lattice"):
        verify_result(res)


def test_verification_rechecks_every_table_entry(monkeypatch):
    # a sign error in the cofactor tables of Q, the table of row 0 negated,
    # leaves every det Q_I as it is and negates column 0 of every adj Q_I:
    # plant it in analyze's shared table, under the key _weight_block reads,
    # before the first Picard fold, which then folds the wrong dual rows
    from torifactor import pipeline
    from torifactor.intmat import _cached, _laplace_minors

    fold = pipeline._picard_fold

    def plant_then_solve(q, masks):
        rows = tuple(q)
        tables = [_laplace_minors(rows[:b] + rows[b + 1 :], q.cols) for b in range(q.rows)]
        tables[0] = {cols: -minor for cols, minor in tables[0].items()}
        _cached(q, "cofactor tables", lambda: tables)
        return fold(q, masks)

    true = analyze(EX2_V)
    monkeypatch.setattr(pipeline, "_picard_fold", plant_then_solve)
    forged = analyze(EX2_V, verify=False)
    assert [fa.picard for fa in forged.fans] != [fa.picard for fa in true.fans]
    with pytest.raises(PreconditionError, match="adjugate identity failed"):
        analyze(EX2_V)


def test_analyze_passes_the_partial_fan_cap_to_the_search():
    # the search pushes 41 partial fans on the second example (tests/test_fans.py);
    # fan 0 stops it after the first root, at 8
    res = analyze(EX2_V, fan_index=0, max_partial_fans=8)
    assert res.fans[0].fan == analyze(EX2_V, fan_index=0).fans[0].fan
    with pytest.raises(SearchLimitExceeded, match="exceeded 7 partial fans"):
        analyze(EX2_V, fan_index=0, max_partial_fans=7)
    assert len(analyze(EX2_V, max_partial_fans=41).fans) == 3
    with pytest.raises(SearchLimitExceeded, match="exceeded 40 partial fans"):
        analyze(EX2_V, max_partial_fans=40)


@pytest.mark.parametrize("fan_index", [-1, 3])
def test_an_index_outside_the_fans_exhausts_the_search(fan_index):
    # a negative index, or one past the last fan, runs every root, so the
    # message counts every fan and the cap counts the whole search
    message = rf"fan index {fan_index} out of range \(found 3 fans\)"
    with pytest.raises(PreconditionError, match=message):
        analyze(EX2_V, fan_index=fan_index, max_partial_fans=41)
    with pytest.raises(SearchLimitExceeded, match="exceeded 40 partial fans"):
        analyze(EX2_V, fan_index=fan_index, max_partial_fans=40)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_one_fan_analysis_takes_the_fan_of_the_whole_enumeration(shape, seed):
    # the one-fan search stops after the root of fan k, so the whole search's
    # pushed count (tuple_table_search) is a cap it never reaches
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    fans = enumerate_fans(v)
    _, pushed = tuple_table_search(v)
    for k in range(len(fans)):
        assert analyze(v, fan_index=k, max_partial_fans=pushed).fans[0].fan == fans[k]


# a tall-enum ladder instance with 75 fans, 32 of them at the first root
TALL_7X3_0 = random_reduced_f_matrix(random.Random("tall/7x3/0"), 7, 3)


def test_one_fan_analysis_of_a_32_fan_root_takes_fan_k_of_the_enumeration():
    # fans 0..31 come from a cut search of the first root, fan 32 from the
    # whole first root and a cut search of the second
    v = TALL_7X3_0
    fans = enumerate_fans(v)
    assert len(fans) == 75
    assert len(next(_fans_by_root(v, None))) == 32
    for k in range(33):
        assert analyze(v, fan_index=k, verify=False).fans[0].fan == fans[k]
    with pytest.raises(PreconditionError, match=r"fan index 75 out of range \(found 75 fans\)"):
        analyze(v, fan_index=75, verify=False)


def test_one_fan_search_drops_partial_fans_that_sort_after_fan_k():
    # the whole first root pushes 601 partial fans; for fan 0 the search drops
    # those that cannot complete to a fan sorting before the smallest fan found
    # so far, and pushes 34.  The cut reads which candidates exist and conflict,
    # which a row action keeps, so the row-action images push 34 as well
    rng = random.Random(35)
    images = [random_unimodular(rng, 7) @ TALL_7X3_0 for _ in range(2)]
    assert TALL_7X3_0 not in images
    cones = enumerate_fans(TALL_7X3_0)[0].maximal_cones
    for w in [TALL_7X3_0, *images]:
        assert analyze(w, fan_index=0, max_partial_fans=60).fans[0].fan.maximal_cones == cones
        analyze(w, fan_index=0, max_partial_fans=34, verify=False)
        with pytest.raises(SearchLimitExceeded, match="exceeded 33 partial fans"):
            analyze(w, fan_index=0, max_partial_fans=33, verify=False)


# the benchmark's tall-enum ladder, whose jobs ask for fan 0 only: the fan
# count recorded for each instance is checked here against the whole search
TALL_LADDER = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text()
)["ladders"]["tall-enum"]


@pytest.mark.parametrize("entry", TALL_LADDER, ids=[e["label"] for e in TALL_LADDER])
def test_tall_ladder_fan_counts_match_the_benchmark_record(entry):
    v = random_reduced_f_matrix(random.Random(entry["label"]), *entry["shape"])
    fans = enumerate_fans(v)
    assert len(fans) == entry["fans"]
    assert analyze(v, fan_index=0).fans[0].fan == fans[0]


SEARCHES = {
    "enumerate_fans": lambda cap: enumerate_fans(EX2_V, max_partial_fans=cap),
    "analyze": lambda cap: analyze(EX2_V, max_partial_fans=cap),
    "fan_matrix_equivalence": lambda cap: fan_matrix_equivalence(
        EX2_V, EX2_V, max_permutations=cap
    ),
}


@pytest.mark.parametrize(
    "cap, error",
    [("abc", ShapeError), (2.5, ShapeError), (-3, PreconditionError), (0, PreconditionError)],
)
@pytest.mark.parametrize("search", SEARCHES)
def test_bad_search_cap_is_rejected_before_any_search(count_calls, search, cap, error):
    from torifactor import gale

    minors = count_calls(gale, "_minors")
    with pytest.raises(error, match="max_partial_fans|max_permutations"):
        SEARCHES[search](cap)
    assert minors == []


def test_verification_rejects_a_cartier_basis_with_a_doubled_top_row():
    for v in (EX1_V, EX2_V):
        res = analyze(v)
        fa = res.fans[-1]
        rows = fa.cartier.tolist()
        rows[0] = [2 * x for x in rows[0]]
        forged = fa._replace(cartier=IntMatrix(rows))
        with pytest.raises(PreconditionError, match="Cartier determinant factorization failed"):
            verify_result(res._replace(fans=res.fans[:-1] + (forged,)))


def test_verification_rejects_a_cartier_top_row_of_another_fan():
    # EX2_V's fans 1 and 2 share a B row, so its 6 rows are 5 distinct; a top
    # row of an earlier fan's C_X is in verify_result's row memo when fan k is
    # checked, and the memo's product is that fan's B row, not fan k's
    res = analyze(EX2_V)
    r = res.Q.rows
    tops = [tuple(fa.cartier)[:r] for fa in res.fans]
    assert len({c for top in tops for c in top}) == 5
    forgeries = 0
    for k, fa in enumerate(res.fans):
        for c in {c for top in tops[:k] for c in top} - set(tops[k]):
            rows = fa.cartier.tolist()
            rows[0] = list(c)
            forged = fa._replace(cartier=IntMatrix(rows))
            with pytest.raises(PreconditionError, match="Cartier determinant factorization failed"):
                verify_result(res._replace(fans=res.fans[:k] + (forged,) + res.fans[k + 1 :]))
            forgeries += 1
    assert forgeries == 5


def test_fans_with_one_picard_lattice_share_their_records(count_calls):
    from torifactor import PicardIndexFamily, divisors, picard_basis

    assert SHARED_V == random_reduced_f_matrix(random.Random(1), 3, 3)
    finishes = count_calls(divisors, "_scaled_inverse_columns")
    res = analyze(SHARED_V)
    # one finished record per distinct lattice, not one per fan
    assert len(res.fans) == 4 and len(finishes) == 2
    for k, fa in enumerate(res.fans):
        pd = fa.picard
        assert (pd.B.tolist(), pd.index, pd.delta_sigma) == SHARED_PICARD[k // 2]
        assert pd == picard_basis(res.Q, PicardIndexFamily(fa.index_sets.sets))
    for fa, fb in combinations(res.fans, 2):
        same = fa.picard == fb.picard
        assert (fa.picard is fb.picard) == same
        assert (fa.cartier is fb.cartier) == same


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
@example((3, 3), 1)  # SHARED_V, whose four fans hold two Picard records
def test_analyze_matches_standalone_divisor_calls(shape, seed):
    # each standalone call runs outside any shared_tables block
    from torifactor import cartier_basis, intmat, picard_basis, picard_index_sets

    res = analyze(random_reduced_f_matrix(random.Random(seed), *shape))
    assert intmat._TABLES.get() is None
    cartiers = {}
    for fa in res.fans:
        family = picard_index_sets(fa.fan)
        assert fa.index_sets == family
        assert fa.picard == picard_basis(res.Q, family)
        assert fa.cartier == cartier_basis(fa.picard.B, res.U_Q, res.covering.beta)
        # fans that share a PicardData share one Cartier object
        assert cartiers.setdefault(id(fa.picard), fa.cartier) is fa.cartier


def test_verification_rejects_a_forged_row_in_one_of_two_bases_that_share_an_index_set():
    # fans 0 and 3 of SHARED_V have different B and share the index set
    # (0, 2, 4); row 0 of fan 3's B, with 3 added to its entry 1, leaves that
    # block lattice alone.  The rows of a set are pooled over every B whose
    # fans have it, and the forged row must still be tested
    from torifactor import Lattice, cartier_basis

    res = analyze(SHARED_V)
    fa, fb = res.fans[0], res.fans[3]
    idx = (0, 2, 4)
    assert fa.picard.B != fb.picard.B
    assert idx in fa.index_sets.sets and idx in fb.index_sets.sets
    rows = fb.picard.B.tolist()
    rows[0][1] += 3
    b = IntMatrix(rows)
    pic = Lattice.from_matrix(b)
    blocks = {i: Lattice.from_matrix(res.Q.select_cols(i).transpose()) for i in fb.index_sets.sets}
    assert [i for i, block in blocks.items() if not pic.is_sublattice_of(block)] == [idx]
    forged = fb._replace(
        picard=fb.picard._replace(B=b), cartier=cartier_basis(b, res.U_Q, res.covering.beta)
    )
    with pytest.raises(PreconditionError, match="escapes a weight block lattice"):
        verify_result(res._replace(fans=res.fans[:3] + (forged,)))


def _forge_fan_one(res, kind):
    """Fan 1 of ``SHARED_V``'s result, which shares its records with fan 0,
    forged: a doubled Cartier top row, a ``B`` that is not ``C_top Q^T``, a
    ``B`` that is not upper triangular (with the Cartier basis built from it),
    or twice the index."""
    from torifactor import cartier_basis

    fa = res.fans[1]
    if kind == "doubled index":
        return fa._replace(picard=fa.picard._replace(index=2 * fa.picard.index))
    if kind == "doubled top row":
        rows = fa.cartier.tolist()
        rows[0] = [2 * x for x in rows[0]]
        return fa._replace(cartier=IntMatrix(rows))
    rows = fa.picard.B.tolist()
    if kind == "not C_top Q^T":
        rows[0][1] += 1  # still triangular, same diagonal and index
        return fa._replace(picard=fa.picard._replace(B=IntMatrix(rows)))
    rows[-1][0] = 1  # same diagonal and index, below the diagonal
    b = IntMatrix(rows)
    return fa._replace(
        picard=fa.picard._replace(B=b), cartier=cartier_basis(b, res.U_Q, res.covering.beta)
    )


@pytest.mark.parametrize(
    "kind", ["doubled top row", "not C_top Q^T", "not triangular", "doubled index"]
)
def test_verification_rejects_a_forged_fan_that_shared_its_records(kind):
    res = analyze(SHARED_V)
    fa, fb = res.fans[:2]
    assert fa.picard is fb.picard and fa.cartier is fb.cartier
    forged = _forge_fan_one(res, kind)
    with pytest.raises(PreconditionError, match="Cartier determinant factorization failed"):
        verify_result(res._replace(fans=(fa, forged) + res.fans[2:]))


def test_verification_checks_the_cartier_bottom_block_before_the_determinant():
    # a doubled bottom row breaks both identities; the bottom block is read first
    res = analyze(EX2_V)
    fa = res.fans[0]
    rows = fa.cartier.tolist()
    rows[-1] = [2 * x for x in rows[-1]]
    forged = fa._replace(cartier=IntMatrix(rows))
    assert abs(det(forged.cartier)) != fa.picard.index * abs(det(res.covering.beta))
    with pytest.raises(PreconditionError, match="Cartier basis does not end in the fan matrix"):
        verify_result(res._replace(fans=(forged,) + res.fans[1:]))
    with pytest.raises(ShapeError, match="square"):
        verify_result(res._replace(fans=(fa._replace(cartier=fa.cartier.top_rows(5)),)))


def test_verification_rejects_the_complements_of_a_cone_of_the_wrong_size():
    from torifactor import Fan

    res = analyze(EX2_V)
    fa = res.fans[0]
    cones = fa.fan.maximal_cones
    fan = Fan(fa.fan.matrix, cones[:-1] + ((0,) + cones[-1],))
    assert 0 not in cones[-1]
    forged = fa._replace(fan=fan)
    with pytest.raises(PreconditionError, match="does not hold r = 2 columns"):
        verify_result(res._replace(fans=(forged,) + res.fans[1:]))


@pytest.mark.parametrize("where", ["first", "last", "reversed"])
def test_verification_rejects_a_fan_with_a_repeated_cone(where):
    # the repeat has the complement of the cone it repeats, so the pooled
    # index sets alone would merge them
    from torifactor import Fan

    res = analyze(EX2_V)
    fa = res.fans[0]
    cones = fa.fan.maximal_cones
    repeated = {
        "first": cones[:1] + cones,
        "last": cones + cones[-1:],
        "reversed": cones + (cones[3][::-1],),
    }[where]
    forged = fa._replace(fan=Fan(fa.fan.matrix, repeated))
    with pytest.raises(PreconditionError, match="a fan lists a maximal cone twice"):
        verify_result(res._replace(fans=(forged,) + res.fans[1:]))


def _escaping_basis(res, fa):
    # B = I: Pic is a proper sublattice of Z^r whenever its index exceeds 1
    from torifactor import PicardData, cartier_basis

    assert fa.picard.index > 1
    full = IntMatrix.identity(res.Q.rows)
    return fa._replace(
        picard=PicardData(B=full, index=1, delta_sigma=1),
        cartier=cartier_basis(full, res.U_Q, res.covering.beta),
    )


def _singular_block(res, fa):
    # the last cone replaced by the complement of the first singular block of Q
    from torifactor import Fan

    q = res.Q
    idx = next(c for c in combinations(range(q.cols), q.rows) if det(q.select_cols(c)) == 0)
    cone = tuple(j for j in range(q.cols) if j not in idx)
    return fa._replace(fan=Fan(fa.fan.matrix, fa.fan.maximal_cones[:-1] + (cone,)))


def _complement_of_the_wrong_size(res, fa):
    # a column added to the last cone: its complement holds r - 1 columns
    from torifactor import Fan

    cones = fa.fan.maximal_cones
    j = next(j for j in range(res.Q.cols) if j not in cones[-1])
    return fa._replace(fan=Fan(fa.fan.matrix, cones[:-1] + (tuple(sorted(cones[-1] + (j,))),)))


SHARING_CASES = [
    ("EX2_V", _escaping_basis, "escapes a weight block lattice"),
    ("EX2_V", _complement_of_the_wrong_size, "does not hold r = 2 columns"),
    ("SHARED_V", _escaping_basis, "escapes a weight block lattice"),
    ("SHARED_V", _singular_block, r"singular weight block at columns \(0, 1, 3\)"),
    ("SHARED_V", _complement_of_the_wrong_size, "does not hold r = 3 columns"),
    ("tall/7x3/0", _escaping_basis, "escapes a weight block lattice"),
    ("tall/7x3/0", _singular_block, r"singular weight block at columns \(0, 6, 9\)"),
    ("tall/7x3/0", _complement_of_the_wrong_size, "does not hold r = 3 columns"),
]


@pytest.mark.parametrize(
    "name, forge, message",
    SHARING_CASES,
    ids=[f"{name}-{forge.__name__.strip('_')}" for name, forge, _ in SHARING_CASES],
)
def test_sharing_analyze_tables_does_not_change_a_verdict(name, forge, message):
    # verify_result in the caller's block, after analyze, reads the tables
    # analyze built there (the r x r minors of Q, the Picard table); outside
    # any block it takes its own.  EX2_V has no singular weight block to forge
    from torifactor import shared_tables

    v = {"EX2_V": EX2_V, "SHARED_V": SHARED_V, "tall/7x3/0": TALL_7X3_0}[name]
    errors = []
    for shared in (True, False):
        with shared_tables() if shared else contextlib.nullcontext():
            res = analyze(v, fan_index=0)
            verify_result(res)
            fa = res.fans[0]
            with pytest.raises(PreconditionError, match=message) as err:
                verify_result(res._replace(fans=(forge(res, fa),)))
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def _over_a_wider_matrix(cones):
    # (0, 1, 2, 3, 4) in place of the first cone, over V with a zero column
    # appended: the complement (5, 6) holds r columns, one of them outside V
    wide = IntMatrix([row + [0] for row in EX2_V.tolist()])
    return wide, ((0, 1, 2, 3, 4),) + cones[1:]


def _over_a_narrower_matrix(cones):
    # the cones through column 6, without it, over V without column 6: each
    # complement is one of the fan's and holds r columns inside V
    narrow = EX2_V.select_cols(range(EX2_V.cols - 1))
    return narrow, tuple(c[:-1] for c in cones if c[-1] == EX2_V.cols - 1)


def _over_a_scaled_matrix(cones):
    return EX2_V * 2, cones


@pytest.mark.parametrize(
    "forge",
    [_over_a_wider_matrix, _over_a_narrower_matrix, _over_a_scaled_matrix],
    ids=["wider", "narrower", "scaled"],
)
def test_verification_rejects_a_fan_over_another_matrix(forge):
    from torifactor import Fan

    res = analyze(EX2_V)
    fa = res.fans[0]
    forged = fa._replace(fan=Fan(*forge(fa.fan.maximal_cones)))
    with pytest.raises(PreconditionError, match="a fan's matrix is not V"):
        verify_result(res._replace(fans=(forged,) + res.fans[1:]))


def test_verification_rejects_a_fan_with_a_singular_weight_block():
    # the last cone of SHARED_V's fan 0 replaced by (2, 4, 5), whose
    # complement (0, 1, 3) indexes a singular block of Q; EX2_V has no
    # singular block to use
    from torifactor import Fan

    res = analyze(SHARED_V)
    fa = res.fans[0]
    assert det(res.Q.select_cols((0, 1, 3))) == 0
    fan = Fan(fa.fan.matrix, fa.fan.maximal_cones[:-1] + ((2, 4, 5),))
    forged = fa._replace(fan=fan)
    with pytest.raises(PreconditionError, match=r"singular weight block at columns \(0, 1, 3\)"):
        verify_result(res._replace(fans=(forged,) + res.fans[1:]))


# forged dual rows for the block of EX2_V at columns (1, 4), d = 8, whose true
# rows are ((2, 3), (0, 4)): L = {x : x Q_I == 0 mod 8} has index 8
FORGED_DUAL_ROWS = {
    "empty": (),
    "outside": ((2, 4), (0, 4)),  # (2, 4) is not in L; pivots as before
    "pivot": ((10, 3), (0, 4)),  # (10, 3) is in L, but the pivots multiply to 40
    "zero": ((2, 3), (0, 4), (0, 0)),
    "repeated pivot column": ((2, 3), (4, 6)),  # in L, pivots multiply to 8, index 16
    "negative pivots": ((-2, -3), (0, -4)),
    "long row": ((2, 3), (0, 0, 0, 4)),  # read as (0, 0) by the dot products
}


@pytest.mark.parametrize("forgery", FORGED_DUAL_ROWS)
def test_verification_rechecks_every_dual_row_table_entry(monkeypatch, forgery):
    # plant forged dual rows in analyze's shared table, in the entry that
    # the Picard fold filled and verify_result reads, keyed by column mask,
    # after the Picard bases are built from the true ones
    from torifactor import divisors, pipeline

    idx, forged = (1, 4), FORGED_DUAL_ROWS[forgery]
    verify = pipeline.verify_result

    def plant_then_verify(res):
        blocks = divisors._picard_table(res.Q)[0]
        key = sum(1 << j for j in idx)  # the table's key: the column mask of idx
        assert blocks[key] == (8, ((2, 3), (0, 4)))
        cols = [res.Q.col(j) for j in idx]
        outside = [any(sum(map(mul, h, c)) % 8 for c in cols) for h in forged]
        assert any(outside) == (forgery == "outside")
        blocks[key] = (8, forged)
        verify(res)

    monkeypatch.setattr(pipeline, "verify_result", plant_then_verify)
    with pytest.raises(PreconditionError, match="weight block adjugate identity failed"):
        analyze(EX2_V)


# the second worked example, the four fans of SHARED_V and a 43-fan (4, 4) instance
ONE_PASS_INSTANCES = {
    "EX2_V": EX2_V,
    "SHARED_V": SHARED_V,
    "4x4/0": random_reduced_f_matrix(random.Random(0), 4, 4),
}


@pytest.mark.parametrize("name", ONE_PASS_INSTANCES)
def test_analyze_takes_each_candidate_and_each_complement_once(count_calls, name):
    # the per-fan stage runs on candidate cones: each candidate's cone tuple is
    # built once, and each distinct cone's complement entry once per call
    # (fans._complements builds the entry's mask with fans._mask), for the
    # fold and for verify_result; the dual rows of each distinct complement
    # are taken once, by its mask, for every fan that holds it and for
    # verify_result
    from torifactor import divisors, fans as fans_module

    v = ONE_PASS_INSTANCES[name]
    duals = count_calls(divisors, "_dual_rows")
    tuples = count_calls(fans_module, "_cone", everywhere=False)
    entries = count_calls(fans_module, "_mask", everywhere=False)
    for _ in range(2):
        for seen in (duals, tuples, entries):
            seen.clear()
        res = analyze(v)
        assert len(res.fans) == {"EX2_V": 3, "SHARED_V": 4, "4x4/0": 43}[name]
        cones = {cone for fa in res.fans for cone in fa.fan.maximal_cones}
        complements = [tuple(j for j in range(v.cols) if j not in cone) for cone in cones]
        assert len(set(complements)) == len(cones)
        assert len(cones) < sum(len(fa.fan.maximal_cones) for fa in res.fans)
        assert sorted(comp for (comp,) in entries) == sorted(complements)
        full = (1 << v.cols) - 1
        comp_masks = [full ^ sum(1 << j for j in c) for c in cones]
        assert sorted(mask for _, mask in duals) == sorted(comp_masks)
        assert sorted(mask for (mask,) in tuples) == sorted(sum(1 << j for j in c) for c in cones)
    # outside analyze's block, verify_result takes each complement once as well
    entries.clear()
    verify_result(res)
    assert sorted(comp for (comp,) in entries) == sorted(complements)


@pytest.mark.parametrize("name", ["EX1_V", *ONE_PASS_INSTANCES])
def test_cartier_rows_are_multiplied_once_per_distinct_row(count_calls, name):
    # cartier_basis takes each distinct Picard row times F once in analyze's
    # block, and verify_result each distinct C_top row times Q^T once per call
    from torifactor import intmat

    v = {"EX1_V": EX1_V, **ONE_PASS_INSTANCES}[name]
    products = count_calls(intmat, "_row_times")
    res = analyze(v)
    r = res.Q.rows
    picard_rows = {row for fa in res.fans for row in fa.picard.B}
    top_rows = {c for fa in res.fans for c in tuple(fa.cartier)[:r]}
    assert len(picard_rows) == {"EX1_V": 1, "EX2_V": 5, "SHARED_V": 6, "4x4/0": 48}[name]
    assert sorted(row for row, _ in products if len(row) == r) == sorted(picard_rows)
    assert sorted(row for row, _ in products if len(row) == v.cols) == sorted(top_rows)
    assert len(products) == len(picard_rows) + len(top_rows)
    products.clear()
    verify_result(res)
    assert sorted(row for row, _ in products) == sorted(top_rows)


@pytest.mark.parametrize("name", ["EX1_V", *ONE_PASS_INSTANCES])
def test_index_sets_are_the_complements_of_the_cones(name):
    # FanAnalysis stores no family: index_sets is read off the fan's cones
    v = {"EX1_V": EX1_V, **ONE_PASS_INSTANCES}[name]
    res = analyze(v)
    assert len(res.fans) == {"EX1_V": 1, "EX2_V": 3, "SHARED_V": 4, "4x4/0": 43}[name]
    for fa in res.fans:
        want = tuple(
            tuple(sorted(set(range(v.cols)) - set(cone))) for cone in fa.fan.maximal_cones
        )
        assert fa.index_sets.sets == want


def test_analyze_takes_no_modular_hnf_and_no_m_by_m_determinant_per_fan(count_calls):
    from torifactor import intmat, normal_forms

    hnfs = count_calls(normal_forms, "_modular_hnf")
    dets = count_calls(intmat, "_det_rows")
    for v, fans in ((EX1_V, 1), (EX2_V, 3), (random_reduced_f_matrix(random.Random(3), 4, 4), 25)):
        for fan_index in (None, 0):
            hnfs.clear()
            dets.clear()
            res = analyze(v, fan_index=fan_index)
            assert len(res.fans) == (fans if fan_index is None else 1)
            distinct = {idx for fa in res.fans for idx in fa.index_sets.sets}
            # one dual-row HNF per distinct index set, and one m x m determinant in all
            assert len(hnfs) == len(distinct)
            assert sum(len(a) == v.cols for (a,) in dets) == 1


def _bumped(matrix):
    rows = matrix.tolist()
    rows[0][0] += 1
    return IntMatrix(rows)


def _forge_covering(res, **changes):
    return res._replace(covering=res.covering._replace(**changes))


def _forged_aligned_pair(cd):
    # row 0 of V_hat_aligned replaced by the sum of rows 0 and 1, and V_aligned
    # rebuilt to match; Delta_00 = Delta_11 = 1, so only V_aligned == mu @ V fails
    rows = cd.V_hat_aligned.tolist()
    rows[0] = [a + b for a, b in zip(rows[0], rows[1])]
    hat = IntMatrix(rows)
    return cd._replace(V_hat_aligned=hat, V_aligned=cd.Delta @ hat)


def _off_diagonal_form(cd):
    # nu @ E and Delta @ E for E = I + e_01 keep mu @ beta @ nu == Delta and the
    # diagonal of Delta, so the row scaling of V_hat_aligned still matches
    e = IntMatrix.identity(cd.nu.rows).tolist()
    e[0][1] = 1
    e = IntMatrix(e)
    return cd._replace(nu=cd.nu @ e, Delta=cd.Delta @ e)


def _swapped_invariants(cd):
    # Delta = diag(1, 1, 3, 15) reordered as diag(1, 1, 15, 3) by the swap P of
    # its last two rows, with mu, nu and both aligned matrices moved along:
    # P mu beta nu P is diagonal and the invariants read (15, 3), but no
    # divisor chain
    swap = lambda m: m.select_rows([0, 1, 3, 2])
    return cd._replace(
        mu=swap(cd.mu),
        nu=cd.nu.select_cols([0, 1, 3, 2]),
        Delta=swap(cd.Delta).select_cols([0, 1, 3, 2]),
        V_aligned=swap(cd.V_aligned),
        V_hat_aligned=swap(cd.V_hat_aligned),
        torsion_invariants=(15, 3),
    )


def _negated_unit(cd):
    # row 0 of mu, Delta and V_aligned negated: every product identity holds,
    # Delta_00 = -1, and the entries above 1 are still (3, 15)
    neg = lambda m: IntMatrix([[-x for x in m.row(0)]] + m.tolist()[1:])
    return cd._replace(mu=neg(cd.mu), Delta=neg(cd.Delta), V_aligned=neg(cd.V_aligned))


def _forge_class_group(res, **changes):
    return res._replace(class_group=res.class_group._replace(**changes))


# one forgery per identity that verify_result checks before the fans; each
# breaks its identity and none checked before it
IDENTITY_FORGERIES = [
    pytest.param(
        lambda res: res._replace(Q=_bumped(res.Q)),
        "weights are not orthogonal to the fan matrix",
        id="orthogonality",
    ),
    pytest.param(
        lambda res: _forge_covering(res, V_hat=_bumped(res.covering.V_hat)),
        "covering factorization failed",
        id="covering factorization",
    ),
    pytest.param(
        lambda res: _forge_covering(res, Delta=_bumped(res.covering.Delta)),
        "diagonal form identity failed",
        id="diagonal form",
    ),
    pytest.param(
        lambda res: _forge_covering(res, V_aligned=_bumped(res.covering.V_aligned)),
        "alignment identity failed",
        id="alignment",
    ),
    pytest.param(
        lambda res: res._replace(covering=_off_diagonal_form(res.covering)),
        "diagonal form identity failed",
        id="off-diagonal form",
    ),
    pytest.param(
        lambda res: _forge_covering(
            res, V_hat_aligned=res.covering.V_hat_aligned.vstack(res.covering.V_hat_aligned)
        ),
        "alignment identity failed",
        id="alignment row count",
    ),
    pytest.param(
        lambda res: res._replace(covering=_forged_aligned_pair(res.covering)),
        "aligned fan matrix identity failed",
        id="aligned pair",
    ),
    pytest.param(
        lambda res: _forge_covering(res, torsion_invariants=(3, 30)),
        "factor determinant disagrees with the torsion order",
        id="torsion order",
    ),
    pytest.param(
        lambda res: _forge_covering(res, torsion_invariants=(5, 9)),
        "torsion invariants disagree with the diagonal form",
        id="invariants not the diagonal",
    ),
    pytest.param(
        lambda res: _forge_covering(res, torsion_invariants=(9, 5)),
        "torsion invariants disagree with the diagonal form",
        id="invariants not a chain",
    ),
    pytest.param(
        lambda res: _forge_covering(res, torsion_invariants=(45,)),
        "torsion invariants disagree with the diagonal form",
        id="invariants merged",
    ),
    pytest.param(
        lambda res: _forge_class_group(res, torsion=(5, 9)),
        "torsion invariants disagree with the diagonal form",
        id="class group torsion",
    ),
    pytest.param(
        lambda res: _forge_class_group(
            res._replace(covering=_swapped_invariants(res.covering)), torsion=(15, 3)
        ),
        "torsion invariants disagree with the diagonal form",
        id="diagonal not a chain",
    ),
    pytest.param(
        lambda res: res._replace(covering=_negated_unit(res.covering)),
        "torsion invariants disagree with the diagonal form",
        id="negative diagonal entry",
    ),
    pytest.param(
        lambda res: _forge_class_group(
            res, free_generators=_bumped(res.class_group.free_generators)
        ),
        "free-part generator identity failed",
        id="free part",
    ),
    pytest.param(
        lambda res: res._replace(
            gamma=TorsionMatrix(res.gamma.moduli, _bumped(res.gamma.to_int_matrix()).tolist())
        ),
        "torsion matrix does not annihilate the fan rows",
        id="torsion annihilation",
    ),
    pytest.param(
        lambda res: _forge_class_group(
            res,
            torsion_generator_rows=IntMatrix(
                [[2 * x for x in row] for row in res.class_group.torsion_generator_rows]
            ),
        ),
        "torsion matrix does not normalize the generators",
        id="torsion normalization",
    ),
]


@pytest.mark.parametrize("forge, message", IDENTITY_FORGERIES)
def test_verification_rejects_a_forged_identity(forge, message):
    res = analyze(EX2_V)
    assert res.covering.torsion_invariants == (3, 15)
    with pytest.raises(PreconditionError, match=message):
        verify_result(forge(res))
