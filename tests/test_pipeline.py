import random
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, strategies as st

from torifactor import (
    IntMatrix,
    PreconditionError,
    SearchLimitExceeded,
    ShapeError,
    analyze,
    covering_decomposition,
    det,
    enumerate_fans,
    fan_matrix_equivalence,
    verify_result,
)

from _exampledata import EX1_V, EX2_V
from _randgen import (
    SMALL_FAN_SHAPES,
    pick_fan_shape,
    random_reduced_f_matrix,
    random_unimodular,
    rational_membership,
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


def test_analyze_builds_the_cocircuits_once(count_calls):
    # the positive-span test reads the cocircuits; the fan search does not
    from torifactor import gale

    cocircuits = count_calls(gale, "_cocircuits")
    for v in (EX1_V, EX2_V):
        cocircuits.clear()
        analyze(v)
        assert cocircuits == [(v,)]


def test_analyze_calls_each_public_step(count_calls):
    # the calls analyze makes itself; enumerate_fans validates V once more
    from torifactor import pipeline

    steps = ("require_F", "enumerate_fans", "picard_basis", "verify_result")
    calls = {name: count_calls(pipeline, name, everywhere=False) for name in steps}
    for fan_index, verify in ((None, True), (None, False), (1, True)):
        for seen in calls.values():
            seen.clear()
        res = analyze(EX2_V, fan_index=fan_index, verify=verify)
        assert calls["require_F"] == [(EX2_V,)]
        assert calls["enumerate_fans"] == [(EX2_V,)]
        assert [family for _, family in calls["picard_basis"]] == [fa.index_sets for fa in res.fans]
        assert calls["verify_result"] == ([(res,)] if verify else [])


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
    from dataclasses import replace

    from torifactor import PicardData, cartier_basis

    res = analyze(EX2_V)
    fa = res.fans[0]
    full = IntMatrix.identity(res.Q.rows)
    forged = replace(
        fa,
        picard=PicardData(B=full, index=1, delta_sigma=1),
        cartier=cartier_basis(full, res.U_Q, res.covering.beta),
    )
    with pytest.raises(PreconditionError, match="escapes a weight block lattice"):
        verify_result(replace(res, fans=(forged,) + res.fans[1:]))


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

    def forge_last(q, family):
        calls.append(family)
        pd = picard_basis(q, family)
        return forged if len(calls) % len(families) == 0 else pd

    monkeypatch.setattr(pipeline, "picard_basis", forge_last)
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
    # before the first Picard basis, which then folds the wrong dual rows
    from torifactor import pipeline
    from torifactor.intmat import _cached, _laplace_minors

    picard = pipeline.picard_basis

    def plant_then_solve(q, family):
        rows = tuple(q)
        tables = [_laplace_minors(rows[:b] + rows[b + 1 :], q.cols) for b in range(q.rows)]
        tables[0] = {cols: -minor for cols, minor in tables[0].items()}
        _cached(q, "cofactor tables", lambda: tables)
        return picard(q, family)

    true = analyze(EX2_V)
    monkeypatch.setattr(pipeline, "picard_basis", plant_then_solve)
    forged = analyze(EX2_V, verify=False)
    assert [fa.picard for fa in forged.fans] != [fa.picard for fa in true.fans]
    with pytest.raises(PreconditionError, match="adjugate identity failed"):
        analyze(EX2_V)


def test_analyze_passes_the_partial_fan_cap_to_the_search():
    # the search pushes 41 partial fans on the second example (tests/test_fans.py)
    res = analyze(EX2_V, fan_index=0, max_partial_fans=41)
    assert res.fans[0].fan == analyze(EX2_V, fan_index=0).fans[0].fan
    with pytest.raises(SearchLimitExceeded, match="exceeded 40 partial fans"):
        analyze(EX2_V, max_partial_fans=40)


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
    from dataclasses import replace

    for v in (EX1_V, EX2_V):
        res = analyze(v)
        fa = res.fans[-1]
        rows = fa.cartier.tolist()
        rows[0] = [2 * x for x in rows[0]]
        forged = replace(fa, cartier=IntMatrix(rows))
        with pytest.raises(PreconditionError, match="Cartier determinant factorization failed"):
            verify_result(replace(res, fans=res.fans[:-1] + (forged,)))


def test_verification_checks_the_cartier_bottom_block_before_the_determinant():
    # a doubled bottom row breaks both identities; the bottom block is read first
    from dataclasses import replace

    res = analyze(EX2_V)
    fa = res.fans[0]
    rows = fa.cartier.tolist()
    rows[-1] = [2 * x for x in rows[-1]]
    forged = replace(fa, cartier=IntMatrix(rows))
    assert abs(det(forged.cartier)) != fa.picard.index * abs(det(res.covering.beta))
    with pytest.raises(PreconditionError, match="Cartier basis does not end in the fan matrix"):
        verify_result(replace(res, fans=(forged,) + res.fans[1:]))
    with pytest.raises(ShapeError, match="square"):
        verify_result(replace(res, fans=(replace(fa, cartier=fa.cartier.top_rows(5)),)))


# the first fan's last index set replaced: too short, too long, and a
# well-shaped set the family already holds
@pytest.mark.parametrize("index_set", [(1,), (1, 2, 3), (3, 5)])
def test_verification_rejects_a_forged_index_set(index_set):
    from dataclasses import replace

    from torifactor import PicardIndexFamily

    res = analyze(EX2_V)
    fa = res.fans[0]
    assert index_set == (3, 5) or len(index_set) != res.Q.rows
    forged = replace(fa, index_sets=PicardIndexFamily(fa.index_sets.sets[:-1] + (index_set,)))
    with pytest.raises(PreconditionError, match="complements of the fan's cones"):
        verify_result(replace(res, fans=(forged,) + res.fans[1:]))


def test_verification_rejects_the_complements_of_a_cone_of_the_wrong_size():
    from dataclasses import replace

    from torifactor import Fan, picard_index_sets

    res = analyze(EX2_V)
    fa = res.fans[0]
    cones = fa.fan.maximal_cones
    fan = Fan(fa.fan.matrix, cones[:-1] + ((0,) + cones[-1],))
    assert 0 not in cones[-1]
    forged = replace(fa, fan=fan, index_sets=picard_index_sets(fan))
    with pytest.raises(PreconditionError, match="does not hold r = 2 columns"):
        verify_result(replace(res, fans=(forged,) + res.fans[1:]))


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
    # picard_basis filled and verify_result reads, after the Picard bases are
    # built from the true ones
    from torifactor import divisors, pipeline

    idx, forged = (1, 4), FORGED_DUAL_ROWS[forgery]
    verify = pipeline.verify_result

    def plant_then_verify(res):
        blocks, _ = divisors._picard_table(res.Q)
        assert blocks[idx] == (8, ((2, 3), (0, 4)))
        cols = [res.Q.col(j) for j in idx]
        outside = [any(sum(map(mul, h, c)) % 8 for c in cols) for h in forged]
        assert any(outside) == (forgery == "outside")
        blocks[idx] = (8, forged)
        verify(res)

    monkeypatch.setattr(pipeline, "verify_result", plant_then_verify)
    with pytest.raises(PreconditionError, match="weight block adjugate identity failed"):
        analyze(EX2_V)


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
