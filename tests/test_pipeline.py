import random

import pytest
from hypothesis import given, strategies as st

from torifactor import (
    IntMatrix,
    PreconditionError,
    analyze,
    covering_decomposition,
    det,
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
    with pytest.raises(PreconditionError):
        analyze(EX2_V, fan_index=5)


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


def test_analyze_classifies_the_fan_matrix_once(monkeypatch):
    from torifactor import gale

    calls = {"F": 0, "W": 0}
    classify_F, classify_W = gale.classify_F, gale.classify_W

    def count_F(v):
        calls["F"] += 1
        return classify_F(v)

    def count_W(q):
        calls["W"] += 1
        return classify_W(q)

    monkeypatch.setattr(gale, "classify_F", count_F)
    monkeypatch.setattr(gale, "classify_W", count_W)
    for v in (EX1_V, EX2_V):
        calls.update(F=0, W=0)
        analyze(v)
        assert calls == {"F": 1, "W": 0}


def test_analyze_intersects_no_lattices(count_calls):
    from torifactor import lattices

    calls = count_calls(lattices, "lattice_intersection")
    for v in (EX1_V, EX2_V):
        analyze(v)
    assert calls == []


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
