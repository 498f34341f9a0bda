import random

import pytest

from torifactor import (
    IntMatrix,
    PreconditionError,
    analyze,
    det,
    verify_result,
)

from _exampledata import EX1_V, EX2_V
from _randgen import pick_fan_shape, random_reduced_f_matrix


def test_pipeline_first_example():
    res = analyze(EX1_V)
    assert res.covering.torsion_invariants == (5,)
    assert res.gamma.moduli == (5,)
    assert len(res.fans) == 1
    fa = res.fans[0]
    assert fa.picard.B == IntMatrix([[1]])
    assert fa.picard.delta_sigma == 1
    assert fa.cartier.bottom_rows(3) == EX1_V


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
