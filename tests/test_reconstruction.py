import random

import pytest
from hypothesis import given, strategies as st

from torifactor import (
    IntMatrix,
    Lattice,
    PreconditionError,
    QuotientPresentation,
    SearchLimitExceeded,
    TorsionMatrix,
    covering_decomposition,
    det,
    fan_matrix_equivalence,
    gale_dual,
    reconstruct,
    torsion_matrix,
)

from _exampledata import (
    EX1_Q,
    EX1_V,
    EX1_VHAT,
    EX2_Q,
    EX2_GAMMA,
    EX2_V,
    EX2_VHAT,
    EX3_BETA,
    EX3_K,
    EX3_R,
    EX3_V,
    REID_BETA,
    REID_GAMMA,
    REID_K,
    REID_V,
    REID_WITNESS_R,
    REID_WITNESS_S,
)
from _randgen import (
    SMALL_FAN_SHAPES,
    permutation_fan_matrix_equivalence,
    pick_fan_shape,
    random_matrix,
    random_reduced_f_matrix,
    random_unimodular,
)


def test_presentation_validates_inputs():
    with pytest.raises(PreconditionError):
        QuotientPresentation(IntMatrix([[1, 0]]), TorsionMatrix((), (), width=2))
    with pytest.raises(Exception):
        QuotientPresentation(EX1_Q, TorsionMatrix([5], [[1, 2, 3]]))


def test_reid_reconstruction_system():
    p = QuotientPresentation(EX1_Q, REID_GAMMA)
    assert reconstruct(p, v_hat=EX1_VHAT).K == REID_K


def test_reid_beta_and_fan_matrix():
    p = QuotientPresentation(EX1_Q, REID_GAMMA)
    rec = reconstruct(p, v_hat=EX1_VHAT)
    assert Lattice.from_matrix(rec.beta) == Lattice.from_matrix(REID_BETA)
    assert abs(det(rec.beta)) == 5
    v = rec.V
    assert Lattice.from_matrix(v) == Lattice.from_matrix(REID_V)
    witness = fan_matrix_equivalence(EX1_V, v)
    assert witness is not None
    r, s = witness
    assert r @ EX1_V @ s == v


def test_reid_reference_witness_verifies():
    assert REID_WITNESS_R @ EX1_V @ REID_WITNESS_S == REID_V


def test_reconstruction_independent_of_covering_representative():
    p = QuotientPresentation(EX1_Q, REID_GAMMA)
    default = reconstruct(p).V
    explicit = reconstruct(p, v_hat=EX1_VHAT).V
    assert Lattice.from_matrix(default) == Lattice.from_matrix(explicit)


def test_torsion_matrix_normalizes_residue_representatives():
    shifted = TorsionMatrix([5], [[6, -3, 8, 4 - 10]])  # same classes mod 5
    assert shifted.entries == REID_GAMMA.entries


def test_reconstruction_independent_of_residue_representatives():
    # rebuild the relation system with representatives shifted by multiples
    # of the moduli: the solution row lattice must not move
    from torifactor import hnf

    rng = random.Random(83)
    p = QuotientPresentation(EX1_Q, REID_GAMMA)
    vhat = gale_dual(EX1_Q)
    reference = Lattice.from_matrix(reconstruct(p).beta)
    base = [list(row) for row in REID_GAMMA.entries]
    for _ in range(5):
        shifted = IntMatrix(
            [[x + 5 * rng.randint(-3, 3) for x in row] for row in base]
        )
        k = (vhat @ shifted.transpose()).vstack(IntMatrix.diagonal([5]))
        beta = hnf(k).U.bottom_rows(3).select_cols(range(3))
        assert Lattice.from_matrix(beta) == reference


def test_second_example_reconstruction():
    p = QuotientPresentation(EX2_Q, EX2_GAMMA)
    rec = reconstruct(p, v_hat=EX2_VHAT)
    assert rec.K == EX3_K
    assert Lattice.from_matrix(rec.beta) == Lattice.from_matrix(EX3_BETA)
    v = rec.V
    assert Lattice.from_matrix(v) == Lattice.from_matrix(EX3_V)
    witness = fan_matrix_equivalence(EX2_V, v)
    assert witness is not None
    r, s = witness
    assert s == IntMatrix.identity(6)
    assert r @ EX2_V @ s == v


def test_second_example_reference_row_action():
    assert EX3_R @ EX2_V == EX3_V
    assert abs(det(EX3_R)) == 1


def test_trivial_torsion_returns_covering():
    q = IntMatrix([[1, 1, 1, 1]])
    p = QuotientPresentation(q, TorsionMatrix((), (), width=4))
    rec = reconstruct(p)
    assert rec.K is None
    assert rec.beta == IntMatrix.identity(3)
    v = rec.V
    assert Lattice.from_matrix(v) == Lattice.from_matrix(gale_dual(q))


def test_reconstruct_rejects_foreign_covering():
    p = QuotientPresentation(EX1_Q, REID_GAMMA)
    with pytest.raises(PreconditionError):
        reconstruct(p, v_hat=IntMatrix([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 2, -2]]))


def test_reconstruct_rejects_torsion_the_pairing_does_not_reach():
    # the moduli claim Z/3, but the residues pair every covering row to 0
    p = QuotientPresentation(IntMatrix([[1, 1, 1]]), TorsionMatrix([3], [[1, 1, 1]]))
    with pytest.raises(PreconditionError, match="generates 1 of the 3 torsion classes"):
        reconstruct(p)


def test_equivalence_reflexive():
    witness = fan_matrix_equivalence(EX1_V, EX1_V)
    r, s = witness
    assert r == IntMatrix.identity(3)
    assert s == IntMatrix.identity(4)


def test_equivalence_symmetry_and_transitivity():
    rng = random.Random(81)
    for _ in range(10):
        n, r = pick_fan_shape(rng, max_dim=3, max_total=6)
        v1 = random_reduced_f_matrix(rng, n, r)
        perm = list(range(v1.cols))
        rng.shuffle(perm)
        v2 = random_unimodular(rng, n) @ v1.select_cols(perm)
        w12 = fan_matrix_equivalence(v1, v2)
        assert w12 is not None
        r12, s12 = w12
        assert r12 @ v1 @ s12 == v2
        w21 = fan_matrix_equivalence(v2, v1)
        assert w21 is not None
        r21, s21 = w21
        assert r21 @ v2 @ s21 == v1
        v3 = random_unimodular(rng, n) @ v1
        w23 = fan_matrix_equivalence(v2, v3)
        assert w23 is not None
        r23, s23 = w23
        # composing witnesses gives a witness
        assert (r23 @ r12) @ v1 @ (s12 @ s23) == v3


def test_equivalence_detects_inequivalent():
    v1 = IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]])
    v2 = IntMatrix([[1, 0, -1, -1], [0, 1, -1, -2]])
    assert fan_matrix_equivalence(v1, v2) is None


def test_equivalence_content_pruning():
    v1 = IntMatrix([[1, 0, -5], [0, 1, -5]])
    v2 = IntMatrix([[1, 0, -1], [0, 1, -1]])
    assert fan_matrix_equivalence(v1, v2) is None


def test_equivalence_search_cap():
    v1 = IntMatrix([[1, 0, -1, -1], [0, 1, -1, -2]])
    # columns of v1 swapped in front: the identity permutation cannot match
    v2 = IntMatrix([[0, 1, -1, -1], [1, 0, -1, -2]])
    assert fan_matrix_equivalence(v1, v2, max_permutations=30) is not None
    with pytest.raises(SearchLimitExceeded):
        fan_matrix_equivalence(v1, v2, max_permutations=1)


def test_minor_multisets_reject_without_search():
    # |maximal minors| {1, 1, 1} against {1, 1, 2}: no candidate base is tried
    v1 = IntMatrix([[1, 0, -1], [0, 1, -1]])
    v2 = IntMatrix([[1, 1, -1], [0, 2, -1]])
    assert fan_matrix_equivalence(v1, v2, max_permutations=1) is None


def _row_action_invariants(v):
    """Sorted column contents, sorted ``|maximal minors|``, and the sorted
    column signatures: content and sorted ``|det|`` of the subsets holding
    the column."""
    from itertools import combinations
    from math import gcd

    contents = [gcd(*v.col(j)) for j in range(v.cols)]
    minors = {c: abs(det(v.select_cols(c))) for c in combinations(range(v.cols), v.rows)}
    signatures = [
        (contents[j], sorted(d for c, d in minors.items() if j in c)) for j in range(v.cols)
    ]
    return sorted(contents), sorted(minors.values()), sorted(signatures)


def test_equivalence_rejects_on_column_signatures_without_search(count_calls):
    # equal contents and |minor| multisets {1, 1, 1, 2, 3, 5}; column 2 of the
    # first lies in the subsets of minors 2, 3 and 5, and no column of the
    # second lies in all three
    from torifactor import reconstruction

    v1 = IntMatrix([[-2, -1, -1, 1], [-1, -1, 2, 0]])
    v2 = IntMatrix([[-2, -1, 0, 1], [-1, -1, 1, -2]])
    (c1, m1, s1), (c2, m2, s2) = _row_action_invariants(v1), _row_action_invariants(v2)
    assert (c1, m1) == (c2, m2) and s1 != s2
    searches = count_calls(reconstruction, "_det_adjugate")
    assert fan_matrix_equivalence(v1, v2) is None
    assert searches == []
    assert permutation_fan_matrix_equivalence(v1, v2) is None


def test_equivalence_search_that_finds_no_witness_answers_none(count_calls):
    # a reduced fan matrix and the same with column 2 negated: contents,
    # |minors| and column signatures all agree, so only the search decides
    from torifactor import reconstruction

    v1 = IntMatrix([[0, 0, 2, 2, 1, -1], [0, 1, -3, -3, -3, 0], [1, 0, -5, -4, -3, 1]])
    v2 = IntMatrix([[0, 0, -2, 2, 1, -1], [0, 1, 3, -3, -3, 0], [1, 0, 5, -4, -3, 1]])
    assert _row_action_invariants(v1) == _row_action_invariants(v2)
    matchings = count_calls(reconstruction, "_column_matching")
    assert fan_matrix_equivalence(v1, v2) is None
    # integral candidates for R were found, and none moves v1 onto v2
    assert len(matchings) > 0
    assert permutation_fan_matrix_equivalence(v1, v2) is None


def _outcome(equivalence, v1, v2):
    """The whole witness as lists, ``None``, or the precondition message."""
    try:
        witness = equivalence(v1, v2)
    except PreconditionError as exc:
        return str(exc)
    return None if witness is None else (witness[0].tolist(), witness[1].tolist())


def _disguise(rng, v):
    order = list(range(v.cols))
    rng.shuffle(order)
    return random_unimodular(rng, v.rows) @ v.select_cols(order)


def _assert_matches_permutation_oracle(v1, v2):
    assert _outcome(fan_matrix_equivalence, v1, v2) == _outcome(
        permutation_fan_matrix_equivalence, v1, v2
    )


# nontrivial automorphisms (P1 x P1, the hexagon), repeated columns (the rest)
SYMMETRIC = (
    IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]]),
    IntMatrix([[1, 0, -1, -1, 0, 1], [0, 1, 1, 0, -1, -1]]),
    IntMatrix([[1, 0, 1, -1, -1], [0, 1, 1, -1, -1]]),
    IntMatrix([[1, 0, 0, -1, -1, 0], [0, 1, 0, -1, -1, 1], [0, 0, 1, -1, -1, 0]]),
)


@pytest.mark.parametrize("v", SYMMETRIC)
def test_equivalence_witness_on_symmetric_matrices_matches_oracle(v):
    rng = random.Random(97)
    for v2 in (v, _disguise(rng, v), _disguise(rng, v), _disguise(rng, v)):
        _assert_matches_permutation_oracle(v, v2)


@pytest.mark.parametrize(
    "v1, v2",
    [
        ([[1, 2, 3], [2, 4, 6]], [[1, 2, 3], [2, 4, 6]]),
        ([[1, 0, -1], [0, 1, -1]], [[1, 2, 3], [2, 4, 6]]),
        ([[1, 2, 3], [2, 4, 6]], [[1, 0, -1], [0, 1, -1]]),
        ([[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1], [1, 1]]),
    ],
)
def test_rank_deficient_pairs_match_oracle(v1, v2):
    _assert_matches_permutation_oracle(IntMatrix(v1), IntMatrix(v2))


@given(
    st.sampled_from(["copy", "pair", "integer pair", "repeated column"]),
    st.sampled_from(SMALL_FAN_SHAPES),
    st.integers(0, 2**32),
)
def test_equivalence_witness_matches_permutation_oracle(kind, shape, seed):
    # at most 7 columns, so the oracle tries at most 5040 permutations
    rng = random.Random(seed)
    n, r = shape
    if kind == "integer pair":
        v1, v2 = random_matrix(rng, n, n + r), random_matrix(rng, n, n + r)
    else:
        v1 = random_reduced_f_matrix(rng, n, r)
        if kind == "repeated column":
            v1 = v1.hstack(v1.select_cols([rng.randrange(v1.cols)]))
        v2 = random_reduced_f_matrix(rng, n, r) if kind == "pair" else _disguise(rng, v1)
    _assert_matches_permutation_oracle(v1, v2)


def test_round_trip_on_worked_examples():
    for v in (EX1_V, EX2_V):
        cd = covering_decomposition(v)
        gamma = torsion_matrix(cd)
        p = QuotientPresentation(gale_dual(v), gamma)
        back = reconstruct(p).V
        witness = fan_matrix_equivalence(v, back)
        assert witness is not None
        r, s = witness
        assert r @ v @ s == back


def test_factor_determinant_equals_pairing_subgroup_order():
    # |det beta| times the index of the pairing subgroup is the torsion order
    p = QuotientPresentation(EX2_Q, EX2_GAMMA)
    beta = reconstruct(p).beta
    assert abs(det(beta)) == 45
    p2 = QuotientPresentation(EX1_Q, REID_GAMMA)
    assert abs(det(reconstruct(p2).beta)) == 5
