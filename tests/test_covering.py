import random
import sys

import pytest
from hypothesis import given, strategies as st

from torifactor import (
    CoveringData,
    IntMatrix,
    Lattice,
    PreconditionError,
    ShapeError,
    TorsionMatrix,
    analyze,
    beta_factor,
    classify_F,
    covering_decomposition,
    det,
    gale_dual,
    hnf,
    snf,
    torsion_generators,
    torsion_matrix,
    torsion_order,
    universal_covering,
    unimodular_inverse,
)

from _exampledata import (
    EX1_BETA,
    EX1_GAMMA,
    EX1_TORSION_GENERATOR,
    EX1_V,
    EX1_VHAT,
    EX1_VHAT_HNF,
    EX2_BETA,
    EX2_BETA_H,
    EX2_DELTA,
    EX2_GAMMA,
    EX2_H,
    EX2_HHAT,
    EX2_MU,
    EX2_NU,
    EX2_T1,
    EX2_T2,
    EX2_U,
    EX2_UHAT,
    EX2_V,
    EX2_VHAT,
    EX2_VHAT_ALIGNED,
    EX2_V_ALIGNED,
)
from _randgen import (
    SMALL_FAN_SHAPES,
    hnf_beta_factor,
    inverse_covering_decomposition,
    is_divisor_of_beta,
    pick_fan_shape,
    random_matrix,
    random_nonsingular,
    random_reduced_f_matrix,
    random_unimodular,
)


def _congruences_hold(gamma, v_aligned, generators):
    g = gamma.to_int_matrix()
    fan_part = g @ v_aligned.transpose()
    for k, tau in enumerate(gamma.moduli):
        if any(x % tau != 0 for x in fan_part.row(k)):
            return False
    gen_part = g @ generators.transpose()
    for k, tau in enumerate(gamma.moduli):
        for j in range(gamma.rows):
            want = 1 if j == k else 0
            if (gen_part[k, j] - want) % tau != 0:
                return False
    return True


def test_universal_covering_first_example():
    vhat = universal_covering(EX1_V)
    assert vhat == EX1_VHAT_HNF
    assert Lattice.from_matrix(vhat) == Lattice.from_matrix(EX1_VHAT)
    assert classify_F(vhat).is_CF


def test_universal_covering_second_example():
    vhat = universal_covering(EX2_V)
    assert Lattice.from_matrix(vhat) == Lattice.from_matrix(EX2_VHAT)


def test_universal_covering_fixes_torsion_free_input():
    v = IntMatrix([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    assert Lattice.from_matrix(universal_covering(v)) == Lattice.from_matrix(v)


def test_universal_covering_rejects_non_reduced():
    with pytest.raises(PreconditionError):
        universal_covering(IntMatrix([[2, 0, -2], [0, 1, -1]]))


def test_beta_factor_first_example():
    assert beta_factor(EX1_V, EX1_VHAT) == EX1_BETA


def test_beta_factor_second_example():
    assert beta_factor(EX2_V, EX2_VHAT) == EX2_BETA
    assert EX2_BETA @ EX2_VHAT == EX2_V


def test_beta_factor_identity_on_equal_input():
    v = IntMatrix([[1, 0, -1], [0, 1, -1]])
    assert beta_factor(v, v) == IntMatrix.identity(2)


def test_beta_factor_triangular_intermediates_match_worked_example():
    # the HNF pair and the triangular factor of the rank-2 example
    res = hnf(EX2_V)
    assert res.H == EX2_H
    hat = hnf(EX2_VHAT)
    assert hat.H == EX2_HHAT
    # reference transforms satisfy the same defining identities
    assert EX2_U @ EX2_V == EX2_H
    assert EX2_UHAT @ EX2_VHAT == EX2_HHAT
    assert EX2_H == EX2_BETA_H @ EX2_HHAT
    assert EX2_BETA == unimodular_inverse(EX2_U) @ EX2_BETA_H @ EX2_UHAT


def test_beta_factor_rejects_non_contained_lattice():
    # the row lattice of the first argument must lie inside that of the second
    outside = "row lattice of v is not contained in that of v_hat"
    v = IntMatrix([[1, 0, 0], [0, 1, 0]])
    w = IntMatrix([[2, 0, 0], [0, 2, 0]])
    # inside the rational span, but beta = I/2: a remainder on dividing by p
    with pytest.raises(PreconditionError, match=outside):
        beta_factor(v, w)
    # outside the rational span: a nonzero row below the pivot rows
    with pytest.raises(PreconditionError, match=outside):
        beta_factor(IntMatrix([[1, 0, 0], [0, 0, 1]]), IntMatrix([[1, 0, 0], [0, 1, 0]]))


def test_beta_factor_rejects_rank_deficient_input():
    rank = "both matrices must have full row rank"
    # v of rank 1 inside the span of v_hat: beta is singular
    with pytest.raises(PreconditionError, match=rank):
        beta_factor(IntMatrix([[1, 0, -1], [2, 0, -2]]), IntMatrix([[1, 0, -1], [0, 1, -1]]))
    # v_hat of rank 1: the elimination finds one pivot, not two
    with pytest.raises(PreconditionError, match=rank):
        beta_factor(IntMatrix([[1, 0, -1], [0, 1, -1]]), IntMatrix([[1, 1, -1], [1, 1, -1]]))


def _beta_or_error(factor, v, v_hat):
    try:
        return factor(v, v_hat)
    except PreconditionError:
        return "PreconditionError"


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_beta_factor_matches_two_hnf_oracle(shape, seed):
    rng = random.Random(seed)
    n, r = shape
    v = random_reduced_f_matrix(rng, n, r)
    v_hat = gale_dual(gale_dual(v))
    doubled = IntMatrix([[2 * x for x in v_hat.row(0)]] + [v_hat.row(i) for i in range(1, n)])
    collapsed = IntMatrix([v.row(i) for i in range(n - 1)] + [v.row(0)])
    pairs = [
        (v, v_hat),
        (collapsed, v_hat),
        (v, random_unimodular(rng, n) @ v_hat),
        (v_hat, v),
        (v, doubled),
        (random_matrix(rng, n, n + r), v_hat),
        (v, random_matrix(rng, n, n + r)),
    ]
    for a, b in pairs:
        assert _beta_or_error(beta_factor, a, b) == _beta_or_error(hnf_beta_factor, a, b)


def test_beta_factor_takes_no_hnf(count_calls):
    from torifactor import normal_forms

    calls = count_calls(normal_forms, "hnf")
    ranks = count_calls(normal_forms, "rank")
    assert beta_factor(EX1_V, EX1_VHAT) == EX1_BETA
    assert beta_factor(EX2_V, EX2_VHAT) == EX2_BETA
    assert calls == []
    assert ranks == []


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_covering_decomposition_matches_the_inverse_oracle(shape, seed):
    rng = random.Random(seed)
    n, r = shape
    v = random_reduced_f_matrix(rng, n, r)
    v_hat = universal_covering(v)
    for w in (v_hat, random_unimodular(rng, n) @ v_hat):
        cd, want = covering_decomposition(v, w), inverse_covering_decomposition(v, w)
        for name in CoveringData._fields:
            assert getattr(cd, name) == getattr(want, name), name


def test_covering_oracle_inputs_meet_rows_with_and_without_sign_flips():
    # inputs drawn as in the oracle test: nu differs from the Smith transform
    # exactly when a torsion row was negated
    rng = random.Random(65)
    flipped = set()
    for _ in range(40):
        n, r = rng.choice(SMALL_FAN_SHAPES)
        v = random_reduced_f_matrix(rng, n, r)
        v_hat = universal_covering(v)
        for w in (v_hat, random_unimodular(rng, n) @ v_hat):
            cd = covering_decomposition(v, w)
            if cd.torsion_invariants:
                flipped.add(cd.nu != snf(cd.beta).U_right)
    assert flipped == {False, True}


def _pairwise_row_action(v: IntMatrix, bits: int, rng) -> IntMatrix:
    """``v`` with a ``bits``-bit multiple of every other row added to each row
    in turn, so row i of the result has about ``(i + 1) * bits`` bits."""
    rows = v.tolist()
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j:
                c = rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


@pytest.mark.parametrize(
    "v",
    [random_reduced_f_matrix(random.Random(2), 6, 3), EX2_V],
    ids=["seed-2 (6, 3)", "EX2"],
)
def test_row_actions_keep_delta_and_bound_the_smith_transforms(v):
    # snf reduces its transforms through the HNF, so the bit length of mu and
    # nu follows that of beta, not the number of elimination steps: at 256
    # bits, beta has 1537 (seed-2) and 1032 (EX2) bits and mu one or two more
    def bits(m):
        return max(abs(x).bit_length() for row in m for x in row)

    base = analyze(v)
    res = analyze(_pairwise_row_action(v, 256, random.Random(256)))
    cd = res.covering
    assert cd.Delta == base.covering.Delta
    assert cd.torsion_invariants == base.covering.torsion_invariants
    assert res.class_group.torsion == base.class_group.torsion
    assert bits(cd.beta) > 1000
    assert max(bits(cd.mu), bits(cd.nu)) <= 2 * bits(cd.beta) + 64


def test_covering_decomposition_takes_no_inverse_and_no_adjugate(count_calls):
    from torifactor import covering, intmat, normal_forms

    inverses = count_calls(normal_forms, "unimodular_inverse")
    adjugates = count_calls(intmat, "_det_adjugate")
    for v, v_hat in ((EX1_V, EX1_VHAT), (EX2_V, EX2_VHAT)):
        cd = covering._covering_decomposition(v, v_hat)
        assert cd.V_aligned == cd.mu @ v
    assert inverses == []
    assert adjugates == []


def test_covering_decomposition_first_example():
    cd = covering_decomposition(EX1_V)
    assert cd.torsion_invariants == (5,)
    assert cd.beta @ cd.V_hat == EX1_V
    assert cd.mu @ cd.beta @ cd.nu == cd.Delta
    assert cd.V_aligned == cd.Delta @ cd.V_hat_aligned
    assert torsion_order(cd) == abs(det(cd.beta)) == 5


def test_covering_decomposition_second_example():
    cd = covering_decomposition(EX2_V)
    assert cd.Delta == EX2_DELTA
    assert cd.torsion_invariants == (3, 15)
    assert torsion_order(cd) == 45


def test_covering_decomposition_rejects_non_fan_matrix():
    # the columns do not positively span R^2
    with pytest.raises(PreconditionError):
        covering_decomposition(IntMatrix([[1, 0, 1], [0, 1, 1]]))


def test_covering_decomposition_rejects_unsaturated_v_hat():
    # V itself has Z/5 torsion, so its row lattice is not saturated
    with pytest.raises(PreconditionError):
        covering_decomposition(EX1_V, v_hat=EX1_V)
    assert covering_decomposition(EX1_V, v_hat=EX1_VHAT).V_hat == EX1_VHAT


def test_covering_decomposition_torsion_free():
    v = IntMatrix([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    cd = covering_decomposition(v)
    assert cd.torsion_invariants == ()
    assert torsion_generators(cd) is None
    assert torsion_matrix(cd).rows == 0


def test_torsion_invariants_match_transposed_form():
    # independent route: invariants of the upper block of HNF(V^T)
    for v in (EX1_V, EX2_V):
        cd = covering_decomposition(v)
        top = hnf(v.transpose()).H.top_rows(v.rows)
        diag = snf(top).D
        alt = tuple(diag[i, i] for i in range(v.rows) if diag[i, i] > 1)
        assert alt == cd.torsion_invariants


def test_torsion_generator_first_example():
    cd = covering_decomposition(EX1_V)
    gens = torsion_generators(cd)
    assert gens.tolist() == [list(EX1_TORSION_GENERATOR)]


def test_torsion_generator_rows_divide_aligned_rows():
    rng = random.Random(61)
    for _ in range(30):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        cd = covering_decomposition(v)
        gens = torsion_generators(cd)
        if gens is None:
            continue
        s = len(cd.torsion_invariants)
        for k, tau in enumerate(cd.torsion_invariants):
            scaled = tuple(tau * x for x in gens.row(k))
            assert scaled == cd.V_aligned.row(n - s + k)
            # a generator is never itself in the fan-matrix row lattice
            assert gens.row(k) not in Lattice.from_matrix(v)


def test_reference_alignment_data_second_example():
    # the reference mu/nu alignment data satisfy every claimed identity
    assert EX2_MU @ EX2_BETA @ EX2_NU == EX2_DELTA
    assert abs(det(EX2_MU)) == 1 and abs(det(EX2_NU)) == 1
    assert EX2_MU @ EX2_V == EX2_V_ALIGNED
    assert EX2_NU @ EX2_VHAT_ALIGNED == EX2_VHAT
    assert EX2_DELTA @ EX2_VHAT_ALIGNED == EX2_V_ALIGNED
    assert EX2_VHAT_ALIGNED.row(2) == EX2_T1
    assert EX2_VHAT_ALIGNED.row(3) == EX2_T2


def test_torsion_matrix_first_example():
    cd = covering_decomposition(EX1_V)
    gamma = torsion_matrix(cd)
    assert gamma.moduli == (5,)
    gens = torsion_generators(cd)
    assert _congruences_hold(gamma, cd.V_aligned, gens)
    # the reference residue row satisfies the same congruences
    assert _congruences_hold(EX1_GAMMA, cd.V_aligned, gens)


def test_torsion_matrix_second_example():
    cd = covering_decomposition(EX2_V)
    gamma = torsion_matrix(cd)
    assert gamma.moduli == (3, 15)
    gens = torsion_generators(cd)
    assert _congruences_hold(gamma, cd.V_aligned, gens)
    # the reference residue rows are admissible for the reference alignment
    reference_gens = IntMatrix([list(EX2_T1), list(EX2_T2)])
    assert _congruences_hold(EX2_GAMMA, EX2_V_ALIGNED, reference_gens)


def test_torsion_matrix_random_congruences():
    rng = random.Random(62)
    seen = 0
    while seen < 25:
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        cd = covering_decomposition(v)
        if not cd.torsion_invariants:
            continue
        gamma = torsion_matrix(cd)
        gens = torsion_generators(cd)
        assert _congruences_hold(gamma, cd.V_aligned, gens)
        # the congruence against the original fan matrix rows also holds
        rel = gamma.to_int_matrix() @ v.transpose()
        for k, tau in enumerate(gamma.moduli):
            assert all(x % tau == 0 for x in rel.row(k))
        seen += 1


def test_torsion_matrix_entries_are_reduced():
    tm = TorsionMatrix([3, 15], [[-1, 4, 0, 3, 0, 0], [16, -2, 3, 4, 13, 0]])
    assert tm.entries[0] == (2, 1, 0, 0, 0, 0)
    assert tm.entries[1] == (1, 13, 3, 4, 13, 0)


def test_torsion_matrix_rejects_bad_moduli():
    with pytest.raises(PreconditionError):
        TorsionMatrix([1], [[0, 0]])
    with pytest.raises(PreconditionError):
        TorsionMatrix([4, 6], [[0, 0], [0, 0]])


def test_torsion_matrix_rejects_non_integer_moduli_and_entries():
    # int() would truncate these to moduli (2,) and entries ((1, 0),)
    with pytest.raises(ShapeError, match="must be integers"):
        TorsionMatrix([2.5], [[1.7, 0]])
    with pytest.raises(ShapeError, match="must be integers"):
        TorsionMatrix([2], [[1.7, 0]])


@pytest.mark.parametrize("width", [2.5, 0, -3, "3"])
def test_torsion_matrix_rejects_bad_width(width):
    with pytest.raises(ShapeError):
        TorsionMatrix((), (), width=width)


def test_torsion_matrix_width_matches_entries():
    assert TorsionMatrix([5], [[1, 2]], width=2).cols == 2
    with pytest.raises(ShapeError):
        TorsionMatrix([5], [[]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TorsionMatrix([3, 3], [[1, 2], [1]]), ShapeError, "ragged rows"),
        (lambda: TorsionMatrix([3], [[1, 2]], width=3), ShapeError, "width disagrees"),
        (lambda: TorsionMatrix((), ()), ShapeError, "width required"),
        (
            lambda: TorsionMatrix((), (), width=2).to_int_matrix(),
            ValueError,
            "empty torsion matrix has no integer matrix form",
        ),
        (lambda: beta_factor(EX1_V, EX2_V), ShapeError, "fan matrices must have equal shape"),
    ],
    ids=["ragged", "width", "no width", "empty to_int_matrix", "beta_factor shapes"],
)
def test_torsion_data_rejects_inconsistent_shapes(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_is_divisor_of_beta():
    beta = IntMatrix.diagonal([1, 1, 5])
    assert is_divisor_of_beta(IntMatrix.identity(3), beta)
    assert is_divisor_of_beta(beta, beta)
    assert not is_divisor_of_beta(IntMatrix.diagonal([1, 5, 1]), beta)


def test_is_divisor_rejects_singular():
    with pytest.raises(PreconditionError):
        is_divisor_of_beta(IntMatrix.zeros(2, 2), IntMatrix.identity(2))


def test_is_divisor_transitive():
    rng = random.Random(63)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        beta = random_nonsingular(rng, n, bound=2)
        eta = random_nonsingular(rng, n, bound=2)
        zeta = random_nonsingular(rng, n, bound=2)
        if is_divisor_of_beta(eta, beta) and is_divisor_of_beta(zeta, eta):
            assert is_divisor_of_beta(zeta, beta)
            checked += 1
        else:
            checked += 1


def test_covering_factorization_random():
    rng = random.Random(64)
    for _ in range(30):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        cd = covering_decomposition(v)
        assert cd.beta @ cd.V_hat == v
        assert cd.mu @ cd.beta @ cd.nu == cd.Delta
        assert cd.V_aligned == cd.Delta @ cd.V_hat_aligned
        assert torsion_order(cd) == abs(det(cd.beta))
        # covering matrix from the weight transform works too
        q = gale_dual(v)
        from torifactor import weight_transform

        v_hat_rep = weight_transform(q).bottom_rows(n)
        cd2 = covering_decomposition(v, v_hat=v_hat_rep)
        assert cd2.torsion_invariants == cd.torsion_invariants
        assert cd2.beta @ v_hat_rep == v


def test_torsion_matrix_repr_writes_entries_beyond_the_digit_limit_by_their_digit_count():
    tm = TorsionMatrix([3], [[4, 2]])
    assert repr(tm) == "TorsionMatrix(moduli=[3], entries=[[1, 2]], width=2)"
    assert repr(TorsionMatrix([], [], width=2)) == "TorsionMatrix(moduli=[], entries=[], width=2)"
    limit = sys.get_int_max_str_digits()
    if limit:
        big = f"<integer of {limit + 1} digits>"
        tm = TorsionMatrix([10**limit + 1], [[10**limit, 1]])
        assert repr(tm) == f"TorsionMatrix(moduli=[{big}], entries=[[{big}, 1]], width=2)"
