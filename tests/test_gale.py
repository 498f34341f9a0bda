import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from torifactor import (
    IntMatrix,
    Lattice,
    PreconditionError,
    ShapeError,
    classify_F,
    classify_W,
    det,
    gale_dual,
    positive_span_is_full,
)
from torifactor.gale import _minors

from _exampledata import EX1_Q, EX1_V, EX1_VHAT, EX2_Q, EX2_V, EX2_VHAT
from _randgen import (
    SMALL_FAN_SHAPES,
    minor_gcd,
    oracle_classify_W,
    oracle_positive_span_is_full,
    pick_fan_shape,
    random_cf_matrix,
    random_matrix,
    random_reduced_f_matrix,
    random_unimodular,
    reduce_F,
)
from torifactor.normal_forms import _identity_block_transform


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32))
def test_gale_dual_matches_sympy(n, r, seed):
    # the kernel of a full-rank a, of rank m - n, saturated: its maximal minors are coprime
    from sympy import Matrix, gcd

    rng = random.Random(seed)
    while True:
        a = random_matrix(rng, n, n + r, bound=4)
        if Matrix(a.tolist()).rank() == n:
            break
    g = gale_dual(a)
    assert (g @ a.transpose()).is_zero()
    assert g.rows == a.cols - Matrix(a.tolist()).rank() == r
    minors = [Matrix(g.select_cols(c).tolist()).det() for c in combinations(range(a.cols), r)]
    assert gcd(minors) == 1


def test_gale_dual_of_first_example():
    assert Lattice.from_matrix(gale_dual(EX1_V)) == Lattice.from_matrix(EX1_Q)


def test_gale_dual_of_weight_matrix():
    assert Lattice.from_matrix(gale_dual(EX2_Q)) == Lattice.from_matrix(EX2_VHAT)


def test_gale_dual_of_identity_with_negative_column():
    a = IntMatrix([[1, 0, -1], [0, 1, -1]])
    dual = gale_dual(a)
    assert Lattice.from_matrix(dual) == Lattice(3, [[1, 1, 1]])


def test_gale_dual_orthogonality_random():
    rng = random.Random(41)
    for _ in range(60):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        q = gale_dual(v)
        assert (q @ v.transpose()).is_zero()


def test_gale_dual_rejects_rank_deficient():
    with pytest.raises(PreconditionError):
        gale_dual(IntMatrix([[1, 2, 3], [2, 4, 6]]))


def test_classify_first_example():
    rep = classify_F(EX1_V)
    assert rep.is_F and not rep.is_CF and rep.is_reduced
    assert rep.failed_conditions == ("e",)


def test_classify_covering_matrix():
    rep = classify_F(EX1_VHAT)
    assert rep.is_F and rep.is_CF


def test_classify_orthant_is_not_complete():
    v = IntMatrix([[1, 0, 0], [0, 1, 0]])
    rep = classify_F(v)
    assert not rep.is_F
    assert "b" in rep.failed_conditions and "c" in rep.failed_conditions


def test_classify_rejects_wide_shape():
    with pytest.raises(ShapeError):
        classify_F(IntMatrix([[1, 0], [0, 1]]))


def test_classify_detects_proportional_columns():
    v = IntMatrix([[1, 2, -1], [1, 2, -1]])
    rep = classify_F(v)
    assert "d" in rep.failed_conditions


def test_classify_W_examples():
    assert classify_W(EX1_Q).is_W
    assert classify_W(EX2_Q).is_W
    bad = classify_W(IntMatrix([[1, 0]]))
    assert not bad.is_W
    assert {"d", "e"} <= set(bad.failed_conditions)


def test_classify_W_detects_opposite_sign_pair():
    # the row lattice contains (1, -1, 0): not a weight matrix
    q = IntMatrix([[1, -1, 0], [0, 0, 1]])
    rep = classify_W(q)
    assert "f" in rep.failed_conditions


def test_classify_W_detects_unit_vector():
    q = IntMatrix([[1, 0, 0], [0, 1, 1]])
    rep = classify_W(q)
    assert "e" in rep.failed_conditions


def test_classify_W_detects_cotorsion():
    q = IntMatrix([[2, 2, 2]])
    rep = classify_W(q)
    assert "b" in rep.failed_conditions


def test_reduce_columns():
    assert reduce_F(IntMatrix([[2, 0], [0, 3]])) == IntMatrix.identity(2)
    assert reduce_F(IntMatrix.column([4, 6])) == IntMatrix.column([2, 3])
    assert reduce_F(EX1_V) == EX1_V
    red = reduce_F(IntMatrix([[2, 0, -4], [0, 3, -6]]))
    assert red == reduce_F(red)


def test_reduce_rejects_zero_column():
    with pytest.raises(PreconditionError):
        reduce_F(IntMatrix([[1, 0], [1, 0]]))


def test_double_dual_is_CF():
    rng = random.Random(42)
    for _ in range(40):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        vhat = gale_dual(gale_dual(v))
        rep = classify_F(vhat)
        assert rep.is_F and rep.is_CF
        # the double dual fixes matrices that already have full column lattice
        if classify_F(v).is_CF:
            assert Lattice.from_matrix(vhat) == Lattice.from_matrix(v)


def test_cf_iff_coprime_maximal_minors():
    # CF against the gcd of the minors by cofactor expansion
    rng = random.Random(43)
    for _ in range(50):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        assert classify_F(v).is_CF == (minor_gcd(v) == 1)
    assert minor_gcd(EX1_V) == 5
    assert not classify_F(EX1_V).is_CF


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32), st.integers(1, 3))
def test_cf_matches_the_identity_hnf_oracle(shape, seed, scale):
    # the columns generate Z^n iff the HNF of V^T is [I; 0]; scaling a row keeps
    # V a fan matrix and makes torsion, as the first worked example has
    rng = random.Random(seed)
    v = random_unimodular(rng, shape[0]) @ random_reduced_f_matrix(rng, *shape)
    scaled = IntMatrix([[scale * x for x in v.row(0)]] + [v.row(i) for i in range(1, v.rows)])
    for w in (v, scaled, EX1_V, EX1_VHAT):
        rep = classify_F(w)
        assert rep.is_F
        assert rep.is_CF == (_identity_block_transform(w) is not None)


def test_classify_F_takes_no_hnf_when_r_is_at_least_n(count_calls):
    # the minors come from V itself
    from torifactor import normal_forms

    calls = count_calls(normal_forms, "hnf")
    rng = random.Random(8)
    for shape in ((1, 1), (2, 2), (2, 3), (3, 3), (3, 4)):
        assert classify_F(random_reduced_f_matrix(rng, *shape)).is_F
    assert calls == []


def test_classify_F_takes_one_kernel_when_r_is_below_n(count_calls):
    # the minors come from the saturated kernel of V, read once
    from torifactor import lattices

    kernels = count_calls(lattices, "kernel_saturation")
    for v in (EX1_V, EX2_V, EX1_VHAT):
        kernels.clear()
        assert classify_F(v).is_F
        assert kernels == [(v,)]


@pytest.mark.parametrize("seed_shape", [None, (6, 3), (4, 4)])
def test_analyze_takes_four_hnf_as_gale_dual_reuses_the_minor_kernel(count_calls, seed_shape):
    from torifactor import normal_forms
    from torifactor.pipeline import analyze

    calls = count_calls(normal_forms, "hnf")
    if seed_shape is None:
        matrices = (EX1_V, EX2_V)
    else:
        matrices = (random_reduced_f_matrix(random.Random(3), *seed_shape),)
    for v in matrices:
        calls.clear()
        analyze(v)
        assert len(calls) == 4


def test_weight_duality_on_random_instances():
    # the Gale dual of a reduced fan matrix passes every weight condition
    rng = random.Random(44)
    for _ in range(40):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        assert classify_W(gale_dual(v)).is_W


def test_cf_matrix_generator_sanity():
    rng = random.Random(45)
    for _ in range(25):
        n, r = pick_fan_shape(rng)
        v = random_cf_matrix(rng, n, r)
        rep = classify_F(v)
        assert rep.is_F and rep.is_CF and rep.is_reduced


def test_double_dual_is_CF_for_non_reduced_input():
    v = IntMatrix([[2, 0, -2], [0, 3, -3]])  # F-matrix with non-primitive columns
    rep = classify_F(v)
    assert rep.is_F and not rep.is_reduced
    assert classify_F(gale_dual(gale_dual(v))).is_CF


def test_classify_W_reads_opposite_sign_pairs_on_the_kernel():
    # two zero kernel columns: the row lattice meets the plane of e_0, e_1 in rank 2
    assert "f" in classify_W(IntMatrix([[1, 0, 0], [0, 1, 0]])).failed_conditions
    # positively proportional kernel columns, with an unsaturated row lattice
    assert "f" in classify_W(IntMatrix([[2, -2, 0, 0], [0, 0, 1, 1]])).failed_conditions
    # one zero kernel column is not enough: only 2 e_0 is in the row lattice
    rep = classify_W(IntMatrix([[2, 1, 1], [0, 1, 1]]))
    assert "f" not in rep.failed_conditions and "e" not in rep.failed_conditions


def test_positive_span_in_dimension_one():
    assert positive_span_is_full(IntMatrix([[1, -2]]))
    assert not positive_span_is_full(IntMatrix([[1, 2, 0]]))
    assert not positive_span_is_full(IntMatrix([[0, 0]]))


@st.composite
def small_integer_matrices(draw, wide=True):
    """Integer matrices of at most 4 rows and 6 columns; some have a row that
    is a multiple of another (rank deficient) or a row scaled by 2 or 3, and
    some are mostly zero, so that unit vectors lie in their row space."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(rows + 1 if wide else 1, 6))
    bound = draw(st.integers(1, 3))
    value = st.integers(-bound, bound)
    if draw(st.booleans()):
        value = st.one_of(st.just(0), st.just(0), value)
    entries = st.lists(value, min_size=cols, max_size=cols)
    data = draw(st.lists(entries, min_size=rows, max_size=rows))
    variant = draw(st.sampled_from(["plain", "deficient", "scaled"]))
    k = draw(st.integers(0, rows - 1))
    if variant == "deficient" and rows > 1:
        data[k] = [draw(st.integers(-2, 2)) * x for x in data[k - 1]]
    elif variant == "scaled":
        data[k] = [draw(st.integers(2, 3)) * x for x in data[k]]
    return IntMatrix(data)


@given(small_integer_matrices())
def test_classify_W_matches_lattice_oracle_on_integer_matrices(q):
    assert classify_W(q).failed_conditions == oracle_classify_W(q)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32), st.integers(1, 3))
def test_classify_W_matches_lattice_oracle_on_gale_duals(shape, seed, scale):
    rng = random.Random(seed)
    n, r = shape
    q = random_unimodular(rng, r) @ gale_dual(random_reduced_f_matrix(rng, n, r))
    scaled = IntMatrix([[scale * x for x in q.row(0)]] + [q.row(i) for i in range(1, r)])
    for w in (q, scaled):
        assert classify_W(w).failed_conditions == oracle_classify_W(w)


@given(small_integer_matrices(wide=False), st.booleans())
def test_positive_span_matches_facet_normal_oracle(v, close):
    if close:
        # the negated column sum makes the span positive whenever v has full rank
        v = IntMatrix([list(v.row(i)) + [-sum(v.row(i))] for i in range(v.rows)])
    assert positive_span_is_full(v) == oracle_positive_span_is_full(v)


def test_classify_W_takes_one_kernel_and_one_more_when_it_is_the_taller_side(count_calls):
    # the positive-span test of (c) reads the maximal minors of the kernel K,
    # which come from the kernel of K when K has more rows than its corank
    from torifactor import lattices

    kernels = count_calls(lattices, "kernel_saturation")
    for q in (EX1_Q, EX2_Q, IntMatrix([[1, -1, 0], [0, 0, 1]])):
        k = gale_dual(q)
        kernels.clear()
        classify_W(q)
        assert kernels[0] == (q,)
        assert len(kernels) == (2 if 2 * k.rows > k.cols else 1)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32), st.integers(2, 3))
def test_minor_table_matches_column_determinants(shape, seed, scale):
    # under a GL_n(Z) row action, and with a row scaled so that |lambda| > 1
    rng = random.Random(seed)
    v = random_unimodular(rng, shape[0]) @ random_reduced_f_matrix(rng, *shape)
    scaled = IntMatrix([[scale * x for x in v.row(0)]] + [v.row(i) for i in range(1, v.rows)])
    for w in (v, scaled, EX1_V, EX1_VHAT):
        assert list(_minors(w).items()) == _oracle_minors(w)


def _oracle_minors(v):
    return [(c, det(v.select_cols(c))) for c in combinations(range(v.cols), v.rows)]


def test_minor_table_of_a_rank_deficient_matrix_is_zero_with_no_determinant(count_calls):
    from torifactor import gale

    dets = count_calls(gale, "_det_rows", everywhere=False)
    # row 2 is twice row 0 plus row 1
    tall = IntMatrix([[1, 2, 0, -1, 3], [0, 1, 1, 2, -2], [2, 5, 1, 0, 4]])
    assert list(_minors(tall).items()) == _oracle_minors(tall)
    assert set(_minors(tall).values()) == {0}
    assert dets == []
    wide = IntMatrix([[1, -2, 3, 0], [-2, 4, -6, 0]])
    assert list(_minors(wide).items()) == _oracle_minors(wide)
    assert set(_minors(wide).values()) == {0}


def test_positive_span_of_a_square_matrix_reads_an_empty_kernel_minor():
    # r = 0 < n: the one r x r minor of the kernel is the empty determinant, 1
    squares = ([[2, 1], [1, 3]], [[-3]], [[1, 0, 2], [0, 1, 0], [1, 1, 1]])
    for v in map(IntMatrix, squares):
        assert list(_minors(v).items()) == _oracle_minors(v)
        assert not positive_span_is_full(v)
        assert not oracle_positive_span_is_full(v)
