import random
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from torifactor import (
    IntMatrix,
    Lattice,
    PreconditionError,
    SearchLimitExceeded,
    ShapeError,
    classify_F,
    classify_W,
    det,
    gale_dual,
    positive_span_is_full,
    require_W,
    shared_tables,
)
from torifactor.gale import _has_positively_proportional_pair, _kernel, _minors

from _exampledata import EX1_Q, EX1_V, EX1_VHAT, EX2_Q, EX2_V, EX2_VHAT
import _randgen
from _randgen import (
    MAX_CF_DRAWS,
    SMALL_FAN_SHAPES,
    minor_gcd,
    oracle_classify_W,
    oracle_positive_span_is_full,
    pairwise_positively_proportional_pair,
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


def test_gale_dual_rejects_a_square_nonsingular_matrix():
    with pytest.raises(PreconditionError, match="square full-rank matrix has trivial kernel"):
        gale_dual(IntMatrix([[1, 1], [0, 2]]))


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


@st.composite
def _column_sets(draw):
    """Columns of one length: multiples of a few base vectors by -3..3, so
    zero, negated, scaled and repeated columns are common, and some columns
    drawn freely."""
    n = draw(st.integers(1, 4))
    column = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
    bases = draw(st.lists(column, min_size=1, max_size=3))
    multiple = st.tuples(st.sampled_from(bases), st.integers(-3, 3))
    scaled = multiple.map(lambda bk: tuple(bk[1] * x for x in bk[0]))
    return draw(st.lists(st.one_of(scaled, column), max_size=8))


@settings(max_examples=400)
@given(_column_sets())
@example([(0, 0), (0, 0), (1, 2)])
@example([(1, 2), (-1, -2)])
@example([(1, 2), (-1, -2), (-3, -6)])
@example([(2, -4, 6), (0, 0, 0), (3, -6, 9)])
@example([(2, -4, 6), (-3, 6, -9), (2, -4, 7)])
def test_hashed_proportional_pair_test_matches_the_pairwise_test(columns):
    expected = pairwise_positively_proportional_pair(columns)
    assert _has_positively_proportional_pair(columns) == expected
    assert _has_positively_proportional_pair(columns[::-1]) == expected


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


def _reads_kernel_side(n, r):
    """Whether a standalone minor table of an n x (n + r) matrix reads the
    kernel: L(k) = sum_(t<=k) t C(m, t) Laplace products on k rows, plus
    2 m^2 n for the HNF of V^T on the kernel side."""
    m = n + r

    def laplace(k):
        return sum(t * comb(m, t) for t in range(1, k + 1))

    return r < n and laplace(r) + 2 * m * m * n < laplace(n)


# the rule reads V on the first four shapes and the kernel on the last four
SIDE_SHAPES = ((2, 1), (3, 2), (4, 3), (5, 3), (6, 3), (7, 3), (8, 2), (10, 2))


def test_side_rule_reads_V_for_small_n_and_the_kernel_for_tall_matrices():
    assert [_reads_kernel_side(*shape) for shape in SIDE_SHAPES] == [False] * 4 + [True] * 4


# the rows each table reads, standalone and inside analyze; V is the faster
# side standalone on (5, 2), (5, 3) and (6, 1), the kernel on (6, 2) and (7, 3)
PINNED_SIDES = [((5, 2), 5), ((5, 3), 5), ((6, 1), 6), ((6, 2), 2), ((7, 3), 3)]


@pytest.mark.parametrize("shape, standalone_rows", PINNED_SIDES, ids=lambda x: str(x))
def test_standalone_tables_read_the_faster_side_and_analyze_reads_the_kernel(
    count_calls, shape, standalone_rows
):
    from torifactor import gale
    from torifactor.pipeline import analyze

    laplace = count_calls(gale, "_laplace_minors", everywhere=False)
    rng = random.Random(27)
    n, r = shape
    v = random_unimodular(rng, n) @ random_reduced_f_matrix(rng, n, r)
    laplace.clear()
    assert list(_minors(v).items()) == _oracle_minors(v)
    assert [len(args[0]) for args in laplace] == [standalone_rows]
    laplace.clear()
    analyze(v, fan_index=0)
    assert [len(args[0]) for args in laplace] == [r]


def test_classify_F_takes_a_kernel_only_on_the_kernel_side(count_calls):
    # the worked examples read V; a tall matrix reads its saturated kernel, once
    from torifactor import lattices

    kernels = count_calls(lattices, "kernel_saturation")
    rng = random.Random(9)
    tall = [random_reduced_f_matrix(rng, *shape) for shape in ((7, 3), (8, 2), (10, 2))]
    for v in (EX1_V, EX2_V, EX1_VHAT, *tall):
        kernels.clear()
        assert classify_F(v).is_F
        assert kernels == ([(v,)] if _reads_kernel_side(v.rows, v.cols - v.rows) else [])
        assert (v in tall) == bool(kernels)


@pytest.mark.parametrize("seed_shape", [None, (6, 3), (4, 4)])
def test_analyze_takes_four_hnf_as_gale_dual_reuses_the_minor_kernel(count_calls, seed_shape):
    # the kernel is held before the fan-matrix check, so the minor table and
    # gale_dual read one HNF of V^T, also where a standalone table reads V
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
        assert [args for args in calls if args == (v.transpose(),)] == [(v.transpose(),)]


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


@pytest.mark.parametrize("generator", [random_cf_matrix, random_reduced_f_matrix])
def test_generators_give_up_on_a_shape_without_reduced_fan_matrices(count_calls, generator):
    # three columns in dimension 1 repeat a direction, so (1, 2) has none
    draws = count_calls(_randgen, "classify_F", everywhere=False)
    with pytest.raises(SearchLimitExceeded, match=r"shape \(n, r\) = \(1, 2\) in 1000 draws"):
        generator(random.Random(0), 1, 2)
    assert len(draws) == MAX_CF_DRAWS


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


def test_positive_span_in_dimension_two():
    # a zero column is a positive circuit of its own
    assert positive_span_is_full(IntMatrix([[1, 0, -1, 0], [0, 1, -1, 0]]))
    # spanning through two antipodal pairs, each a positive circuit
    assert positive_span_is_full(IntMatrix([[1, -1, 0, 0], [0, 0, 1, -1]]))
    # every column in one open half-plane
    assert not positive_span_is_full(IntMatrix([[1, 0, 1], [0, 1, 1]]))
    # rank 1: no circuits
    assert not positive_span_is_full(IntMatrix([[1, -1, 0], [0, 0, 0]]))
    # e_1 lies on no positive circuit
    assert not positive_span_is_full(IntMatrix([[1, -1, 0], [0, 0, 1]]))


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


def _classify_W_counting_kernels(q):
    """``classify_W(q)`` and the number of kernels it takes."""
    from torifactor import gale

    kernels = []
    original = gale.kernel_saturation

    def counted(m):
        kernels.append(m)
        return original(m)

    with mock.patch.object(gale, "kernel_saturation", counted):
        report = classify_W(q)
    assert kernels[0] is q
    return report, len(kernels)


def _scale_row_0(q, scale):
    return IntMatrix([[scale * x for x in q.row(0)]] + [q.row(i) for i in range(1, q.rows)])


def test_classify_W_takes_one_kernel_when_b_holds():
    # when (b) holds the kernel of K is the row lattice of q, which (e) builds anyway;
    # otherwise the positive-span test of (c) takes the kernel of K when K has more
    # rows than its corank, as for EX2_Q with a row scaled
    for q in (EX1_Q, EX2_Q, IntMatrix([[1, -1, 0], [0, 0, 1]])):
        assert _classify_W_counting_kernels(q) == (classify_W(q), 1)
    # with (b) failing, the minor table of K follows the side rule: the 4 x 6
    # K of EX2_Q reads its own minors, the 8 x 10 K of a tall dual its kernel
    report, kernels = _classify_W_counting_kernels(_scale_row_0(EX2_Q, 2))
    assert (report.failed_conditions, kernels) == (("b",), 1)
    tall = gale_dual(random_reduced_f_matrix(random.Random(4), 8, 2))
    report, kernels = _classify_W_counting_kernels(_scale_row_0(tall, 2))
    assert (report.failed_conditions, kernels) == (("b",), 2)


def test_classify_W_takes_one_hnf(count_calls):
    # the kernel of q and the [I; 0] test of (b) read one HNF of q^T
    from torifactor import normal_forms

    calls = count_calls(normal_forms, "hnf")
    for q in (EX1_Q, EX2_Q):
        calls.clear()
        assert classify_W(q).is_W
        assert calls == [(q.transpose(),)]


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32), st.integers(1, 3))
def test_classify_W_reports_and_kernel_counts_on_random_weight_matrices(shape, seed, scale):
    rng = random.Random(seed)
    n, r = shape
    q = random_unimodular(rng, r) @ gale_dual(random_reduced_f_matrix(rng, n, r))
    q = _scale_row_0(q, scale)
    report, kernels = _classify_W_counting_kernels(q)
    assert report.failed_conditions == oracle_classify_W(q)
    saturated = "b" not in report.failed_conditions
    assert saturated == (scale == 1)
    assert kernels == (1 if saturated or not _reads_kernel_side(n, r) else 2)


@pytest.mark.parametrize(
    "q",
    [[[1, 0]], [[1, 0, 0], [0, 1, 0]], [[2, -2, 0, 0], [0, 0, 1, 1]], [[2, 1, 1], [0, 1, 1]]],
)
def test_require_W_message_on_non_weight_matrices(q):
    q = IntMatrix(q)
    failed = oracle_classify_W(q)
    assert failed and classify_W(q).failed_conditions == failed
    with pytest.raises(PreconditionError) as err:
        require_W(q)
    assert str(err.value) == "not a weight matrix; failed conditions: " + ", ".join(failed)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32), st.integers(2, 3))
def test_minor_table_matches_column_determinants(shape, seed, scale):
    # under a GL_n(Z) row action, and with a row scaled so that |lambda| > 1
    rng = random.Random(seed)
    v = random_unimodular(rng, shape[0]) @ random_reduced_f_matrix(rng, *shape)
    scaled = IntMatrix([[scale * x for x in v.row(0)]] + [v.row(i) for i in range(1, v.rows)])
    for w in (v, scaled, EX1_V, EX1_VHAT):
        assert list(_minors(w).items()) == _oracle_minors(w)


def _oracle_minors(v):
    """``(mask of c, det V_c)`` for every n-subset ``c``, in lexicographic order."""
    return [
        (sum(1 << j for j in c), det(v.select_cols(c)))
        for c in combinations(range(v.cols), v.rows)
    ]


def test_minor_table_of_a_rank_deficient_matrix_is_zero_with_no_determinant(count_calls):
    from torifactor import gale

    dets = count_calls(gale, "_det_rows", everywhere=False)
    # row 2 is twice row 0 plus row 1; with its kernel held, the tall matrix
    # reads the kernel side, whose rank 3 > r = 2 gives every minor as 0
    tall = IntMatrix([[1, 2, 0, -1, 3], [0, 1, 1, 2, -2], [2, 5, 1, 0, 4]])
    with shared_tables():
        assert _kernel(tall).rank == 3
        assert list(_minors(tall).items()) == _oracle_minors(tall)
    assert set(_minors(tall).values()) == {0}
    assert dets == []
    wide = IntMatrix([[1, -2, 3, 0], [-2, 4, -6, 0]])
    assert list(_minors(wide).items()) == _oracle_minors(wide)
    assert set(_minors(wide).values()) == {0}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", SIDE_SHAPES + ((1, 1), (2, 2), (2, 3), (3, 4)))
def test_minor_table_is_the_same_from_both_sides(count_calls, shape, seed):
    # standalone the table reads the side the rule picks; inside a table that
    # holds the kernel it reads the kernel whenever r < n; both give the n x n
    # determinants, also under a row action, with a row scaled and with rank below n
    from torifactor import gale

    laplace = count_calls(gale, "_laplace_minors", everywhere=False)
    rng = random.Random(seed)
    n, r = shape
    v = random_unimodular(rng, n) @ random_reduced_f_matrix(rng, n, r)
    rows = [list(row) for row in v]
    scaled = IntMatrix([[3 * x for x in rows[0]]] + rows[1:])
    coefficients = [rng.randint(-2, 2) for _ in rows[:-1]]
    combination = [sum(a * row[j] for a, row in zip(coefficients, rows)) for j in range(n + r)]
    deficient = IntMatrix(rows[:-1] + [combination])
    for w in (v, scaled, deficient):
        oracle = _oracle_minors(w)
        laplace.clear()
        assert list(_minors(w).items()) == oracle
        with shared_tables():
            _kernel(w)
            assert list(_minors(w).items()) == oracle
        read_rows = [len(args[0]) for args in laplace]
        kernel_rows = [r] * (w is not deficient)
        outside = kernel_rows if _reads_kernel_side(n, r) else [n]
        inside = kernel_rows if r < n else [n]
        assert read_rows == outside + inside


def test_positive_span_of_a_square_matrix_reads_an_empty_kernel_minor():
    # r = 0 < n: the one r x r minor of the kernel is the empty determinant, 1
    squares = ([[2, 1], [1, 3]], [[-3]], [[1, 0, 2], [0, 1, 0], [1, 1, 1]])
    for v in map(IntMatrix, squares):
        assert list(_minors(v).items()) == _oracle_minors(v)
        assert not positive_span_is_full(v)
        assert not oracle_positive_span_is_full(v)
