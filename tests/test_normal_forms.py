import random

import pytest
import sympy
from hypothesis import example, given, strategies as st

from torifactor import (
    IntMatrix,
    Lattice,
    PreconditionError,
    ShapeError,
    det,
    hnf,
    rank,
    snf,
    unimodular_inverse,
)
from torifactor.normal_forms import _hnf_fold, _hnf_in_place, _hnf_reduce, _modular_hnf

from _exampledata import EX2_BETA, EX2_DELTA, EX2_H, EX2_HHAT, EX2_V, EX2_VHAT, EX1_Q, REID_K
from _randgen import hnf_pivot_columns, random_matrix, random_unimodular, rational_membership


def _is_row_hnf(h: IntMatrix) -> bool:
    """Defining shape of a row HNF: positive pivots strictly moving right,
    entries above each pivot reduced into [0, pivot), zero rows last."""
    last_pivot = -1
    seen_zero_row = False
    for i in range(h.rows):
        row = h.row(i)
        j = next((k for k, x in enumerate(row) if x != 0), None)
        if j is None:
            seen_zero_row = True
            continue
        if seen_zero_row or j <= last_pivot or row[j] <= 0:
            return False
        for above in range(i):
            if not 0 <= h[above, j] < row[j]:
                return False
        last_pivot = j
    return True


def test_hnf_of_transposed_weight_vector():
    res = hnf(EX1_Q.transpose())
    assert res.H == IntMatrix([[1], [0], [0], [0]])
    assert res.U @ EX1_Q.transpose() == res.H


def test_hnf_of_reconstruction_column():
    res = hnf(REID_K)
    assert res.H == IntMatrix([[1], [0], [0], [0]])


def test_hnf_idempotent_on_hnf_input():
    a = IntMatrix([[2, 1, 0], [0, 3, 1]])
    first = hnf(a).H
    again = hnf(first)
    assert again.H == first
    assert again.U @ first == first


def test_hnf_of_worked_examples():
    assert hnf(EX2_V).H == EX2_H
    assert hnf(EX2_VHAT).H == EX2_HHAT


def test_hnf_defining_properties_random():
    rng = random.Random(101)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, bound=6)
        res = hnf(a)
        assert res.U @ a == res.H
        assert abs(det(res.U)) == 1
        assert _is_row_hnf(res.H)


def test_hnf_unique_under_unimodular_row_action():
    rng = random.Random(77)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, bound=4)
        u = random_unimodular(rng, rows)
        assert hnf(a).H == hnf(u @ a).H


def test_snf_diagonal_examples():
    assert snf(IntMatrix.diagonal([1, 1, 5])).D == IntMatrix.diagonal([1, 1, 5])
    assert snf(IntMatrix.identity(4)).D == IntMatrix.identity(4)
    # diagonal already, but no divisor chain: both HNFs leave these as they
    # are, and only the column addition of the divisor-chain fix-up moves them
    for a, want in (([5, 1], [1, 5]), ([4, 6], [2, 12])):
        res = snf(IntMatrix.diagonal(a))
        assert res.D == IntMatrix.diagonal(want)
        assert res.U_left @ IntMatrix.diagonal(a) @ res.U_right == res.D


def test_snf_of_covering_factor():
    res = snf(EX2_BETA)
    assert res.D == EX2_DELTA
    assert res.U_left @ EX2_BETA @ res.U_right == res.D


def test_snf_defining_properties_random():
    rng = random.Random(303)
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols, bound=5)
        res = snf(a)
        assert res.U_left @ a @ res.U_right == res.D
        assert abs(det(res.U_left)) == 1
        assert abs(det(res.U_right)) == 1
        diag = [res.D[i, i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for d, e in zip(diag, diag[1:]):
            if d == 0:
                assert e == 0
            else:
                assert e % d == 0
        assert all(
            res.D[i, j] == 0 for i in range(rows) for j in range(cols) if i != j
        )


def test_snf_invariant_under_unimodular_actions():
    rng = random.Random(404)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, bound=4)
        u = random_unimodular(rng, n)
        w = random_unimodular(rng, n)
        assert snf(a).D == snf(u @ a @ w).D


def test_snf_diagonal_product_equals_det():
    rng = random.Random(505)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, bound=4)
        d = det(a)
        if d == 0:
            continue
        prod = 1
        for i in range(n):
            prod *= snf(a).D[i, i]
        assert prod == abs(d)


def test_snf_cross_check_against_sympy():
    sympy = __import__("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(606)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, bound=5)
        ours = [snf(a).D[i, i] for i in range(n)]
        theirs = smith_normal_form(sympy.Matrix(a.tolist()))
        ref = sorted(abs(theirs[i, i]) for i in range(n))
        assert sorted(ours) == ref


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32))
def test_hnf_row_lattice_matches_sympy(rows, cols, seed):
    # sympy's form is column-style: its columns are a basis of the column
    # lattice, so it is compared as a lattice with the rows of ours
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    a = random_matrix(random.Random(seed), rows, cols, bound=6)
    ours = [list(r) for r in hnf(a).H.tolist() if any(r)]
    ref = hermite_normal_form(Matrix(a.transpose().tolist()))
    theirs = [[int(x) for x in ref.col(k)] for k in range(ref.cols)]
    assert len(ours) == len(theirs) == Matrix(a.tolist()).rank()
    assert all(rational_membership(r, theirs) for r in ours)
    assert all(rational_membership(r, ours) for r in theirs)


def test_unimodular_inverse():
    rng = random.Random(909)
    for _ in range(30):
        n = rng.randint(1, 5)
        u = random_unimodular(rng, n)
        assert abs(det(u)) == 1
        inverse = unimodular_inverse(u)
        assert inverse @ u == IntMatrix.identity(n)
        # the HNF of a unimodular matrix is I, so its transform is the inverse
        assert inverse == hnf(u).U


def test_unimodular_inverse_rejects_other_matrices():
    for u in (IntMatrix([[2, 0], [0, 1]]), IntMatrix([[1, 1], [1, -1]]), IntMatrix([[0, 0], [0, 1]])):
        with pytest.raises(PreconditionError):
            unimodular_inverse(u)
    with pytest.raises(ShapeError):
        unimodular_inverse(IntMatrix([[1, 0, 0], [0, 1, 0]]))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32))
def test_rank_matches_sympy(rows, cols, k, seed):
    # a product through an inner dimension k has rank at most k, so it is rank
    # deficient whenever k < min(rows, cols)
    rng = random.Random(seed)
    a = random_matrix(rng, rows, k, bound=4) @ random_matrix(rng, k, cols, bound=4)
    assert rank(a) == sympy.Matrix(a.tolist()).rank()
    b = random_matrix(rng, rows, cols, bound=4)
    assert rank(b) == sympy.Matrix(b.tolist()).rank()


def test_pivot_columns():
    res = hnf(IntMatrix([[0, 2, 1], [0, 0, 3]]))
    assert hnf_pivot_columns(res.H) == (1, 2)


@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_transform_free_hnf_core_matches_hnf(m, n, k, w, seed):
    # a product through an inner dimension k is rank deficient whenever
    # k < min(m, n); the trailing block b takes every row operation and
    # steers none, so [a | b] ends as [H | U b], the U of hnf(a) included
    # where it is not unique
    rng = random.Random(seed)
    a = random_matrix(rng, m, k, bound=4) @ random_matrix(rng, k, n, bound=4)
    b = random_matrix(rng, m, w, bound=20)
    res = hnf(a)
    h = a.tolist()
    _hnf_in_place(h, n)
    assert IntMatrix(h) == res.H
    rows = [list(x + y) for x, y in zip(a, b)]
    _hnf_in_place(rows, n)
    assert IntMatrix(rows) == res.H.hstack(res.U @ b)


@given(
    st.integers(1, 5).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.integers(1, 30),
            st.lists(st.lists(st.integers(-70, 70), min_size=r, max_size=r), max_size=5),
        )
    )
)
@example((3, 1, [[4, -7, 2]]))
@example((2, 12, []))
def test_modular_hnf_matches_the_lattice_oracle(case):
    r, delta, drawn = case
    # duplicate rows and a zero row ride along; entries are negative and beyond delta
    rows = drawn + drawn[:2] + [[0] * r]
    scaled = [[delta if i == j else 0 for j in range(r)] for i in range(r)]
    h = _modular_hnf(rows, r, delta)
    assert tuple(map(tuple, h)) == Lattice(r, rows + scaled).basis_rows
    assert IntMatrix(h) == hnf(IntMatrix(rows + scaled)).H.top_rows(r)
    assert _is_row_hnf(IntMatrix(h))
    assert all(h[k][k] > 0 and delta % h[k][k] == 0 for k in range(r))


_ROW_LISTS = st.integers(1, 5).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.integers(1, 30),
        st.integers(1, 6),
        *[st.lists(st.lists(st.integers(-70, 70), min_size=r, max_size=r), max_size=4)] * 2,
        st.booleans(),
    )
)


@given(_ROW_LISTS)
@example((2, 6, 5, [[1, 4]], [[3, 9]], False))
@example((3, 1, 1, [], [[4, -7, 2]], True))
def test_fold_into_an_existing_state_matches_one_modular_hnf(case):
    r, delta, c, first, second, reduced = case
    # the state after the first rows, reduced above the pivots or as the fold left it
    w = [[delta if i == j else 0 for j in range(r)] for i in range(r)]
    _hnf_fold(w, first, delta)
    if reduced:
        _hnf_reduce(w)
    before, copied = list(w), [list(row) for row in w]
    _hnf_fold(w, second, delta)
    _hnf_reduce(w)
    assert before == copied  # rows are replaced, never changed in place
    assert w == _modular_hnf(first + second, r, delta)
    # c * w is a start state for the modulus c * delta: the HNF of c * L
    start = [[c * x for x in row] for row in before]
    _hnf_fold(start, second, c * delta)
    _hnf_reduce(start)
    assert start == _modular_hnf([[c * x for x in row] for row in first] + second, r, c * delta)
