import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from torifactor import IntMatrix, Lattice, ShapeError, TorsionMatrix, det, rank, vector_content
from torifactor.intmat import (
    _TABLES,
    _cached,
    _det_adjugate,
    _det_adjugate_rows,
    _det_rows,
    _int_text,
    _laplace_minors,
    shared_tables,
)

from _exampledata import EX2_Q, EX2_V, REID_BETA


def test_constructor_rejects_empty_and_ragged():
    with pytest.raises(ShapeError):
        IntMatrix([])
    with pytest.raises(ShapeError):
        IntMatrix([[]])
    with pytest.raises(ShapeError):
        IntMatrix([[1, 2], [3]])


def test_empty_slices_still_raise_shape_error():
    a = IntMatrix([[1, 2], [3, 4]])
    for empty in (lambda: a.top_rows(0), lambda: a.bottom_rows(0), lambda: a.select_rows([])):
        with pytest.raises(ShapeError):
            empty()


def _matrices(max_rows=4, max_cols=4):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-9, 9) | st.booleans(), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


@given(_matrices(), _matrices(), st.integers(-3, 3))
def test_internal_results_are_tuples_of_int_tuples(rows, other, k):
    # results built unchecked by IntMatrix._of hold what the checked constructor would
    from torifactor import enumerate_fans, hnf, picard_basis, picard_index_sets, snf

    a, b = IntMatrix(rows), IntMatrix(other)
    h, s = hnf(a), snf(a)
    results = [a @ a.transpose(), a.transpose(), a.vstack(a), a.hstack(a), -a, k * a, a * k]
    results += [b.transpose() @ b, b.vstack(b.top_rows(1)), a.hstack(a.select_cols([0]))]
    results += [h.H, h.U, s.D, s.U_left, s.U_right]
    # positive definite, so never singular
    results.append(_det_adjugate(a @ a.transpose() + IntMatrix.identity(a.rows))[1])
    fan = enumerate_fans(EX2_V)[a.rows % 3]
    results.append(picard_basis(EX2_Q, picard_index_sets(fan)).B)
    for m in results:
        assert type(m._rows) is tuple and m._rows
        assert all(type(row) is tuple and len(row) == m.cols for row in m._rows)
        assert all(type(x) is int for row in m._rows for x in row)
        checked = IntMatrix(m.tolist())
        assert m == checked and hash(m) == hash(checked)


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_equality_is_entrywise():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a == IntMatrix([[1, 2], [3, 4]])
    assert a != IntMatrix([[1, 2], [3, 5]])
    assert hash(a) == hash(IntMatrix([[1, 2], [3, 4]]))


def test_matmul_and_transpose():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a @ b == IntMatrix([[2, 1], [4, 3]])
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
    with pytest.raises(ShapeError):
        a @ IntMatrix([[1, 2, 3]])


def test_block_diagonal_and_permutation():
    b = IntMatrix.block_diagonal([IntMatrix([[2]]), IntMatrix.identity(2)])
    assert b == IntMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    s = IntMatrix.permutation([2, 0, 1])
    m = IntMatrix([[10, 20, 30]])
    assert m @ s == IntMatrix([[30, 10, 20]])


_SQUARE = IntMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: IntMatrix.permutation([0, 0, 1]), ShapeError, "not a permutation of 0..n-1"),
        (lambda: _SQUARE.col(2), IndexError, "^2$"),
        (lambda: _SQUARE.col(-1), IndexError, "^-1$"),
        (lambda: _SQUARE.vstack(IntMatrix([[1, 2, 3]])), ShapeError, "column counts differ"),
        (lambda: _SQUARE.hstack(IntMatrix([[1]])), ShapeError, "row counts differ"),
        (lambda: _SQUARE + IntMatrix([[1, 2]]), ShapeError, "shape mismatch"),
        (lambda: _SQUARE - IntMatrix([[1], [2]]), ShapeError, "shape mismatch"),
    ],
    ids=["permutation", "col past the end", "negative col", "vstack", "hstack", "add", "sub"],
)
def test_shape_errors_name_the_mismatch(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "left, method, right, want",
    [
        (_SQUARE, "__eq__", [[1, 2], [3, 4]], NotImplemented),
        (_SQUARE, "__add__", 1, NotImplemented),
        (_SQUARE, "__sub__", 1, NotImplemented),
        (_SQUARE, "__matmul__", [[1], [1]], NotImplemented),
        (Lattice.from_matrix(_SQUARE), "__eq__", _SQUARE, NotImplemented),
        (TorsionMatrix([2], [[1, 0]]), "__eq__", _SQUARE, NotImplemented),
        (_SQUARE, "__sub__", IntMatrix([[1, 1], [5, 1]]), IntMatrix([[0, 1], [-2, 3]])),
    ],
    ids=["eq", "add", "sub", "matmul", "lattice eq", "torsion eq", "sub of matrices"],
)
def test_operator_dunders_on_foreign_and_matching_operands(left, method, right, want):
    # NotImplemented on a foreign operand lets Python try the reflected
    # operation, then fall back to identity for == and raise TypeError for
    # the arithmetic
    assert getattr(left, method)(right) == want


def test_det_triangular():
    assert det(IntMatrix.diagonal([1, 1, 5])) == 5
    assert det(IntMatrix.identity(4)) == 1


def test_det_reconstruction_factor_by_cofactors():
    # cofactor expansion along the first row:
    # 1*(0*0 - 1*3) - 4*(0*0 - 1*2) + 0 = -3 + 8 = 5
    assert det(REID_BETA) == 5


def test_det_rejects_non_square():
    with pytest.raises(ShapeError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_multiplicative_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        b = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert det(a @ b) == det(a) * det(b)


def test_det_big_integers_stay_exact():
    big = 10**30
    m = IntMatrix([[big, 1], [1, big]])
    assert det(m) == big * big - 1


def test_rank_matches_pivot_count():
    assert rank(IntMatrix([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix.identity(3)) == 3
    assert rank(IntMatrix.zeros(2, 3)) == 0
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        # duplicating rows never raises the rank
        doubled = m.vstack(m)
        assert rank(doubled) == rank(m)


def test_vector_content():
    assert vector_content((4, 6)) == 2
    assert vector_content((0, 0)) == 0
    assert vector_content((-3, 0, 9)) == 3


def _square_matrices(max_n=5, bound=9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@given(_square_matrices())
def test_det_adjugate_matches_sympy(rows):
    sympy = __import__("sympy")
    d, adj = _det_adjugate(IntMatrix(rows))
    theirs = sympy.Matrix(rows)
    assert d == theirs.det()
    if d == 0:
        assert adj is None
    else:
        assert adj.tolist() == theirs.adjugate().tolist()


@pytest.mark.parametrize("n", range(10))
def test_det_rows_matches_det_and_sympy(n):
    # 0 rows give the empty determinant; some matrices have a repeated row or a
    # zero leading column, so that elimination swaps rows or stops early
    sympy = __import__("sympy")
    rng = random.Random(n)
    for variant in ("plain", "repeated", "zero column"):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if variant == "repeated" and n > 1:
            rows[-1] = list(rows[0])
        elif variant == "zero column":
            for row in rows[: n - 1]:
                row[0] = 0
        want = sympy.Matrix(n, n, [x for row in rows for x in row]).det()
        assert _det_rows([list(row) for row in rows]) == want
        if n:
            assert det(IntMatrix(rows)) == want
            d, adj = _det_adjugate_rows(rows)
            assert d == want and (adj is None) == (want == 0)


@pytest.mark.parametrize("k", range(1, 6))
def test_laplace_minors_match_det_and_sympy(k):
    # every k x k minor of a k x m matrix, keyed by column mask in lexicographic
    # order; some matrices have a zero column, or a last row that is the sum of
    # the others, which makes every minor 0
    sympy = __import__("sympy")
    rng = random.Random(k)
    for m in (k, k + 1, k + 3):
        for variant in ("plain", "zero column", "dependent row"):
            rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(k)]
            if variant == "zero column":
                for row in rows:
                    row[m // 2] = 0
            elif variant == "dependent row":
                rows[-1] = [sum(col[:-1]) for col in zip(*rows)]
            subsets = list(combinations(range(m), k))
            minors = _laplace_minors(rows, m)
            assert list(minors) == [sum(1 << j for j in c) for c in subsets]
            v = IntMatrix(rows)
            assert list(minors.values()) == [det(v.select_cols(c)) for c in subsets]
            for c, d in zip(subsets, minors.values()):
                assert d == sympy.Matrix([[row[j] for j in c] for row in rows]).det()
            if variant == "dependent row":
                assert set(minors.values()) == {0}
    assert _laplace_minors([], 3) == {0: 1}


def test_det_adjugate_of_singular_and_rectangular():
    assert _det_adjugate(IntMatrix([[1, 2], [2, 4]])) == (0, None)
    assert _det_adjugate(IntMatrix([[0, 1], [1, 0]])) == (-1, IntMatrix([[0, -1], [-1, 0]]))
    with pytest.raises(ShapeError):
        _det_adjugate(IntMatrix([[1, 2]]))


def test_cached_values_live_for_the_outermost_block():
    computed = []

    def compute(tag):
        computed.append(tag)
        return tag

    a, b = IntMatrix([[1, 2]]), IntMatrix([[1, 2]])
    assert _cached(a, "k", lambda: compute(1)) == _cached(a, "k", lambda: compute(2)) - 1
    with shared_tables():
        with shared_tables():
            assert _cached(a, "k", lambda: compute(3)) == 3
        # the inner block shares the outer table; equal matrices do not share entries
        assert _cached(a, "k", lambda: compute(4)) == 3
        assert _cached(b, "k", lambda: compute(5)) == 5
        assert _cached(a, "j", lambda: compute(6)) == 6
    assert _TABLES.get() is None
    assert _cached(a, "k", lambda: compute(7)) == 7
    assert computed == [1, 2, 3, 5, 6, 7]


def test_nested_blocks_share_one_table_that_an_exception_drops():
    with shared_tables():
        outer = _TABLES.get()
        assert outer == {}
        with shared_tables():
            assert _TABLES.get() is outer
        assert _TABLES.get() is outer
        # an exception out of an inner block leaves the outer table open
        with pytest.raises(KeyError):
            with shared_tables():
                raise KeyError
        assert _TABLES.get() is outer
    assert _TABLES.get() is None
    # and one out of the outermost block drops the table
    with pytest.raises(KeyError):
        with shared_tables():
            with shared_tables():
                _cached(EX2_V, "k", dict)
                raise KeyError
    assert _TABLES.get() is None


def test_int_text_counts_the_digits_beyond_the_conversion_limit():
    limit = sys.get_int_max_str_digits()
    assert _int_text(-123) == "-123"
    if limit:
        assert _int_text(10**limit) == f"<integer of {limit + 1} digits>"
        assert _int_text(-(10 ** (limit + 1) - 1)) == f"-<integer of {limit + 1} digits>"


def test_repr_writes_entries_beyond_the_digit_limit_by_their_digit_count():
    assert repr(IntMatrix([[1, -2], [3, 4]])) == "IntMatrix([[1, -2], [3, 4]])"
    limit = sys.get_int_max_str_digits()
    if limit:
        big = f"<integer of {limit + 1} digits>"
        assert repr(IntMatrix([[10**limit, -1]])) == f"IntMatrix([[{big}, -1]])"
