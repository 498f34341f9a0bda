import random
import sys

import pytest
from hypothesis import given, strategies as st

from torifactor import IntMatrix, ShapeError, det, rank, vector_content
from torifactor.intmat import (
    _TABLES,
    _cached,
    _det_adjugate,
    _det_adjugate_rows,
    _det_rows,
    _int_text,
    _shared_tables,
)

from _exampledata import REID_BETA


def test_constructor_rejects_empty_and_ragged():
    with pytest.raises(ShapeError):
        IntMatrix([])
    with pytest.raises(ShapeError):
        IntMatrix([[]])
    with pytest.raises(ShapeError):
        IntMatrix([[1, 2], [3]])


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
    with _shared_tables():
        with _shared_tables():
            assert _cached(a, "k", lambda: compute(3)) == 3
        # the inner block shares the outer table; equal matrices do not share entries
        assert _cached(a, "k", lambda: compute(4)) == 3
        assert _cached(b, "k", lambda: compute(5)) == 5
        assert _cached(a, "j", lambda: compute(6)) == 6
    assert _TABLES.get() is None
    assert _cached(a, "k", lambda: compute(7)) == 7
    assert computed == [1, 2, 3, 5, 6, 7]


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
