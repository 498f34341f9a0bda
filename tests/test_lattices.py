import random
import sys

import pytest

from torifactor import (
    IntMatrix,
    Lattice,
    ShapeError,
    kernel_saturation,
    rank,
)

from _exampledata import EX1_VHAT, EX2_B1, EX2_Q, EX2_VHAT
from _randgen import (
    box_vectors,
    kernel_by_enumeration,
    lattice_from_vectors,
    lattice_intersection,
    random_matrix,
    rational_membership,
)


def test_lattice_canonical_equality():
    a = Lattice(3, [[1, 0, 1], [0, 1, -3]])
    b = Lattice(3, [[1, 1, -2], [0, 1, -3]])  # same span, different basis
    assert a == b
    assert hash(a) == hash(b)


def test_lattice_membership():
    lat = Lattice(2, [[2, 0], [0, 3]])
    assert (2, 3) in lat
    assert (4, -3) in lat
    assert (1, 0) not in lat
    assert (0, 0) in lat
    with pytest.raises(ShapeError):
        (1, 2, 3) in lat


def test_lattice_rejects_non_integer_basis_rows():
    # int() would truncate these to the basis ((1, 0), (0, 2))
    with pytest.raises(ShapeError, match="must be integers"):
        Lattice(2, [[1.9, 0.5], [0, 2]])


def test_lattice_membership_rejects_non_integer_vectors():
    # int() would truncate (1.5, 0) to the member (1, 0)
    with pytest.raises(ShapeError, match="must be integers"):
        [1.5, 0] in Lattice(2, [[1, 0]])


@pytest.mark.parametrize(
    "build", [lambda: Lattice(2.0, [[1, 0]]), lambda: Lattice.full(2.0), lambda: Lattice.zero("2")]
)
def test_lattice_rejects_a_non_integer_ambient_dimension(build):
    with pytest.raises(ShapeError, match="ambient dimension"):
        build()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Lattice(0), ShapeError, "ambient dimension must be positive"),
        (lambda: Lattice(2, [[1, 0, 0]]), ShapeError, "row length does not match ambient"),
        (lambda: Lattice.zero(2).basis_matrix(), ValueError, "zero lattice has no basis matrix"),
        (
            lambda: Lattice.full(2).is_sublattice_of(Lattice.full(3)),
            ShapeError,
            "ambient dimensions differ",
        ),
    ],
    ids=["ambient below 1", "row length", "zero basis matrix", "sublattice ambient"],
)
def test_lattice_rejects_inconsistent_shapes(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_zero_and_full_lattices():
    z = Lattice.zero(3)
    assert z.rank == 0
    assert (0, 0, 0) in z
    assert (1, 0, 0) not in z
    assert Lattice.full(2) == Lattice(2, [[1, 0], [0, 1]])


def test_kernel_of_all_ones_row():
    ker = kernel_saturation(IntMatrix([[1, 1, 1, 1]]))
    assert ker == Lattice.from_matrix(EX1_VHAT)


def test_kernel_of_identity_is_zero():
    assert kernel_saturation(IntMatrix.identity(3)).rank == 0


def test_kernel_of_zero_matrix_is_full():
    assert kernel_saturation(IntMatrix.zeros(2, 3)) == Lattice.full(3)


def test_kernel_of_weight_matrix_is_covering_lattice():
    ker = kernel_saturation(EX2_Q)
    assert ker.rank == 4
    assert ker == Lattice.from_matrix(EX2_VHAT)


def test_kernel_rows_are_orthogonal():
    rng = random.Random(21)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 5), bound=4)
        ker = kernel_saturation(m)
        assert ker.rank == m.cols - rank(m)
        for row in ker.basis_rows:
            for mrow in m:
                assert sum(a * b for a, b in zip(row, mrow)) == 0


def test_kernel_saturation_property():
    # if k*x lies in the kernel lattice then so does x
    rng = random.Random(22)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 4), bound=3)
        ker = kernel_saturation(m)
        if ker.rank == 0:
            continue
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in range(ker.rank)]
            y = [
                sum(c * row[k] for c, row in zip(coeffs, ker.basis_rows))
                for k in range(m.cols)
            ]
            for k in (2, 3, 5):
                if all(v % k == 0 for v in y):
                    assert [v // k for v in y] in ker


def test_kernel_against_enumeration_oracle():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), bound=4)
        ker = kernel_saturation(m)
        radius = max(
            (abs(x) for row in ker.basis_rows for x in row), default=1
        )
        if radius > 8:
            continue
        radius += 1
        enumerated = kernel_by_enumeration(m, radius)
        # pointwise agreement inside the box
        for x in box_vectors(m.cols, radius):
            assert (x in ker) == (tuple(x) in set(enumerated) or all(
                sum(a * b for a, b in zip(row, x)) == 0 for row in m
            ))
        # the enumerated vectors generate exactly the kernel lattice
        assert lattice_from_vectors(m.cols, enumerated) == ker
        checked += 1


def test_intersection_idempotent_commutative():
    a = Lattice(2, [[2, 0], [0, 1]])
    b = Lattice(2, [[1, 0], [0, 3]])
    assert lattice_intersection(a, a) == a
    assert lattice_intersection(a, b) == lattice_intersection(b, a)


def test_intersection_of_scaled_axes():
    # brute force over residues mod 6 in each coordinate gives (2Z) x (3Z)
    a = Lattice(2, [[2, 0], [0, 1]])
    b = Lattice(2, [[1, 0], [0, 3]])
    expected = Lattice(2, [[2, 0], [0, 3]])
    inter = lattice_intersection(a, b)
    assert inter == expected
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert ((x, y) in inter) == ((x, y) in a and (x, y) in b)


def test_intersection_full_ambient():
    full = Lattice.full(2)
    assert lattice_intersection(full, full) == full


def test_intersection_associative_random():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(1, 3)
        lats = [
            Lattice.from_matrix(random_matrix(rng, rng.randint(1, m), m, bound=4))
            for _ in range(3)
        ]
        a, b, c = lats
        left = lattice_intersection(lattice_intersection(a, b), c)
        right = lattice_intersection(a, lattice_intersection(b, c))
        assert left == right


def test_intersection_against_membership_oracle():
    rng = random.Random(32)
    checked = 0
    while checked < 40:
        m = rng.randint(1, 3)
        a = Lattice.from_matrix(random_matrix(rng, rng.randint(1, m), m, bound=4))
        b = Lattice.from_matrix(random_matrix(rng, rng.randint(1, m), m, bound=4))
        if a.rank == 0 or b.rank == 0:
            continue
        inter = lattice_intersection(a, b)
        entries = [abs(x) for lat in (a, b, inter) for row in lat.basis_rows for x in row]
        radius = max(entries, default=1) + 1
        if radius > 9:
            continue
        for x in box_vectors(m, radius):
            in_both = rational_membership(x, a.basis_rows) and rational_membership(
                x, b.basis_rows
            )
            assert (list(x) in inter) == in_both
        checked += 1


def test_intersection_of_picard_blocks():
    # the rank-2 worked example: intersecting the column lattices over the
    # complements of one fan reproduces the first Picard basis lattice
    from torifactor import enumerate_fans, picard_index_sets

    from _exampledata import EX2_V

    fans = enumerate_fans(EX2_V)
    lattices = []
    for fan in fans:
        current = Lattice.full(2)
        for idx in picard_index_sets(fan).sets:
            block = EX2_Q.select_cols(idx)
            current = lattice_intersection(current, Lattice.from_matrix(block.transpose()))
        lattices.append(current)
    assert Lattice.from_matrix(EX2_B1) in lattices


def test_intersection_rejects_mixed_ambient():
    with pytest.raises(ShapeError):
        lattice_intersection(Lattice.full(2), Lattice.full(3))


def test_repr_writes_entries_beyond_the_digit_limit_by_their_digit_count():
    assert repr(Lattice(2, [[2, 0], [0, 3]])) == "Lattice(ambient=2, basis=[[2, 0], [0, 3]])"
    assert repr(Lattice.zero(3)) == "Lattice(ambient=3, basis=[])"
    limit = sys.get_int_max_str_digits()
    if limit:
        big = f"<integer of {limit + 1} digits>"
        assert repr(Lattice(2, [[10**limit, 1]])) == f"Lattice(ambient=2, basis=[[{big}, 1]])"
