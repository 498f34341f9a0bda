import functools
import math
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from torifactor import (
    IntMatrix,
    Lattice,
    PreconditionError,
    PicardIndexFamily,
    ShapeError,
    analyze,
    cartier_basis,
    covering_decomposition,
    det,
    enumerate_fans,
    free_part_generators,
    gale_dual,
    kernel_saturation,
    picard_basis,
    picard_index_sets,
    weight_transform,
    weil_inclusion,
)

from torifactor import divisors
from torifactor.divisors import _weight_block
from torifactor.fans import _mask
from torifactor.intmat import _det_adjugate, _det_adjugate_rows, _laplace_minors, shared_tables

from _exampledata import (
    EX1_BETA,
    EX1_CX,
    EX1_Q,
    EX1_UQ,
    EX1_V,
    EX2_B1,
    EX2_B2,
    EX2_B3,
    EX2_CX1,
    EX2_CY1,
    EX2_L1,
    EX2_L2,
    EX2_Q,
    EX2_UQ,
    EX2_V,
)
from _randgen import (
    SMALL_FAN_SHAPES,
    chained_picard_basis,
    lattice_intersection,
    pick_fan_shape,
    random_matrix,
    random_reduced_f_matrix,
)


def test_free_part_generators_rank_one():
    cg = free_part_generators(EX1_Q)
    assert cg.rank == 1
    assert EX1_Q @ cg.free_generators.transpose() == IntMatrix.identity(1)
    # the generator class agrees with the first prime divisor modulo the
    # covering row lattice
    diff = [a - b for a, b in zip(cg.free_generators.row(0), (1, 0, 0, 0))]
    from torifactor import kernel_saturation

    assert diff in kernel_saturation(EX1_Q)


def test_free_part_generators_rank_two():
    cg = free_part_generators(EX2_Q)
    assert cg.rank == 2
    assert EX2_Q @ cg.free_generators.transpose() == IntMatrix.identity(2)
    # the reference choice satisfies the same identity
    reference = IntMatrix([list(EX2_L1), list(EX2_L2)])
    assert EX2_Q @ reference.transpose() == IntMatrix.identity(2)


def test_free_part_generators_padded_identity():
    q = IntMatrix([[1, 0, 1, 2], [0, 1, 1, 3]])
    cg = free_part_generators(q)
    assert q @ cg.free_generators.transpose() == IntMatrix.identity(2)


def test_free_part_generators_rejects_non_weight_matrix():
    with pytest.raises(PreconditionError):
        free_part_generators(IntMatrix([[1, 0]]))


def test_picard_basis_rank_one():
    fan = enumerate_fans(EX1_V)[0]
    pd = picard_basis(EX1_Q, picard_index_sets(fan))
    assert pd.B == IntMatrix([[1]])
    assert pd.index == 1
    assert pd.delta_sigma == 1


def test_picard_basis_trivial_family():
    fam = PicardIndexFamily(((0, 1),))
    q = IntMatrix([[1, 0, 2, 0], [0, 1, 0, 3]])
    pd = picard_basis(q, fam)
    assert Lattice.from_matrix(pd.B) == Lattice.full(2)
    assert pd.index == 1


def test_picard_basis_multiset_matches_reference_bases():
    fans = enumerate_fans(EX2_V)
    ours = set()
    for fan in fans:
        pd = picard_basis(EX2_Q, picard_index_sets(fan))
        assert pd.index % pd.delta_sigma == 0
        ours.add(Lattice.from_matrix(pd.B))
    reference = {Lattice.from_matrix(b) for b in (EX2_B1, EX2_B2, EX2_B3)}
    assert ours == reference


def test_picard_basis_rows_lie_in_every_block_lattice():
    fans = enumerate_fans(EX2_V)
    for fan in fans:
        fam = picard_index_sets(fan)
        pd = picard_basis(EX2_Q, fam)
        pic = Lattice.from_matrix(pd.B)
        for idx in fam.sets:
            block = Lattice.from_matrix(EX2_Q.select_cols(idx).transpose())
            assert pic.is_sublattice_of(block)


def test_picard_basis_rejects_singular_block():
    q = IntMatrix([[1, 2, 0], [2, 4, 1]])
    with pytest.raises(PreconditionError):
        picard_basis(q, PicardIndexFamily(((0, 1),)))


def test_weight_transform_encodes_covering():
    u_q = weight_transform(EX1_Q)
    assert u_q @ EX1_Q.transpose() == IntMatrix([[1], [0], [0], [0]])
    # the reference transform satisfies the same identity
    assert EX1_UQ @ EX1_Q.transpose() == IntMatrix([[1], [0], [0], [0]])
    assert EX2_UQ @ EX2_Q.transpose() == IntMatrix.identity(2).vstack(IntMatrix.zeros(4, 2))


def test_cartier_basis_first_example():
    # with the reference transform the worked example is reproduced exactly
    beta = IntMatrix.diagonal([1, 1, 5])
    cx = cartier_basis(IntMatrix([[1]]), EX1_UQ, beta)
    assert cx == EX1_CX
    assert cx.bottom_rows(3) == EX1_V
    assert Lattice.from_matrix(cx) == Lattice.from_matrix(EX1_CX)


def test_cartier_basis_of_covering_is_full_lattice():
    cy = cartier_basis(IntMatrix([[1]]), EX1_UQ, IntMatrix.identity(3))
    assert cy == EX1_UQ
    assert Lattice.from_matrix(cy) == Lattice.full(4)


def test_cartier_basis_second_example():
    from _exampledata import EX2_BETA

    b1 = EX2_B1
    cx = cartier_basis(b1, EX2_UQ, EX2_BETA)
    assert cx == EX2_CX1
    assert cx.bottom_rows(4) == EX2_V
    assert abs(det(cx)) == abs(det(b1)) * 45


def _assert_cartier_is_the_block_diagonal_product(v):
    res = analyze(v, verify=False)
    # one table for every fan and both factors: the cached bottom block is keyed by beta
    with shared_tables():
        for fa in res.fans:
            b = fa.picard.B
            for beta in (res.covering.beta, IntMatrix.identity(v.rows)):
                # the m x m product that cartier_basis computes block by block
                oracle = IntMatrix.block_diagonal([b, beta]) @ res.U_Q
                assert cartier_basis(b, res.U_Q, beta) == oracle
            assert fa.cartier == IntMatrix.block_diagonal([b, res.covering.beta]) @ res.U_Q


def test_cartier_basis_is_the_block_diagonal_product_on_examples():
    from _exampledata import EX2_BETA

    for b, u_q, beta in (
        (IntMatrix([[1]]), EX1_UQ, IntMatrix.diagonal([1, 1, 5])),
        (EX2_B1, EX2_UQ, EX2_BETA),
    ):
        assert cartier_basis(b, u_q, beta) == IntMatrix.block_diagonal([b, beta]) @ u_q
    _assert_cartier_is_the_block_diagonal_product(EX1_V)
    _assert_cartier_is_the_block_diagonal_product(EX2_V)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_cartier_basis_is_the_block_diagonal_product(shape, seed):
    _assert_cartier_is_the_block_diagonal_product(random_reduced_f_matrix(random.Random(seed), *shape))


def test_cartier_determinant_factorization_random():
    rng = random.Random(71)
    for _ in range(15):
        n, r = pick_fan_shape(rng, max_dim=3, max_total=6)
        v = random_reduced_f_matrix(rng, n, r)
        q = gale_dual(v)
        u_q = weight_transform(q)
        cd = covering_decomposition(v, v_hat=u_q.bottom_rows(n))
        for fan in enumerate_fans(v)[:2]:
            pd = picard_basis(q, picard_index_sets(fan))
            cx = cartier_basis(pd.B, u_q, cd.beta)
            assert abs(det(cx)) == pd.index * abs(det(cd.beta))
            assert cx.bottom_rows(n) == v
            assert pd.index % pd.delta_sigma == 0


def test_weil_inclusion_identity_factor():
    assert weil_inclusion(EX1_UQ, IntMatrix.identity(3)) == IntMatrix.identity(4)


def test_weil_inclusion_first_example():
    beta = IntMatrix.diagonal([1, 1, 5])
    a = weil_inclusion(EX1_UQ, beta)
    cy = cartier_basis(IntMatrix([[1]]), EX1_UQ, IntMatrix.identity(3))
    cx = cartier_basis(IntMatrix([[1]]), EX1_UQ, beta)
    assert a @ cy.transpose() == cx.transpose()


def test_weil_inclusion_second_example():
    from _exampledata import EX2_BETA

    a = weil_inclusion(EX2_UQ, EX2_BETA)
    assert a @ EX2_CY1.transpose() == EX2_CX1.transpose()


def test_weil_inclusion_random_identity():
    rng = random.Random(72)
    for _ in range(15):
        n, r = pick_fan_shape(rng, max_dim=3, max_total=6)
        v = random_reduced_f_matrix(rng, n, r)
        q = gale_dual(v)
        u_q = weight_transform(q)
        cd = covering_decomposition(v, v_hat=u_q.bottom_rows(n))
        a = weil_inclusion(u_q, cd.beta)
        fan = enumerate_fans(v)[0]
        pd = picard_basis(q, picard_index_sets(fan))
        cy = cartier_basis(pd.B, u_q, IntMatrix.identity(n))
        cx = cartier_basis(pd.B, u_q, cd.beta)
        assert a @ cy.transpose() == cx.transpose()


def test_picard_identical_from_covering_fans():
    # index families agree between a fan matrix and its double Gale dual, so
    # the Picard lattice computed through either one is the same
    vhat = gale_dual(gale_dual(EX2_V))
    fans_v = enumerate_fans(EX2_V)
    fans_vhat = enumerate_fans(vhat)
    assert [f.maximal_cones for f in fans_v] == [f.maximal_cones for f in fans_vhat]
    for fv, fh in zip(fans_v, fans_vhat):
        pv = picard_basis(EX2_Q, picard_index_sets(fv))
        ph = picard_basis(EX2_Q, picard_index_sets(fh))
        assert pv.B == ph.B
        assert pv.delta_sigma == ph.delta_sigma


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_picard_basis_matches_chained_intersection(shape, seed):
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    q = gale_dual(v)
    for fan in enumerate_fans(v):
        family = picard_index_sets(fan)
        assert picard_basis(q, family) == chained_picard_basis(q, family)


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_picard_basis_with_one_shared_table_across_fans_matches_picard_basis(shape, seed):
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    q = gale_dual(v)
    families = [picard_index_sets(fan) for fan in enumerate_fans(v)]
    distinct = {idx for family in families for idx in family.sets}
    builds = []

    def counted(rows, m):
        builds.append(rows)
        return _laplace_minors(rows, m)

    def public(idx):
        d, adj = _det_adjugate(q.select_cols(idx))
        return d, None if adj is None else tuple(adj)

    with mock.patch.object(divisors, "_laplace_minors", counted):
        alone = []
        for family in families:
            builds.clear()
            alone.append(picard_basis(q, family))
            # outside a table, one build of the cofactor tables (one per row of q) per call
            assert len(builds) == q.rows
        builds.clear()
        with shared_tables():
            for family, pd in zip(families, alone):
                shared = picard_basis(q, family)
                assert shared == pd == chained_picard_basis(q, family)
            # one build for all fans; the dual basis of a fan is inverted by back substitution
            assert len(builds) == q.rows
            assert all(_weight_block(q, _mask(idx)) == public(idx) for idx in distinct)
            assert len(builds) == q.rows  # read, not computed again


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32))
def test_weight_blocks_from_the_cofactor_tables_match_the_adjugate(r, n, seed):
    # every r-subset of a random r x (r + n) matrix with small entries, so that
    # singular blocks occur; r = 1 and r > n included.  The block of a column
    # mask takes its columns in ascending order
    rng = random.Random(seed)
    q = random_matrix(rng, r, r + n, bound=2)
    with shared_tables():
        for idx in combinations(range(q.cols), r):
            want = _det_adjugate_rows([[row[j] for j in idx] for row in q])
            assert _weight_block(q, _mask(idx)) == want


def test_weight_blocks_of_rank_one_and_of_a_gale_dual():
    q = IntMatrix([[2, -3, 0]])
    assert [_weight_block(q, 1 << j) for j in range(3)] == [(2, ((1,),)), (-3, ((1,),)), (0, None)]
    for idx in combinations(range(EX2_Q.cols), EX2_Q.rows):
        d, adj = _det_adjugate(EX2_Q.select_cols(idx))
        assert _weight_block(EX2_Q, _mask(idx)) == (d, None if adj is None else tuple(adj))


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
def test_picard_basis_sweep_in_any_fan_order_matches_fresh_calls(shape, seed):
    rng = random.Random(seed)
    v = random_reduced_f_matrix(rng, *shape)
    q = gale_dual(v)
    families = [picard_index_sets(fan) for fan in enumerate_fans(v)]
    alone = [picard_basis(q, family) for family in families]
    assert alone == [chained_picard_basis(q, family) for family in families]
    shuffled = list(range(len(families)))
    rng.shuffle(shuffled)
    for order in (range(len(families)), reversed(range(len(families))), shuffled):
        with shared_tables():
            for k in order:
                assert picard_basis(q, families[k]) == alone[k]


def test_picard_sweep_rescales_the_fold_state_when_delta_grows_in_the_prefix(count_calls):
    # fans 1 and 2 of the second example share their first six index sets, along
    # which the lcm of the |d_I| grows from 29 to 5805800
    families = [picard_index_sets(fan) for fan in enumerate_fans(EX2_V)]
    first, second = families[1].sets, families[2].sets
    assert first[:6] == second[:6] and first[6] != second[6]
    running = [divisors._dual_rows(EX2_Q, _mask(idx))[0] for idx in first[:6]]
    for k in range(1, 6):
        running[k] = math.lcm(running[k - 1], running[k])
    assert running == [29, 203, 2639, 65975, 527800, 5805800]
    folds = count_calls(divisors, "_hnf_fold", everywhere=False)
    with shared_tables():
        pds = [picard_basis(EX2_Q, family) for family in families[:2]]
        assert len(folds) == len(families[0].sets) + len(first)  # fan 1 shares nothing with fan 0
        folds.clear()
        pds.append(picard_basis(EX2_Q, families[2]))
        assert len(folds) == len(second) - 6
    assert [(pd.index, pd.delta_sigma) for pd in pds] == [
        (975063375, 17728425),
        (319319000, 5805800),
        (5805800, 5805800),
    ]
    assert pds == [chained_picard_basis(EX2_Q, family) for family in families]


def test_picard_basis_in_a_table_still_rejects_a_non_integer_equal_to_a_checked_set():
    q = gale_dual(IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]]))
    with shared_tables():
        picard_basis(q, PicardIndexFamily(((0, 1),)))
        with pytest.raises(ShapeError, match="must be integers"):
            picard_basis(q, PicardIndexFamily(((0, 1.0),)))
        with pytest.raises(ShapeError, match="must be integers"):
            picard_basis(q, PicardIndexFamily(((0, 1), (0, 1.0))))


def test_picard_basis_checks_every_index_set_on_every_call(count_calls):
    # analyze folds the complement masks of its fans in the private core; the
    # public picard_basis checks and converts every set of every call, also
    # in a block where an equal exact family was folded before
    families = [picard_index_sets(fan) for fan in enumerate_fans(EX2_V)]
    want = [picard_basis(EX2_Q, family) for family in families]
    first = families[0].sets
    k = next(k for k, idx in enumerate(first) if 1 in idx)

    def with_set(idx):
        return PicardIndexFamily(first[:k] + (idx,) + first[k + 1 :])

    def fresh(one):
        return with_set(tuple(one if j == 1 else j for j in first[k]))

    with shared_tables():
        held = [picard_basis(EX2_Q, family) for family in families]
        assert held == want
        converted = count_calls(divisors, "_int_tuple", everywhere=False)
        folds = count_calls(divisors, "_picard_fold", everywhere=False)
        with pytest.raises(ShapeError, match="must be integers"):
            picard_basis(EX2_Q, fresh(1.0))
        # a bool is converted, on every call, and folds as the exact family does
        converted.clear()
        for calls in (1, 2):
            family = fresh(True)
            assert picard_basis(EX2_Q, family) is held[0]
            assert len(converted) == calls and converted[-1][0] is family.sets[k]
        masks = tuple(sum(1 << j for j in idx) for idx in first)
        assert [tuple(m) for _, m in folds] == [masks, masks]
        for idx, message in (
            (first[k][:-1], "size must equal the weight-matrix rank"),
            ((first[k][0],) * 2, "is not 2 distinct columns in 0..5"),
            ((first[k][0], 6), "is not 2 distinct columns in 0..5"),
            ((-1, first[k][0]), "is not 2 distinct columns in 0..5"),
        ):
            with pytest.raises(ShapeError, match=message):
                picard_basis(EX2_Q, with_set(idx))
        assert len(folds) == 2
    assert picard_basis(EX2_Q, fresh(True)) == want[0]


@pytest.mark.parametrize(
    "sets",
    [((-1, 0),), ((1, 99),), ((1.0, 2),), ((1, 1),), ((0, 1), (0,)), ((0, 1), 3)],
)
def test_picard_basis_rejects_malformed_index_sets(sets):
    q = gale_dual(IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]]))
    with pytest.raises(ShapeError):
        picard_basis(q, PicardIndexFamily(sets))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: weight_transform(IntMatrix([[2, 0, -2]])),
            PreconditionError,
            "row lattice of the weight matrix is not saturated",
        ),
        (
            lambda: picard_basis(EX1_Q, PicardIndexFamily(())),
            PreconditionError,
            "empty index family",
        ),
        (
            lambda: cartier_basis(IntMatrix([[1, 0]]), EX1_UQ, EX1_BETA),
            ShapeError,
            "b and beta must be square",
        ),
        (
            lambda: cartier_basis(IntMatrix.identity(2), EX1_UQ, EX1_BETA),
            ShapeError,
            "transform size must equal rank \\+ dimension",
        ),
        (
            lambda: weil_inclusion(EX1_UQ, IntMatrix([[1, 0]])),
            ShapeError,
            "beta must be square",
        ),
        (
            lambda: weil_inclusion(EX1_BETA, EX1_BETA),
            ShapeError,
            "transform must be square and larger than beta",
        ),
    ],
    ids=["unsaturated weights", "empty family", "cartier b", "cartier u_q", "weil beta", "weil u_q"],
)
def test_divisor_maps_reject_inconsistent_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_picard_basis_rejects_a_family_that_is_not_iterable():
    q = gale_dual(IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]]))
    for sets in (None, 3):
        with pytest.raises(ShapeError, match="iterable of index sets"):
            picard_basis(q, PicardIndexFamily(sets))


def test_picard_basis_reads_a_generator_of_index_sets():
    # the family is read once: the check for a tuple of int tuples consumes nothing
    q = gale_dual(IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]]))
    sets = ((0, 1), (2, 1), (3, 0))
    want = picard_basis(q, PicardIndexFamily(sets))
    assert picard_basis(q, PicardIndexFamily(iter(sets))) == want
    assert picard_basis(q, PicardIndexFamily(list(s) for s in sets)) == want
    with shared_tables():
        assert picard_basis(q, PicardIndexFamily(sets)) == want
        assert picard_basis(q, PicardIndexFamily(s for s in sets)) == want


def test_picard_basis_reads_index_sets_as_integers():
    q = gale_dual(IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]]))
    family = PicardIndexFamily(((0, 1), (2, 1)))
    listed = PicardIndexFamily(([True, 0], [2, 1]))
    assert picard_basis(q, listed) == picard_basis(q, family)


def test_picard_basis_matches_chained_intersection_on_examples():
    for v, q in ((EX1_V, EX1_Q), (EX2_V, EX2_Q)):
        for fan in enumerate_fans(v):
            family = picard_index_sets(fan)
            assert picard_basis(q, family) == chained_picard_basis(q, family)


def _congruence_oracle(q, family):
    """The Picard lattice as ``{x : Q_I^{-1} x integral for every I}``, with the
    inverses from sympy: the first r coordinates of the kernel of
    ``[delta Q_I^{-1} ... | delta I]``, where ``delta`` clears every denominator."""
    from sympy import Matrix, ilcm

    r = q.rows
    inverses = [Matrix(q.select_cols(idx).tolist()).inv() for idx in set(family.sets)]
    delta = ilcm(*(x.q for inv in inverses for x in inv))
    rows = [[int(x * delta) for x in inv.row(i)] for inv in inverses for i in range(r)]
    stacked = [row + [delta * (i == k) for k in range(len(rows))] for i, row in enumerate(rows)]
    return Lattice(r, [rel[:r] for rel in kernel_saturation(IntMatrix(stacked)).basis_rows])


@given(st.sampled_from(SMALL_FAN_SHAPES), st.integers(0, 2**32))
@example((1, 1), 0)
@example((3, 1), 5)
@example((2, 2), 1)
def test_picard_basis_matches_the_lattice_oracles(shape, seed):
    # with r = 1 the Picard lattice is delta Z, so B = [[delta]] has its pivot at delta
    v = random_reduced_f_matrix(random.Random(seed), *shape)
    q = gale_dual(v)
    with shared_tables():
        for fan in enumerate_fans(v):
            family = picard_index_sets(fan)
            pd = picard_basis(q, family)
            blocks = [Lattice.from_matrix(q.select_cols(idx).transpose()) for idx in family.sets]
            intersection = functools.reduce(lattice_intersection, blocks)
            congruences = _congruence_oracle(q, family)
            assert pd.B == intersection.basis_matrix() == congruences.basis_matrix()
            assert pd == chained_picard_basis(q, family)
            if q.rows == 1:
                assert pd.B == IntMatrix([[pd.delta_sigma]])


def test_picard_basis_keeps_a_pivot_equal_to_delta():
    # the pivots of B are delta / M_kk for the fold state M; one equal to delta must
    # not be reduced mod delta to 0
    p112 = IntMatrix([[1, -1, 0], [-1, -1, 1]])  # weights (1, 1, 2)
    cases = [
        (EX1_V, 0, [[1]], 1),
        (p112, 0, [[2]], 2),
        (EX2_V, 2, [[1, 1157202], [0, 5805800]], 5805800),
    ]
    for v, k, basis, delta in cases:
        q = gale_dual(v)
        family = picard_index_sets(enumerate_fans(v)[k])
        pd = picard_basis(q, family)
        assert (pd.B, pd.delta_sigma) == (IntMatrix(basis), delta)
        assert pd.B[q.rows - 1, q.rows - 1] == delta
        assert pd == chained_picard_basis(q, family)
