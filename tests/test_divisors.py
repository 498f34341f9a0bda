import math
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

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
    picard_basis,
    picard_index_sets,
    weight_transform,
    weil_inclusion,
)

from torifactor import divisors
from torifactor.divisors import _weight_block
from torifactor.intmat import _det_adjugate, _det_adjugate_rows, _shared_tables

from _exampledata import (
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
    pick_fan_shape,
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
    with _shared_tables():
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
    alone = [picard_basis(q, family) for family in families]
    distinct = {idx for family in families for idx in family.sets}
    inverted = []

    def counted(rows):
        inverted.append(rows)
        return _det_adjugate_rows(rows)

    def public(idx):
        d, adj = _det_adjugate(q.select_cols(idx))
        return d, None if adj is None else tuple(adj)

    with mock.patch.object(divisors, "_det_adjugate_rows", counted), _shared_tables():
        for family, pd in zip(families, alone):
            shared = picard_basis(q, family)
            assert shared == pd == chained_picard_basis(q, family)
        # each distinct block once; the dual basis of a fan is inverted by back substitution
        assert len(inverted) == len(distinct)
        assert all(_weight_block(q, idx) == public(idx) for idx in distinct)
        assert len(inverted) == len(distinct)  # read, not computed again


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
        with _shared_tables():
            for k in order:
                assert picard_basis(q, families[k]) == alone[k]


def test_picard_sweep_rescales_the_fold_state_when_delta_grows_in_the_prefix(count_calls):
    # fans 1 and 2 of the second example share their first six index sets, along
    # which the lcm of the |d_I| grows from 29 to 5805800
    families = [picard_index_sets(fan) for fan in enumerate_fans(EX2_V)]
    first, second = families[1].sets, families[2].sets
    assert first[:6] == second[:6] and first[6] != second[6]
    running = [divisors._dual_rows(EX2_Q, idx)[0] for idx in first[:6]]
    for k in range(1, 6):
        running[k] = math.lcm(running[k - 1], running[k])
    assert running == [29, 203, 2639, 65975, 527800, 5805800]
    folds = count_calls(divisors, "_hnf_fold", everywhere=False)
    with _shared_tables():
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
    with _shared_tables():
        picard_basis(q, PicardIndexFamily(((0, 1),)))
        with pytest.raises(ShapeError, match="must be integers"):
            picard_basis(q, PicardIndexFamily(((0, 1.0),)))
        with pytest.raises(ShapeError, match="must be integers"):
            picard_basis(q, PicardIndexFamily(((0, 1), (0, 1.0))))


@pytest.mark.parametrize(
    "sets",
    [((-1, 0),), ((1, 99),), ((1.0, 2),), ((1, 1),), ((0, 1), (0,)), ((0, 1), 3)],
)
def test_picard_basis_rejects_malformed_index_sets(sets):
    q = gale_dual(IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]]))
    with pytest.raises(ShapeError):
        picard_basis(q, PicardIndexFamily(sets))


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
