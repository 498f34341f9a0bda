"""Acceptance suite: golden end-to-end runs, property batteries, and oracles.

Each criterion prints one line, ``criterion N PASS/FAIL (summary)``; run with
``pytest tests/test_acceptance.py -s`` to see the lines as they appear.  All
arithmetic is exact, so every comparison is equality (lattice or congruence
equality where the reference value is one representative of a non-unique
object).  The example-driven criteria are also held to a 5-second budget.
"""

import functools
import random
import time

from torifactor import (
    IntMatrix,
    Lattice,
    QuotientPresentation,
    analyze,
    beta_factor,
    cartier_basis,
    classify_F,
    covering_decomposition,
    det,
    enumerate_fans,
    fan_matrix_equivalence,
    gale_dual,
    hnf,
    kernel_saturation,
    picard_basis,
    picard_index_sets,
    reconstruct,
    snf,
    torsion_generators,
    torsion_matrix,
    torsion_order,
    weight_transform,
)

from _exampledata import (
    EX1_BETA,
    EX1_CX,
    EX1_GAMMA,
    EX1_Q,
    EX1_TORSION_GENERATOR,
    EX1_V,
    EX1_VHAT,
    EX2_B1,
    EX2_B2,
    EX2_B3,
    EX2_BETA,
    EX2_DELTA,
    EX2_GAMMA,
    EX2_Q,
    EX2_T1,
    EX2_T2,
    EX2_V,
    EX2_VHAT,
    EX2_V_ALIGNED,
    EX3_BETA,
    EX3_K,
    EX3_V,
    REID_GAMMA,
    REID_K,
    REID_BETA,
)
from _randgen import (
    box_vectors,
    kernel_by_enumeration,
    lattice_from_vectors,
    lattice_intersection,
    minor_gcd,
    pick_fan_shape,
    random_matrix,
    random_reduced_f_matrix,
    rational_membership,
)

TIME_BUDGET = 5.0


def criterion(num, summary, timed=False):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"criterion {num} FAIL ({summary})")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num} PASS ({summary})")
            if timed:
                assert elapsed < TIME_BUDGET, f"criterion {num} took {elapsed:.2f}s"

        return run

    return wrap


def _congruences_hold(gamma, fan_rows, generator_rows):
    g = gamma.to_int_matrix()
    fan_part = g @ fan_rows.transpose()
    for k, tau in enumerate(gamma.moduli):
        if any(x % tau != 0 for x in fan_part.row(k)):
            return False
    gen_part = g @ generator_rows.transpose()
    for k, tau in enumerate(gamma.moduli):
        for j in range(gamma.rows):
            if (gen_part[k, j] - (1 if j == k else 0)) % tau != 0:
                return False
    return True


@criterion(1, "rank-1 example end to end", timed=True)
def test_criterion_1_rank_one_example():
    # weights
    assert Lattice.from_matrix(gale_dual(EX1_V)) == Lattice.from_matrix(EX1_Q)
    # covering fan matrix
    vhat = gale_dual(gale_dual(EX1_V))
    assert Lattice.from_matrix(vhat) == Lattice.from_matrix(EX1_VHAT)
    # unique factor against the reference covering representative
    assert beta_factor(EX1_V, EX1_VHAT) == EX1_BETA
    # torsion data
    cd = covering_decomposition(EX1_V)
    assert cd.torsion_invariants == (5,)
    gens = torsion_generators(cd)
    assert gens.tolist() == [list(EX1_TORSION_GENERATOR)]
    gamma = torsion_matrix(cd)
    assert gamma.moduli == (5,)
    assert _congruences_hold(gamma, cd.V_aligned, gens)
    # the reference residue row is admissible
    assert _congruences_hold(EX1_GAMMA, cd.V_aligned, gens)
    # Picard and Cartier data
    res = analyze(EX1_V)
    assert len(res.fans) == 1
    fa = res.fans[0]
    assert fa.picard.B == IntMatrix([[1]])
    assert Lattice.from_matrix(fa.cartier) == Lattice.from_matrix(EX1_CX)


@criterion(2, "rank-1 quotient reconstruction", timed=True)
def test_criterion_2_reid_reconstruction():
    p = QuotientPresentation(EX1_Q, REID_GAMMA)
    rec = reconstruct(p, v_hat=EX1_VHAT)
    assert rec.K == REID_K
    assert Lattice.from_matrix(rec.beta) == Lattice.from_matrix(REID_BETA)
    v_rec = rec.V
    witness = fan_matrix_equivalence(EX1_V, v_rec)
    assert witness is not None
    r, s = witness
    assert r @ EX1_V @ s == v_rec


@criterion(3, "rank-2 example end to end", timed=True)
def test_criterion_3_rank_two_example():
    assert beta_factor(EX2_V, EX2_VHAT) == EX2_BETA
    cd = covering_decomposition(EX2_V)
    assert cd.Delta == EX2_DELTA
    # the diagonal form is authoritative: torsion is Z/3 + Z/15 of order 45
    assert cd.torsion_invariants == (3, 15)
    assert torsion_order(cd) == 45
    gens = torsion_generators(cd)
    n = EX2_V.rows
    for k, tau in enumerate(cd.torsion_invariants):
        assert tuple(tau * x for x in gens.row(k)) == cd.V_aligned.row(n - 2 + k)
    # the reference generator rows satisfy the same divisibility for the
    # reference alignment
    assert tuple(3 * x for x in EX2_T1) == EX2_V_ALIGNED.row(2)
    assert tuple(15 * x for x in EX2_T2) == EX2_V_ALIGNED.row(3)
    gamma = torsion_matrix(cd)
    assert _congruences_hold(gamma, cd.V_aligned, gens)
    reference_gens = IntMatrix([list(EX2_T1), list(EX2_T2)])
    assert _congruences_hold(EX2_GAMMA, EX2_V_ALIGNED, reference_gens)
    # fans and per-fan divisor data
    fans = enumerate_fans(EX2_V)
    assert len(fans) == 3
    picard_lattices = set()
    u_q = weight_transform(EX2_Q)
    beta = beta_factor(EX2_V, u_q.bottom_rows(4))
    for fan in fans:
        pd = picard_basis(EX2_Q, picard_index_sets(fan))
        picard_lattices.add(Lattice.from_matrix(pd.B))
        cx = cartier_basis(pd.B, u_q, beta)
        assert abs(det(cx)) == pd.index * 45
    assert picard_lattices == {
        Lattice.from_matrix(EX2_B1),
        Lattice.from_matrix(EX2_B2),
        Lattice.from_matrix(EX2_B3),
    }


@criterion(4, "rank-2 quotient reconstruction", timed=True)
def test_criterion_4_rank_two_reconstruction():
    p = QuotientPresentation(EX2_Q, EX2_GAMMA)
    rec = reconstruct(p, v_hat=EX2_VHAT)
    assert rec.K == EX3_K
    v_rec = rec.V
    assert Lattice.from_matrix(v_rec) == Lattice.from_matrix(EX3_V)
    witness = fan_matrix_equivalence(EX2_V, v_rec)
    assert witness is not None
    r, s = witness
    # the identity permutation is admissible and is what the search returns
    assert s == IntMatrix.identity(6)
    assert r @ EX2_V @ s == v_rec
    assert Lattice.from_matrix(rec.beta) == Lattice.from_matrix(EX3_BETA)


@criterion(5, "randomized property suite, 220 cases")
def test_criterion_5_property_suite():
    rng = random.Random(20260811)
    cases = 220
    torsion_seen = 0
    for case in range(cases):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)

        # normal-form identities on the fan matrix and its transpose
        for a in (v, v.transpose()):
            res = hnf(a)
            assert res.U @ a == res.H
            assert abs(det(res.U)) == 1
        sres = snf(v.select_cols(range(n)))
        assert sres.U_left @ v.select_cols(range(n)) @ sres.U_right == sres.D

        # Gale duality
        q = gale_dual(v)
        assert (q @ v.transpose()).is_zero()
        vhat = gale_dual(q)
        assert classify_F(vhat).is_CF

        # covering factorization and torsion order
        cd = covering_decomposition(v)
        assert cd.beta @ cd.V_hat == v
        assert abs(det(cd.beta)) == torsion_order(cd)
        if cd.torsion_invariants:
            torsion_seen += 1
            gamma = torsion_matrix(cd)
            gens = torsion_generators(cd)
            assert _congruences_hold(gamma, cd.V_aligned, gens)
        else:
            gamma = torsion_matrix(cd)
            assert gamma.rows == 0

        # round trip through the quotient presentation
        p = QuotientPresentation(q, gamma)
        v_back = reconstruct(p).V
        witness = fan_matrix_equivalence(v, v_back)
        assert witness is not None
        rw, sw = witness
        assert rw @ v @ sw == v_back

        # per-fan divisibility chain on a sample of fans
        if case % 4 == 0:
            u_q = weight_transform(q)
            beta = beta_factor(v, u_q.bottom_rows(n))
            for fan in enumerate_fans(v)[:2]:
                pd = picard_basis(q, picard_index_sets(fan))
                cx = cartier_basis(pd.B, u_q, beta)
                assert pd.index % pd.delta_sigma == 0
                assert abs(det(cx)) == pd.index * abs(det(beta))
                assert abs(det(cx)) % pd.index == 0
    assert torsion_seen >= 30


@criterion(6, "brute-force lattice oracles")
def test_criterion_6_oracle_equivalence():
    rng = random.Random(424242)

    kernel_checked = 0
    while kernel_checked < 50:
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), bound=4)
        ker = kernel_saturation(m)
        radius = max((abs(x) for row in ker.basis_rows for x in row), default=1) + 1
        if radius > 9:
            continue
        enumerated = kernel_by_enumeration(m, radius)
        assert lattice_from_vectors(m.cols, enumerated) == ker
        for x in box_vectors(m.cols, radius):
            direct = all(sum(a * b for a, b in zip(row, x)) == 0 for row in m)
            assert (list(x) in ker) == direct
        kernel_checked += 1

    inter_checked = 0
    while inter_checked < 30:
        dim = rng.randint(1, 3)
        a = Lattice.from_matrix(random_matrix(rng, rng.randint(1, dim), dim, bound=4))
        b = Lattice.from_matrix(random_matrix(rng, rng.randint(1, dim), dim, bound=4))
        if a.rank == 0 or b.rank == 0:
            continue
        inter = lattice_intersection(a, b)
        entries = [abs(x) for lat in (a, b, inter) for row in lat.basis_rows for x in row]
        radius = max(entries, default=1) + 1
        if radius > 9:
            continue
        for x in box_vectors(dim, radius):
            in_both = rational_membership(x, a.basis_rows) and rational_membership(
                x, b.basis_rows
            )
            assert (list(x) in inter) == in_both
        inter_checked += 1


@criterion(7, "torsion-triviality equivalences, 110 cases")
def test_criterion_7_equivalence_of_cf_tests():
    rng = random.Random(777)
    agree_false = 0
    for _ in range(110):
        n, r = pick_fan_shape(rng)
        v = random_reduced_f_matrix(rng, n, r)
        torsion_trivial = covering_decomposition(v).torsion_invariants == ()
        coprime_minors = minor_gcd(v) == 1
        expected_form = IntMatrix.identity(n).vstack(IntMatrix.zeros(v.cols - n, n))
        hnf_is_identity_block = hnf(v.transpose()).H == expected_form
        assert torsion_trivial == coprime_minors == hnf_is_identity_block
        if not torsion_trivial:
            agree_false += 1
    assert agree_false >= 20  # both branches of the equivalence are exercised
