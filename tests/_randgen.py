"""Deterministic random instance generators and brute-force oracles."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm
from typing import Optional, Sequence

from torifactor import (
    CoveringData,
    IntMatrix,
    Lattice,
    PicardData,
    PreconditionError,
    SearchLimitExceeded,
    ShapeError,
    classify_F,
    det,
    gale_dual,
    hnf,
    kernel_saturation,
    rank,
    snf,
    unimodular_inverse,
    vector_content,
)
from torifactor.fans import _conflicts
from torifactor.gale import _circuits, _minors
from torifactor.intmat import _det_adjugate
from torifactor.normal_forms import _identity_block_transform


def random_unimodular(rng, n, steps=5):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        m[i], m[j] = m[j], m[i]
    if rng.random() < 0.3:
        i = rng.randrange(n)
        m[i] = [-x for x in m[i]]
    return IntMatrix(m)


def pick_fan_shape(rng, max_dim=4, max_total=7):
    n = rng.randint(1, max_dim)
    r = 1 if n == 1 else rng.randint(1, min(max_total - n, 3))
    return n, r


# (n, r) with n + r <= 6; in dimension 1 the only reduced fan matrix is (1 -1)
SMALL_FAN_SHAPES = tuple(
    (n, r) for n in range(1, 5) for r in range(1, 4) if n + r <= 6 and (n > 1 or r == 1)
)


# draws of random_cf_matrix before it gives up; the tier-1 suite needs at most 18
MAX_CF_DRAWS = 1000


def random_cf_matrix(rng, n, r):
    """Reduced fan matrix with full column lattice: unit columns plus
    strictly negative columns, in a random basis and column order.

    Raises ``SearchLimitExceeded``, naming the shape, when ``MAX_CF_DRAWS``
    draws in a row are not reduced fan matrices, as for (n, r) = (1, 2),
    which has none."""
    for _ in range(MAX_CF_DRAWS):
        cols = [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
        for _ in range(r):
            cols.append(tuple(-rng.randint(1, 3) for _ in range(n)))
        rng.shuffle(cols)
        v = random_unimodular(rng, n) @ IntMatrix(cols).transpose()
        rep = classify_F(v)
        if rep.is_F and rep.is_CF and rep.is_reduced:
            return v
    raise SearchLimitExceeded(
        f"no reduced fan matrix of shape (n, r) = ({n}, {r}) in {MAX_CF_DRAWS} draws"
    )


def random_reduced_f_matrix(rng, n, r, torsion_bias=0.7):
    """Reduced fan matrix, frequently with class-group torsion.

    Multiplies a torsion-free instance by a small nonsingular factor and
    reduces the columns; the factor's nontrivial diagonal usually survives
    as torsion.
    """
    vhat = random_cf_matrix(rng, n, r)
    if rng.random() > torsion_bias:
        return vhat
    diag = [1] * n
    for i in range(n - 1, max(n - 3, 0) - 1, -1):
        diag[i] = rng.choice([1, 2, 2, 3, 4, 5, 6])
    b = random_unimodular(rng, n) @ IntMatrix.diagonal(diag) @ random_unimodular(rng, n)
    v = reduce_F(b @ vhat)
    rep = classify_F(v)
    assert rep.is_F and rep.is_reduced
    return v


def hnf_pivot_columns(h: IntMatrix) -> tuple[int, ...]:
    """Column index of the leading entry of each nonzero row of an HNF."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in h if any(row))


def reduce_F(v: IntMatrix) -> IntMatrix:
    """Divide every column by the gcd of its entries; idempotent."""
    cols = []
    for j in range(v.cols):
        c = v.col(j)
        g = vector_content(c)
        if g == 0:
            raise PreconditionError(f"column {j} is zero and cannot be reduced")
        cols.append(tuple(x // g for x in c))
    return IntMatrix(cols).transpose()


def is_divisor_of_beta(eta: IntMatrix, beta: IntMatrix) -> bool:
    """Whether ``eta`` divides ``beta``: ``beta @ eta^{-1}`` is integral.

    Both matrices must be square nonsingular of the same size.
    """
    if not (eta.is_square() and beta.is_square()) or eta.shape != beta.shape:
        raise ShapeError("both matrices must be square of equal size")
    d, adj = _det_adjugate(eta)
    if d == 0 or det(beta) == 0:
        raise PreconditionError("matrices must be nonsingular")
    return all(x % d == 0 for row in beta @ adj for x in row)


def random_matrix(rng, rows, cols, bound=3):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def random_nonsingular(rng, n, bound=3):
    while True:
        m = random_matrix(rng, n, n, bound)
        if det(m) != 0:
            return m


# -- brute-force oracles -----------------------------------------------------


def rational_membership(vector, basis_rows):
    """Whether ``vector`` is an integer combination of ``basis_rows``,
    decided by exact Gaussian elimination over the rationals."""
    if not basis_rows:
        return not any(vector)
    # solve c . B = v, i.e. B^T c = v
    n = len(basis_rows)
    m = len(vector)
    aug = [[Fraction(basis_rows[i][j]) for i in range(n)] + [Fraction(vector[j])] for j in range(m)]
    pivot_cols = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = aug[row][col]
        aug[row] = [x / inv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row])]
        pivot_cols.append(col)
        row += 1
    coeffs = [Fraction(0)] * n
    for r_idx, col in enumerate(pivot_cols):
        coeffs[col] = aug[r_idx][n]
    # consistency and integrality
    for j in range(m):
        lhs = sum(coeffs[i] * basis_rows[i][j] for i in range(n))
        if lhs != vector[j]:
            return False
    return all(c.denominator == 1 for c in coeffs)


def box_vectors(ambient, radius):
    return product(range(-radius, radius + 1), repeat=ambient)


def kernel_by_enumeration(m: IntMatrix, radius):
    """All integer kernel vectors of ``m`` inside the given box."""
    out = []
    for x in box_vectors(m.cols, radius):
        if all(sum(a * b for a, b in zip(row, x)) == 0 for row in m):
            out.append(x)
    return out


def minor_gcd(v: IntMatrix):
    """Gcd of all maximal square minors, by direct cofactor enumeration."""
    n, m = v.shape
    g = 0
    for cols in combinations(range(m), n):
        g = gcd(g, det(v.select_cols(cols)))
    return abs(g)


def lattice_from_vectors(ambient, vectors):
    return Lattice(ambient, [list(v) for v in vectors])


def lattice_intersection(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two sublattices of the same Z^m.

    Stacks the bases, takes the saturated kernel of ``[A^T | -B^T]`` and maps
    the solutions back through ``A``.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("ambient dimensions differ")
    if a.rank == 0 or b.rank == 0:
        return Lattice.zero(a.ambient_dim)
    stacked = a.basis_matrix().vstack(-b.basis_matrix())
    relations = kernel_saturation(stacked.transpose())
    gens = []
    for rel in relations.basis_rows:
        coeffs = rel[: a.rank]
        gens.append(
            tuple(
                sum(c * row[k] for c, row in zip(coeffs, a.basis_rows))
                for k in range(a.ambient_dim)
            )
        )
    return Lattice(a.ambient_dim, gens)


def chained_picard_basis(q: IntMatrix, index_family) -> PicardData:
    """Picard lattice as the chained intersection of the block lattices
    ``Q_I Z^r``, one ``lattice_intersection`` per maximal cone."""
    r = q.rows
    current = Lattice.full(r)
    delta = 1
    for idx in index_family.sets:
        block = q.select_cols(idx)
        d = det(block)
        if d == 0:
            raise PreconditionError(f"singular weight block at columns {idx}")
        delta = lcm(delta, abs(d))
        current = lattice_intersection(current, Lattice.from_matrix(block.transpose()))
    basis = current.basis_matrix()
    return PicardData(B=basis, index=abs(det(basis)), delta_sigma=delta)


def facet_normal_candidates(v: IntMatrix):
    """Normals of all hyperplanes spanned by n-1 linearly independent columns,
    one ``kernel_saturation`` per (n-1)-subset."""
    n, m = v.shape
    seen = set()
    for subset in combinations(range(m), n - 1):
        block = IntMatrix([v.col(j) for j in subset])
        if rank(block) != n - 1:
            continue
        normal = kernel_saturation(block).basis_rows[0]
        key = normal if normal > tuple(-x for x in normal) else tuple(-x for x in normal)
        if key not in seen:
            seen.add(key)
            yield normal


def pairwise_positively_proportional_pair(columns) -> bool:
    """Whether two nonzero columns are positive multiples of each other, by
    testing every pair: all 2 x 2 minors of the pair vanish and the dot
    product is positive."""
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            a, b = columns[i], columns[j]
            if not any(a) or not any(b):
                continue
            collinear = all(
                a[p] * b[q] == a[q] * b[p] for p in range(len(a)) for q in range(p + 1, len(a))
            )
            if collinear and sum(x * y for x, y in zip(a, b)) > 0:
                return True
    return False


def oracle_positive_span_is_full(v: IntMatrix) -> bool:
    """Whether the columns of ``v`` positively span R^n: full rank, and no
    hyperplane spanned by n-1 columns has every column on one closed side."""
    n, m = v.shape
    if rank(v) != n:
        return False
    columns = [v.col(j) for j in range(m)]
    if n == 1:
        return any(c[0] > 0 for c in columns) and any(c[0] < 0 for c in columns)
    for normal in facet_normal_candidates(v):
        dots = [sum(u * x for u, x in zip(normal, c)) for c in columns]
        if all(d >= 0 for d in dots) or all(d <= 0 for d in dots):
            return False
    return True


def contains_opposite_sign_pair(lat: Lattice) -> bool:
    """Whether the lattice holds a vector with exactly two nonzero entries of
    opposite sign, from its exact intersection with every coordinate plane:
    a rank-2 intersection always holds one, a rank-1 intersection iff its
    generator has two nonzero entries of opposite sign."""
    m = lat.ambient_dim
    for i in range(m):
        for j in range(i + 1, m):
            plane = Lattice(m, [[int(k == axis) for k in range(m)] for axis in (i, j)])
            inter = lattice_intersection(lat, plane)
            if inter.rank == 2:
                return True
            if inter.rank == 1:
                gen = inter.basis_rows[0]
                if gen[i] * gen[j] < 0:
                    return True
    return False


def oracle_classify_W(q: IntMatrix) -> tuple[str, ...]:
    """Failed weight-matrix conditions of ``q``, each read on the row lattice
    of ``q`` (or on its Gale dual for (c)), with lattice intersections for (f)."""
    r, m = q.shape
    failed = []
    full_rank = rank(q) == r
    if not full_rank:
        failed.append("a")
    if _identity_block_transform(q) is None:
        failed.append("b")
    if not (full_rank and oracle_positive_span_is_full(gale_dual(q))):
        failed.append("c")
    if any(not any(q.col(j)) for j in range(m)):
        failed.append("d")
    row_lattice = Lattice.from_matrix(q)
    if any([int(k == j) for k in range(m)] in row_lattice for j in range(m)):
        failed.append("e")
    if contains_opposite_sign_pair(row_lattice):
        failed.append("f")
    return tuple(failed)


def hnf_beta_factor(v: IntMatrix, v_hat: IntMatrix) -> IntMatrix:
    """The integer ``beta`` with ``beta @ v_hat == v``, from the HNFs of both
    matrices with their common pivot columns moved to the front, back
    substitution between the triangular forms and the HNF transforms."""
    if v.shape != v_hat.shape:
        raise ShapeError("fan matrices must have equal shape")
    n = v.rows
    if rank(v_hat) != n or rank(v) != n:
        raise PreconditionError("both matrices must have full row rank")
    pivots = hnf_pivot_columns(hnf(v_hat).H)
    order = list(pivots) + [j for j in range(v.cols) if j not in pivots]
    res = hnf(v.select_cols(order))
    hat_res = hnf(v_hat.select_cols(order))
    h, u = res.H, res.U
    hh, uh = hat_res.H, hat_res.U
    if hnf_pivot_columns(h) != tuple(range(n)) or hnf_pivot_columns(hh) != tuple(range(n)):
        raise PreconditionError("row lattices are not aligned (pivot columns differ)")
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        if h[i, i] % hh[i, i] != 0:
            raise PreconditionError("row lattice of v is not contained in that of v_hat")
        b[i][i] = h[i, i] // hh[i, i]
        for j in range(i + 1, n):
            num = h[i, j] - sum(b[i][k] * hh[k, j] for k in range(i, j))
            if num % hh[j, j] != 0:
                raise PreconditionError("row lattice of v is not contained in that of v_hat")
            b[i][j] = num // hh[j, j]
    beta = unimodular_inverse(u) @ IntMatrix(b) @ uh
    if beta @ v_hat != v:
        raise PreconditionError("no integer factor maps v_hat onto v")
    return beta


def inverse_covering_decomposition(v: IntMatrix, v_hat: IntMatrix) -> CoveringData:
    """The aligned covering of ``covering_decomposition(v, v_hat)``, built the
    roundabout way: ``beta`` from the two HNFs, ``V_hat_aligned`` as
    ``nu^-1 @ v_hat`` through a matrix inverse, and the sign flips of the
    torsion rows as products with ``E = diag(+-1)``: ``E @ E == I`` and
    ``E @ Delta @ E == Delta``, so ``E @ mu`` and ``nu @ E`` keep every identity."""
    beta = hnf_beta_factor(v, v_hat)
    res = snf(beta)
    delta, mu, nu = res.D, res.U_left, res.U_right
    v_hat_aligned = unimodular_inverse(nu) @ v_hat
    diag = [delta[i, i] for i in range(v.rows)]
    e = IntMatrix.diagonal(
        [-1 if c > 1 and next(x for x in row if x) < 0 else 1 for c, row in zip(diag, v_hat_aligned)]
    )
    return CoveringData(
        V_hat=v_hat,
        beta=beta,
        Delta=delta,
        mu=e @ mu,
        nu=nu @ e,
        V_aligned=e @ mu @ v,
        V_hat_aligned=e @ v_hat_aligned,
        torsion_invariants=tuple(c for c in diag if c > 1),
    )


def _normalize_constraint(w: Sequence[int]) -> tuple[int, ...]:
    g = vector_content(w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _strict_system_feasible(constraints: list[tuple[int, ...]]) -> bool:
    """Feasibility of ``w . y > 0`` for all w, decided by Fourier-Motzkin.

    The system is homogeneous, so everything stays in exact integers: a pair
    with opposite signs on the pivot coordinate combines with positive
    multipliers into a constraint free of that coordinate.
    """
    if not constraints:
        return True
    dim = len(constraints[0])
    cons = set()
    for w in constraints:
        if not any(w):
            return False
        cons.add(_normalize_constraint(w))
    for coord in range(dim):
        pos = [w for w in cons if w[coord] > 0]
        neg = [w for w in cons if w[coord] < 0]
        keep = {w for w in cons if w[coord] == 0}
        for wp in pos:
            for wn in neg:
                comb = tuple(
                    -wn[coord] * wp[k] + wp[coord] * wn[k] for k in range(dim)
                )
                if not any(comb):
                    return False
                keep.add(_normalize_constraint(comb))
        cons = keep
        if not cons:
            return True
    return not cons


def kernel_cones_meet_in_common_face(v: IntMatrix, a, b) -> bool:
    """Whether two distinct simplicial cones meet in their shared face, decided
    over an integer basis of the functionals that vanish on the shared rays
    (one ``kernel_saturation`` per pair)."""
    shared = sorted(set(a) & set(b))
    if shared:
        basis = kernel_saturation(IntMatrix([v.col(j) for j in shared])).basis_rows
    else:
        basis = IntMatrix.identity(v.rows).tolist()
    if not basis:
        return False

    def values(j, sign):
        col = v.col(j)
        return tuple(sign * sum(x * y for x, y in zip(row, col)) for row in basis)

    constraints = [values(j, 1) for j in a if j not in shared]
    constraints += [values(j, -1) for j in b if j not in shared]
    return _strict_system_feasible(constraints)


def oracle_enumerate_fans(v: IntMatrix):
    """Sorted maximal-cone tuples of every complete simplicial fan using all
    columns of ``v``: the growth search with the kernel-based pair test, a
    generic point checked against saturated facet normals, Cramer's rule for
    the cones around it, and a scan of all candidates for each open facet."""
    n, m = v.shape
    candidates = [c for c in combinations(range(m), n) if det(v.select_cols(c)) != 0]
    normals = list(facet_normal_candidates(v)) if n > 1 else [(1,)]
    t = 1
    while True:
        point = tuple(t**k for k in range(n))
        if all(sum(u * x for u, x in zip(nrm, point)) != 0 for nrm in normals):
            break
        t += 1

    def around_point(cone):
        block = v.select_cols(cone)
        d = det(block)
        cols = [list(block.col(k)) for k in range(n)]
        for i in range(n):
            replaced = cols[:i] + [list(point)] + cols[i + 1 :]
            if det(IntMatrix(replaced).transpose()) * d <= 0:
                return False
        return True

    def facets(cone):
        return [tuple(x for x in cone if x != j) for j in cone]

    found = set()

    def grow(chosen, facet_count):
        unpaired = sorted(f for f, cnt in facet_count.items() if cnt == 1)
        if not unpaired:
            if set().union(*chosen) == set(range(m)):
                found.add(tuple(sorted(chosen)))
            return
        for cand in candidates:
            if cand in chosen or not set(unpaired[0]) <= set(cand):
                continue
            if any(facet_count.get(f, 0) >= 2 for f in facets(cand)):
                continue
            if not all(kernel_cones_meet_in_common_face(v, cand, c) for c in chosen):
                continue
            next_count = dict(facet_count)
            for f in facets(cand):
                next_count[f] = next_count.get(f, 0) + 1
            grow(chosen + [cand], next_count)

    for seed in (c for c in candidates if around_point(c)):
        grow([seed], {f: 1 for f in facets(seed)})
    return tuple(sorted(found))


def tuple_facet_tables(candidates):
    """The facet tables of the fan search built from facet tuples: for each
    candidate cone the bitmask of its facet ids, with the facets numbered in
    lexicographic order, and for each facet id the candidates on it, in order."""
    facets = [[tuple(x for x in c if x != j) for j in c] for c in candidates]
    facet_id = {f: i for i, f in enumerate(sorted({f for fs in facets for f in fs}))}
    by_facet = [[] for _ in facet_id]
    for k, fs in enumerate(facets):
        for f in fs:
            by_facet[facet_id[f]].append(k)
    return [sum(1 << facet_id[f] for f in fs) for fs in facets], by_facet


def tuple_table_search(v: IntMatrix):
    """The sorted fans of ``enumerate_fans`` and the number of partial fans its
    search pushes, starting cones included, by the same depth-first search on
    ``tuple_facet_tables``; the candidates are the column tuples of the nonzero
    minors, sorted, whose masks must be the table's keys in its order."""
    masks = [c for c, d in _minors(v).items() if d]
    candidates = sorted(tuple(j for j in range(v.cols) if c >> j & 1) for c in masks)
    assert masks == [sum(1 << j for j in c) for c in candidates]
    conflict = _conflicts(masks, _circuits(v))
    facet_masks, by_facet = tuple_facet_tables(candidates)
    stack = [(1 << k, facet_masks[k], 0, masks[k]) for k in range(len(candidates))]
    pushed, found = len(stack), set()
    while stack:
        chosen, once, twice, rays = stack.pop()
        if not once:
            if rays == (1 << v.cols) - 1:
                found.add(tuple(c for k, c in enumerate(candidates) if chosen >> k & 1))
            continue
        root = chosen & -chosen
        for k in by_facet[(once & -once).bit_length() - 1]:
            f = facet_masks[k]
            if k < root.bit_length() or chosen >> k & 1 or f & twice or conflict[k] & chosen:
                continue
            stack.append((chosen | 1 << k, once ^ f, twice | once & f, rays | masks[k]))
            pushed += 1
    return tuple(sorted(found)), pushed


def permutation_fan_matrix_equivalence(
    v1: IntMatrix,
    v2: IntMatrix,
    max_permutations: Optional[int] = None,
) -> Optional[tuple[IntMatrix, IntMatrix]]:
    """Witness (R, S) with ``R @ v1 @ S == v2``, or ``None`` if inequivalent.

    S ranges over column permutation matrices in lexicographic order (the
    identity first); for each candidate the row HNFs are compared and R is
    recovered from the two transforms.  Column contents prune the search.
    ``max_permutations`` caps the number of permutations tried (``None``: no
    cap); exceeding it raises ``SearchLimitExceeded``.
    """
    if v1.shape != v2.shape:
        raise ShapeError("fan matrices must have equal shape")
    m = v1.cols
    contents1 = [vector_content(v1.col(j)) for j in range(m)]
    contents2 = [vector_content(v2.col(j)) for j in range(m)]
    if sorted(contents1) != sorted(contents2):
        return None
    res2 = hnf(v2)
    if not any(res2.H.row(v1.rows - 1)):
        raise PreconditionError("fan matrices must have full row rank")
    u2_inv = unimodular_inverse(res2.U)
    tried = 0
    for perm in permutations(range(m)):
        if any(contents1[perm[j]] != contents2[j] for j in range(m)):
            continue
        tried += 1
        if max_permutations is not None and tried > max_permutations:
            raise SearchLimitExceeded(
                f"equivalence search exceeded {max_permutations} permutations"
            )
        permuted = v1.select_cols(perm)
        res1 = hnf(permuted)
        if res1.H != res2.H:
            continue
        r = u2_inv @ res1.U
        s = IntMatrix.permutation(perm)
        if r @ v1 @ s == v2:
            return (r, s)
    return None
