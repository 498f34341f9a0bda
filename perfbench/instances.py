"""Seeded random reduced fan matrices, built without ``torifactor``.

Follows the recipe of the test suite's ``random_reduced_f_matrix`` step for
step, with the same calls on the random generator: unit columns plus
strictly negative columns in a random basis, then, usually, a small
nonsingular factor whose diagonal survives as class-group torsion, followed
by column reduction.  The fan-matrix conditions are checked here with the
benchmark's own arithmetic.
"""

from __future__ import annotations

import random

from zmath import (
    column,
    column_lattice_is_full,
    content,
    identity,
    is_reduced_fan_matrix,
    matmul,
    transpose,
)


def random_unimodular(rng, n, steps=5):
    m = identity(n)
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
    return m


def random_cf_matrix(rng, n, r):
    """Torsion-free reduced fan matrix: unit plus strictly negative columns."""
    while True:
        cols = [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
        for _ in range(r):
            cols.append(tuple(-rng.randint(1, 3) for _ in range(n)))
        rng.shuffle(cols)
        v = matmul(random_unimodular(rng, n), transpose(cols))
        if is_reduced_fan_matrix(v) and column_lattice_is_full(v):
            return v


def reduce_columns(v):
    cols = []
    for j in range(len(v[0])):
        c = column(v, j)
        g = content(c)
        cols.append(tuple(x // g for x in c))
    return transpose(cols)


def random_reduced_f_matrix(rng, n, r, torsion_bias=0.7):
    """Reduced fan matrix, frequently with class-group torsion."""
    vhat = random_cf_matrix(rng, n, r)
    if rng.random() > torsion_bias:
        return vhat
    diag = [1] * n
    for i in range(n - 1, max(n - 3, 0) - 1, -1):
        diag[i] = rng.choice([1, 2, 2, 3, 4, 5, 6])
    b = matmul(
        matmul(random_unimodular(rng, n), [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)]),
        random_unimodular(rng, n),
    )
    v = reduce_columns(matmul(b, vhat))
    if not is_reduced_fan_matrix(v):
        raise AssertionError("generated matrix is not a reduced fan matrix")
    return v


def rng_for(seed, *labels):
    """Independent generator per (seed, label...) so streams never interleave."""
    return random.Random("/".join(str(x) for x in (seed,) + labels))


def row_action(rng, v):
    """A random ``GL_n(Z)`` row action: keeps the row HNF of every column
    arrangement, so an equivalence search tries the same permutations."""
    return matmul(random_unimodular(rng, len(v)), v)


def shuffle_columns(rng, v):
    perm = list(range(len(v[0])))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in v]
