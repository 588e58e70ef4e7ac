"""The sparse structure-constant kernel against the dense loops it replaced.

The reference functions below are the dense versions of FDAlgebra.mul,
validate_algebra, mat_vec and mat_mul, which compared every entry of both
operands with zero.  They live here only as the oracle: on seeded random
tables and matrices, sparse and dense, over GF(2), GF(3), GF(5) and QQ,
the kernel must give the same vectors, matrices and violation lists,
entry type included.
"""

import random
from fractions import Fraction

import pytest

from gsheaf import exactalg, linalg
from gsheaf.convalg import build_conv_algebra
from gsheaf.errors import AlgebraError
from gsheaf.exactalg import AlgebraModule, FDAlgebra
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (cyclic_mul, dual_numbers, group_groupoid,
                             pair_groupoid, s3_group, scalar_algebra)
from gsheaf.sheaf import constant_sheaf

FIELDS = [GF(2), GF(3), GF(5), QQ]
DENSITIES = [0.15, 1.0]


# ---------------------------------------------------------------------------
# dense reference


def dense_mul(A, u, v):
    f = A.field
    out = linalg.zero_vector(f, A.dim)
    for i, a in enumerate(u):
        if a == 0:
            continue
        row = A.table[i]
        for j, b in enumerate(v):
            if b == 0:
                continue
            c = f.mul(a, b)
            for k, t in enumerate(row[j]):
                if t != 0:
                    out[k] = f.add(out[k], f.mul(c, t))
    return out


def dense_validate(A):
    bad = []
    n = A.dim
    for i in range(n):
        for j in range(n):
            left = A.table[i][j]
            for k in range(n):
                lhs = dense_mul(A, left, A.basis_vector(k))
                rhs = dense_mul(A, A.basis_vector(i), A.table[j][k])
                if lhs != rhs:
                    bad.append(
                        f"associativity fails on triple "
                        f"({A.labels[i]},{A.labels[j]},{A.labels[k]})")
    if A.unit is not None:
        for i in range(n):
            e = A.basis_vector(i)
            if dense_mul(A, list(A.unit), e) != e or \
                    dense_mul(A, e, list(A.unit)) != e:
                bad.append(f"unit law fails on basis element {A.labels[i]}")
    return bad


def dense_mat_vec(field, M, v):
    out = []
    for row in M:
        acc = field.zero
        for a, b in zip(row, v):
            if a != 0 and b != 0:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def dense_mat_mul(field, A, B):
    if A and B and len(A[0]) != len(B):
        raise AlgebraError(f"matrix shapes do not compose: {len(A[0])} vs {len(B)}")
    cols = list(zip(*B)) if B else []
    out = []
    for row in A:
        orow = []
        for col in cols:
            acc = field.zero
            for a, b in zip(row, col):
                if a != 0 and b != 0:
                    acc = field.add(acc, field.mul(a, b))
            orow.append(acc)
        out.append(orow)
    return out


def dense_combination(field, coeffs, mats, n):
    """sum coeffs[i] * mats[i], the loop of the old action_matrix."""
    out = linalg.zero_matrix(field, n, n)
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        for r in range(n):
            for c in range(n):
                if mats[i][r][c] != 0:
                    out[r][c] = field.add(out[r][c], field.mul(a, mats[i][r][c]))
    return out


# ---------------------------------------------------------------------------
# seeded random inputs


def scalar(rng, f, density):
    if rng.random() >= density:
        return f.zero
    if f.is_finite:
        return rng.randrange(f.p)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def vector(rng, f, n, density):
    return [scalar(rng, f, density) for _ in range(n)]


def matrix(rng, f, m, n, density):
    return [vector(rng, f, n, density) for _ in range(m)]


def random_algebra(rng, f, n, density):
    """Random structure constants: almost never associative."""
    table = [[vector(rng, f, n, density) for _ in range(n)] for _ in range(n)]
    unit = vector(rng, f, n, density) if rng.random() < 0.5 else None
    return FDAlgebra(f, [f"b{k}" for k in range(n)], table, unit)


def conv_algebra(G, B):
    return build_conv_algebra(G, constant_sheaf(G, B)).algebra


def associative_algebras(f):
    """Sparse associative tables: matrix units, F[S3], dual numbers."""
    algebras = [conv_algebra(pair_groupoid(2), scalar_algebra(f)),
                conv_algebra(group_groupoid(*s3_group()), scalar_algebra(f))]
    if f == GF(2):
        z2 = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
        algebras.append(conv_algebra(z2, dual_numbers()))
    return algebras


def rebased(rng, A):
    """A in a random basis: the same algebra, now with dense constants."""
    f = A.field
    n = A.dim
    while True:
        P = matrix(rng, f, n, n, 1.0)
        Pinv = linalg.inverse_matrix(f, P)
        if Pinv is not None:
            break
    # new basis c_i = sum_k P[k][i] b_k; coordinates go back through P^-1
    c = [[P[k][i] for k in range(n)] for i in range(n)]
    table = [[linalg.mat_vec(f, Pinv, A.mul(c[i], c[j])) for j in range(n)]
             for i in range(n)]
    unit = linalg.mat_vec(f, Pinv, list(A.unit))
    return FDAlgebra(f, A.labels, table, unit)


def perturbed(rng, A):
    """A with one structure constant changed: a few triples now fail."""
    f = A.field
    table = [[list(v) for v in row] for row in A.table]
    i, j, k = (rng.randrange(A.dim) for _ in range(3))
    table[i][j][k] = f.add(table[i][j][k], f.one)
    return FDAlgebra(f, A.labels, table, A.unit)


def same(x, y):
    """Equal values of equal types, as the catalog JSON would see them."""
    return repr(x) == repr(y)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_mul_matches_dense(f, density):
    rng = random.Random(f"mul-{f!r}-{density}")
    for _ in range(12):
        n = rng.randint(1, 6)
        A = random_algebra(rng, f, n, density)
        for _ in range(6):
            u = vector(rng, f, n, density)
            v = vector(rng, f, n, density)
            assert same(A.mul(u, v), dense_mul(A, u, v))
            # and through the multiplication matrices built on the same table
            assert same(A.left_mult_matrix(u),
                        dense_combination(f, u, A.left_basis_mats(), n))
            assert same(A.right_mult_matrix(v),
                        dense_combination(f, v, A.right_basis_mats(), n))


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_validate_matches_dense_on_random_tables(f, density):
    rng = random.Random(f"validate-{f!r}-{density}")
    for _ in range(8):
        A = random_algebra(rng, f, rng.randint(1, 5), density)
        assert exactalg.validate_algebra(A) == dense_validate(A)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_validate_matches_dense_on_associative_tables(f):
    rng = random.Random(f"assoc-{f!r}")
    for A in associative_algebras(f):
        dense = rebased(rng, A)
        for B in (A, dense):
            assert exactalg.validate_algebra(B) == dense_validate(B) == []
            broken = perturbed(rng, B)
            bad = exactalg.validate_algebra(broken)
            assert bad == dense_validate(broken)
            assert bad


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_mat_vec_matches_dense(f, density):
    rng = random.Random(f"mat_vec-{f!r}-{density}")
    for _ in range(40):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        M = matrix(rng, f, m, n, density)
        v = vector(rng, f, n, density)
        assert same(linalg.mat_vec(f, M, v), dense_mat_vec(f, M, v))


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_mat_mul_matches_dense(f, density):
    rng = random.Random(f"mat_mul-{f!r}-{density}")
    for _ in range(40):
        m, k, n = (rng.randint(0, 5) for _ in range(3))
        A = matrix(rng, f, m, k, density)
        B = matrix(rng, f, k, n, density)
        assert same(linalg.mat_mul(f, A, B), dense_mat_mul(f, A, B))


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_action_matrix_matches_dense(f):
    rng = random.Random(f"action-{f!r}")
    A = random_algebra(rng, f, 4, 0.5)
    mats = [matrix(rng, f, 3, 3, 0.5) for _ in range(A.dim)]
    M = AlgebraModule(A, 3, mats)
    for density in DENSITIES:
        v = vector(rng, f, A.dim, density)
        assert same(M.action_matrix(v), dense_combination(f, v, mats, 3))


def test_mat_mul_shape_error_matches_dense():
    f = GF(3)
    A = [[1, 2, 0]]
    B = [[1], [2]]
    with pytest.raises(AlgebraError) as sparse:
        linalg.mat_mul(f, A, B)
    with pytest.raises(AlgebraError) as dense:
        dense_mat_mul(f, A, B)
    assert str(sparse.value) == str(dense.value) == \
        "matrix shapes do not compose: 3 vs 2"
