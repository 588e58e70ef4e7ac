"""Row echelon kernels and solves, cross-checked by exhaustion."""

import itertools
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from gsheaf import linalg
from gsheaf.fields import GF, QQ


def all_matrices(p, m, n):
    f = GF(p)
    for flat in itertools.product(range(p), repeat=m * n):
        yield f, [list(flat[i * n:(i + 1) * n]) for i in range(m)]


def test_mat_vec_and_mul_agree_with_manual():
    f = GF(5)
    A = [[1, 2], [3, 4], [0, 1]]
    B = [[2, 0], [1, 3]]
    assert linalg.mat_vec(f, A, [1, 2]) == [(1 + 4) % 5, (3 + 8) % 5, 2]
    AB = linalg.mat_mul(f, A, B)
    for i in range(3):
        for j in range(2):
            assert AB[i][j] == sum(A[i][k] * B[k][j] for k in range(2)) % 5


def test_rref_exhaustive_2x3_gf2():
    # every vector reduced by the echelon rows stays in the row space
    for f, M in all_matrices(2, 2, 3):
        rows, pivots = linalg.rref(f, M, 3)
        assert len(rows) == len(pivots) == linalg.rank(f, M)
        assert pivots == sorted(pivots)
        for r, p in zip(rows, pivots):
            assert r[p] == 1
            for other, q in zip(rows, pivots):
                if q != p:
                    assert other[p] == 0  # fully reduced above and below


def test_rref_idempotent_gf3():
    for f, M in all_matrices(3, 2, 2):
        rows, _ = linalg.rref(f, M, 2)
        again, _ = linalg.rref(f, rows, 2)
        assert rows == again


def test_solve_exhaustive_gf2():
    # solve() must succeed exactly when b lies in the column span
    for f, A in all_matrices(2, 2, 2):
        for b in itertools.product(range(2), repeat=2):
            b = list(b)
            x = linalg.solve(f, A, b)
            reachable = any(linalg.mat_vec(f, A, list(v)) == b
                            for v in itertools.product(range(2), repeat=2))
            assert (x is not None) == reachable
            if x is not None:
                assert linalg.mat_vec(f, A, x) == b


def test_kernel_exhaustive_gf3():
    for f, A in all_matrices(3, 2, 2):
        ker = linalg.kernel_basis(f, A, 2)
        members = {tuple(v) for v in itertools.product(range(3), repeat=2)
                   if linalg.vec_is_zero(linalg.mat_vec(f, A, list(v)))}
        spanned = set()
        for coeffs in itertools.product(range(3), repeat=len(ker)):
            v = [0, 0]
            for c, k in zip(coeffs, ker):
                v = linalg.vec_add(f, v, linalg.vec_scale(f, c, k))
            spanned.add(tuple(v))
        assert spanned == members


def test_kernel_of_empty_matrix_is_everything():
    ker = linalg.kernel_basis(GF(2), [], 3)
    assert len(ker) == 3


def test_inverse_matrix_gf5():
    f = GF(5)
    M = [[1, 2], [3, 4]]
    Minv = linalg.inverse_matrix(f, M)
    assert linalg.mat_mul(f, M, Minv) == linalg.identity_matrix(f, 2)
    assert linalg.inverse_matrix(f, [[1, 2], [2, 4]]) is None


def test_rational_solve_is_exact():
    A = [[Fraction(1, 3), Fraction(1)], [Fraction(1), Fraction(1, 2)]]
    b = [Fraction(7, 3), Fraction(5, 2)]
    x = linalg.solve(QQ, A, b)
    assert linalg.mat_vec(QQ, A, x) == b
    assert x == [Fraction(8, 5), Fraction(9, 5)]
    # the canonical QQ form: an int when integral, else denominator > 1
    assert all(type(c) is Fraction and c.denominator > 1 for c in x)
    y = linalg.solve(QQ, A, [Fraction(4, 3), Fraction(3, 2)])
    assert y == [1, 1] and all(type(c) is int for c in y)


@given(st.integers(0, 2**30), st.integers(1, 4), st.integers(1, 4))
def test_rref_preserves_row_space_random(seed, m, n):
    rng = random.Random(seed)
    f = GF(3)
    M = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
    rows, _ = linalg.rref(f, M, n)
    span = linalg.IncrementalSpan(f, n)
    span.add_all(M)
    # every original row reduces to zero against the echelon basis
    echelon = linalg.IncrementalSpan(f, n)
    echelon.add_all(rows)
    for r in M:
        assert echelon.contains(r)
    assert span.dim == len(rows)


@given(st.integers(0, 2**30))
def test_incremental_span_add_reports_growth(seed):
    rng = random.Random(seed)
    f = GF(2)
    span = linalg.IncrementalSpan(f, 4)
    for _ in range(8):
        v = [rng.randrange(2) for _ in range(4)]
        before = span.dim
        grew = span.add(v)
        assert grew == (span.dim == before + 1)
        assert span.contains(v)
