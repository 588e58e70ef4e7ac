"""Exact linear algebra over a Field.

Vectors are lists/tuples of scalars, matrices are lists of rows.  The
workhorse is IncrementalSpan, which keeps a reduced row echelon basis as
vectors are fed in; its row list is the canonical form used everywhere a
subspace must compare bit-for-bit.
"""

from __future__ import annotations

from .errors import AlgebraError
from .fields import Field


def zero_vector(field: Field, n: int) -> list:
    z = field.zero
    return [z] * n


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, v):
    return [field.mul(c, a) for a in v]


def identity_matrix(field: Field, n: int) -> list[list]:
    rows = []
    for i in range(n):
        row = zero_vector(field, n)
        row[i] = field.one
        rows.append(row)
    return rows


def zero_matrix(field: Field, m: int, n: int) -> list[list]:
    return [zero_vector(field, n) for _ in range(m)]


def mat_vec(field, M, v) -> list:
    nz = [(j, b) for j, b in enumerate(v) if b != 0]
    out = []
    for row in M:
        acc = field.zero
        for j, b in nz:
            a = row[j]
            if a != 0:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def mat_mul(field, A, B) -> list[list]:
    """A B, each output row accumulated from the nonzero entries of B's rows."""
    if A and B and len(A[0]) != len(B):
        raise AlgebraError(f"matrix shapes do not compose: {len(A[0])} vs {len(B)}")
    ncols = len(B[0]) if B else 0
    b_rows = [[(c, b) for c, b in enumerate(row) if b != 0] for row in B]
    out = []
    for row in A:
        orow = zero_vector(field, ncols)
        for a, b_row in zip(row, b_rows):
            if a != 0:
                for c, b in b_row:
                    orow[c] = field.add(orow[c], field.mul(a, b))
        out.append(orow)
    return out


def combine_matrices(field, coeffs, mats, n: int) -> list[list]:
    """The n x n matrix sum of coeffs[i] * mats[i] over the nonzero coeffs."""
    out = zero_matrix(field, n, n)
    for a, M in zip(coeffs, mats):
        if a == 0:
            continue
        for row, orow in zip(M, out):
            for c, x in enumerate(row):
                if x != 0:
                    orow[c] = field.add(orow[c], field.mul(a, x))
    return out


def mat_eq(A, B) -> bool:
    if len(A) != len(B):
        return False
    return all(list(r) == list(s) for r, s in zip(A, B))


def transpose(M) -> list[list]:
    return [list(col) for col in zip(*M)] if M else []


class IncrementalSpan:
    """A subspace kept in reduced row echelon form as vectors are added."""

    def __init__(self, field: Field, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        return len(self.rows) == self.ncols

    def reduce(self, v) -> list:
        """Residual of v after eliminating every pivot. Does not mutate."""
        f = self.field
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = w[p]
            if c != 0:
                for j in range(p, self.ncols):
                    if row[j] != 0:
                        w[j] = f.sub(w[j], f.mul(c, row[j]))
        return w

    def contains(self, v) -> bool:
        return vec_is_zero(self.reduce(v))

    def add(self, v) -> bool:
        """Add v to the span. Returns True when the span grew."""
        f = self.field
        w = self.reduce(v)
        p = next((j for j, a in enumerate(w) if a != 0), None)
        if p is None:
            return False
        c = f.inv(w[p])
        w = [f.mul(c, a) for a in w]
        # back-substitute so existing rows stay reduced
        for row in self.rows:
            c = row[p]
            if c != 0:
                for j in range(p, self.ncols):
                    if w[j] != 0:
                        row[j] = f.sub(row[j], f.mul(c, w[j]))
        k = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(k, w)
        self.pivots.insert(k, p)
        return True

    def add_all(self, vectors) -> None:
        for v in vectors:
            self.add(v)


def rref(field, rows, ncols=None):
    """Reduced row echelon form. Returns (rows, pivots); zero rows dropped."""
    if ncols is None:
        if not rows:
            raise AlgebraError("rref needs ncols when no rows are given")
        ncols = len(rows[0])
    span = IncrementalSpan(field, ncols)
    span.add_all(rows)
    return [list(r) for r in span.rows], list(span.pivots)


def rank(field, M) -> int:
    if not M:
        return 0
    rows, _ = rref(field, M)
    return len(rows)


def solve(field, A, b):
    """One solution x of A x = b, or None. Free variables are set to 0."""
    m = len(A)
    n = len(A[0]) if A else 0
    aug = [list(A[i]) + [b[i]] for i in range(m)]
    rows, pivots = rref(field, aug, n + 1)
    x = zero_vector(field, n)
    for row, p in zip(rows, pivots):
        if p == n:
            return None  # inconsistent: pivot in the augmented column
        x[p] = row[n]
    return x


def kernel_basis(field, A, ncols=None):
    """Canonical (RREF) basis of the null space of A."""
    if ncols is None:
        if not A:
            raise AlgebraError("kernel_basis needs ncols when no rows are given")
        ncols = len(A[0])
    rows, pivots = rref(field, A, ncols) if A else ([], [])
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for j in free:
        v = zero_vector(field, ncols)
        v[j] = field.one
        for row, p in zip(rows, pivots):
            if row[j] != 0:
                v[p] = field.neg(row[j])
        basis.append(v)
    out, _ = rref(field, basis, ncols) if basis else ([], [])
    return out


def inverse_matrix(field, M):
    """Inverse of a square matrix, or None if singular."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise AlgebraError("inverse of a non-square matrix")
    aug = [list(M[i]) + identity_matrix(field, n)[i] for i in range(n)]
    rows, pivots = rref(field, aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(rows) < n:
        return None
    return [row[n:] for row in rows[:n]]
