"""The sparse structure-constant kernel against the dense loops it replaced.

The reference functions below are the dense versions of FDAlgebra.mul,
validate_algebra, mat_vec and mat_mul, which compared every entry of both
operands with zero, and of the module and ideal layer: AlgebraModule
validate/action_matrix, submodule_generated/is_submodule by mat_vec,
quotient_module through the lift matrix, the annihilator from one
equation per matrix entry, ideal_generated on all n + 1 left images,
is_ideal by A.mul(b, v), and the join closure by Subspace.join.  They live here only as the oracle: on seeded random
tables and matrices, sparse and dense, over GF(2), GF(3), GF(5) and QQ,
the kernel must give the same vectors, matrices, subspaces and violation
lists, entry type included.  Modules induced from isotropy, whose action
matrices are mostly structurally zero rows, are compared as well.
"""

import random
from fractions import Fraction

import pytest

from gsheaf import exactalg, linalg
from gsheaf.convalg import build_conv_algebra
from gsheaf.errors import AlgebraError, CheckFailure
from gsheaf.exactalg import AlgebraModule, FDAlgebra, Subspace
from gsheaf.fields import GF, QQ
from gsheaf.linalg import IncrementalSpan
from gsheaf.fixtures import (cyclic_mul, dual_numbers, get_fixture,
                             group_groupoid, pair_groupoid, s3_group,
                             scalar_algebra)
from gsheaf.induction import InductionMap, induce, isotropy_ring
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


def dense_module_validate(M):
    """The old AlgebraModule.validate: dense products on every basis pair."""
    A, f, n = M.algebra, M.field, M.dim
    bad = []
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = dense_combination(f, A.table[i][j], M.mats, n)
            rhs = dense_mat_mul(f, M.mats[i], M.mats[j])
            if not linalg.mat_eq(lhs, rhs):
                bad.append(f"action({A.labels[i]}*{A.labels[j]}) != "
                           f"action({A.labels[i]})action({A.labels[j]})")
    if A.unit is not None:
        if not linalg.mat_eq(dense_combination(f, A.unit, M.mats, n),
                             linalg.identity_matrix(f, n)):
            bad.append("unit does not act as the identity")
    return bad


def dense_submodule_generated(M, vectors, stop_at_full=False):
    f = M.field
    span = IncrementalSpan(f, M.dim)
    for v in vectors:
        for w in [list(v)] + [dense_mat_vec(f, X, v) for X in M.mats]:
            span.add(w)
            if stop_at_full and span.is_full():
                return Subspace(f, M.dim, span.rows, span.pivots)
    return Subspace(f, M.dim, span.rows, span.pivots)


def dense_is_submodule(M, S):
    return all(S.contains(dense_mat_vec(M.field, X, list(v)))
               for v in S.basis for X in M.mats)


def dense_quotient_module(M, N):
    f = M.field
    proj, lift = exactalg.quotient_coords(f, N)
    mats = [dense_mat_mul(f, dense_mat_mul(f, proj, X), lift) for X in M.mats]
    return AlgebraModule(M.algebra, len(proj), mats), proj


def dense_annihilator(M):
    """The old annihilator: one equation per entry (r, c), zero or not."""
    A, f = M.algebra, M.field
    rows = [[M.mats[i][r][c] for i in range(A.dim)]
            for r in range(M.dim) for c in range(M.dim)]
    ker = (linalg.kernel_basis(f, rows, A.dim) if rows
           else linalg.identity_matrix(f, A.dim))
    S = Subspace.from_vectors(f, A.dim, ker)
    if not dense_is_ideal(A, S):
        raise CheckFailure("annihilator is not a two-sided ideal")
    return S


def dense_ideal_generated(A, gens, stop_at_full=False):
    """g, b_i g, then g b_j and b_i g b_j: (n + 1)(n + 1) vectors per g."""
    f = A.field
    L, R = A.left_basis_mats(), A.right_basis_mats()
    span = IncrementalSpan(f, A.dim)
    for g in gens:
        g = list(g)
        lefts = [dense_mat_vec(f, Li, g) for Li in L]
        for w in [g] + lefts + [dense_mat_vec(f, Rj, w)
                                for w in [g] + lefts for Rj in R]:
            span.add(w)
            if stop_at_full and span.is_full():
                return Subspace(f, A.dim, span.rows, span.pivots)
    return Subspace(f, A.dim, span.rows, span.pivots)


def dense_is_ideal(A, S):
    basis = [A.basis_vector(i) for i in range(A.dim)]
    return all(S.contains(A.mul(b, v)) and S.contains(A.mul(v, b))
               for v in S.basis for b in basis)


def dense_join_closure(A, cyclics):
    found = {(): Subspace.zero(A.field, A.dim)}
    for I in cyclics.values():
        found.setdefault(I.basis, I)
    work = list(found.values())
    while work:
        I = work.pop()
        for J in cyclics.values():
            K = I.join(J)
            if K.basis not in found:
                found[K.basis] = K
                work.append(K)
    return sorted(found.values(), key=Subspace.sort_key)


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


def random_module(rng, A, m, density):
    """Random action matrices: almost never a module."""
    return AlgebraModule(A, m, [matrix(rng, A.field, m, m, density)
                                for _ in range(A.dim)])


def genuine_modules(rng, f):
    """Regular modules of the associative tables, sparse and rebased."""
    mods = []
    for A in associative_algebras(f):
        mods += [exactalg.regular_module(A), exactalg.regular_module(rebased(rng, A))]
    return mods


def perturbed_module(rng, M):
    """M with one action entry changed."""
    f = M.field
    mats = [[list(r) for r in X] for X in M.mats]
    i, r, c = rng.randrange(len(mats)), rng.randrange(M.dim), rng.randrange(M.dim)
    mats[i][r][c] = f.add(mats[i][r][c], f.one)
    return AlgebraModule(M.algebra, M.dim, mats)


def random_subspace(rng, f, n, density):
    return Subspace.from_vectors(f, n, [vector(rng, f, n, density)
                                        for _ in range(rng.randint(0, n))])


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


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_validate_sees_a_failure_where_only_b_j_b_k_is_nonzero(f):
    # both sides vanish when b_i b_j = 0 = b_j b_k, and those triples are
    # not walked; changing b_i b_m, for m != j in the support of b_j b_k,
    # breaks (i, j, k) with b_i b_j = 0 on the right-hand side alone
    rng = random.Random(f"right-only-{f!r}")
    planted = 0
    for A in associative_algebras(f):
        n, nz = A.dim, A.nonzero_table()
        triples = [(i, j, k) for i in range(n) for j in range(n)
                   for k in range(n) if not nz[i][j] and nz[j][k]]
        for i, j, k in rng.sample(triples, min(16, len(triples))):
            ms = [m for m, _ in nz[j][k] if m != j]
            if not ms:
                continue
            m, q = rng.choice(ms), rng.randrange(n)
            table = [[list(v) for v in row] for row in A.table]
            table[i][m][q] = f.add(table[i][m][q], f.one)
            broken = FDAlgebra(f, A.labels, table, A.unit)
            bad = exactalg.validate_algebra(broken)
            assert bad == dense_validate(broken)
            assert (f"associativity fails on triple "
                    f"({A.labels[i]},{A.labels[j]},{A.labels[k]})") in bad
            planted += 1
    assert planted >= 8


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


# ---------------------------------------------------------------------------
# the module and ideal layer


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_basis_products_match_mul(f, density):
    rng = random.Random(f"basis_products-{f!r}-{density}")
    for _ in range(10):
        n = rng.randint(1, 5)
        A = random_algebra(rng, f, n, density)
        v = vector(rng, f, n, density)
        basis = [A.basis_vector(i) for i in range(n)]
        assert same(A.basis_products(v, "left"), [dense_mul(A, b, v) for b in basis])
        assert same(A.basis_products(v, "right"), [dense_mul(A, v, b) for b in basis])


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_module_validate_and_actions_match_dense_on_random_modules(f, density):
    rng = random.Random(f"module-{f!r}-{density}")
    for _ in range(6):
        A = random_algebra(rng, f, rng.randint(1, 4), density)
        M = random_module(rng, A, rng.randint(1, 4), density)
        assert M.validate() == dense_module_validate(M)
        for _ in range(3):
            v = vector(rng, f, A.dim, density)
            assert same(M.action_matrix(v), dense_combination(f, v, M.mats, M.dim))
            w = vector(rng, f, M.dim, density)
            for i in range(A.dim):
                assert same(M.act(i, w), dense_mat_vec(f, M.mats[i], w))


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_module_validate_matches_dense_on_genuine_and_broken_modules(f):
    rng = random.Random(f"genuine-{f!r}")
    for M in genuine_modules(rng, f):
        assert M.validate() == dense_module_validate(M) == []
        broken = perturbed_module(rng, M)
        bad = broken.validate()
        assert bad == dense_module_validate(broken)
        assert bad


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_submodules_and_quotients_match_dense(f, density):
    rng = random.Random(f"submodule-{f!r}-{density}")
    genuine = genuine_modules(rng, f)
    mods = list(genuine)
    for _ in range(4):
        A = random_algebra(rng, f, rng.randint(1, 4), density)
        A.unit = A.unit or tuple(vector(rng, f, A.dim, 1.0))  # generation needs a unit
        mods.append(random_module(rng, A, rng.randint(1, 4), density))
    for M in mods:
        for k in (1, 2):
            vs = [vector(rng, f, M.dim, density) for _ in range(k)]
            for stop in (False, True):
                S = exactalg.submodule_generated(M, vs, stop_at_full=stop)
                assert S == dense_submodule_generated(M, vs, stop_at_full=stop)
            # one step of generation is closed only under a genuine action
            closed = dense_is_submodule(M, S)
            assert exactalg.is_submodule(M, S) == closed
            assert closed or M not in genuine
            if closed:
                Q, proj = exactalg.quotient_module(M, S)
                Qd, projd = dense_quotient_module(M, S)
                assert same(proj, projd) and same(Q.mats, Qd.mats)
            T = random_subspace(rng, f, M.dim, density)
            assert exactalg.is_submodule(M, T) == dense_is_submodule(M, T)


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_ideal_generated_and_is_ideal_match_dense(f, density):
    rng = random.Random(f"ideal-{f!r}-{density}")
    algebras = [B for A in associative_algebras(f) for B in (A, rebased(rng, A))]
    for _ in range(4):
        algebras.append(random_algebra(rng, f, rng.randint(1, 5), density))
    # non-unital, a b = b: A a = 0, so the two-sided ideal of a needs a b
    algebras.append(FDAlgebra(f, ["a", "b"], [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]))
    for A in algebras:
        gen_sets = [[A.basis_vector(0)]] + [
            [vector(rng, f, A.dim, density) for _ in range(k)] for k in (1, 3)]
        for gens in gen_sets:
            for stop in (False, True):
                I = exactalg.ideal_generated(A, gens, stop_at_full=stop)
                assert I == dense_ideal_generated(A, gens, stop_at_full=stop)
            for S in (I, random_subspace(rng, f, A.dim, density)):
                assert exactalg.is_ideal(A, S) == dense_is_ideal(A, S)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_join_closure_matches_subspace_join(f):
    rng = random.Random(f"join-{f!r}")
    for density in DENSITIES:
        for _ in range(3):
            n = rng.randint(1, 4)
            A = random_algebra(rng, f, n, density)
            cyclics = {}
            for _ in range(4):
                S = random_subspace(rng, f, n, density)
                cyclics.setdefault(S.basis, S)
            assert exactalg._join_closure(A, cyclics) == dense_join_closure(A, cyclics)


def test_ideal_generation_multiplies_only_echelon_rows(monkeypatch):
    A = exactalg.matrix_algebra(GF(2), 3)
    e11 = A.basis_vector(0)
    fed = []
    add = IncrementalSpan.add

    def counted(span, v):
        fed.append(v)
        return add(span, v)

    monkeypatch.setattr(IncrementalSpan, "add", counted)
    I = exactalg.ideal_generated(A, [e11])
    # e11, its 9 left products, and 9 right products of each of the
    # 3 echelon rows of A e11 = span{e11, e21, e31}
    assert I.is_full() and len(fed) <= 1 + 9 + 3 * 9
    fed.clear()
    assert dense_ideal_generated(A, [e11]) == I and len(fed) == 10 * 10


def outcome(fn, *args):
    """The value of fn(*args), or the message of the CheckFailure it raised."""
    try:
        return fn(*args)
    except CheckFailure as exc:
        return str(exc)


def induced_modules(name):
    """Ind_x of the regular B_x-module and of each simple B_x-module, at
    every unit x of a catalog sheaf."""
    conv = build_conv_algebra(*get_fixture(name).build())
    for x in conv.groupoid.units:
        B = isotropy_ring(conv, x)
        phi = InductionMap.canonical(conv, x, B)
        R = exactalg.regular_module(B)
        for M in [R] + exactalg.meataxe_simple_quotients(R):
            yield induce(phi, M)


@pytest.mark.parametrize("name", ["P3-F3", "MIX", "DUAL-P2"])
def test_validate_and_annihilator_match_dense_on_induced_modules(name):
    # an induced module over a k-unit orbit has one nonzero block per
    # basis section, so most rows are structurally zero; a perturbed entry
    # may sit in such a row, or on a row some other rho(b_k) already has
    rng = random.Random(f"induced-{name}")
    count = 0
    for ind in induced_modules(name):
        count += 1
        assert ind.validate() == dense_module_validate(ind) == []
        assert exactalg.annihilator(ind) == dense_annihilator(ind)
        for _ in range(12):
            broken = perturbed_module(rng, ind)
            assert broken.validate() == dense_module_validate(broken)
            assert outcome(exactalg.annihilator, broken) == \
                outcome(dense_annihilator, broken)
    assert count == {"P3-F3": 6, "MIX": 6, "DUAL-P2": 4}[name]


def test_nonzero_rows_are_built_once_per_module(monkeypatch):
    views = []
    nonzero_rows = AlgebraModule.nonzero_rows

    def recorded(M):
        views.append(nonzero_rows(M))
        return views[-1]

    monkeypatch.setattr(AlgebraModule, "nonzero_rows", recorded)
    M = exactalg.regular_module(exactalg.matrix_algebra(GF(3), 2))
    v = [1, 0, 2, 1]
    assert M.validate() == []
    M.action_matrix(v)
    exactalg.submodule_generated(M, [v])
    assert len(views) > 3 and all(view is views[0] for view in views)
