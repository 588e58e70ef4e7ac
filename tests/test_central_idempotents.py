"""Pierce atoms come from the certified
exactalg.central_primitive_idempotents; here they are checked against an
exhaustive scan of the centre, kept only as the reference."""

import itertools

import pytest

from gsheaf import exactalg, linalg
from gsheaf.convalg import build_conv_algebra
from gsheaf.errors import AlgebraError, CapExceeded
from gsheaf.exactalg import (FDAlgebra, Subspace, group_algebra,
                             matrix_algebra)
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (_diag_f2_squared, catalog_names, cyclic_mul,
                             get_fixture, s3_group, trivial_isg)
from gsheaf.isgring import SpectralRingAction, pierce_atoms, pierce_verification


def scan_central_idempotents(A):
    """Every central idempotent, by running through the whole centre,
    sorted by encoded coefficients."""
    f = A.field
    Z = exactalg.centralizer(A, Subspace.full(f, A.dim))
    found = []
    for coeffs in itertools.product(f.elements(), repeat=Z.dim):
        v = linalg.zero_vector(f, A.dim)
        for c, z in zip(coeffs, Z.basis):
            v = linalg.vec_add(f, v, linalg.vec_scale(f, c, list(z)))
        if A.mul(v, v) == v:
            found.append(v)
    found.sort(key=lambda v: tuple(f.encode(c) for c in v))
    return found


def scan_atoms(A):
    """The minimal nonzero central idempotents among the scanned ones."""
    cents = [e for e in scan_central_idempotents(A)
             if not linalg.vec_is_zero(e)]
    return [e for e in cents
            if all(g == e or A.mul(g, e) != g for g in cents)]


def product_algebra(A, B):
    """A x B on the concatenated bases, multiplied blockwise."""
    n, m = A.dim, B.dim
    zero = [A.field.zero] * (n + m)
    table = [[zero] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            table[i][j] = list(A.table[i][j]) + [B.field.zero] * m
    for i in range(m):
        for j in range(m):
            table[n + i][n + j] = [A.field.zero] * n + list(B.table[i][j])
    labels = [f"a{lab}" for lab in A.labels] + [f"b{lab}" for lab in B.labels]
    return FDAlgebra(A.field, labels, table, list(A.unit) + list(B.unit))


def diagonal_algebra(field, n):
    """field^n on its basis of orthogonal idempotents."""
    table = [[[field.one if k == i == j else field.zero for k in range(n)]
              for j in range(n)] for i in range(n)]
    return FDAlgebra(field, [f"d{i}" for i in range(n)], table,
                     [field.one] * n)


def trivial_action_on(A):
    full = Subspace.full(A.field, A.dim)
    return SpectralRingAction(trivial_isg(), A, {"1": full},
                              {"1": linalg.identity_matrix(A.field, A.dim)})


def catalog_finite_algebras():
    """The distinct finite-field sheaf stalks, convolution algebras and
    ring-action algebras of the fixture catalog."""
    seen = {}
    for name in catalog_names():
        fix = get_fixture(name)
        if fix.kind == "sheaf":
            G, O = fix.build()
            algebras = [O.stalk[u] for u in G.units]
            algebras.append(build_conv_algebra(G, O).algebra)
        elif fix.kind == "ring_action":
            algebras = [fix.build().algebra]
        else:
            continue
        for A in algebras:
            if A.field.is_finite:
                key = (A.field.p, A.labels, tuple(map(tuple, A.table)), A.unit)
                seen.setdefault(key, A)
    return list(seen.values())


def s3_algebra(p):
    _, elements, mul = s3_group()
    return group_algebra(GF(p), elements, lambda g, h: mul[g, h])


def z2_algebra(p):
    mul = cyclic_mul(["1", "g"])
    return group_algebra(GF(p), ["1", "g"], lambda g, h: mul[g, h])


STOCK = [
    ("diag_f2_squared", _diag_f2_squared),
    ("M2(F2)xF2", lambda: product_algebra(matrix_algebra(GF(2), 2),
                                          exactalg.scalar_algebra(GF(2)))),
    ("F2[S3]", lambda: s3_algebra(2)),
    ("F3[Z2]", lambda: z2_algebra(3)),
]


@pytest.fixture(scope="module")
def algebras():
    stock = [build() for _, build in STOCK]
    catalog = catalog_finite_algebras()
    assert len(catalog) >= 20
    return stock + catalog


def test_pierce_atoms_match_the_centre_scan(algebras):
    for A in algebras:
        assert pierce_atoms(A) == scan_atoms(A), repr(A)


@pytest.mark.parametrize("p, n", [(2, 13), (3, 8)])
def test_former_order_cap_skips_now_pass(p, n):
    # the centre has p^n elements, beyond the old order cap of 4096
    rep = pierce_verification(trivial_action_on(diagonal_algebra(GF(p), n)))
    assert rep.status == "pass"
    assert rep.rhs["atoms"] == n


def test_rationals_decide_only_a_one_dimensional_centre():
    M = matrix_algebra(QQ, 2)
    assert pierce_atoms(M) == [list(M.unit)]
    with pytest.raises(CapExceeded, match="finite base field"):
        pierce_atoms(diagonal_algebra(QQ, 2))


def test_non_unital_algebra_is_rejected():
    f = GF(2)
    A = FDAlgebra(f, ["n"], [[[0]]], None)  # n * n = 0, no unit
    with pytest.raises(AlgebraError, match="unital"):
        pierce_atoms(A)
    with pytest.raises(AlgebraError, match="unital"):
        exactalg.central_primitive_idempotents(A)


def test_zero_ring_has_no_atoms():
    assert pierce_atoms(FDAlgebra(GF(2), [], [], [])) == []
