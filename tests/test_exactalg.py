"""Structure-constant algebras: ideals, radicals, meataxe, regularity.

The exhaustive oracles here (subspace scans, quasi-inverse scans) pin
down the clever routines on every algebra small enough to enumerate.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsheaf import convalg, exactalg, linalg
from gsheaf.convalg import build_conv_algebra
from gsheaf.errors import AlgebraError, CapExceeded, CheckFailure
from gsheaf.exactalg import (AlgebraModule, FDAlgebra, Subspace, annihilator,
                             centralizer, check_ring_iso, enumerate_subspaces, enumerate_two_sided_ideals,
                             find_unit, group_algebra, hom_space,
                             ideal_generated, is_ideal, is_simple,
                             is_submodule, is_von_neumann_regular,
                             jacobson_radical, matrix_algebra,
                             meataxe_simple_quotients,
                             module_simplicity_witness, quotient_algebra,
                             quotient_coords, radical_bruteforce,
                             regular_module, restrict_module,
                             simple_modules_isomorphic, simplicity_witness,
                             subalgebra_on, validate_algebra)
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (catalog_names, cyclic_mul, disjoint_union,
                             dual_numbers, f4_algebra, get_fixture,
                             group_groupoid, pair_groupoid, run_catalog,
                             s3_group, scalar_algebra, t1_groupoid)
from gsheaf.sheaf import (GSheafOfAlgebras, constant_sheaf, diagonal_vnr,
                          validate_sheaf)
from oracles import (direct_sum_modules, is_simple_module,
                     scan_simplicity_witness, scan_two_sided_ideals, vnr_scan)


def table_algebra(p, elements):
    mul = cyclic_mul(elements)
    return group_algebra(GF(p), elements, lambda g, h: mul[g, h])


def z2_algebra(p):
    return table_algebra(p, ["1", "g"])


def z3_algebra(p):
    return table_algebra(p, ["1", "g", "gg"])


def s3_algebra(p):
    unit, elements, mul = s3_group()
    return group_algebra(GF(p), elements, lambda g, h: mul[g, h])


SMALL_ALGEBRAS = [
    matrix_algebra(GF(2), 2),
    matrix_algebra(GF(3), 2),
    z2_algebra(2),
    z3_algebra(3),
    s3_algebra(2),
    f4_algebra(),
    dual_numbers(),
]


@pytest.mark.parametrize("A", SMALL_ALGEBRAS, ids=lambda a: repr(a))
def test_small_algebras_validate(A):
    assert validate_algebra(A) == []
    assert A.unit is not None
    one = list(A.unit)
    for i in range(A.dim):
        b = A.basis_vector(i)
        assert A.mul(one, b) == b
        assert A.mul(b, one) == b


def test_matrix_algebra_relations():
    A = matrix_algebra(GF(3), 3)
    assert A.dim == 9
    idx = {lab: i for i, lab in enumerate(A.labels)}
    for (i, j) in itertools.product(range(3), repeat=2):
        for (k, l) in itertools.product(range(3), repeat=2):
            prod = A.mul(A.basis_vector(idx[f"e{i+1}{j+1}"]),
                         A.basis_vector(idx[f"e{k+1}{l+1}"]))
            if j == k:
                assert prod == A.basis_vector(idx[f"e{i+1}{l+1}"])
            else:
                assert linalg.vec_is_zero(prod)


def test_subspace_counts_match_gaussian_binomials():
    #   [n choose k]_q counts k-dim subspaces of F_q^n
    assert sum(1 for _ in enumerate_subspaces(GF(2), 3)) == 1 + 7 + 7 + 1
    assert sum(1 for _ in enumerate_subspaces(GF(3), 2)) == 1 + 4 + 1
    seen = set()
    for S in enumerate_subspaces(GF(2), 3):
        seen.add(S.basis)
    assert len(seen) == 16  # each subspace exactly once


@pytest.mark.parametrize("A", SMALL_ALGEBRAS, ids=lambda a: repr(a))
def test_ideal_enumeration_against_subspace_scan(A):
    if A.field.order ** A.dim > 2**12:
        pytest.skip("scan too large")
    clever = {I.basis for I in enumerate_two_sided_ideals(A)}
    brute = {S.basis for S in enumerate_subspaces(A.field, A.dim)
             if is_ideal(A, S, "two")}
    assert clever == brute


def test_ideal_counts():
    assert len(enumerate_two_sided_ideals(matrix_algebra(GF(2), 2))) == 2
    assert len(enumerate_two_sided_ideals(z2_algebra(2))) == 3
    assert len(enumerate_two_sided_ideals(z3_algebra(3))) == 4
    assert len(enumerate_two_sided_ideals(s3_algebra(2))) == 6
    assert len(enumerate_two_sided_ideals(dual_numbers())) == 3


def test_is_ideal_rejects_an_unknown_side():
    A = dual_numbers()
    S = Subspace.from_vectors(A.field, 2, [[1, 0]])  # span{1}
    assert not is_ideal(A, S, "two")
    assert is_ideal(A, Subspace.from_vectors(A.field, 2, [[0, 1]]), "two")
    with pytest.raises(AlgebraError, match="sided must be left/right/two, "
                                           "got 'both'"):
        is_ideal(A, S, "both")


def test_ideal_generated_is_smallest():
    A = s3_algebra(2)
    rng = random.Random(0)
    for _ in range(10):
        g = [rng.randrange(2) for _ in range(6)]
        I = ideal_generated(A, [g], "two")
        assert I.contains(g)
        assert is_ideal(A, I, "two")
        # no smaller ideal contains g
        for J in enumerate_two_sided_ideals(A):
            if J.contains(g):
                assert all(J.contains(list(b)) for b in I.basis)


def test_one_sided_ideals_differ_in_matrix_algebra():
    A = matrix_algebra(GF(2), 2)
    e01 = A.basis_vector(A.label_index["e12"])
    left = ideal_generated(A, [e01], "left")
    right = ideal_generated(A, [e01], "right")
    two = ideal_generated(A, [e01], "two")
    assert left.dim == 2 and right.dim == 2 and two.dim == 4
    assert is_ideal(A, left, "left") and not is_ideal(A, left, "two")


def test_simplicity():
    assert is_simple(matrix_algebra(GF(2), 2))
    assert is_simple(matrix_algebra(GF(3), 3))
    assert is_simple(f4_algebra())
    assert not is_simple(z2_algebra(2))
    assert not is_simple(dual_numbers())
    with pytest.raises(CapExceeded, match="needs a finite base field"):
        is_simple(matrix_algebra(QQ, 2))
    with pytest.raises(CapExceeded, match="needs a finite base field"):
        simplicity_witness(matrix_algebra(QQ, 2))


def test_simplicity_beyond_the_point_budget():
    # M_4(GF(3)) has 21 523 360 projective points, over the scan's budget;
    # the certificate decides it anyway.
    A = matrix_algebra(GF(3), 4)
    assert exactalg.num_projective_points(A.field, A.dim) > \
        exactalg.SIMPLICITY_POINT_BUDGET
    assert is_simple(A)
    assert simplicity_witness(A) is None
    assert is_simple(matrix_algebra(GF(5), 3))


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


def upper_triangular(p):
    A = matrix_algebra(GF(p), 2)
    S = Subspace.from_vectors(A.field, A.dim, [
        A.basis_vector(A.label_index[lab]) for lab in ("e11", "e12", "e22")])
    return subalgebra_on(A, S)


def centre(A):
    return subalgebra_on(A, centralizer(A, Subspace.full(A.field, A.dim)))


STOCK_SIMPLICITY = [
    *[(f"M{m}(F{p})", lambda m=m, p=p: matrix_algebra(GF(p), m))
      for p in (2, 3, 5) for m in (1, 2, 3) if (p, m) != (5, 3)],
    ("f4", f4_algebra),
    ("dual", dual_numbers),
    ("F3[Z2]", lambda: z2_algebra(3)),
    ("F2[Z3]", lambda: z3_algebra(2)),
    ("M2(F2)xM2(F2)", lambda: product_algebra(matrix_algebra(GF(2), 2),
                                              matrix_algebra(GF(2), 2))),
    ("upper(F3)", lambda: upper_triangular(3)),
    ("S3(F2)", lambda: s3_algebra(2)),
]


@pytest.mark.parametrize("build", [b for _, b in STOCK_SIMPLICITY],
                         ids=[name for name, _ in STOCK_SIMPLICITY])
def test_simplicity_certificate_matches_scan(build):
    # M_3(GF(5)) is left to test_simplicity_beyond_the_point_budget: its
    # 488 281 projective points make the scan take minutes.
    A = build()
    assert is_simple(A) == (scan_simplicity_witness(A) is None)
    assert_structural_witness(A)


def assert_structural_witness(A):
    """simplicity_witness(A) is None on a simple A; otherwise it is the
    first central primitive idempotent when A has several blocks, else
    the first radical basis vector, and it generates a proper nonzero
    ideal."""
    wit = simplicity_witness(A)
    if is_simple(A):
        assert wit is None
        return
    blocks = exactalg.central_primitive_idempotents(A)
    expect = blocks[0] if len(blocks) > 1 else jacobson_radical(A).basis[0]
    assert list(wit) == list(expect)
    I = ideal_generated(A, [list(wit)], "two")
    assert not I.is_zero() and not I.is_full()


def input_key(x):
    """An algebra's structure constants or a module's matrices, hashable."""
    if isinstance(x, AlgebraModule):
        return (x.field.p, tuple(tuple(map(tuple, X)) for X in x.mats))
    return (x.field.p, x.labels, tuple(map(tuple, x.table)), x.unit)


@pytest.fixture(scope="module")
def catalog_algebras():
    """The distinct finite-field algebras the fixture catalog hands to
    is_simple and to enumerate_two_sided_ideals, and the modules it hands
    to module_simplicity_witness, by function name.  A question asked
    of a convolution algebra through convalg's orbit-corner entry points
    is also asked of a bare copy, which the whole-algebra engine answers,
    so these hold what the engine is asked without the corner too."""
    seen = {"is_simple": {}, "enumerate_two_sided_ideals": {},
            "module_simplicity_witness": {}}
    with pytest.MonkeyPatch.context() as mp:
        for name, store in seen.items():
            def recording(A, *args, real=getattr(exactalg, name), store=store):
                if A.field.is_finite:
                    store.setdefault(input_key(A), A)
                return real(A, *args)

            mp.setattr(exactalg, name, recording)
        for entry, whole in (("is_simple", "is_simple"),
                             ("two_sided_ideals", "enumerate_two_sided_ideals"),
                             ("jacobson_radical", "jacobson_radical")):
            def asking_a_copy(conv, real=getattr(convalg, entry), whole=whole):
                A = conv.algebra
                try:
                    getattr(exactalg, whole)(
                        FDAlgebra(A.field, A.labels, A.table, A.unit))
                except CapExceeded:
                    pass
                return real(conv)

            mp.setattr(convalg, entry, asking_a_copy)
        run_catalog()
    return {name: list(store.values()) for name, store in seen.items()}


def test_simplicity_certificate_matches_scan_on_catalog(catalog_algebras):
    # every finite-field algebra whose simplicity the fixture catalog asks
    seen = catalog_algebras["is_simple"]
    assert len(seen) >= 18
    for A in seen:
        assert is_simple(A) == (scan_simplicity_witness(A) is None)
        assert_structural_witness(A)


def natural_module(A, basis, n):
    """F^n as a module over A, whose basis vectors are the given n x n
    matrices flattened row by row."""
    return AlgebraModule(A, n, [[list(v[r * n:(r + 1) * n]) for r in range(n)]
                                for v in basis])


def test_norton_matches_scan_on_catalog(catalog_algebras):
    # every finite-field module whose simplicity the fixture catalog asks
    seen = catalog_algebras["module_simplicity_witness"]
    assert len(seen) >= 50
    for M in seen:
        scan = exactalg._cyclic_witness(M, exactalg.projective_points(M.field, M.dim))
        S = exactalg._norton_witness(M)
        assert (S is None) == (scan is None)
        if S is not None:
            assert not S.is_zero() and not S.is_full()
            assert is_submodule(M, S)


def test_norton_dual_branch():
    # upper triangular 2x2 on F^2: theta = e11 has kernel span(e2), which
    # generates F^2 since e12 e2 = e1; only the dual finds span(e1)
    f = GF(2)
    A = matrix_algebra(f, 2)
    S = Subspace.from_vectors(f, A.dim, [
        A.basis_vector(A.label_index[lab]) for lab in ("e11", "e12", "e22")])
    M = natural_module(subalgebra_on(A, S), S.basis, 2)
    assert M.validate() == []
    _, ker = exactalg._norton_theta(M)
    assert ker == [[0, 1]]
    assert exactalg.submodule_generated(M, ker).is_full()
    assert exactalg._norton_witness(M) == Subspace.from_vectors(f, 2, [[1, 0]])
    assert module_simplicity_witness(M) == Subspace.from_vectors(f, 2, [[1, 0]])


def test_norton_beyond_the_point_budget():
    # 6.7 million projective points: theta = e11 - 1 has kernel span(e1)
    f = GF(7)
    A = matrix_algebra(f, 9)
    N = natural_module(A, [A.basis_vector(i) for i in range(A.dim)], 9)
    assert exactalg.num_projective_points(f, N.dim) > \
        exactalg.SIMPLICITY_POINT_BUDGET
    assert module_simplicity_witness(N) is None
    double = direct_sum_modules([N, N])
    S = module_simplicity_witness(double)
    assert S.dim == 9 and is_submodule(double, S)
    assert not is_simple_module(double)
    # the regular module of M_3(GF(3)[u]/u^2) has dim 18, over the budget
    J = jacobson_radical(tensor_algebra(matrix_algebra(GF(3), 3), dual_over(3)))
    assert J.dim == 9


def test_norton_caps_a_kernel_over_the_budget():
    # the scalars act on GF(2)^21 as the identity, so the only singular
    # theta is 0, whose kernel has 2^21 - 1 points
    f = GF(2)
    M = AlgebraModule(scalar_algebra(f), 21, [linalg.identity_matrix(f, 21)])
    with pytest.raises(CapExceeded, match="projective points"):
        module_simplicity_witness(M)


def test_simplicity_certificate_parts():
    # GF(3) x GF(3): the operators x -> a x b span all of End_Z(A), so the
    # rank test passes and only the field test on the centre rejects it.
    A = z2_algebra(3)
    Z = centre(A)
    assert Z.dim == 2 and not exactalg.is_field(Z)
    assert exactalg._bimodule_rank(A) == A.dim * A.dim // Z.dim
    # upper triangular 2x2: the centre is the scalars, a field, so the
    # rank test must reject it.
    T = upper_triangular(3)
    Z = centre(T)
    assert Z.dim == 1 and exactalg.is_field(Z)
    assert exactalg._bimodule_rank(T) < T.dim * T.dim
    assert not is_simple(T)


def poly_quotient(p, f):
    """GF(p)[x]/(f) on the basis 1, x, ..., x^(d-1); f monic, low degree
    first without its leading 1."""
    F = GF(p)
    d = len(f)

    def reduce(coeffs):
        coeffs = list(coeffs)
        for top in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[top]
            coeffs[top] = 0
            for k, a in enumerate(f):
                coeffs[top - d + k] = (coeffs[top - d + k] - c * a) % p
        return coeffs[:d]

    table = [[reduce([0] * (i + j) + [1] + [0] * d) for j in range(d)]
             for i in range(d)]
    return FDAlgebra(F, [f"x{i}" for i in range(d)], table, [1] + [0] * (d - 1))


def is_field_by_inversion(A):
    """Oracle: every nonzero element has an invertible multiplication."""
    f = A.field
    return all(linalg.inverse_matrix(f, A.left_mult_matrix(list(v))) is not None
               for v in A.elements() if not linalg.vec_is_zero(v))


@pytest.mark.parametrize("p,f,expect", [
    (2, [1, 1], True),          # x^2 + x + 1, irreducible
    (2, [1, 1, 0], True),       # x^3 + x + 1, irreducible
    (3, [1, 0], True),          # x^2 + 1, irreducible
    (5, [1, 1, 0], True),       # x^3 + x + 1, irreducible
    (2, [0, 1], False),         # x^2 + x = x (x + 1), split
    (3, [2, 0], False),         # x^2 - 1, split
    (2, [1, 0, 0], False),      # x^3 + 1 = (x + 1)(x^2 + x + 1)
    (2, [0, 0], False),         # x^2, a square
    (3, [1, 2], False),         # (x + 1)^2
    (2, [1, 1, 1], False),      # (x + 1)^3
], ids=lambda v: str(v))
def test_is_field_matches_inversion(p, f, expect):
    A = poly_quotient(p, f)
    assert validate_algebra(A) == []
    assert exactalg.is_field(A) is expect
    assert is_field_by_inversion(A) is expect


# ---------------------------------------------------------------------------
# ideal enumeration over Peirce spaces


def dual_over(p):
    return poly_quotient(p, [0, 0])  # GF(p)[x]/(x^2)


def lattice_shape(spec):
    """The convolution algebra of '<groupoid>/<stalk>@p' (lattice_conv)."""
    return lattice_conv(spec).algebra


def lattice_conv(spec):
    """Gamma of '<groupoid>/<stalk>@p': groupoids P<n> (pair), Z<n>
    (cyclic), S3 and T1 (a point), joined by '+'; stalk F (the field) or
    D (dual numbers over it)."""
    shape, p = spec.split("@")
    gspec, stalk = shape.split("/")
    parts = []
    for k, name in enumerate(gspec.split("+")):
        if name.startswith("P"):
            parts.append(pair_groupoid(int(name[1:])))
        elif name.startswith("Z"):
            labels = [f"z{k}{i}" for i in range(int(name[1:]))]
            parts.append(group_groupoid(labels[0], labels, cyclic_mul(labels)))
        elif name == "S3":
            parts.append(group_groupoid(*s3_group()))
        else:
            parts.append(t1_groupoid(1))
    G = functools.reduce(disjoint_union, parts)
    A = scalar_algebra(GF(int(p))) if stalk == "F" else dual_over(int(p))
    return build_conv_algebra(G, constant_sheaf(G, A))


# one instance per slot of the benchmark's lattice workload
LATTICE_SHAPES = ("Z2/F@3", "T1/D@3", "Z4/F@2", "Z2/D@3", "S3/F@2", "Z4/F@7",
                  "P2/D@2", "S3/F@3", "P2+Z3/F@3")

IDEAL_CASES = [
    ("M2(F2)", lambda: matrix_algebra(GF(2), 2)),
    ("M2(F3)", lambda: matrix_algebra(GF(3), 2)),
    ("dual(F2)", dual_numbers),
    ("dual(F3)", lambda: dual_over(3)),
    ("F2[S3]", lambda: s3_algebra(2)),
    ("F3[S3]", lambda: s3_algebra(3)),
    ("F3xF3", lambda: z2_algebra(3)),
    ("upper(F2)", lambda: upper_triangular(2)),
    ("upper(F3)", lambda: upper_triangular(3)),
    *[(spec, lambda spec=spec: lattice_shape(spec)) for spec in LATTICE_SHAPES],
]


def subspace_count(q, n):
    """Number of subspaces of GF(q)^n: the sum of Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def assert_idempotents_certified(A):
    """orthogonal_idempotents is complete and orthogonal, and the central
    ones number the dimensions of the centre's Frobenius fixed space."""
    f, one = A.field, list(A.unit)
    idems = exactalg.orthogonal_idempotents(A)
    total = linalg.zero_vector(f, A.dim)
    for i, e in enumerate(idems):
        assert not linalg.vec_is_zero(e) and A.mul(e, e) == e
        for e2 in idems[i + 1:]:
            assert linalg.vec_is_zero(A.mul(e, e2))
            assert linalg.vec_is_zero(A.mul(e2, e))
        total = linalg.vec_add(f, total, e)
    assert total == one
    Z = centralizer(A, Subspace.full(f, A.dim))
    _, fixed = exactalg._frobenius(A, [list(b) for b in Z.basis])
    blocks = exactalg.central_primitive_idempotents(A)
    assert len(blocks) == len(fixed)
    assert all(Z.contains(e) for e in blocks)
    assert linalg.vec_is_zero(linalg.vec_sub(
        f, functools.reduce(lambda u, v: linalg.vec_add(f, u, v), blocks), one))
    for e in idems:
        assert sum(1 for c in blocks if A.mul(c, e) == e) == 1


def assert_peirce_enumeration_correct(A):
    ideals = [I.basis for I in enumerate_two_sided_ideals(A)]
    assert ideals == [I.basis for I in scan_two_sided_ideals(A)]
    if subspace_count(A.field.order, A.dim) <= 4000:
        brute = sorted((S for S in enumerate_subspaces(A.field, A.dim)
                        if is_ideal(A, S, "two")), key=Subspace.sort_key)
        assert ideals == [S.basis for S in brute]


@pytest.mark.parametrize("build", [b for _, b in IDEAL_CASES],
                         ids=[name for name, _ in IDEAL_CASES])
def test_peirce_ideal_enumeration_matches_scan(build):
    A = build()
    assert validate_algebra(A) == []
    assert_idempotents_certified(A)
    assert_peirce_enumeration_correct(A)


def assert_lattice_laws(A, ideals):
    """The list holds 0 and A, only ideals, no repeats, and the join and
    the meet of any two members."""
    bases = {I.basis for I in ideals}
    assert len(bases) == len(ideals)
    assert Subspace.zero(A.field, A.dim).basis in bases
    assert Subspace.full(A.field, A.dim).basis in bases
    for I in ideals:
        assert is_ideal(A, I, "two")
        for J in ideals:
            assert I.join(J).basis in bases and I.intersect(J).basis in bases


def test_peirce_ideal_enumeration_matches_scan_on_catalog(catalog_algebras):
    # every finite-field algebra whose ideals the catalog lists; the
    # whole-space scan runs up to 1000 points (P3-F2 has 511, 0.2 s), and
    # P3-F3 (9841 points, a 4-s scan) is held to the lattice laws and to
    # is_simple instead
    seen = catalog_algebras["enumerate_two_sided_ideals"]
    assert len(seen) >= 15
    scanned = 0
    for A in seen:
        assert_idempotents_certified(A)
        if exactalg.num_projective_points(A.field, A.dim) <= 1000:
            assert_peirce_enumeration_correct(A)
            scanned += 1
        else:
            ideals = enumerate_two_sided_ideals(A)
            assert_lattice_laws(A, ideals)
            assert (len(ideals) == 2) == is_simple(A)
    assert scanned >= 14


def test_ideal_enumeration_caps_on_its_peirce_point_count(monkeypatch):
    # GF(7)[Z7] is local: one Peirce piece, the whole of A, with
    # (7^7 - 1)/6 points; the cap is raised before any ideal is generated
    A = lattice_shape("Z7/F@7")
    generated = []
    monkeypatch.setattr(exactalg, "ideal_generated",
                        lambda *args, **kwargs: generated.append(args))
    with pytest.raises(CapExceeded) as caught:
        enumerate_two_sided_ideals(A)
    assert str(caught.value) == (
        f"ideal enumeration capped at {exactalg.IDEAL_POINT_BUDGET} "
        "Peirce points, algebra has 137257")
    assert generated == []


@pytest.mark.parametrize("build,blocks,pieces", [
    (lambda: matrix_algebra(GF(3), 3), 1, 3),
    (lambda: z2_algebra(3), 2, 2),
    (lambda: z3_algebra(3), 1, 1),
    (lambda: lattice_shape("Z4/F@7"), 3, 3),
    (lambda: lattice_shape("P2+Z3/F@3"), 2, 3),
], ids=["M3(F3)", "F3xF3", "F3[Z3]", "F7[Z4]", "M2(F3)xF3[Z3]"])
def test_idempotent_counts(build, blocks, pieces):
    A = build()
    assert len(exactalg.central_primitive_idempotents(A)) == blocks
    assert len(exactalg.orthogonal_idempotents(A)) == pieces


def test_idempotent_certificate_rejects_incomplete_sets():
    A = matrix_algebra(GF(3), 2)
    one = list(A.unit)
    idems = exactalg.orthogonal_idempotents(A)
    assert len(idems) == 2
    exactalg._certify_idempotents(A, one, idems, 2)
    with pytest.raises(CheckFailure, match="sum to the unit"):
        exactalg._certify_idempotents(A, one, idems[:1], 1)
    with pytest.raises(CheckFailure, match="Frobenius fixed space"):
        exactalg._certify_idempotents(A, one, idems, 3)
    with pytest.raises(CheckFailure, match="not orthogonal"):
        exactalg._certify_idempotents(A, one, [one, idems[0]], 2)
    with pytest.raises(CheckFailure, match="non-idempotent"):
        exactalg._certify_idempotents(A, one, [[2, 0, 0, 2]], 1)


def tensor_algebra(A, B):
    """A (x) B on the basis of pairs, multiplied factorwise."""
    f = A.field
    table = [[[f.mul(x, y) for x in A.table[i][j] for y in B.table[k][l]]
              for j in range(A.dim) for l in range(B.dim)]
             for i in range(A.dim) for k in range(B.dim)]
    labels = [f"{a}{b}" for a in A.labels for b in B.labels]
    unit = [f.mul(x, y) for x in A.unit for y in B.unit]
    return FDAlgebra(f, labels, table, unit)


@pytest.mark.parametrize("build", [
    lambda: product_algebra(matrix_algebra(GF(3), 3), matrix_algebra(GF(3), 3)),
    lambda: tensor_algebra(matrix_algebra(GF(3), 3), dual_over(3)),
], ids=["M3(F3)xM3(F3)", "M3(F3[u]/u^2)"])
def test_simplicity_witness_beyond_the_point_budget(build):
    # 193 710 244 projective points each: the witness comes from the
    # blocks or the radical, not from the scan
    A = build()
    assert validate_algebra(A) == []
    assert exactalg.num_projective_points(A.field, A.dim) > \
        exactalg.SIMPLICITY_POINT_BUDGET
    assert not is_simple(A)
    wit = simplicity_witness(A)
    assert not linalg.vec_is_zero(wit)
    I = ideal_generated(A, [wit], "two")
    assert not I.is_zero() and not I.is_full()


@pytest.mark.parametrize("A,expect", [
    (z2_algebra(2), 1),
    (z3_algebra(3), 2),
    (s3_algebra(2), 1),
    (z2_algebra(3), 0),  # order coprime to characteristic: semisimple
    (matrix_algebra(GF(2), 2), 0),
    (dual_numbers(), 1),
    (f4_algebra(), 0),
], ids=["z2p2", "z3p3", "s3p2", "z2p3", "m2", "dual", "f4"])
def test_radical_matches_bruteforce(A, expect):
    J = jacobson_radical(A)
    assert J.dim == expect
    assert J.basis == radical_bruteforce(A).basis


def test_radical_skips_factors_its_candidate_already_kills(monkeypatch):
    # GF(2)[Z4] has four composition factors, all trivial: after the first
    # annihilator the candidate acts as zero on the three repeats
    A = table_algebra(2, ["1", "g", "gg", "ggg"])
    calls = []

    def counted(M):
        calls.append(M.algebra)
        return annihilator(M)

    monkeypatch.setattr(exactalg, "annihilator", counted)
    J = jacobson_radical(A)
    assert sum(B is A for B in calls) == 1
    assert J.dim == 3
    assert J.basis == radical_bruteforce(A).basis


def test_radical_of_quotient_is_zero():
    A = s3_algebra(2)
    J = jacobson_radical(A)
    Q, _ = quotient_algebra(A, J)
    assert jacobson_radical(Q).is_zero()


def test_meataxe_simple_factors():
    # M_2(F_2): one simple class, dimension 2
    simples = meataxe_simple_quotients(regular_module(matrix_algebra(GF(2), 2)))
    assert sorted(S.dim for S in simples) == [2]
    # F_2[S_3]: trivial and the 2-dimensional factor
    simples = meataxe_simple_quotients(regular_module(s3_algebra(2)))
    assert sorted(S.dim for S in simples) == [1, 2]
    for S in simples:
        assert is_simple_module(S)
    assert not simple_modules_isomorphic(simples[0], simples[1])


def test_meataxe_deduplicates_isomorphic_factors():
    A = z2_algebra(3)  # semisimple, two 1-dim characters
    simples = meataxe_simple_quotients(regular_module(A))
    assert sorted(S.dim for S in simples) == [1, 1]
    assert not simple_modules_isomorphic(simples[0], simples[1])


def conjugated(M, P):
    """M with every action matrix X replaced by P X P^-1."""
    f = M.field
    Pinv = linalg.inverse_matrix(f, P)
    return AlgebraModule(M.algebra, M.dim, [
        linalg.mat_mul(f, linalg.mat_mul(f, P, X), Pinv) for X in M.mats])


def invertible_matrix(f, n, rng):
    while True:
        P = [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
        if linalg.inverse_matrix(f, P) is not None:
            return P


def factor_invariants(M):
    return sorted((S.dim, annihilator(S).basis)
                  for S in exactalg._composition_factors(M))


def test_composition_factors_of_regular_modules(catalog_algebras):
    # the catalog's distinct finite-field algebras and the lattice shapes
    seen = {input_key(A): A for name in ("is_simple", "enumerate_two_sided_ideals")
            for A in catalog_algebras[name]}
    for spec in LATTICE_SHAPES:
        A = lattice_shape(spec)
        seen.setdefault(input_key(A), A)
    assert len(seen) >= 25
    for A in seen.values():
        M = regular_module(A)
        factors = exactalg._composition_factors(M)
        assert sum(S.dim for S in factors) == M.dim
        for S in factors:
            assert exactalg._cyclic_witness(
                S, exactalg.projective_points(S.field, S.dim)) is None
        # Jordan-Holder: a change of basis of M splits it elsewhere, but
        # the factors keep their dimensions and annihilators
        P = invertible_matrix(A.field, M.dim, random.Random(M.dim))
        assert factor_invariants(conjugated(M, P)) == factor_invariants(M)


def test_simple_quotients_of_a_non_regular_module():
    # F^2 over the upper triangular 2x2 matrices: the socle span(e1), where
    # e11 acts as 1, is a composition factor but not a quotient; the top,
    # where e22 acts as 1, is the only simple quotient
    f = GF(2)
    A = matrix_algebra(f, 2)
    S = Subspace.from_vectors(f, A.dim, [
        A.basis_vector(A.label_index[lab]) for lab in ("e11", "e12", "e22")])
    M = natural_module(subalgebra_on(A, S), S.basis, 2)
    socle, top = exactalg._composition_factors(M)
    assert socle.mats == [[[1]], [[0]], [[0]]]
    assert top.mats == [[[0]], [[0]], [[1]]]
    assert not simple_modules_isomorphic(socle, top)
    [Q] = meataxe_simple_quotients(M)
    assert Q.mats == top.mats


def test_vnr_witnesses():
    # the element scan, which is_von_neumann_regular replaces by J = 0
    for A in (matrix_algebra(GF(2), 2), dual_numbers(), z2_algebra(2)):
        assert is_von_neumann_regular(A) == vnr_scan(A)
    ok, wit = vnr_scan(matrix_algebra(GF(2), 2))
    assert ok and wit is None
    ok, wit = vnr_scan(dual_numbers())
    assert not ok
    assert list(wit) == [0, 1]  # u itself: u x u = 0 for every x
    ok, _ = vnr_scan(z2_algebra(2))
    assert not ok
    with pytest.raises(CapExceeded):
        vnr_scan(matrix_algebra(QQ, 2))
    with pytest.raises(CapExceeded):
        is_von_neumann_regular(matrix_algebra(QQ, 2))


def catalog_sheaves():
    """The catalog's sheaf fixtures over a finite field."""
    out = []
    for name in catalog_names():
        fix = get_fixture(name)
        if fix.kind == "sheaf":
            O = fix.build()[1]
            if O.field.is_finite:
                out.append(O)
    return out


def test_diagonal_vnr_matches_the_element_scan():
    # regularity from J = 0 against the element scan, on each catalog
    # sheaf and on single stalks; a witness must fail a x a = a for every x
    sheaves = catalog_sheaves()
    assert len(sheaves) >= 14
    stalks = {}
    for O in sheaves:
        scans = [vnr_scan(O.stalk[u])[0] for u in O.groupoid.units]
        assert diagonal_vnr(O)[0] == all(scans)
        for A in O.stalk.values():
            stalks.setdefault(input_key(A), A)
    assert len(stalks) == 4
    # a field over one unit and the dual numbers over the other
    G, f = t1_groupoid(2), GF(2)
    mixed = GSheafOfAlgebras(
        G, f, {"u1": scalar_algebra(f), "u2": dual_numbers()},
        {"u1": [[1]], "u2": [[1, 0], [0, 1]]})
    assert validate_sheaf(mixed)[0] == []
    assert diagonal_vnr(mixed) == (False, {"unit": "u2", "element": [0, 1]})
    algebras = (list(stalks.values()) + SMALL_ALGEBRAS
                + [lattice_shape(spec) for spec in LATTICE_SHAPES])
    irregular = 0
    for A in algebras:
        flag, wit = diagonal_vnr(constant_sheaf(t1_groupoid(1), A))
        assert flag == vnr_scan(A)[0]
        assert (wit is None) == flag
        if wit is not None:
            irregular += 1
            a = [A.field.coerce(c) for c in wit["element"]]
            assert not linalg.vec_is_zero(a)
            assert all(A.mul(A.mul(a, list(x)), a) != a for x in A.elements())
    assert irregular >= 5


@pytest.mark.parametrize("spec", LATTICE_SHAPES)
def test_structural_simplicity_witness_on_lattice_shapes(spec):
    A = lattice_shape(spec)
    assert is_simple(A) == (scan_simplicity_witness(A) is None)
    assert_structural_witness(A)


def test_a_line_is_simple_over_any_field():
    # the top of the dual numbers, where u acts as 0, and the scalars
    lines = [AlgebraModule(dual_over(p), 1, [[[1]], [[0]]]) for p in (2, 3)]
    lines += [AlgebraModule(scalar_algebra(f), 1, [[[f.one]]])
              for f in (GF(2), GF(5), QQ)]
    for M in lines:
        assert M.validate() == []
        assert module_simplicity_witness(M) is None
        if M.field.is_finite:
            assert exactalg._cyclic_witness(
                M, exactalg.projective_points(M.field, 1)) is None
    # so a rational stalk of dim 1 has zero radical and is regular
    O = constant_sheaf(pair_groupoid(2), scalar_algebra(QQ))
    assert jacobson_radical(O.stalk["u1"]).is_zero()
    assert diagonal_vnr(O) == (True, None)
    # a larger rational stalk still hits the cap
    with pytest.raises(CapExceeded, match="finite base field"):
        diagonal_vnr(constant_sheaf(t1_groupoid(1), matrix_algebra(QQ, 2)))


def test_annihilator_of_regular_module_is_zero():
    for A in SMALL_ALGEBRAS:
        assert annihilator(regular_module(A)).is_zero()


def test_centralizer_of_matrix_algebra_is_scalars():
    A = matrix_algebra(GF(2), 2)
    Z = centralizer(A, Subspace.full(GF(2), 4))
    assert Z.dim == 1
    assert Z.contains(list(A.unit))


def test_quotient_algebra_and_coords():
    A = z2_algebra(2)
    J = jacobson_radical(A)
    Q, proj = quotient_algebra(A, J)
    assert Q.dim == 1 and Q.unit is not None
    proj_mat, lift = quotient_coords(GF(2), J)
    for v in A.elements():
        v = list(v)
        down = linalg.mat_vec(GF(2), proj_mat, v)
        back = linalg.mat_vec(GF(2), lift, down)
        assert J.contains(linalg.vec_sub(GF(2), v, back))
    with pytest.raises(AlgebraError):
        quotient_algebra(A, Subspace.from_vectors(GF(2), 2, [[0, 1]]))


def test_check_ring_iso_z2_vs_dual_numbers():
    # 1 -> 1, g -> 1 + u is an isomorphism in characteristic 2
    A = z2_algebra(2)
    B = dual_numbers()
    good = [[1, 1], [0, 1]]  # columns are the images of 1 and g
    assert check_ring_iso(A, B, good)
    bad = [[1, 0], [0, 1]]  # g -> u is not multiplicative
    assert not check_ring_iso(A, B, bad)
    assert not check_ring_iso(A, matrix_algebra(GF(2), 2), [[1, 0], [0, 1]])


def test_check_ring_iso_exhausts_m2():
    # every invertible map fixing the relations is accepted; the rest refused
    A = matrix_algebra(GF(2), 2)
    hits = 0
    for flat in itertools.product(range(2), repeat=16):
        M = [list(flat[4 * i:4 * i + 4]) for i in range(4)]
        if check_ring_iso(A, A, M):
            hits += 1
    # ring automorphisms of M_2(F_2) are the inner ones: PGL_2(F_2) has 6
    assert hits == 6


def test_subalgebra_on_corner():
    A = matrix_algebra(GF(2), 2)
    e00 = A.basis_vector(A.label_index["e11"])
    corner = Subspace.from_vectors(GF(2), 4, [e00])
    B = subalgebra_on(A, corner)
    assert B.dim == 1 and B.unit is not None
    # e12 e21 = e11 leaves the span of the off-diagonal units
    off = Subspace.from_vectors(GF(2), 4, [
        A.basis_vector(A.label_index[lab]) for lab in ("e12", "e21")])
    with pytest.raises(AlgebraError, match="not multiplicatively closed"):
        subalgebra_on(A, off)


def test_find_unit():
    A = matrix_algebra(GF(2), 2)
    stripped = FDAlgebra(A.field, A.labels, A.table, None)
    assert list(find_unit(stripped)) == list(A.unit)
    f = GF(2)
    no_unit = FDAlgebra(f, ["x"], [[[0]]], None)  # x^2 = 0, x != 0
    assert find_unit(no_unit) is None
    # within an ideal: the first block of M_2(F_2) x M_2(F_2), and the
    # radical of the dual numbers, which has none
    P = product_algebra(A, A)
    block = Subspace.from_vectors(f, P.dim, [P.basis_vector(i) for i in range(4)])
    assert list(find_unit(P, within=block)) == list(A.unit) + [0] * 4
    assert find_unit(dual_numbers(), within=Subspace.from_vectors(f, 2, [[0, 1]])) is None


def test_hom_space_dimensions():
    A = matrix_algebra(GF(2), 2)
    M = regular_module(A)
    simples = meataxe_simple_quotients(M)
    S = simples[0]
    assert len(hom_space(S, S)) == 1  # Schur: End of a simple is a field here
    assert len(hom_space(M, S)) == 2  # two copies in the regular module


def test_restrict_module_to_submodule():
    A = z2_algebra(2)
    M = regular_module(A)
    J = jacobson_radical(A)
    sub = restrict_module(M, J)
    assert sub.dim == 1
    assert sub.validate() == []


subspace_vec = st.lists(st.integers(0, 1), min_size=4, max_size=4)


@settings(max_examples=60)
@given(st.lists(subspace_vec, max_size=4), st.lists(subspace_vec, max_size=4))
def test_subspace_lattice_laws(us, vs):
    f = GF(2)
    U = Subspace.from_vectors(f, 4, us)
    V = Subspace.from_vectors(f, 4, vs)
    J = U.join(V)
    I = U.intersect(V)
    assert I.dim + J.dim == U.dim + V.dim  # modular law for dimensions
    for b in U.basis:
        assert J.contains(list(b))
        assert U.contains(list(b))
    for b in I.basis:
        assert U.contains(list(b)) and V.contains(list(b))
    # canonical form: equal spans give equal tuples
    again = Subspace.from_vectors(f, 4, [list(b) for b in U.basis])
    assert again.basis == U.basis and again.pivots == U.pivots
