"""Isotropy rings, induced modules, annihilators, disintegration."""

import gc
import weakref

import pytest

from gsheaf import convalg, exactalg, induction, linalg
from gsheaf.convalg import build_conv_algebra
from gsheaf.errors import CapExceeded, CheckFailure, InputError
from gsheaf.exactalg import Subspace
from gsheaf.fields import GF
from gsheaf.fixtures import (catalog_names, cyclic_mul, f4_algebra,
                             frobenius_matrix, galois_sheaf, get_fixture,
                             group_groupoid, pair_groupoid, run_fixture,
                             scalar_algebra, t1_groupoid, z2_bundle_over_p2)
from gsheaf.induction import (Transversal, annihilator_induced,
                              check_disintegration, induce, isotropy_ring,
                              module_stalks, regular_stalk,
                              verify_effros_hahn)
from gsheaf.sheaf import GSheafOfAlgebras, constant_sheaf
from oracles import (SectionBimodule, b_x_module, freeness_isomorphisms,
                     is_simple_module, isotropy_skew_ring)
from test_exactalg import LATTICE_SHAPES, lattice_conv


def conv_of(G, p=2):
    return build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(p))))


def galois_conv():
    G, O = galois_sheaf()
    return build_conv_algebra(G, O)


def z2_conv():
    G = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    return conv_of(G)


def test_isotropy_ring_galois_is_matrix_ring():
    conv = galois_conv()
    B = isotropy_ring(conv, "x")
    assert B.dim == 4
    assert exactalg.validate_algebra(B) == []
    assert not B.is_commutative()
    assert exactalg.is_simple(B)
    # skew group ring of Gal(GF(4)/GF(2)) over GF(4): 2x2 matrices over GF(2)


def test_isotropy_ring_trivial_action_is_group_algebra():
    conv = z2_conv()
    B = isotropy_ring(conv, "e")
    assert B.dim == 2
    assert B.is_commutative()
    assert exactalg.jacobson_radical(B).dim == 1


def test_isotropy_ring_principal_is_stalk():
    conv = conv_of(pair_groupoid(2), 3)
    B = isotropy_ring(conv, "u1")
    assert B.dim == 1
    assert exactalg.is_simple(B)


def test_isotropy_ring_is_the_skew_group_ring():
    # the corner of Gamma's table against the skew group ring built from
    # the stalk products and the transition maps, label for label
    units = 0
    for name in catalog_names():
        if get_fixture(name).kind != "sheaf":
            continue
        G, O = get_fixture(name).build()
        conv = build_conv_algebra(G, O)
        f = conv.field
        for x in G.units:
            ref, B = isotropy_skew_ring(conv, x), isotropy_ring(conv, x)
            iso = linalg.zero_matrix(f, B.dim, ref.dim)
            for k, lab in enumerate(ref.labels):
                iso[B.label_index[lab]][k] = f.one
            assert exactalg.check_ring_iso(ref, B, iso), (name, x)
            units += 1
    assert units == 33


def test_transversal_validation():
    conv = conv_of(z2_bundle_over_p2())
    T = Transversal.canonical(conv, "u1")
    assert T.eta == {"u1": "u1", "u2": "a21"}   # least arrow u1 -> u2
    other = Transversal(conv, "u1", {"u1": "u1", "u2": "b21"})
    assert other.eta["u2"] == "b21"

    with pytest.raises(InputError):
        Transversal(conv, "u1", {"u1": "u1"})               # misses u2
    with pytest.raises(InputError):
        Transversal(conv, "u1", {"u1": "g1", "u2": "a21"})  # base not identity
    with pytest.raises(InputError):
        Transversal(conv, "u1", {"u1": "u1", "u2": "a12"})  # wrong direction


def test_section_bimodule_axioms():
    for conv, x in ((galois_conv(), "x"),
                    (conv_of(z2_bundle_over_p2()), "u1"),
                    (conv_of(pair_groupoid(2), 3), "u1")):
        B = isotropy_ring(conv, x)
        L = SectionBimodule(conv, x, B)
        assert L.validate() == []
        # dimension: sections supported on arrows out of x
        G, O = conv.groupoid, conv.sheaf
        assert L.dim == sum(O.stalk[G.dst[g]].dim for g in G.arrows_from(x))


def test_freeness_for_every_transversal():
    conv = conv_of(z2_bundle_over_p2())
    B = isotropy_ring(conv, "u1")
    L = SectionBimodule(conv, "u1", B)
    for eta2 in ("a21", "b21"):
        T = Transversal(conv, "u1", {"u1": "u1", "u2": eta2})
        Phi, Psi = freeness_isomorphisms(L, T)
        assert len(Phi) == L.dim and len(Psi) == L.dim
    # free rank = number of orbit units: dim L = |orbit| * dim B
    assert L.dim == 2 * B.dim


def test_freeness_isomorphisms_give_the_induced_action():
    # Ind_x(S) is L_x (x)_B S, so a section f sends 1_{eta_y} (x) s to the
    # sum over z of 1_{eta_z} (x) b_z s, where b_z is the z-component of
    # Phi(f . Psi(1_{eta_y})); that is block (z, y) of induce's action
    z2p2 = conv_of(z2_bundle_over_p2())
    cases = [(galois_conv(), "x", None),
             (z2p2, "u1", {"u1": "u1", "u2": "a21"}),
             (z2p2, "u1", {"u1": "u1", "u2": "b21"}),
             (conv_of(pair_groupoid(2), 3), "u1", None)]
    for conv, x, eta in cases:
        f = conv.field
        T = Transversal(conv, x, eta) if eta else Transversal.canonical(conv, x)
        B = isotropy_ring(conv, x)
        L = SectionBimodule(conv, x, B)
        Phi, Psi = freeness_isomorphisms(L, T)
        blocks = range(len(T.orbit))
        simples = exactalg.meataxe_simple_quotients(exactalg.regular_module(B))
        assert simples
        for S in simples:
            ind = induce(conv, x, S, T)
            d = S.dim
            for k in range(conv.dim):
                for y in blocks:
                    gen = [f.zero] * (len(T.orbit) * B.dim)
                    gen[y * B.dim:(y + 1) * B.dim] = list(B.unit)
                    image = linalg.mat_vec(f, Phi, linalg.mat_vec(
                        f, L.left.mats[k], linalg.mat_vec(f, Psi, gen)))
                    for z in blocks:
                        b = image[z * B.dim:(z + 1) * B.dim]
                        block = [row[y * d:(y + 1) * d]
                                 for row in ind.mats[k][z * d:(z + 1) * d]]
                        assert S.action_matrix(b) == block, (x, eta, k, y, z)


def test_induce_galois_regular():
    conv = galois_conv()
    B = isotropy_ring(conv, "x")
    simples = exactalg.meataxe_simple_quotients(exactalg.regular_module(B))
    assert len(simples) == 1 and simples[0].dim == 2
    ind = induce(conv, "x", simples[0])
    assert ind.dim == 2
    assert is_simple_module(ind)
    assert annihilator_induced(conv, "x", simples[0], ind=ind).is_zero()


def test_induce_zero_module_annihilates_everything():
    conv = z2_conv()
    B = isotropy_ring(conv, "e")
    M = exactalg.AlgebraModule(B, 0, [[] for _ in range(B.dim)])
    ind = induce(conv, "e", M)
    assert ind.dim == 0
    assert annihilator_induced(conv, "e", M, ind=ind).is_full()


def test_induced_module_dim_counts_orbit():
    conv = conv_of(pair_groupoid(2), 3)
    B = isotropy_ring(conv, "u1")
    reg = exactalg.regular_module(B)     # dim 1
    ind = induce(conv, "u1", reg)
    assert ind.dim == 2                  # one copy per orbit unit
    assert is_simple_module(ind)


def test_transversal_independence_of_induction():
    # two genuinely different transversals u1 -> u2
    conv = conv_of(z2_bundle_over_p2())
    B = isotropy_ring(conv, "u1")
    simples = exactalg.meataxe_simple_quotients(exactalg.regular_module(B))
    assert simples
    for S in simples:
        T1 = Transversal(conv, "u1", {"u1": "u1", "u2": "a21"})
        T2 = Transversal(conv, "u1", {"u1": "u1", "u2": "b21"})
        ind1 = induce(conv, "u1", S, T1)
        ind2 = induce(conv, "u1", S, T2)
        assert exactalg.simple_modules_isomorphic(ind1, ind2)
        assert annihilator_induced(conv, "u1", S, T1, ind1) == \
            annihilator_induced(conv, "u1", S, T2, ind2)


def test_effros_hahn_small_instances():
    for conv in (galois_conv(),
                 z2_conv(),
                 conv_of(pair_groupoid(2)),
                 conv_of(pair_groupoid(2), 3),
                 conv_of(t1_groupoid(2)),
                 conv_of(z2_bundle_over_p2())):
        rep = verify_effros_hahn(conv)
        assert rep.passed is True, rep.to_json()


def test_effros_hahn_caps_on_large_algebras():
    # GF(7)[Z7] is local, so its one Peirce piece has 137 257 points
    labels = [f"z{i}" for i in range(7)]
    conv = conv_of(group_groupoid("z0", labels, cyclic_mul(labels)), 7)
    rep = verify_effros_hahn(conv)
    assert rep.passed is None
    assert rep.caps_hit == [
        f"ideal enumeration capped at {exactalg.IDEAL_POINT_BUDGET} "
        "Peirce points, algebra has 137257"]


def test_effros_hahn_skips_on_a_cap_in_an_induced_module(monkeypatch):
    # a cap in deciding an induced module's simplicity lands in the report
    # that asked for it, and the fixture still gives every report.  The
    # decision scans the base stalk, a module over B_x, so the cap is put
    # there: on B_x-modules, outside the meataxe that finds the simples
    before = {r.check: r.to_json() for r in run_fixture("S3-F2")}
    G, O = get_fixture("S3-F2").build()
    labels = isotropy_ring(build_conv_algebra(G, O), G.units[0]).labels
    real = exactalg.module_simplicity_witness
    real_meataxe = exactalg.meataxe_simple_quotients
    in_meataxe = []

    def meataxe(M):
        in_meataxe.append(M)
        try:
            return real_meataxe(M)
        finally:
            in_meataxe.pop()

    def capped(M):
        if M.algebra.labels == labels and not in_meataxe:
            raise CapExceeded("capped for the test")
        return real(M)

    monkeypatch.setattr(exactalg, "meataxe_simple_quotients", meataxe)
    monkeypatch.setattr(exactalg, "module_simplicity_witness", capped)
    after = {r.check: r.to_json() for r in run_fixture("S3-F2")}
    assert list(after) == list(before)
    assert before["effros-hahn"]["status"] == "pass"
    assert after["effros-hahn"]["status"] == "skip"
    # one cap per simple module of GF(2)[S3]: the trivial one and the plane
    assert after["effros-hahn"]["caps_hit"] == ["capped for the test"] * 2
    # no other report asks a B_x-module outside a meataxe, so the radical
    # of Gamma, which skipped when Gamma-modules were capped, still passes
    assert {k for k in before if after[k] != before[k]} == {"effros-hahn"}


def stalk_quotients(conv):
    """The (x, e_x I) over the units x and the ideals I of Gamma with
    e_x I != e_x Gamma, read off Gamma's table: the stalk quotients
    (Gamma/I)_x that are not zero, each once."""
    A, G = conv.algebra, conv.groupoid
    keys = set()
    for x in G.units:
        e_x = conv.chi([G.unit_arrow(x)])
        stalk = Subspace.from_vectors(A.field, A.dim, [
            A.mul(e_x, A.basis_vector(k)) for k in range(A.dim)])
        for I in convalg.two_sided_ideals(conv):
            cut = Subspace.from_vectors(A.field, A.dim, [
                A.mul(e_x, list(v)) for v in I.basis])
            if cut != stalk:
                keys.add((x, cut.basis))
    return keys


def effros_hahn_inductions(monkeypatch, name):
    """verify_effros_hahn on the named catalog sheaf or lattice shape,
    with the (x, module) of every induce call, split into part (1)'s,
    made before the first simple isotropy modules are found, and part
    (2)'s."""
    if "@" in name:
        conv = lattice_conv(name)
    else:
        conv = build_conv_algebra(*get_fixture(name).build())
    parts = ([], [])
    real_induce = induction.induce
    real_meataxe = exactalg.meataxe_simple_quotients
    in_part_two = []

    def counted(conv, x, M, T=None):
        parts[bool(in_part_two)].append((x, M))
        return real_induce(conv, x, M, T)

    def meataxe(M):
        simples = real_meataxe(M)
        in_part_two.extend(simples)
        return simples

    monkeypatch.setattr(induction, "induce", counted)
    monkeypatch.setattr(exactalg, "meataxe_simple_quotients", meataxe)
    assert verify_effros_hahn(conv).passed is True
    return conv, parts, len(in_part_two)


@pytest.mark.parametrize("name", ["MIX", "T1-3-F3", "P2+Z3/F@3"])
def test_effros_hahn_induces_each_stalk_quotient_once(monkeypatch, name):
    # part (1) induces (Gamma/I)_x once per distinct (x, e_x I), and never
    # a zero quotient
    conv, (quotients, _), _ = effros_hahn_inductions(monkeypatch, name)
    assert all(M.dim > 0 for _, M in quotients)
    seen = {(x, M.dim, str(M.mats)) for x, M in quotients}
    assert len(seen) == len(quotients)
    assert len(quotients) == len(stalk_quotients(conv))
    # one induction per proper ideal and unit would be 15, 21 and 21
    assert len(quotients) == {"MIX": 4, "T1-3-F3": 3, "P2+Z3/F@3": 5}[name]


@pytest.mark.parametrize("name", ["MIX", "T1-3-F3", "P2+Z3/F@3", "S3/F@2"])
def test_effros_hahn_reuses_part_one_modules_in_part_two(monkeypatch, name):
    # a simple isotropy module of part (2) that equals a stalk quotient of
    # part (1), action matrices and all, is not induced again
    _, (first, second), simples = effros_hahn_inductions(monkeypatch, name)
    keys = [(x, str(M.mats)) for x, M in first + second]
    assert len(set(keys)) == len(keys)
    # the simples of part (2), and how many of them it induced itself
    assert (simples, len(second)) == {
        "MIX": (3, 2), "T1-3-F3": (3, 0), "P2+Z3/F@3": (3, 2),
        "S3/F@2": (2, 1)}[name]


def finite_field_sheaf_convs():
    """(name, Gamma) for every GF(p) catalog sheaf and lattice shape."""
    for name in catalog_names():
        if get_fixture(name).kind == "sheaf":
            conv = build_conv_algebra(*get_fixture(name).build())
            if conv.field.is_finite:
                yield name, conv
    for spec in LATTICE_SHAPES:
        yield spec, lattice_conv(spec)


def test_induced_modules_match_the_gamma_side_oracles(monkeypatch):
    # every module Effros-Hahn induces, certified through Phi_x and its
    # B_x-module alone, also passes the module axioms over Gamma, and the
    # base-stalk simplicity answer is the point scan's over Gamma
    induced = []
    real = induction.induce

    def recording(conv, x, M, T=None):
        ind = real(conv, x, M, T)
        induced.append((conv, x, M, T, ind))
        return ind

    monkeypatch.setattr(induction, "induce", recording)
    names = 0
    for name, conv in finite_field_sheaf_convs():
        assert verify_effros_hahn(conv).passed in (True, None), name
        names += 1
    assert names == 24 and len(induced) >= 100
    answers = set()
    for conv, x, M, T, ind in induced:
        assert ind.validate() == []
        simple = induction.induced_simplicity_witness(conv, x, M, T, ind)
        assert (simple is None) == is_simple_module(ind)
        if simple is not None:
            assert exactalg.is_submodule(ind, simple)
            assert not simple.is_zero() and not simple.is_full()
        answers.add(simple is None)
    assert answers == {True, False}


def twisted_p2_conv():
    """P2 with GF(4) stalks whose two non-identity arrows square: the
    transversal arrow u1 -> u2 acts by a nontrivial alpha."""
    G = pair_groupoid(2)
    f = GF(2)
    alpha = {a: linalg.identity_matrix(f, 2) if G.src[a] == G.dst[a]
             else frobenius_matrix() for a in G.arrows}
    O = GSheafOfAlgebras(G, f, {u: f4_algebra() for u in G.units}, alpha)
    return build_conv_algebra(G, O)


def test_induction_map_is_certified(monkeypatch):
    conv = twisted_p2_conv()
    B = isotropy_ring(conv, "u1")
    T = Transversal.canonical(conv, "u1")
    phi = T.induction_map(conv, B)
    assert phi.violations() == []
    assert T.induction_map(conv, B) is phi          # once per transversal
    other = isotropy_ring(conv, "u1")               # and per algebra
    assert T.induction_map(conv, other).B is other
    S = exactalg.regular_module(B)
    assert induce(conv, "u1", S, T).validate() == []
    # alpha dropped from the displaced elements
    monkeypatch.setattr(conv.sheaf, "apply", lambda arrow, v: list(v))
    with pytest.raises(CheckFailure, match="not a unital ring homomorphism"):
        Transversal.canonical(conv, "u1").induction_map(conv, B)


def test_induction_map_rejects_a_wrong_transversal_arrow(monkeypatch):
    # one entry displaced along b21 while the others go along a21
    conv = conv_of(z2_bundle_over_p2())
    B = isotropy_ring(conv, "u1")
    other = Transversal(conv, "u1", {"u1": "u1", "u2": "b21"})
    real = induction._displaced

    def wrong(conv, T, B, zeta, i):
        return real(conv, other if zeta == "a12" else T, B, zeta, i)

    T = Transversal(conv, "u1", {"u1": "u1", "u2": "a21"})
    assert T.induction_map(conv, B).violations() == []
    monkeypatch.setattr(induction, "_displaced", wrong)
    with pytest.raises(CheckFailure, match="not a unital ring homomorphism"):
        Transversal(conv, "u1", {"u1": "u1", "u2": "a21"}).induction_map(
            conv, B)


def test_induction_map_rejects_a_homomorphism_off_the_corner(monkeypatch):
    # Phi = 0 is multiplicative but not unital; Phi = u Phi u^-1 for a
    # unit u of B_x = M_2(GF(2)) outside the centre is a unital
    # homomorphism that moves the corner, so B_x would not act on the
    # base slot as on the module
    conv = galois_conv()
    B = isotropy_ring(conv, "x")
    f = conv.field
    real = induction._displaced
    monkeypatch.setattr(induction, "_displaced",
                        lambda conv, T, B, zeta, i: [f.zero] * B.dim)
    with pytest.raises(CheckFailure, match="not a unital ring homomorphism"):
        Transversal.canonical(conv, "x").induction_map(conv, B)
    u, v = next((list(u), list(v)) for u in B.elements()
                for v in B.elements()
                if B.mul(list(u), list(v)) == list(B.unit)
                and any(B.mul(list(u), B.basis_vector(k))
                        != B.mul(B.basis_vector(k), list(u))
                        for k in range(B.dim)))
    monkeypatch.setattr(induction, "_displaced",
                        lambda *args: B.mul(B.mul(u, real(*args)), v))
    with pytest.raises(CheckFailure, match="not its corner element"):
        Transversal.canonical(conv, "x").induction_map(conv, B)


def test_induce_rejects_a_module_that_is_not_one():
    # every basis element of B_x = M_2(GF(2)) acting as the identity
    conv = galois_conv()
    B = isotropy_ring(conv, "x")
    bad = exactalg.AlgebraModule(B, 2, [[[1, 0], [0, 1]]] * B.dim)
    with pytest.raises(CheckFailure, match="not a B_x-module"):
        induce(conv, "x", bad)


def test_induced_simplicity_rejects_a_broken_injectivity_block():
    conv = conv_of(pair_groupoid(2), 3)
    B = isotropy_ring(conv, "u1")
    S = exactalg.regular_module(B)
    T = Transversal.canonical(conv, "u1")
    ind = induce(conv, "u1", S, T)
    assert induction.induced_simplicity_witness(conv, "u1", S, T, ind) is None
    # chi of eta_u2^-1 = a12 carries slot u2 to slot u1; zero that block
    j = conv.algebra.label_index["a12", 0]
    mats = [[list(r) for r in X] for X in ind.mats]
    mats[j][0][1] = 0
    broken = exactalg.AlgebraModule(conv.algebra, ind.dim, mats)
    with pytest.raises(CheckFailure, match="injectively"):
        induction.induced_simplicity_witness(conv, "u1", S, T, broken)
    # and the same block moved out of the base slot
    mats[j][1][1] = 1
    broken = exactalg.AlgebraModule(conv.algebra, ind.dim, mats)
    with pytest.raises(CheckFailure, match="injectively"):
        induction.induced_simplicity_witness(conv, "u1", S, T, broken)
    # chi of eta_u2 = a21 no longer carries the base slot to slot u2
    mats = [[list(r) for r in X] for X in ind.mats]
    mats[conv.algebra.label_index["a21", 0]][1][0] = 0
    broken = exactalg.AlgebraModule(conv.algebra, ind.dim, mats)
    with pytest.raises(CheckFailure, match="does not generate"):
        induction.induced_simplicity_witness(conv, "u1", S, T, broken)


def test_induced_simplicity_of_a_module_that_splits():
    # GAL's regular B_x-module is two copies of the plane: the proper
    # submodule comes from the base stalk's witness, lifted and generated
    G, O = galois_sheaf()
    conv = build_conv_algebra(G, O)
    B = isotropy_ring(conv, "x")
    M = exactalg.regular_module(B)
    T = Transversal.canonical(conv, "x")
    ind = induce(conv, "x", M, T)
    U = induction.induced_simplicity_witness(conv, "x", M, T, ind)
    assert U is not None and U.dim == 2
    assert exactalg.is_submodule(ind, U)


def test_effros_hahn_disintegrates_nothing(monkeypatch):
    builds = []
    real = induction.module_stalks

    def counted(conv, M):
        builds.append(M)
        return real(conv, M)

    monkeypatch.setattr(induction, "module_stalks", counted)
    conv = build_conv_algebra(*get_fixture("MIX").build())
    assert verify_effros_hahn(conv).passed is True
    assert builds == []
    # the disintegration report without a module disintegrates the
    # regular module, once per call
    assert check_disintegration(conv).passed is True
    assert len(builds) == 1
    assert builds[0].mats == exactalg.regular_module(conv.algebra).mats
    # a module passed in is disintegrated on its own
    assert check_disintegration(conv, builds[0]).passed is True
    assert len(builds) == 2
    builds.clear()
    # nothing either check leaves behind refers back to the convolution
    # algebra, so it dies with its last reference, without the cycle
    # collector
    ref = weakref.ref(conv)
    gc.disable()
    try:
        del conv
        assert ref() is None
    finally:
        gc.enable()


def test_module_stalks_of_regular_module():
    conv = conv_of(pair_groupoid(2))
    st = module_stalks(conv, exactalg.regular_module(conv.algebra))
    # sections with target u: two arrows into each unit, scalar stalks
    assert st.stalk_space["u1"].dim == 2
    assert st.stalk_space["u2"].dim == 2
    assert st.validate() == []
    assert st.reconstruction_check()


def test_regular_stalk_matches_the_disintegration_oracle():
    # e_x Gamma as a coordinate block against the stalk of the
    # disintegrated regular module, on every GF(p) catalog sheaf and
    # lattice shape and on the two rational catalog sheaves
    convs = [conv for _, conv in finite_field_sheaf_convs()]
    convs += [build_conv_algebra(*get_fixture(name).build())
              for name in ("P2-Q", "P3-Q")]
    units = 0
    for conv in convs:
        st = module_stalks(conv, exactalg.regular_module(conv.algebra))
        blocks = []
        for x in conv.groupoid.units:
            B = isotropy_ring(conv, x)
            block, R = regular_stalk(conv, x, B)
            ref = b_x_module(st, x, B)
            assert (R.dim, R.mats) == (ref.dim, ref.mats)
            assert R.validate() == []
            blocks.extend(block)
            units += 1
        assert sorted(blocks) == list(range(conv.dim))
    assert (len(convs), units) == (26, 45)
    # four arrows land at u1 of the Z2 bundle over P2
    conv = conv_of(z2_bundle_over_p2())
    assert regular_stalk(conv, "u1", isotropy_ring(conv, "u1"))[1].dim == 4


def test_effros_hahn_rejects_a_chi_that_is_not_the_block_projection(
        monkeypatch):
    # chi of u2 (not an orbit corner's unit) replaced by the identity of
    # Gamma, then by twice the projection onto the arrows into u2
    conv = conv_of(pair_groupoid(2), 3)
    real = conv.chi
    f = conv.field
    for wrong in (lambda: real(["u1", "u2"]),
                  lambda: [f.add(c, c) for c in real(["u2"])]):
        monkeypatch.setattr(conv, "chi", lambda arrows, wrong=wrong:
                            wrong() if arrows == ["u2"] else real(arrows))
        with pytest.raises(CheckFailure, match="not the projection"):
            verify_effros_hahn(conv)
    monkeypatch.undo()
    assert verify_effros_hahn(conv).passed is True


def test_disintegration_report():
    conv = conv_of(pair_groupoid(2), 3)
    rep = check_disintegration(conv, exactalg.regular_module(conv.algebra))
    assert rep.passed is True
    assert rep.rhs == {"stalk dims": {"u1": 2, "u2": 2}}

    conv = z2_conv()
    for S in exactalg.meataxe_simple_quotients(
            exactalg.regular_module(conv.algebra)):
        rep = check_disintegration(conv, S)
        assert rep.passed is True


def test_disintegration_rejects_non_module():
    conv = conv_of(t1_groupoid(2))
    # both unit sections acting as 1 on a line: not a module, since the
    # product of the two orthogonal idempotents is zero
    bad = exactalg.AlgebraModule(conv.algebra, 1, [[[1]] for _ in range(conv.dim)])
    rep = check_disintegration(conv, bad)
    assert rep.passed is False
