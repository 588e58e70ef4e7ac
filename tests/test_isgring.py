"""Inverse semigroups, spectral ring actions, skew rings, germ groupoids,
the bisection realization, the Pierce realization, partial crossed products."""

import random

import pytest

from gsheaf import exactalg, linalg
from gsheaf.convalg import build_conv_algebra
from gsheaf.errors import CheckFailure, InputError
from gsheaf.exactalg import Subspace
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (catalog_names, cyclic_mul, frobenius_matrix,
                             galois_ring_action, galois_sheaf, get_fixture,
                             global_swap_action, identity_only_action,
                             natural_i2_action, pair_groupoid,
                             partial_swap_action,
                             scalar_algebra, swap_action, swap_ring_action,
                             t1_groupoid, trivial_partial_action,
                             trivial_ring_action, trivial_z2_action, z2_isg,
                             _diag_f2_squared)
from gsheaf.groupoid import (ARROW_CAP, bisection_semigroup, is_effective,
                             orbits, validate_groupoid)
from gsheaf.isgring import (FiniteInverseSemigroup, PartialGroupAction,
                            SkewRealization, SpaceAction, SpectralRingAction,
                            action_orbits, bisection_ring_action, check_cinza,
                            check_orbit_correspondence, check_simpleaction,
                            dual_ring_action, germ_groupoid,
                            group_as_inverse_semigroup, is_minimal_action,
                            is_topologically_free, pierce_atoms, pierce_data,
                            pierce_verification, siri_data, skew_isg_ring,
                            symmetric_inverse_monoid, transformation_groupoid,
                            validate_inverse_semigroup,
                            validate_partial_group_action, validate_ring_action,
                            validate_space_action, verify_partial_crossed,
                            verify_siri)
from gsheaf.sheaf import constant_sheaf
from oracles import natural_order_violations, scan_inverse_semigroup


# ---------------------------------------------------------------------------
# inverse semigroups


def test_symmetric_inverse_monoid_on_two_symbols():
    S, graphs = symmetric_inverse_monoid(["1", "2"])
    assert len(S.elements) == 7
    assert validate_inverse_semigroup(S) == []
    idem = S.idempotents()
    assert len(idem) == 4                # restrictions of the identity
    assert "[]" in S.elements
    swap = "[1>2,2>1]"
    assert S.mul[swap, swap] == "[1>1,2>2]"
    assert S.star[swap] == swap
    assert S.star["[1>2]"] == "[2>1]"


def test_symmetric_inverse_monoid_sizes():
    # sum over k of C(n,k)^2 k!
    S1, _ = symmetric_inverse_monoid(["x"])
    S3, _ = symmetric_inverse_monoid(["x", "y", "z"])
    assert len(S1.elements) == 2
    assert len(S3.elements) == 34


def test_natural_order_laws():
    S, _ = symmetric_inverse_monoid(["1", "2"])
    assert natural_order_violations(S) == []
    assert natural_order_violations(z2_isg()) == []
    assert S.natural_leq("[1>1]", "[1>1,2>2]")
    assert not S.natural_leq("[1>1,2>2]", "[1>1]")
    assert S.natural_leq("[1>2]", "[1>2,2>1]")


def test_group_detection():
    # an inverse semigroup with one idempotent is a group, with that unit
    assert z2_isg().idempotents() == ["1"]
    S, _ = symmetric_inverse_monoid(["1", "2"])
    assert len(S.idempotents()) > 1


def test_invalid_semigroup_rejected():
    # constant product: f f* f = e != f
    with pytest.raises(InputError):
        FiniteInverseSemigroup(
            ["e", "f"],
            {(a, b): "e" for a in "ef" for b in "ef"},
            {"e": "e", "f": "f"})
    bad = FiniteInverseSemigroup(["e"], {("e", "e"): "e"}, {"e": "e"},
                                 validate=False)
    bad.star = {"e": "x"}
    assert validate_inverse_semigroup(bad) != []


def table_semigroup(elems, mul, star=None):
    return FiniteInverseSemigroup(elems, mul, star or {s: s for s in elems},
                                  validate=False)


def zero_of(S):
    return [z for z in S.elements
            if all(S.mul[z, c] == z == S.mul[c, z] for c in S.elements)]


def random_table(rng, n, with_zero):
    """A random product table that mostly lands on one element z, which
    is made a zero, or kept from being one by z z != z."""
    elems = [f"s{i}" for i in range(n)]
    z = rng.choice(elems)
    mul = {(a, b): z if rng.random() < 0.7 else rng.choice(elems)
           for a in elems for b in elems}
    if with_zero:
        for c in elems:
            mul[z, c] = mul[c, z] = z
    elif n > 1:
        for a in elems:
            if mul[a, a] == a:  # then no element is a zero
                mul[a, a] = rng.choice([b for b in elems if b != a])
    return table_semigroup(elems, mul)


@pytest.mark.parametrize("with_zero", [True, False])
def test_semigroup_check_matches_the_scan_on_random_tables(with_zero):
    rng = random.Random(f"isg-random-{with_zero}")
    failed = 0
    for _ in range(300):
        S = random_table(rng, rng.randint(1, 6), with_zero)
        assert bool(zero_of(S)) == with_zero or len(S.elements) == 1
        bad = validate_inverse_semigroup(S)
        assert bad == scan_inverse_semigroup(S)
        failed += bool(bad)
    assert failed > 200


def test_semigroup_check_matches_the_scan_with_a_planted_failure():
    # the symmetric inverse monoid has the zero [] (the empty map); plant
    # a(bc) != z at every triple with ab = z != bc, so that the check
    # must walk that triple although ab is the zero
    rng = random.Random("isg-planted")
    S, _ = symmetric_inverse_monoid(["1", "2"])
    z = "[]"
    assert zero_of(S) == [z]
    named = 0
    for a in S.elements:
        for b in S.elements:
            for c in S.elements:
                d = S.mul[b, c]
                if a == z or S.mul[a, b] != z or d == z:
                    continue
                mul = dict(S.mul)
                mul[a, d] = rng.choice([w for w in S.elements if w != z])
                order = list(S.elements)
                rng.shuffle(order)
                planted = table_semigroup(order, mul, S.star)
                assert zero_of(planted) == [z]
                bad = validate_inverse_semigroup(planted)
                assert bad == scan_inverse_semigroup(planted) != []
                named += bad == [f"associativity fails at ({a},{b},{c})"]
    assert named > 0


def test_semigroup_check_matches_the_scan_on_real_semigroups():
    # with a zero (the empty map, the empty bisection) and without one
    # (groups), in random orders and with one product changed
    rng = random.Random("isg-real")
    G = pair_groupoid(2)
    units = {G.unit_arrow(u) for u in G.units}
    wide, _ = bisection_semigroup(G, generators=[{a} for a in G.arrows]
                                  + [units])
    z4 = ["0", "1", "2", "3"]
    for S, zeros in ((symmetric_inverse_monoid(["1", "2", "3"])[0], 1),
                     (wide, 1), (table_semigroup(z4, cyclic_mul(z4), dict(zip(z4, "0321"))), 0),
                     (z2_isg(), 0)):
        assert len(zero_of(S)) == zeros
        for _ in range(20):
            order = list(S.elements)
            rng.shuffle(order)
            assert validate_inverse_semigroup(
                table_semigroup(order, S.mul, S.star)) == []
            mul = dict(S.mul)
            mul[rng.choice(order), rng.choice(order)] = rng.choice(order)
            changed = table_semigroup(order, mul, S.star)
            assert validate_inverse_semigroup(changed) == \
                scan_inverse_semigroup(changed)


# ---------------------------------------------------------------------------
# space actions and germ groupoids


def test_space_action_validation():
    act = swap_action()
    assert validate_space_action(act) == []
    S = z2_isg()
    with pytest.raises(InputError):
        # theta_g collapses two points: not a bijection onto X_g
        SpaceAction(S, ["a", "b"],
                    {"1": frozenset(["a", "b"]), "g": frozenset(["a"])},
                    {"1": {"a": "a", "b": "b"}, "g": {"a": "a", "b": "a"}})


def test_action_orbits():
    assert action_orbits(swap_action()) == [["a", "b"]]
    assert action_orbits(identity_only_action()) == [["a"], ["b"]]
    assert is_minimal_action(swap_action())
    assert not is_minimal_action(identity_only_action())


def test_action_orbits_in_order_of_first_appearance():
    # g swaps a and c and lists c -> a first; the orbit of a still leads
    pts = ["a", "b", "c"]
    act = SpaceAction(z2_isg(), pts,
                      {"1": frozenset(pts), "g": frozenset(pts)},
                      {"1": {x: x for x in pts},
                       "g": {"c": "a", "b": "b", "a": "c"}})
    assert action_orbits(act) == [["a", "c"], ["b"]]
    germ = germ_groupoid(act)
    assert orbits(germ.groupoid) == [["a", "c"], ["b"]]


def test_germ_groupoid_of_swap():
    germ = germ_groupoid(swap_action())
    G = germ.groupoid
    assert validate_groupoid(G) == []
    assert len(G.units) == 2
    assert len(G.arrows) == 4            # two identities, two swap germs
    assert is_effective(G)
    assert len(orbits(G)) == 1
    # the two germs of g at different points are different arrows
    assert germ.pair_label["g", "a"] != germ.pair_label["g", "b"]


def test_germ_groupoid_of_trivial_isotropy():
    germ = germ_groupoid(trivial_z2_action())
    G = germ.groupoid
    assert len(G.units) == 1
    assert len(G.arrows) == 2            # identity and the germ of g
    assert not is_effective(G)


def test_germ_groupoid_collapses_restrictions():
    # I(2) acting naturally: [1>1] and [1>1,2>2] have the same germ at 1
    act = natural_i2_action()
    germ = germ_groupoid(act)
    assert germ.pair_label["[1>1]", "1"] == germ.pair_label["[1>1,2>2]", "1"]
    G = germ.groupoid
    assert len(G.arrows) == 4            # pair groupoid on two points
    assert is_effective(G)
    assert len(orbits(G)) == 1
    total_pairs = sum(len(cls) for cls in germ.class_members.values())
    assert total_pairs == 8


def test_slice_labels_cover_domain():
    act = natural_i2_action()
    germ = germ_groupoid(act)
    for s in act.semigroup.elements:
        labs = germ.slice_labels(s)
        assert len(labs) == len(act.source_set(s))


def test_topological_freeness():
    assert is_topologically_free(swap_action())
    assert is_topologically_free(identity_only_action())
    assert is_topologically_free(natural_i2_action())
    assert not is_topologically_free(trivial_z2_action())


def test_cinza_dictionary():
    for act in (swap_action(), trivial_z2_action(), identity_only_action(),
                natural_i2_action()):
        rep = check_cinza(act)
        assert rep.passed is True
    rep = check_cinza(trivial_z2_action())
    assert rep.lhs == {"topologically free": False}
    assert rep.rhs == {"germ groupoid effective": False}


def test_orbit_correspondence():
    for act in (swap_action(), trivial_z2_action(), identity_only_action(),
                natural_i2_action()):
        rep = check_orbit_correspondence(act)
        assert rep.passed is True


def test_simpleaction_dictionary():
    rep = check_simpleaction(swap_action())
    assert rep.passed is True
    assert rep.lhs == {"action minimal": True}

    rep = check_simpleaction(identity_only_action())
    assert rep.passed is True
    assert rep.lhs == {"action minimal": False}

    rep = check_simpleaction(trivial_z2_action())
    assert rep.passed is None            # not topologically free: skip
    assert rep.hypotheses["action topologically free"] is False


# ---------------------------------------------------------------------------
# spectral ring actions and skew rings


def test_ring_action_validation():
    for act in (swap_ring_action(), trivial_ring_action(),
                galois_ring_action()):
        assert validate_ring_action(act) == []


def test_ring_action_rejects_non_ideal_domain():
    A = _diag_f2_squared()
    S = z2_isg()
    diag = Subspace.from_vectors(A.field, 2, [[1, 1]])
    full = Subspace.full(A.field, 2)
    with pytest.raises(InputError):
        SpectralRingAction(S, A, {"1": full, "g": diag},
                           {"1": linalg.identity_matrix(A.field, 2),
                            "g": linalg.identity_matrix(A.field, 2)})


def test_ring_action_rejects_non_multiplicative_alpha():
    A = exactalg.matrix_algebra(GF(2), 2)
    S = z2_isg()
    full = Subspace.full(A.field, 4)
    transpose = linalg.zero_matrix(GF(2), 4, 4)
    for i in (1, 2):
        for j in (1, 2):
            transpose[A.label_index[f"e{j}{i}"]][A.label_index[f"e{i}{j}"]] = 1
    # transposition is an anti-automorphism, not an automorphism
    act = SpectralRingAction(S, A, {"1": full, "g": full},
                             {"1": linalg.identity_matrix(GF(2), 4),
                              "g": transpose}, validate=False)
    assert any("multiplicative" in m for m in validate_ring_action(act))


def test_ring_action_rejects_a_composite_that_escapes_its_domain():
    # the semilattice {a, b, z} with ab = z: D_a and D_b are everything
    # but D_z is 0, so alpha_a o alpha_b is defined where alpha_z is not;
    # every axiom before the composites holds
    A = scalar_algebra(GF(2))
    mul = {(x, y): x if x == y else "z" for x in "abz" for y in "abz"}
    S = FiniteInverseSemigroup("abz", mul, {x: x for x in "abz"})
    full, zero = Subspace.full(A.field, 1), Subspace.zero(A.field, 1)
    one = linalg.identity_matrix(A.field, 1)
    act = SpectralRingAction(S, A, {"a": full, "b": full, "z": zero},
                             {x: one for x in "abz"}, validate=False)
    assert validate_ring_action(act) == [
        "alpha[a] o alpha[b] is not defined exactly on D_z"]


def test_ring_action_rejects_a_composite_that_disagrees():
    # Z3 acting on GF(2) x GF(2) with alpha_g = alpha_h = the swap: h
    # inverts g and every axiom before the composites holds, but
    # alpha_g o alpha_g is the identity while alpha_h is the swap
    A = _diag_f2_squared()
    S = FiniteInverseSemigroup(["1", "g", "h"], cyclic_mul(["1", "g", "h"]),
                               {"1": "1", "g": "h", "h": "g"})
    full = Subspace.full(A.field, 2)
    swap = [[0, 1], [1, 0]]
    act = SpectralRingAction(S, A, {s: full for s in "1gh"},
                             {"1": linalg.identity_matrix(A.field, 2),
                              "g": swap, "h": swap}, validate=False)
    assert validate_ring_action(act) == [
        "alpha[g] o alpha[g] disagrees with alpha[h]"]


def test_domain_units_are_central_idempotents():
    act = swap_ring_action()
    assert validate_ring_action(act) == []
    assert act.units["1"] == [1, 1]
    assert act.units["g"] == [1, 1]


def test_skew_ring_of_group_action_has_zero_relation_ideal():
    for act in (swap_ring_action(), trivial_ring_action(),
                galois_ring_action()):
        skew = skew_isg_ring(act)
        assert skew.N.is_zero()
        assert skew.quotient.dim == skew.L.dim
        assert exactalg.validate_algebra(skew.quotient) == []


def test_skew_ring_of_galois_action_is_simple():
    skew = skew_isg_ring(galois_ring_action())
    assert skew.L.dim == 4
    assert exactalg.is_simple(skew.quotient)
    assert not skew.quotient.is_commutative()


def test_skew_ring_embed_requires_domain_membership():
    skew = skew_isg_ring(swap_ring_action())
    v = skew.embed("g", [1, 0])
    assert not linalg.vec_is_zero(v)
    # bisection action has proper domains: embedding outside one fails
    G = t1_groupoid(2)
    conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(2))))
    act, member, _ = bisection_ring_action(conv, bisection_semigroup(G))
    skew = skew_isg_ring(act)
    lab_u1 = next(lab for lab, B in member.items() if B == frozenset({"u1"}))
    outside = list(act.domain[lab_u1].basis[0])
    outside = [conv.field.sub(conv.field.one, c) for c in outside]
    with pytest.raises(Exception):
        skew.embed(lab_u1, outside)


def test_skew_ring_rejects_blocks_outside_their_domains():
    # {a, b, z} with ab = z and D_z = 0: the product of the a and b
    # blocks has nowhere to go
    A = scalar_algebra(GF(2))
    full, zero = Subspace.full(A.field, 1), Subspace.zero(A.field, 1)
    one = linalg.identity_matrix(A.field, 1)
    mul = {(x, y): x if x == y else "z" for x in "abz" for y in "abz"}
    S = FiniteInverseSemigroup("abz", mul, {x: x for x in "abz"})
    act = SpectralRingAction(S, A, {"a": full, "b": full, "z": zero},
                             {x: one for x in "abz"}, validate=False)
    with pytest.raises(CheckFailure, match=r"blocks \(a,b\) escapes D_z"):
        skew_isg_ring(act)
    # f <= e, but D_f = A is not inside D_e = 0
    mul = {(x, y): "f" if "f" in (x, y) else "e" for x in "ef" for y in "ef"}
    S = FiniteInverseSemigroup("ef", mul, {x: x for x in "ef"})
    act = SpectralRingAction(S, A, {"e": zero, "f": full},
                             {x: one for x in "ef"}, validate=False)
    with pytest.raises(InputError, match="f <= e but D_f is not inside D_e"):
        skew_isg_ring(act)


def test_bisection_action_relation_ideal_nonzero():
    # honest inverse-semigroup action: comparable distinct bisections
    G = t1_groupoid(2)
    conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(2))))
    act, member, embed = bisection_ring_action(conv, bisection_semigroup(G))
    skew = skew_isg_ring(act)
    assert skew.L.dim == 4
    assert skew.N.dim == 2
    assert skew.quotient.dim == 2


def test_skew_ring_rejects_a_relation_span_that_is_not_an_ideal(
        monkeypatch):
    # the ideal test runs once, inside quotient_algebra; its failure
    # still surfaces as the skew ring's own CheckFailure
    act = swap_ring_action()
    monkeypatch.setattr(exactalg, "is_ideal", lambda *args: False)
    with pytest.raises(CheckFailure,
                       match="^relation span is not a two-sided ideal$"):
        skew_isg_ring(act)


def test_siri_dims():
    cases = [
        (t1_groupoid(2), 2, (4, 2, 2)),
        (pair_groupoid(2), 2, (6, 2, 4)),
    ]
    for G, p, dims in cases:
        O = constant_sheaf(G, scalar_algebra(GF(p)))
        data = siri_data(G, O)
        assert (data.skew.L.dim, data.skew.N.dim,
                data.skew.quotient.dim) == dims


def test_siri_verification():
    for G, p in ((t1_groupoid(2), 2), (pair_groupoid(2), 2),
                 (pair_groupoid(2), 3)):
        O = constant_sheaf(G, scalar_algebra(GF(p)))
        rep = verify_siri(G, O)
        assert rep.passed is True, rep.to_json()
    G, O = galois_sheaf()
    rep = verify_siri(G, O)
    assert rep.passed is True


def test_siri_over_the_wide_semigroup_matches_the_full_one():
    # the full bisection semigroup is the oracle within its arrow cap; the
    # generic action check, which SIRI does not run, holds on both actions
    wide_runs = full_runs = 0
    for name in catalog_names():
        if get_fixture(name).kind != "sheaf":
            continue
        G, O = get_fixture(name).build()
        conv = build_conv_algebra(G, O)
        wide = siri_data(G, O)
        assert wide.conv is conv, name
        assert wide.kills_relations() and wide.is_ring_iso(), name
        assert validate_ring_action(wide.skew.action) == [], name
        wide_runs += 1
        if len(G.arrows) > ARROW_CAP:
            continue
        act, member, embed = bisection_ring_action(conv, bisection_semigroup(G))
        assert validate_ring_action(act) == [], name
        full = SkewRealization(act, conv, lambda U, a: (
            linalg.mat_vec(conv.field, embed, a), member[U]))
        assert full.kills_relations() and full.is_ring_iso(), name
        assert full.skew.quotient.dim == wide.skew.quotient.dim, name
        full_runs += 1
    assert (wide_runs, full_runs) == (17, 14)


def test_siri_respects_supports():
    # the realization sends a block a delta_U into sections supported on U
    G = pair_groupoid(2)
    O = constant_sheaf(G, scalar_algebra(GF(2)))
    data = siri_data(G, O)
    f = data.conv.field
    for (lab, k) in data.skew.labels:
        vec = [f.zero] * len(data.skew.labels)
        vec[data.skew.index[lab, k]] = f.one
        col = linalg.mat_vec(f, data.map_L, vec)
        assert set(data.conv.support(col)) <= set(data.member[lab])


def test_siri_caps_on_large_groupoids():
    # P3 has more arrows than the full bisection enumeration's cap; the
    # wide semigroup has 9 + 2 members and no cap
    G = pair_groupoid(3)
    O = constant_sheaf(G, scalar_algebra(GF(2)))
    rep = verify_siri(G, O)
    assert rep.passed is True
    assert rep.caps_hit == []
    assert rep.lhs == {"dim L": 12, "dim N": 3, "dim quotient": 9}


# ---------------------------------------------------------------------------
# Pierce realization


def test_pierce_atoms_of_split_ring():
    atoms = pierce_atoms(_diag_f2_squared())
    assert sorted(atoms) == [[0, 1], [1, 0]]
    # a connected ring has a single atom, the identity
    from gsheaf.fixtures import f4_algebra
    assert pierce_atoms(f4_algebra()) == [[1, 0]]


def test_pierce_swap():
    data = pierce_data(swap_ring_action())
    assert len(data.atoms) == 2
    assert len(data.germ.groupoid.arrows) == 4
    assert data.conv.dim == 4
    rep = pierce_verification(swap_ring_action())
    assert rep.passed is True
    # the germ action is transitive, every stalk one-dimensional: M_2
    assert exactalg.is_simple(data.conv.algebra)


def test_pierce_trivial():
    data = pierce_data(trivial_ring_action())
    assert len(data.atoms) == 2
    assert len(data.germ.groupoid.arrows) == 2
    assert data.conv.dim == 2
    assert pierce_verification(trivial_ring_action()).passed is True


def test_pierce_galois_recovers_sheaf():
    act = galois_ring_action()
    data = pierce_data(act)
    assert len(data.atoms) == 1          # GF(4) is connected
    G = data.germ.groupoid
    assert len(G.arrows) == 2
    assert not is_effective(G)
    # stalk is the full field, the nonidentity germ acts by squaring
    iso_arrow = [a for a in G.arrows if a not in G.units][0]
    assert data.sheaf.stalk[G.units[0]].dim == 2
    assert data.sheaf.alpha[iso_arrow] == frobenius_matrix()
    assert pierce_verification(act).passed is True
    assert data.conv.dim == 4
    assert exactalg.is_simple(data.conv.algebra)


def test_pierce_composes_with_bisection_realization():
    data = pierce_data(swap_ring_action())
    rep = verify_siri(data.germ.groupoid, data.sheaf)
    assert rep.passed is True


# ---------------------------------------------------------------------------
# partial group actions


def test_partial_action_validation():
    for act in (partial_swap_action(), global_swap_action(),
                trivial_partial_action()):
        assert act.inv is not None
    with pytest.raises(InputError):
        PartialGroupAction(
            ["1", "g"], cyclic_mul(["1", "g"]), "1", ["a"],
            {"1": frozenset(), "g": frozenset()},   # X_1 must be everything
            {"1": {}, "g": {}})
    with pytest.raises(InputError):
        PartialGroupAction(
            ["1", "g"], cyclic_mul(["1", "g"]), "1", ["a", "b"],
            {"1": frozenset(["a", "b"]), "g": frozenset(["a"])},
            {"1": {"a": "a", "b": "b"}, "g": {"b": "a", "a": "a"}})

    # the group axioms are the inverse semigroup axioms of the group, then
    # come the space-action rules; X_1 = X is asked last
    def check(mul, domain, theta):
        return validate_partial_group_action(PartialGroupAction(
            ["1", "g"], mul, "1", ["a", "b"], domain, theta, validate=False))

    z2 = cyclic_mul(["1", "g"])
    ident = {"a": "a", "b": "b"}
    full = frozenset(["a", "b"])
    assert check({**z2, ("1", "g"): "zz"}, {"1": full, "g": full},
                 {"1": ident, "g": ident}) == [
        "product undefined or out of range at (1,g)"]
    assert check(z2, {"1": full, "g": frozenset()},
                 {"1": {"a": "b", "b": "a"}, "g": {}}) == ["theta[1] moves a"]
    assert check(z2, {"1": frozenset(["a"]), "g": frozenset()},
                 {"1": {"a": "a"}, "g": {}}) == ["X_1 is not the whole space"]


def test_partial_action_is_a_space_action_but_for_one_inclusion():
    # read as a space action of its group, the partial swap fails only
    # the reverse inclusion: theta_1 is larger than theta_g o theta_g
    for act, bad in ((global_swap_action(), []),
                     (trivial_partial_action(), []),
                     (partial_swap_action(), [
                         "theta[1] is defined at c, where theta[g] o "
                         "theta[g] is not"])):
        space = SpaceAction(group_as_inverse_semigroup(act), act.points,
                            act.domain, act.theta, validate=False)
        assert validate_space_action(space) == bad


def test_transformation_groupoid_of_partial_swap():
    G = transformation_groupoid(partial_swap_action())
    assert validate_groupoid(G) == []
    assert len(G.units) == 3
    assert len(G.arrows) == 5            # three identities, g@a, g@b
    assert sorted(len(o) for o in orbits(G)) == [1, 2]
    # the germs [g, x]: source x, range theta_g(x)
    assert G.arrows == ("a", "b", "c", "g@a", "g@b")
    assert (G.src["g@a"], G.dst["g@a"]) == ("a", "b")
    assert G.compose["g@b", "g@a"] == "a"


def test_transformation_groupoid_of_global_swap():
    G = transformation_groupoid(global_swap_action())
    assert len(G.arrows) == 4
    assert len(orbits(G)) == 1
    assert is_effective(G)


def test_group_as_inverse_semigroup():
    S = group_as_inverse_semigroup(partial_swap_action())
    assert len(S.idempotents()) == 1
    assert validate_inverse_semigroup(S) == []


def test_dual_ring_action_domains():
    # the partial swap's dual is a partial action: alpha_g o alpha_g is
    # the identity on D_g only, and alpha_1 is defined on everything
    ring_act = dual_ring_action(partial_swap_action(), QQ)
    assert validate_ring_action(ring_act) == [
        "alpha[g] o alpha[g] is not defined exactly on D_1"]
    assert ring_act.domain["1"].dim == 3
    assert ring_act.domain["g"].dim == 2
    ring_act = dual_ring_action(global_swap_action(), QQ)
    assert validate_ring_action(ring_act) == []
    assert ring_act.domain["1"].dim == ring_act.domain["g"].dim == 2
    assert validate_ring_action(
        dual_ring_action(trivial_partial_action(), GF(3))) == []


def test_partial_crossed_product_dims():
    rep = verify_partial_crossed(partial_swap_action(), QQ)
    assert rep.passed is True, rep.to_json()
    assert rep.lhs == {"dim skew ring": 5}
    assert rep.rhs["dim conv"] == 5

    rep = verify_partial_crossed(trivial_partial_action(), QQ)
    assert rep.passed is True
    assert rep.lhs == {"dim skew ring": 2}


def test_global_crossed_product_is_matrix_ring():
    act = global_swap_action()
    rep = verify_partial_crossed(act, QQ)
    assert rep.passed is True
    # the transformation groupoid is the two-point pair groupoid, so the
    # crossed product carries the four matrix units
    G = transformation_groupoid(act)
    conv = build_conv_algebra(
        G, constant_sheaf(G, scalar_algebra(QQ)))
    M = exactalg.matrix_algebra(QQ, 2)
    arrow = {(G.dst[a], G.src[a]): a for a in G.arrows}
    cols = [conv.chi([arrow[f"{'ab'[i - 1]}", f"{'ab'[j - 1]}"]])
            for i in (1, 2) for j in (1, 2)]
    phi = linalg.transpose(cols)
    assert exactalg.check_ring_iso(M, conv.algebra, phi)
    skew = skew_isg_ring(dual_ring_action(act, QQ))
    assert skew.quotient.dim == 4
    assert not skew.quotient.is_commutative()


def test_partial_crossed_over_a_group_of_order_three():
    # g is not its own inverse, so the slice of g, germs [g, x] with x in
    # X_{g^-1}, differs from the pairs (g, x) with x in X_g
    z3, pts = ["1", "g", "h"], ["a", "b", "c"]
    ident = {x: x for x in pts}
    rotation = PartialGroupAction(
        z3, cyclic_mul(z3), "1", pts, {s: frozenset(pts) for s in z3},
        {"1": ident, "g": {"a": "b", "b": "c", "c": "a"},
         "h": {"b": "a", "c": "b", "a": "c"}})
    partial = PartialGroupAction(
        z3, cyclic_mul(z3), "1", pts,
        {"1": frozenset(pts), "g": frozenset("b"), "h": frozenset("a")},
        {"1": ident, "g": {"a": "b"}, "h": {"b": "a"}})
    assert transformation_groupoid(partial).arrows == (
        "a", "b", "c", "g@a", "h@b")
    for act, dim in ((rotation, 9), (partial, 5)):
        for field in (QQ, GF(2)):
            rep = verify_partial_crossed(act, field)
            assert rep.passed is True, rep.to_json()
            assert rep.lhs == {"dim skew ring": dim}


def test_partial_crossed_over_prime_fields():
    rep = verify_partial_crossed(partial_swap_action(), GF(3))
    assert rep.passed is True
