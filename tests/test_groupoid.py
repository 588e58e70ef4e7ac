"""Groupoid builders, orbit structure, isotropy, bisection semigroups."""

import itertools

import pytest

from gsheaf.errors import CapExceeded, InputError
from gsheaf.fixtures import (cyclic_mul, disjoint_union, group_groupoid,
                             pair_groupoid, s3_group, t1_groupoid,
                             z2_bundle_over_p2)
from gsheaf.groupoid import (ARROW_CAP, FiniteGroupoid, bisection_product,
                             bisection_semigroup, bisection_star,
                             is_bisection, is_effective, is_minimal,
                             orbit_of, orbits, validate_groupoid)
from gsheaf.isgring import validate_inverse_semigroup
from oracles import isotropy_group


def test_t1_groupoid_shape():
    for n in (1, 2, 3, 4):
        G = t1_groupoid(n)
        assert validate_groupoid(G) == []
        assert len(G.units) == n
        # identity arrows only
        assert sorted(G.arrows) == sorted(G.units)
        assert orbits(G) == [[u] for u in G.units]
        assert is_minimal(G) == (n == 1)
        assert is_effective(G)


def test_pair_groupoid_shape():
    for n in (1, 2, 3):
        G = pair_groupoid(n)
        assert validate_groupoid(G) == []
        assert len(G.arrows) == n * n
        assert len(orbits(G)) == 1
        assert is_minimal(G)
        assert is_effective(G)
        for x in G.units:
            assert G.isotropy_arrows(x) == [G.unit_arrow(x)]


def test_pair_groupoid_composition_is_matrix_like():
    G = pair_groupoid(3)
    # exactly one arrow per (dst, src) pair, composing like e_ij e_jk = e_ik
    by_pair = {(G.dst[a], G.src[a]): a for a in G.arrows}
    assert len(by_pair) == 9
    for i in G.units:
        for j in G.units:
            for k in G.units:
                assert G.compose[by_pair[i, j], by_pair[j, k]] == by_pair[i, k]


def test_group_groupoid_isotropy():
    unit, elems, mul = s3_group()
    G = group_groupoid(unit, elems, mul)
    assert validate_groupoid(G) == []
    assert len(G.units) == 1
    assert not is_effective(G)
    assert is_minimal(G)
    iso_elems, iso_mul, iso_inv, e = isotropy_group(G, unit)
    assert sorted(iso_elems) == sorted(elems)
    assert e == unit
    # nonabelian: some pair fails to commute
    assert any(iso_mul[a, b] != iso_mul[b, a]
               for a in iso_elems for b in iso_elems)
    for a in iso_elems:
        assert iso_mul[a, iso_inv[a]] == e


def test_unit_arrow_is_unit_id():
    G = pair_groupoid(2)
    for u in G.units:
        assert G.unit_arrow(u) == u


def test_validate_catches_broken_inverse():
    G = pair_groupoid(2)
    bad = FiniteGroupoid(G.units, G.arrows, G.src, G.dst, G.compose,
                         {a: a for a in G.arrows})
    assert validate_groupoid(bad) != []


def test_validate_catches_src_dst_mismatch():
    G = pair_groupoid(2)
    src = dict(G.src)
    src["a12"] = "u1"
    bad = FiniteGroupoid(G.units, G.arrows, src, G.dst, G.compose, G.inverse)
    assert validate_groupoid(bad) != []


def test_validate_catches_missing_composition():
    G = pair_groupoid(2)
    compose = dict(G.compose)
    del compose["a12", "a21"]
    bad = FiniteGroupoid(G.units, G.arrows, G.src, G.dst, compose, G.inverse)
    assert validate_groupoid(bad) != []


def test_validate_catches_broken_associativity():
    unit, elems, mul = "e", ["e", "g", "h"], cyclic_mul(["e", "g", "h"])
    mul = dict(mul)
    mul["g", "g"] = "g"  # now (gg)g != g(gg)
    bad = FiniteGroupoid([unit], elems, {a: unit for a in elems},
                         {a: unit for a in elems}, mul,
                         {"e": "e", "g": "h", "h": "g"})
    assert validate_groupoid(bad) != []


def test_disjoint_union_rejects_label_clash():
    with pytest.raises(InputError):
        disjoint_union(pair_groupoid(2), pair_groupoid(2))
    with pytest.raises(InputError):
        disjoint_union(t1_groupoid(1), pair_groupoid(2))


def test_disjoint_union_two_orbit_shape():
    Z2 = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    G = disjoint_union(Z2, pair_groupoid(2))
    assert validate_groupoid(G) == []
    sizes = sorted(len(o) for o in orbits(G))
    assert sizes == [1, 2]
    assert not is_minimal(G)
    assert orbit_of(G, "u1") == orbit_of(G, "u2")
    assert orbit_of(G, "e") == ["e"]


def test_z2_bundle_shape():
    G = z2_bundle_over_p2()
    assert validate_groupoid(G) == []
    assert len(G.arrows) == 8
    assert len(orbits(G)) == 1
    assert not is_effective(G)
    elems, mul, inv, e = isotropy_group(G, "u1")
    assert sorted(elems) == ["g1", "u1"]
    assert mul["g1", "g1"] == "u1"


def test_bisection_predicate():
    G = pair_groupoid(2)
    assert is_bisection(G, ["u1", "u2"])
    assert is_bisection(G, ["a12", "a21"])
    assert is_bisection(G, ["a12"])
    assert not is_bisection(G, ["u1", "a12"])      # targets collide at u1
    assert not is_bisection(G, ["u2", "a12"])      # sources collide at u2


def test_bisection_counts():
    G, expected = t1_groupoid(2), 4      # subsets of two isolated identities
    S, members = bisection_semigroup(G)
    assert len(S.elements) == expected

    Z2 = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    S, members = bisection_semigroup(Z2)
    assert len(S.elements) == 3          # empty, {e}, {g}

    P2 = pair_groupoid(2)
    S, members = bisection_semigroup(P2)
    assert len(S.elements) == 7          # empty, 4 singletons, identity, swap


def test_bisection_semigroup_is_inverse_semigroup():
    for G in (t1_groupoid(2), pair_groupoid(2), z2_bundle_over_p2()):
        S, members = bisection_semigroup(G)
        assert validate_inverse_semigroup(S) == []
        # idempotents are exactly the subsets of identity arrows
        units = set(G.units)
        for lab in S.elements:
            idem = S.mul[lab, lab] == lab and S.star[lab] == lab
            assert idem == (members[lab] <= units)


def test_bisection_products_are_pointwise():
    G = pair_groupoid(2)
    S, members = bisection_semigroup(G)
    full = frozenset(G.units)
    inv = {v: k for k, v in members.items()}
    for lab in S.elements:
        B = members[lab]
        assert members[S.mul[inv[full], lab]] == B
        assert members[S.mul[lab, inv[full]]] == B
        assert members[S.star[lab]] == bisection_star(G, B)
        for lab2 in S.elements:
            assert members[S.mul[lab, lab2]] == \
                bisection_product(G, B, members[lab2])


def test_bisection_cap():
    G = pair_groupoid(3)
    assert len(G.arrows) == 9 > ARROW_CAP
    with pytest.raises(CapExceeded):
        bisection_semigroup(G)
    S, members = bisection_semigroup(G, arrow_cap=9)
    # 0, 1, 2, 3 pairwise-disjoint partial bijections of a 3-point set
    assert len(S.elements) == 34


def test_bisection_generators():
    G = pair_groupoid(2)
    S, members = bisection_semigroup(G, generators=[frozenset({"a12"})])
    # star and products generate both units and the empty bisection
    assert len(S.elements) == 5
    assert validate_inverse_semigroup(S) == []
    covered = set().union(*members.values())
    assert covered == set(G.arrows)


def test_bisection_generators_must_cover():
    G = pair_groupoid(2)
    with pytest.raises(InputError):
        bisection_semigroup(G, generators=[frozenset({"u1"})])
    with pytest.raises(InputError):
        bisection_semigroup(G, generators=[frozenset({"u1", "a12"})])


def test_bisection_generators_must_be_wide():
    # the three transpositions of P3 close up to the six permutation
    # bisections, which cover every arrow, and whose idempotent, the unit
    # space, covers every unit; but {u1,a23,a32} & G0 = {u1} is no union
    # of members, and the skew ring over them would be the 18-dim
    # C(X) x S3 rather than the 9-dim convolution algebra
    G = pair_groupoid(3)
    transpositions = [{"u1", "a23", "a32"}, {"u2", "a13", "a31"},
                      {"u3", "a12", "a21"}]
    with pytest.raises(InputError, match="not wide"):
        bisection_semigroup(G, generators=transpositions)
    # arrow singletons and the unit space are wide: 9 + 2 members
    S, members = bisection_semigroup(
        G, generators=[{a} for a in G.arrows] + [set(G.units)])
    assert len(S.elements) == len(G.arrows) + 2
    assert frozenset() in members.values()


def test_all_bisections_enumerated():
    G = z2_bundle_over_p2()
    S, members = bisection_semigroup(G)
    brute = sum(1 for k in range(len(G.arrows) + 1)
                for sub in itertools.combinations(G.arrows, k)
                if is_bisection(G, sub))
    assert len(S.elements) == brute
