"""Convolution algebras: point-mass products, bisections, dictionary checks."""

import itertools

from gsheaf import exactalg
from gsheaf.convalg import (build_conv_algebra, centralizer_of_diagonal,
                            check_bisection_convolution, check_masa_criterion,
                            check_primitivity, check_semiprimitivity,
                            check_convolution_table, check_simplelife,
                            check_uniqueness_theorem, convolution_eval,
                            is_diagonal_masa)
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (cyclic_mul, dual_numbers, galois_sheaf,
                             group_groupoid, pair_groupoid, scalar_algebra,
                             t1_groupoid, z2_bundle_over_p2)
from gsheaf.sheaf import constant_sheaf


def conv_of(G, p):
    return build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(p))))


def test_dimension_is_total_stalk_count():
    for n, p in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        conv = conv_of(pair_groupoid(n), p)
        assert conv.dim == n * n
    G, O = galois_sheaf()
    conv = build_conv_algebra(G, O)
    assert conv.dim == 4  # two arrows, two-dimensional stalk


def test_unit_is_characteristic_function_of_units():
    conv = conv_of(pair_groupoid(2), 3)
    G = conv.groupoid
    assert list(conv.algebra.unit) == conv.chi([G.unit_arrow(u) for u in G.units])


def test_point_mass_value_round_trip():
    G, O = galois_sheaf()
    conv = build_conv_algebra(G, O)
    v = conv.point_mass("g", [1, 1])
    assert conv.value_at(v, "g") == [1, 1]
    assert conv.value_at(v, "x") == [0, 0]
    assert conv.support(v) == ["g"]


def test_point_masses_multiply_like_matrix_units():
    for n in (2, 3):
        for p in (2, 3):
            G = pair_groupoid(n)
            conv = conv_of(G, p)
            arrow = {(G.dst[a], G.src[a]): a for a in G.arrows}
            units = G.units
            for i, j, k, l in itertools.product(units, repeat=4):
                prod = conv.algebra.mul(conv.chi([arrow[i, j]]),
                                        conv.chi([arrow[k, l]]))
                if j == k:
                    assert prod == conv.chi([arrow[i, l]])
                else:
                    assert prod == [conv.field.zero] * conv.dim


def test_matrix_ring_iso_for_pair_groupoid():
    conv = conv_of(pair_groupoid(2), 2)
    M = exactalg.matrix_algebra(GF(2), 2)
    G = conv.groupoid
    arrow = {(G.dst[a], G.src[a]): a for a in G.arrows}
    images = {}
    for i in (1, 2):
        for j in (1, 2):
            images[f"e{i}{j}"] = conv.chi([arrow[f"u{i}", f"u{j}"]])
    from gsheaf import linalg
    phi = linalg.transpose([images[lab] for lab in M.labels])
    assert exactalg.check_ring_iso(M, conv.algebra, phi)


def test_convolution_table_matches_defining_sum():
    G, O = galois_sheaf()
    for conv in (build_conv_algebra(G, O),
                 conv_of(pair_groupoid(2), 3),
                 build_conv_algebra(z2_bundle_over_p2(),
                                    constant_sheaf(z2_bundle_over_p2(),
                                                   scalar_algebra(GF(2))))):
        rep = check_convolution_table(conv)
        assert rep.passed is True


def test_convolution_eval_on_general_sections():
    conv = conv_of(pair_groupoid(2), 2)
    vectors = list(itertools.product([0, 1], repeat=conv.dim))
    for f in vectors:
        for g in vectors:
            assert conv.algebra.mul(list(f), list(g)) == \
                convolution_eval(conv, list(f), list(g))


def test_convolution_is_not_pointwise_product():
    # the swap arrows compose to identities, so the product of the two
    # swap point masses is supported on units, not on the swaps
    conv = conv_of(pair_groupoid(2), 2)
    f = conv.chi(["a12", "a21"])
    prod = conv.algebra.mul(f, f)
    assert prod == conv.chi(["u1", "u2"])


def test_bisection_characteristic_functions():
    for conv in (conv_of(pair_groupoid(2), 3),
                 conv_of(t1_groupoid(2), 2),
                 build_conv_algebra(*galois_sheaf())):
        rep = check_bisection_convolution(conv)
        assert rep.passed is True


def test_bisection_check_caps_on_large_groupoids():
    # P3 has more arrows than the full bisection enumeration's cap; the
    # check enumerates no bisection, only the 81 arrow pairs
    conv = conv_of(pair_groupoid(3), 2)
    rep = check_bisection_convolution(conv)
    assert rep.passed is True
    assert rep.caps_hit == []


def test_pair_groupoid_has_exactly_two_ideals():
    conv = conv_of(pair_groupoid(2), 2)
    ideals = exactalg.enumerate_two_sided_ideals(conv.algebra)
    assert len(ideals) == 2
    dims = sorted(I.dim for I in ideals)
    assert dims == [0, 4]


def test_group_convolution_is_group_algebra():
    G = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    conv = conv_of(G, 2)
    ideals = exactalg.enumerate_two_sided_ideals(conv.algebra)
    assert len(ideals) == 3
    J = exactalg.jacobson_radical(conv.algebra)
    assert J.dim == 1


def test_centralizer_lives_in_isotropy_bundle():
    G = z2_bundle_over_p2()
    conv = conv_of(G, 2)
    C = centralizer_of_diagonal(conv)
    iso = set(G.iso_bundle())
    for v in C.basis:
        assert set(conv.support(list(v))) <= iso


def test_masa_dictionary():
    # trivial kernel: diagonal is maximal commutative
    conv = build_conv_algebra(*galois_sheaf())
    assert is_diagonal_masa(conv)
    rep = check_masa_criterion(conv)
    assert rep.passed is True

    # order-2 isotropy acting trivially: kernel too big, masa fails
    G = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    conv = conv_of(G, 2)
    assert not is_diagonal_masa(conv)
    rep = check_masa_criterion(conv)
    assert rep.passed is True  # criterion: masa False == int-ker False

    # principal groupoids always get a masa diagonal
    assert is_diagonal_masa(conv_of(pair_groupoid(2), 3))


def test_masa_criterion_skips_without_field_stalks():
    G = t1_groupoid(1)
    conv = build_conv_algebra(G, constant_sheaf(G, dual_numbers()))
    rep = check_masa_criterion(conv)
    assert rep.passed is None
    assert rep.hypotheses == {"stalks are fields": False}


def test_uniqueness_every_ideal_meets_centralizer():
    for conv in (conv_of(pair_groupoid(2), 2),
                 conv_of(group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"])), 2),
                 build_conv_algebra(*galois_sheaf())):
        rep = check_uniqueness_theorem(conv)
        assert rep.passed is True


def test_simplicity_dictionary():
    G, O = galois_sheaf()
    rep = check_simplelife(G, O)
    assert rep.passed is True
    assert rep.lhs == {"simple": True}

    Z2 = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    rep = check_simplelife(Z2, constant_sheaf(Z2, scalar_algebra(GF(2))))
    assert rep.passed is True
    assert rep.lhs == {"simple": False}
    assert rep.rhs == {"minimal": True, "kernel is units": False}

    T2 = t1_groupoid(2)
    rep = check_simplelife(T2, constant_sheaf(T2, scalar_algebra(GF(3))))
    assert rep.passed is True
    assert rep.lhs == {"simple": False}
    assert rep.rhs["minimal"] is False


def test_simplicity_dictionary_skips_without_field_stalks():
    G = t1_groupoid(1)
    rep = check_simplelife(G, constant_sheaf(G, dual_numbers()))
    assert rep.passed is None


def test_primitivity_dictionary():
    G, O = galois_sheaf()
    rep = check_primitivity(G, O)
    assert rep.passed is True

    T2 = t1_groupoid(2)
    rep = check_primitivity(T2, constant_sheaf(T2, scalar_algebra(GF(2))))
    assert rep.passed is True
    assert rep.lhs == {"primitive (= simple)": False}

    Z2 = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    rep = check_primitivity(Z2, constant_sheaf(Z2, scalar_algebra(GF(2))))
    assert rep.passed is None  # masa hypothesis fails
    assert rep.hypotheses["diagonal is masa"] is False


def test_semiprimitivity_dictionary():
    G, O = galois_sheaf()
    rep = check_semiprimitivity(G, O)
    assert rep.passed is True

    Z2 = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    rep = check_semiprimitivity(Z2, constant_sheaf(Z2, scalar_algebra(GF(2))))
    assert rep.passed is None  # masa hypothesis fails; radical is in fact 1


def test_rational_coefficients_stay_exact():
    conv = conv_of_rational()
    f = conv.chi(["a12", "a21"])
    from fractions import Fraction
    half = [Fraction(1, 2) * c for c in f]
    prod = conv.algebra.mul(half, half)
    assert prod == [Fraction(1, 4) * c for c in conv.chi(["u1", "u2"])]
    for c in prod:  # the canonical QQ form: an int when integral
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert {type(c) for c in prod} == {int, Fraction}


def conv_of_rational():
    G = pair_groupoid(2)
    return build_conv_algebra(G, constant_sheaf(G, scalar_algebra(QQ)))
