"""Sheaf validation, transition functoriality, stalk-level predicates."""

import pytest
from fractions import Fraction

from gsheaf import exactalg, linalg
from gsheaf.errors import CapExceeded, InputError
from gsheaf.exactalg import FDAlgebra
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (_diag_f2_squared, cyclic_mul, dual_numbers,
                             f4_algebra, galois_sheaf, group_groupoid,
                             pair_groupoid, scalar_algebra, t1_groupoid)
from gsheaf.sheaf import (GSheafOfAlgebras, constant_sheaf, diagonal_vnr,
                          int_ker_is_units, is_sheaf_of_fields, ker_sheaf,
                          require_valid_sheaf, stalks_commutative,
                          validate_sheaf)


def test_constant_sheaf_validates():
    for G in (t1_groupoid(3), pair_groupoid(2)):
        for A in (scalar_algebra(GF(2)), f4_algebra(), scalar_algebra(QQ)):
            O = constant_sheaf(G, A)
            bad, axioms = validate_sheaf(O)
            assert bad == []
            statuses = dict(axioms)
            assert "automatic" in statuses.values()
            require_valid_sheaf(O)


def test_galois_sheaf_validates():
    G, O = galois_sheaf()
    bad, _ = validate_sheaf(O)
    assert bad == []
    # the nontrivial isotropy arrow acts by the squaring map on GF(4)
    A = O.stalk["x"]
    for v in A.elements():
        assert O.apply("g", list(v)) == A.mul(list(v), list(v))


def test_validate_catches_non_functorial_alpha():
    G, O = galois_sheaf()
    alpha = dict(O.alpha)
    alpha["g"] = linalg.identity_matrix(GF(2), 2)
    # g.g = x must be matched by alpha composition; identity passes that,
    # but then alpha[g] fixes the basis vector b1 whose square differs.
    broken = GSheafOfAlgebras(G, GF(2), O.stalk, alpha)
    bad, _ = validate_sheaf(broken)
    assert bad == []  # identity is a genuine automorphism, still a sheaf

    swap = [[1, 0], [0, 1]]
    swap[0][0] = 0
    swap[0][1] = 1
    swap[1][0] = 1
    swap[1][1] = 0
    alpha["g"] = swap  # not a ring map: does not fix the unit
    broken = GSheafOfAlgebras(G, GF(2), O.stalk, alpha)
    bad, _ = validate_sheaf(broken)
    assert bad != []


def test_validate_catches_non_invertible_alpha():
    G = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    A = scalar_algebra(GF(2))
    alpha = {"e": [[1]], "g": [[0]]}
    broken = GSheafOfAlgebras(G, GF(2), {"e": A}, alpha)
    bad, _ = validate_sheaf(broken)
    assert bad != []
    with pytest.raises(InputError):
        require_valid_sheaf(broken)


def test_validate_catches_composition_mismatch():
    # constant sheaf on the order-3 cyclic group with alpha[g] = identity
    # but alpha[h] a nontrivial automorphism: g.g = h forces a mismatch
    G = group_groupoid("e", ["e", "g", "h"], cyclic_mul(["e", "g", "h"]))
    A = f4_algebra()
    eye = linalg.identity_matrix(GF(2), 2)
    frob = [[1, 1], [0, 1]]
    broken = GSheafOfAlgebras(G, GF(2), {"e": A},
                              {"e": eye, "g": eye, "h": frob})
    bad, _ = validate_sheaf(broken)
    assert bad != []


def test_validate_catches_missing_stalk():
    G = t1_groupoid(2)
    broken = GSheafOfAlgebras(G, GF(2), {"u1": scalar_algebra(GF(2))},
                              {"u1": [[1]], "u2": [[1]]})
    bad, _ = validate_sheaf(broken)
    assert any("stalk" in m for m in bad)


def test_ker_sheaf():
    G, O = galois_sheaf()
    assert ker_sheaf(O) == ["x"]
    assert int_ker_is_units(O)

    Z2 = group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))
    triv = constant_sheaf(Z2, scalar_algebra(GF(2)))
    assert sorted(ker_sheaf(triv)) == ["e", "g"]
    assert not int_ker_is_units(triv)


def test_ker_sheaf_on_principal_groupoid():
    O = constant_sheaf(pair_groupoid(2), scalar_algebra(GF(3)))
    # principal groupoid: isotropy bundle is the unit space already
    assert sorted(ker_sheaf(O)) == ["u1", "u2"]
    assert int_ker_is_units(O)


def test_is_field_algebra():
    assert exactalg.is_field(scalar_algebra(GF(5)))
    assert exactalg.is_field(f4_algebra())
    assert exactalg.is_field(scalar_algebra(QQ))
    assert not exactalg.is_field(dual_numbers())
    assert not exactalg.is_field(exactalg.matrix_algebra(GF(2), 2))
    # GF(2) x GF(2) is commutative, unital, but has zero divisors
    assert not exactalg.is_field(_diag_f2_squared())


def test_is_field_algebra_rational_cap():
    one, zero = Fraction(1), Fraction(0)
    A = FDAlgebra(QQ, ["a", "b"],
                  [[[one, zero], [zero, one]],
                   [[zero, one], [one, zero]]],
                  unit=[one, zero])
    # QQ[x]/(x^2 - 1): commutative, 2-dim over the rationals, undecided here
    with pytest.raises(CapExceeded):
        exactalg.is_field(A)


def test_sheaf_of_fields_predicate():
    G, O = galois_sheaf()
    assert is_sheaf_of_fields(O)
    dual = constant_sheaf(t1_groupoid(1), dual_numbers())
    assert not is_sheaf_of_fields(dual)


def test_diagonal_vnr_witness():
    dual = constant_sheaf(t1_groupoid(1), dual_numbers())
    flag, wit = diagonal_vnr(dual)
    assert not flag
    assert wit["unit"] == "u1"
    # the nilpotent basis vector admits no quasi-inverse
    assert wit["element"] == [0, 1]

    G, O = galois_sheaf()
    flag, wit = diagonal_vnr(O)
    assert flag and wit is None


def test_stalks_commutative():
    assert stalks_commutative(constant_sheaf(t1_groupoid(2), f4_algebra()))
    m2 = constant_sheaf(t1_groupoid(1), exactalg.matrix_algebra(GF(2), 2))
    assert not stalks_commutative(m2)
