"""Field arithmetic: exact, no floats anywhere."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsheaf.errors import InputError
from gsheaf.exactalg import Subspace
from gsheaf.fields import DEFAULT_PRIME_CAP, GF, QQ, Field, is_prime


def test_primes():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_gf_rejects_composites():
    for n in (4, 6, 9, 1, 0):
        with pytest.raises(InputError):
            GF(n)


def test_gf_cached():
    assert GF(5) is GF(5)
    assert GF(5) == Field(5)
    assert GF(3) != GF(5)
    assert QQ != GF(2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_gf_arithmetic_matches_ints(p):
    f = GF(p)
    for a in range(p):
        for b in range(p):
            assert f.add(a, b) == (a + b) % p
            assert f.sub(a, b) == (a - b) % p
            assert f.mul(a, b) == (a * b) % p
            if b:
                assert f.mul(f.div(a, b), b) == a % p
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)


def test_gf_inverse_exhaustive():
    for p in (2, 3, 5, 7):
        f = GF(p)
        for a in range(1, p):
            assert f.mul(a, f.inv(a)) == 1


def is_canonical_qq(c) -> bool:
    """An int (not a bool) when integral, a Fraction with denominator > 1
    otherwise, never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_qq_is_fractions():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 7), Fraction(7, 2)) == 1
    assert QQ.inv(Fraction(-3, 4)) == Fraction(-4, 3)
    assert QQ.zero == 0 and QQ.one == 1
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 3))) is Fraction
    assert type(QQ.mul(Fraction(2, 7), Fraction(7, 2))) is int
    assert type(QQ.inv(Fraction(-3, 4))) is Fraction


# Ints, Fractions with denominator > 1, and integral Fractions as a caller
# may pass them un-normalised.
_RATIONALS = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(-40, 40).map(Fraction),
)


@settings(derandomize=True, database=None)
@given(_RATIONALS, _RATIONALS)
def test_qq_ops_match_fraction_and_are_canonical(a, b):
    fa, fb = Fraction(a), Fraction(b)
    got = {"add": (QQ.add(a, b), fa + fb), "sub": (QQ.sub(a, b), fa - fb),
           "mul": (QQ.mul(a, b), fa * fb), "neg": (QQ.neg(a), -fa),
           "coerce": (QQ.coerce(a), fa),
           "coerce_str": (QQ.coerce(f"{fa.numerator}/{fa.denominator}"), fa)}
    if b != 0:
        got["inv"] = (QQ.inv(b), 1 / fb)
        got["div"] = (QQ.div(a, b), fa / fb)
    for op, (value, expected) in got.items():
        assert value == expected, op
        assert is_canonical_qq(value), (op, value)


def test_encode_coerce_round_trip():
    f = GF(7)
    for a in range(7):
        assert f.coerce(f.encode(a)) == a
    assert QQ.encode(Fraction(-2, 3)) == "-2/3"
    assert QQ.coerce("-2/3") == Fraction(-2, 3)
    assert QQ.coerce(5) == Fraction(5)
    assert QQ.coerce("4/2") == Fraction(2)


def test_mixed_rational_forms_agree():
    """Integral Fractions a caller passes in make the same subspace, hash
    and JSON as the canonical ints."""
    ints = [[1, 0, 2], [0, 1, -1], [1, 1, 1]]
    fracs = [[Fraction(c) for c in row] for row in ints]
    S, T = (Subspace.from_vectors(QQ, 3, vs) for vs in (ints, fracs))
    assert S == T and hash(S) == hash(T)
    assert S.basis == T.basis
    assert all(is_canonical_qq(c) for row in T.basis for c in row)
    assert QQ.encode(1) == QQ.encode(Fraction(1)) == QQ.encode(QQ.one) == "1/1"
    assert QQ.encode(0) == QQ.encode(Fraction(0)) == "0/1"


def test_coerce_rejects_garbage():
    with pytest.raises(InputError):
        GF(5).coerce("2/3")  # rational syntax has no meaning mod p
    with pytest.raises(InputError):
        QQ.coerce("1/0")
    with pytest.raises(InputError):
        QQ.coerce(0.5)  # floats are never accepted
    with pytest.raises(InputError):
        GF(5).coerce(1.0)


def test_prime_cap_constant():
    assert DEFAULT_PRIME_CAP == 13


@given(st.integers(), st.integers(), st.integers())
def test_gf13_field_axioms(a, b, c):
    f = GF(13)
    a, b, c = a % 13, b % 13, c % 13
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0


@given(st.fractions(), st.fractions(), st.fractions())
def test_qq_field_axioms(a, b, c):
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.sub(a, a) == 0
    if b != 0:
        assert QQ.mul(QQ.div(a, b), b) == a
