"""Exact scalars: prime fields GF(p) and the rationals.

GF(p) elements are plain ints in range(p).  A rational element is held in
one canonical form: a plain int when it is integral, and a
`fractions.Fraction` with denominator > 1 otherwise.  Almost every
rational scalar met in practice is 0 or +-1, so the canonical form keeps
the common case in machine-int arithmetic.  Every QQ method returns the
canonical form; an integral `Fraction` passed in is accepted, since it
compares and hashes equal to its int.  This module is the only place
that makes a `Fraction`.  Everything is exact -- no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

# Primes accepted by the JSON loaders unless a cap flag raises the bound.
DEFAULT_PRIME_CAP = 13


def _qq(r):
    """The canonical form of the rational r: its int when integral."""
    if type(r) is int or r.denominator != 1:
        return r
    return r.numerator


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """GF(p) for a prime p, or the rationals when p is None."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise InputError(f"field order {p} is not prime")
        self.p = p

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def order(self) -> int:
        if self.p is None:
            raise InputError("the rational field is infinite")
        return self.p

    # The zero and one of GF(p) and of QQ alike (canonical rationals).
    zero = 0
    one = 1

    def add(self, a, b):
        if self.p is not None:
            return (a + b) % self.p
        return _qq(a + b)

    def sub(self, a, b):
        if self.p is not None:
            return (a - b) % self.p
        return _qq(a - b)

    def mul(self, a, b):
        if self.p is not None:
            return (a * b) % self.p
        return _qq(a * b)

    def neg(self, a):
        if self.p is not None:
            return (-a) % self.p
        return _qq(-a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(a, -1, self.p)
        return _qq(Fraction(a.denominator, a.numerator))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coerce(self, x):
        """Accept an int, a Fraction, or a "num/den" string."""
        if self.p is not None:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InputError(f"GF({self.p}) coefficient must be an int, got {x!r}")
            return x % self.p
        if isinstance(x, Fraction):
            return _qq(x)
        if isinstance(x, bool):
            raise InputError(f"rational coefficient must be int or 'num/den', got {x!r}")
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            try:
                return _qq(Fraction(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational coefficient {x!r}") from exc
        raise InputError(f"bad rational coefficient {x!r}")

    def encode(self, a):
        """JSON form: int for GF(p), "num/den" string for the rationals."""
        if self.p is not None:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def elements(self):
        if self.p is None:
            raise InputError("cannot enumerate the rationals")
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


_CACHE: dict[int | None, Field] = {}


def GF(p: int) -> Field:
    if p not in _CACHE:
        _CACHE[p] = Field(p)
    return _CACHE[p]


QQ = Field(None)
