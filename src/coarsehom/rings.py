"""Exact coefficient rings: Z, Q and Z/m.

Scalars are plain ints (Z, Z/m in canonical range 0..m-1) or
fractions.Fraction (Q).  No floating point anywhere; every operation is
exact.  Vectors over R^k are tuples of scalars and are handled by the
callers; this module only knows single scalars.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache


class Ring:
    """Tag plus arithmetic for one exact commutative ring with unit."""

    name = "abstract"
    is_field = False

    def normalize(self, v):
        raise NotImplementedError

    def zero(self):
        return self.normalize(0)

    def one(self):
        return self.normalize(1)

    # ints and Fractions carry the arithmetic, so the builtins serve and
    # map(ring.add, a, b) runs in C; Z/m overrides all three to reduce
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def is_zero(self, a):
        return a == self.zero()

    def scalar_to_json(self, a):
        return a

    def scalar_from_json(self, obj):
        return self.normalize(obj)

    def __repr__(self):
        return f"Ring({self.name})"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class Integers(Ring):
    name = "Z"
    is_field = False

    def normalize(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"not an integer: {v!r}")
        return v


class Rationals(Ring):
    name = "Q"
    is_field = True

    def normalize(self, v):
        return Fraction(v)

    def scalar_to_json(self, a):
        if not isinstance(a, Fraction):
            a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 \
            else f"{a.numerator}/{a.denominator}"

    def scalar_from_json(self, obj):
        return Fraction(obj)


class IntegersMod(Ring):
    """Z/m in canonical representatives 0..m-1; a field iff m is prime."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.name = f"Z/{m}"
        self.is_field = _is_prime(m)

    def normalize(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"not an integer: {v!r}")
        return v % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@cache
def ring_from_name(name: str) -> Ring:
    """Parse "Z", "Q" or "Z/m"; one shared instance per name, as rings
    hold no state beyond it.

    >>> ring_from_name("Z/5").is_field
    True
    >>> ring_from_name("Q").name
    'Q'
    >>> ring_from_name("Z/5") is ring_from_name("Z/5")
    True
    """
    if name == "Z":
        return Integers()
    if name == "Q":
        return Rationals()
    if name.startswith("Z/"):
        return IntegersMod(int(name[2:]))
    raise ValueError(f"unknown ring {name!r}")


# vectors in R^k as tuples ------------------------------------------------

def vec_zero(ring: Ring, k: int):
    return (ring.zero(),) * k


def vec_add(ring: Ring, a, b):
    return tuple(map(ring.add, a, b))


def vec_neg(ring: Ring, a):
    return tuple(map(ring.neg, a))


def vec_scale(ring: Ring, c, a):
    return tuple(ring.mul(c, x) for x in a)
