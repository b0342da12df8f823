"""Ring layer: exact arithmetic, normalization, JSON scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coarsehom.rings import ring_from_name, vec_add, vec_neg, vec_scale, \
    vec_zero


def test_ring_names():
    assert ring_from_name("Z").name == "Z"
    assert ring_from_name("Q").name == "Q"
    assert ring_from_name("Z/5").name == "Z/5"
    for name in ("Z", "Q", "Z/5"):
        assert ring_from_name(name) is ring_from_name(name)
    with pytest.raises(ValueError):
        ring_from_name("Z/0")
    with pytest.raises(ValueError):
        ring_from_name("R")


def test_integer_ops_frozen():
    R = ring_from_name("Z")
    assert R.add(2, 3) == 5
    assert R.mul(-4, 5) == -20
    assert R.normalize(7) == 7
    assert R.is_zero(0)


def test_rational_exactness():
    R = ring_from_name("Q")
    third = R.normalize(Fraction(1, 3))
    assert R.add(third, third) == Fraction(2, 3)
    assert R.mul(third, 3) == 1


def test_mod_arithmetic_frozen():
    R = ring_from_name("Z/5")
    assert R.add(3, 4) == 2
    assert R.mul(3, 4) == 2
    assert R.neg(2) == 3
    assert R.normalize(-1) == 4


@pytest.mark.parametrize("name, zero, one", [
    ("Z", 0, 1), ("Q", Fraction(0), Fraction(1)), ("Z/2", 0, 1)])
def test_zero_and_one_are_normalized_scalars(name, zero, one):
    R = ring_from_name(name)
    assert (R.zero(), R.one()) == (zero, one)
    assert type(R.zero()) is type(zero) and type(R.one()) is type(one)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_mod_ring_laws(a, b, c):
    R = ring_from_name("Z/7")
    a, b, c = R.normalize(a), R.normalize(b), R.normalize(c)
    assert R.add(a, b) == R.add(b, a)
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


def test_vector_helpers():
    R = ring_from_name("Z")
    assert vec_zero(R, 3) == (0, 0, 0)
    assert vec_add(R, (1, 2, 3), vec_neg(R, (1, 2, 3))) == (0, 0, 0)
    assert vec_scale(R, 2, (1, 0, -1)) == (2, 0, -2)


def test_scalar_json_roundtrip():
    for name, val in (("Z", -3), ("Q", Fraction(2, 3)), ("Z/5", 4)):
        R = ring_from_name(name)
        j = R.scalar_to_json(val)
        assert R.scalar_from_json(j) == val
