from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvedchern.scalars import I, ONE, Scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)


def test_i_squares_to_minus_one():
    assert I * I == Scalar(-1)


def test_inverse_of_one_plus_i():
    z = Scalar(1, 1)
    assert z.inv() == Scalar(Fraction(1, 2), Fraction(-1, 2))
    assert z * z.inv() == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inv()


def test_printing_is_canonical():
    assert str(Scalar(Fraction(1, 2), Fraction(-3, 2))) == "1/2-3/2*i"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(5)) == "5"


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


@given(scalars)
def test_nonzero_inverse_round_trip(a):
    if not a.is_zero():
        assert a * a.inv() == ONE
        assert a.inv().inv() == a


@pytest.mark.parametrize("name", ["an", "bn", "d"])
def test_scalar_refuses_assignment(name):
    with pytest.raises(AttributeError):
        setattr(Scalar(1, 2), name, 5)


def test_raw_and_negation_build_canonical_scalars():
    got = Scalar._raw(2, 4, -6)
    assert (got.an, got.bn, got.d) == (-1, -2, 3)
    assert got == Scalar(Fraction(-1, 3), Fraction(-2, 3))
    neg = -Scalar(1, 2)
    assert neg == Scalar(-1, -2)
    assert (neg.an, neg.bn, neg.d) == (-1, -2, 1)
