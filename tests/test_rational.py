from fractions import Fraction

import pytest

from mimo3way import InvalidInputError
from mimo3way.rational import _to_integers, frac, frac_str, triple


def test_frac_accepts_int_fraction_string():
    assert frac(2) == Fraction(2)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)
    assert frac("5/3") == Fraction(5, 3)
    assert frac("-2") == Fraction(-2)


def test_frac_rejects_floats_and_bools():
    # binary floats would silently break exact comparisons
    with pytest.raises(InvalidInputError):
        frac(0.5)
    with pytest.raises(InvalidInputError):
        frac(True)


def test_frac_rejects_garbage():
    with pytest.raises(InvalidInputError):
        frac("three")
    with pytest.raises(InvalidInputError):
        frac("1/0")
    with pytest.raises(InvalidInputError):
        frac(None)


def test_frac_refuses_an_exponent_past_4300_before_building_it():
    for text in ("1e10000000", "1e-10000000", "1E4301"):
        with pytest.raises(InvalidInputError, match="exponent"):
            frac(text)
    assert frac("1e4300") == 10**4300
    assert frac("-1e-4300") == Fraction(-1, 10**4300)


def test_frac_str():
    assert frac_str(Fraction(16, 3)) == "16/3"
    assert frac_str(Fraction(4)) == "4"
    assert frac_str(Fraction(6, 3)) == "2"
    assert frac_str(Fraction(-10, 4)) == "-5/2"
    assert frac_str(-7) == "-7"

    class Labelled(Fraction):
        def __str__(self):
            return "labelled"

    assert frac_str(Labelled(2, 4)) == "1/2"  # a subclass renders as the rational it is


def test_triple():
    assert triple([1, "2/3", Fraction(0)]) == (Fraction(1), Fraction(2, 3), Fraction(0))
    with pytest.raises(InvalidInputError):
        triple([1, 2])
    with pytest.raises(InvalidInputError):
        triple([1, 2, -1])


def test_to_integers_scales_by_the_denominator_lcm():
    assert _to_integers([Fraction(1, 3), Fraction(2, 3), 1]) == ([1, 2, 3], 3)
    assert _to_integers([1, 2, 3]) == ([1, 2, 3], 1)
    assert _to_integers([]) == ([], 1)
    assert _to_integers([Fraction(1, 2), Fraction(1, 3)]) == ([3, 2], 6)
    assert _to_integers([Fraction(-5, 4), 0, Fraction(7, 6)]) == ([-15, 0, 14], 12)
    assert all(type(n) is int for n in _to_integers([Fraction(1, 2), 3])[0])
