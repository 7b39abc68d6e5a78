from fractions import Fraction

import pytest
from hypothesis import given

from ellbundle import INFINITE, TRIVIAL, LineBundleClass, line_class

from _strategies import line_classes


def test_identity_is_trivial():
    assert TRIVIAL == line_class()
    assert TRIVIAL.is_trivial
    assert TRIVIAL.t1 == 0 and TRIVIAL.t2 == 0 and TRIVIAL.free == ()
    assert TRIVIAL.order() == 1


def test_two_torsion_squares_to_identity():
    half = line_class(Fraction(1, 2))
    assert half * half == TRIVIAL


def test_group_law_in_q_mod_z():
    third = line_class(Fraction(1, 3))
    assert third * third == line_class(Fraction(2, 3))


def test_free_generators_cancel():
    g = line_class(free={"g": 1})
    ginv = line_class(free={"g": -1})
    assert g * ginv == TRIVIAL
    assert (g * g).free == (("g", 2),)


def test_inverse_examples():
    assert line_class(Fraction(1, 3)).inverse() == line_class(Fraction(2, 3))
    assert TRIVIAL.inverse() == TRIVIAL
    assert ~line_class(free={"g": 2}) == line_class(free={"g": -2})


def test_is_torsion():
    assert line_class(Fraction(1, 2), Fraction(1, 3)).is_torsion
    assert not line_class(free={"g": 2}).is_torsion
    assert TRIVIAL.is_torsion


def test_order_examples():
    assert line_class(Fraction(1, 2), Fraction(1, 3)).order() == 6
    assert line_class(free={"g": 1}).order() == INFINITE
    assert line_class(Fraction(2, 5)).order() == 5


def test_coordinates_normalize_mod_one():
    assert line_class(Fraction(7, 3)) == line_class(Fraction(1, 3))
    assert line_class(Fraction(-1, 3)) == line_class(Fraction(2, 3))
    assert line_class(Fraction(4, 6)) == line_class(Fraction(2, 3))


def test_constructor_rejects_non_canonical():
    with pytest.raises(ValueError):
        LineBundleClass(Fraction(3, 2))
    with pytest.raises(ValueError):
        LineBundleClass(free=(("g", 0),))
    with pytest.raises(ValueError):
        LineBundleClass(free=(("h", 1), ("g", 1)))
    with pytest.raises(ValueError):
        line_class(free={"bad name": 1})


def test_str_forms():
    assert str(TRIVIAL) == "O"
    assert str(line_class(Fraction(1, 2), Fraction(1, 3))) == "L[1/2,1/3]"
    assert str(line_class(free={"g": 2})) == "Tg^2"
    assert str(line_class(free={"g": -1})) == "~Tg"
    assert str(line_class(Fraction(1, 2), free={"g": 1})) == "L[1/2,0]*Tg"


@given(line_classes(), line_classes())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(line_classes(), line_classes(), line_classes())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(line_classes())
def test_inverse_law(a):
    assert a * a.inverse() == TRIVIAL
    assert a.inverse().inverse() == a


@given(line_classes())
def test_identity_law(a):
    assert TRIVIAL * a == a


@given(line_classes(with_free=False))
def test_order_is_minimal(a):
    m = a.order()
    assert isinstance(m, int)
    assert a ** m == TRIVIAL
    for k in range(1, m):
        assert a ** k != TRIVIAL


@given(line_classes())
def test_power_matches_repeated_mul(a):
    acc = TRIVIAL
    for n in range(5):
        assert a ** n == acc
        acc = acc * a


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False])
def test_inexact_coordinates_are_refused(bad):
    with pytest.raises(TypeError):
        line_class(bad)
    with pytest.raises(TypeError):
        line_class(0, bad)


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1)])
def test_non_int_free_exponents_are_refused(bad):
    with pytest.raises(TypeError):
        line_class(free={"g": bad})
    with pytest.raises(TypeError):
        line_class(free=[("g", bad)])
    with pytest.raises(ValueError):
        LineBundleClass(free=(("g", bad),))


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2)])
def test_non_int_power_is_refused(bad):
    with pytest.raises(TypeError):
        line_class(Fraction(1, 3)) ** bad
