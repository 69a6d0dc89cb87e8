from fractions import Fraction

import pytest

from gelfond.arith import (SingularityError, det, exact_div,
                           falling_factorial, format_number, lerp,
                           parse_number)
from gelfond.polynomials import Poly


def test_poly_arithmetic():
    p = Poly([1, 2])               # 1 + 2t
    q = Poly.monomial(3, 2)        # 3t^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p - p) == Poly()
    assert (p ** 3).coeffs == (1, 6, 12, 8)
    assert 2 * p == Poly([2, 4])
    assert p.degree == 1 and Poly().degree == -1


def test_poly_normalizes_trailing_zeros():
    assert Poly([1, 0, 0]) == Poly([1])
    assert (Poly([0, 1]) - Poly([0, 1])).coeffs == ()


def test_poly_evaluation_exactness():
    p = Poly([Fraction(1, 2), 0, 1])
    assert p(Fraction(1, 3)) == Fraction(11, 18)
    assert isinstance(p(0.5), float)
    assert p.derivative().coeffs == (0, 2)


def test_float_evaluation_is_horner_over_float_coefficients():
    p = Poly([Fraction(1, 3), Fraction(-7, 5), 0, Fraction(22, 7), 10 ** 20])
    for t in (0.0, 0.1, 1 / 3, 0.9999999, 1.0):
        want = 0.0
        for c in reversed(p.coeffs):
            want = want * t + float(c)
        assert p(t) == want and p(t) == want  # second call: cached floats
    assert Poly()(0.5) == 0.0 and Poly()(Fraction(1, 2)) == 0


def test_exact_div_keeps_fractions():
    v = exact_div(1, 3)
    assert v == Fraction(1, 3) and isinstance(v, Fraction)
    assert isinstance(exact_div(1.0, 3), float)
    with pytest.raises(SingularityError):
        exact_div(1, 0)


def test_det_exact_and_float():
    assert det([[1, 2], [3, 4]], True) == -2
    assert det([], True) == 1
    rows = [[Fraction(1, 2), 1], [1, 3]]
    assert det(rows, True) == Fraction(1, 2)
    assert det([[1.0, 2.0], [2.0, 4.0]], False) == pytest.approx(0.0)
    assert det([[0, 1], [1, 0]], True) == -1   # needs a row swap
    # exact results come back as ints where integral, on every exit
    assert type(det([[1, 2], [3, 4]], True)) is int
    assert type(det([[0, 1], [0, 2]], True)) is int
    assert type(det([[Fraction(1, 2), 0], [0, 4]], True)) is int
    assert type(det([[0.0, 1.0], [0.0, 2.0]], False)) is float


def test_small_helpers():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(2, 5) == 0
    # the weight multiplies the second anchor
    assert lerp(0, 10, Fraction(1, 4)) == Fraction(5, 2)
    assert lerp((0, 0), (2, 4), Fraction(1, 2)) == (1, 2)
    assert parse_number("2/3") == Fraction(2, 3)
    assert parse_number("7") == 7
    assert parse_number("0.5") == 0.5
    assert parse_number("1e308") == 1e308
    for bad in ("2/0", "nan", "-inf", "1e400", float("nan"), float("inf")):
        with pytest.raises(ValueError):
            parse_number(bad)
    assert format_number(Fraction(2, 3)) == "2/3"
    assert format_number(Fraction(4, 2)) == 2
