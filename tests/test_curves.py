from fractions import Fraction

import numpy as np
import pytest

from gelfond.arith import vec_add, vec_scale
from gelfond.curves import (GelfondBezierCurve, c1_join, c1_join_head,
                            curve_from_json, curve_to_json,
                            endpoint_derivatives, initial_tangency)
from gelfond.gelfond_basis import basis_values
from gelfond.polynomials import Poly
from oracles import coefficients, hyperplane_crossings


def unit_poly(curve, dim):
    """Exact polynomial of one coordinate in the local parameter."""
    coeffs = coefficients(curve)
    exps = tuple(int(x) for x in curve.exponents)
    out = Poly()
    for k, c in enumerate(coeffs):
        c = c[dim] if isinstance(c, tuple) else c
        out = out + Poly.monomial(c, exps[k])
    return out


def test_evaluate_routes_agree():
    curve = GelfondBezierCurve((0, 3, 4, 6, 9),
                               ((0, 0), (1, 4), (3, 4), (4, 1), (5, 0)))
    for t in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
        assert curve.evaluate(t) == curve.evaluate_de_casteljau(t)
    assert curve(0) == (0, 0) and curve(1) == (5, 0)


def local_grid(curve, count):
    """Float parameters across the interval; float(a) is dropped when it
    rounds below a Fraction endpoint a."""
    a, b = curve.interval
    ts = np.linspace(float(a), float(b), count)
    return np.array([t for t in ts if a <= t <= b])


@pytest.mark.parametrize("exponents, points, interval", [
    # integer exponents, Fraction and int control points
    ((0, 2, 4, 14), ((0, 0), (Fraction(1, 3), 4), (3, Fraction(-7, 5)), (4, 0)),
     (0, 1)),
    # scalar control points
    ((0, 1, 3, 6), (Fraction(1, 7), -2, 5, 0.25), (0, 1)),
    # Fraction intervals: b - a is formed exactly; on [1/3, 1],
    # float(b) - float(a) differs from float(b - a) in the last bit
    ((0, 3, 4, 6, 9), ((0, 0, 1), (1, 4, 0), (3, 4, 2), (4, 1, -1), (5, 0, 0)),
     (Fraction(1, 3), 2)),
    ((0, 2, 3, 7), ((0, 0), (1, 4), (3, 4), (4, 0)), (Fraction(1, 3), 1)),
    # real exponents run evaluate point by point
    ((0, 0.5, 1.7, 3), ((0.0, 0.0), (1.0, 4.0), (3.0, 4.0), (4.0, 0.0)),
     (0, 1)),
])
def test_evaluate_many_matches_evaluate(exponents, points, interval):
    curve = GelfondBezierCurve(exponents, points, interval)
    ts = local_grid(curve, 257)
    a, b = curve.interval
    for t in ts:
        assert curve.local_parameter(t) == (t - a) / (b - a)
    assert curve.evaluate_many(ts) == [curve.evaluate(t) for t in ts]
    assert curve.evaluate_many(list(ts[:9])) == [curve.evaluate(t) for t in ts[:9]]


@pytest.mark.parametrize("interval", [(0, 1), (Fraction(1, 3), 2)])
def test_float_evaluate_matches_basis_values_sum(interval):
    points = ((0, 0), (Fraction(1, 3), 4), (3, Fraction(-7, 5)), (4, 0))
    curve = GelfondBezierCurve((0, 2, 4, 14), points, interval)
    for t in local_grid(curve, 65):
        weights = basis_values(curve.exponents, curve._unit_parameter(t))
        want = vec_scale(weights[0], points[0])
        for w, p in zip(weights[1:], points[1:]):
            want = vec_add(want, vec_scale(w, p))
        assert curve.evaluate(t) == want


def test_evaluate_many_exact_and_invalid_parameters():
    curve = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)), (1, 3))
    ts = [1, Fraction(3, 2), 3]
    assert curve.evaluate_many(ts) == [curve.evaluate(t) for t in ts]
    assert curve.evaluate_many([]) == []
    for bad in ([1.0, 3.5], [float("nan")]):
        with pytest.raises(ValueError):
            curve.evaluate_many(bad)


def test_interval_reparametrization():
    pts = ((0, 0), (1, 4), (3, 4), (4, 0))
    base = GelfondBezierCurve((0, 1, 2, 20), pts)
    moved = GelfondBezierCurve((0, 1, 2, 20), pts, (1, 3))
    for u in (Fraction(0), Fraction(1, 4), Fraction(1)):
        assert moved.evaluate(1 + 2 * u) == base.evaluate(u)
    with pytest.raises(ValueError):
        moved.evaluate(0)


def test_derivative_unit_case_exact():
    # r_1 = 1: hodograph lives in the (n-1)-order reduced space
    curve = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)), (1, 3))
    d = curve.derivative()
    assert tuple(d.exponents) == (0, 2)
    for dim in range(2):
        dp = unit_poly(curve, dim).derivative()
        for t in (1, Fraction(3, 2), 3):
            u = curve.local_parameter(t)
            expect = dp(u) * Fraction(1, 2)    # d/dt of the local map
            got = d.evaluate(t)
            assert got[dim] == expect


def test_derivative_shifted_case_exact():
    # r_1 > 1: order is kept and the leading control point is zero
    curve = GelfondBezierCurve((0, 2, 3), (1, 4, 2))
    d = curve.derivative()
    assert tuple(d.exponents) == (0, 1, 2)
    assert d.points[0] == 0
    dp = unit_poly(curve, 0).derivative()
    for t in (0, Fraction(1, 3), Fraction(7, 8), 1):
        assert d.evaluate(t) == dp(t)
    assert d.evaluate(0) == 0


def test_derivative_needs_unit_or_larger_exponent():
    curve = GelfondBezierCurve((0, 0.5, 2), (0.0, 1.0, 0.0))
    with pytest.raises(NotImplementedError):
        curve.derivative()


def test_endpoint_derivative_identities():
    curve = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)), (1, 3))
    at_a, at_b = endpoint_derivatives(curve)
    d = curve.derivative()
    assert at_a == d.evaluate(1)
    assert at_b == d.evaluate(3)
    # r_1 > 1 pins the start derivative to zero
    curve2 = GelfondBezierCurve((0, 2, 3), (1, 4, 2))
    at_a2, at_b2 = endpoint_derivatives(curve2)
    assert at_a2 == 0
    assert at_b2 == curve2.derivative().evaluate(1)


def test_initial_tangency_constant():
    # P^(r_1)(a) = r_1! prod_{j>=2} r_j/(r_j - r_1) (p_1 - p_0)/(b-a)^{r_1}
    curve = GelfondBezierCurve((0, 2, 3), (1, 4, 2), (0, 2))
    order, value = initial_tangency(curve)
    assert order == 2
    dpp = unit_poly(curve, 0).derivative().derivative()
    assert value == dpp(0) * Fraction(1, 4)
    assert value == 2 * Fraction(3, 3 - 2) * (4 - 1) * Fraction(1, 4)


def test_blossom_diagonal_matches_evaluate():
    curve = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)), (1, 3))
    s = Fraction(1, 4)
    assert curve.blossom((s,) * 2) == curve.evaluate(1 + 2 * s)


def test_json_roundtrip():
    curve = GelfondBezierCurve(
        (0, Fraction(3, 2), 3), ((0, 0), (Fraction(1, 2), 2), (3, -1)),
        (0, Fraction(5, 2)))
    back = curve_from_json(curve_to_json(curve))
    assert back.exponents == curve.exponents
    assert back.points == curve.points
    assert back.interval == curve.interval


def test_c1_join_head_frozen():
    left = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)))
    q0, q1 = c1_join_head(left, (0, 1, 3), (1, 2))
    assert q0 == (3, 0)
    assert q1 == (7, -4)


def test_c1_join_head_from_a_left_space_below_one():
    # P'(b) = r_n (p_n - p_{n-1}) / (b-a) holds for r_1 < 1 too, although
    # that left curve has no hodograph here
    left = GelfondBezierCurve((0, 0.5, 2), ((0, 0), (1, 2), (3, 0)))
    assert c1_join_head(left, (0, 1, 3), (1, 2)) == \
        ((3, 0), (Fraction(17, 3), Fraction(-8, 3)))
    with pytest.raises(NotImplementedError):
        endpoint_derivatives(left)


def test_c1_join_continuity_exact():
    left = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)))
    right = c1_join(left, (0, 1, 2, 4), (1, Fraction(5, 2)),
                    ((4, 1), (5, 0)))
    b = 1
    assert right.evaluate(b) == left.evaluate(b)
    assert right.derivative().evaluate(b) == left.derivative().evaluate(b)


def test_c1_join_validation():
    left = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)))
    with pytest.raises(NotImplementedError):
        c1_join_head(left, (0, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        c1_join_head(left, (0, 1, 3), (2, 3))
    with pytest.raises(ValueError):
        c1_join(left, (0, 1, 3), (1, 2), ())


def test_variation_diminishing_spot():
    curve = GelfondBezierCurve((0, 3, 4, 6, 9),
                               ((0, 0), (1, 4), (3, 4), (4, 1), (5, 0)))
    for normal, offset in [((0, 1), 1.0), ((0, 1), 3.9), ((1, 0), 2.5),
                           ((1, -1), 0.0)]:
        on_curve, on_polygon = hyperplane_crossings(curve, normal, offset)
        assert on_curve <= on_polygon


@pytest.mark.parametrize("interval", [(0.3, 0.9), (Fraction(1, 3), 2)])
@pytest.mark.parametrize("samples", [3, 7, 401])
def test_crossings_on_shifted_interval(interval, samples):
    # float endpoints: the rounded last grid step overshoots 0.9
    exps = (0, 3, 4, 6, 9)
    points = ((0, 0), (1, 4), (3, 4), (4, 1), (5, 0))
    unit = GelfondBezierCurve(exps, points)
    shifted = GelfondBezierCurve(exps, points, interval)
    for normal, offset in [((0, 1), 1.0), ((0, 1), 3.9), ((1, 0), 2.5),
                           ((1, -1), 0.0)]:
        assert (hyperplane_crossings(shifted, normal, offset, samples)
                == hyperplane_crossings(unit, normal, offset, samples))


def test_curve_validation():
    with pytest.raises(ValueError):
        GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        GelfondBezierCurve((0, 1), ((0, 0), 1))
    with pytest.raises(ValueError):
        GelfondBezierCurve((0, 1), ((0, 0), (1, 1)), (2, 2))
