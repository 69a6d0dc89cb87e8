import importlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate, permutations
from math import comb
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from oracles import (blossom_value, coefficients_from_control_points,
                     control_points_from_coefficients, monomial_blossom)
from gelfond import blossom
from gelfond.arith import SingularityError, lerp
from gelfond.blossom import (blossom_pyramid, de_casteljau,
                             monomial_control_points, pseudo_affinity)
from gelfond.curves import GelfondBezierCurve
from gelfond.dimelev import polygon_diameter
from gelfond.gelfond_basis import (basis_polynomial, basis_table, basis_values,
                                   chebyshev_basis, elementary_exponents,
                                   gelfond_basis_schur)
from gelfond.partitions import partition_from_exponents
from gelfond.polynomials import Poly
from gelfond.schur import schur, schur_window

EXPS = (0, 3, 4, 6, 9)
REAL7 = (0, 0.5, 1.8, 4.0, 4.07, 4.97, 5.32, 6.92)


def test_monomial_blossom_diagonal():
    t = Fraction(2, 5)
    n = len(EXPS) - 1
    for k in range(n + 1):
        assert monomial_blossom(EXPS, k, (t,) * n) == t ** EXPS[k]


def test_monomial_blossom_truncation():
    # k-th monomial blossom dies once fewer than k arguments are nonzero
    n = len(EXPS) - 1
    assert monomial_blossom(EXPS, 3, (1, 1), zeros=n - 2) == 0
    assert monomial_blossom(EXPS, 0, (), zeros=n) == 1


def test_monomial_control_points_match_blossom():
    n = len(EXPS) - 1
    for k in range(n + 1):
        pts = monomial_control_points(EXPS, k)
        for j in range(n + 1):
            assert pts[j] == monomial_blossom(EXPS, k, (1,) * j, zeros=n - j)


def test_monomial_reconstruction_polynomial_identity():
    n = len(EXPS) - 1
    for k in range(n + 1):
        pts = monomial_control_points(EXPS, k)
        total = sum((pts[j] * basis_polynomial(EXPS, j)
                     for j in range(n + 1)), Poly())
        assert total == Poly.monomial(1, EXPS[k])


def test_polynomial_case_is_binomial_ratio():
    exps = (0, 1, 2, 3)
    n = 3
    for k in range(n + 1):
        pts = monomial_control_points(exps, k)
        assert pts == tuple(
            Fraction(comb(j, k), comb(n, k)) for j in range(n + 1))


def test_coefficient_roundtrip():
    coeffs = ((1, -2), (0, 3), (Fraction(1, 2), 1), (2, 2), (-1, 0))
    pts = control_points_from_coefficients(coeffs, EXPS)
    back = coefficients_from_control_points(pts, EXPS)
    assert back == coeffs
    t = Fraction(1, 3)
    direct = tuple(
        coeffs[0][d] + sum(coeffs[k][d] * t ** EXPS[k] for k in range(1, 5))
        for d in range(2))
    assert blossom_value(coeffs, EXPS, (t,) * 4) == direct


def test_de_casteljau_equals_basis_sum_exact():
    pts = ((0, 0), (1, 4), (3, 4), (4, 1), (5, 0))
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
        weights = basis_values(EXPS, t)
        direct = tuple(
            sum(w * p[d] for w, p in zip(weights, pts)) for d in range(2))
        value, levels = de_casteljau(pts, EXPS, t)
        assert value == direct
        assert len(levels) == 5 and levels[0] == pts
        assert len(levels[-1]) == 1


def test_pyramid_nodes_are_blossoms():
    pts = ((0, 0), (1, 4), (3, 4), (4, 1), (5, 0))
    n = 4
    t = Fraction(1, 3)
    coeffs = coefficients_from_control_points(pts, EXPS)
    _, levels = de_casteljau(pts, EXPS, t)
    for r in range(n + 1):
        for i, node in enumerate(levels[r]):
            args = (1,) * i + (t,) * r
            assert node == blossom_value(coeffs, EXPS, args,
                                         zeros=n - r - i)


@pytest.mark.parametrize("exps, t", [
    (EXPS, Fraction(2, 7)), (EXPS, 0.61), ((0, 1, 2), 1), (EXPS, 0.0),
    ((0, 0.7, 1.9, 2.5), 0.37), ((0, 0.7, 1.9, 2.5), Fraction(1, 3)),
    ((0, 2.5, 2.5000001, 6), 0.9)])
def test_blossom_diagonal_is_the_de_casteljau_pyramid(exps, t):
    rng = random.Random(len(exps))
    pts = tuple((rng.randint(-5, 5), rng.uniform(-1, 1)) for _ in exps)
    curve = GelfondBezierCurve(exps, pts)
    n = len(exps) - 1
    assert curve.blossom((t,) * n) == curve.evaluate_de_casteljau(t)
    assert blossom_pyramid(pts, exps, (t,) * n) == de_casteljau(pts, exps, t)


@pytest.mark.parametrize("exps", [EXPS, (0, 2, 4, 14), REAL7])
def test_blossom_at_zeros_and_ones_is_a_control_point(exps):
    rng = random.Random(len(exps))
    exact = all(isinstance(x, int) for x in exps)
    pts = tuple((Fraction(rng.randint(-9, 9), 7), rng.randint(-5, 5)) if exact
                else (rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in exps)
    curve = GelfondBezierCurve(exps, pts)
    n = len(exps) - 1
    for k in range(n + 1):
        for args in set(permutations((0,) * (n - k) + (1,) * k)):
            assert curve.blossom(args) == pts[k], args
            if not exact:
                assert curve.blossom([float(u) for u in args]) == pts[k], args


def test_blossom_is_the_monomial_route_on_integer_spaces():
    # exact args, zeros and ones among them, against the blossom through
    # monomial coefficients and Muntz-tableau Schur quotients
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 6)
        r = (0,) + tuple(sorted(rng.sample(range(1, 3 * n + 3), n)))
        pts = tuple((rng.randint(-5, 5), Fraction(rng.randint(-9, 9), 4))
                    for _ in r)
        args = tuple(rng.choice([0, 1, Fraction(rng.randint(1, 11), 12)])
                     for _ in range(n))
        coeffs = coefficients_from_control_points(pts, r)
        want = blossom_value(coeffs, r, [u for u in args if u],
                             zeros=args.count(0))
        assert GelfondBezierCurve(r, pts).blossom(args) == want, (r, args)


# At distinct args the pyramid's Schur values take the float quotient and
# its Decimal fallback.  Bounds: 1e-13 of the polygon diameter to n = 10,
# 2e-12 at n = 12.  Over 40 spaces per order (gaps 0.3-2.5, args in
# [0.05, 0.95]) the worst errors were 4.8e-14 (n = 4), 1.7e-14 (7),
# 1.9e-14 (10) and 5.9e-15 (12).
@pytest.mark.parametrize("n, spaces, bound", [
    (4, 6, 1e-13), (7, 4, 1e-13), (10, 3, 1e-13), (12, 2, 2e-12)])
def test_blossom_on_real_spaces_matches_mpmath(n, spaces, bound):
    rng = random.Random(n)
    for _ in range(spaces):
        r = (0, *accumulate(rng.uniform(0.3, 2.5) for _ in range(n)))
        pts = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in r)
        args = tuple(rng.uniform(0.05, 0.95) for _ in range(n))
        got = GelfondBezierCurve(r, pts).blossom(args)
        ref = oracles.mp_blossom(pts, r, args)
        assert max(abs(a - b) for a, b in zip(got, ref)) \
            <= bound * polygon_diameter(pts), (r, args)


@pytest.mark.parametrize("args, named", [
    ((Fraction(1, 2),) * 3, "got 3"), ((0.5,) * 5, "got 5"),
    ((0.5, 1.5, 0.2, 0.1), "[1.5]"), ((-0.25, 0, 1, 1), "[-0.25]"),
    ((0.5, math.nan, 0.2, 0.1), "[nan]")])
def test_blossom_refuses_args_naming_them(args, named):
    curve = GelfondBezierCurve(EXPS, (0, 1, 3, 2, 5))
    with pytest.raises(ValueError) as error:
        curve.blossom(args)
    assert named in str(error.value)


def test_printed_pyramid_weights():
    # elementary family l=1, n=3: level-1 weights are t^2, t(1+t)/2,
    # t(2+t)/3; at t=1/2 the full pyramid is (1/4, 3/8, 5/12), (1/3, 2/5),
    # (3/8)
    exps = elementary_exponents(1, 3)
    assert tuple(exps) == (0, 2, 3, 4)
    t = Fraction(1, 2)
    n = 3
    got = [
        tuple(pseudo_affinity(exps, n - level - i, (1,) * i + (t,) * (level - 1), t)
              for i in range(n - level + 1))
        for level in (1, 2, 3)]
    assert got[0] == (t * t, t * (1 + t) / 2, t * (2 + t) / 3)
    assert got == [(Fraction(1, 4), Fraction(3, 8), Fraction(5, 12)),
                   (Fraction(1, 3), Fraction(2, 5)),
                   (Fraction(3, 8),)]


def test_pseudo_affinity_endpoints():
    n = len(EXPS) - 1
    assert pseudo_affinity(EXPS, n - 1, (), 0) == 0
    assert pseudo_affinity(EXPS, n - 1, (), 1) == 1
    assert pseudo_affinity(EXPS, 0, (1,) * (n - 1), 1) == 1


def test_pseudo_affinity_in_unit_interval_random():
    rng = random.Random(11)
    for _ in range(25):
        t = Fraction(rng.randint(1, 99), 100)
        for level in range(1, 5):
            for i in range(4 - level + 1):
                args = (1,) * i + (t,) * (level - 1)
                alpha = pseudo_affinity(EXPS, 4 - level - i, args, t)
                assert 0 <= alpha <= 1


def test_argument_validation():
    with pytest.raises(ValueError):
        monomial_blossom(EXPS, 1, (1, 1))          # wrong arity
    with pytest.raises(ValueError):
        de_casteljau(((0, 0), (1, 1)), EXPS, Fraction(1, 2))
    with pytest.raises(ValueError):
        pseudo_affinity(EXPS, 0, (1, 1, 1), Fraction(3, 2))


def test_pseudo_affinity_out_of_range_raises(monkeypatch):
    monkeypatch.setattr(blossom, "_alpha", lambda *args: 1.5)
    with pytest.raises(SingularityError, match="outside"):
        de_casteljau((0, 1, 2, 3), EXPS[:4], Fraction(1, 2))


def test_pseudo_affinity_check_survives_optimize_flag():
    script = (
        "from gelfond import blossom\n"
        "from gelfond.arith import SingularityError\n"
        "assert False, 'asserts are live'\n"
    )
    check = (
        "from gelfond import blossom\n"
        "from gelfond.arith import SingularityError\n"
        "blossom._alpha = lambda *args: 1.5\n"
        "try:\n"
        "    blossom.de_casteljau((0, 1, 2), (0, 1, 2), 0.5)\n"
        "except SingularityError:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for code, expect in ((script, ""), (check, "raised")):
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expect


def test_weight_that_is_not_finite_names_t():
    # a float Schur value that left the float range makes the weight inf
    # or nan, which no range check should report as a number; the refusal
    # is an `if`, so it holds under -O too
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(SingularityError, match="not finite at t=1e-300"):
            blossom._alpha(1e-300, value, 1.0, 1.0, 1.0)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-m", "gelfond.cli", "decasteljau",
         "--exponents", "0,0.7,1.9,2.5", "--points", "0,0;1,2;3,0;4,4",
         "--t", "1e-300"], env=env, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 3 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "t=1e-300" in lines[0]


def _pyramid_node_by_node(points, exps, t):
    """The de Casteljau pyramid with one pseudo_affinity call per node and
    no Schur values shared between nodes."""
    n = len(exps) - 1
    levels = [tuple(points)]
    for level in range(1, n + 1):
        prev = levels[-1]
        row = []
        for i in range(n - level + 1):
            args = (1,) * i + (t,) * (level - 1)
            alpha = pseudo_affinity(exps, n - level - i, args, t)
            row.append(lerp(prev[i], prev[i + 1], alpha))
        levels.append(tuple(row))
    return levels


@pytest.mark.parametrize("exps, t", [
    (REAL7, 0.37), (REAL7, 0.9), (REAL7, Fraction(1, 3)), (REAL7, 1.0),
    ((0, 1.2, 1.55, 3.65), 0.15),
    (EXPS, Fraction(2, 7)), (EXPS, 0.61), ((0, 1, 2), 1)])
def test_shared_schur_values_leave_the_pyramid_unchanged(exps, t):
    # at an exact t and at the ends the pyramid is the same bits; at a
    # float t inside (0, 1) its two-point values come from blocks of one
    # matrix pair of the space's ladder, and those of pseudo_affinity
    # from the pair of each shape's own ladder, which round differently
    rng = random.Random(len(exps))
    pts = tuple((rng.uniform(-1, 1), rng.randint(-5, 5)) for _ in exps)
    _, levels = de_casteljau(pts, exps, t)
    node_by_node = _pyramid_node_by_node(pts, exps, t)
    if 0 < t < 1 and not (isinstance(t, Fraction)
                          and all(isinstance(x, int) for x in exps)):
        diameter = max(math.dist(p, q) for p in pts for q in pts)
        assert len(levels) == len(node_by_node)
        for level, other in zip(levels, node_by_node):
            assert len(level) == len(other)
            for p, q in zip(level, other):
                assert math.dist(p, q) <= 1e-14 * diameter
    else:
        assert levels == node_by_node


@pytest.mark.parametrize("exps", [
    REAL7, (0, 0.7, 1.9, 3.2, 4.05), (0, Fraction(1, 2), Fraction(5, 2)),
    (0, 2.5, 2.5000001, 6), (0, Fraction(1, 2), 1),
    (0, 0.5, 1.5, 2)])
def test_exact_and_float_parameters_give_the_same_real_pyramid(exps):
    rng = random.Random(len(exps))
    pts = tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in exps)
    for t in (Fraction(1, 3), Fraction(37, 100), Fraction(1, 2),
              Fraction(9, 10)):
        assert (de_casteljau(pts, exps, t)[1]
                == de_casteljau(pts, exps, float(t))[1]), t


@pytest.mark.parametrize("exps", [(0, Fraction(1, 2), 1), (0, 0.5, 1),
                                  (0, 0.5, 1.5, 2)])
def test_pyramid_of_a_space_with_a_negative_integral_part(exps):
    # lambda_1 = r_n - n = -1: the shape (-1,) is integral but is no
    # integer partition
    assert partition_from_exponents(exps).parts[0] == -1
    pts = ((0, 0), (1, 2), (3, 0), (4, 3))[:len(exps)]
    for t in (Fraction(1, 2), 0.5, Fraction(1, 7), 0.93):
        value, _ = de_casteljau(pts, exps, t)
        direct = [sum(w * p[d] for w, p in zip(basis_values(exps, t), pts))
                  for d in range(2)]
        assert max(abs(a - b) for a, b in zip(value, direct)) < 1e-14


def test_pyramid_computes_each_schur_value_once(monkeypatch):
    calls = []

    def counted_window(lam, w, m, b, t):
        calls.append((lam[w:w + m + b], m, b))
        return schur_window(lam, w, m, b, t)

    def counted(lam, points):
        calls.append((tuple(lam), tuple(sorted(points))))
        return schur(lam, points)

    monkeypatch.setattr(blossom, "schur_window", counted_window)
    monkeypatch.setattr(blossom, "schur", counted)
    n = len(REAL7) - 1
    de_casteljau(tuple(range(n + 1)), REAL7, 0.37)
    assert calls and len(calls) == len(set(calls))
    assert len(calls) <= n * (n + 3) + n
    # node by node, every pseudo-affinity evaluates its own four
    calls.clear()
    _pyramid_node_by_node(tuple(range(n + 1)), REAL7, 0.37)
    assert len(calls) == 4 * n * (n + 1) // 2


def _mp_basis_sum(points, exps, t):
    """sum_k P_k H_k(t) at 80 digits, H_k from the partial-fraction form
    (-1)^{n-k} r_{k+1}..r_n [r_k..r_n] t^x of Gelfond's divided
    difference."""
    n = len(exps) - 1
    with mpmath.workdps(80):
        r = [mpmath.mpf(x) for x in exps]
        h = [mpmath.fprod(-r[j] for j in range(k + 1, n + 1))
             * mpmath.fsum(mpmath.mpf(t) ** r[i]
                           / mpmath.fprod(r[i] - r[j] for j in range(k, n + 1)
                                          if j != i)
                           for i in range(k, n + 1))
             for k in range(n + 1)]
        return [float(mpmath.fsum(hk * p[d] for hk, p in zip(h, points)))
                for d in range(len(points[0]))]


# Every two-point Schur value of these pyramids, which once took the
# Decimal fallback, is within 1e-14 of the 60-digit bialternant at the
# code's own ladder, and the apex within 1e-14 times the polygon's
# diameter of the 80-digit basis sum.  The values of one pyramid come from
# blocks of one matrix exponential, so their errors largely cancel in
# alpha.
@pytest.mark.parametrize("exps, t", [
    ((0, 2.5, 2.5000001, 6), 0.3),
    ((0, 2.5, 2.5000001, 6), 0.9),
    ((0, 0.6, 1.95, 2.0, 4.3, 5.1), 0.9)])
def test_pyramid_two_point_values_match_mpmath(monkeypatch, exps, t):
    schur_module = importlib.import_module("gelfond.schur")
    calls = []

    def recorded(lam, w, m, b, t):
        value = schur_window(lam, w, m, b, t)
        calls.append((lam[w:w + m + b], m, value))
        return value

    monkeypatch.setattr(blossom, "schur_window", recorded)
    rng = random.Random(len(exps))
    pts = tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in exps)
    apex, _ = de_casteljau(pts, exps, t)
    two_point = [c for c in calls if 0 < c[1] < len(c[0])]
    assert two_point
    for lam, m, value in two_point:
        ref = oracles.mp_two_point(schur_module._ladder(len(lam), *lam)[0],
                                   1.0, m, t)
        assert abs(value - ref) <= 1e-14 * abs(ref), (lam, m)
    diameter = max(math.dist(p, q) for p in pts for q in pts)
    ref = _mp_basis_sum(pts, exps, t)
    assert max(abs(a - b) for a, b in zip(apex, ref)) <= 1e-14 * diameter


@pytest.mark.parametrize("exps", [REAL7, (0, 0.7, 1.9, 2.5), EXPS,
                                  (0, 2.5, 2.5000001, 6)])
def test_float_pyramid_forms_one_matrix_exponential(exps, monkeypatch):
    # every two-point value of a pyramid at a float t is a minor of a block
    # of the scaled Opitz pair of the space's ladder, and the two-point
    # numerators of the Schur basis route at the same t reuse that pair
    schur_module = importlib.import_module("gelfond.schur")
    calls = []
    kernel = schur_module.opitz_matrix

    def counted(stack, ts):
        calls.append(len(stack[0][0]))
        return kernel(stack, ts)

    monkeypatch.setattr(schur_module, "opitz_matrix", counted)
    schur_module._opitz_rows.cache_clear()
    pts = tuple((k, k * k) for k in range(len(exps)))
    de_casteljau(pts, exps, 0.37)
    assert calls == [len(exps)]
    for k in range(len(exps)):
        gelfond_basis_schur(exps, k, 0.37)
    assert calls == [len(exps)]


@st.composite
def large_gap_pyramids(draw):
    """A space of order 2 to 8 whose gaps each come from 1e-7 to 1e-1
    (log-uniform), 0.3 to 2.5 or 5 to 60, integer control points and t
    from 1e-3 to 0.5."""
    n = draw(st.integers(2, 8))
    gap = (st.floats(-7, -1).map(lambda k: 10 ** k) | st.floats(0.3, 2.5)
           | st.floats(5, 60))
    exps = (0, *accumulate(draw(st.lists(gap, min_size=n, max_size=n))))
    coordinate = st.integers(-9, 9)
    pts = tuple(draw(st.tuples(coordinate, coordinate)) for _ in exps)
    return exps, pts, draw(st.floats(1e-3, 0.5))


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None)
@given(case=large_gap_pyramids())
def test_large_gap_pyramids_answer_or_name_t(case):
    # the weights are ratios of Schur values of one shape each; a product
    # of two values from different shapes can be subnormal where every
    # value is normal, and then lost digits unseen
    exps, pts, t = case
    try:
        apex, _ = de_casteljau(pts, exps, t)
    except SingularityError as error:
        assert f"t={t}" in str(error), (case, error)
        return
    diameter = max(math.dist(p, q) for p in pts for q in pts)
    ref = _mp_basis_sum(pts, exps, t)
    assert max(abs(a - b) for a, b in zip(apex, ref)) <= 1e-13 * diameter, case


@pytest.mark.parametrize("exps", [EXPS, (0, 2, 4, 14), (0, 3, 600),
                                  (0, 7, 19, 21, 44, 45, 57), REAL7])
def test_pyramid_at_the_endpoints_cuts_nothing(exps):
    # every weight is 0 at t = 0 and 1 at t = 1, so level L keeps the
    # first or the last n + 1 - L control points; at t = 1.0 on an integer
    # space the float bialternant of an integral shape at 1, .., 1 is not
    # exact, so the weight must not be a ratio of Schur values
    rng = random.Random(len(exps))
    pts = tuple((rng.uniform(-1, 1), rng.randint(-5, 5)) for _ in exps)
    n = len(exps) - 1
    for t in (0, 0.0, Fraction(0)):
        assert de_casteljau(pts, exps, t)[1] == [pts[:n + 1 - L]
                                                 for L in range(n + 1)]
    for t in (1, 1.0, Fraction(1)):
        assert de_casteljau(pts, exps, t)[1] == [pts[L:]
                                                 for L in range(n + 1)]


@pytest.mark.parametrize("exps", [EXPS, (0, 3, 10 ** 9), REAL7])
def test_pyramid_at_the_endpoints_forms_no_schur_value(exps, monkeypatch):
    # every weight is t at t = 0 and t = 1, whatever the exponents
    def refuse(*args):
        raise AssertionError("formed a Schur value at an end of [0, 1]")
    monkeypatch.setattr(blossom, "schur", refuse)
    pts = tuple((k, 2 * k + 1) for k in range(len(exps)))
    for t in (0, 0.0, Fraction(0), 1, 1.0, Fraction(1)):
        levels = de_casteljau(pts, exps, t)[1]
        assert levels[-1] == (pts[-1] if t else pts[0],), t


def test_pyramid_edges_are_the_two_subdivisions():
    # Split at t0, the pyramid's left edge (k, 0) holds the control points
    # of s -> P(t0 s): dilation maps the Muntz space onto itself.  Its
    # right edge (n - k, k) holds the control points of P on [t0, 1] in
    # the Chebyshev-Bernstein basis of the same space.  Both hold exactly
    # on integer spaces at an exact t0.
    rng = random.Random(6)
    for _ in range(24):
        n = rng.randint(2, 6)
        r = (0,) + tuple(sorted(rng.sample(range(1, 3 * n + 3), n)))
        pts = tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in r)
        t0 = Fraction(rng.randint(1, 9), 10)
        _, levels = de_casteljau(pts, r, t0)
        left = [levels[k][0] for k in range(n + 1)]
        right = [levels[n - k][k] for k in range(n + 1)]
        curve = GelfondBezierCurve(r, pts)
        head = GelfondBezierCurve(r, left)
        lam = partition_from_exponents(r)
        for s in (Fraction(1, 3), Fraction(5, 7), Fraction(1)):
            assert head.evaluate(s) == curve.evaluate(t0 * s), (r, t0, s)
            t = t0 + (1 - t0) * s
            weights = [chebyshev_basis(lam, t0, 1, k, t) for k in range(n + 1)]
            tail = tuple(sum(w * q[d] for w, q in zip(weights, right))
                         for d in range(2))
            assert tail == curve.evaluate(t), (r, t0, t)


def test_pyramid_left_edge_on_real_spaces_matches_mpmath():
    # The left edge against the 80-digit basis sum.  Bound: 1e-12 times
    # the polygon diameter.  At this seed the worst deviation is 4.5e-13
    # times it, the largest over seeds 0 to 7 (30 spaces each); the
    # others stayed below 1.1e-13.
    rng = random.Random(6)
    for _ in range(12):
        n = rng.randint(2, 6)
        r = [0.0]
        for _ in range(n):
            r.append(round(r[-1] + rng.uniform(0.2, 2.5), 4))
        r = tuple(r)
        pts = tuple((rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in r)
        t0 = rng.uniform(0.05, 0.95)
        _, levels = de_casteljau(pts, r, t0)
        left = [levels[k][0] for k in range(n + 1)]
        diameter = polygon_diameter(pts)
        for s in (0.2, 0.5, 0.9):
            got = _mp_basis_sum(left, r, s)
            ref = _mp_basis_sum(pts, r, t0 * s)
            assert max(abs(a - b) for a, b in zip(got, ref)) \
                <= 1e-12 * diameter, (r, t0, s)


def test_rational_exponents_are_integer_spaces():
    # t = s^q maps span{t^r} onto span{s^{q r}}, keeping the vanishing
    # orders, the partition of unity and the blossoms, so H^r_k(t) =
    # H^{qr}_k(t^{1/q}) and the pyramid of r at t is that of q r at
    # t^{1/q}.  The two sides run different routes (Opitz kernel and
    # real-shape pyramid against Horner and integer-shape pyramid).
    # Bounds: 3e-13 on basis values and 3e-12 times the polygon diameter
    # on apex coordinates.  At this seed the worst deviations are 1.2e-14
    # and 1.2e-13 times the diameter; over seeds 0 to 12 they were 8.4e-14
    # and 9.8e-13 times it.
    ts = np.array([0.0, 0.01, 0.2, 0.5, 0.77, 0.99, 1.0])
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 4)
        q = rng.randint(2, 5)
        r = (0,) + tuple(Fraction(m, q) for m in sorted(rng.sample(range(1, 8 * q), n)))
        qr = tuple(int(q * x) for x in r)
        deviation = np.abs(basis_table(r, ts) - basis_table(qr, ts ** (1 / q)))
        assert deviation.max() <= 3e-13, (r, deviation.max())
        pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n + 1)]
        diameter = polygon_diameter(pts)
        for t in ts[1:-1].tolist():
            apex, _ = de_casteljau(pts, r, t)
            integer_apex, _ = de_casteljau(pts, qr, t ** (1 / q))
            assert max(abs(a - b) for a, b in zip(apex, integer_apex)) \
                <= 3e-12 * diameter, (r, t)
