import decimal
import importlib
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from gelfond.arith import SingularityError, det, simplify
from gelfond.partitions import IntegerPartition, RealPartition, dimension
from gelfond.schur import schur, schur_bialternant
from oracles import (branch_last_variable, branch_last_variable_skew,
                     complete_homogeneous, elementary, hook_schur,
                     schur_giambelli, schur_jacobi_trudi,
                     schur_nagelsbach_kostka, schur_tableaux, skew_schur,
                     skew_schur_tableaux, split_partition, splitting_limit)

schur_module = importlib.import_module("gelfond.schur")

ROUTES = (schur_jacobi_trudi, schur_nagelsbach_kostka, schur_giambelli,
          schur_bialternant, schur_tableaux)


@st.composite
def partitions_and_points(draw):
    length = draw(st.integers(0, 4))
    parts = sorted(draw(st.lists(st.integers(1, 4), min_size=length,
                                 max_size=length)), reverse=True)
    while sum(parts) > 8:
        parts.pop()
    m = draw(st.integers(max(1, len(parts)), 5))
    # rational positive points, repeats allowed on purpose
    pool = [Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
            for _ in range(m)]
    return IntegerPartition(parts), tuple(pool)


def test_h_and_e_conventions():
    pts = (Fraction(1, 2), 2, 3)
    assert complete_homogeneous(0, pts) == 1
    assert elementary(0, pts) == 1
    assert complete_homogeneous(-1, pts) == 0
    assert elementary(-2, pts) == 0
    assert complete_homogeneous(1, pts) == Fraction(11, 2)
    assert elementary(1, pts) == Fraction(11, 2)
    assert elementary(4, pts) == 0          # more boxes than variables
    assert elementary(3, pts) == 3


def test_points_must_be_positive():
    for route in ROUTES:
        with pytest.raises(ValueError):
            route((2, 1), (1, 0))
        with pytest.raises(ValueError):
            route((2, 1), (1, -2))


def test_routes_agree_fixed():
    cases = [
        ((), (2, 3)),
        ((1,), (Fraction(1, 2),)),
        ((2, 1), (1, 2, 3)),
        ((3, 1, 1), (Fraction(1, 2), Fraction(1, 2), 2)),
        ((2, 2, 2), (1, 1, 1, 1)),
        ((4, 2, 1), (2, 2, 3, Fraction(5, 3))),
    ]
    for parts, pts in cases:
        vals = [route(parts, pts) for route in ROUTES]
        assert all(v == vals[0] for v in vals), (parts, pts, vals)


@settings(deadline=None, max_examples=60)
@given(partitions_and_points())
def test_routes_agree_random(case):
    lam, pts = case
    vals = [route(lam, pts) for route in ROUTES]
    assert all(v == vals[0] for v in vals), (lam, pts, vals)


def test_confluent_bialternant_exact():
    # triple and double points force derivative rows in the alternant
    for parts, pts in [
        ((2, 1), (2, 2, 2)),
        ((3, 2), (Fraction(1, 2), Fraction(1, 2), 3)),
        ((2, 2, 1), (3, 3, 2, 2)),
    ]:
        assert schur_bialternant(parts, pts) == schur_jacobi_trudi(parts, pts)


def test_confluent_matches_perturbed_float():
    # a double point should match a symmetric perturbation up to the
    # Taylor error eps^2; eps much smaller makes the perturbed alternant
    # itself ill-conditioned (denominator 2 eps), so keep eps moderate
    parts = (2, 1)
    eps = 1e-4
    exact = float(schur_bialternant(parts, (2.0, 2.0, 0.5)))
    near = schur_bialternant(parts, (2.0 + eps, 2.0 - eps, 0.5))
    assert abs(exact - near) < 1e-6 * max(1.0, abs(exact))


def test_real_partition_bialternant():
    # one part: S_(x)(u) = u^x; two points, shape (x, 0): h_x analogue
    x = 2.5
    u = 1.7
    assert schur_bialternant((x,), (u,)) == pytest.approx(u ** x)
    u1, u2 = 1.3, 0.6
    expect = (u1 ** (x + 1) - u2 ** (x + 1)) / (u1 - u2)
    assert schur_bialternant((x, 0), (u1, u2)) == pytest.approx(expect)
    assert schur(RealPartition((x, 0)), (u1, u2)) == pytest.approx(expect)


def test_negative_integral_shape_takes_the_bialternant():
    # S_(-1)(u) = 1/u; Jacobi-Trudi has no meaning for a negative part
    for u in (1, Fraction(1, 3), 4):
        assert schur((-1,), (u,)) == schur_bialternant((-1,), (u,)) == \
            Fraction(1) / u
    assert schur((-1, -0.5), (1, Fraction(1, 2))) == \
        schur((-1, -0.5), (1.0, 0.5))


def test_confluent_rows_skip_zero_coefficients():
    # the third row's last column has coefficient 0 * (0 - 1); its power
    # (1e-200)^(-2) would overflow
    u = 1e-200
    parts = (0.5, 0.2, 0)
    value = schur_bialternant(parts, (u,) * 3)
    assert value == pytest.approx(dimension(parts, 3) * u ** 0.7,
                                  rel=1e-12)


def _one_valued_cases():
    """(parts, v): real shapes of 1 to 8 parts whose ladders mix unit-size
    gaps with gaps down to 1e-7, at v from 1e-130 to 1 - 1e-6, with
    v^{|lambda|} kept inside the normal float range."""
    rng = random.Random(20)
    cases = []
    for _ in range(240):
        n = rng.randint(1, 8)
        a = [rng.uniform(-0.9, 3)]
        for _ in range(n - 1):
            a.append(a[-1] + rng.choice((rng.uniform(0.3, 2.5),
                                         10 ** rng.uniform(-7, -1))))
        a.reverse()
        parts = tuple(x - (n - 1 - j) for j, x in enumerate(a))
        size = abs(sum(a) - n * (n - 1) / 2)
        low = max(-130, -280 / size) if size > 1 else -130
        v = rng.choice((10 ** rng.uniform(low, 0), 10 ** low,
                        1 - 10 ** rng.uniform(-6, -1), 1 - 1e-6))
        cases.append((parts, v))
    return cases


def test_one_valued_float_points_take_the_product_formula(monkeypatch):
    # v^{|lambda|} prod_{i<j} (a_i - a_j) / (j - i) over the ladder
    # a_j = lambda_j + n - 1 - j that the bialternant forms in floats,
    # at 60 digits; no determinant is formed
    def no_det(rows, exact):
        raise AssertionError("a one-valued Schur value formed a determinant")

    monkeypatch.setattr(schur_module, "det", no_det)
    for parts, v in _one_valued_cases():
        n = len(parts)
        a = [p + n - 1 - j for j, p in enumerate(parts)]
        with mpmath.workdps(60):
            m = [mpmath.mpf(x) for x in a]
            ref = mpmath.mpf(v) ** (mpmath.fsum(m) - n * (n - 1) // 2)
            for i in range(n):
                for j in range(i + 1, n):
                    ref *= (m[i] - m[j]) / (j - i)
        value = schur_bialternant(parts, (v,) * n)
        assert abs(value - ref) <= 1e-14 * abs(ref), (parts, v)
        assert _bits(value) == _bits(oracles.reference_bialternant(
            parts, (v,) * n)), (parts, v)


def test_one_valued_overflow_is_a_singularity():
    # |lambda| = -0.99 at v = 1e-320: the power is beyond the float range
    with pytest.raises(SingularityError, match="1e-320"):
        schur_bialternant((-0.99,), (1e-320,))
    with pytest.raises(SingularityError, match="1e-300"):
        schur_bialternant((-0.7, -0.8), (1e-300, 1e-300))
    # and a product of ladder gaps beyond the float range
    with pytest.raises(SingularityError, match="dimension factor"):
        schur_bialternant((3e300, 2e300, 1e300, 0.5), (0.5,) * 4)


def _one_valued_exact_cases():
    """(parts, v, n): integer shapes (some with more nonzero parts than
    points), shapes with negative integral parts, at int and Fraction v."""
    rng = random.Random(21)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 7)
        if rng.random() < 0.6:
            parts = sorted((rng.randint(0, 9)
                            for _ in range(rng.randint(0, n + 2))), reverse=True)
        else:
            parts = sorted((rng.randint(-5, 6) for _ in range(n)), reverse=True)
        v = rng.choice((1, rng.randint(2, 5),
                        Fraction(rng.randint(1, 40), rng.randint(2, 17))))
        cases.append((tuple(parts), v, n))
    return cases


def test_one_valued_exact_points_take_the_closed_form(monkeypatch):
    # S_lambda(v^n) = v^{|lambda|} f_lambda(n), exact, an int where it is
    # integral, with no determinant and no confluent quotient
    formed = []

    def counted(rows, exact):
        formed.append(len(rows))
        return det(rows, exact)

    def no_quotient(groups, *rest):
        raise AssertionError(f"a one-valued Schur value at {groups} formed "
                             f"a confluent quotient")

    monkeypatch.setattr(schur_module, "det", counted)
    real_quotient = schur_module._confluent_quotient
    monkeypatch.setattr(schur_module, "_confluent_quotient", no_quotient)
    for parts, v, n in _one_valued_exact_cases():
        value = schur(parts, (v,) * n)
        want = simplify(Fraction(v) ** sum(parts) * dimension(parts, n))
        assert _bits(value) == _bits(want), (parts, v, n)
        if len([p for p in parts if p]) > n:
            assert _bits(value) == _bits(0)
        else:
            assert _bits(value) == _bits(
                oracles.reference_bialternant(parts, (v,) * n)), (parts, v, n)
    assert formed == []
    # the counter sees the determinant of two point values
    monkeypatch.setattr(schur_module, "_confluent_quotient", real_quotient)
    assert schur((2, 1), (1, 1, Fraction(1, 2))) == \
        schur_jacobi_trudi((2, 1), (1, 1, Fraction(1, 2)))
    assert formed == [3]


def test_ladder_table_stops_below_n_rows():
    # n equal points take the closed form, so no call needs row n
    schur_module._ladder.cache_clear()
    for shape, n in (((2, 1), 3), ((0.5, 0.2), 3), ((1,), 1), ((-1, -1), 2)):
        assert len(schur_module._ladder(n, *shape)[3]) == n - 1


def test_decimal_power_is_the_correctly_rounded_power():
    # one logarithm per point, one exponential per column and the row's
    # (1/v)^q and exponent rounding must round to what the Decimal power
    # itself gives, in every row and at every working precision
    decimal_power = importlib.import_module("gelfond.schur")._decimal_power
    D = decimal.Decimal
    rng = random.Random(12)
    cases = [(D(1), [D(0), D(3), D("2.5"), D(-7)]),
             (D("0.01"), [D(900), D("900.5"), D("-899.25"), D(2)]),
             (D(0.9), [D(40), D(-3), D("1e-9")])]
    for _ in range(60):
        v = D(rng.choice((rng.uniform(1e-3, 1), 10 ** rng.uniform(-300, 0),
                          1 - 10 ** rng.uniform(-15, -1))))
        cases.append((v, [D(rng.uniform(-5, 400)) for _ in range(4)]))
    for prec in (30, 45, 80):
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            for v, a in cases:
                power = decimal_power(v, a)
                for q in range(4):
                    for j, aj in enumerate(a):
                        # the entry exponent as `_entries` rounds it
                        x = aj - q
                        assert power(j, q, x) == v ** x, (prec, v, aj, q)


def test_decimal_fallback_keeps_fraction_exponent_gaps():
    # exponents 7/2 and 7/2 - g: the bialternant cancels about 1/g, and
    # rounding the ladder through float would lose the gap's own digits
    pts = (0.9, 0.7, 0.4)
    for g in (Fraction(1, 10 ** 5), Fraction(1, 10 ** 7), Fraction(1, 10 ** 9)):
        parts = (Fraction(3, 2), Fraction(5, 2) - g, Fraction(1, 3))
        a = [p + 2 - j for j, p in enumerate(parts)]
        with mpmath.workdps(80):
            u = [mpmath.mpf(x) for x in pts]
            num = mpmath.det(mpmath.matrix(
                [[ui ** (mpmath.mpf(x.numerator) / x.denominator) for x in a]
                 for ui in u]))
            den = mpmath.det(mpmath.matrix(
                [[ui ** (2 - j) for j in range(3)] for ui in u]))
            ref = float(num / den)
        assert abs(schur_bialternant(parts, pts) - ref) <= 1e-14 * abs(ref), g


def test_hook_schur_matches_hook_shape():
    pts = (Fraction(1, 3), 2, 2)
    for arm in range(3):
        for leg in range(3):
            shape = (arm + 1,) + (1,) * leg
            assert hook_schur(arm, leg, pts) == schur_jacobi_trudi(shape, pts)
    assert hook_schur(-1, 0, pts) == 0
    assert hook_schur(0, -1, pts) == 0


def test_skew_schur_routes():
    pts = (1, 2, Fraction(1, 2))
    cases = [((3, 2, 1), (1, 1)), ((3, 3), (2,)), ((2, 2, 2), (2, 1)),
             ((4, 1), (4, 1)), ((2, 1), ())]
    for lam, mu in cases:
        assert skew_schur(lam, mu, pts) == skew_schur_tableaux(lam, mu, pts)
    # mu not inside lam
    assert skew_schur((2, 1), (3,), pts) == 0
    # empty skew shape sums the single empty tableau
    assert skew_schur((2, 1), (2, 1), pts) == 1


def test_branching_rules():
    pts = (2, Fraction(3, 2))
    last = Fraction(1, 2)
    for parts in [(), (1,), (2, 1), (3, 2, 1), (2, 2)]:
        full = schur(parts, pts + (last,))
        assert branch_last_variable(parts, pts, last) == full
        assert branch_last_variable_skew(parts, pts, last) == full


def test_split_partition():
    lam, mu = split_partition((5, 3, 1), 2, 2)
    assert lam.parts == (5, 3) and mu.parts == (1, 0)
    # any prefix/suffix split of a valid chain is again two valid chains
    for k in range(5):
        split_partition(RealPartition((4.5, 2.5, 2.0, 0.25)), k, 4 - k)


def test_splitting_limit_exact():
    eta = (3, 2, 1)
    z = (2, Fraction(1, 2))
    y = (3,)
    lam, mu = split_partition(eta, 2, 1)
    assert splitting_limit(eta, z, y) == schur(lam, z) * schur(mu, y)


def test_splitting_limit_is_the_scaled_limit():
    eta = (3, 2, 1)
    z = (2.0, 0.5)
    y = (3.0,)
    _, mu = split_partition(eta, 2, 1)
    w = sum(mu.parts)
    limit = float(splitting_limit(eta, z, y))
    for eps in (1e-4, 1e-6):
        scaled = float(schur(RealPartition((3, 2, 1)),
                             z + tuple(eps * u for u in y))) / eps ** w
        assert abs(scaled - limit) < 1e-3 * eps / 1e-6 * max(1.0, abs(limit))


# -- the production bialternant and determinant pinned to reference copies --
#
# `oracles.reference_bialternant`, `reference_confluent_quotient` and
# `reference_det` form every ladder, falling factorial and pivot on every
# call, by the operations the production routes take from the per-shape
# cache and the lean elimination loop.  The results must be the same bits
# and the same type: the repr of a float, Fraction or Decimal is exact,
# and it tells -0.0 from 0.0.

def _bits(x):
    return type(x), repr(x)


def _random_real_shape(rng, length):
    """Parts of a real partition: lambda_j - j strictly decreasing,
    lambda_last > -1."""
    parts, top = [], rng.uniform(0.5, 6)
    for _ in range(length):
        parts.append(round(top, rng.choice((1, 4, 12))))
        top = parts[-1] - rng.uniform(0.05, 1.5)
        if top <= -0.9:
            break
    return tuple(p for p in parts if p > -1)


def _random_points(rng, n):
    # 1 to 3 distinct values with multiplicities, t = 1.0 among them
    values = [1.0] + [rng.choice((rng.uniform(0.01, 1), 10 ** rng.uniform(-8, 0),
                                  1 - 10 ** rng.uniform(-9, -1)))
                      for _ in range(2)]
    pool = values[:rng.randint(1, 3)]
    return tuple(rng.choice(pool) for _ in range(n))


def _bialternant_cases():
    rng = random.Random(15)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 5)
        shape = _random_real_shape(rng, rng.randint(1, n))
        cases.append((shape, _random_points(rng, n)))
        ints = tuple(sorted((rng.randint(0, 4) for _ in range(rng.randint(1, n))),
                            reverse=True))
        cases.append((ints, _random_points(rng, n)))
    cases += [
        ((-1,), (0.5,)), ((-1,), (Fraction(1, 3),)), ((-1, -1), (2, 2)),
        ((-1,), (1.0,)), ((2, 1), (Fraction(1, 2), Fraction(1, 2), 3)),
        # entries whose falling-factorial coefficient is 0
        ((0.5, 0.2, 0), (1e-200,) * 3), ((2, 1, 0), (0.3, 0.3, 0.3)),
        ((1, 0), (1.0, 1.0)), ((1.5, 0.5), (1.0, 1.0, 1.0)),
    ]
    return cases


def _two_point_floats(shape, pts):
    """Whether the bialternant takes the two-point minors: float points at
    two values, or exact ones on a ladder that is not integral."""
    return (len(set(map(float, pts))) == 2
            and isinstance(schur_bialternant(shape, pts), float))


def _check_two_point(shape, pts, bound):
    """The value against the 60-digit mpmath bialternant at the code's own
    ladder."""
    n = len(pts)
    u, v = max(map(float, pts)), min(map(float, pts))
    m = sum(float(x) == u for x in pts)
    ref = oracles.mp_two_point(schur_module._ladder(n, *shape)[0], u, m, v)
    value = schur_bialternant(shape, pts)
    assert abs(value - ref) <= bound * abs(ref), (shape, pts, value, ref)


def test_bialternant_is_the_reference_bit_for_bit():
    # float values at two point values take the minors of one matrix
    # exponential, which no reference copies; they are held to mpmath
    two_point = 0
    for shape, pts in _bialternant_cases():
        if _two_point_floats(shape, pts):
            two_point += 1
            _check_two_point(shape, pts, 1e-13)
        else:
            assert _bits(schur_bialternant(shape, pts)) == \
                _bits(oracles.reference_bialternant(shape, pts)), (shape, pts)
    assert two_point


@pytest.mark.parametrize("first, second", [
    ((2, 1), (2.0, 1.0)), ((2.0, 1.0), (2, 1))])
def test_integral_and_float_shapes_keep_their_own_ladders(first, second):
    # 2 == 2.0 and hash alike, but (2, 1) at exact points is a Fraction
    # quotient and (2.0, 1.0) a float one
    schur_module._ladder.cache_clear()
    pts = (Fraction(1, 2), Fraction(1, 3), 2)
    for shape in (first, second, first):
        value = schur_bialternant(shape, pts)
        assert _bits(value) == _bits(oracles.reference_bialternant(shape, pts))
        assert type(value) is (float if isinstance(shape[0], float)
                               else Fraction)


@pytest.mark.parametrize("exps, t", [
    ((0, 2.5, 2.5000001, 6), 0.3), ((0, 2.5, 2.5000001, 6), 0.9),
    ((0, 0.6, 1.95, 2.0, 4.3, 5.1), 0.9), ((0, 0.6, 1.95, 2.0, 4.3, 5.1), 1.0),
    ((0, 0.5, 1), 0.25)])
def test_pyramid_values_are_the_reference_bit_for_bit(monkeypatch, exps, t):
    # the one-valued values are the reference's bits; the two-point
    # values, which these spaces once sent through the Decimal fallback,
    # are within 1e-14 of mpmath (the Decimal route's bound)
    blossom = importlib.import_module("gelfond.blossom")
    calls = []

    def recorded(lam, points):
        calls.append((lam, points))
        return schur(lam, points)

    monkeypatch.setattr(blossom, "schur", recorded)
    pts = tuple((k, (-1) ** k * k) for k in range(len(exps)))
    blossom.de_casteljau(pts, exps, t)
    # at t = 1 every weight is t and the pyramid forms no Schur value
    assert bool(calls) == (t != 1)
    for lam, points in calls:
        if len(set(points)) == 2:
            _check_two_point(lam, points, 1e-14)
        else:
            assert _bits(schur_bialternant(lam, points)) == \
                _bits(oracles.reference_bialternant(lam, points)), (lam, points)


def test_confluent_quotient_is_the_reference_bit_for_bit():
    rng = random.Random(7)
    quotient = schur_module._confluent_quotient
    for _ in range(100):
        n = rng.randint(1, 5)
        a = sorted((rng.uniform(-1, 8) for _ in range(n)), reverse=True)
        pts = sorted(_random_points(rng, n), reverse=True)
        groups = []
        for v in pts:
            if groups and groups[-1][0] == v:
                groups[-1][1] += 1
            else:
                groups.append([v, 1])
        entries = schur_module._entries(a, n)
        for sign in (1, -1):
            assert _bits(quotient(groups, a, sign, entries)) == _bits(
                oracles.reference_confluent_quotient(groups, a, sign))
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            D = decimal.Decimal
            dgroups = [(D(v), m) for v, m in groups]
            da = [D(x) for x in a]
            assert _bits(quotient(dgroups, da, 1, schur_module._entries(da, n))) \
                == _bits(oracles.reference_confluent_quotient(dgroups, da, 1))


def _matrices():
    """(rows, exact) pairs: each matrix with the arithmetic `det` is to
    take, exact for ints and Fractions alone."""
    rng = random.Random(3)
    out = []
    for n in range(1, 7):
        for _ in range(12):
            out.append(([[rng.uniform(-2, 2) for _ in range(n)]
                         for _ in range(n)], False))
            out.append(([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for _ in range(n)] for _ in range(n)], True))
            mixed = [[rng.choice((rng.randint(-3, 3), rng.uniform(-3, 3)))
                      for _ in range(n)] for _ in range(n)]
            out.append((mixed, all(type(x) is int for r in mixed for x in r)))
            # ties in pivot magnitude: entries from {-2, -1, 1, 2} and zeros
            out.append(([[float(rng.choice((-2, -1, 0, 1, 2)))
                          for _ in range(n)] for _ in range(n)], False))
            out.append(([[rng.choice((-1, 1, 0)) for _ in range(n)]
                         for _ in range(n)], True))
        # a zero column, at each position
        for col in range(n):
            for kind in (float, Fraction, int):
                rows = [[kind(rng.randint(-4, 4)) for _ in range(n)]
                        for _ in range(n)]
                for r in rows:
                    r[col] = -kind(0) if kind is float else kind(0)
                out.append((rows, kind is not float))
    return out


def test_det_is_the_reference_bit_for_bit():
    for rows, exact in _matrices():
        assert _bits(det(rows, exact)) == \
            _bits(oracles.reference_det(rows)), rows


def test_decimal_det_is_the_reference_bit_for_bit():
    D = decimal.Decimal
    for prec in (12, 40):
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            for rows, exact in _matrices():
                if any(isinstance(x, float) for r in rows for x in r):
                    drows = [[D(x) for x in r] for r in rows]
                    assert _bits(det(drows, False)) == \
                        _bits(oracles.reference_det(drows)), drows


# -- two float point values: the minors of one matrix exponential -----------

def test_two_point_value_of_the_pyramid_found_off():
    # a value of the pyramid of (0, 0.6, 1.95, 2.0, 4.3, 5.1) at t = 0.9
    # that the float determinant took 8.6e-13 off
    _check_two_point((0.5, 0.15, 1.1), (1, 1, 0.9), 1e-14)


@pytest.mark.parametrize("shape, pts", [
    ((), (1.0,) * 16 + (0.5,) * 16),
    ((3.7, 2.2, 1.1, 0.4), (1.0,) * 16 + (0.5,) * 16),
    ((), (1.0,) * 10 + (1e-100,) * 10),
    ((2.5, 1.5, 0.5), (1.0,) * 10 + (1e-100,) * 10),
    ((-4.9007, -4.2499, -3.257, -2.307, -1.3359, -0.3859, 0.5641, 1.5145),
     (1e-7,) * 5 + (1e-7 * 3.7e-193,) * 3)])
def test_two_point_values_whose_factors_leave_the_float_range(shape, pts):
    # the superfactorial ratio, near 1e296 at 32 points, and the minor,
    # near 1e-332, each leave the float range where their product does
    # not, and the empty shape gives 1; in the last case s^{E_b} is below
    # the float range, and so is f_lambda(8) times the rest, while
    # u^{|lambda|} brings the value back into it
    if not shape:
        assert schur_bialternant(shape, pts) == pytest.approx(1.0, abs=1e-14)
    _check_two_point(shape, pts, 1e-13)


def test_two_point_values_whose_minors_cancel_take_decimals(monkeypatch):
    # two clusters of four ladder entries a few hundredths apart at a
    # tiny ratio: each minor's determinant is near 1e-12 of its diagonal
    # product, and the minors were 6.9e-11 off
    calls = []
    decimal_route = schur_module._bialternant_decimal

    def recorded(*args):
        calls.append(args)
        return decimal_route(*args)

    monkeypatch.setattr(schur_module, "_bialternant_decimal", recorded)
    a = (3.828, 3.804, 3.795, 3.767, 1.387, 1.352, 1.340, 1.320, 0.0)
    shape = tuple(x - (8 - j) for j, x in enumerate(a))
    _check_two_point(shape, (0.5,) * 4 + (3.3e-49,) * 5, 1e-14)
    assert len(calls) == 1


@st.composite
def two_point_cases(draw):
    """A ladder of up to 9 entries with gaps from 1e-3 to 2.5, as a shape,
    and two float point values: u = 1 or u in [0.5, 4], v = t u with t
    in (1e-3, 1 - 1e-3), near 1 (down to 1 - 1e-9) or tiny (down to
    1e-300)."""
    n = draw(st.integers(2, 9))
    small = st.floats(1e-3, 0.05)
    gaps = draw(st.lists(small | st.floats(0.05, 2.5), min_size=n - 1,
                         max_size=n - 1))
    a = [draw(st.floats(-0.99, 2))]
    for g in reversed(gaps):
        a.insert(0, a[0] + g)
    shape = tuple(x - (n - 1 - j) for j, x in enumerate(a))
    m = draw(st.integers(1, n - 1))
    u = draw(st.just(1.0) | st.floats(0.5, 4))
    t = draw(st.floats(1e-3, 1 - 1e-3)
             | st.floats(1, 9).map(lambda k: 1 - 10 ** -k)
             | st.floats(3, 300).map(lambda k: 10 ** -k))
    return shape, (u,) * m + (u * t,) * (n - m)


# A value whose minors both lose more than 3 digits goes to Decimals: over
# 4500 examples of this strategy the minors kept were within 7e-14.
TWO_POINT_BOUND = 1e-13


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None)
@given(case=two_point_cases())
def test_two_point_float_values_match_mpmath(case):
    # finite and within the bound of the 60-digit bialternant at the
    # code's own ladder, or a SingularityError; a value whose reference
    # is below the float range is held to the range's end
    shape, pts = case
    if not pts[-1] < pts[0]:
        return
    try:
        value = schur_bialternant(shape, pts)
    except SingularityError:
        return
    assert math.isfinite(value), case
    n, m = len(pts), pts.count(pts[0])
    ref = oracles.mp_two_point(schur_module._ladder(n, *shape)[0],
                               pts[0], m, pts[-1])
    assert abs(value - ref) <= TWO_POINT_BOUND * abs(ref) + sys.float_info.min, \
        (case, value, ref)


def test_ladder_cache_is_bounded():
    schur_module._ladder.cache_clear()
    pts = (0.3, 0.6, 0.9)
    for k in range(200):
        schur_bialternant((2 + k / 7, 1), pts)
    info = schur_module._ladder.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64
    # a shape used again is a hit and gives the same bits
    before = schur_module._ladder.cache_info().hits
    value = schur_bialternant((2 + 199 / 7, 1), pts)
    assert schur_module._ladder.cache_info().hits == before + 1
    assert _bits(value) == _bits(
        oracles.reference_bialternant((2 + 199 / 7, 1), pts))


@pytest.mark.parametrize("shape, pts", [
    ((1, 3), (0.5, 0.7)),                 # ladder 2, 3 does not decrease
    ((1, 3), (Fraction(1, 2), 2)),
    ((0.2, 1.5), (0.5, 0.7)),
    # more parts than points, and not an integer partition, for which
    # the value would be 0
    ((1.5, 1, 0.5), (0.5, 0.7)),
])
def test_a_bad_ladder_raises_on_every_call(shape, pts):
    for _ in range(3):
        with pytest.raises(ValueError):
            schur_bialternant(shape, pts)


# -- one route: the bialternant at exact points runs on integers -----------

def test_schur_is_the_bialternant():
    assert schur is schur_bialternant


def _integer_point_cases():
    # integer partitions of length <= 8 with parts <= 12, at rational
    # points with different denominators, repeated points and ones
    rng = random.Random(19)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 8)
        parts = sorted((rng.randint(0, 12) for _ in range(rng.randint(0, n))),
                       reverse=True)
        pool = [1] + [Fraction(rng.randint(1, 40), rng.randint(1, 17))
                      for _ in range(rng.randint(1, 3))]
        cases.append((tuple(parts), tuple(rng.choice(pool) for _ in range(n))))
    return cases


def test_schur_is_jacobi_trudi_exactly():
    for parts, pts in _integer_point_cases():
        assert _bits(schur(parts, pts)) == \
            _bits(schur_jacobi_trudi(parts, pts)), (parts, pts)


def test_negative_parts_shift_by_the_point_product():
    # S_lambda(u) = S_{lambda + k}(u) / (u_1 .. u_m)^k, lambda padded to m
    rng = random.Random(4)
    for _ in range(120):
        m = rng.randint(1, 5)
        parts = tuple(sorted((rng.randint(-4, 6) for _ in range(m)),
                             reverse=True))
        if parts[-1] >= 0:
            parts = parts[:-1] + (-1,)
        k = -parts[-1]
        pool = [1, 2, Fraction(rng.randint(1, 20), rng.randint(2, 11))]
        pts = tuple(rng.choice(pool) for _ in range(m))
        product = Fraction(1)
        for u in pts:
            product *= u
        shifted = tuple(p + k for p in parts)
        value = schur(parts, pts)
        assert value == schur_jacobi_trudi(shifted, pts) / product ** k, \
            (parts, pts)
        assert _bits(value) == _bits(oracles.reference_bialternant(parts, pts))


@pytest.mark.parametrize("shape, n", [
    ((1,), 0), ((1, 1, 1), 2), ((3, 2, 2, 1), 3), ((5, 1, 1, 1, 1, 1), 4),
    (IntegerPartition((2, 1, 1)), 2), ((Fraction(2), 1, 1), 1)])
def test_more_parts_than_points_is_zero(shape, n):
    exact = (Fraction(1, 3), 2, 1, Fraction(5, 7))[:n]
    assert _bits(schur(shape, exact)) == _bits(0)
    assert _bits(schur(shape, exact)) == _bits(schur_jacobi_trudi(shape, exact))
    if n:
        assert _bits(schur(shape, tuple(map(float, exact)))) == _bits(0.0)
        mixed = (0.5,) + exact[1:]
        assert _bits(schur(shape, mixed)) == _bits(0.0)
    # decided once per (shape, n): the cached ladder says so
    schur_module._ladder.cache_clear()
    assert schur_module._ladder(n, *shape) is None
    schur(shape, exact)
    assert schur_module._ladder.cache_info().hits == 1
