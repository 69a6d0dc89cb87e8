import decimal
import importlib
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gelfond.arith import det
from gelfond.partitions import IntegerPartition, RealPartition, dimension
from gelfond.schur import (branch_last_variable, schur, schur_bialternant,
                           schur_jacobi_trudi)
from oracles import (branch_last_variable_skew, complete_homogeneous,
                     elementary, hook_schur, schur_giambelli,
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


def test_decimal_power_is_the_correctly_rounded_power():
    # one logarithm per point and exp(x ln v) must round to what the
    # Decimal power itself gives, at every working precision
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
            for v, xs in cases:
                power = decimal_power(v, xs)
                for x in xs:
                    assert power(x) == v ** x, (prec, v, x)


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


def test_bialternant_is_the_reference_bit_for_bit():
    for shape, pts in _bialternant_cases():
        assert _bits(schur_bialternant(shape, pts)) == \
            _bits(oracles.reference_bialternant(shape, pts)), (shape, pts)


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
    # these spaces send some values through the Decimal fallback
    blossom = importlib.import_module("gelfond.blossom")
    calls = []

    def recorded(lam, points):
        calls.append((lam, points))
        return schur(lam, points)

    monkeypatch.setattr(blossom, "schur", recorded)
    pts = tuple((k, (-1) ** k * k) for k in range(len(exps)))
    apex, levels = blossom.de_casteljau(pts, exps, t)
    assert calls
    for lam, points in calls:
        assert _bits(schur_bialternant(lam, points)) == \
            _bits(oracles.reference_bialternant(lam, points)), (lam, points)
    monkeypatch.setattr(blossom, "schur", oracles.reference_bialternant)
    assert repr(blossom.de_casteljau(pts, exps, t)[1]) == repr(levels)


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
    rng = random.Random(3)
    out = []
    for n in range(1, 7):
        for _ in range(12):
            out.append([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
            out.append([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(n)] for _ in range(n)])
            out.append([[rng.choice((rng.randint(-3, 3), rng.uniform(-3, 3)))
                         for _ in range(n)] for _ in range(n)])
            # ties in pivot magnitude: entries from {-2, -1, 1, 2} and zeros
            out.append([[float(rng.choice((-2, -1, 0, 1, 2)))
                         for _ in range(n)] for _ in range(n)])
            out.append([[rng.choice((-1, 1, 0)) for _ in range(n)]
                        for _ in range(n)])
        # a zero column, at each position
        for col in range(n):
            for kind in (float, Fraction, int):
                rows = [[kind(rng.randint(-4, 4)) for _ in range(n)]
                        for _ in range(n)]
                for r in rows:
                    r[col] = -kind(0) if kind is float else kind(0)
                out.append(rows)
    return out


def test_det_is_the_reference_bit_for_bit():
    for rows in _matrices():
        assert _bits(det(rows)) == _bits(oracles.reference_det(rows)), rows


def test_decimal_det_is_the_reference_bit_for_bit():
    D = decimal.Decimal
    for prec in (12, 40):
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            for rows in _matrices():
                if any(isinstance(x, float) for r in rows for x in r):
                    drows = [[D(x) for x in r] for r in rows]
                    assert _bits(det(drows)) == \
                        _bits(oracles.reference_det(drows)), drows


def test_ladder_cache_is_bounded():
    schur_module._ladder.cache_clear()
    for k in range(200):
        schur_bialternant((2 + k / 7, 1), (0.3, 0.6))
    info = schur_module._ladder.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64
    # a shape used again is a hit and gives the same bits
    before = schur_module._ladder.cache_info().hits
    value = schur_bialternant((2 + 199 / 7, 1), (0.3, 0.6))
    assert schur_module._ladder.cache_info().hits == before + 1
    assert _bits(value) == _bits(
        oracles.reference_bialternant((2 + 199 / 7, 1), (0.3, 0.6)))


@pytest.mark.parametrize("shape, pts", [
    ((1, 3), (0.5, 0.7)),                 # ladder 2, 3 does not decrease
    ((1, 3), (Fraction(1, 2), 2)),
    ((0.2, 1.5), (0.5, 0.7)),
    ((1, 1, 1), (0.5, 0.7)),              # more parts than points
])
def test_a_bad_ladder_raises_on_every_call(shape, pts):
    for _ in range(3):
        with pytest.raises(ValueError):
            schur_bialternant(shape, pts)
