import math
import random
import time
from fractions import Fraction
from itertools import accumulate
from math import prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from gelfond import gelfond_basis as gelfond_basis_module
from gelfond.arith import SingularityError
from gelfond.gelfond_basis import (basis_derivative, basis_polynomial,
                                   basis_table, basis_values, chebyshev_basis,
                                   complete_exponents, elementary_exponents,
                                   gelfond_basis_schur, hodograph_data,
                                   hook_exponents)
from gelfond.gelfond_basis import basis_polynomial as basis_polynomial_residues
from gelfond.partitions import dimension, partition_from_exponents
from gelfond.polynomials import Poly, horner_table
from oracles import (complete_basis_polynomial, elementary_basis_polynomial,
                     gelfond_basis_dd, hook_basis_polynomial,
                     interlacing_partitions, vanishing_orders)

EXPS = (0, 3, 4, 6, 9)


def _interlacing_basis_polynomial(exps, k):
    """H_k = [prod_{i>k} r_i/(r_i - r_k)] t^{r_k} (1-t)^{n-k} psi(t), where
    psi's coefficient of t^w sums f_eta(n-k)/f_{mu0}(n-k) over the
    partitions eta interlacing mu = (lambda_{k+1}, .., lambda_n) with
    |eta| = |mu0| + w, mu0 = (lambda_{k+2}, .., lambda_n).  Enumerates
    about 4^n partitions: the oracle for the residue construction."""
    n = len(exps) - 1
    if k == n:
        return Poly.monomial(1, exps[n])
    mu = partition_from_exponents(exps).parts[k:]
    mu0 = mu[1:]
    m = n - k
    base = sum(mu0)
    f0 = dimension(mu0, m)
    psi = [Fraction(0)] * (sum(mu) - base + 1)
    for eta in interlacing_partitions(mu):
        psi[eta.weight() - base] += Fraction(dimension(eta, m), f0)
    prefactor = prod(Fraction(exps[i], exps[i] - exps[k])
                     for i in range(k + 1, n + 1))
    return (Poly.monomial(prefactor, exps[k]) * Poly(psi)
            * Poly([1, -1]) ** m)


def test_worked_basis_polynomial_frozen():
    # H_2 for (0,3,4,6,9) = (27/15) t^4 (1-t)^2 (3 + 6t + 4t^2 + 2t^3)
    expected = (Fraction(27, 15) * Poly.monomial(1, 4)
                * Poly([1, -1]) ** 2 * Poly([3, 6, 4, 2]))
    assert basis_polynomial(EXPS, 2) == expected
    assert basis_polynomial_residues(EXPS, 2) == expected
    assert _interlacing_basis_polynomial(EXPS, 2) == expected
    assert expected == Poly.monomial(Fraction(27, 5), 4) \
        + Poly.monomial(-9, 6) + Poly.monomial(Fraction(18, 5), 9)


def test_polynomial_routes_agree():
    rng = random.Random(41)
    spaces = [(0, 1), (0, 1, 3), (0, 2, 3), EXPS, (0, 2, 4, 14)]
    for n in range(1, 10):
        for _ in range(4):
            gaps = [rng.randint(1, 3) for _ in range(n)]
            spaces.append(tuple(accumulate([0] + gaps)))
    for exps in spaces:
        for k in range(len(exps)):
            assert basis_polynomial(exps, k) == \
                _interlacing_basis_polynomial(exps, k), (exps, k)


def test_large_exponent_polynomial_is_fast():
    start = time.perf_counter()
    polys = [basis_polynomial((0, 150, 300), k) for k in range(3)]
    assert time.perf_counter() - start < 1.0
    assert sum(polys, Poly()) == Poly([1])
    assert polys[1] == Poly.monomial(2, 150) - Poly.monomial(2, 300)


def test_three_value_routes_agree_integer():
    t = Fraction(2, 7)
    for k in range(5):
        p = basis_polynomial(EXPS, k)(t)
        assert gelfond_basis_schur(EXPS, k, t) == p
        assert gelfond_basis_dd(EXPS, k, t) == p
        assert basis_values(EXPS, t)[k] == p


def test_value_routes_agree_real():
    exps = (0, 0.8, 2.5, 3.1)
    for t in (0.1, 0.45, 0.9):
        for k in range(4):
            a = gelfond_basis_schur(exps, k, t)
            b = gelfond_basis_dd(exps, k, t)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_partition_of_unity_exact():
    for t in (Fraction(1, 3), Fraction(7, 8)):
        vals = basis_values(EXPS, t)
        assert sum(vals) == 1
        assert all(v >= 0 for v in vals)


def test_endpoint_values():
    for exps in [(0, 1, 3), EXPS]:
        n = len(exps) - 1
        vals0 = basis_values(exps, 0)
        vals1 = basis_values(exps, 1)
        assert vals0 == (1,) + (0,) * n
        assert vals1 == (0,) * n + (1,)
    # the Schur route covers t = 0 through the splitting limit
    assert gelfond_basis_schur(EXPS, 0, 0) == 1
    assert gelfond_basis_schur(EXPS, 2, 0) == 0


def test_closed_form_families():
    for l in (1, 2, 3):
        n = 3
        exps = elementary_exponents(l, n)
        for k in range(n + 1):
            assert elementary_basis_polynomial(l, n, k) == \
                basis_polynomial(exps, k)
    for l in (1, 3):
        n = 3
        exps = complete_exponents(l, n)
        for k in range(n + 1):
            assert complete_basis_polynomial(l, n, k) == \
                basis_polynomial(exps, k)
    for l, m, n in [(2, 1, 3), (1, 2, 4), (3, 2, 3)]:
        exps = hook_exponents(l, m, n)
        for k in range(n + 1):
            assert hook_basis_polynomial(l, m, n, k) == \
                basis_polynomial(exps, k)


def test_closed_form_exponents():
    assert tuple(elementary_exponents(2, 3)) == (0, 1, 3, 4)
    assert tuple(complete_exponents(2, 3)) == (0, 3, 4, 5)
    assert tuple(hook_exponents(2, 1, 3)) == (0, 3, 5, 6)


def test_hodograph_data_cases():
    case, reduced, coeffs = hodograph_data((0, 1, 3))
    assert case == "unit"
    assert tuple(reduced) == (0, 2)
    assert coeffs == (Fraction(3, 2), 3)

    case, reduced, coeffs = hodograph_data((0, 2, 3))
    assert case == "shifted"
    assert tuple(reduced) == (0, 1, 2)
    assert coeffs == (3, 3)

    with pytest.raises(NotImplementedError):
        hodograph_data((0, 0.5, 2))


def test_basis_derivative_exact():
    for exps in [(0, 1, 3), (0, 2, 3), EXPS, (0, 2, 4, 14)]:
        n = len(exps) - 1
        for k in range(n + 1):
            dp = basis_polynomial(exps, k).derivative()
            for t in (Fraction(1, 4), Fraction(2, 3)):
                assert basis_derivative(exps, k, t) == dp(t), (exps, k, t)


def test_basis_derivative_last_index_for_every_space():
    # k = n is r_n t^(r_n - 1) even where the hodograph needs r_1 >= 1
    assert basis_derivative((0, 0.5, 2), 2, 0.3) == 0.6
    with pytest.raises(NotImplementedError):
        basis_derivative((0, 0.5, 2), 1, 0.3)


def test_basis_derivative_pole_at_zero():
    # H_n = t^{r_n} with r_n < 1 has an unbounded derivative at 0: the
    # package's pole signal, not a bare ZeroDivisionError
    for exps in [(0, 0.5), (0, Fraction(1, 3)), (0, 0.25, 0.75)]:
        n = len(exps) - 1
        for t in (0, 0.0):
            with pytest.raises(SingularityError):
                basis_derivative(exps, n, t)
    assert basis_derivative((0, 0.5), 1, 0.25) == 1.0
    assert basis_derivative((0, 1), 1, 0) == 1


def test_derivative_sums_to_zero():
    # d/dt sum H_k = 0: partition of unity differentiated
    exps = (0, 2, 3, 5)
    t = Fraction(3, 5)
    assert sum(basis_derivative(exps, k, t) for k in range(4)) == 0


def test_vanishing_orders():
    for exps in [(0, 1, 3), EXPS, (0, 2, 4, 14)]:
        n = len(exps) - 1
        for k in range(n + 1):
            at0, at1 = vanishing_orders(exps, k)
            assert at0 == exps[k]
            assert at1 == n - k


def test_chebyshev_partition_of_unity_exact():
    lam = partition_from_exponents((0, 2, 3))
    a, b = Fraction(1, 4), Fraction(5, 4)
    for t in (a, Fraction(1, 2), b):
        total = sum(chebyshev_basis(lam, a, b, k, t) for k in range(3))
        assert total == 1


def test_chebyshev_limits_to_unit_interval_basis():
    exps = (0, 2, 3)
    lam = partition_from_exponents(exps)
    devs = []
    for a in (1e-1, 1e-2, 1e-3):
        grid = [a + (1 - a) * i / 40 for i in range(41)]
        dev = max(abs(chebyshev_basis(lam, a, 1.0, k, t)
                      - basis_values(exps, t)[k])
                  for k in range(3) for t in grid)
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 1e-2


def test_limit_rate_is_the_smallest_gap():
    # The Chebyshev-Bernstein basis on [a, 1] tends to H_k as a -> 0.  In
    # exact arithmetic, sup_{k,t} |B^{[a,1]}_k(t) - H_k(t)| falls like
    # a^g on these integer spaces, g the smallest exponent gap: the test
    # pins this observed rate (slopes 0.99997 to 2.00000 per decade of
    # a), not a proved one.
    ts = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(4, 5))
    for exps in [(0, 2, 3), (0, 1, 3), (0, 2, 4), (0, 2, 4, 14),
                 (0, 3, 4, 6, 9), (0, 3, 5, 6, 7)]:
        lam = partition_from_exponents(exps)
        g = min(b - a for a, b in zip(exps, exps[1:]))
        h = {t: basis_values(exps, t) for t in ts}
        logs = []
        for e in (4, 5, 6):
            a = Fraction(1, 10 ** e)
            logs.append(math.log10(max(
                abs(chebyshev_basis(lam, a, 1, k, t) - h[t][k])
                for t in ts for k in range(len(exps)))))
        for slope in (logs[0] - logs[1], logs[1] - logs[2]):
            assert abs(slope - g) < 1e-3, (exps, slope)


def _mp_limit_deviation(exps, a, ts):
    """sup_{k,t} |B^{[a,1]}_k(t) - H_k(t)| at 60 digits, from definitions
    that share no code with `chebyshev_basis` or `basis_values`: B_k in
    span(t^{r_j}) vanishes to order k at a and to order n - k at 1, and
    the B_k sum to one; H_k is the divided-difference form
    (-r_{k+1})..(-r_n) [r_k, .., r_n] t^x."""
    with mpmath.workdps(60):
        r = [mpmath.mpf(x) for x in exps]
        n = len(r) - 1

        def derivatives(x, orders):
            return [[mpmath.ff(e, i) * x ** (e - i) for e in r] for i in range(orders)]

        shapes = []
        for k in range(n + 1):
            rows = derivatives(mpmath.mpf(a), k) + derivatives(mpmath.mpf(1), n - k)
            # the kernel of these n conditions, by signed maximal minors
            shapes.append([(-1) ** j * mpmath.det(mpmath.matrix(
                [row[:j] + row[j + 1:] for row in rows])) for j in range(n + 1)])
        # the weights that make the shapes sum to the constant 1 = t^{r_0}
        weights = mpmath.lu_solve(mpmath.matrix(shapes).T,
                                  mpmath.matrix([1] + [0] * n))
        dev = mpmath.mpf(0)
        for t in map(mpmath.mpf, ts):
            for k in range(n + 1):
                h = mpmath.fprod(-r[j] for j in range(k + 1, n + 1)) * mpmath.fsum(
                    t ** r[i] / mpmath.fprod(r[i] - r[j] for j in range(k, n + 1) if j != i)
                    for i in range(k, n + 1))
                b = weights[k] * mpmath.fsum(c * t ** e for c, e in zip(shapes[k], r))
                dev = max(dev, abs(b - h))
        return dev


def test_limit_rate_is_the_smallest_gap_on_real_spaces():
    # The same observed rate on real spaces, g = 1.5 and g = 0.5 (slopes
    # 1.500, 1.500 and 0.504, 0.501 per decade of a), from a 60-digit
    # reference: each slope within 0.01 of g, and the two decades within
    # 0.01 of each other, so the rate is already asymptotic at these a.
    # The float routes give the same slopes, and each of their deviations
    # is within 1e-6 relative of the reference (2e-8 seen).
    ts = [i / 40 for i in range(1, 40)]
    for exps in [(0, 1.5, 3), (0, 3, 3.5, 7)]:
        lam = partition_from_exponents(exps)
        g = min(b - a for a, b in zip(exps, exps[1:]))
        h = {t: basis_values(exps, t) for t in ts}
        logs, ref_logs = [], []
        for e in (4, 5, 6):
            a = 10.0 ** -e
            dev = max(abs(chebyshev_basis(lam, a, 1.0, k, t) - h[t][k])
                      for t in ts for k in range(len(exps)))
            ref = _mp_limit_deviation(exps, a, ts)
            assert abs(dev - ref) <= 1e-6 * ref, (exps, a, dev, ref)
            logs.append(math.log10(dev))
            ref_logs.append(float(mpmath.log10(ref)))
        for route in (ref_logs, logs):
            slopes = (route[0] - route[1], route[1] - route[2])
            assert all(abs(slope - g) < 0.01 for slope in slopes), (exps, slopes)
            assert abs(slopes[0] - slopes[1]) < 0.01, (exps, slopes)


def test_index_validation():
    with pytest.raises(ValueError):
        basis_derivative((0, 1, 3), 3, Fraction(1, 2))
    with pytest.raises(ValueError):
        basis_polynomial((0, 1, 3), -1)
    with pytest.raises(ValueError):
        basis_polynomial((0, 1.5, 3), 1)


def test_package_attribute_is_the_module():
    import types

    import gelfond
    import gelfond.gelfond_basis as imported
    assert isinstance(gelfond.gelfond_basis, types.ModuleType)
    assert imported is gelfond_basis_module
    assert "gelfond_basis" not in gelfond.__all__


# parameters of the batched tables: both ends plus floats from [0, 1]
unit_floats = st.lists(st.floats(0.0, 1.0), max_size=40).map(
    lambda ts: [0.0, 1.0] + ts)


@st.composite
def integer_spaces(draw):
    n = draw(st.integers(0, 9))
    gaps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return (0,) + tuple(accumulate(gaps))


CLOSED_FORMS = [
    (elementary_exponents(2, 5), lambda k: elementary_basis_polynomial(2, 5, k)),
    (complete_exponents(3, 4), lambda k: complete_basis_polynomial(3, 4, k)),
    (hook_exponents(2, 2, 5), lambda k: hook_basis_polynomial(2, 2, 5, k)),
]


@settings(max_examples=120, deadline=None)
@given(integer_spaces(), unit_floats)
def test_basis_values_many_matches_basis_values(exps, ts):
    assert basis_table(exps, ts).tolist() == [list(basis_values(exps, t)) for t in ts]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLOSED_FORMS), unit_floats)
def test_closed_form_tables_match_pointwise(form, ts):
    exps, poly = form
    polys = [poly(k) for k in range(exps.n + 1)]
    want = [[p(t) for p in polys] for t in ts]
    assert horner_table(polys, ts).tolist() == want
    assert basis_table(exps, ts).tolist() == want


def test_exact_basis_cache_is_bounded():
    # more new spaces than the cache holds: it stays within its bound, and
    # the evicted first space is built again to the same table
    cache = gelfond_basis_module._exact_basis
    bound = cache.cache_info().maxsize
    ts = [0.0, 0.3, 0.7, 1.0]
    first = (0, 1, 2, 3, 97)
    want = basis_table(first, ts).tolist()
    for j in range(bound):
        basis_table((0, 1, 2 + j), ts)
    assert cache.cache_info().currsize <= bound
    misses = cache.cache_info().misses
    assert basis_table(first, ts).tolist() == want
    assert cache.cache_info().misses == misses + 1


def test_exact_basis_is_refused_above_its_coefficient_ceiling(monkeypatch):
    # (n + 1)(r_n + 1) coefficients: 3 x 12 = 36 is built, 3 x 13 is not
    monkeypatch.setattr(gelfond_basis_module, "MAX_BASIS_COEFFICIENTS", 36)
    gelfond_basis_module._exact_basis.cache_clear()
    assert basis_polynomial((0, 7, 11), 2) == Poly.monomial(1, 11)
    for route in (lambda e: basis_polynomial(e, 0),
                  lambda e: basis_values(e, Fraction(1, 2)),
                  lambda e: basis_table(e, [0.5])):
        with pytest.raises(ValueError, match="above the 36"):
            route((0, 7, 12))
    gelfond_basis_module._exact_basis.cache_clear()


@pytest.mark.parametrize("exps, ts", [
    ((0, 0.5, 1.7, 3), [0.0, 0.25, 0.6, 1.0]),          # real exponents
])
def test_basis_values_many_loops_otherwise(exps, ts, monkeypatch):
    # real exponents take the Opitz kernel, never the Horner table
    want = [list(basis_values(exps, t)) for t in ts]

    def refuse(polys, ts):
        raise AssertionError("Horner route taken")
    monkeypatch.setattr(gelfond_basis_module, "horner_table", refuse)
    assert basis_table(exps, ts).tolist() == want
    assert basis_table(exps, []).tolist() == []


@pytest.mark.parametrize("exps", [(0, 3, 4, 6, 9), (0, 0.5, 1.7, 3)])
@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan"), Fraction(4, 3)])
def test_basis_values_many_range(exps, bad):
    with pytest.raises(ValueError):
        basis_table(exps, [0.5, bad])


@pytest.mark.parametrize("exps", [(0, 2, 3), (0, 0.5, 1.7, 3)])
@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan"), Fraction(4, 3)])
def test_scalar_routes_refuse_parameters_outside_unit_interval(exps, bad):
    # integer exponents used to return the polynomial's extrapolation
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        basis_values(exps, bad)
    # k = 0 and k = n: both branches of the derivative, and the oracles'
    # shortcut and divided-difference cases
    for k in (0, len(exps) - 1):
        for route in (basis_derivative, gelfond_basis_dd, gelfond_basis_schur):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                route(exps, k, bad)
    assert len(basis_values(exps, Fraction(1, 2))) == len(exps)


def test_real_exponents_take_the_kernel(monkeypatch):
    exps = (0, 0.5, 1.7, 3)
    want = basis_values(exps, 0.3)

    def refuse(*args):
        raise AssertionError("Schur route taken")
    monkeypatch.setattr(gelfond_basis_module, "schur", refuse)
    assert basis_values(exps, 0.3) == want
    assert basis_table(exps, [0.3, Fraction(3, 10)]).tolist() == [list(want)] * 2
    assert basis_values(exps, 0) == (1.0, 0.0, 0.0, 0.0)
    assert basis_values(exps, 1) == (0.0, 0.0, 0.0, 1.0)
    slope = (0, 1.5, 2.7, 4)
    assert basis_derivative(slope, 1, 0.3) == pytest.approx(
        (basis_values(slope, 0.3 + 1e-6)[1] - basis_values(slope, 0.3 - 1e-6)[1])
        / 2e-6, rel=1e-6)


def _mp_partial_fractions(exps, t, digits=600):
    """H_0..H_n at `digits` digits from the partial-fraction form
    (-1)^{n-k} r_{k+1}..r_n sum_{i>=k} t^{r_i} / prod_{j>=k, j!=i} (r_i - r_j),
    the products built up as k falls."""
    with mpmath.workdps(digits):
        r = [mpmath.mpf(x) for x in exps]
        n = len(r) - 1
        powers = [mpmath.mpf(t) ** x for x in r]
        products = [mpmath.mpf(1)] * (n + 1)
        scale = mpmath.mpf(1)
        out = [None] * (n + 1)
        for k in range(n, -1, -1):
            for i in range(k + 1, n + 1):
                products[i] *= r[i] - r[k]
            products[k] = mpmath.fprod(r[k] - r[j] for j in range(k + 1, n + 1))
            out[k] = float((-1) ** (n - k) * scale * mpmath.fsum(
                powers[i] / products[i] for i in range(k, n + 1)))
            scale *= r[k] if k else 1
        return out


def test_real_basis_of_order_above_109_keeps_its_digits():
    # from order 110 the Taylor table has 256 terms, past the 170! that
    # a float holds; over orders 110, 140 and 170 every value was within
    # 7e-15 relative of the reference
    rng = random.Random(120)
    exps = (0, *accumulate(rng.uniform(0.3, 2.5) for _ in range(120)))
    for t in (0.05, 0.5, 0.95):
        got = basis_table(exps, [t])[0]
        want = _mp_partial_fractions(exps, t)
        assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-13, t


def test_real_basis_above_order_170_is_refused_naming_the_order():
    exps = tuple(0.5 * k for k in range(172))
    with pytest.raises(ValueError, match="order 171 is above 170"):
        basis_table(exps, [0.5])
