"""Acceptance gate: twelve desk-scale criteria, one test (and one
`pytest -v` pass/fail line) per criterion.

Tolerances are fixed; a failing criterion means the library is wrong,
not the gate.  Every randomized criterion carries its own frozen seed so
runs are reproducible."""

import functools
import random
import time
from fractions import Fraction
from math import comb

from gelfond.blossom import (de_casteljau, monomial_control_points,
                             pseudo_affinity)
from gelfond.curves import (GelfondBezierCurve, c1_join,
                            endpoint_derivatives, initial_tangency)
from gelfond.dimelev import (convergence_report, insert_exponent,
                             polygon_diameter, preset)
from gelfond.gelfond_basis import (basis_polynomial, basis_values,
                                   chebyshev_basis, elementary_exponents,
                                   gelfond_basis_schur)
from gelfond.gelfond_basis import basis_polynomial as basis_polynomial_residues
from gelfond.partitions import (IntegerPartition, exponents_from_partition,
                                partition_from_exponents)
from gelfond.polynomials import Poly
from gelfond.schur import schur_bialternant
from oracles import (coefficients_from_control_points, gelfond_basis_dd,
                     schur_giambelli, schur_jacobi_trudi,
                     schur_nagelsbach_kostka, schur_tableaux, vanishing_orders)

FIG_POLYGON = ((0, 0), (1, 4), (3, 4), (4, 0))


def rel(a, b):
    """Deviation relative to the working scale; curve data here is O(1)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def relx(a, b):
    """Pure relative deviation for scalar route comparisons."""
    m = max(abs(a), abs(b))
    return abs(a - b) / m if m else 0.0


def within(seconds):
    """Each criterion carries a runtime ceiling; enforce it."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"
        return run
    return wrap


def random_integer_exponents(rng, max_n, max_exp):
    n = rng.randint(1, max_n)
    tail = sorted(rng.sample(range(1, max_exp + 1), n))
    return (0,) + tuple(tail)


def random_real_exponents(rng, max_n, max_exp, lo=0.3, gap=1e-4):
    n = rng.randint(1, max_n)
    while True:
        tail = sorted(round(rng.uniform(lo, max_exp), 6) for _ in range(n))
        if all(b - a > gap for a, b in zip(tail, tail[1:])):
            return (0,) + tuple(tail)


@within(1)
def test_criterion_01_worked_example_exact():
    # H_2 for (0,3,4,6,9) equals (27/15) t^4 (1-t)^2 (3+6t+4t^2+2t^3)
    # as an exact rational polynomial, by both construction routes
    expected = (Fraction(27, 15) * Poly.monomial(1, 4)
                * Poly([1, -1]) ** 2 * Poly([3, 6, 4, 2]))
    assert basis_polynomial((0, 3, 4, 6, 9), 2) == expected
    assert basis_polynomial_residues((0, 3, 4, 6, 9), 2) == expected


@within(30)
def test_criterion_02_schur_route_equivalence():
    rng = random.Random(214)
    pool = [Fraction(a, b) for a in range(1, 9) for b in range(1, 5)]
    for _ in range(200):
        length = rng.randint(0, 4)
        parts = sorted((rng.randint(1, 4) for _ in range(length)),
                       reverse=True)
        while sum(parts) > 8:
            parts.pop()
        lam = IntegerPartition(parts)
        m = rng.randint(max(1, len(parts)), 5)
        pts = tuple(rng.choice(pool) for _ in range(m))  # repeats welcome
        vals = [schur_bialternant(lam, pts), schur_tableaux(lam, pts),
                schur_jacobi_trudi(lam, pts),
                schur_nagelsbach_kostka(lam, pts),
                schur_giambelli(lam, pts)]
        assert all(v == vals[0] for v in vals), (lam, pts, vals)


@within(10)
def test_criterion_03_divided_difference_schur_oracle():
    rng = random.Random(33)
    for _ in range(200):
        # exponents anywhere in (0, 20]; close pairs exercise the
        # near-confluent divided-difference dispatch
        exps = random_real_exponents(rng, 5, 20.0, lo=0.01, gap=1e-9)
        t = rng.uniform(0.05, 0.95)
        for k in range(len(exps)):
            a = gelfond_basis_dd(exps, k, t)
            b = gelfond_basis_schur(exps, k, t)
            assert relx(a, b) <= 1e-8, (exps, k, t, a, b)


@within(30)
def test_criterion_04_interval_basis_limit():
    # exact rational arithmetic: at a = 1e-4 the Schur values scale like
    # a^|lam| and float determinants would cancel to noise
    rng = random.Random(44)
    for _ in range(20):
        exps = random_integer_exponents(rng, 4, 12)
        n = len(exps) - 1
        lam = partition_from_exponents(exps)
        polys = [basis_polynomial(exps, k) for k in range(n + 1)]
        devs = []
        for a in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
                  Fraction(1, 10000)):
            grid = [a + (1 - a) * Fraction(i, 32) for i in range(33)]
            dev = max(abs(chebyshev_basis(lam, a, 1, k, t) - polys[k](t))
                      for k in range(n + 1) for t in grid)
            devs.append(dev)
        assert devs[0] > devs[1] > devs[2] > devs[3], (exps, devs)
        assert devs[-1] <= Fraction(1, 100), (exps, devs)


@within(60)
def test_criterion_05_basis_positivity_and_unity():
    rng = random.Random(55)
    grid = [i / 199 for i in range(200)]
    for trial in range(10):
        exps = (random_integer_exponents(rng, 5, 12) if trial % 2
                else random_real_exponents(rng, 5, 12))
        for t in grid:
            vals = basis_values(exps, t)
            assert abs(sum(vals) - 1.0) <= 1e-10, (exps, t)
            assert min(vals) >= -1e-12, (exps, t)
    # collocation minors: exact nonnegativity for integer spaces
    for _ in range(5):
        exps = random_integer_exponents(rng, 4, 10)
        n = len(exps) - 1
        nodes = sorted(Fraction(rng.randint(1, 99), 100)
                       for _ in range(n + 1))
        while len(set(nodes)) < n + 1:
            nodes = sorted(Fraction(rng.randint(1, 99), 100)
                           for _ in range(n + 1))
        polys = [basis_polynomial(exps, k) for k in range(n + 1)]
        M = [[polys[k](t) for k in range(n + 1)] for t in nodes]
        for minor in all_minors(M, exact=True):
            assert minor >= 0, (exps, nodes)
    # and float nonnegativity for real spaces
    for _ in range(5):
        exps = random_real_exponents(rng, 4, 10)
        n = len(exps) - 1
        nodes = sorted(rng.uniform(0.05, 0.95) for _ in range(n + 1))
        M = [[float(gelfond_basis_schur(exps, k, t)) for k in range(n + 1)]
             for t in nodes]
        for minor in all_minors(M, exact=False):
            assert minor >= -1e-9, (exps, nodes)


def all_minors(M, exact):
    from itertools import combinations
    from gelfond.arith import det
    m = len(M)
    for size in range(1, m + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(m), size):
                yield det([[M[i][j] for j in cols] for i in rows], exact)


@within(30)
def test_criterion_06_vanishing_orders():
    rng = random.Random(66)
    for _ in range(50):
        exps = random_integer_exponents(rng, 5, 15)
        n = len(exps) - 1
        for k in range(n + 1):
            assert vanishing_orders(exps, k) == (exps[k], n - k), (exps, k)


@within(30)
def test_criterion_07_de_casteljau_equals_basis_sum():
    rng = random.Random(77)
    for trial in range(100):
        exps = (random_integer_exponents(rng, 5, 12) if trial % 2
                else random_real_exponents(rng, 5, 12))
        n = len(exps) - 1
        pts = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(n + 1))
        curve = GelfondBezierCurve(exps, pts)
        for _ in range(50):
            t = rng.uniform(0.0, 1.0)
            direct = curve.evaluate(t)
            corner = curve.evaluate_de_casteljau(t)
            assert max(rel(a, b) for a, b in zip(direct, corner)) <= 1e-10
    # printed pyramid weights t^2, t(1+t)/2, t(2+t)/3 at symbolic t = 1/2
    exps = elementary_exponents(1, 3)
    t = Fraction(1, 2)
    weights = tuple(pseudo_affinity(exps, 3 - 1 - i, (1,) * i, t)
                    for i in range(3))
    assert weights == (t * t, t * (1 + t) / 2, t * (2 + t) / 3)
    assert weights == (Fraction(1, 4), Fraction(3, 8), Fraction(5, 12))


@within(10)
def test_criterion_08_monomial_control_points():
    for exps in [(0, 1, 2, 3), (0, 3, 4, 6, 9), (0, 2, 4, 14),
                 (0, 1, 4, 5, 7)]:
        n = len(exps) - 1
        for k in range(n + 1):
            pts = monomial_control_points(exps, k)
            total = sum((pts[j] * basis_polynomial(exps, j)
                         for j in range(n + 1)), Poly())
            assert total == Poly.monomial(1, exps[k]), (exps, k)
    # the polynomial space reproduces the Bezier ratios C(j,k)/C(n,k)
    for k in range(4):
        assert monomial_control_points((0, 1, 2, 3), k) == tuple(
            Fraction(comb(j, k), comb(3, k)) for j in range(4))


@within(30)
def test_criterion_09_derivatives():
    rng = random.Random(99)
    h = 1e-6
    for trial in range(50):
        if trial % 2:
            exps = random_integer_exponents(rng, 5, 12)
        else:
            # real tail over r_1 = 1 keeps the hodograph theory applicable
            tail = sorted(round(rng.uniform(1.5, 12), 6)
                          for _ in range(rng.randint(1, 4)))
            exps = (0, 1) + tuple(tail)
        n = len(exps) - 1
        pts = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(n + 1))
        curve = GelfondBezierCurve(exps, pts)
        hodo = curve.derivative()
        for _ in range(20):
            t = rng.uniform(0.05, 0.95)
            fd = tuple((a - b) / (2 * h) for a, b in
                       zip(curve.evaluate(t + h), curve.evaluate(t - h)))
            dv = hodo.evaluate(t)
            assert max(rel(a, b) for a, b in zip(dv, fd)) <= 1e-5, (exps, t)
        # endpoint identity P'(1) = r_n (p_n - p_{n-1})
        _, at_b = endpoint_derivatives(curve)
        hb = hodo.evaluate(1)
        assert max(rel(a, b) for a, b in zip(at_b, hb)) <= 1e-8
        if exps[1] == 1:
            at_a, _ = endpoint_derivatives(curve)
            ha = hodo.evaluate(0)
            assert max(rel(a, b) for a, b in zip(at_a, ha)) <= 1e-8
    # integer-r_1 tangency: P^(r_1)(0) against the exact polynomial route
    for exps in [(0, 2, 3), (0, 3, 4, 6, 9), (0, 2, 4, 14)]:
        n = len(exps) - 1
        pts = tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n + 1))
        curve = GelfondBezierCurve(exps, pts)
        order, value = initial_tangency(curve)
        coeffs = coefficients_from_control_points(pts, exps)
        poly = sum((Poly.monomial(c, e)
                    for c, e in zip(coeffs, exps)), Poly())
        for _ in range(order):
            poly = poly.derivative()
        assert value == poly(0), exps


@within(30)
def test_criterion_10_dimension_elevation_invariance():
    rng = random.Random(110)
    for trial in range(100):
        exps = (random_integer_exponents(rng, 4, 10) if trial % 2
                else random_real_exponents(rng, 4, 10))
        n = len(exps) - 1
        pts = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(n + 1))
        slot = trial % 3
        if slot == 0:
            rho = rng.uniform(0.01, float(exps[1]))         # below interior
        elif slot == 1 and n >= 2:
            rho = rng.uniform(float(exps[1]), float(exps[n]))
        else:
            rho = float(exps[n]) + rng.uniform(0.5, 5.0)    # above the top
        if any(abs(rho - float(e)) < 1e-6 for e in exps):
            rho += 1e-3
        new_pts, new_exps = insert_exponent(pts, exps, rho)
        before = GelfondBezierCurve(exps, pts)
        after = GelfondBezierCurve(new_exps, new_pts)
        for _ in range(50):
            t = rng.uniform(0.0, 1.0)
            was = before.evaluate(t)
            now = after.evaluate(t)
            assert max(rel(a, b) for a, b in zip(was, now)) <= 1e-10, \
                (exps, rho, t)


@within(60)
def test_criterion_11_muntz_dichotomy():
    # convergent preset: a divergent sum of reciprocal exponents pulls the
    # polygons onto the curve
    exps, source = preset("cubic-linear")
    rows = convergence_report(FIG_POLYGON, exps, source, iterations=100,
                              samples=512)
    diam = polygon_diameter(FIG_POLYGON)
    h = [row[2] for row in rows]
    assert h[-1] <= 1e-2 * diam, h[-1]
    assert all(h[i + 1] <= h[i] + 1e-12 for i in range(5, 100)), \
        "distances not monotone after iteration 5"
    # stalling preset: sum 1/j^2 converges, distances floor out
    exps, source = preset("cubic-quadratic")
    rows = convergence_report(FIG_POLYGON, exps, source, iterations=100,
                              samples=512)
    h = [row[2] for row in rows]
    assert all(abs(a - b) < 1e-4 for a, b in zip(h[-20:], h[-19:])), \
        "stalling preset did not stabilize"
    assert h[-1] >= 1e-2 * diam, h[-1]
    # sparse space with an affine tail still converges to its own curve
    exps, source = preset("sparse-affine")
    rows = convergence_report(FIG_POLYGON, exps, source, iterations=100,
                              samples=512)
    h = [row[2] for row in rows]
    assert h[-1] <= 1e-2 * diam, h[-1]


@within(5)
def test_criterion_12_c1_join():
    left = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)))
    right = c1_join(left, (0, 1, 3), (1, 2), ((4, 1),))
    assert right.evaluate(1) == left.evaluate(1)
    h = 1e-6
    # second-order one-sided stencils at the junction
    backward = tuple(
        (3 * a - 4 * b + c) / (2 * h) for a, b, c in
        zip(left.evaluate(1), left.evaluate(1 - h), left.evaluate(1 - 2 * h)))
    forward = tuple(
        (-3 * a + 4 * b - c) / (2 * h) for a, b, c in
        zip(right.evaluate(1), right.evaluate(1 + h),
            right.evaluate(1 + 2 * h)))
    assert max(rel(a, b) for a, b in zip(backward, forward)) <= 1e-6
