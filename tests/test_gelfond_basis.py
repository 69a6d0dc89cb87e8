import random
import time
from fractions import Fraction
from itertools import accumulate
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from gelfond import gelfond_basis as gelfond_basis_module
from gelfond.gelfond_basis import (basis_derivative, basis_polynomial,
                                   basis_polynomial_residues, basis_values,
                                   basis_values_many,
                                   chebyshev_basis, complete_basis_polynomial,
                                   complete_exponents,
                                   elementary_basis_polynomial,
                                   elementary_exponents, gelfond_basis,
                                   gelfond_basis_dd, gelfond_basis_schur,
                                   hodograph_data, hook_basis_polynomial,
                                   hook_exponents, vanishing_orders)
from gelfond.partitions import (dimension, interlacing_partitions,
                                partition_from_exponents)
from gelfond.polynomials import Poly, horner_table

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
        assert gelfond_basis(EXPS, k, t) == p


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
                      - gelfond_basis(exps, k, t))
                  for k in range(3) for t in grid)
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 1e-2


def test_index_validation():
    with pytest.raises(ValueError):
        gelfond_basis((0, 1, 3), 3, Fraction(1, 2))
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
    assert imported.gelfond_basis is gelfond_basis


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
    assert basis_values_many(exps, ts) == [list(basis_values(exps, t)) for t in ts]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLOSED_FORMS), unit_floats)
def test_closed_form_tables_match_pointwise(form, ts):
    exps, poly = form
    polys = [poly(k) for k in range(exps.n + 1)]
    want = [[p(t) for p in polys] for t in ts]
    assert horner_table(polys, ts).tolist() == want
    assert basis_values_many(exps, ts) == want


@pytest.mark.parametrize("exps, ts", [
    ((0, 0.5, 1.7, 3), [0.0, 0.25, 0.6, 1.0]),          # real exponents
    ((0, 3, 4, 6, 9), [0, Fraction(1, 3), 1]),          # exact parameters
    ((0, 3, 4, 6, 9), [0.5, Fraction(1, 3)]),           # mixed parameters
])
def test_basis_values_many_loops_otherwise(exps, ts, monkeypatch):
    want = [list(basis_values(exps, t)) for t in ts]

    def refuse(polys, ts):
        raise AssertionError("batched route taken")
    monkeypatch.setattr(gelfond_basis_module, "horner_table", refuse)
    assert basis_values_many(exps, ts) == want
    assert basis_values_many(exps, []) == []


@pytest.mark.parametrize("exps", [(0, 3, 4, 6, 9), (0, 0.5, 1.7, 3)])
@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan"), Fraction(4, 3)])
def test_basis_values_many_range(exps, bad):
    with pytest.raises(ValueError):
        basis_values_many(exps, [0.5, bad])
