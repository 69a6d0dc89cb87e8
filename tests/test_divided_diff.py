import math
import random
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelfond.arith import SingularityError
from gelfond.divided_diff import opitz_matrix
from gelfond.gelfond_basis import basis_table, basis_values, gelfond_basis_schur
from oracles import (MIN_GAP, divided_difference, exponential_dd,
                     exponential_dd_derivative, exponential_dd_naive,
                     exponential_dd_recursive, exponential_dd_shifted)


def test_generic_divided_difference():
    # leading-coefficient property: dd of x^2 over 3 nodes is 1
    assert divided_difference((0, 1, 3), lambda x: x * x) == 1
    assert divided_difference((Fraction(1, 2), 2), lambda x: x * x) == \
        Fraction(5, 2)
    with pytest.raises(ValueError):
        divided_difference((1, 1), lambda x: x)
    with pytest.raises(ValueError):
        divided_difference((), lambda x: x)


def test_routes_agree_exact():
    t = Fraction(2, 3)
    for nodes in [(0,), (0, 2), (0, 1, 3), (0, 3, 4, 6, 9)]:
        a = exponential_dd_naive(nodes, t)
        b = exponential_dd_recursive(nodes, t)
        c = divided_difference(nodes, lambda x: power_t(t, x))
        assert a == b == c
        assert isinstance(a, (int, Fraction))


def power_t(t, x):
    return Fraction(t) ** int(x)


def test_order_invariance():
    t = Fraction(1, 2)
    assert exponential_dd_naive((3, 0, 1), t) == \
        exponential_dd_naive((0, 1, 3), t)
    assert exponential_dd_recursive((3, 0, 1), t) == \
        exponential_dd_recursive((0, 1, 3), t)


@settings(deadline=None)
@given(st.sets(st.integers(0, 12), min_size=1, max_size=5),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)))
def test_routes_agree_random(nodes, t):
    nodes = tuple(sorted(nodes))
    assert exponential_dd_naive(nodes, t) == \
        exponential_dd_recursive(nodes, t)


def test_confluent_block_values():
    # [x, x] f_t = t^x ln t and [x, x, x] f_t = t^x ln(t)^2 / 2
    t = 0.7
    x = 1.5
    assert exponential_dd_recursive((x, x), t) == \
        pytest.approx(t ** x * math.log(t))
    assert exponential_dd_recursive((x, x, x), t) == \
        pytest.approx(t ** x * math.log(t) ** 2 / 2)


def test_confluent_matches_perturbed():
    t = 0.35
    eps = 1e-5
    exact = exponential_dd_recursive((1.0, 2.0, 2.0), t)
    near = exponential_dd_naive((1.0, 2.0 - eps, 2.0 + eps), t)
    assert abs(exact - near) < 1e-7 * max(1.0, abs(exact))


def test_dispatch_routes_near_coincident_nodes():
    t = 0.6
    close = (0.0, 1.0, 1.0 + MIN_GAP / 10)
    # dispatch must agree with the recursion it delegates to
    assert exponential_dd(close, t) == exponential_dd_recursive(close, t)
    assert exponential_dd((0.0, 1.0, 1.0), t) == \
        exponential_dd_recursive((0.0, 1.0, 1.0), t)
    wide = (0, 1, 3)
    assert exponential_dd(wide, Fraction(1, 3)) == \
        exponential_dd_naive(wide, Fraction(1, 3))
    with pytest.raises(ValueError):
        exponential_dd_naive((0.0, 1.0, 1.0), t)


def test_negative_nodes_stay_exact():
    # 1 ** -1 and 2 ** -1 are floats in Python; the routes keep Fractions
    for t, want in ((1, 0), (2, Fraction(1, 3))):
        for route in (exponential_dd_naive, exponential_dd_recursive,
                      exponential_dd_shifted):
            value = route((-1, 0, 2), t)
            assert value == want and not isinstance(value, float), route


def test_shift_identity():
    t = Fraction(3, 4)
    for nodes in [(2, 5, 7), (1, 3), (4,)]:
        assert exponential_dd_shifted(nodes, t) == \
            exponential_dd_naive(nodes, t)


def test_derivative_identity():
    t = Fraction(2, 5)
    for nodes in [(1,), (1, 2), (1, 4, 6), (2, 3, 5, 8)]:
        # exact reference: differentiate the partial-fraction sum term-wise
        ref = 0
        for i, xi in enumerate(nodes):
            den = 1
            for j, xj in enumerate(nodes):
                if j != i:
                    den *= xi - xj
            ref += Fraction(xi) * t ** (xi - 1) / den
        assert exponential_dd_derivative(nodes, t) == ref


def test_input_validation():
    with pytest.raises(ValueError):
        exponential_dd((0, 1), 0)
    with pytest.raises(ValueError):
        exponential_dd((0, 1), -0.5)
    with pytest.raises(ValueError):
        exponential_dd((), Fraction(1, 2))


# -- the Opitz kernel against mpmath ------------------------------------

REF_DIGITS = 50


def _mp_basis(exps, t):
    """H_0(t)..H_n(t) of a real-exponent space to REF_DIGITS digits, from
    the partial-fraction form of (-1)^{n-k} r_{k+1}..r_n [r_k..r_n] t^x.
    The sum cancels about (1/gap)^n, so the working precision doubles
    until two passes agree."""
    n = len(exps) - 1
    digits = REF_DIGITS + 20
    prev = None
    while True:
        with mpmath.workdps(digits):
            r = [mpmath.mpf(x) for x in exps]
            powers = [mpmath.mpf(t) ** x for x in r]
            dens = [mpmath.mpf(1)] * (n + 1)
            out = [None] * (n + 1)
            scale = mpmath.mpf(1)
            for k in range(n, -1, -1):
                # dens[i] = prod_{j >= k, j != i} (r_i - r_j)
                for i in range(k + 1, n + 1):
                    dens[i] *= r[i] - r[k]
                dens[k] = mpmath.fprod(r[k] - r[j] for j in range(k + 1, n + 1))
                out[k] = scale * mpmath.fsum(powers[i] / dens[i]
                                             for i in range(k, n + 1))
                scale *= -r[k]
        if prev is not None and all(
                abs(a - b) <= max(abs(a), mpmath.mpf(10) ** -400)
                * mpmath.mpf(10) ** -REF_DIGITS for a, b in zip(out, prev)):
            return out
        prev = out
        digits *= 2
        assert digits < 4000, exps


def _kernel_spaces():
    rng = random.Random(2026)
    spaces = [(0, 150.5, 300.25)]
    for n in (1, 2, 3, 4, 5, 7, 9, 12, 16, 20):
        for gaps in ("mixed", "wide"):
            r = [0.0]
            for _ in range(n):
                if gaps == "mixed":
                    g = rng.choice((1e-6, 1e-4, 1e-2, 0.3, 1.7, 6.0))
                else:
                    g = rng.uniform(5.0, 300.0 / n)
                r.append(r[-1] + g)
            spaces.append(tuple(r))
    return spaces


KERNEL_TS = (1e-3, 0.01, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999999)


def test_kernel_matches_mpmath():
    """Orders 1-20, gaps from 1e-6, exponents up to 300, t from 1e-3 to
    1 - 1e-6: absolute error, relative error and unity residual at most
    1e-14, also near t = 1 where H_0 is as small as 1e-122.  The relative
    bound is checked where H_k >= 1e-250.

    The worst errors here are about 1.1e-15 absolute and 1.9e-15
    relative.  Taking H_k from the last column of the unscaled matrix
    exponential with the superdiagonal -r_{k+1}, whose squarings end in
    that column, gave 1.0e-13 relative."""
    worst_abs = worst_rel = 0.0
    for exps in _kernel_spaces():
        n = len(exps) - 1
        table = basis_table(exps, KERNEL_TS)
        for t, row in zip(KERNEL_TS, table):
            ref = _mp_basis(exps, t)
            assert abs(math.fsum(row) - 1.0) <= 1e-14, (exps, t)
            for k in range(n + 1):
                err = abs(row[k] - float(ref[k]))
                worst_abs = max(worst_abs, err)
                assert err <= 1e-14, (exps, t, k, row[k], ref[k])
                if abs(ref[k]) >= 1e-250:
                    rel = err / abs(float(ref[k]))
                    worst_rel = max(worst_rel, rel)
                    assert rel <= 1e-14, (exps, t, k, row[k], ref[k])
    assert worst_abs > 0 and worst_rel > 0     # the loops did compare


def test_tiny_basis_values_keep_relative_accuracy():
    """H_10 of (0, 30, .., 600) at t = 0.1 is 1.85e-295.  A kernel that
    forms the divided difference H_k / (r_{k+1}..r_n) gets it wrong by
    4.9e-3 relative, because that quotient is subnormal; from the scaled
    matrix with the exponents as its superdiagonal, the powers of t and
    ln t multiplied back as mantissas and powers of two, the worst is
    about 1.6e-15."""
    exps = tuple(30.0 * j for j in range(21))
    row = basis_table(exps, [0.1])[0]
    ref = _mp_basis(exps, 0.1)
    checked = 0
    for k in range(len(exps)):
        if ref[k] >= 1e-300:
            assert abs(row[k] - float(ref[k])) <= 1e-12 * float(ref[k]), (k, row[k])
            checked += 1
    assert checked >= 11


def _scaled(nodes, ts, upper=None):
    """The kernel's scaled matrices Z of one node tuple at every t of
    `ts`, with the superdiagonal `upper`, ones by default."""
    if upper is None:
        upper = (1.0,) * (len(nodes) - 1)
    return opitz_matrix(((tuple(nodes), tuple(upper)),), ts)[:, 0]


NODES = (0.0, 0.5, 0.5 + 1e-6, 2.0, 7.25)


def test_kernel_divided_differences_match_mpmath():
    """Every entry Z_ij = |ln t|^{i-j} t^{-x_j} |[x_i..x_j] t^x| of the
    nodes in both orders: decreasing, as the callers give them, and
    increasing, where the entries grow as t^{x_i - x_j}."""
    for nodes in (NODES[::-1], NODES):
        for t in (1e-3, 0.3, 0.97):
            got = _scaled(nodes, [t])[0]
            for i in range(len(nodes)):
                for j in range(i, len(nodes)):
                    with mpmath.workdps(120):
                        tail = [mpmath.mpf(x) for x in nodes[i:j + 1]]
                        dd = mpmath.fsum(
                            mpmath.mpf(t) ** xi
                            / mpmath.fprod(xi - xj for k, xj in enumerate(tail)
                                           if k != q)
                            for q, xi in enumerate(tail))
                        ref = float(abs(dd) * abs(mpmath.log(t)) ** (i - j)
                                    / mpmath.mpf(t) ** nodes[j])
                    assert abs(got[i, j] - ref) <= 1e-12 * ref, (nodes, t, i, j)
            assert not np.tril(got, -1).any()


def test_kernel_repeated_nodes_and_endpoints():
    t = 0.4
    got = _scaled((2.0, 2.0, 1.0), [t])[0]
    # [2, 2] t^x = t^2 ln t, and [2, 2, 1] t^x by the confluent recursion
    assert got[0, 1] == pytest.approx(1.0, rel=1e-13)
    assert got[0, 2] == pytest.approx(
        exponential_dd_recursive((1.0, 2.0, 2.0), t) / (math.log(t) ** 2 * t),
        rel=1e-13)
    # t = 1: exp(0) = I, so only H_n survives; the kernel itself takes
    # t in (0, 1), where ln t is not 0
    assert basis_table((0.0, 1.5, 3.0), [1.0]).tolist() == [[0.0, 0.0, 1.0]]
    assert _scaled((1.5, 0.0), []).shape == (0, 2, 2)
    for bad in (0.0, -0.5, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            _scaled((1.5, 0.0), [0.5, bad])
    with pytest.raises(ValueError):
        _scaled((), [0.5])
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _scaled((bad, 0.0), [0.5])
        with pytest.raises(ValueError):
            _scaled((1.0, 0.0), [0.5], (bad,))
    # the scaling power of two of larger nodes is not a float
    for big in (2.0 ** 1023, 1e308, -1e308):
        with pytest.raises(ValueError, match="2\\^1023"):
            _scaled((big, 0.0), [0.5])
        with pytest.raises(ValueError, match="2\\^1023"):
            _scaled((1.0, 0.0), [0.5], (big,))
    big = 0.999 * 2.0 ** 1023
    # Z_01 = (1 - t^big) / (|ln t| big), a subnormal
    row = _scaled((big, 0.0), [0.5])[0]
    assert row[0, 1] == pytest.approx(1 / (math.log(2) * big), rel=1e-12)
    # at the superdiagonal 1 the entries of these nodes are below the
    # float range; the basis takes the exponents as its superdiagonal
    vals = basis_values((0, 1e200, 1e300), 0.5)
    assert all(math.isfinite(v) for v in vals) and abs(sum(vals) - 1) < 1e-14


def test_kernel_handles_what_the_schur_route_could_not():
    # the Schur quotient's float determinants cancel to nothing here
    exps = (0, 150.5, 300.25)
    with pytest.raises(SingularityError):
        gelfond_basis_schur(exps, 0, 0.001)
    for t in (0.001, 0.5, 0.999):
        vals = basis_values(exps, t)
        assert all(math.isfinite(v) for v in vals)
        ref = _mp_basis(exps, t)
        assert max(abs(v - float(h)) for v, h in zip(vals, ref)) <= 1e-13


exponent_gaps = st.lists(
    st.one_of(st.floats(1e-6, 1e-2), st.floats(0.05, 40.0)),
    min_size=1, max_size=12)
unit_floats = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 1 - 2 ** -53]),
                        st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(gaps=exponent_gaps, ts=st.lists(unit_floats, min_size=1, max_size=9))
def test_batched_rows_equal_pointwise_rows(gaps, ts):
    exps = tuple(accumulate(gaps, initial=0.0))
    if len(set(exps)) < len(exps):
        return
    real = not all(x.is_integer() for x in exps)
    table = basis_table(exps, ts)
    for t, row in zip(ts, table):
        assert row.tolist() == list(basis_values(exps, t))
        # H_n is t^{r_n} as Python's power forms it, as in the Schur route
        if real:
            assert row[-1] == t ** exps[-1] == gelfond_basis_schur(exps, len(gaps), t)
    inner = [t for t in ts if 0 < t < 1]
    if inner:
        nodes = exps[::-1]
        for t, z in zip(inner, _scaled(nodes, inner, nodes[:-1])):
            assert z.tolist() == _scaled(nodes, [t], nodes[:-1])[0].tolist()


def test_rows_do_not_depend_on_the_block():
    """One batch of 133 parameters in (0, 1) takes six squaring counts,
    for a stack of two matrices; every row is the row of a batch of
    one."""
    exps = (0.0, 0.7, 2.05, 2.0501, 5.5)
    ts = [i / 134 for i in range(135)]
    nodes = exps[::-1]
    stack = ((nodes, (1.0,) * 4), (nodes, nodes[:-1]))
    table = opitz_matrix(stack, ts[1:-1])
    for t, row in zip(ts[1:-1], table):
        assert row.tolist() == opitz_matrix(stack, [t])[0].tolist()
    assert basis_table(exps, ts).tolist() == [list(basis_values(exps, t)) for t in ts]
