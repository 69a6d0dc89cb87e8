"""The normalized basis H^n_k of a Muntz space span(1, t^{r_1}, .., t^{r_n})
on [0, 1], plus its general-interval relative for spaces spanned by real
powers on [a, b] with a > 0.

Routes:

 * both kinds of exponents share the divided-difference form

     H_k(t) = (-1)^{n-k} r_{k+1} .. r_n [r_k, .., r_n] f_t,   f_t(x) = t^x.

 * integer exponents: H_k is an honest polynomial.  Expanding the divided
   difference into partial fractions gives one rational coefficient per
   exponent r_k..r_n, so H_k is built exactly in O(n^2) operations.  A
   space's H_0..H_n are built together and cached per space
   (`_exact_basis`; `basis_polynomial` returns one of them).  The cache
   keeps the 64 spaces used last: a curve or a table reuses its one
   space and `elevate` two, while a process that meets a new space per
   call would otherwise keep every basis it ever built.  Float
   parameters go through Horner's rule, exact ones stay exact.  The
   polynomials are dense, so a space of more than
   MAX_BASIS_COEFFICIENTS coefficients in all is refused.
 * real exponents: one matrix exponential (Opitz) of the exponents
   reversed holds every divided difference [r_k..r_n] f_t at once, and
   with the superdiagonal r_n..r_1 row 0 of its scaled form is H_n..H_0
   up to powers of t and ln t (`_opitz_basis`), so `basis_table` takes
   the whole basis from the float kernel of `divided_diff`, for a whole
   batch of parameters in one call.  The results are floats, also at
   exact parameters.

`basis_values` (one parameter, exact or float) and `basis_table` (a batch
of float parameters) are the production entry points; each picks the
route by the exponents once per call, through that cache.  The `oracle`
command checks them against one independent route that stays here, the
Schur-quotient form (`gelfond_basis_schur`)

     H_k(t) = [prod_{i>k} r_i/(r_i - r_k)] t^{r_k} (1-t)^{n-k}
              * S_{(lambda_{k+1..n})}(1, t, .., t) / S_{(lambda_{k+2..n})}(t, .., t)

with n-k copies of t, which is also exact for integer exponents at
rational t.  H_k(0) and H_k(1) are delta values; the Schur route
short-circuits t = 0 because its quotient there is a 0/0 limit (resolved
by the splitting limit, which is exactly what the short-circuit encodes).
H_k as one divided difference by partial fractions or by recursion,
which only tests use, lives in `tests/oracles.py`.

The exponents of the elementary, complete and hook families feed
`basis --closed-form`; their closed-form polynomials and the vanishing
orders of H_k, which only tests use, live in `tests/oracles.py`.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import numpy as np

from .arith import (SingularityError, all_exact, exact_div, is_exact,
                    is_integral, simplify)
from .divided_diff import opitz_matrix
from .partitions import (ExponentSequence, RealPartition, as_exponents,
                         dimension, partition_from_exponents, partition_parts)
from .polynomials import Poly, _horner, horner_table
from .schur import schur, schur_window

# An integer space's basis is held as n + 1 dense polynomials of r_n + 1
# Fraction coefficients each, so time and memory grow with r_n; above
# this many coefficients in all (the scale of `cli.MAX_SAMPLES`) it is
# refused before any is built.
MAX_BASIS_COEFFICIENTS = 10 ** 6


def _prefactor(r, k):
    """prod_{i=k+1}^{n} r_i / (r_i - r_k), as pairwise ratios so neither
    product is formed alone."""
    n = r.n
    out = Fraction(1) if all_exact(r.exponents) else 1.0
    for i in range(k + 1, n + 1):
        out = out * r[i] / (r[i] - r[k])
    return out


def _oracle_shortcut(r, k, t):
    """The index and range checks of the Schur route (and of the
    divided-difference form in `tests/oracles.py`), then H_k where it
    needs no quotient: t^{r_n} for k = n (1 for n = 0), delta_{k0} at
    t = 0.  None everywhere else."""
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if not 0 <= t <= 1:
        raise ValueError(f"t must be in [0, 1], got {t}")
    if k == n:
        return t ** r[n]
    if t == 0:
        one = 1 if is_exact(t) else 1.0
        return one if k == 0 else 0 * one
    return None


def gelfond_basis_schur(exponents, k, t):
    """Schur-quotient evaluation, the route that `oracle` checks the
    production routes against; works for real exponents, exact for
    integer exponents with rational t.  The numerator is a window of the
    space's partition (`schur.schur_window`): at a float t, a minor of the
    matrix pair that the pyramid at t forms."""
    r = as_exponents(exponents)
    value = _oracle_shortcut(r, k, t)
    if value is not None:
        return value
    lam = partition_from_exponents(r).parts
    m = r.n - k
    num = schur_window(lam + (0,), k, 1, m, t)
    den = schur(lam[k + 1:], (t,) * m)
    if den == 0:
        raise SingularityError(f"Schur denominator vanished at t={t}")
    return (_prefactor(r, k) * t ** r[k] * (1 - t) ** m
            * exact_div(num, den))


def _basis_poly_cached(r_tuple, k):
    """H_k of the integer space r_tuple; `_exact_basis` caches it."""
    tail = r_tuple[k:]
    top = prod(tail[1:])
    if len(tail) % 2 == 0:
        top = -top
    coeffs = [0] * (tail[-1] + 1)
    for x in tail:
        coeffs[x] = Fraction(top, prod(x - y for y in tail if y != x))
    return Poly(coeffs)


@lru_cache(maxsize=64, typed=True)
def _exact_basis(*exponents):
    """The exact polynomials H_0..H_n of an integer space, None for real
    exponents: where the basis routes tell the two kinds apart, once per
    space.  Typed, because 3.0 equals 3 but makes the space real."""
    if not all(is_integral(x) for x in exponents):
        return None
    key = tuple(int(x) for x in exponents)
    if len(key) * (key[-1] + 1) > MAX_BASIS_COEFFICIENTS:
        raise ValueError(
            f"the exact basis of order {len(key) - 1} with r_n = {key[-1]} "
            f"needs (n + 1)(r_n + 1) coefficients, above the "
            f"{MAX_BASIS_COEFFICIENTS} that are built")
    return tuple(_basis_poly_cached(key, k) for k in range(len(key)))


def basis_polynomial(exponents, k):
    """Exact polynomial form of H_k for integer exponents (cached), from
    the partial-fraction form of its divided difference:

        H_k = (-1)^{n-k} r_{k+1} .. r_n
              sum_{i=k}^{n} t^{r_i} / prod_{j=k..n, j != i} (r_i - r_j)."""
    r = as_exponents(exponents)
    polys = _exact_basis(*r.exponents)
    if polys is None:
        raise ValueError("polynomial form requires integer exponents")
    if not 0 <= k <= r.n:
        raise ValueError(f"basis index {k} outside 0..{r.n}")
    return polys[k]


def _opitz_basis(r, t):
    """H_0..H_n of real exponents at the float array t, one row per
    parameter, from row 0 of the scaled Opitz matrix Z of the exponents
    reversed, x = (r_n, .., r_0), with the superdiagonal r_n..r_1
    (`divided_diff.opitz_matrix`): Z_{0,n-k} is |ln t|^{k-n} t^{-r_k}
    times r_{k+1}..r_n |[r_k..r_n] t^x| = H_k, so

        H_k(t) = |ln t|^{n-k} t^{r_k} Z_{0,n-k}.

    The three factors are multiplied as mantissas and powers of two, so
    that no partial product leaves the float range and a tiny H_k keeps
    its relative accuracy; t^{r_k} is Python's power, so H_n is t ** r_n
    itself.  Rows at t = 0 and t = 1 are the unit rows delta_{k0} and
    delta_{kn}.  A row does not depend on the batch it is in."""
    n = r.n
    x = r.exponents[::-1]
    inner = [0 < v < 1 for v in t.tolist()]
    ts = t if all(inner) else t[inner]
    z, ze = np.frexp(opitz_matrix(((x, x[:-1]),), ts)[:, 0, 0])
    ln, le = np.frexp(-np.log(ts))
    power, pe = np.frexp(np.reshape([[v ** e for e in x] for v in ts.tolist()],
                                    (-1, n + 1)))
    m = np.arange(n + 1)
    rows = np.ldexp(z * power * ln[:, None] ** m, ze + pe + le[:, None] * m)
    if ts is t:
        return rows[:, ::-1]
    out = np.zeros((t.size, n + 1))
    out[:, 0] = t == 0
    out[:, n] += t == 1
    out[inner] = rows[:, ::-1]
    return out


def basis_values(exponents, t):
    """All of H_0(t), ..., H_n(t) for t in [0, 1]: the cached basis
    polynomials for integer exponents, exact at an exact t and by
    Horner's rule over their float coefficients at a float t (decided
    once per call); floats from the Opitz kernel for real exponents."""
    r = as_exponents(exponents)
    if not 0 <= t <= 1:
        raise ValueError(f"t must be in [0, 1], got {t}")
    polys = _exact_basis(*r.exponents)
    if polys is None:
        return tuple(_opitz_basis(r, np.array([float(t)]))[0].tolist())
    if is_exact(t):
        return tuple([p(t) for p in polys])
    t = float(t)
    return tuple([_horner(p, t) for p in polys])


def basis_table(exponents, ts):
    """H_0..H_n at every parameter of `ts` as floats, an array of shape
    (len(ts), n + 1), row for row the values `basis_values` gives at
    float(t); parameters outside [0, 1] (nan too) raise ValueError.
    Integer exponents: the cached basis polynomials by Horner's rule over
    all of ts (`horner_table`); real exponents: the Opitz kernel."""
    r = as_exponents(exponents)
    t = np.asarray(ts, dtype=float)
    if t.size and not (t.min() >= 0 and t.max() <= 1):
        bad = t[~((t >= 0) & (t <= 1))][0]
        raise ValueError(f"t must be in [0, 1], got {bad}")
    polys = _exact_basis(*r.exponents)
    if polys is None:
        return _opitz_basis(r, t)
    return horner_table(polys, t)


def chebyshev_basis(lam, a, b, k, t):
    """Normalized basis of span(t^{lambda-induced powers}) on [a, b], a > 0;
    the partition's stored length (trailing zeros included) sets the order n.

    B_k(t) = [f_lam(n+1)/f_lam0(n)] * C(n,k) (t-a)^k (b-t)^{n-k} / (b-a)^n
             * S_lam0(a^{n-k}, b^k) * t^{lambda_1}
             * S_lam(a^{n-k}, b^k, ab/t)
             / (S_lam(a^{n+1-k}, b^k) S_lam(a^{n-k}, b^{k+1}))

    and converges to H_k on a -> 0 (after mapping lam to exponents)."""
    lam = lam if isinstance(lam, RealPartition) else RealPartition(partition_parts(lam))
    n = lam.n
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got [{a}, {b}]")
    if not a <= t <= b:
        raise ValueError(f"t={t} outside [{a}, {b}]")
    if n == 0:
        return 1 if all_exact((a, b, t)) else 1.0
    if is_exact(t):
        t = Fraction(t)     # t^{lambda_1} stays exact for lambda_1 < 0
    parts = lam.parts
    lam0 = parts[1:]
    head = exact_div(dimension(parts, n + 1), dimension(lam0, n))
    bern = comb(n, k) * exact_div(
        (t - a) ** k * (b - t) ** (n - k), (b - a) ** n)
    num = (schur(lam0, (a,) * (n - k) + (b,) * k)
           * t ** parts[0]
           * schur(parts, (a,) * (n - k) + (b,) * k + (exact_div(a * b, t),)))
    den = (schur(parts, (a,) * (n + 1 - k) + (b,) * k)
           * schur(parts, (a,) * (n - k) + (b,) * (k + 1)))
    if den == 0:
        raise SingularityError("Schur denominator vanished in the [a,b] basis")
    return head * bern * exact_div(num, den)


def elementary_exponents(l, n):
    """Exponents of the space whose partition is (1^l): skip exponent l in
    0..n+1."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    return ExponentSequence([j for j in range(n + 2) if j != l])


def complete_exponents(l, n):
    """Exponents of the space whose partition is the single row (l):
    (0, l+1, .., l+n)."""
    if l < 1 or n < 1:
        raise ValueError(f"need l >= 1 and n >= 1, got l={l}, n={n}")
    return ExponentSequence([0] + [l + j for j in range(1, n + 1)])


def hook_exponents(l, m, n):
    """Exponents of the space whose partition is the hook (l | m):
    (0, l+1, .., l+m, l+m+2, .., l+n+1)."""
    if l < 1 or not 0 < m < n:
        raise ValueError(f"need l >= 1 and 0 < m < n, got l={l}, m={m}, n={n}")
    return ExponentSequence(
        [0] + [l + j for j in range(1, m + 1)] + [l + j + 1 for j in range(m + 1, n + 1)])


def hodograph_data(exponents):
    """Ingredients of the derivative expansion P'(t) = sum D_k H_k' Delta P.

    Returns (case, reduced_exponents, coefficients):

     * r_1 = 1: reduced space (0, r_2 - 1, .., r_n - 1) of order n-1;
       coefficient D_k multiplies Delta P_k against the reduced H_k,
       k = 0..n-1.
     * r_1 > 1: reduced space (0, r_1 - 1, .., r_n - 1) of order n;
       coefficient D_k multiplies Delta P_{k-1} against the reduced H_k,
       k = 1..n (so P'(0) = 0).

    Both cases list the same n products,
    r_m..r_n / ((r_{m+1} - 1)..(r_n - 1)) for m = 1..n.
    r_1 < 1 is not covered by the theory implemented here."""
    r = as_exponents(exponents)
    n = r.n
    if n == 0:
        raise ValueError("constant space has a trivial derivative")
    if r[1] < 1:
        raise NotImplementedError("derivative formulas need r_1 >= 1")
    exact = all_exact(r.exponents)
    coeffs = []
    for m in range(1, n + 1):
        c = Fraction(1) if exact else 1.0
        for j in range(m, n + 1):
            c = c * r[j]
        for j in range(m + 1, n + 1):
            c = c / (r[j] - 1)
        coeffs.append(simplify(c) if exact else c)
    first = 2 if r[1] == 1 else 1
    reduced = ExponentSequence([0] + [r[j] - 1 for j in range(first, n + 1)])
    return ("unit" if first == 2 else "shifted"), reduced, tuple(coeffs)


def basis_derivative(exponents, k, t):
    """d/dt H^n_k(t), the coefficient of p_k in the hodograph: with G the
    reduced basis of `hodograph_data`, D_{k-1} G_{k-1} - D_k G_k when
    r_1 = 1 and D_k G_k - D_{k+1} G_{k+1} when r_1 > 1, where a term
    without a coefficient D is zero.  H_n = t^{r_n} has an unbounded
    derivative at t = 0 when r_n < 1, which raises SingularityError."""
    r = as_exponents(exponents)
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if not 0 <= t <= 1:
        raise ValueError(f"t must be in [0, 1], got {t}")
    if n == 0:
        return 0 if is_exact(t) else 0.0
    if k == n:
        if t == 0 and r[n] < 1:
            raise SingularityError(
                f"d/dt t^{r[n]} is unbounded at t = 0 (exponent below 1)")
        return r[n] * t ** (r[n] - 1)
    case, reduced, coeffs = hodograph_data(r)
    first = 0 if case == "unit" else 1      # coeffs[i] is D_{first + i}
    values = basis_values(reduced, t)

    def term(j):
        i = j - first
        return coeffs[i] * values[j] if 0 <= i < n else 0

    j = k - 1 + first
    return term(j) - term(j + 1)
