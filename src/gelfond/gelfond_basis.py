"""The normalized basis H^n_k of a Muntz space span(1, t^{r_1}, .., t^{r_n})
on [0, 1], plus its general-interval relative for spaces spanned by real
powers on [a, b] with a > 0.

Routes:

 * both kinds of exponents share the divided-difference form

     H_k(t) = (-1)^{n-k} r_{k+1} .. r_n [r_k, .., r_n] f_t,   f_t(x) = t^x.

 * integer exponents: H_k is an honest polynomial.  Expanding the divided
   difference into partial fractions gives one rational coefficient per
   exponent r_k..r_n, so `basis_polynomial` builds H_k exactly in O(n^2)
   operations, once per (exponents, k), and caches it.
 * real exponents: the divided difference above (`gelfond_basis_dd`), or
   the Schur-quotient form (`gelfond_basis_schur`)

     H_k(t) = [prod_{i>k} r_i/(r_i - r_k)] t^{r_k} (1-t)^{n-k}
              * S_{(lambda_{k+1..n})}(1, t, .., t) / S_{(lambda_{k+2..n})}(t, .., t)

   with n-k copies of t, which is also exact for integer exponents at
   rational t.

H_k(0) and H_k(1) are delta values; t = 0 is short-circuited because the
Schur quotient there is a 0/0 limit (resolved by the splitting limit, which
is exactly what the short-circuit encodes).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .arith import SingularityError, all_exact, exact_div, is_exact, power, simplify
from .divided_diff import exponential_dd
from .partitions import (ExponentSequence, RealPartition, as_exponents,
                         hook_partition_dimension, dimension,
                         partition_from_exponents, partition_parts)
from .polynomials import Poly, horner_table
from .schur import schur


def _prefactor(r, k):
    """prod_{i=k+1}^{n} r_i / (r_i - r_k), as pairwise ratios so neither
    product is formed alone."""
    n = r.n
    out = Fraction(1) if all_exact(r.exponents) else 1.0
    for i in range(k + 1, n + 1):
        out = out * r[i] / (r[i] - r[k])
    return out


def gelfond_basis_schur(exponents, k, t):
    """Schur-quotient evaluation; works for real exponents, exact for
    integer exponents with rational t."""
    r = as_exponents(exponents)
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if n == 0:
        return 1 if is_exact(t) else 1.0
    if k == n:
        return power(t, r[n])
    if t == 0:
        one = 1 if is_exact(t) else 1.0
        return one if k == 0 else 0 * one
    if not t > 0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    lam = partition_from_exponents(r).parts
    m = n - k
    num = schur(lam[k:], (1,) + (t,) * m)
    den = schur(lam[k + 1:], (t,) * m)
    if den == 0:
        raise SingularityError(f"Schur denominator vanished at t={t}")
    return (_prefactor(r, k) * power(t, r[k]) * power(1 - t, m)
            * exact_div(num, den))


def gelfond_basis_dd(exponents, k, t):
    """Divided-difference evaluation, the other real-exponent route."""
    r = as_exponents(exponents)
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if n == 0:
        return 1 if is_exact(t) else 1.0
    if k == n:
        return power(t, r[n])
    if t == 0:
        one = 1 if is_exact(t) else 1.0
        return one if k == 0 else 0 * one
    coeff = 1
    for i in range(k + 1, n + 1):
        coeff = coeff * r[i]
    value = coeff * exponential_dd(r.exponents[k:], t)
    return -value if (n - k) % 2 else value


@lru_cache(maxsize=None)
def _basis_poly_cached(r_tuple, k):
    tail = r_tuple[k:]
    top = prod(tail[1:])
    if len(tail) % 2 == 0:
        top = -top
    coeffs = [0] * (tail[-1] + 1)
    for x in tail:
        coeffs[x] = Fraction(top, prod(x - y for y in tail if y != x))
    return Poly(coeffs)


def basis_polynomial(exponents, k):
    """Exact polynomial form of H_k for integer exponents (cached), from
    the partial-fraction form of its divided difference:

        H_k = (-1)^{n-k} r_{k+1} .. r_n
              sum_{i=k}^{n} t^{r_i} / prod_{j=k..n, j != i} (r_i - r_j)."""
    r = as_exponents(exponents)
    if not r.is_integer():
        raise ValueError("polynomial form requires integer exponents")
    if not 0 <= k <= r.n:
        raise ValueError(f"basis index {k} outside 0..{r.n}")
    return _basis_poly_cached(tuple(int(x) for x in r.exponents), k)


# Public under both names; the acceptance gate's worked example calls it
# by this one.
basis_polynomial_residues = basis_polynomial


def gelfond_basis(exponents, k, t):
    """H^n_k(t): cached polynomial for integer exponents, Schur quotient
    otherwise."""
    r = as_exponents(exponents)
    if r.is_integer():
        if not 0 <= k <= r.n:
            raise ValueError(f"basis index {k} outside 0..{r.n}")
        return basis_polynomial(r, k)(t)
    return gelfond_basis_schur(r, k, t)


def basis_values(exponents, t):
    """All of H_0(t), ..., H_n(t)."""
    r = as_exponents(exponents)
    return tuple(gelfond_basis(r, k, t) for k in range(r.n + 1))


def basis_values_many(exponents, ts):
    """[list(basis_values(exponents, t)) for t in ts], value for value.

    Integer exponents at float parameters take one batched pass: the cached
    basis polynomials by Horner's rule over all of ts (`horner_table`).
    Any other input runs `basis_values` point by point.  Parameters outside
    [0, 1] raise ValueError."""
    r = as_exponents(exponents)
    ts = list(ts)
    for t in ts:
        if not 0 <= t <= 1:
            raise ValueError(f"t must be in [0, 1], got {t}")
    if not (ts and r.is_integer() and all(isinstance(t, float) for t in ts)):
        return [list(basis_values(r, t)) for t in ts]
    polys = [basis_polynomial(r, k) for k in range(r.n + 1)]
    return horner_table(polys, ts).tolist()


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
    parts = lam.parts
    lam0 = parts[1:]
    head = exact_div(dimension(parts, n + 1), dimension(lam0, n))
    bern = comb(n, k) * exact_div(
        power(t - a, k) * power(b - t, n - k), power(b - a, n))
    num = (schur(lam0, (a,) * (n - k) + (b,) * k)
           * power(t, parts[0])
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


def _bernstein_poly(n, k):
    return comb(n, k) * Poly.monomial(1, k) * Poly([1, -1]) ** (n - k)


def elementary_basis_polynomial(l, n, k):
    """Closed form for the (1^l) space: low indices carry a linear bracket,
    high indices collapse to classical Bernstein polynomials of degree n+1."""
    elementary_exponents(l, n)
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if k >= l:
        return _bernstein_poly(n + 1, k + 1)
    c = Fraction(l - k, l) * comb(n + 1, k)
    bracket = Poly([1, Fraction(n - l + 1, l - k)])
    return c * Poly.monomial(1, k) * Poly([1, -1]) ** (n - k) * bracket


def complete_basis_polynomial(l, n, k):
    """Closed form for the single-row space (l)."""
    complete_exponents(l, n)
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if k >= 1:
        return _bernstein_poly(n + l, k + l)
    tail = Poly([comb(n + j - 1, n - 1) for j in range(l + 1)])
    return Poly([1, -1]) ** n * tail


def hook_basis_polynomial(l, m, n, k):
    """Closed form for the hook space (l | m)."""
    hook_exponents(l, m, n)
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if k > m:
        return _bernstein_poly(l + n + 1, l + k + 1)
    if k == 0:
        # sum_{j=1}^{l+1} f_{(l+1-j)}(n) t^{l+1-j} + t^{l+1} f_{(l|m)}(n)/f_{(1^m)}(n)
        coeffs = [Fraction(0)] * (l + 2)
        for j in range(1, l + 2):
            coeffs[l + 1 - j] = Fraction(comb(n + l - j, l + 1 - j))
        coeffs[l + 1] = Fraction(hook_partition_dimension(l, m, n), comb(n, m))
        return Poly([1, -1]) ** n * Poly(coeffs)
    c = Fraction(m + 1 - k, m + 1 + l) * comb(l + n + 1, l + k)
    bracket = Poly([1, Fraction(n - m, m - k + 1)])
    return c * Poly.monomial(1, l + k) * Poly([1, -1]) ** (n - k) * bracket


def hodograph_data(exponents):
    """Ingredients of the derivative expansion P'(t) = sum D_k H_k' Delta P.

    Returns (case, reduced_exponents, coefficients):

     * r_1 = 1: reduced space (0, r_2 - 1, .., r_n - 1) of order n-1;
       coefficient D_k multiplies Delta P_k against the reduced H_k,
       k = 0..n-1.
     * r_1 > 1: reduced space (0, r_1 - 1, .., r_n - 1) of order n;
       coefficient D_k multiplies Delta P_{k-1} against the reduced H_k,
       k = 1..n (so P'(0) = 0).

    r_1 < 1 is not covered by the theory implemented here."""
    r = as_exponents(exponents)
    n = r.n
    if n == 0:
        raise ValueError("constant space has a trivial derivative")
    if r[1] < 1:
        raise NotImplementedError("derivative formulas need r_1 >= 1")
    exact = all_exact(r.exponents)
    one = Fraction(1) if exact else 1.0
    if r[1] == 1:
        reduced = ExponentSequence([0] + [r[j] - 1 for j in range(2, n + 1)])
        coeffs = []
        for k in range(n):
            c = one
            for j in range(k + 1, n + 1):
                c = c * r[j]
            for j in range(k + 2, n + 1):
                c = c / (r[j] - 1)
            coeffs.append(simplify(c) if exact else c)
        return "unit", reduced, tuple(coeffs)
    reduced = ExponentSequence([0] + [r[j] - 1 for j in range(1, n + 1)])
    coeffs = []
    for k in range(1, n + 1):
        c = one
        for j in range(k, n + 1):
            c = c * r[j]
        for j in range(k + 1, n + 1):
            c = c / (r[j] - 1)
        coeffs.append(simplify(c) if exact else c)
    return "shifted", reduced, tuple(coeffs)


def basis_derivative(exponents, k, t):
    """d/dt H^n_k(t) through the reduced-space recurrences."""
    r = as_exponents(exponents)
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"basis index {k} outside 0..{n}")
    if n == 0:
        return 0 if is_exact(t) else 0.0
    if k == n:
        return r[n] * power(t, r[n] - 1)
    if r[1] < 1:
        raise NotImplementedError("derivative formulas need r_1 >= 1")
    if r[1] == 1:
        reduced = ExponentSequence([0] + [r[j] - 1 for j in range(2, n + 1)])
        if k == 0:
            c = _ratio(r, 2, 2, n)
            return -c * gelfond_basis(reduced, 0, t)
        c = _ratio(r, k + 1, k + 1, n)
        return c * (r[k] * gelfond_basis(reduced, k - 1, t)
                    - (r[k + 1] - 1) * gelfond_basis(reduced, k, t))
    reduced = ExponentSequence([0] + [r[j] - 1 for j in range(1, n + 1)])
    if k == 0:
        c = _ratio(r, 1, 2, n)
        return -c * gelfond_basis(reduced, 1, t)
    c = _ratio(r, k + 1, k + 1, n)
    return c * (r[k] * gelfond_basis(reduced, k, t)
                - (r[k + 1] - 1) * gelfond_basis(reduced, k + 1, t))


def _ratio(r, num_from, den_from, n):
    """prod_{j=num_from}^n r_j / prod_{j=den_from}^n (r_j - 1)."""
    out = Fraction(1) if all_exact(r.exponents) else 1.0
    for j in range(num_from, n + 1):
        out = out * r[j]
    for j in range(den_from, n + 1):
        out = out / (r[j] - 1)
    return out


def vanishing_orders(exponents, k):
    """For integer exponents: the exact multiplicity of the roots of H_k at
    t = 0 and t = 1, read off the polynomial (expected: r_k and n - k)."""
    r = as_exponents(exponents)
    if not r.is_integer():
        raise ValueError("vanishing orders are defined for integer exponents")
    n = r.n
    p = basis_polynomial(r, k)
    at0 = 0
    while p.coefficient(at0) == 0:
        at0 += 1
    at1 = 0
    q = p
    while q(1) == 0:
        at1 += 1
        q = q.derivative()
    return at0, at1
