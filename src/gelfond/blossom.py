"""Blossoms of Muntz-space curves and the de Casteljau pyramid.

The blossom f_P of a curve P in span(1, t^{r_1}, .., t^{r_n}) is the
symmetric multi-affine-like functional with f_P(t, .., t) = P(t) and

    p_k = f_P(0^{n-k}, 1^k)        (control points).

Monomials blossom to Schur quotients over the Muntz tableau of the
space's partition; zeros among the arguments are resolved analytically
(the splitting limit makes the tails cancel), which is why the functions
below take a `zeros` count instead of literal 0.0 arguments.

The pseudo-affinity alpha generalizes the barycentric weight of the
classical de Casteljau algorithm: at each pyramid node

    p_i^r = (1 - alpha) p_i^{r-1} + alpha p_{i+1}^{r-1},
    alpha = alpha(0^{n-r-i}, 1^i, t^{r-1}; t).

Every weight of the pyramid is t times two ratios of two-point Schur
values S_w(a, b) = S_{lam[w:w+a+b]}(1^a, t^b), w in {0, 1}, over windows
of the space's partition lam, each ratio within one window;
`de_casteljau` forms each value once (`schur.schur_window`), at a float
t from blocks of one pair of matrix exponentials of the space.  The
pyramid's left edge holds the control points of s -> P(t s), its right
edge those of P on [t, 1] in the Chebyshev-Bernstein basis.

alpha is provably in [0, 1] for the diagonal schedule used here only
through the total positivity of the basis; the implementation checks
alpha in [-1e-12, 1 + 1e-12] at every node, raises SingularityError when
it falls outside (also under `python -O`), and never clamps.  A weight
that is not finite, from a float Schur value that left the float range,
a float Schur value that is 0 or subnormal, and a Schur value that
could not be formed are SingularityErrors naming t.
"""

import math
import sys
from fractions import Fraction

from .arith import (SingularityError, exact_div, is_exact, lerp, simplify,
                    vec_add, vec_scale, vec_sub)
from .partitions import (as_exponents, dimension, muntz_tableau,
                         partition_from_exponents)
from .schur import schur, schur_window

ALPHA_SLACK = 1e-12


def monomial_blossom(exponents, k, args, zeros=0):
    """Blossom of t^{r_k} at (0^zeros, args); args must be positive."""
    r = as_exponents(exponents)
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"monomial index {k} outside 0..{n}")
    args = tuple(args)
    if len(args) + zeros != n:
        raise ValueError(f"blossom needs {n} arguments, got {len(args)} + {zeros} zeros")
    if zeros < 0:
        raise ValueError("negative zero count")
    exact = all(is_exact(x) for x in args) and r.is_integer()
    if k == 0:
        return 1 if exact else 1.0
    if k > n - zeros:
        return 0 if exact else 0.0
    lam = partition_from_exponents(r)
    tableau = muntz_tableau(lam)
    lam_k = (tableau[k].parts + (0,) * n)[:n]
    lam_0 = (tableau[0].parts + (0,) * n)[:n]
    head = exact_div(dimension(lam_0, n), dimension(lam_k, n))
    num = schur(lam_k[:n - zeros], args)
    den = schur(lam_0[:n - zeros], args)
    if den == 0:
        raise SingularityError("blossom denominator vanished")
    return head * exact_div(num, den)


def monomial_control_points(exponents, k):
    """Control points of t^{r_k}: zeros below index k, then the telescoping
    products prod_{i=j+1}^n (1 - r_k/r_i), and finally 1."""
    r = as_exponents(exponents)
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"monomial index {k} outside 0..{n}")
    exact = all(is_exact(x) for x in r.exponents)
    zero = Fraction(0) if exact else 0.0
    out = [zero] * k
    for j in range(k, n):
        p = Fraction(1) if exact else 1.0
        for i in range(j + 1, n + 1):
            p = p * (1 - exact_div(r[k], r[i]))
        out.append(simplify(p) if exact else p)
    out.append(1 if exact else 1.0)
    return tuple(out)


def control_points_from_coefficients(coeffs, exponents):
    """Control points of P(t) = a_0 + sum a_k t^{r_k}; coefficients may be
    scalars or same-length tuples."""
    r = as_exponents(exponents)
    n = r.n
    coeffs = tuple(coeffs)
    if len(coeffs) != n + 1:
        raise ValueError(f"expected {n + 1} coefficients, got {len(coeffs)}")
    columns = [monomial_control_points(r, k) for k in range(n + 1)]
    points = []
    for j in range(n + 1):
        p = vec_scale(columns[0][j], coeffs[0])
        for k in range(1, n + 1):
            if columns[k][j]:
                p = vec_add(p, vec_scale(columns[k][j], coeffs[k]))
        points.append(p)
    return tuple(points)


def coefficients_from_control_points(points, exponents):
    """Invert the triangular relation between control points and monomial
    coefficients (the diagonal entries are nonzero products)."""
    r = as_exponents(exponents)
    n = r.n
    points = tuple(points)
    if len(points) != n + 1:
        raise ValueError(f"expected {n + 1} control points, got {len(points)}")
    columns = [monomial_control_points(r, k) for k in range(n + 1)]
    coeffs = []
    for j in range(n + 1):
        acc = points[j]
        for k in range(j):
            if columns[k][j]:
                acc = vec_sub(acc, vec_scale(columns[k][j], coeffs[k]))
        diag = columns[j][j]
        coeffs.append(vec_scale(exact_div(1, diag), acc))
    return tuple(coeffs)


def blossom_value(coeffs, exponents, args, zeros=0):
    """f_P(0^zeros, args) for P given by monomial coefficients."""
    r = as_exponents(exponents)
    n = r.n
    coeffs = tuple(coeffs)
    if len(coeffs) != n + 1:
        raise ValueError(f"expected {n + 1} coefficients, got {len(coeffs)}")
    out = coeffs[0]
    for k in range(1, n + 1):
        w = monomial_blossom(r, k, args, zeros)
        if w:
            out = vec_add(out, vec_scale(w, coeffs[k]))
    return out


def _alpha(t, mu_t, eta_1, mu_1, eta_t):
    """t (S_mu(args, t) / S_mu(args, 1)) (S_eta(args, 1) / S_eta(args, t))
    from its four Schur values (`pseudo_affinity` names them).  Each ratio
    holds two values of one shape, so no product of two values is formed:
    it could leave the float range where the values and the weight do
    not.  A zero denominator, a float value that is 0 or subnormal (its
    digits are gone) and a weight that is not finite (inf or nan) raise
    SingularityError naming t."""
    if mu_1 == 0 or eta_t == 0:
        raise SingularityError(f"pseudo-affinity denominator vanished at t={t}")
    for value in (mu_t, eta_1, mu_1, eta_t):
        if not is_exact(value) and abs(value) < sys.float_info.min:
            raise SingularityError(
                f"a Schur value of the pseudo-affinity at t={t} is {value}, "
                f"below the normal float range")
    alpha = t * exact_div(mu_t, mu_1) * exact_div(eta_1, eta_t)
    if not -math.inf < alpha < math.inf:
        raise SingularityError(f"pseudo-affinity {alpha} is not finite at t={t}")
    return alpha


def pseudo_affinity(exponents, zeros, args, t):
    """alpha(0^zeros, args; 0, 1, t): the de Casteljau weight on [0, 1].

    With lam the space's partition padded by one zero, mu its first
    n-zeros parts and eta the next window (lam_2..lam_{n-zeros+1}),

        alpha = t S_mu(args, t) S_eta(args, 1) / (S_mu(args, 1) S_eta(args, t)).
    """
    r = as_exponents(exponents)
    n = r.n
    args = tuple(args)
    j = zeros
    if len(args) + j + 1 != n:
        raise ValueError(f"pseudo-affinity needs {n - 1} arguments total")
    if t == 0:
        return 0 if is_exact(t) else 0.0
    if not 0 < t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    parts = partition_from_exponents(r).parts + (0,)
    mu = parts[:n - j]
    eta = parts[1:n - j + 1]
    return _alpha(t, schur(mu, args + (t,)), schur(eta, args + (1,)),
                  schur(mu, args + (1,)), schur(eta, args + (t,)))


def de_casteljau(points, exponents, t):
    """Evaluate by corner cutting; returns (value, pyramid levels).

    Level L, node i uses alpha(0^{n-L-i}, 1^i, t^{L-1}; t), so
    p_i^L = f_P(0^{n-L-i}, 1^i, t, .., t) with L copies of t.  Its four
    Schur values are two-point values of windows of lam, the space's
    partition padded by one zero:

        S_w(a, b) = S_{lam[w:w+a+b]}(1^a, t^b),     w in {0, 1},
        alpha = t (S_0(i, L) / S_0(i+1, L-1)) (S_1(i+1, L-1) / S_1(i, L)).

    Each S_w(a, b) is formed once per pyramid, on first use, by
    `schur.schur_window`: S_0(i+1, L-1), for one, serves both node (L, i)
    and node (L-1, i+1), so a pyramid evaluates at most n(n+3) Schur
    values, not 4 per node.  At a float t inside (0, 1) every two-point
    value is a minor of a principal block of one scaled Opitz pair, that
    of the space's ladder, so the pyramid forms one matrix exponential
    pair.  At t = 0 and at t = 1 every alpha is t and no Schur value is
    formed.  Real exponents give the pyramid at float(t)."""
    r = as_exponents(exponents)
    n = r.n
    points = tuple(points)
    if len(points) != n + 1:
        raise ValueError(f"expected {n + 1} control points, got {len(points)}")
    if not 0 <= t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    if not r.is_integer():
        # at an exact t only the integral shapes would be exact, and the
        # levels would differ from those at float(t) in the last bits
        t = float(t)
    parts = partition_from_exponents(r).parts + (0,)
    table = {}

    def S(w, a, b):
        if (w, a, b) not in table:
            try:
                table[w, a, b] = schur_window(parts, w, a, b, t)
            except SingularityError as error:
                raise SingularityError(
                    f"de Casteljau pyramid at t={t}: {error}") from None
        return table[w, a, b]

    # at either end every weight is t; an exact 1 is the Fraction that
    # the ratio of Schur values gives
    end = None
    if t == 0:
        end = 0 if is_exact(t) else 0.0
    elif t == 1:
        end = Fraction(1) if is_exact(t) else 1.0
    levels = [points]
    prev = points
    for level in range(1, n + 1):
        row = []
        for i in range(n - level + 1):
            if end is not None:
                alpha = end
            else:
                alpha = _alpha(t, S(0, i, level), S(1, i + 1, level - 1),
                               S(0, i + 1, level - 1), S(1, i, level))
            if not -ALPHA_SLACK <= alpha <= 1 + ALPHA_SLACK:
                raise SingularityError(
                    f"pseudo-affinity {alpha} outside [0,1] at level {level}, node {i}")
            row.append(lerp(prev[i], prev[i + 1], alpha))
        prev = tuple(row)
        levels.append(prev)
    return prev[0], levels
