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

alpha is provably in [0, 1] for the diagonal schedule used here only
through the total positivity of the basis; the implementation checks
alpha in [-1e-12, 1 + 1e-12] at every node, raises SingularityError when
it falls outside (also under `python -O`), and never clamps.
"""

from fractions import Fraction

from .arith import (SingularityError, exact_div, is_exact, lerp, simplify,
                    vec_add, vec_scale, vec_sub)
from .partitions import (as_exponents, dimension, muntz_tableau,
                         partition_from_exponents)
from .schur import schur

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


def pseudo_affinity(exponents, zeros, args, t, schur_values=None,
                    parts=None):
    """alpha(0^zeros, args; 0, 1, t): the de Casteljau weight on [0, 1].

    With lam the space's partition padded by one zero, mu its first
    n-zeros parts and eta the next window (lam_2..lam_{n-zeros+1}),

        alpha = t S_mu(args, t) S_eta(args, 1) / (S_mu(args, 1) S_eta(args, t)).

    `schur_values`, a dict that the nodes of one de Casteljau pyramid
    share, keeps each Schur value under its shape and its points as a
    multiset; Schur functions are symmetric, so a value needed by two
    nodes is computed once and is the same value either way.  `parts`,
    the padded parts of lam, lets a pyramid form the partition once for
    all its nodes.
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
    if parts is None:
        parts = partition_from_exponents(r).parts + (0,)
    mu = parts[:n - j]
    eta = parts[1:n - j + 1]

    def value(shape, last):
        points = args + (last,)
        if schur_values is None:
            return schur(shape, points)
        key = (shape, tuple(sorted(points)))
        if key not in schur_values:
            schur_values[key] = schur(shape, points)
        return schur_values[key]

    num = value(mu, t) * value(eta, 1)
    den = value(mu, 1) * value(eta, t)
    if den == 0:
        raise SingularityError(f"pseudo-affinity denominator vanished at t={t}")
    return t * exact_div(num, den)


def de_casteljau(points, exponents, t):
    """Evaluate by corner cutting; returns (value, pyramid levels).

    Level r, node i uses alpha(0^{n-r-i}, 1^i, t^{r-1}; t), so
    p_i^r = f_P(0^{n-r-i}, 1^i, t, .., t) with r copies of t.  The nodes
    share their Schur values: S_{lam[:m]}(1^{i+1}, t^{m-i-1}), for one,
    serves both node (r, i) and node (r-1, i+1), so a pyramid evaluates
    at most n(n+3) Schur values, not 4 per node, and the space's partition
    is formed once per pyramid.  Real exponents give the pyramid at
    float(t)."""
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
    levels = [points]
    prev = points
    schur_values = {}
    parts = partition_from_exponents(r).parts + (0,)
    for level in range(1, n + 1):
        row = []
        for i in range(n - level + 1):
            args = (1,) * i + (t,) * (level - 1)
            alpha = pseudo_affinity(r, n - level - i, args, t, schur_values,
                                    parts)
            if not -ALPHA_SLACK <= alpha <= 1 + ALPHA_SLACK:
                raise SingularityError(
                    f"pseudo-affinity {alpha} outside [0,1] at level {level}, node {i}")
            row.append(lerp(prev[i], prev[i + 1], alpha))
        prev = tuple(row)
        levels.append(prev)
    return prev[0], levels
