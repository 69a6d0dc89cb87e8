"""Cross-check routes that only the test suite runs.

Each function here computes a quantity that `gelfond` computes by one
production route, but by an independent formula, so that tests can hold
the two against each other:

 * partition combinatorics: conjugates, hook lengths, contents,
   containment and the Frobenius form, the hook-content product for the
   dimension f_lambda(n) (`partitions.dimension` uses the pairwise
   product), and the interlacing partitions of one-variable branching;
 * symmetric functions: h_r and e_r, Jacobi-Trudi det(h_{lambda_i - i + j})
   (the exact route `schur` took for integer partitions before the
   bialternant ran on integer points), Nagelsbach-Kostka, Giambelli over
   hook Schur values, skew Jacobi-Trudi, semistandard tableau sums
   (straight and skew), branching over interlacing partitions and
   written with skew shapes, and the splitting limit;
 * divided differences of t^x: the partial-fraction sum, the recursion
   with confluent blocks and their dispatch by the smallest gap
   (`exponential_dd`), the basis H_k as one such divided difference
   (`gelfond_basis_dd`), the generic recursion on any callable, and the
   shift and derivative identities of [x_0..x_s] t^x;
 * the closed-form basis polynomials of the elementary, complete and hook
   families, and the vanishing orders of H_k at 0 and 1;
 * the variation-diminishing count of hyperplane crossings;
 * the CSV tables of `basis` and `curve` by the per-field route: basis
   values one parameter at a time, the curve as the basis sum over
   `basis_values` by `vec_scale` and `vec_add`, and each field formatted
   by `cli._fmt17` and joined;
 * reference copies of the bialternant and the determinant as they were
   before the per-shape ladder cache and the lean elimination loop
   (`reference_bialternant`, `reference_confluent_quotient`,
   `reference_det`), and of the product formula at one float point value
   (`reference_one_valued`): the same operations in the same order,
   re-derived on every call, so that tests can pin the production bytes
   to them.  Float values at two point values left this route for the
   minors of one matrix exponential; `reference_bialternant` still takes
   the old route there, and tests hold those values against
   `mp_two_point`, the confluent bialternant in mpmath.

Conventions: h_m = e_m = 0 for m < 0, and hook Schur values with a
negative arm or leg are 0, so the determinant and branching formulas
close over edge cases without special-casing callers.  Evaluation points
must be positive; the splitting limit is the only way these routes send
points to zero.

Tests import this module as `oracles` (pytest puts `tests/` on
`sys.path`); nothing under `src/` imports it.
"""

import decimal
import math
from fractions import Fraction
from math import comb, factorial

import mpmath

from gelfond.arith import (all_exact, as_point, det, exact_div,
                           falling_factorial, is_exact, is_integral, simplify,
                           vec_add, vec_scale)
from gelfond.cli import _fmt17, _parameter_grid
from gelfond.gelfond_basis import (_oracle_shortcut, basis_polynomial,
                                   basis_values, complete_exponents,
                                   elementary_exponents, hook_exponents)
from gelfond.partitions import (FLOAT_SLACK, IntegerPartition, RealPartition,
                                _strip_zeros, as_exponents, partition_parts)
from gelfond.polynomials import Poly
from gelfond.schur import _check_points, _decimal_power, schur


# -- partitions ------------------------------------------------------------

def conjugate(lam):
    """The conjugate of an IntegerPartition: column lengths of its diagram."""
    if not lam.parts:
        return IntegerPartition(())
    return IntegerPartition(
        sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0]))


def contains(lam, other):
    """True when the diagram of `other` lies inside that of `lam`."""
    mu = tuple(int(p) for p in other)
    for i, m in enumerate(mu):
        p = lam.parts[i] if i < len(lam.parts) else 0
        if m > p:
            return False
    return True


def hooks(lam):
    """Hook lengths h(i,j) = lambda_i + lambda'_j - i - j - 1 (0-based),
    returned as rows matching the diagram."""
    conj = conjugate(lam).parts
    return tuple(
        tuple(p + conj[j] - i - j - 1 for j in range(p))
        for i, p in enumerate(lam.parts))


def contents(lam):
    """Contents c(i,j) = j - i (0-based), as diagram rows."""
    return tuple(
        tuple(j - i for j in range(p)) for i, p in enumerate(lam.parts))


def frobenius(lam):
    """Arm/leg coordinates (alpha | beta) along the main diagonal."""
    conj = conjugate(lam).parts
    d = sum(1 for i, p in enumerate(lam.parts) if p > i)
    alphas = tuple(lam.parts[i] - i - 1 for i in range(d))
    betas = tuple(conj[i] - i - 1 for i in range(d))
    return alphas, betas


def from_frobenius(alphas, betas):
    """The IntegerPartition with Frobenius coordinates (alphas | betas)."""
    alphas = tuple(int(a) for a in alphas)
    betas = tuple(int(b) for b in betas)
    if len(alphas) != len(betas):
        raise ValueError("Frobenius coordinates need equal lengths")
    d = len(alphas)
    if any(a < 0 for a in alphas + betas):
        raise ValueError("Frobenius coordinates must be nonnegative")
    if any(x <= y for x, y in zip(alphas, alphas[1:])):
        raise ValueError("alpha coordinates must strictly decrease")
    if any(x <= y for x, y in zip(betas, betas[1:])):
        raise ValueError("beta coordinates must strictly decrease")
    rows = [alphas[i] + i + 1 for i in range(d)]
    # leg lengths fix the column heights below the diagonal
    col = [betas[j] + j + 1 for j in range(d)]
    length = col[0] if d else 0
    parts = rows + [0] * (length - d)
    for j in range(d):
        for i in range(d, col[j]):
            parts[i] += 1
    return IntegerPartition(parts)


def hook_dimension(lam, n):
    """Number of semistandard tableaux with entries <= n: the product of
    (n + content)/(hook length) over the diagram.  Zero when the diagram
    has more than n rows."""
    lam = lam if isinstance(lam, IntegerPartition) else IntegerPartition(partition_parts(lam))
    if len(lam) > n:
        return 0
    num = 1
    den = 1
    for hrow, crow in zip(hooks(lam), contents(lam)):
        for h, c in zip(hrow, crow):
            num *= n + c
            den *= h
    out = Fraction(num, den)
    assert out.denominator == 1
    return int(out)


def hook_partition_dimension(arm, leg, n):
    """f for the hook (arm | leg): (n/(arm+leg+1)) C(n+arm, arm) C(n-1, leg)."""
    if arm < 0 or leg < 0:
        return 0
    if leg + 1 > n:
        return 0
    out = Fraction(n, arm + leg + 1) * comb(n + arm, arm) * comb(n - 1, leg)
    assert out.denominator == 1
    return int(out)


def interlacing_partitions(mu):
    """All integer partitions eta with mu_{i+1} <= eta_i <= mu_i.

    These index the one-variable branching of Schur functions; eta runs
    over partitions whose diagram interlaces mu's (a horizontal strip is
    removed)."""
    parts = _strip_zeros(int(p) for p in partition_parts(mu))
    if not parts:
        yield IntegerPartition(())
        return
    bounds = []
    for i, p in enumerate(parts):
        lo = parts[i + 1] if i + 1 < len(parts) else 0
        bounds.append((lo, p))

    def rec(i, chosen):
        if i == len(bounds):
            yield IntegerPartition(chosen)
            return
        lo, hi = bounds[i]
        for v in range(hi, lo - 1, -1):
            yield from rec(i + 1, chosen + [v])

    yield from rec(0, [])


# -- Schur functions ---------------------------------------------------------

def _complete_table(pts, max_degree):
    # generating function prod 1/(1 - u x); one dp pass per variable
    h = [1] + [0] * max_degree
    for u in pts:
        for m in range(1, max_degree + 1):
            h[m] = h[m] + u * h[m - 1]
    return h


def schur_jacobi_trudi(lam, points):
    """det(h_{lambda_i - i + j}) over i, j = 1..l(lambda), with h_m the
    complete homogeneous values of the points and h_{<0} = 0."""
    parts = IntegerPartition(partition_parts(lam)).parts
    pts = _check_points(points)
    l = len(parts)
    if l == 0:
        return 1
    h = _complete_table(pts, parts[0] + l - 1)
    rows = [[h[parts[i] - i + j] if parts[i] - i + j >= 0 else 0
             for j in range(l)] for i in range(l)]
    return det(rows, all_exact(pts))


def complete_homogeneous(r, points):
    """h_r(points): sum of all monomials of degree r.  h_0 = 1, h_{<0} = 0."""
    if r < 0:
        return 0
    return _complete_table(_check_points(points), r)[r]


def elementary(r, points):
    """e_r(points): sum of squarefree monomials of degree r.  e_0 = 1,
    e_{<0} = 0."""
    if r < 0:
        return 0
    return _elementary_table(_check_points(points), r)[r]


def _elementary_table(pts, max_degree):
    e = [1] + [0] * max_degree
    for u in pts:
        for m in range(min(max_degree, len(pts)), 0, -1):
            e[m] = e[m] + u * e[m - 1]
    return e


def schur_nagelsbach_kostka(lam, points):
    """det(e_{lambda'_i - i + j}) over the conjugate partition."""
    conj = conjugate(IntegerPartition(partition_parts(lam))).parts
    pts = _check_points(points)
    l = len(conj)
    if l == 0:
        return 1
    top = conj[0] + l - 1
    e = _elementary_table(pts, top)
    rows = [[e[conj[i] - i + j] if conj[i] - i + j >= 0 else 0
             for j in range(l)] for i in range(l)]
    return det(rows, all_exact(pts))


def hook_schur(arm, leg, points):
    """S at the hook (arm | leg): sum_{j=0}^{leg} (-1)^j h_{arm+1+j} e_{leg-j}.

    Negative arm or leg gives 0 by convention."""
    if arm < 0 or leg < 0:
        return 0
    pts = _check_points(points)
    h = _complete_table(pts, arm + 1 + leg)
    e = _elementary_table(pts, leg)
    out = 0
    for j in range(leg + 1):
        term = h[arm + 1 + j] * e[leg - j]
        out = out + term if j % 2 == 0 else out - term
    return out


def schur_giambelli(lam, points):
    """det(S_{(alpha_i | beta_j)}) over the Frobenius coordinates."""
    lam = IntegerPartition(partition_parts(lam))
    pts = _check_points(points)
    alphas, betas = frobenius(lam)
    d = len(alphas)
    if d == 0:
        return 1
    rows = [[hook_schur(alphas[i], betas[j], pts) for j in range(d)]
            for i in range(d)]
    return det(rows, all_exact(pts))


def schur_tableaux(lam, points):
    """Brute-force sum over semistandard tableaux of shape lambda with
    entries in 1..len(points): the skew sum with mu empty.  Exponential
    in the weight."""
    return skew_schur_tableaux(lam, (), points)


def skew_schur(lam, mu, points):
    """S_{lambda/mu} via det(h_{lambda_i - mu_j - i + j}); zero when mu is
    not contained in lambda."""
    lam = IntegerPartition(partition_parts(lam))
    mu = IntegerPartition(partition_parts(mu))
    pts = _check_points(points)
    l = len(lam)
    if l == 0:
        return 1 if len(mu) == 0 else 0
    if not contains(lam, mu):
        return 0
    mu_parts = mu.parts + (0,) * (l - len(mu))
    top = lam.parts[0] + l - 1
    h = _complete_table(pts, top)
    rows = [[h[lam.parts[i] - mu_parts[j] - i + j]
             if 0 <= lam.parts[i] - mu_parts[j] - i + j <= top else 0
             for j in range(l)] for i in range(l)]
    return det(rows, all_exact(pts))


def skew_schur_tableaux(lam, mu, points):
    """Brute-force skew tableau sum, the oracle for skew_schur."""
    lam = IntegerPartition(partition_parts(lam))
    mu = IntegerPartition(partition_parts(mu))
    pts = _check_points(points)
    if not contains(lam, mu):
        return 0
    m = len(pts)
    mu_parts = mu.parts + (0,) * (len(lam) - len(mu))
    cells = [(i, j) for i, p in enumerate(lam.parts)
             for j in range(mu_parts[i], p)]
    tab = {}
    total = 0

    def rec(idx):
        nonlocal total
        if idx == len(cells):
            w = 1
            for cell in cells:
                w = w * pts[tab[cell] - 1]
            total = total + w
            return
        i, j = cells[idx]
        lo = 1
        if (i, j - 1) in tab:
            lo = tab[(i, j - 1)]
        if (i - 1, j) in tab:
            lo = max(lo, tab[(i - 1, j)] + 1)
        for v in range(lo, m + 1):
            tab[(i, j)] = v
            rec(idx + 1)
        tab.pop((i, j), None)

    rec(0)
    return total


def branch_last_variable(lam, points, last):
    """S_lambda(points, last) = sum over interlacing eta of
    S_eta(points) last^{|lambda| - |eta|}.

    Splitting off the t's one at a time reduces every two-point value
    S_lambda(1^a, t^b) of the de Casteljau pyramid to values S_eta(1^a),
    the dimensions f_eta(a); the production pyramid takes each value from
    `schur` instead."""
    lam = IntegerPartition(partition_parts(lam))
    if not last > 0:
        raise ValueError("the split-off variable must be positive")
    w = lam.weight()
    out = 0
    for eta in interlacing_partitions(lam):
        out = out + schur(eta, points) * last ** (w - eta.weight())
    return out


def branch_last_variable_skew(lam, points, last):
    """One-variable branching written with skew shapes:
    S_lambda(points, last) = sum_j S_{lambda/(j)}(points) last^j."""
    lam = IntegerPartition(partition_parts(lam))
    if not last > 0:
        raise ValueError("the split-off variable must be positive")
    top = lam.parts[0] if len(lam) else 0
    out = 0
    for j in range(top + 1):
        out = out + skew_schur(lam, (j,), points) * last ** j
    return out


def split_partition(eta, k, h):
    """Split eta (padded to k+h parts) into its first k and last h parts;
    both blocks inherit the real-partition chain."""
    parts = partition_parts(eta)
    if len(parts) > k + h:
        raise ValueError(f"partition has more than {k + h} parts")
    parts = parts + (0,) * (k + h - len(parts))
    return RealPartition(parts[:k]), RealPartition(parts[k:])


def splitting_limit(eta, z, y):
    """lim_{eps -> 0} S_eta(z, eps y) / eps^{|mu|} = S_lambda(z) S_mu(y),
    where lambda is the first |z| parts of eta and mu the remaining |y|."""
    z = _check_points(z)
    y = _check_points(y)
    lam, mu = split_partition(eta, len(z), len(y))
    return schur(lam, z) * schur(mu, y)


# -- divided differences -----------------------------------------------------

# exponential_dd takes the recursion once two nodes are closer than this
MIN_GAP = 1e-3


def _check_t(t):
    """t, made a Fraction when it is exact: an int raised to a negative
    node would give a float."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    return Fraction(t) if is_exact(t) else t


def exponential_dd_naive(nodes, t):
    """Partial-fraction form over pairwise distinct nodes,

        [x_0..x_s] f_t = sum_i t^{x_i} / prod_{j != i} (x_i - x_j),

    exact for rational t and integer nodes."""
    t = _check_t(t)
    xs = tuple(nodes)
    if not xs:
        raise ValueError("at least one node required")
    if len(set(xs)) != len(xs):
        raise ValueError("naive form needs distinct nodes")
    out = 0
    for i, xi in enumerate(xs):
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                den = den * (xi - xj)
        out = out + exact_div(t ** xi, den)
    return simplify(out)


def exponential_dd_recursive(nodes, t):
    """Recursion with confluent blocks.

    Nodes are sorted so repeats are adjacent; a block of m+1 equal nodes x
    contributes f^{(m)}(x)/m! = t^x ln(t)^m / m!.  Repeats therefore force
    the float route (ln), while distinct exact inputs stay exact."""
    t = _check_t(t)
    xs = tuple(sorted(nodes))
    if not xs:
        raise ValueError("at least one node required")
    memo = {}

    def dd(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if xs[i] == xs[j]:
            m = j - i
            if m == 0:
                val = t ** xs[i]
            else:
                val = (float(t ** xs[i]) * math.log(float(t)) ** m
                       / math.factorial(m))
        else:
            val = exact_div(dd(i + 1, j) - dd(i, j - 1), xs[j] - xs[i])
        memo[(i, j)] = val
        return val

    out = dd(0, len(xs) - 1)
    return simplify(out)


def exponential_dd(nodes, t):
    """[x_0..x_s] t^x by the naive sum unless nodes repeat or the smallest
    gap drops below MIN_GAP: the sum's cancellation blows up roughly like
    1/gap, the recursion degrades much more gently."""
    xs = tuple(nodes)
    if not xs:
        raise ValueError("at least one node required")
    s = sorted(xs)
    gaps = [b - a for a, b in zip(s, s[1:])]
    if any(g == 0 for g in gaps) or any(g < MIN_GAP for g in gaps):
        return exponential_dd_recursive(xs, t)
    return exponential_dd_naive(xs, t)


def gelfond_basis_dd(exponents, k, t):
    """H_k(t) = (-1)^{n-k} r_{k+1} .. r_n [r_k, .., r_n] t^x with one
    divided difference by `exponential_dd`, the reference that the Opitz
    kernel and the Schur route are checked against; exact for integer
    exponents at rational t."""
    r = as_exponents(exponents)
    value = _oracle_shortcut(r, k, t)
    if value is not None:
        return value
    coeff = 1
    for i in range(k + 1, r.n + 1):
        coeff = coeff * r[i]
    value = coeff * exponential_dd(r.exponents[k:], t)
    return -value if (r.n - k) % 2 else value


def divided_difference(nodes, f):
    """Recursive divided difference of an arbitrary callable on distinct
    nodes."""
    xs = tuple(nodes)
    if not xs:
        raise ValueError("at least one node required")
    if len(set(xs)) != len(xs):
        raise ValueError("repeated nodes are only supported for f_t(x) = t**x")
    table = [f(x) for x in xs]
    for level in range(1, len(xs)):
        table = [exact_div(table[i + 1] - table[i], xs[i + level] - xs[i])
                 for i in range(len(table) - 1)]
    return table[0]


def exponential_dd_shifted(nodes, t):
    """Shift identity: [x_0..x_s] f_t = t^{x_0} [0, x_1-x_0, ..] f_t.

    Nodes are sorted first so x_0 is the minimum."""
    xs = tuple(sorted(nodes))
    if not xs:
        raise ValueError("at least one node required")
    x0 = xs[0]
    return _check_t(t) ** x0 * exponential_dd([x - x0 for x in xs], t)


def exponential_dd_derivative(nodes, t):
    """d/dt [x_0..x_s] f_t = x_0 [x_0-1, .., x_s-1] f_t + [x_1-1, .., x_s-1] f_t.

    Nodes are sorted ascending before applying the identity."""
    xs = tuple(sorted(nodes))
    if not xs:
        raise ValueError("at least one node required")
    _check_t(t)
    first = exponential_dd([x - 1 for x in xs], t)
    if len(xs) == 1:
        return xs[0] * first
    second = exponential_dd([x - 1 for x in xs[1:]], t)
    return xs[0] * first + second


# -- basis polynomials -------------------------------------------------------

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


def vanishing_orders(exponents, k):
    """For integer exponents: the exact multiplicity of the roots of H_k at
    t = 0 and t = 1, read off the polynomial (expected: r_k and n - k)."""
    r = as_exponents(exponents)
    if not r.is_integer():
        raise ValueError("vanishing orders are defined for integer exponents")
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


# -- curves ------------------------------------------------------------------

def hyperplane_crossings(curve, normal, offset, samples=401):
    """Variation diminishing diagnostic: sign changes of <normal, x> - offset
    along the sampled curve and along the control polygon.

    Exact zeros are jittered by 1e-12 before counting, so tangencies count
    as either 0 or 2 crossings, never as an ill-defined sign."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    a, b = curve.interval
    normal = as_point(normal)

    def height(p):
        if isinstance(p, tuple):
            return sum(float(w) * float(c) for w, c in zip(normal, p, strict=True)) - float(offset)
        return float(normal) * float(p) - float(offset)

    def count(vals):
        vals = [v if v != 0.0 else 1e-12 for v in vals]
        return sum(1 for u, v in zip(vals, vals[1:]) if u * v < 0)

    # capped at b: with float endpoints the rounded last step overshoots,
    # e.g. 0.3 + (0.9 - 0.3) > 0.9
    ts = [min(a + (b - a) * i / (samples - 1), b) for i in range(samples)]
    curve_vals = [height(p) for p in curve.evaluate_many(ts)]
    poly_vals = [height(p) for p in curve.points]
    return count(curve_vals), count(poly_vals)


# -- command-line tables -----------------------------------------------------

def _csv_lines(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt17(x) for x in row) for row in rows)
    return "\r\n".join(lines + [""])


def basis_csv(exponents, samples):
    """The text of `basis --exponents .. --samples ..`, one parameter at a
    time through `basis_values`."""
    n = len(exponents) - 1
    rows = []
    for t in _parameter_grid(0, 1, samples):
        vals = basis_values(exponents, t)
        rows.append((t, *vals, sum(vals) - 1.0))
    header = ["t"] + [f"H{k}" for k in range(n + 1)] + ["unity_residual"]
    return _csv_lines(header, rows)


def curve_csv(exponents, points, interval, samples):
    """The text of `curve --format csv` for these parsed points (scalars or
    tuples) and endpoints: at each grid parameter t the local parameter
    min((t - a)/(b - a), 1.0), then w_0 p_0 + .. + w_n p_n by `vec_scale`
    and `vec_add` over the weights of `basis_values`."""
    a, b = interval
    rows = []
    for t in _parameter_grid(a, b, samples):
        weights = basis_values(exponents, min(exact_div(t - a, b - a), 1.0))
        out = vec_scale(weights[0], points[0])
        for w, p in zip(weights[1:], points[1:]):
            out = vec_add(out, vec_scale(w, p))
        rows.append((t, *(out if isinstance(out, tuple) else (out,))))
    dim = len(points[0]) if isinstance(points[0], tuple) else 1
    return _csv_lines(["t"] + [f"x{d}" for d in range(dim)], rows)


# -- reference bialternant and determinant ----------------------------------

def reference_det(rows):
    """The determinant by the elimination loop that re-tests every entry's
    type row by row and picks each float pivot by `max(key=...)`."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    exact = all(all_exact(r) for r in m)
    if exact:
        m = [[Fraction(x) for x in r] for r in m]
    sign = 1
    for col in range(n):
        if exact:
            pivot_row = next((r for r in range(col, n) if m[r][col] != 0), col)
        else:
            pivot_row = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot_row][col] == 0:
            return 0 if exact else abs(m[pivot_row][col])
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] / pivot
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    out = sign
    for i in range(n):
        out *= m[i][i]
    return simplify(out) if exact else out


def reference_confluent_quotient(groups, a, sign):
    """sign * det(confluent rows) / closed-form denominator, each entry's
    falling factorial and power formed where it is used."""
    kind = type(groups[0][0])
    rows = []
    for v, m in groups:
        power = (_decimal_power(v, a) if kind is decimal.Decimal
                 else lambda j, q, x, v=v: v ** x)
        for q in range(m):
            row = []
            for j, aj in enumerate(a):
                c = falling_factorial(aj, q)
                row.append(c * power(j, q, aj - q) if c != 0 else kind(0))
            rows.append(row)
    num = reference_det(rows)
    den = kind(1)
    for i, (vi, mi) in enumerate(groups):
        for vj, mj in groups[i + 1:]:
            den *= (vi - vj) ** (mi * mj)
        for q in range(mi):
            den *= factorial(q)
    return simplify(sign * num / den)


def _reference_lost_digits(groups, a):
    lost = 0.0
    for i, (vi, mi) in enumerate(groups):
        for vj, mj in groups[i + 1:]:
            lost -= mi * mj * math.log10(abs(vi - vj) / max(abs(vi), abs(vj)))
    for x, y in zip(a, a[1:]):
        gap = abs(float(x) - float(y))
        if 0 < gap < 1:
            lost -= math.log10(gap)
    return lost


def _reference_bialternant_decimal(groups, a, sign, lost):
    with decimal.localcontext() as ctx:
        ctx.prec = 28 + int(lost) + 8
        D = decimal.Decimal
        value = reference_confluent_quotient(
            [(D(v), m) for v, m in groups],
            [D(x.numerator) / D(x.denominator) if isinstance(x, Fraction)
             else D(x) for x in a], sign)
    return float(value) if value else 0.0


def reference_one_valued(a, v):
    """S_lambda(v, .., v) at a float v by the product formula
    v^{|lambda|} prod_{i<j} (a_i - a_j) / (j - i) over the ladder a, with
    |lambda| = sum a_j - n(n-1)/2: the product and |lambda| formed exactly
    and rounded to floats, and v^err = 1 + err ln v for the rounding err
    of |lambda|, on every call."""
    n = len(a)
    exact = [Fraction(x) for x in a]
    size = sum(exact) - n * (n - 1) // 2
    num, den = Fraction(1), 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= exact[i] - exact[j]
            den *= j - i
    rounded = float(size)
    error = float(size - Fraction(rounded))
    power = v ** rounded
    if error:
        power *= 1 + error * math.log(v)
    return float(num / den) * power


def mp_two_point(a, u, m, v, digits=60):
    """S_lambda(u^m, v^b) over the ladder a (N = m + b entries, taken at
    their exact binary values), u > v > 0, as an mpf to `digits` digits:
    the confluent bialternant, rows d^q/dx^q x^{a_j} at u (q < m) and at
    v (q < b) over the same rows of x^{N-1-j}, in mpmath.  The working
    precision starts `digits` + 20 digits above the cancellation of
    m b digits of the relative gap (u - v) / u and one digit for each
    power of ten of each ladder gap below 1, and doubles until two
    results agree to `digits` digits, or while a pivot cancels to 0: a
    tiny v spreads the powers of one row over hundreds of decades."""
    n = len(a)
    lost = m * (n - m) * -math.log10((u - v) / u)
    lost -= sum(math.log10(x - y) for x, y in zip(a, a[1:]) if 0 < x - y < 1)

    def det(exps):
        # elimination with row exchanges and no tolerance: mpmath.det
        # calls a matrix singular below a pivot size relative to its
        # largest entry, which a tiny v undercuts
        rows = [[mpmath.ff(x, q) * mpmath.mpf(w) ** (x - q) for x in exps]
                for w, k in ((u, m), (v, n - m)) for q in range(k)]
        value = mpmath.mpf(1)
        for k in range(n):
            p = max(range(k, n), key=lambda i: abs(rows[i][k]))
            if p != k:
                rows[k], rows[p] = rows[p], rows[k]
                value = -value
            value *= rows[k][k]
            for row in rows[k + 1:]:
                f = row[k] / rows[k][k]
                for j in range(k, n):
                    row[j] -= f * rows[k][j]
        return value

    work = digits + int(lost) + 20
    last = None
    while True:
        with mpmath.workdps(work):
            try:
                value = (det([mpmath.mpf(x) for x in a])
                         / det(range(n - 1, -1, -1)))
            except ZeroDivisionError:
                # a pivot cancelled to 0: the matrix is nonsingular, so
                # the precision is too low
                value = None
            if None not in (value, last) and abs(value - last) <= \
                    abs(value) * mpmath.mpf(10) ** -digits:
                break
        last, work = value, 2 * work
    with mpmath.workdps(digits):
        return +value


def reference_bialternant(lam, points):
    """S_lambda(points) by the confluent bialternant, coercing the shape and
    building its exponent ladder, the ladder's check and the lost-digit
    prediction on every call; floats past 4 predicted lost digits go to
    Decimals, and floats at one point value to the product formula
    (`reference_one_valued`)."""
    pts = _check_points(points)
    parts = _strip_zeros(partition_parts(lam))
    n = len(pts)
    if len(parts) > n:
        raise ValueError(
            f"partition with {len(parts)} parts at {n} points: pad the points")
    if n == 0:
        return 1
    parts = parts + (0,) * (n - len(parts))
    a = [parts[j] + n - 1 - j for j in range(n)]
    slack = 0 if all_exact(parts) else FLOAT_SLACK
    for x, y in zip(a, a[1:]):
        if not x > y - slack:
            raise ValueError(f"Schur exponent ladder must decrease: {parts}")
    exact = all_exact(pts) and all(is_integral(x) for x in a)
    kind = Fraction if exact else float
    pts = [kind(u) for u in pts]
    groups = []
    for v in sorted(pts, reverse=True):
        if groups and groups[-1][0] == v:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    if not exact and len(groups) == 1:
        return reference_one_valued(a, groups[0][0])
    sign = -1 if sum(m * (m - 1) // 2 for _, m in groups) % 2 else 1
    if not exact:
        lost = _reference_lost_digits(groups, a)
        if lost > 4:
            return _reference_bialternant_decimal(groups, a, sign, lost)
    return reference_confluent_quotient(groups, a, sign)
