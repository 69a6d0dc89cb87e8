"""Schur function evaluation by several independent routes.

Production dispatch (`schur`): Jacobi-Trudi for integer partitions at
exact points, the bialternant quotient for everything else (with
confluent derivative rows when evaluation points repeat), in Fractions,
floats or Decimals.  Decimals take over from floats where the quotient
would cancel more than 4 digits; their non-integral powers are
exp(x ln v) from one logarithm per point, carried with guard digits so
that each rounds to the correctly rounded Decimal power v ** x, at a
fraction of its cost.  The remaining routes exist so the test suite can
cross-check them against each other:

 * Nagelsbach-Kostka: elementary-symmetric determinant on the conjugate.
 * Giambelli: determinant of hook Schur values over the Frobenius form.
 * semistandard tableau sums (straight and skew), brute force.
 * one-variable branching, as an interlacing sum and as a skew sum.

Evaluation points must be positive.  Zeros never enter by substitution;
the splitting limit (`splitting_limit`) is the only sanctioned way to
send points to zero.

Hard conventions: h_m = e_m = 0 for m < 0, and hook Schur values with a
negative arm or leg are 0.  These make the determinant and branching
formulas close over edge cases without special-casing callers.
"""

import decimal
import math
from fractions import Fraction
from functools import partial
from math import factorial

from .arith import all_exact, det, falling_factorial, is_integral, simplify
from .partitions import (FLOAT_SLACK, IntegerPartition, RealPartition,
                         _strip_zeros, interlacing_partitions, partition_parts)


def _check_points(points):
    pts = tuple(points)
    for u in pts:
        if not u > 0:
            raise ValueError(f"evaluation points must be positive, got {u}")
    return pts


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


def _complete_table(pts, max_degree):
    # generating function prod 1/(1 - u x); one dp pass per variable
    h = [1] + [0] * max_degree
    for u in pts:
        for m in range(1, max_degree + 1):
            h[m] = h[m] + u * h[m - 1]
    return h


def _elementary_table(pts, max_degree):
    e = [1] + [0] * max_degree
    for u in pts:
        for m in range(min(max_degree, len(pts)), 0, -1):
            e[m] = e[m] + u * e[m - 1]
    return e


def schur_jacobi_trudi(lam, points):
    """det(h_{lambda_i - i + j}) over i, j = 1..l(lambda): the skew
    determinant with mu empty."""
    return skew_schur(lam, (), points)


def schur_nagelsbach_kostka(lam, points):
    """det(e_{lambda'_i - i + j}) over the conjugate partition."""
    conj = IntegerPartition(partition_parts(lam)).conjugate().parts
    pts = _check_points(points)
    l = len(conj)
    if l == 0:
        return 1
    top = conj[0] + l - 1
    e = _elementary_table(pts, top)
    rows = [[e[conj[i] - i + j] if conj[i] - i + j >= 0 else 0
             for j in range(l)] for i in range(l)]
    return det(rows)


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
    alphas, betas = lam.frobenius()
    d = len(alphas)
    if d == 0:
        return 1
    rows = [[hook_schur(alphas[i], betas[j], pts) for j in range(d)]
            for i in range(d)]
    return det(rows)


def _lost_digits(groups, a):
    """Decimal digits the float bialternant loses to cancellation.

    The numerator determinant carries the factor prod (v_i - v_j)^{m_i m_j}
    while its entries stay at the size of the largest power, so nearly
    coincident point groups erase about -log10 of that product.  Nearly
    equal column exponents a_j (from near-confluent Muntz exponents) make
    two columns almost equal and erase -log10 of each small gap."""
    lost = 0.0
    for i, (vi, mi) in enumerate(groups):
        for vj, mj in groups[i + 1:]:
            lost -= mi * mj * math.log10(abs(vi - vj) / max(abs(vi), abs(vj)))
    for x, y in zip(a, a[1:]):
        gap = abs(float(x) - float(y))
        if 0 < gap < 1:
            lost -= math.log10(gap)
    return lost


def _decimal_power(v, a):
    """x -> v ** x for Decimals, rounded to the caller's context, for every
    exponent x of the quotient's rows (|x| below max |a_j| + len(a)).

    A non-integral Decimal power is correctly rounded, and pays for that
    in every call (about 6x an exp at 45 digits).  Here ln v is formed
    once, with `guard` digits beyond the context: 10 plus the digits of
    the largest |x ln v|.  The product x ln v then carries an absolute
    error near 10^-(prec + 9), and so does the relative error of
    exp(x ln v), formed at as many digits.  Rounded back by unary plus,
    that is the correctly
    rounded v ** x unless v ** x lies within about 1e-9 units in the last
    place of a rounding boundary.  Integral x keep the Decimal power, and
    v = 1 gives exactly 1."""
    if v == 1:
        return lambda x: v
    top = float(max(abs(x) for x in a)) + len(a)
    guard = 10 + max(0, math.ceil(math.log10(top * abs(math.log(v)))))
    hi = decimal.getcontext().copy()
    hi.prec += guard
    ln = v.ln(hi)

    def power(x):
        if x == x.to_integral_value():
            return v ** x
        return +hi.exp(hi.multiply(ln, x))
    return power


def _confluent_quotient(groups, a, sign):
    """sign * det(confluent rows) / closed-form denominator, all in the
    number type of the group values: Fractions, floats, or Decimals under
    the caller's context.  Each group forms its powers by one power
    function of v (`_decimal_power` for Decimals).  An entry whose
    falling-factorial coefficient is 0 is a positive zero and its power is
    never formed: v^(a_j - q) can overflow where the entry is 0."""
    kind = type(groups[0][0])
    rows = []
    for v, m in groups:
        power = (_decimal_power(v, a) if kind is decimal.Decimal
                 else partial(pow, v))
        for q in range(m):
            row = []
            for aj in a:
                c = falling_factorial(aj, q)
                row.append(c * power(aj - q) if c != 0 else kind(0))
            rows.append(row)
    num = det(rows)
    den = kind(1)
    for i, (vi, mi) in enumerate(groups):
        for vj, mj in groups[i + 1:]:
            den *= (vi - vj) ** (mi * mj)
        for q in range(mi):
            den *= factorial(q)
    return simplify(sign * num / den)


def _bialternant_decimal(groups, a, sign, lost):
    """The float quotient again, in decimal floating point with enough
    extra digits to absorb the `lost` digits of predicted cancellation.
    Float and int exponents convert exactly; a Fraction exponent is its
    quotient under the raised context, so the gap between two nearly
    equal Fraction exponents survives."""
    with decimal.localcontext() as ctx:
        ctx.prec = 28 + int(lost) + 8
        D = decimal.Decimal
        value = _confluent_quotient(
            [(D(v), m) for v, m in groups],
            [D(x.numerator) / D(x.denominator) if isinstance(x, Fraction)
             else D(x) for x in a], sign)
    return float(value) if value else 0.0


def schur_bialternant(lam, points):
    """det(u_i^{lambda_j + n - j}) / det(u_i^{n - j}), the route that works
    for real partitions.

    Repeated points get confluent treatment: group equal values in
    descending order; a value of multiplicity m contributes the rows
    d^q/dv^q [v^{a_j}] for q = 0..m-1 (falling-factorial coefficients).
    The denominator is then the closed form

        (-1)^{sum_i C(m_i, 2)} prod_{i<j} (v_i - v_j)^{m_i m_j}
                               prod_i prod_{q<m_i} q!

    which is the confluent Vandermonde determinant under the same row and
    column ordering.  Exact (Fractions) when the points are exact and the
    ladder a_j = lambda_j + n - j is integral; otherwise the points become
    floats, and Decimals take over past 4 predicted lost digits.  The
    Decimal route forms each non-integral power as exp(x ln v) from one
    logarithm per point value, with guard digits that make it round to
    the correctly rounded v ** x (`_decimal_power`)."""
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
    # only the strict ladder is needed for the determinant quotient; blossom
    # windows may break the real-partition bound on the final part
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

    sign = -1 if sum(m * (m - 1) // 2 for _, m in groups) % 2 else 1
    if not exact:
        lost = _lost_digits(groups, a)
        if lost > 4:
            return _bialternant_decimal(groups, a, sign, lost)
    return _confluent_quotient(groups, a, sign)


def schur(lam, points):
    """S_lambda(points).  Integer partitions (nonnegative integral parts)
    at exact points: Jacobi-Trudi, exactly.  Everything else: the
    bialternant, whose cancellation guard (float determinants of O(1)
    terms collapsing to a tiny Schur value) also covers integer shapes at
    float points near 0 or near coincidence."""
    parts = _strip_zeros(partition_parts(lam))
    integer = all(is_integral(p) and p >= 0 for p in parts)
    if integer and all_exact(tuple(points)):
        return schur_jacobi_trudi(parts, points)
    return schur_bialternant(parts, points)


def schur_tableaux(lam, points):
    """Brute-force sum over semistandard tableaux of shape lambda with
    entries in 1..len(points): the skew sum with mu empty.  Oracle only;
    exponential in the weight."""
    return skew_schur_tableaux(lam, (), points)


def skew_schur(lam, mu, points):
    """S_{lambda/mu} via det(h_{lambda_i - mu_j - i + j}); zero when mu is
    not contained in lambda."""
    lam = IntegerPartition(partition_parts(lam))
    mu = IntegerPartition(partition_parts(mu))
    pts = _check_points(points)
    l = lam.length
    if l == 0:
        return 1 if mu.length == 0 else 0
    if not lam.contains(mu):
        return 0
    mu_parts = mu.parts + (0,) * (l - mu.length)
    top = lam.parts[0] + l - 1
    h = _complete_table(pts, top)
    rows = [[h[lam.parts[i] - mu_parts[j] - i + j]
             if 0 <= lam.parts[i] - mu_parts[j] - i + j <= top else 0
             for j in range(l)] for i in range(l)]
    return det(rows)


def skew_schur_tableaux(lam, mu, points):
    """Brute-force skew tableau sum, the oracle for skew_schur."""
    lam = IntegerPartition(partition_parts(lam))
    mu = IntegerPartition(partition_parts(mu))
    pts = _check_points(points)
    if not lam.contains(mu):
        return 0
    m = len(pts)
    mu_parts = mu.parts + (0,) * (lam.length - mu.length)
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
    S_eta(points) last^{|lambda| - |eta|}."""
    lam = IntegerPartition(partition_parts(lam))
    if not last > 0:
        raise ValueError("the split-off variable must be positive")
    w = lam.weight()
    out = 0
    for eta in interlacing_partitions(lam):
        out = out + schur(eta, points) * last ** (w - eta.weight())
    return out


def branch_last_variable_skew(lam, points, last):
    """Same branching written with skew shapes: sum_j S_{lambda/(j)} last^j."""
    lam = IntegerPartition(partition_parts(lam))
    if not last > 0:
        raise ValueError("the split-off variable must be positive")
    top = lam.parts[0] if lam.length else 0
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
    where lambda is the first |z| parts of eta and mu the remaining |y|.

    This is the only sanctioned way to push evaluation points to zero."""
    z = _check_points(z)
    y = _check_points(y)
    lam, mu = split_partition(eta, len(z), len(y))
    return schur(lam, z) * schur(mu, y)
