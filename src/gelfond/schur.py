"""Schur function evaluation.

Production route (`schur`): Jacobi-Trudi, det(h_{lambda_i - i + j}), for
integer partitions at exact points; the bialternant quotient for
everything else (with confluent derivative rows when evaluation points
repeat), in Fractions, floats or Decimals.  Decimals take over from
floats where the quotient would cancel more than 4 digits; their
non-integral powers are exp(x ln v) from one logarithm per point,
carried with guard digits so that each rounds to the correctly rounded
Decimal power v ** x, at a fraction of its cost.

What a bialternant needs of its shape and its number of points n alone is
formed once per (shape, n) and cached (`_ladder`, the 64 used last): the
exponent ladder a_j and its decrease check, whether it is integral, the
logarithms of its gaps below 1 that `_lost_digits` subtracts, and the
table of falling factorials a_j (a_j - 1) .. (a_j - q + 1) with the
exponents a_j - q.  Each cached value is the one a call would form, by the
same operations, and a call uses it in the same order (the gap logarithms
after the point-group terms), so the results are the same bits as when
every call formed them itself.  The Decimal fallback forms its own table
under its raised context.

`branch_last_variable`, the one-variable branching over interlacing
partitions, is kept here because the two-point Schur values of the de
Casteljau pyramid are to be built on it.  The cross-check routes
(Nagelsbach-Kostka, Giambelli, tableau sums, skew shapes, the splitting
limit) live with the tests, in `tests/oracles.py`.

Evaluation points must be positive; zeros never enter by substitution.
h_m = 0 for m < 0, which closes the determinant over short rows.
"""

import decimal
import math
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

from .arith import (SingularityError, all_exact, det, falling_factorial,
                    is_integral, simplify)
from .partitions import (FLOAT_SLACK, IntegerPartition, _strip_zeros,
                         interlacing_partitions, partition_parts)


def _check_points(points):
    pts = tuple(points)
    for u in pts:
        if not u > 0:
            raise ValueError(f"evaluation points must be positive, got {u}")
    return pts


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
    return det(rows)


def _lost_digits(groups, gap_logs):
    """Decimal digits the float bialternant loses to cancellation.

    The numerator determinant carries the factor prod (v_i - v_j)^{m_i m_j}
    while its entries stay at the size of the largest power, so nearly
    coincident point groups erase about -log10 of that product.  Nearly
    equal column exponents a_j (from near-confluent Muntz exponents) make
    two columns almost equal and erase -log10 of each small gap; those
    logarithms depend on the ladder alone (`_ladder`'s `gap_logs`) and are
    subtracted after the group terms, in ladder order."""
    lost = 0.0
    for i, (vi, mi) in enumerate(groups):
        for vj, mj in groups[i + 1:]:
            lost -= mi * mj * math.log10(abs(vi - vj) / max(abs(vi), abs(vj)))
    for g in gap_logs:
        lost -= g
    return lost


def _entries(a, depth):
    """Row q < depth of the confluent rows as pairs (c, x): the entry in
    column j is c v^x, with c = a_j (a_j - 1) .. (a_j - q + 1) and
    x = a_j - q."""
    return tuple(tuple((falling_factorial(aj, q), aj - q) for aj in a)
                 for q in range(depth))


@lru_cache(maxsize=64, typed=True)
def _ladder(n, *parts):
    """What the bialternant of a shape at n points needs of the shape and
    n alone: the ladder a_j = lambda_j + n - 1 - j (checked to decrease),
    whether it is integral, the logarithms of its gaps below 1 (the ladder
    term of `_lost_digits`) and its entry table (`_entries`) for up to n
    equal points.  Cached for the 64 (shape, n) used last; typed, because
    3.0 equals 3 but makes the ladder real.  A shape that fails a check
    raises on every call: exceptions are not cached."""
    parts = _strip_zeros(partition_parts(parts))
    if len(parts) > n:
        raise ValueError(
            f"partition with {len(parts)} parts at {n} points: pad the points")
    parts = parts + (0,) * (n - len(parts))
    a = tuple(parts[j] + n - 1 - j for j in range(n))
    # only the strict ladder is needed for the determinant quotient; blossom
    # windows may break the real-partition bound on the final part
    slack = 0 if all_exact(parts) else FLOAT_SLACK
    for x, y in zip(a, a[1:]):
        if not x > y - slack:
            raise ValueError(f"Schur exponent ladder must decrease: {parts}")
    gaps = (abs(float(x) - float(y)) for x, y in zip(a, a[1:]))
    gap_logs = tuple(math.log10(gap) for gap in gaps if 0 < gap < 1)
    integral = all(is_integral(x) for x in a)
    return a, integral, gap_logs, _entries(a, n)


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


def _confluent_quotient(groups, a, sign, entries):
    """sign * det(confluent rows) / closed-form denominator, all in the
    number type of the group values: Fractions, floats, or Decimals under
    the caller's context.  `entries` holds the rows' coefficients and
    exponents (`_entries`).  Each group forms its powers by one power
    function of v (`_decimal_power` for Decimals).  An entry whose
    falling-factorial coefficient is 0 is a positive zero and its power is
    never formed: v^(a_j - q) can overflow where the entry is 0.  A float
    power that overflows elsewhere (a point near 0, a negative exponent)
    is a SingularityError naming the point."""
    kind = type(groups[0][0])
    zero = kind(0)
    rows = []
    for v, m in groups:
        power = (_decimal_power(v, a) if kind is decimal.Decimal
                 else partial(pow, v))
        try:
            for q in range(m):
                rows.append([c * power(x) if c != 0 else zero
                             for c, x in entries[q]])
        except OverflowError:
            raise SingularityError(
                f"the float bialternant overflows at the point {v}: a "
                f"negative power of it is beyond the float range") from None
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
    equal Fraction exponents survives.  The entry table is formed under
    that context, for the largest multiplicity among the groups."""
    with decimal.localcontext() as ctx:
        ctx.prec = 28 + int(lost) + 8
        D = decimal.Decimal
        a = [D(x.numerator) / D(x.denominator) if isinstance(x, Fraction)
             else D(x) for x in a]
        value = _confluent_quotient(
            [(D(v), m) for v, m in groups], a, sign,
            _entries(a, max(m for _, m in groups)))
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
    the correctly rounded v ** x (`_decimal_power`).  What depends on the
    shape and the number of points alone comes from `_ladder`; a call
    checks and groups its points and forms its entries."""
    pts = _check_points(points)
    n = len(pts)
    a, integral, gap_logs, entries = _ladder(n, *lam)
    if n == 0:
        return 1
    exact = integral and all_exact(pts)
    kind = Fraction if exact else float

    groups = []
    for v in sorted(map(kind, pts), reverse=True):
        if groups and groups[-1][0] == v:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])

    sign = -1 if sum(m * (m - 1) // 2 for _, m in groups) % 2 else 1
    if not exact:
        lost = _lost_digits(groups, gap_logs)
        if lost > 4:
            return _bialternant_decimal(groups, a, sign, lost)
    return _confluent_quotient(groups, a, sign, entries)


def schur(lam, points):
    """S_lambda(points).  Integer partitions (nonnegative integral parts)
    at exact points: Jacobi-Trudi, exactly.  Everything else: the
    bialternant, whose cancellation guard (float determinants of O(1)
    terms collapsing to a tiny Schur value) also covers integer shapes at
    float points near 0 or near coincidence.  Float points go to the
    bialternant without a look at the shape, which its per-shape cache
    reads."""
    points = tuple(points)
    if all_exact(points):
        parts = _strip_zeros(partition_parts(lam))
        if all(is_integral(p) and p >= 0 for p in parts):
            return schur_jacobi_trudi(parts, points)
    return schur_bialternant(lam, points)


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
