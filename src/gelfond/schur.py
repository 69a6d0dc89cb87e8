"""Schur function evaluation.

One production route, `schur` (the name of `schur_bialternant`): the
bialternant quotient det(u_i^{a_j}) / det(u_i^{n-j}), with confluent
derivative rows when evaluation points repeat.  At one point value v the
confluent quotient has a closed form, Weyl's dimension formula times a
power of v (Macdonald, Symmetric Functions and Hall Polynomials, I.3),

    S_lambda(v, .., v) = v^{|lambda|} f_lambda(n),
    f_lambda(n) = prod_{i<j} (a_i - a_j) / (j - i)   (`partitions.dimension`),

which every one-valued point set takes, exact or float, with no
determinant and no cancellation.  At two or more exact points with an
integral ladder the quotient runs on integers, since Schur functions are
homogeneous: S_lambda(u) = S_lambda(d u) / d^{|lambda|}, d the common
denominator of the points.  Everything else runs in floats, and in
Decimals where the float quotient would cancel more than 4 digits; their
non-integral powers come from one exponential per ladder column and one
logarithm per point, carried with guard digits so that each rounds to
the correctly rounded Decimal power v ** x, at a fraction of its cost.

What a bialternant needs of its shape and its number of points n alone is
formed once per (shape, n) and cached (`_ladder`, the 64 used last).  Each
cached value is the one a call would form, by the same operations, and a
call uses it in the same order, so the results are the same bits as when
every call formed them itself.  The Decimal fallback forms its own entry
table under its raised context.

The de Casteljau pyramid needs only two-point values S_lambda(1^a, t^b),
which `blossom.de_casteljau` forms through `schur` once each; those with
a = 0 or b = 0 are one-valued.  The
cross-check routes (Jacobi-Trudi, Nagelsbach-Kostka, Giambelli, tableau
sums, skew shapes, one-variable branching over interlacing partitions,
the splitting limit) live with the tests, in `tests/oracles.py`.

Evaluation points must be positive; zeros never enter by substitution.
"""

import decimal
import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .arith import (SingularityError, all_exact, det, exact_div,
                    falling_factorial, is_integral, simplify)
from .partitions import (FLOAT_SLACK, _is_integer_shape, _strip_zeros,
                         dimension, partition_parts)


def _check_points(points):
    pts = tuple(points)
    for u in pts:
        if not u > 0:
            raise ValueError(f"evaluation points must be positive, got {u}")
    return pts


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
    term of `_lost_digits`), the entry table (`_entries`) for up to n - 1
    equal points, and for n equal points |lambda| = sum_j a_j - n(n-1)/2,
    the float of its rounding error, and Weyl's product from
    `partitions.dimension`, both exact for exact parts and rounded once
    for float parts.  None for an integer partition with more nonzero
    parts than points, whose Schur value is 0.  Cached for the 64 (shape,
    n) used last; typed, because 3.0 equals 3 but makes the ladder real.
    A shape that fails a check raises on every call: exceptions are not
    cached."""
    parts = _strip_zeros(partition_parts(parts))
    if len(parts) > n:
        if _is_integer_shape(parts):
            return None
        raise ValueError(
            f"partition with {len(parts)} parts at {n} points: pad the points")
    parts = parts + (0,) * (n - len(parts))
    a = tuple(parts[j] + n - 1 - j for j in range(n))
    # only the strict ladder is needed for the determinant quotient; blossom
    # windows may break the real-partition bound on the final part
    exact = all_exact(parts)
    slack = 0 if exact else FLOAT_SLACK
    for x, y in zip(a, a[1:]):
        if not x > y - slack:
            raise ValueError(f"Schur exponent ladder must decrease: {parts}")
    gaps = (abs(float(x) - float(y)) for x, y in zip(a, a[1:]))
    gap_logs = tuple(math.log10(gap) for gap in gaps if 0 < gap < 1)
    integral = all(is_integral(x) for x in a)
    product = dimension(parts, n)
    ratios = [x.as_integer_ratio() for x in a]
    d = math.lcm(*(q for _, q in ratios))
    size = Fraction(sum(p * (d // q) for p, q in ratios), d) - n * (n - 1) // 2
    try:
        rounded = float(size)
    except OverflowError:   # kept exact: a float power of it raises
        rounded = size
    size_error = float(size - Fraction(rounded))
    return (a, integral, gap_logs, _entries(a, n - 1),
            simplify(size) if exact else rounded, size_error, product)


def _decimal_power(v, a):
    """(j, q, x) -> v ** x for Decimals, rounded to the caller's context:
    the entry power of column j in confluent row q, whose exponent x is
    a_j - q as that context rounds it (`_entries`).

    A non-integral Decimal power is correctly rounded, and pays for that
    in every call (about 6x an exp at 45 digits).  Here every column takes
    one exponential, e_j = exp(a_j ln v), formed on first use from one
    logarithm of v, and row q multiplies it by (1/v)^q and by
    (1 + eps ln v), where eps = x - (a_j - q) is the rounding of the
    entry's own exponent: v^x = e_j v^-q v^eps, and eps ln v is near
    10^-prec, so its square is far below the guard digits.  All of this
    runs with `guard` digits beyond the context: 10 plus the digits of
    the largest |x ln v| (|x| below max |a_j| + len(a)).  Every factor
    then carries a relative error near 10^-(prec + 9).  Rounded back by
    unary plus, that is the correctly rounded v ** x unless v ** x lies
    within about 1e-9 units in the last place of a rounding boundary.
    Integral x keep the Decimal power, and v = 1 gives exactly 1."""
    if v == 1:
        return lambda j, q, x: v
    top = float(max(abs(x) for x in a)) + len(a)
    guard = 10 + max(0, math.ceil(math.log10(top * abs(math.log(v)))))
    hi = decimal.getcontext().copy()
    hi.prec += guard
    ln = v.ln(hi)
    columns = {}
    inverse = [hi.divide(1, v)]

    def power(j, q, x):
        if x == x.to_integral_value():
            return v ** x
        if j not in columns:
            columns[j] = hi.exp(hi.multiply(ln, a[j]))
        value = columns[j]
        if q:
            while len(inverse) < q:
                inverse.append(hi.multiply(inverse[-1], inverse[0]))
            value = hi.multiply(value, inverse[q - 1])
        eps = hi.add(hi.subtract(x, a[j]), q)
        return +hi.multiply(value, hi.fma(eps, ln, 1))
    return power


def _overflow(v):
    return SingularityError(
        f"the float bialternant overflows at the point {v}: a "
        f"negative power of it is beyond the float range")


def _confluent_quotient(groups, a, sign, entries):
    """sign * det(confluent rows) / closed-form denominator, all in the
    number type of the group values: ints or Fractions (an exact
    quotient), floats, or Decimals under the caller's context.  `entries`
    holds the rows' coefficients and exponents (`_entries`).  Each group
    forms its powers from v: Python's power for ints, Fractions and
    floats, and one power function of v for Decimals (`_decimal_power`).
    An entry whose falling-factorial coefficient is 0 is a positive zero
    and its power is never formed: v^(a_j - q) can overflow where the
    entry is 0.  A float power that overflows elsewhere (a point near 0,
    a negative exponent) is a SingularityError naming the point."""
    kind = type(groups[0][0])
    zero = kind(0)
    rows = []
    for v, m in groups:
        if kind is decimal.Decimal:
            power = _decimal_power(v, a)
            rows += ([c * power(j, q, x) if c != 0 else zero
                      for j, (c, x) in enumerate(entries[q])]
                     for q in range(m))
            continue
        try:
            rows += ([c * v ** x if c != 0 else zero for c, x in entries[q]]
                     for q in range(m))
        except OverflowError:
            raise _overflow(v) from None
    num = det(rows, kind in (int, Fraction))
    den = kind(1)
    for i, (vi, mi) in enumerate(groups):
        for vj, mj in groups[i + 1:]:
            den *= (vi - vj) ** (mi * mj)
        for q in range(mi):
            den *= factorial(q)
    return simplify(exact_div(sign * num, den))


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
    """S_lambda(points) = det(u_i^{lambda_j + n - j}) / det(u_i^{n - j}),
    for integer and real partitions alike.

    Points that all take one value v (compared as the route computes with
    them: exact values, or their floats on the float route) give the
    closed form v^{|lambda|} prod_{i<j} (a_i - a_j) / (j - i), with the
    product from `partitions.dimension`: exact, or with |lambda| and the
    product rounded once and |lambda|'s rounding error e applied as the
    factor 1 + e ln v.  A float power of v beyond the float range is a
    SingularityError naming v, and so is a product beyond it.

    Otherwise repeated points get confluent treatment: group equal values
    in descending order; a value of multiplicity m contributes the rows
    d^q/dv^q [v^{a_j}] for q = 0..m-1 (falling-factorial coefficients).
    The denominator is then the closed form

        (-1)^{sum_i C(m_i, 2)} prod_{i<j} (v_i - v_j)^{m_i m_j}
                               prod_i prod_{q<m_i} q!

    which is the confluent Vandermonde determinant under the same row and
    column ordering.  Exact when the points are exact and the ladder
    a_j = lambda_j + n - j is integral: the quotient runs on the integer
    points d u (ints, or integer-valued Fractions for a ladder with a
    negative exponent), d the common denominator of the points, and is
    divided by d^{|lambda|}.  Otherwise the points become floats, and
    Decimals take over past 4 predicted lost digits, each non-integral
    power rounding to the correctly rounded v ** x (`_decimal_power`).
    An integer partition with more nonzero parts than points gives 0 (0.0
    at float points).  What depends on the shape and the number of points
    alone comes from `_ladder`."""
    pts = _check_points(points)
    n = len(pts)
    ladder = _ladder(n, *lam)
    if ladder is None:
        return 0 if all_exact(pts) else 0.0
    if n == 0:
        return 1
    a, integral, gap_logs, entries, size, size_error, product = ladder
    exact = integral and all_exact(pts)
    values = pts if exact else [float(u) for u in pts]
    v = values[0]
    if values.count(v) == n:
        if exact:
            return simplify(Fraction(v) ** size * product)
        try:
            product = float(product)
        except OverflowError:
            product = math.inf
        if not math.isfinite(product):
            raise SingularityError(
                f"the Schur value of {tuple(lam)} at {n} equal points: its "
                f"dimension factor is beyond the float range")
        try:
            power = v ** size
        except OverflowError:
            raise _overflow(v) from None
        if size_error:
            power *= 1 + size_error * math.log(v)
        return product * power
    if exact:
        d = math.lcm(*(u.denominator for u in pts))
        kind = int if a[-1] >= 0 else Fraction
        values = [kind(u * d) for u in pts]

    groups = []
    for v in sorted(values, reverse=True):
        if groups and groups[-1][0] == v:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])

    sign = -1 if sum(m * (m - 1) // 2 for _, m in groups) % 2 else 1
    if not exact:
        lost = _lost_digits(groups, gap_logs)
        if lost > 4:
            return _bialternant_decimal(groups, a, sign, lost)
    value = _confluent_quotient(groups, a, sign, entries)
    if not exact or d == 1:
        return value
    return simplify(value / Fraction(d) ** size)


schur = schur_bialternant
