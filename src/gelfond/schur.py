"""Schur function evaluation.

One production route, `schur` (the name of `schur_bialternant`): the
bialternant quotient det(u_i^{a_j}) / det(u_i^{n-j}), with confluent
derivative rows when evaluation points repeat.  It takes one of four
forms, by the points:

 * one value v: the confluent quotient's closed form, Weyl's dimension
   formula times a power of v (Macdonald, Symmetric Functions and Hall
   Polynomials, I.3),

       S_lambda(v, .., v) = v^{|lambda|} f_lambda(n),
       f_lambda(n) = prod_{i<j} (a_i - a_j) / (j - i)   (`partitions.dimension`),

   exact or float, with no determinant and no cancellation (in floats
   the power's mantissa and exponent apart, so that a power below the
   float range times a large product keeps its digits);
 * two or more exact values on an integral ladder: the quotient on
   integers, since Schur functions are homogeneous: S_lambda(u) =
   S_lambda(d u) / d^{|lambda|}, d the common denominator of the points;
 * two float values u > v: a minor of the Opitz matrix exp(ln(v/u) J)
   of the ladder (`_two_point`), scaled so that no entry leaves the float
   range and totally nonnegative, so that elimination needs no pivots;
   where both of its minors would lose more than 3 digits, the Decimal
   quotient below;
 * three or more float values: the float quotient, or Decimals where it
   would cancel more than 4 digits; the Decimals' non-integral powers
   come from one exponential per ladder column and one logarithm per
   point, carried with guard digits so that each rounds to the correctly
   rounded Decimal power v ** x, at a fraction of its cost.

What a bialternant needs of its shape and its number of points n alone is
formed once per (shape, n) and cached (`_ladder`, the 64 used last).  Each
cached value is the one a call would form, by the same operations, and a
call uses it in the same order, so the results are the same bits as when
every call formed them itself.  The Decimal fallback forms its own entry
table under its raised context.  What the two-point values of one ladder
at one ratio v/u share, the scaled Opitz matrices of the ladder and of
the ladder negated and reversed (`_opitz_rows`: one call of the kernel
that also gives the real-exponent basis, `divided_diff.opitz_matrix`), is
formed once and cached too, for the 32 used last.

The de Casteljau pyramid needs only two-point values S_lambda(1^a, t^b)
over windows of the space's partition, which `blossom.de_casteljau`
forms through `schur_window` once each, and so do the numerators of the
basis's Schur route (`gelfond_basis.gelfond_basis_schur`).  Those with
a = 0 or b = 0 are one-valued; at a float t the others of one space
share one pair of matrix exponentials, that of the space's ladder, of
which each window's pair is a principal block.  The
cross-check routes (Jacobi-Trudi, Nagelsbach-Kostka, Giambelli, tableau
sums, skew shapes, one-variable branching over interlacing partitions,
the splitting limit) live with the tests, in `tests/oracles.py`.

Evaluation points must be positive; zeros never enter by substitution.
"""

import decimal
import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .arith import (SingularityError, all_exact, det, exact_div,
                    falling_factorial, is_exact, is_integral, simplify)
from .divided_diff import opitz_matrix
from .partitions import (FLOAT_SLACK, _is_integer_shape, _strip_zeros,
                         dimension, partition_parts)


# `_two_point` forms the second of its two minors when the first has a
# determinant more than this factor below the product of its diagonal,
# and leaves the value to Decimals when the second has too.  A value
# loses about this many units in the last place: over 4500 random
# ladders (gaps down to 1e-3, ratios down to 1e-300) the minors kept were
# within 7e-14, and 3% went to Decimals; the values of RealSample's
# pyramids stay below a ratio of 350.
CANCELLATION = 1000.0


def _check_points(points):
    pts = tuple(points)
    for u in pts:
        if not u > 0:
            raise ValueError(f"evaluation points must be positive, got {u}")
    return pts


def _lost_digits(groups, gap_logs):
    """Decimal digits the float bialternant at three or more point values
    loses to cancellation.  At two, where the minors of `_two_point`
    would lose too many, the Decimal quotient adds these digits and those
    of the spread of the powers at the smaller value.

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
    for float parts, and the tails of the two-point values (`_tails`).
    None for an integer partition with more nonzero parts than points,
    whose Schur value is 0.  Cached for the 64 (shape, n) used last;
    typed, because 3.0 equals 3 but makes the ladder real.
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
            simplify(size) if exact else rounded, size_error, product,
            _tails([p * (d // q) for p, q in ratios], d))


def _tails(numerators, d):
    """For b = 1..n-1 points at s and m = n - b at 1 (index b; index 0
    is None), the s-free parts of the factor of `_two_point` over the
    ladder a_j = numerators[j] / d: the superfactorial ratio sf(n-1) /
    (sf(m-1) sf(b-1)) = prod_{i<m, j<b} (i + j + 1), sf(k) = 0! 1! .. k!,
    as a float mantissa in [0.5, 1) and a power of two, and E_b, the sum
    of the last b ladder entries less b(b-1)/2 (the size of the shape's
    last b parts), rounded once, with its rounding error, or inf where
    E_b is beyond the float range."""
    n = len(numerators)
    sf = [1]
    for q in range(1, n):
        sf.append(sf[-1] * factorial(q))
    tails = [None]
    tail = 0
    for b in range(1, n):
        tail += numerators[n - b]
        size = tail - b * (b - 1) // 2 * d
        try:
            rounded = size / d
        except OverflowError:
            rounded, error = math.copysign(math.inf, size), 0.0
        else:
            p, q = rounded.as_integer_ratio()
            error = (size * q - p * d) / (d * q)
        ratio = sf[n - 1] // (sf[n - b - 1] * sf[b - 1])
        bits = ratio.bit_length()
        tails.append((ratio / (1 << bits), bits, rounded, error))
    return tuple(tails)


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


def _power(v, size, size_error):
    """v^size for a float point v and a ladder size rounded to `size`
    with rounding error `size_error`, applied as the factor
    1 + size_error ln v.  A power beyond the float range is a
    SingularityError naming v."""
    try:
        power = v ** size
    except OverflowError:
        raise _overflow(v) from None
    if size_error:
        power *= 1 + size_error * math.log(v)
    return power


def _float_dimension(product, lam, n):
    """Weyl's product f_lambda(n) from `_ladder` as a float; beyond the
    float range it is a SingularityError."""
    try:
        product = float(product)
    except OverflowError:
        product = math.inf
    if not math.isfinite(product):
        raise SingularityError(
            f"the Schur value of {tuple(lam)} at {n} points: its "
            f"dimension factor is beyond the float range")
    return product


@lru_cache(maxsize=32)
def _opitz_rows(a, s):
    """The scaled Opitz matrices (`divided_diff.opitz_matrix`) at s of the
    ladder a and of the ladder negated and reversed, both with the
    superdiagonal 1, as row lists.  Cached for the 32 (ladder, s) used
    last: every window of one space at one s is a block of the entry of
    the space's ladder (`schur_window`), so a pyramid forms one entry,
    and the Schur route of the basis at the same t finds it."""
    ones = (1.0,) * (len(a) - 1)
    return opitz_matrix(((a, ones), (tuple(-x for x in reversed(a)), ones)),
                        [s])[0].tolist()


def _tn_pivots(rows):
    """The pivots of Gaussian elimination without pivoting on a totally
    nonnegative matrix, given as a list of row lists and changed in place:
    its leading minors are positive where it is nonsingular, and the
    elimination is stable without row exchanges (de Boor & Pinkus, LAA
    1977).  Their product is the determinant; a zero pivot ends the
    list."""
    pivots = []
    for k, top in enumerate(rows):
        pivot = top[k]
        pivots.append(pivot)
        if not pivot:
            break
        for row in rows[k + 1:]:
            f = row[k] / pivot
            if f:
                for j in range(k + 1, len(row)):
                    row[j] -= f * top[j]
    return pivots


def _minor(matrices, w, m, b):
    """det Z[w:w+b, w+m:w+N] of the first of the two scaled Opitz matrices
    `matrices`, N = m + b, or the same determinant as Z'[w':w'+m, w'+b:w'+N]
    of the second, w' = len(Z) - w - N, as a float mantissa and a power of
    two: the minors of the principal blocks that belong to the window of
    N nodes from node w (`_two_point`).  The smaller minor first, and the
    other when the first has a ratio of diagonal product to determinant
    past CANCELLATION.  None when both do, or when a pivot is 0 or
    subnormal."""
    n = m + b
    minors = [(matrices[0], w, m, b),
              (matrices[1], len(matrices[1]) - w - n, b, m)]
    if m < b:
        minors.reverse()
    for rows, start, column, size in minors:
        minor = [row[start + column:start + n]
                 for row in rows[start:start + size]]
        diagonal = [minor[k][k] for k in range(size)]
        pivots = _tn_pivots(minor)
        if min(pivots) < sys.float_info.min:
            continue
        if math.prod(d / p for d, p in zip(diagonal, pivots)) <= CANCELLATION:
            return _split_product(pivots)
    return None


def _split_product(factors, mantissa=1.0, exponent=0):
    """mantissa 2^exponent times the product of the positive floats
    `factors`, as a float mantissa and a power of two, so that no partial
    product leaves the float range."""
    for f in factors:
        mantissa, e = math.frexp(mantissa * f)
        exponent += e
    return mantissa, exponent


def _two_point(nodes, w, tails, m, s):
    """S_lambda(1^m, s^b) / f_lambda(N) over the ladder a = nodes[w:w+N]
    (up to a shift) of N = m + b = len(tails) points, 0 < s < 1, as a
    float mantissa and a power of two, from a minor of a scaled Opitz
    matrix; None where that minor would lose digits.

    The confluent bialternant at 1^m and s^b is (McCurdy, Ng & Parlett,
    Math. Comp. 1984; signs flipped after Gasca & Pena, LAA 1992)

        S = f_lambda(N) sf(N-1) / (sf(m-1) sf(b-1)) (-1)^{mb}
            det G[0:b, m:N] / ((1 - s)^{mb} s^{b(b-1)/2}),

    G = exp(ln(s) J), J = diag(a) plus a superdiagonal of ones.  On the
    scaled matrix Z of a, whose rows and columns carry |ln s|^{i-j}
    s^{-a_j} and the signs, that minor is det Z[0:b, m:N] |ln s|^{mb}
    s^{a_m + .. + a_{N-1}}, so

        S / f_lambda(N) = sf(N-1) / (sf(m-1) sf(b-1))
                          (-ln(s) / (1 - s))^{mb} det Z[0:b, m:N] s^{E_b},

    E_b the size of the shape's last b parts, its rounding error applied
    as in `_power`; the superfactorial ratio and E_b come from `tails`
    (`_tails`).  The factors can each leave the float range where their
    product does not: they are multiplied as mantissas and powers of
    two, and so is the caller's u^{|lambda|} f_lambda(N).  Z is totally
    nonnegative, and the minor is the product of `_tn_pivots`.  Entry
    (i, j) of Z depends on nodes i..j alone, and not on a shift of them,
    so Z is the principal block Z[w:w+N, w:w+N] of the scaled matrix of
    all the nodes, `_opitz_rows(nodes, s)[0]`: the windows of one ladder
    at one s share that pair.

    Jacobi's complementary minor of G^{-1} gives the same determinant as
    the m x m minor Z'[0:m, b:N] of Z', the scaled matrix of G^{-1}
    reversed and transposed, the block of `_opitz_rows(nodes, s)[1]`
    from node len(nodes) - w - N.  The smaller of the
    two minors is taken first.  A minor loses digits where its
    determinant is far below the product of its diagonal (never above
    it: Hadamard-Fischer), which happens at small s and close ladder
    entries; past CANCELLATION the other minor is taken, and past it
    again the value is left to the caller (`_minor`).  At two points the
    minor is the one entry Z_01, in closed form.  An E_b beyond the float
    range is a SingularityError."""
    if not 0 < s < 1:
        raise SingularityError(
            f"the ratio {s} of two Schur point values is not in (0, 1) in "
            f"floats")
    b = len(tails) - m
    mantissa, exponent, size, size_error = tails[b]
    if not math.isfinite(size):
        raise _beyond(s)
    ln = math.log(s)
    if b == m == 1:
        # Z_01 = -expm1(g ln s) / (g |ln s|), g = a_0 - a_1, and 1 at
        # g = 0, which the ladder check lets through for floats; two
        # points are a fifth of real-sample's two-point values, and
        # forming their 2 x 2 matrices instead made its ops about 10%
        # slower (cProfile of 150 ops)
        g = float(nodes[w] - nodes[w + 1])
        minor = math.frexp(math.expm1(g * ln) / (g * ln) if g else 1.0)
    else:
        minor = _minor(_opitz_rows(nodes, s), w, m, b)
        if minor is None:
            return None
    scale, e = math.frexp(-ln / (1 - s))
    exponent += minor[1] + e * m * b
    mantissa *= minor[0]
    # the scale's mantissa lies in [0.5, 1): 1022 factors stay normal
    for k in range(0, m * b, 1022):
        mantissa, exponent = _split_product(
            (scale ** min(m * b - k, 1022),), mantissa, exponent)
    power, e = _split_power(s, size, size_error)
    return _split_product((power,), mantissa, exponent + e)


def _split_power(v, size, size_error):
    """`_power`(v, size, size_error) as a float mantissa and a power of
    two, also where it is below the float range: then it is the square of
    the power at size / 2, and so on."""
    halvings = 0
    power = _power(v, size, size_error)
    while power < sys.float_info.min:
        halvings += 1
        power = _power(v, math.ldexp(size, -halvings),
                       math.ldexp(size_error, -halvings))
    mantissa, exponent = math.frexp(power)
    for _ in range(halvings):
        mantissa, e = math.frexp(mantissa * mantissa)
        exponent = 2 * exponent + e
    return mantissa, exponent


def _beyond(s):
    return SingularityError(
        f"the two-point Schur value at the point ratio {s} is beyond the "
        f"float range")


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
    that context, for the largest multiplicity among the groups.  A value
    beyond the float range is a SingularityError."""
    with decimal.localcontext() as ctx:
        ctx.prec = 28 + int(lost) + 8
        D = decimal.Decimal
        a = [D(x.numerator) / D(x.denominator) if isinstance(x, Fraction)
             else D(x) for x in a]
        value = _confluent_quotient(
            [(D(v), m) for v, m in groups], a, sign,
            _entries(a, max(m for _, m in groups)))
    value = float(value) if value else 0.0
    if not math.isfinite(value):
        raise SingularityError(
            f"the Schur value at the points {[v for v, _ in groups]} is "
            f"beyond the float range")
    return value


def schur_bialternant(lam, points):
    """S_lambda(points) = det(u_i^{lambda_j + n - j}) / det(u_i^{n - j}),
    for integer and real partitions alike.

    Points that all take one value v (compared as the route computes with
    them: exact values, or their floats on the float route) give the
    closed form v^{|lambda|} prod_{i<j} (a_i - a_j) / (j - i), with the
    product from `partitions.dimension`: exact, or with |lambda| and the
    product rounded once and |lambda|'s rounding error e applied as the
    factor 1 + e ln v.  A float power of v beyond the float range is a
    SingularityError naming v, and so are a product and a value beyond
    it.

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
    divided by d^{|lambda|}.  Otherwise the points become floats.  At two
    values u > v the quotient is u^{|lambda|} f_lambda(n) times a minor
    of the scaled Opitz matrix of the ladder at v/u (`_two_point`), with
    no determinant of powers, unless both of its minors would lose more
    than 3 digits, when the Decimal quotient takes over; a value beyond
    the float range is a SingularityError.  At three or more values
    Decimals take over past 4 predicted lost digits, each non-integral
    power rounding to the correctly rounded v ** x (`_decimal_power`),
    and a Decimal value beyond the float range is a SingularityError.  An
    integer partition with more nonzero parts than points gives 0 (0.0
    at float points).  What depends on the shape and the number of
    points alone comes from `_ladder`."""
    pts = _check_points(points)
    n = len(pts)
    ladder = _ladder(n, *lam)
    if ladder is None:
        return 0 if all_exact(pts) else 0.0
    if n == 0:
        return 1
    a, integral, gap_logs, entries, size, size_error, product, _ = ladder
    exact = integral and all_exact(pts)
    values = pts if exact else [float(u) for u in pts]
    v = values[0]
    if values.count(v) == n:
        if exact:
            return simplify(Fraction(v) ** size * product)
        # a power below the float range times a large product can be a
        # normal value: the power's mantissa first, then its exponent
        power, e = _split_power(v, size, size_error)
        try:
            return math.ldexp(_float_dimension(product, lam, n) * power, e)
        except OverflowError:
            raise _overflow(v) from None
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

    if not exact and len(groups) == 2:
        (u, m), (v, _) = groups
        value = _two_point_value(lam, ladder, u, m, v / u, a, 0)
        if value is not None:
            return value
    sign = -1 if sum(m * (m - 1) // 2 for _, m in groups) % 2 else 1
    if not exact:
        lost = _lost_digits(groups, gap_logs)
        if len(groups) == 2:
            # the largest powers at v, v^{a_{n-1} - q}, exceed the value's
            # share of them, v^{a_j - q} over the last n - m columns, by
            # this many decades, which the elimination cancels
            lost += float(sum(a[m:]) - (n - m) * a[-1]) * math.log10(u / v)
            return _bialternant_decimal(groups, a, sign, lost)
        if lost > 4:
            return _bialternant_decimal(groups, a, sign, lost)
    value = _confluent_quotient(groups, a, sign, entries)
    if not exact or d == 1:
        return value
    return simplify(value / Fraction(d) ** size)


def _two_point_value(lam, ladder, u, m, s, nodes, w):
    """S_lambda(u^m, (s u)^b) in floats from the shape's `_ladder` entry:
    u^{|lambda|} f_lambda(N) times `_two_point`(nodes, w, ..); None where
    both minors would lose digits.  A value beyond the float range is a
    SingularityError."""
    a, _, _, _, size, size_error, product, tails = ladder
    split = _two_point(nodes, w, tails, m, s)
    if split is None:
        return None
    power, e = _split_power(u, size, size_error)
    mantissa, exponent = _split_product(
        (_float_dimension(product, lam, len(a)), power), *split)
    try:
        return math.ldexp(mantissa, exponent + e)
    except OverflowError:
        raise _beyond(s) from None


schur = schur_bialternant


def schur_window(lam, w, m, b, t):
    """S_{lam[w:w+m+b]}(1^m, t^b), lam the partition of a space padded by
    one zero.  At two float values, 0 < t < 1, a minor of principal
    blocks of the scaled Opitz pair of lam's own ladder at t
    (`_two_point`), so every window of one space at one t shares one
    `_opitz_rows` entry; otherwise (one value, exact t on an integral
    window's ladder), and where both block minors would lose digits,
    `schur` of the window."""
    window = lam[w:w + m + b]
    ladder = _ladder(m + b, *window)
    if m and b and not (ladder[1] and is_exact(t)) and 0 < float(t) < 1:
        value = _two_point_value(window, ladder, 1.0, m, float(t),
                                 _ladder(len(lam), *lam)[0], w)
        if value is not None:
            return value
    return schur_bialternant(window, (1,) * m + (t,) * b)
