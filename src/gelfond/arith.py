"""Shared arithmetic helpers: exact/float predicates, division, determinants.

Every routine in this package follows one rule: if all inputs are ints or
Fractions the result is exact, otherwise the computation silently falls
back to floats.  Python's number types carry the rule, except that
int / int and an int to a negative power give floats: `exact_div` covers
the first, and routes that may meet the second make exact bases
Fractions at their entry.
"""

import math
from fractions import Fraction


class SingularityError(ArithmeticError):
    """A denominator that the theory requires to be nonzero vanished."""


def is_exact(x):
    """True when x participates in the exact rational path.  A float is
    ruled out first: the Fraction test goes through the abstract-class
    machinery of `numbers`, more than ten times slower for a float."""
    return not isinstance(x, float) and isinstance(x, (int, Fraction))


def all_exact(xs):
    return all(is_exact(x) for x in xs)


def is_integral(x):
    """True for ints and Fractions with denominator 1.  A float is ruled
    out before the Fraction test, as in `is_exact`."""
    if isinstance(x, int):
        return True
    if isinstance(x, float):
        return False
    if isinstance(x, Fraction):
        return x.denominator == 1
    return False


def exact_div(x, y):
    """x / y staying in Fractions when both sides are exact (plain int
    division would produce a float)."""
    if y == 0:
        raise SingularityError(f"division by zero: {x} / {y}")
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    return x / y


def falling_factorial(a, q):
    """a (a-1) ... (a-q+1); empty product for q = 0."""
    out = 1
    for i in range(q):
        out = out * (a - i)
    return out


def det(rows):
    """Determinant of a square matrix given as a list of row lists.

    One scan of the entries decides the arithmetic.  All exact (ints and
    Fractions): fraction arithmetic with the first nonzero pivot, giving
    an exact result, an int where it is integral.  Otherwise partial
    pivoting in the entries' own arithmetic (floats, or Decimals under the
    caller's context): the pivot is the first row of largest magnitude in
    the column, and a zero pivot column gives a zero of that type.  Each
    step subtracts factor * pivot row from every row below with a nonzero
    entry in the column, from the pivot column on.  The empty matrix has
    determinant 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    exact = all(is_exact(x) for r in rows for x in r)
    if exact:
        m = [[Fraction(x) for x in r] for r in rows]
    else:
        m = [list(r) for r in rows]
    sign = 1
    for col in range(n):
        if exact:
            pivot_row = next((r for r in range(col, n) if m[r][col] != 0), col)
        else:
            pivot_row, largest = col, abs(m[col][col])
            for r in range(col + 1, n):
                size = abs(m[r][col])
                if size > largest:
                    pivot_row, largest = r, size
        if m[pivot_row][col] == 0:
            return 0 if exact else abs(m[pivot_row][col])
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        top = m[col]
        pivot = top[col]
        cols = range(col, n)
        for r in range(col + 1, n):
            row = m[r]
            if row[col]:
                factor = row[col] / pivot
                for c in cols:
                    row[c] -= factor * top[c]
    out = sign
    for i in range(n):
        out *= m[i][i]
    return simplify(out) if exact else out


def simplify(x):
    """Collapse integral Fractions back to int so reprs stay readable."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def parse_number(text):
    """Parse "p/q", integer, or float literals (serialization inverse).
    nan, inf, a zero denominator and booleans (JSON true/false, ints to
    Python) raise ValueError: no route takes them."""
    if isinstance(text, bool):
        raise ValueError(f"not a number: {text!r}")
    x = text
    if not isinstance(text, (int, float)):
        s = str(text).strip()
        if "/" in s:
            try:
                x = Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: {text!r}") from None
        else:
            try:
                x = int(s)
            except ValueError:
                x = float(s)
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def format_number(x):
    """Serialize a number: Fractions as "p/q" strings, ints/floats as-is."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        return f"{x.numerator}/{x.denominator}"
    return x


def as_point(p):
    """Normalize a control point: bare numbers stay scalar, sequences
    become tuples."""
    if isinstance(p, (tuple, list)):
        return tuple(p)
    return p


def lerp(p, q, w):
    """(1 - w) p + w q for scalars or same-length point tuples."""
    v = 1 - w
    if isinstance(p, tuple):
        return tuple(v * a + w * b for a, b in zip(p, q, strict=True))
    return v * p + w * q


def vec_sub(p, q):
    if isinstance(p, tuple):
        return tuple(a - b for a, b in zip(p, q, strict=True))
    return p - q


def vec_add(p, q):
    if isinstance(p, tuple):
        return tuple(a + b for a, b in zip(p, q, strict=True))
    return p + q


def vec_scale(c, p):
    if isinstance(p, tuple):
        return tuple(c * a for a in p)
    return c * p


def vec_zero_like(p):
    if isinstance(p, tuple):
        return tuple(0 * a for a in p)
    return 0 * p
