"""References the benchmark checks the CLI against.

Both evaluators use the partial-fraction form of the divided difference,

    H_k(t) = (-1)^{n-k} r_{k+1} .. r_n  sum_{i=k}^{n} t^{r_i} / prod_{j != i} (r_i - r_j),

written here from the formula and not taken from any `gelfond` route, so
the checks keep working when the package's own routes move or go.

* `ExactBasis`: integer exponents, exact `Fraction` arithmetic at the exact
  value of the parameter (a float parameter is taken as the dyadic rational
  it stores).
* `MpBasis`: real exponents, mpmath at `MP_DIGITS` significant digits, with
  every float exponent and parameter taken at its exact binary value.
"""

from fractions import Fraction
from math import lcm

import mpmath

MP_DIGITS = 60


def _check_exponents(exponents):
    r = tuple(exponents)
    if not r or r[0] != 0 or any(b <= a for a, b in zip(r, r[1:])):
        raise ValueError(f"exponents must start at 0 and increase: {r}")
    return r


class ExactBasis:
    """Exact H_0..H_n of an integer-exponent space."""

    def __init__(self, exponents):
        r = _check_exponents(int(x) for x in exponents)
        self.exponents = r
        n = len(r) - 1
        # H_k = sum_i num[k][i] t^{r_i} / den[k], integers throughout
        self._num = []
        self._den = []
        for k in range(n + 1):
            top = 1
            for i in range(k + 1, n + 1):
                top *= r[i]
            sign = -1 if (n - k) % 2 else 1
            coeffs = []
            for i in range(k, n + 1):
                den = 1
                for j in range(k, n + 1):
                    if j != i:
                        den *= r[i] - r[j]
                coeffs.append(Fraction(sign * top, den))
            common = lcm(*(c.denominator for c in coeffs))
            self._num.append([(c * common).numerator for c in coeffs])
            self._den.append(common)

    @property
    def n(self):
        return len(self.exponents) - 1

    def values(self, t):
        """(H_0(t), .., H_n(t)) as Fractions at the exact value of t."""
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError(f"t={t} outside [0, 1]")
        p, q = t.numerator, t.denominator
        r = self.exponents
        top = r[-1]
        # t^{r_i} = p^{r_i} q^{R - r_i} / q^R with R the top exponent
        powers = [p ** e * q ** (top - e) for e in r]
        scale = q ** top
        out = []
        for k in range(self.n + 1):
            acc = 0
            for c, pw in zip(self._num[k], powers[k:]):
                acc += c * pw
            out.append(Fraction(acc, self._den[k] * scale))
        return tuple(out)

    def point(self, points, t):
        """sum_k H_k(t) p_k for exact d-dimensional control points."""
        return combine(self.values(t), points)


class MpBasis:
    """H_0..H_n of a real-exponent space in mpmath at MP_DIGITS digits."""

    def __init__(self, exponents):
        r = _check_exponents(exponents)
        self.exponents = r
        with mpmath.workdps(MP_DIGITS):
            self._r = [mpmath.mpf(x) for x in r]
            n = len(r) - 1
            self._coeffs = []
            for k in range(n + 1):
                top = mpmath.mpf(1)
                for i in range(k + 1, n + 1):
                    top *= self._r[i]
                if (n - k) % 2:
                    top = -top
                row = []
                for i in range(k, n + 1):
                    den = mpmath.mpf(1)
                    for j in range(k, n + 1):
                        if j != i:
                            den *= self._r[i] - self._r[j]
                    row.append(top / den)
                self._coeffs.append(row)

    def values(self, t):
        """(H_0(t), .., H_n(t)) as mpf at the exact binary value of t."""
        with mpmath.workdps(MP_DIGITS):
            t = mpmath.mpf(t)
            if not 0 <= t <= 1:
                raise ValueError(f"t={t} outside [0, 1]")
            powers = [t ** x if x else mpmath.mpf(1) for x in self._r]
            return tuple(
                mpmath.fsum(c * pw for c, pw in zip(row, powers[k:]))
                for k, row in enumerate(self._coeffs))

    def point(self, points, t):
        with mpmath.workdps(MP_DIGITS):
            weights = self.values(t)
            return tuple(
                mpmath.fsum(w * mpmath.mpf(p[d]) for w, p in zip(weights, points))
                for d in range(len(points[0])))


def combine(weights, points):
    """sum_k w_k p_k over d-dimensional point tuples, exactly."""
    dim = len(points[0])
    return tuple(sum(w * Fraction(p[d]) for w, p in zip(weights, points))
                 for d in range(dim))


def insert_exponent(points, exponents, rho):
    """The elevation rule, exactly: with s the number of positive exponents
    below rho, Q_0 = P_0, Q_k = (r_k/rho) P_{k-1} + (1 - r_k/rho) P_k for
    k <= s, and Q_k = P_{k-1} beyond."""
    r = tuple(exponents)
    n = len(r) - 1
    rho = Fraction(rho)
    s = sum(1 for i in range(1, n + 1) if r[i] < rho)
    new = [tuple(Fraction(c) for c in points[0])]
    for k in range(1, n + 1):
        if k <= s:
            w = Fraction(r[k]) / rho
            new.append(tuple(w * Fraction(a) + (1 - w) * Fraction(b)
                             for a, b in zip(points[k - 1], points[k])))
        else:
            new.append(tuple(Fraction(c) for c in points[k - 1]))
    new.append(tuple(Fraction(c) for c in points[n]))
    return tuple(new), tuple(sorted(r + (rho,)))


def diameter(points):
    """Largest Euclidean distance between two control points."""
    best = 0.0
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            d = sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)) ** 0.5
            best = max(best, d)
    return best
