"""Dense univariate polynomials with exact rational coefficients.

Just enough structure for the exact basis-polynomial cache: sums,
products, powers, Horner evaluation (one point, or a table over many float
points), formal derivatives.  Coefficients are stored constant-term first
with trailing zeros stripped.
"""

from fractions import Fraction

import numpy as np

from .arith import is_exact


def _normalize(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Poly:
    __slots__ = ("coeffs", "_horner")

    def __init__(self, coeffs=()):
        self.coeffs = _normalize(coeffs)
        self._horner = None

    def _float_horner(self):
        """float(c) of each coefficient, leading one first (cached)."""
        if self._horner is None:
            self._horner = tuple(float(c) for c in reversed(self.coeffs))
        return self._horner

    @staticmethod
    def monomial(c, k):
        """c * t**k"""
        return Poly([0] * k + [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return Poly([other]) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, t):
        """Horner evaluation; exact for int/Fraction t, float otherwise."""
        if not self.coeffs:
            return Fraction(0) if is_exact(t) else 0.0
        if is_exact(t):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * t + c
            return acc
        acc = 0.0
        t = float(t)
        for c in self._float_horner():
            acc = acc * t + c
        return acc

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def horner_table(polys, ts):
    """The (len(ts), len(polys)) array of p(t) for float ts, equal value
    for value to [[p(t) for p in polys] for t in ts]: one numpy Horner pass
    per polynomial over all of ts, starting from 0.0 and performing the
    float operations `Poly.__call__` performs."""
    s = np.asarray(ts, dtype=float)
    out = np.zeros((len(polys), s.size))
    for w, p in zip(out, polys):
        for c in p._float_horner():
            w *= s
            w += c
    return out.T
