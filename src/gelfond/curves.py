"""Bezier-style curves over Muntz spaces span(1, t^{r_1}, .., t^{r_n}).

A curve stores control points p_0..p_n and an interval [a, b]; values come
from the unit-domain basis through the reparametrization s = (t-a)/(b-a),
so a general interval never needs its own basis (the span of the shifted
powers (t-a)^{r_k} on [a, b] is handled this way by construction).

Control points may be scalars or same-length tuples; all arithmetic stays
exact for int/Fraction data and falls back to floats otherwise.
"""

import json
from fractions import Fraction
from math import factorial

import numpy as np

from .arith import (as_point, exact_div, format_number, is_exact, parse_number,
                    vec_add, vec_scale, vec_sub, vec_zero_like)
from .blossom import (blossom_value, coefficients_from_control_points,
                      de_casteljau)
from .gelfond_basis import basis_polynomial, basis_values, hodograph_data
from .partitions import as_exponents
from .polynomials import horner_table


class GelfondBezierCurve:

    def __init__(self, exponents, points, interval=(0, 1)):
        self.exponents = as_exponents(exponents)
        pts = tuple(as_point(p) for p in points)
        n = self.exponents.n
        if len(pts) != n + 1:
            raise ValueError(f"expected {n + 1} control points, got {len(pts)}")
        dims = {len(p) if isinstance(p, tuple) else 0 for p in pts}
        if len(dims) > 1:
            raise ValueError("control points of mixed dimensions")
        a, b = interval
        if not a < b:
            raise ValueError(f"empty interval [{a}, {b}]")
        self.points = pts
        self.interval = (a, b)
        self._coeffs = None
        self._polys = None

    @property
    def n(self):
        return self.exponents.n

    def local_parameter(self, t):
        """s = (t - a)/(b - a).  A float t is checked against the
        endpoints rounded to floats, so a float grid from float(a) to
        float(b) stays valid when an endpoint such as 1/3 rounds to just
        outside [a, b]."""
        a, b = self.interval
        lo, hi = (a, b) if is_exact(t) else (float(a), float(b))
        if not lo <= t <= hi:
            raise ValueError(f"t={t} outside [{a}, {b}]")
        return exact_div(t - a, b - a)

    def _unit_parameter(self, t):
        # at t = float(b) the rounded quotient can exceed 1, e.g. on [1/3, 1]
        return min(self.local_parameter(t), 1.0)

    def _basis_polys(self):
        """The cached basis polynomials H_0..H_n of an integer space; empty
        for real exponents."""
        if self._polys is None:
            self._polys = ([basis_polynomial(self.exponents, k)
                            for k in range(self.n + 1)]
                           if self.exponents.is_integer() else [])
        return self._polys

    def evaluate(self, t):
        """Basis-sum evaluation.  Integer exponents at a float parameter
        evaluate the curve's own basis polynomials, the values
        `basis_values` returns, without its per-call dispatch."""
        s = self._unit_parameter(t)
        polys = self._basis_polys()
        if polys and isinstance(s, float):
            weights = [p(s) for p in polys]
        else:
            weights = basis_values(self.exponents, s)
        out = vec_scale(weights[0], self.points[0])
        for w, p in zip(weights[1:], self.points[1:]):
            out = vec_add(out, vec_scale(w, p))
        return out

    __call__ = evaluate

    def evaluate_many(self, ts):
        """[self.evaluate(t) for t in ts], value for value.

        Integer exponents at float parameters take one numpy pass: the
        basis values of all local parameters by the Horner table that
        `basis_values_many` uses, then the weighted points summed in the
        order `evaluate` sums them, so every float operation is the one
        the scalar route performs.  Any other input runs `evaluate` point
        by point."""
        ts = list(ts)
        polys = self._basis_polys()
        if not (ts and polys and all(isinstance(t, float) for t in ts)):
            return [self.evaluate(t) for t in ts]
        a, b = self.interval
        t = np.asarray(ts, dtype=float)
        for end in (float(t.min()), float(t.max())):
            if not float(a) <= end <= float(b):
                raise ValueError(f"t={end} outside [{a}, {b}]")
        s = np.minimum((t - float(a)) / float(b - a), 1.0)
        weights = horner_table(polys, s)
        points = np.array(self.points, dtype=float).reshape(len(self.points), -1)
        out = None
        for w, p in zip(weights.T, points):
            term = w[:, None] * p
            out = term if out is None else out + term
        if isinstance(self.points[0], tuple):
            return [tuple(row) for row in out.tolist()]
        return out[:, 0].tolist()

    def evaluate_de_casteljau(self, t):
        value, _ = de_casteljau(self.points, self.exponents,
                                self._unit_parameter(t))
        return value

    def de_casteljau_levels(self, t):
        _, levels = de_casteljau(self.points, self.exponents,
                                 self._unit_parameter(t))
        return levels

    def coefficients(self):
        """Monomial coefficients of the unit-domain representation."""
        if self._coeffs is None:
            self._coeffs = coefficients_from_control_points(
                self.points, self.exponents)
        return self._coeffs

    def blossom(self, args, zeros=0):
        """Unit-domain blossom; args live in (0, 1] local coordinates."""
        return blossom_value(self.coefficients(), self.exponents, args, zeros)

    def derivative(self):
        """The hodograph, as a curve over the reduced exponent space.

        Needs r_1 >= 1.  For r_1 = 1 the reduced space has order n-1 and
        the k-th point is D_k (p_{k+1} - p_k); for r_1 > 1 the order stays
        n, the leading point is zero (P'(a) = 0), and point k is
        D_k (p_k - p_{k-1}).  Everything is scaled by 1/(b-a) for the
        reparametrization."""
        n = self.n
        a, b = self.interval
        if n == 0:
            zero = vec_zero_like(self.points[0])
            return GelfondBezierCurve((0,), (zero,), self.interval)
        case, reduced, coeffs = hodograph_data(self.exponents)
        inv = exact_div(1, b - a)
        deltas = [vec_sub(q, p) for p, q in zip(self.points, self.points[1:])]
        if case == "unit":
            pts = [vec_scale(c * inv, d) for c, d in zip(coeffs, deltas)]
        else:
            pts = [vec_zero_like(self.points[0])]
            pts += [vec_scale(c * inv, d) for c, d in zip(coeffs, deltas)]
        return GelfondBezierCurve(reduced, pts, self.interval)

    def left_segment(self, x):
        """Restriction to the left part [a, a + (b-a) x] of the domain, in
        the same space: control points q_k = f_P(0^{n-k}, x^k)."""
        if not 0 < x <= 1:
            raise ValueError(f"left fraction x={x} outside (0, 1]")
        n = self.n
        pts = [self.blossom((x,) * k, zeros=n - k) for k in range(n + 1)]
        a, b = self.interval
        return GelfondBezierCurve(self.exponents, pts, (a, a + (b - a) * x))

    def __repr__(self):
        return (f"GelfondBezierCurve(exponents={tuple(self.exponents)}, "
                f"points={self.points}, interval={self.interval})")


def derivative_curve(curve):
    return curve.derivative()


def endpoint_derivatives(curve):
    """The two endpoint identities: P'(a) and P'(b) from control points.

    P'(b) = r_n (p_n - p_{n-1}) / (b - a) always; P'(a) is
    (prod_{j>=2} r_j/(r_j - 1)) (p_1 - p_0) / (b - a) when r_1 = 1 and the
    zero vector when r_1 > 1."""
    r = curve.exponents
    n = r.n
    a, b = curve.interval
    if n == 0:
        z = vec_zero_like(curve.points[0])
        return z, z
    inv = exact_div(1, b - a)
    at_b = vec_scale(r[n] * inv, vec_sub(curve.points[-1], curve.points[-2]))
    if r[1] == 1:
        c = Fraction(1) if all(is_exact(x) for x in r.exponents) else 1.0
        for j in range(2, n + 1):
            c = c * r[j] / (r[j] - 1)
        at_a = vec_scale(c * inv, vec_sub(curve.points[1], curve.points[0]))
    elif r[1] > 1:
        at_a = vec_zero_like(curve.points[0])
    else:
        raise NotImplementedError("endpoint derivative needs r_1 >= 1")
    return at_a, at_b


def initial_tangency(curve):
    """For integer r_1: P vanishes to order r_1 at t = a against its start
    point, with

        P^{(r_1)}(a) = r_1! prod_{j=2}^n (r_j/(r_j - r_1))
                       (p_1 - p_0) / (b-a)^{r_1}."""
    r = curve.exponents
    n = r.n
    if n == 0:
        raise ValueError("constant curve has no tangency data")
    r1 = r[1]
    if not (is_exact(r1) and int(r1) == r1):
        raise ValueError("initial tangency constant needs integer r_1")
    r1 = int(r1)
    a, b = curve.interval
    c = 1
    for j in range(2, n + 1):
        c = c * exact_div(r[j], r[j] - r[1])
    scale = factorial(r1) * c * exact_div(1, b - a) ** r1
    return r1, vec_scale(scale, vec_sub(curve.points[1], curve.points[0]))


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


def c1_join_head(left, right_exponents, right_interval):
    """First two control points (Q_0, Q_1) of a curve on right_interval
    joining `left` with a continuous value and first derivative.

    The right space must have s_1 = 1 (otherwise its start derivative is
    pinned to zero and cannot match a generic left derivative):

        Q_0 = P_n,
        Q_1 = Q_0 + (c-b)/(b-a) r_n [prod_{j=2}^m (s_j - 1)/s_j] (P_n - P_{n-1})."""
    s = as_exponents(right_exponents)
    m = s.n
    if m == 0:
        raise ValueError("right space must have at least order 1")
    if s[1] != 1:
        raise NotImplementedError("C1 join needs s_1 = 1 in the right space")
    a, b = left.interval
    bb, c = right_interval
    if bb != b:
        raise ValueError(f"right interval must start at {b}, got {bb}")
    if not c > b:
        raise ValueError("right interval is empty")
    r = left.exponents
    n = r.n
    if n == 0:
        raise ValueError("left curve is constant; join any constant curve")
    q0 = left.points[-1]
    factor = exact_div(c - b, b - a) * r[n]
    for j in range(2, m + 1):
        factor = factor * exact_div(s[j] - 1, s[j])
    q1 = vec_add(q0, vec_scale(factor, vec_sub(left.points[-1], left.points[-2])))
    return q0, q1


def c1_join(left, right_exponents, right_interval, free_points):
    """Assemble the full right curve: the joined head plus m-1 free points."""
    s = as_exponents(right_exponents)
    q0, q1 = c1_join_head(left, right_exponents, right_interval)
    free = tuple(as_point(p) for p in free_points)
    if len(free) != s.n - 1:
        raise ValueError(f"expected {s.n - 1} free points, got {len(free)}")
    return GelfondBezierCurve(s, (q0, q1) + free, right_interval)


def curve_to_json(curve):
    """Serialize; Fractions become "p/q" strings, scalar points become
    single-coordinate arrays."""
    pts = []
    for p in curve.points:
        coords = p if isinstance(p, tuple) else (p,)
        pts.append([format_number(c) for c in coords])
    data = {
        "exponents": [format_number(x) for x in curve.exponents],
        "interval": [format_number(x) for x in curve.interval],
        "points": pts,
    }
    return json.dumps(data, indent=2)


def curve_from_json(text):
    data = json.loads(text)
    if isinstance(data, dict) and isinstance(data.get("curve"), dict):
        # accept the sampled-curve envelope emitted by `curve --format json`
        data = data["curve"]
    try:
        exponents = [parse_number(x) for x in data["exponents"]]
        interval = tuple(parse_number(x) for x in data["interval"])
        points = [tuple(parse_number(c) for c in p) for p in data["points"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed curve JSON: {exc}") from exc
    if len(interval) != 2:
        raise ValueError("interval must have exactly two endpoints")
    return GelfondBezierCurve(exponents, points, interval)
