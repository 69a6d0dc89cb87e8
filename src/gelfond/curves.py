"""Bezier-style curves over Muntz spaces span(1, t^{r_1}, .., t^{r_n}).

A curve stores control points p_0..p_n and an interval [a, b]; values come
from the unit-domain basis through the reparametrization s = (t-a)/(b-a),
so a general interval never needs its own basis (the span of the shifted
powers (t-a)^{r_k} on [a, b] is handled this way by construction).

Control points may be scalars or same-length tuples; all arithmetic stays
exact for int/Fraction data and falls back to floats otherwise.
"""

import json
from functools import cached_property
from math import factorial

import numpy as np

from .arith import (as_point, exact_div, format_number, is_exact, parse_number,
                    vec_add, vec_scale, vec_sub, vec_zero_like)
from .blossom import (blossom_value, coefficients_from_control_points,
                      de_casteljau)
from .gelfond_basis import basis_table, basis_values, hodograph_data
from .partitions import as_exponents


class GelfondBezierCurve:

    def __init__(self, exponents, points, interval=(0, 1)):
        self.exponents = as_exponents(exponents)
        pts = tuple(as_point(p) for p in points)
        n = self.exponents.n
        if len(pts) != n + 1:
            raise ValueError(f"expected {n + 1} control points, got {len(pts)}")
        dims = {len(p) if isinstance(p, tuple) else None for p in pts}
        if len(dims) > 1:
            raise ValueError("control points of mixed dimensions")
        a, b = interval
        if not a < b:
            raise ValueError(f"empty interval [{a}, {b}]")
        self.points = pts
        self.interval = (a, b)
        self._coeffs = None
        # the point layout, settled once for `evaluate`: tuple or scalar
        # points, and the coordinates as columns (one for scalars)
        self._tuples = dims != {None}
        self._columns = tuple(zip(*(p if self._tuples else (p,) for p in pts)))

    @property
    def n(self):
        return self.exponents.n

    @cached_property
    def _float_interval(self):
        """float(a), float(b) and float(b - a), formed on the first float
        parameter: a float t - a is t - float(a), and dividing a float by
        b - a divides it by float(b - a)."""
        a, b = self.interval
        return float(a), float(b), float(b - a)

    def local_parameter(self, t):
        """s = (t - a)/(b - a).  A float t is checked against the
        endpoints rounded to floats, so a float grid from float(a) to
        float(b) stays valid when an endpoint such as 1/3 rounds to just
        outside [a, b]."""
        a, b = self.interval
        if is_exact(t):
            lo, hi, width = a, b, b - a
        else:
            lo, hi, width = self._float_interval
            t = float(t)
        if not lo <= t <= hi:
            raise ValueError(f"t={t} outside [{a}, {b}]")
        return exact_div(t - lo, width)

    def _unit_parameter(self, t):
        # at t = float(b) the rounded quotient can exceed 1, e.g. on [1/3, 1]
        return min(self.local_parameter(t), 1.0)

    def evaluate(self, t):
        """Basis-sum evaluation over `basis_values`: each coordinate is
        w_0 c_0 + w_1 c_1 + .. + w_n c_n, summed left to right."""
        w = basis_values(self.exponents, self._unit_parameter(t))
        out = []
        for c in self._columns:
            acc = w[0] * c[0]
            for k in range(1, len(w)):
                acc = acc + w[k] * c[k]
            out.append(acc)
        return tuple(out) if self._tuples else out[0]

    __call__ = evaluate

    def evaluate_many(self, ts):
        """[self.evaluate(t) for t in ts], value for value.

        Float parameters take one numpy pass: the basis values of all
        local parameters from `basis_table` (the Horner table of the
        basis polynomials, or the Opitz kernel for real exponents), then
        the weighted points summed in the order `evaluate` sums them, so
        every float operation is the one the scalar route performs.  Exact
        parameters run `evaluate` point by point."""
        ts = list(ts)
        if not (ts and all(isinstance(t, float) for t in ts)):
            return [self.evaluate(t) for t in ts]
        a, b = self.interval
        lo, hi, width = self._float_interval
        t = np.asarray(ts, dtype=float)
        for end in (float(t.min()), float(t.max())):
            if not lo <= end <= hi:
                raise ValueError(f"t={end} outside [{a}, {b}]")
        s = np.minimum((t - lo) / width, 1.0)
        weights = basis_table(self.exponents, s)
        points = np.array(self.points, dtype=float).reshape(len(self.points), -1)
        out = None
        for w, p in zip(weights.T, points):
            term = w[:, None] * p
            out = term if out is None else out + term
        if self._tuples:
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

    def blossom(self, args):
        """Unit-domain blossom; args live in (0, 1] local coordinates."""
        return blossom_value(self.coefficients(), self.exponents, args)

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

    def __repr__(self):
        return (f"GelfondBezierCurve(exponents={tuple(self.exponents)}, "
                f"points={self.points}, interval={self.interval})")


def endpoint_derivatives(curve):
    """The two endpoint identities: P'(a) and P'(b), the first and last
    control points of the hodograph.

    P'(b) = r_n (p_n - p_{n-1}) / (b - a); P'(a) is
    (prod_{j>=2} r_j/(r_j - 1)) (p_1 - p_0) / (b - a) when r_1 = 1 and the
    zero vector when r_1 > 1."""
    hodograph = curve.derivative()
    return hodograph.points[0], hodograph.points[-1]


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


def c1_join_head(left, right_exponents, right_interval):
    """First two control points (Q_0, Q_1) of a curve on right_interval
    joining `left` with a continuous value and first derivative.

    The right space must have s_1 = 1 (otherwise its start derivative is
    pinned to zero and cannot match a generic left derivative).  With D_0
    the first hodograph coefficient of the right space (`hodograph_data`)
    and P'(b) = r_n (P_n - P_{n-1}) / (b-a), which holds for every left
    space:

        Q_0 = P_n,
        Q_1 = Q_0 + (c-b)/D_0 P'(b)."""
    s = as_exponents(right_exponents)
    if s.n == 0:
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
    _, _, coeffs = hodograph_data(s)
    factor = exact_div((c - b) * r[n], (b - a) * coeffs[0])
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
