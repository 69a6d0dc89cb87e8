"""Dimension elevation: exponent insertion and the corner-cutting flow.

Inserting an exponent rho into span(1, t^{r_1}, .., t^{r_n}) re-expresses
the same curve over n+2 control points.  With s the number of original
positive exponents below rho, the new points follow one rule:

    Q_0 = P_0,
    Q_k = (r_k/rho) P_{k-1} + (1 - r_k/rho) P_k     for k = 1..s,
    Q_k = P_{k-1}                                   for k = s+1..n+1.

All weights lie in [0, 1] (r_k < rho for k <= s), so the polygon refines
by corner cutting.  Repeatedly appending exponents from an unbounded
source drives the polygon toward the curve exactly when the Muntz
condition sum 1/r_i = infinity holds; the convergence report measures
that with two sampled distances per iteration:

 * Hausdorff distance between 512-point samplings of polygon and curve,
   the polygon sampled uniformly in chord length;
 * sup "parameter" distance: polygon chord-length samples against curve
   samples uniform in the curve parameter, compared index by index.  This
   pairs two different parametrizations and is a deliberately crude
   stand-in for a true reparametrized sup distance; it upper-bounds the
   Hausdorff distance and is reported alongside it.

The report carries the control polygon as one (m, d) float array,
converted once before the first insertion.  `corner_cutting` makes the
source increase, so every inserted rho lies above r_n (s = n) and one
vectorised step forms

    Q_0 = P_0,   Q_k = v_k P_k + w_k P_{k-1} (k = 1..n),   Q_{n+1} = P_n.

The weights are the floats by which `lerp` multiplies float points in
`insert_exponent`.  For exact r_k = a/b and rho = c/d they are the
correctly rounded quotients w_k = ad/(bc) and v_k = (bc - ad)/(bc), formed
from Python ints in object arrays, whose true division is correctly
rounded at any size; for a float on either side w_k = r_k/rho and
v_k = 1 - w_k.  So the float polygons are bit for bit those of
`insert_exponent` on float points, and `insert_exponent` stays exact for
exact input.

Every squared distance is formed one way: (a_k - b_k)^2 summed over the
coordinates in index order.  Square roots are taken only of the final
extremes; the square root is monotone and correctly rounded, so that is
bit-identical to taking it of every entry first.

The Hausdorff distance is the larger of the directed maxima
D(A, B) = max_i min_j |a_i - b_j|^2, and each is pruned with the early
break of Taha and Hanbury (IEEE TPAMI 2015).  Every row a_i gets an upper
bound U_i, its least squared distance to a fixed number of candidates in
B: the band of indices around i rescaled to len(B), and evenly spaced
points of B.  Rows are visited in order of decreasing U_i, eight at
first and twice as many each step after, and a row's minimum over all
of B is computed only while U_i exceeds the largest such minimum found
so far, `best`.  A skipped row has
min_j |a_i - b_j|^2 <= U_i <= best, so it cannot raise the maximum; since
the bounds are entries of the same rows, computed by the same formula,
the result is bit-identical to the dense pass.  When no row can be
skipped the kernel costs the dense pass plus the bound pass.  The second
direction starts from the first's maximum.
"""

import math

import numpy as np

from .arith import as_point, exact_div, is_exact, lerp
from .partitions import ExponentSequence, as_exponents
from .curves import GelfondBezierCurve

# Rows per squared-distance block of the diameter kernel, and the most
# rows per exact step of the pruned Hausdorff pass.
BLOCK_ROWS = 64

# The pruned Hausdorff pass: half-width of the index band and number of
# evenly spaced points that bound each row, and rows of its first exact
# step.  The bound pass holds (2 _BAND + 1 + _COARSE) d floats per row.
_BAND = 4
_COARSE = 24
_PRUNE_ROWS = 8


def insert_exponent(points, exponents, rho):
    """One elevation step; returns (new_points, new_exponents)."""
    r = as_exponents(exponents)
    n = r.n
    points = tuple(as_point(p) for p in points)
    if len(points) != n + 1:
        raise ValueError(f"expected {n + 1} control points, got {len(points)}")
    if not rho > 0:
        raise ValueError(f"inserted exponent must be positive, got {rho}")
    if rho in tuple(r):
        raise ValueError(f"exponent {rho} already present")
    s = sum(1 for i in range(1, n + 1) if r[i] < rho)
    new = [points[0]]
    for k in range(1, n + 1):
        if k <= s:
            w = exact_div(r[k], rho)
            new.append(lerp(points[k], points[k - 1], w))
        else:
            new.append(points[k - 1])
    new.append(points[n])
    return tuple(new), ExponentSequence(sorted(tuple(r) + (rho,)))


# tail rules j -> r_j of the corner-cutting flow, in the order that
# `elevate --tail-rule` lists them
TAIL_RULES = {
    "classical": lambda j: j,
    "linear": lambda j: 2 * j,
    "affine": lambda j: 2 * j + 10,
    "quadratic": lambda j: j * j,
}


def exponent_source(rule, extra=(), first_index=1):
    """A map j -> exponent for the corner-cutting flow: user-supplied
    `extra` values cover subscripts first_index, first_index+1, .., and the
    named tail rule of TAIL_RULES takes over beyond them.

    Rules: "classical" j, "linear" 2j, "affine" 2j+10, "quadratic" j^2."""
    if rule not in TAIL_RULES:
        raise ValueError(
            f"unknown tail rule {rule!r}; pick from {sorted(TAIL_RULES)}")
    tail = TAIL_RULES[rule]
    extra = tuple(extra)

    def source(j):
        idx = j - first_index
        if 0 <= idx < len(extra):
            return extra[idx]
        return tail(j)

    return source


PRESETS = {
    # (exponents, tail rule): the first converges (sum 1/r_i diverges),
    # the second does not (sum 1/j^2 < inf), the third converges slowly.
    "cubic-linear": ((0, 1, 2, 3), "linear"),
    "cubic-quadratic": ((0, 1, 2, 3), "quadratic"),
    "sparse-affine": ((0, 2, 4, 14), "affine"),
}


def preset(name):
    """(exponents, source) for a named elevation scenario."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; pick from {sorted(PRESETS)}")
    exponents, rule = PRESETS[name]
    return ExponentSequence(exponents), exponent_source(rule)


def corner_cutting(points, exponents, source, iterations):
    """Iterate insertions of source(n+1), source(n+2), ..; yields
    (iteration, points, exponents) including the initial state."""
    r = as_exponents(exponents)
    pts = tuple(as_point(p) for p in points)
    yield 0, pts, r
    for j in range(1, iterations + 1):
        rho = source(r.n + 1)
        last = r[r.n]
        if not rho > last:
            raise ValueError(
                f"exponent source must increase: got {rho} after {last}")
        pts, r = insert_exponent(pts, r, rho)
        yield j, pts, r


class _InsertionWeights:
    """The exponents r_1..r_n of a float corner-cutting flow, kept as arrays
    so that the weights of each insertion come from one vectorised pass
    (see the module docstring)."""

    def __init__(self, exponents):
        self.values = np.empty(0)                 # float(r_k)
        self.floats = np.empty(0, dtype=bool)     # r_k is not exact
        # r_k = a_k / b_k as Python ints (0 / 1 for a float)
        self.num = np.empty(0, dtype=object)
        self.den = np.empty(0, dtype=object)
        for x in exponents:
            self.append(x)

    def append(self, x):
        exact = is_exact(x)
        a, b = (x.numerator, x.denominator) if exact else (0, 1)
        self.values = np.append(self.values, float(x))
        self.floats = np.append(self.floats, not exact)
        self.num = np.append(self.num, np.array([a], dtype=object))
        self.den = np.append(self.den, np.array([b], dtype=object))

    def weights(self, rho):
        """(v, w) of inserting rho above every r_k."""
        if not is_exact(rho):
            w = self.values / rho
            return 1.0 - w, w
        a, b = self.num * rho.denominator, self.den * rho.numerator
        w = (a / b).astype(float)
        v = ((b - a) / b).astype(float)
        if self.floats.any():
            w = np.where(self.floats, self.values / float(rho), w)
            v = np.where(self.floats, 1.0 - w, v)
        return v, w


def _float_corner_cutting(points, exponents, source, iterations):
    """`corner_cutting` with the control points as one (m, d) float array;
    yields (iteration, polygon), bit for bit the points `corner_cutting`
    gives on the same points as float tuples."""
    r = as_exponents(exponents)
    polygon = _point_array(points)
    if len(polygon) != r.n + 1:
        raise ValueError(f"expected {r.n + 1} control points, got {len(polygon)}")
    exps, last = _InsertionWeights(r[1:]), r[r.n]
    yield 0, polygon
    for j in range(1, iterations + 1):
        rho = source(r.n + j)
        if not rho > last:
            raise ValueError(
                f"exponent source must increase: got {rho} after {last}")
        v, w = exps.weights(rho)
        exps.append(rho)
        last = rho
        polygon = np.concatenate([
            polygon[:1],
            v[:, None] * polygon[1:] + w[:, None] * polygon[:-1],
            polygon[-1:]])
        yield j, polygon


def _point_array(points):
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=float)
    rows = []
    for p in points:
        p = as_point(p)
        rows.append([float(c) for c in (p if isinstance(p, tuple) else (p,))])
    return np.asarray(rows, dtype=float)


def sample_polyline(points, count):
    """Resample a polygon uniformly in chord length."""
    arr = _point_array(points)
    if len(arr) == 1:
        return np.repeat(arr, count, axis=0)
    seg = np.linalg.norm(np.diff(arr, axis=0), axis=1)
    knots = np.concatenate([[0.0], np.cumsum(seg)])
    total = knots[-1]
    if total == 0.0:
        return np.repeat(arr[:1], count, axis=0)
    stations = np.linspace(0.0, total, count)
    cols = [np.interp(stations, knots, arr[:, d]) for d in range(arr.shape[1])]
    return np.stack(cols, axis=1)


def sample_curve(curve, count):
    """`count` points on the curve, equalized in chord length.

    Uniform parameter spacing starves high-exponent curves of samples
    where most of the arc lives (t^14 covers half its track in the last
    few percent of [a, b]), which puts a resolution floor under the
    Hausdorff estimates.  Sample a dense parameter grid first, then
    resample by cumulative chord length."""
    a, b = curve.interval
    dense = max(4 * count, 512)
    ts = np.linspace(float(a), float(b), dense)
    ts[0], ts[-1] = float(a), float(b)
    arr = np.asarray(curve.evaluate_many(ts), dtype=float)
    return sample_polyline(arr.reshape(dense, -1), count)


def _coordinates(A, B):
    """Two point sets as (d, m) and (d, n) arrays of coordinate rows."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if len(A) == 0 or len(B) == 0:
        raise ValueError("distance between empty point sets")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points of dimension {A.shape[1]} against {B.shape[1]}")
    return np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)


def _squared_distances(X, Y):
    """(X[0] - Y[0])^2 + (X[1] - Y[1])^2 + .. over the leading, coordinate
    axis, summed in index order, with X[k] and Y[k] broadcast together."""
    total = np.subtract(X[0], Y[0])
    np.square(total, out=total)
    for k in range(1, len(X)):
        diff = np.subtract(X[k], Y[k])
        total += np.square(diff, out=diff)
    return total


def _rescaled(i, m, n):
    """The nearest of n evenly spaced indices to index i of m."""
    return (i * (n - 1) + (m - 1) // 2) // max(m - 1, 1)


def _row_bounds(A, B):
    """For each point of A, its least squared distance to the points of B
    in the index band around it and to `_COARSE` evenly spaced ones."""
    m, n = A.shape[1], B.shape[1]
    k = min(n, _COARSE)
    coarse = B[:, _rescaled(np.arange(k), k, n), None]
    band = np.arange(-_BAND, _BAND + 1)[:, None]
    near = B[:, np.clip(_rescaled(np.arange(m), m, n) + band, 0, n - 1)]
    return np.minimum(_squared_distances(A, near).min(axis=0),
                      _squared_distances(A[:, None], coarse).min(axis=0))


def _directed_max_min(A, B, best):
    """max(best, max_i min_j |a_i - b_j|^2), skipping the points of A whose
    bound cannot exceed the running maximum.  The rows computed per step
    grow from `_PRUNE_ROWS` to `BLOCK_ROWS`, so that a pass that prunes
    nothing takes few steps."""
    bound = _row_bounds(A, B)
    order = np.argsort(bound)[::-1]
    start, size = 0, _PRUNE_ROWS
    while start < len(order):
        rows = order[start:start + size]
        rows = rows[bound[rows] > best]
        if not len(rows):
            break
        best = max(best, _squared_distances(A[:, rows, None], B[:, None])
                   .min(axis=1).max())
        start += size
        size = min(2 * size, BLOCK_ROWS)
    return best


def hausdorff_distance(A, B):
    """Symmetric Hausdorff distance between two sampled point sets."""
    A, B = _coordinates(A, B)
    return np.sqrt(_directed_max_min(B, A, _directed_max_min(A, B, -np.inf)))


def sup_param_distance(A, B):
    """Row-by-row sup distance of two equally long sample sequences."""
    if len(A) != len(B):
        raise ValueError("sample counts differ")
    return float(np.linalg.norm(A - B, axis=1).max())


def polygon_diameter(points):
    arr = _point_array(points)
    C, _ = _coordinates(arr, arr)
    return float(np.sqrt(max(
        _squared_distances(C[:, start:start + BLOCK_ROWS, None], C[:, None]).max()
        for start in range(0, C.shape[1], BLOCK_ROWS))))


def convergence_report(points, exponents, source, iterations=100, samples=512,
                       target=None, frame=None):
    """Corner-cut `iterations` times and measure each polygon against the
    target curve (by default the curve the initial data defines).

    Returns rows of (iteration, polygon_size, hausdorff, sup_param).  If
    `frame` is given, it is called as frame(iteration, polygon, curve) with
    each float control polygon and the curve samples it was measured
    against, both (m, d) arrays.  Points whose squared distances could
    overflow floats raise ValueError."""
    if samples < 2:
        raise ValueError("need at least 2 samples per side")
    if target is None:
        target = GelfondBezierCurve(exponents,
                                    [as_point(p) for p in points])
    # every sample lies in the box |x_k| <= extent of the control points,
    # so no squared distance exceeds d (2 extent)^2
    box = _point_array(points)
    extent = float(np.abs(box).max())
    if not math.isfinite(box.shape[1] * 4 * extent * extent):
        raise ValueError(f"coordinates as large as {extent:g}: squared "
                         "distances would overflow floats")
    curve_pts = sample_curve(target, samples)
    rows = []
    for j, polygon in _float_corner_cutting(points, exponents, source,
                                            iterations):
        poly_pts = sample_polyline(polygon, samples)
        rows.append((j, len(polygon),
                     float(hausdorff_distance(poly_pts, curve_pts)),
                     sup_param_distance(poly_pts, curve_pts)))
        if frame is not None:
            frame(j, polygon, curve_pts)
    return rows
