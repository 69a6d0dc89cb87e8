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

The report measures its rows `_CHUNK` at a time.  The polygons of a
chunk, each padded by repeats of its last point (which leaves its
chord-length samples unchanged), are resampled as one stack, and one
Hausdorff pass and one sup pass cover the stack.  `sample_polyline`,
`hausdorff_distance` and `sup_param_distance` treat a single polygon or
point set as a stack of one row.

The Hausdorff distance of a row is the larger of the directed maxima
D(A, B) = max_i min_j |a_i - b_j|^2.  Both directions raise one running
maximum per row, `best`, and skip a point a_i whose upper bound U_i is at
most `best`, since then min_j |a_i - b_j|^2 <= U_i <= best (the early
break of Taha and Hanbury, IEEE TPAMI 2015).  The bounds come in tiers:

 1. every point gets U_i from the narrow band, the points of B whose
    indices lie within `_NARROW` of i rescaled to len(B); in each row and
    direction the point with the largest U_i is measured first;
 2. a point that stays open, U_i > best, gets the full bound: the band
    of half-width `_BAND` and `_COARSE` evenly spaced points of B.  Only
    the open points are gathered, unless more than `_DENSE_SHARE` of a
    row's points are open; then the whole row is bounded at once;
 3. the open points are measured in decreasing order of bound, one per
    row at first and twice as many each step after, while a bound still
    exceeds its row's `best`.

Each bound is an entry of its point's row of squared distances, formed by
the same formula, so the result is bit-identical to the dense pass.  A
pass that can skip nothing costs the dense pass plus the bounds.
"""

import functools
import itertools
import math

import numpy as np

from .arith import as_point, exact_div, is_exact, lerp
from .partitions import ExponentSequence, as_exponents
from .curves import GelfondBezierCurve

# Rows per squared-distance block of the diameter kernel.  The Hausdorff
# pass measures points in blocks of as many floats, BLOCK_ROWS n, and at
# most BLOCK_ROWS points of a row per step.
BLOCK_ROWS = 64

# The Hausdorff pass (see the module docstring): half-widths of the narrow
# and the full index band, the number of evenly spaced points in the full
# bound, the share of open points above which a row is bounded whole, and
# the open points bounded per block.
_NARROW = 2
_BAND = 4
_COARSE = 24
_DENSE_SHARE = 0.4
_BOUND_BLOCK = 256

# Report rows measured together.  The blocks above keep the temporaries of
# a chunk's pass near 256 KB at the default 512 samples, whatever its size.
_CHUNK = 8


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
    """The exponents r_1..r_n of a float corner-cutting flow, kept in arrays
    preallocated for `capacity` exponents, so that the weights of each
    insertion come from one vectorised pass (see the module docstring)."""

    def __init__(self, exponents, capacity):
        self.size = 0
        self.values = np.empty(capacity)                 # float(r_k)
        self.floats = np.empty(capacity, dtype=bool)     # r_k is not exact
        # r_k = a_k / b_k as Python ints (0 / 1 for a float)
        self.num = np.empty(capacity, dtype=object)
        self.den = np.empty(capacity, dtype=object)
        for x in exponents:
            self.append(x)

    def append(self, x):
        k, exact = self.size, is_exact(x)
        self.values[k] = float(x)
        self.floats[k] = not exact
        self.num[k], self.den[k] = (x.numerator, x.denominator) if exact else (0, 1)
        self.size = k + 1

    def weights(self, rho):
        """(v, w) of inserting rho above every r_k."""
        k = self.size
        values, floats = self.values[:k], self.floats[:k]
        if not is_exact(rho):
            w = values / rho
            return 1.0 - w, w
        a, b = self.num[:k] * rho.denominator, self.den[:k] * rho.numerator
        w = (a / b).astype(float)
        v = ((b - a) / b).astype(float)
        if floats.any():
            w = np.where(floats, values / float(rho), w)
            v = np.where(floats, 1.0 - w, v)
        return v, w


def _float_corner_cutting(points, exponents, source, iterations):
    """`corner_cutting` with the control points as one (m, d) float array;
    yields (iteration, polygon), bit for bit the points `corner_cutting`
    gives on the same points as float tuples."""
    r = as_exponents(exponents)
    polygon = _point_array(points)
    if len(polygon) != r.n + 1:
        raise ValueError(f"expected {r.n + 1} control points, got {len(polygon)}")
    exps, last = _InsertionWeights(r[1:], r.n + iterations), r[r.n]
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
    """Resample a polygon uniformly in chord length.  A stack of polygons,
    (rows, m, d), gives (rows, count, d); repeating a polygon's last point
    leaves its samples unchanged, so polygons of different lengths can
    share a stack."""
    arr = _point_array(points)
    stack = arr if arr.ndim == 3 else arr[None]
    knots = np.zeros(stack.shape[:2])
    np.cumsum(np.linalg.norm(np.diff(stack, axis=1), axis=2), axis=1,
              out=knots[:, 1:])
    out = np.repeat(stack[:, :1], count, axis=1)
    # the stations of the rows that move; a zero step among them would
    # change how np.linspace rounds every row
    moving = np.flatnonzero(knots[:, -1] != 0.0)
    stations = np.linspace(0.0, knots[moving, -1], count, axis=1)
    for r, x in zip(moving, stations):
        for k in range(stack.shape[2]):
            out[r, :, k] = np.interp(x, knots[r], stack[r, :, k])
    return out if arr.ndim == 3 else out[0]


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
    """Two point sets, or stacks of them, as (d, rows, m) and (d, rows, n)
    arrays of coordinate rows; a single set is a stack of one row."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[-2] == 0 or B.shape[-2] == 0:
        raise ValueError("distance between empty point sets")
    if A.shape[-1] != B.shape[-1]:
        raise ValueError(f"points of dimension {A.shape[-1]} against {B.shape[-1]}")
    A, B = (np.ascontiguousarray(np.moveaxis(X.reshape((-1,) + X.shape[-2:]), -1, 0))
            for X in (A, B))
    if min(A.shape[1], B.shape[1]) > 1 and A.shape[1] != B.shape[1]:
        raise ValueError(f"stacks of {A.shape[1]} and {B.shape[1]} rows")
    return A, B


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


@functools.lru_cache(maxsize=32)
def _band(m, n, half_width):
    """For each of m indices, the indices of the n points in the band of
    half_width around its rescaled index: (2 half_width + 1, m), read-only
    since every caller shares it."""
    offsets = np.arange(-half_width, half_width + 1)[:, None]
    band = np.clip(_rescaled(np.arange(m), m, n) + offsets, 0, n - 1)
    band.setflags(write=False)
    return band


def _take(X, r, i):
    """The points i of rows r of a stack X, (d, rows, m), as (d,) + the
    broadcast shape of i and r.  A stack of one row stands for every row,
    and gives (d,) + the shape of i."""
    rows, m = X.shape[1:]
    return np.take(X.reshape(len(X), -1), i + r * m if rows > 1 else i, axis=1)


def _narrow_bounds(A, B):
    """For each point of each row of A, (d, rows, m), its least squared
    distance to the points of its row of B in the index band of
    half-width `_NARROW` around it, one offset at a time."""
    bound = None
    for near in _band(A.shape[2], B.shape[2], _NARROW):
        squared = _squared_distances(A, np.take(B, near, axis=2))
        bound = squared if bound is None else np.minimum(bound, squared, out=bound)
    return bound


def _bounds(A, B, r, i):
    """For the points i of rows r of A, the least squared distance to the
    points of the same row of B in the index band of half-width `_BAND`
    around them and to `_COARSE` evenly spaced ones."""
    m, n = A.shape[2], B.shape[2]
    k = min(n, _COARSE)
    a = _take(A, r, i)[:, None]
    near = _take(B, r, _band(m, n, _BAND)[:, i])
    far = _take(B, r, _rescaled(np.arange(k), k, n)[:, None])
    return np.minimum(_squared_distances(a, near).min(axis=0),
                      _squared_distances(a, far).min(axis=0))


def _measure(A, B, r, i, best):
    """Raise best[r] to min_j |a_ri - b_rj|^2 at the points i of rows r, in
    blocks whose temporaries hold BLOCK_ROWS n floats: two rows of squared
    distances per point, and the point's row of B where B is a stack."""
    block = BLOCK_ROWS // (2 if B.shape[1] == 1 else 2 + len(B))
    for k in range(0, len(r), block):
        rk = r[k:k + block]
        b = np.take(B, rk, axis=1) if B.shape[1] > 1 else B
        a = _take(A, rk, i[k:k + block])[:, :, None]
        np.maximum.at(best, rk, _squared_distances(a, b).min(axis=1))


def _seeded_bounds(A, B, best):
    """The narrow bound of every point of each row of A, (rows, m), after
    measuring the point of each row that it bounds highest, whose bound
    becomes -inf."""
    bound = _narrow_bounds(A, B)
    r, i = np.arange(len(bound)), bound.argmax(axis=1)
    keep = bound[r, i] > best
    _measure(A, B, r[keep], i[keep], best)
    bound[r, i] = -np.inf
    return bound


def _directed_max_min(A, B, bound, best):
    """Raise best_r to max_i min_j |a_ri - b_rj|^2 for each row r of A
    against its row of B, measuring only the points whose bound exceeds
    their row's running maximum (see the module docstring); the measured
    and the skipped points end with bound -inf."""
    rows, m = bound.shape
    open_ = bound > best[:, None]
    dense = open_.sum(axis=1) > _DENSE_SHARE * m
    for row in np.flatnonzero(dense):
        bound[row] = _bounds(A, B, row, np.arange(m))
    r, i = np.nonzero(open_ & ~dense[:, None])
    for k in range(0, len(r), _BOUND_BLOCK):
        block = slice(k, k + _BOUND_BLOCK)
        bound[r[block], i[block]] = _bounds(A, B, r[block], i[block])
    bound[~open_] = -np.inf
    size = 1
    while True:
        k = min(size, m)
        top = np.argpartition(bound, m - k, axis=1)[:, m - k:]
        r, c = np.nonzero(np.take_along_axis(bound, top, axis=1) > best[:, None])
        if not len(r):
            return
        _measure(A, B, r, top[r, c], best)
        bound[r, top[r, c]] = -np.inf
        size = min(2 * size, BLOCK_ROWS)


def hausdorff_distance(A, B):
    """Symmetric Hausdorff distance between two sampled point sets.  A
    stack of sets, (rows, m, d), against one set or an equally long stack
    gives the distance of each row."""
    stacked = np.ndim(A) == 3 or np.ndim(B) == 3
    A, B = _coordinates(A, B)
    best = np.full(max(A.shape[1], B.shape[1]), -np.inf)
    there, back = _seeded_bounds(A, B, best), _seeded_bounds(B, A, best)
    _directed_max_min(A, B, there, best)
    _directed_max_min(B, A, back, best)
    dist = np.sqrt(best)
    return dist if stacked else dist[0]


def sup_param_distance(A, B):
    """Row-by-row sup distance of two equally long sample sequences, or of
    each row of a stack of them, (rows, m, d), against one sequence."""
    if A.shape[-2] != B.shape[-2]:
        raise ValueError("sample counts differ")
    dist = np.linalg.norm(A - B, axis=-1).max(axis=-1)
    return dist if dist.ndim else float(dist)


def polygon_diameter(points):
    arr = _point_array(points)
    C = _coordinates(arr, arr)[0][:, 0]
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
    against, both (m, d) arrays, in the order of the iterations.  Points
    whose squared distances could overflow floats raise ValueError."""
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
    steps = _float_corner_cutting(points, exponents, source, iterations)
    rows = []
    while chunk := list(itertools.islice(steps, _CHUNK)):
        # each polygon padded by repeats of its last point to the chunk's
        # largest size
        size = len(chunk[-1][1])
        stack = np.stack([np.concatenate([p, np.repeat(p[-1:], size - len(p), axis=0)])
                          for _, p in chunk])
        poly_pts = sample_polyline(stack, samples)
        for (j, polygon), dist, sup in zip(
                chunk, hausdorff_distance(poly_pts, curve_pts),
                sup_param_distance(poly_pts, curve_pts)):
            rows.append((j, len(polygon), float(dist), float(sup)))
            if frame is not None:
                frame(j, polygon, curve_pts)
    return rows
