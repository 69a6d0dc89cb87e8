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

The report carries the polygon in floats: it converts the control points
once, before the first insertion, so each step costs a few float products
instead of Fractions whose size grows with every step.  `insert_exponent`
stays exact for exact input.  The distance kernels never form the full
(m, m, d) difference tensor: they build squared distances one coordinate
at a time over blocks of `BLOCK_ROWS` rows, keep running minima and
maxima, and take square roots only of the final extremes.  The square
root is monotone and correctly rounded, so the results are bit-identical
to taking it of every entry first.
"""

import numpy as np

from .arith import as_point, exact_div, lerp
from .partitions import ExponentSequence, as_exponents
from .curves import GelfondBezierCurve

# Rows per squared-distance block.  Against 512 samples the block buffer
# and its per-coordinate scratch take 2 x 256 KiB, reused for every block
# and small enough to stay in cache between the passes over them; 32-96
# rows timed alike, 128 and more slower.
BLOCK_ROWS = 64


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


def exponent_source(rule, extra=(), first_index=1):
    """A map j -> exponent for the corner-cutting flow: user-supplied
    `extra` values cover subscripts first_index, first_index+1, .., and the
    named tail rule takes over beyond them.

    Rules: "classical" j, "linear" 2j, "affine" 2j+10, "quadratic" j^2."""
    rules = {
        "classical": lambda j: j,
        "linear": lambda j: 2 * j,
        "affine": lambda j: 2 * j + 10,
        "quadratic": lambda j: j * j,
    }
    if rule not in rules:
        raise ValueError(f"unknown tail rule {rule!r}; pick from {sorted(rules)}")
    tail = rules[rule]
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


def _squared_distance_blocks(A, B):
    """Yield (start, block) with block[i, j] = |A[start + i] - B[j]|^2,
    summed coordinate by coordinate in index order.  Each block is a view
    of one buffer that the next step overwrites."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if len(A) == 0 or len(B) == 0:
        raise ValueError("distance between empty point sets")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points of dimension {A.shape[1]} against {B.shape[1]}")
    buffer = np.empty((min(BLOCK_ROWS, len(A)), len(B)))
    scratch = np.empty_like(buffer)
    for start in range(0, len(A), BLOCK_ROWS):
        rows = A[start:start + BLOCK_ROWS]
        block = buffer[:len(rows)]
        np.subtract.outer(rows[:, 0], B[:, 0], out=block)
        np.square(block, out=block)
        for k in range(1, A.shape[1]):
            diff = scratch[:len(rows)]
            np.subtract.outer(rows[:, k], B[:, k], out=diff)
            block += np.square(diff, out=diff)
        yield start, block


def hausdorff_distance(A, B):
    """Symmetric Hausdorff distance between two sampled point sets."""
    row_min = np.empty(len(A))
    col_min = np.full(len(B), np.inf)
    for start, block in _squared_distance_blocks(A, B):
        block.min(axis=1, out=row_min[start:start + len(block)])
        np.minimum(col_min, block.min(axis=0), out=col_min)
    return np.sqrt(max(row_min.max(), col_min.max()))


def sup_param_distance(A, B):
    """Row-by-row sup distance of two equally long sample sequences."""
    if len(A) != len(B):
        raise ValueError("sample counts differ")
    return float(np.linalg.norm(A - B, axis=1).max())


def polygon_diameter(points):
    arr = _point_array(points)
    return float(np.sqrt(max(block.max()
                             for _, block in _squared_distance_blocks(arr, arr))))


def convergence_report(points, exponents, source, iterations=100, samples=512,
                       target=None):
    """Corner-cut `iterations` times and measure each polygon against the
    target curve (by default the curve the initial data defines).

    Returns rows of (iteration, polygon_size, hausdorff, sup_param)."""
    if samples < 2:
        raise ValueError("need at least 2 samples per side")
    if target is None:
        target = GelfondBezierCurve(exponents,
                                    [as_point(p) for p in points])
    curve_pts = sample_curve(target, samples)
    polygon = [tuple(p) for p in _point_array(points).tolist()]
    rows = []
    for j, pts, r in corner_cutting(polygon, exponents, source, iterations):
        poly_pts = sample_polyline(pts, samples)
        rows.append((j, len(pts),
                     float(hausdorff_distance(poly_pts, curve_pts)),
                     sup_param_distance(poly_pts, curve_pts)))
    return rows
