from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gelfond.curves import GelfondBezierCurve
from gelfond.dimelev import (BLOCK_ROWS, PRESETS, _BAND, _CHUNK, _COARSE,
                             _NARROW, _bounds, _coordinates,
                             _float_corner_cutting, _narrow_bounds,
                             convergence_report,
                             corner_cutting, exponent_source,
                             hausdorff_distance, insert_exponent,
                             polygon_diameter, preset, sample_curve,
                             sample_polyline, sup_param_distance)

PTS = ((0, 0), (1, 4), (3, 4), (4, 0))


def assert_same_curve(old_pts, old_exps, new_pts, new_exps, exact=True):
    before = GelfondBezierCurve(old_exps, old_pts)
    after = GelfondBezierCurve(new_exps, new_pts)
    for t in (Fraction(1, 7), Fraction(1, 2), Fraction(6, 7)):
        was = before.evaluate(t)
        now = after.evaluate(t)
        if exact:
            assert now == was
        else:
            # fractional exponents leave the rational field (t^{7/2})
            assert all(abs(u - v) < 1e-12 for u, v in zip(now, was))


def test_insertion_preserves_curve_all_slots():
    exps = (0, 2, 4, 6)
    # below the interior exponents, in the middle, above the top
    for rho in (1, 3, 5, 9):
        new_pts, new_exps = insert_exponent(PTS, exps, rho)
        assert len(new_pts) == len(PTS) + 1
        assert tuple(new_exps) == tuple(sorted(exps + (rho,)))
        assert_same_curve(PTS, exps, new_pts, new_exps)
    new_pts, new_exps = insert_exponent(PTS, exps, Fraction(7, 2))
    assert_same_curve(PTS, exps, new_pts, new_exps, exact=False)


def test_insertion_endpoints_and_hull():
    new_pts, _ = insert_exponent(PTS, (0, 2, 4, 6), 5)
    assert new_pts[0] == PTS[0] and new_pts[-1] == PTS[-1]
    xs = [p[0] for p in PTS]
    ys = [p[1] for p in PTS]
    for x, y in new_pts:
        assert min(xs) <= x <= max(xs) and min(ys) <= y <= max(ys)


def test_insertion_validation():
    with pytest.raises(ValueError):
        insert_exponent(PTS, (0, 2, 4, 6), 4)    # already present
    with pytest.raises(ValueError):
        insert_exponent(PTS, (0, 2, 4, 6), 0)
    with pytest.raises(ValueError):
        insert_exponent(PTS[:3], (0, 2, 4, 6), 5)


def test_exponent_source_rules():
    assert [exponent_source("classical")(j) for j in (4, 5)] == [4, 5]
    assert [exponent_source("linear")(j) for j in (4, 5)] == [8, 10]
    assert [exponent_source("affine")(j) for j in (4, 5)] == [18, 20]
    assert [exponent_source("quadratic")(j) for j in (4, 5)] == [16, 25]
    src = exponent_source("linear", extra=(7, 9), first_index=4)
    assert [src(j) for j in (4, 5, 6)] == [7, 9, 12]
    with pytest.raises(ValueError):
        exponent_source("cubic")


def test_corner_cutting_states():
    exps = (0, 1, 2, 3)
    states = list(corner_cutting(PTS, exps, exponent_source("linear"), 3))
    assert [it for it, _, _ in states] == [0, 1, 2, 3]
    assert states[0][1] == PTS and tuple(states[0][2]) == exps
    assert [len(pts) for _, pts, _ in states] == [4, 5, 6, 7]
    # r_j = 2j starting at j = 4
    assert tuple(states[-1][2]) == (0, 1, 2, 3, 8, 10, 12)
    bad = exponent_source("classical")   # j = 4 collides with nothing, but
    with pytest.raises(ValueError):      # extra values below r_n must fail
        list(corner_cutting(PTS, exps,
                            exponent_source("classical", extra=(2,),
                                            first_index=4), 1))
    assert bad(4) == 4


def test_sample_polyline():
    pts = ((0, 0), (2, 0), (2, 2))
    arr = sample_polyline(pts, 5)
    assert arr.shape == (5, 2)
    assert tuple(arr[0]) == (0, 0) and tuple(arr[-1]) == (2, 2)
    # chord-uniform: station 2 sits at the corner
    assert tuple(arr[2]) == (2, 0)
    single = sample_polyline(((1, 1),), 4)
    assert np.all(single == 1.0)


def test_distance_helpers():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    B = A + np.array([0.0, 1.0])
    assert hausdorff_distance(A, B) == pytest.approx(1.0)
    assert sup_param_distance(A, B) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sup_param_distance(A, B[:1])
    assert polygon_diameter(PTS) == pytest.approx(5.0)


def test_convergence_report_cubic_linear():
    exps, source = preset("cubic-linear")
    rows = convergence_report(PTS, exps, source, iterations=12, samples=128)
    assert [size for _, size, _, _ in rows] == list(range(4, 17))
    h = [row[2] for row in rows]
    assert h[-1] < h[0] / 2
    s = [row[3] for row in rows]
    assert s[-1] < s[0]


def test_convergence_report_against_foreign_target():
    exps, source = preset("cubic-linear")
    target = GelfondBezierCurve((0, 2, 4, 14), PTS)
    rows = convergence_report(PTS, exps, source, iterations=2, samples=64,
                              target=target)
    assert all(row[2] > 0 for row in rows)
    # the points are checked against the exponents also when the target
    # curve does not come from them
    with pytest.raises(ValueError, match="expected 4 control points, got 2"):
        convergence_report(PTS[:2], exps, source, iterations=2, samples=64,
                           target=target)
    with pytest.raises(ValueError, match="expected 2 control points, got 4"):
        convergence_report(PTS, (0, 1), exponent_source("linear"),
                           iterations=2, samples=64, target=target)


def test_presets():
    assert set(PRESETS) == {"cubic-linear", "cubic-quadratic",
                            "sparse-affine"}
    exps, _ = preset("sparse-affine")
    assert tuple(exps) == (0, 2, 4, 14)
    with pytest.raises(ValueError):
        preset("unknown")


def test_sample_curve_endpoints():
    curve = GelfondBezierCurve((0, 1, 2, 3), PTS, (1, 4))
    arr = sample_curve(curve, 33)
    assert tuple(arr[0]) == (0.0, 0.0)
    assert tuple(arr[-1]) == (4.0, 0.0)


@pytest.mark.parametrize("exps", [(0, 1, 2, 3), (0, 0.5, 2, 3.5)])
def test_sample_curve_fraction_interval(exps):
    # float(1/3) rounds below 1/3, and (1 - float(1/3)) / float(2/3)
    # rounds above 1
    curve = GelfondBezierCurve(exps, PTS, (Fraction(1, 3), 1))
    arr = sample_curve(curve, 33)
    assert tuple(arr[0]) == (0.0, 0.0)
    assert np.abs(arr[-1] - (4.0, 0.0)).max() < 1e-12


def dense_hausdorff(A, B):
    """The full (m, m, d) tensor formula the blocked kernel replaces."""
    d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def dense_diameter(arr):
    return np.sqrt(((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)).max()


@st.composite
def point_set_pairs(draw):
    dim = draw(st.integers(1, 3))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    sizes = st.integers(1, 2 * BLOCK_ROWS + 7)
    A = draw(arrays(float, (draw(sizes), dim), elements=coords))
    B = draw(arrays(float, (draw(sizes), dim), elements=coords))
    return A, B


@settings(max_examples=150, deadline=None)
@given(point_set_pairs())
def test_blocked_distances_equal_dense_formula(pair):
    A, B = pair
    assert hausdorff_distance(A, B) == dense_hausdorff(A, B)
    assert polygon_diameter(A) == dense_diameter(A)


def test_blocked_distances_on_block_edges():
    rng = np.random.default_rng(3)
    for m, n, dim in [(BLOCK_ROWS, 1, 1), (BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 3),
                      (3 * BLOCK_ROWS - 1, 5, 2), (1, 3 * BLOCK_ROWS, 3)]:
        A = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-6, 6)
        B = rng.normal(size=(n, dim))
        assert hausdorff_distance(A, B) == dense_hausdorff(A, B)
        assert hausdorff_distance(B, A) == dense_hausdorff(B, A)
        assert polygon_diameter(A) == dense_diameter(A)
    with pytest.raises(ValueError):
        hausdorff_distance(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        hausdorff_distance(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="stacks of 2 and 3 rows"):
        hausdorff_distance(np.zeros((2, 4, 2)), np.zeros((3, 4, 2)))


def exact_polygon_report(points, exponents, source, iterations, samples):
    """convergence_report with the control polygon carried in Fractions."""
    curve_pts = sample_curve(GelfondBezierCurve(exponents, points), samples)
    rows = []
    for j, pts, _ in corner_cutting(points, exponents, source, iterations):
        poly_pts = sample_polyline(pts, samples)
        rows.append((j, len(pts), float(hausdorff_distance(poly_pts, curve_pts)),
                     sup_param_distance(poly_pts, curve_pts)))
    return rows


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_float_polygon_matches_exact_polygon(name):
    exps, source = preset(name)
    got = convergence_report(PTS, exps, source, iterations=100, samples=512)
    want = exact_polygon_report(PTS, exps, source, 100, 512)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for g, w in zip(got, want):
        for col in (2, 3):
            assert abs(g[col] - w[col]) <= 1e-12 * w[col], (g, w)


def _pruning_cases():
    rng = np.random.default_rng(11)
    # around the widths of the two index bands and the coarse count, and
    # past two exact blocks
    sizes = sorted({1, 2, *range(2 * _NARROW, 2 * _NARROW + 3),
                    *range(2 * _BAND - 1, 2 * _BAND + 3),
                    _COARSE - 1, _COARSE, _COARSE + 1, 2 * BLOCK_ROWS + 3})
    for m in sizes:
        for dim in (1, 2, 3):
            A = np.cumsum(rng.normal(size=(m, dim)), axis=0)
            yield f"reversed-{m}-{dim}", A, A[::-1]
            yield f"permuted-{m}-{dim}", A, A[rng.permutation(m)]
            yield f"shifted-{m}-{dim}", A, A[::-1] + 1e-3
    for scale in (1e-6, 1e6):
        A = rng.normal(size=(150, 2)) * scale
        yield f"scale-{scale:g}", A, rng.normal(size=(97, 2)) * scale
        yield f"scale-offset-{scale:g}", A + scale, A[::-1] - scale
    # row minima all but tied, the index band useful or not
    t = np.linspace(0.0, 2 * np.pi, 300)
    u = np.linspace(0.01, 2 * np.pi + 0.01, 301)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    shifted = np.stack([np.cos(u), np.sin(u)], axis=1)
    yield "near-ties", circle, shifted
    yield "near-ties-reversed", circle, shifted[::-1]
    yield "near-ties-1e6", 1e6 + circle, 1e6 + shifted[::-1]
    line = np.linspace(0.0, 1.0, 40)[:, None]
    yield "duplicates", np.repeat(line, 3, axis=0), line[::-1]
    yield "ties", np.array([[0.0], [2.0], [4.0]]), np.array([[1.0], [3.0]])
    grid = np.array([[x, y] for x in range(6) for y in range(6)], dtype=float)
    yield "grid-ties", grid, grid[::2] + 0.5
    yield "all-equal", np.full((30, 2), 2.5), np.full((9, 2), 2.5)
    yield "all-equal-apart", np.full((30, 3), 2.5), np.zeros((1, 3))
    yield "single-points", np.array([[1.0, 2.0]]), np.array([[-3.0, 5.0]])
    yield "single-against-many", np.array([[0.5]]), line


@pytest.mark.parametrize("A, B", [pytest.param(A, B, id=name)
                                  for name, A, B in _pruning_cases()])
def test_pruned_hausdorff_equals_dense_formula(A, B):
    assert hausdorff_distance(A, B) == dense_hausdorff(A, B)
    assert hausdorff_distance(B, A) == dense_hausdorff(B, A)
    # the pruning is exact because each bound, narrow or full, is an
    # entry of its row
    At, Bt = _coordinates(A, B)
    squared = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    for bound in (_narrow_bounds(At, Bt)[0], _bounds(At, Bt, 0, np.arange(len(A)))):
        assert (bound[:, None] == squared).any(axis=1).all()


def float_polygon_report(points, exponents, source, iterations, samples):
    """The report route of float tuples: the control points converted to
    floats once, then `corner_cutting`, `sample_polyline` and the dense
    Hausdorff formula."""
    curve_pts = sample_curve(GelfondBezierCurve(exponents, points), samples)
    polygon = [tuple(float(c) for c in p) for p in points]
    rows = []
    for j, pts, _ in corner_cutting(polygon, exponents, source, iterations):
        poly_pts = sample_polyline(pts, samples)
        rows.append((j, len(pts), float(dense_hausdorff(poly_pts, curve_pts)),
                     sup_param_distance(poly_pts, curve_pts)))
    return rows


SEEDED_POLYGON = tuple(tuple(int(c) for c in p) for p in
                       np.random.default_rng(7).integers(-9, 10, size=(4, 2)))


@pytest.mark.parametrize("points", [PTS, SEEDED_POLYGON],
                         ids=["figure", "seeded"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_report_equals_float_polygon_route(name, points):
    exps, source = preset(name)
    got = convergence_report(points, exps, source, iterations=100, samples=512)
    assert got == float_polygon_report(points, exps, source, 100, 512)


@pytest.mark.parametrize("exps, source", [
    ((0, 1, 2, 3), exponent_source("quadratic")),
    ((0, 1, 2, 3), exponent_source("linear", extra=(Fraction(7, 2),),
                                   first_index=4)),
    ((0, Fraction(1, 3), 2, Fraction(7, 2)), exponent_source("affine")),
    ((0, 0.5, 2, 3.5), exponent_source("classical")),
    ((0, 1, 2, 3), exponent_source("linear", extra=(4.25, 4.5, Fraction(19, 4)),
                                   first_index=4)),
    # integers and Fractions past 2^53, whose products are not exact floats
    ((0, 1, 2, 3), lambda j: 2 ** 60 + j),
    ((0, 1, 2, 3), lambda j: Fraction(2 ** 70 + j, 3)),
], ids=["int", "fraction-extra", "fraction", "float", "float-extra", "huge",
        "huge-fraction"])
def test_float_insertion_equals_insert_exponent(exps, source):
    points = ((0.1, -2.0), (1.3, 4.7), (3.0, 4.1), (4.9, 0.2))
    float_steps = _float_corner_cutting(points, exps, source, 30)
    tuple_steps = corner_cutting(points, exps, source, 30)
    for (j, polygon), (i, pts, _) in zip(float_steps, tuple_steps, strict=True):
        assert j == i and polygon.tolist() == [list(p) for p in pts]


# self-intersecting 4-point polygons, on which the narrow band certifies
# few points and the full bound takes whole rows
CROSSED = [((0, -2), (7, 3), (0, -4), (6, 2)), ((6, 5), (9, -4), (-5, 9), (7, -3)),
           ((4, 1), (5, -2), (-7, 8), (3, -8)), ((0, 0), (4, 4), (4, 0), (0, 4))]


@pytest.mark.parametrize("iterations", [0, _CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("points", [PTS] + CROSSED,
                         ids=["figure"] + [f"crossed-{k}" for k in range(len(CROSSED))])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_batched_report_equals_dense_route(name, points, iterations):
    exps, source = preset(name)
    got = convergence_report(points, exps, source, iterations=iterations,
                             samples=96)
    assert got == float_polygon_report(points, exps, source, iterations, 96)


@pytest.mark.parametrize("points", [
    ((0,), (3,), (-1,), (4,)),
    ((0, 0, 0), (3, 1, 2), (1, 5, -1), (4, 0, 3)),
    ((0, -2, 1), (7, 3, 0), (0, -4, 2), (6, 2, -1)),
], ids=["1-d", "3-d", "3-d-crossed"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_batched_report_equals_dense_route_in_other_dimensions(name, points):
    exps, source = preset(name)
    got = convergence_report(points, exps, source, iterations=2 * _CHUNK + 3,
                             samples=64)
    assert got == float_polygon_report(points, exps, source, 2 * _CHUNK + 3, 64)


def test_frames_come_once_per_row_in_order():
    exps, source = preset("cubic-linear")
    calls = []
    rows = convergence_report(PTS, exps, source, iterations=2 * _CHUNK + 1,
                              samples=32,
                              frame=lambda j, poly, curve: calls.append((j, poly, curve)))
    assert [j for j, _, _ in calls] == [row[0] for row in rows] == list(range(2 * _CHUNK + 2))
    polygons = [pts for _, pts, _ in corner_cutting(
        [tuple(float(c) for c in p) for p in PTS], exps, source, 2 * _CHUNK + 1)]
    for (_, poly, curve), pts in zip(calls, polygons):
        assert poly.tolist() == [list(p) for p in pts]
        assert curve.shape == (32, 2) and curve is calls[0][2]


@st.composite
def polygon_stacks(draw):
    dim = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 5))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    polygons = [draw(arrays(float, (draw(st.integers(1, 9)), dim), elements=coords))
                for _ in range(rows)]
    # repeated points give zero-length segments, or a polygon of length 0
    polygons = [np.repeat(p, draw(st.integers(1, 2)), axis=0) for p in polygons]
    return polygons


@settings(max_examples=100, deadline=None)
@given(polygon_stacks(), st.integers(2, 40))
def test_padded_stack_samples_like_each_polygon(polygons, count):
    # each polygon padded by repeats of its last point, as the report does
    size = max(len(p) for p in polygons)
    stack = np.stack([np.concatenate([p, np.repeat(p[-1:], size - len(p), axis=0)])
                      for p in polygons])
    samples = sample_polyline(stack, count)
    assert samples.shape == (len(polygons), count, stack.shape[2])
    for p, row in zip(polygons, samples):
        assert row.tolist() == sample_polyline(p, count).tolist()
    curve = sample_polyline(polygons[0], count)
    dist = hausdorff_distance(samples, curve)
    sup = sup_param_distance(samples, curve)
    for k, row in enumerate(samples):
        assert dist[k] == dense_hausdorff(row, curve)
        assert sup[k] == sup_param_distance(row, curve)
        # a stack against a stack as long pairs the rows
        assert hausdorff_distance(samples, samples[::-1])[k] == \
            dense_hausdorff(row, samples[len(samples) - 1 - k])
