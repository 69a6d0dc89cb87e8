"""The four workloads: seeded inputs, the op mix, and each op's check.

A workload draws all of its inputs from the `random.Random` it is given,
so one seed always gives the same argv sequence.  Ops come in rounds: one
op per op class, in a seeded order.  The harness only stops between
rounds, so every class has the same share of each run, and the median op
lands in the same class from run to run instead of between classes.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from reference import ExactBasis, MpBasis, diameter, insert_exponent

FIG_POLYGON = ((0, 0), (1, 4), (3, 4), (4, 0))
README_EXPONENTS = (0, 2, 4, 14)
PRESETS = ("cubic-linear", "cubic-quadratic", "sparse-affine")

# An op fails when a basis value is off by more than TOL, or a curve point
# by more than TOL x the control-polygon diameter.  The worst errors seen
# when the benchmark was introduced were 5e-12 and 4e-13.
TOL = 1e-9


@dataclass
class Op:
    kind: str
    argv: list
    data: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


class Accuracy:
    """Running maxima of the accuracy figures over checked ops."""

    def __init__(self):
        self.basis_rel_err = 0.0
        self.curve_abs_err = 0.0
        self.unity_residual = 0.0
        self.basis_values = 0
        self.curve_points = 0

    def basis(self, values, refs):
        for h, ref in zip(values, refs):
            if ref:
                self.basis_rel_err = max(self.basis_rel_err, abs(h - ref) / abs(ref))
        self.unity_residual = max(self.unity_residual, abs(math.fsum(values) - 1.0))
        self.basis_values += len(values)

    def curve(self, err):
        self.curve_abs_err = max(self.curve_abs_err, err)
        self.curve_points += 1


def _exps_text(exps):
    return ",".join(str(x) for x in exps)


def _points_text(points):
    return "--points=" + ";".join(",".join(str(c) for c in p) for p in points)


def _int_points(rng, count, span=9):
    while True:
        pts = tuple((rng.randint(-span, span), rng.randint(-span, span))
                    for _ in range(count))
        if diameter(pts) > 0:
            return pts


def _space_from_gaps(gaps):
    r = [0]
    for g in gaps:
        r.append(r[-1] + g)
    return tuple(r)


def _csv_rows(text):
    lines = text.split("\r\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CheckFailed("empty CSV")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _grid(samples):
    return [i / (samples - 1) for i in range(samples)]


def _close(err, what):
    if not err <= TOL:
        raise CheckFailed(f"{what} error {err:.3g} above {TOL:g}")


def _float_point(p):
    return tuple(float(c) for c in p)


def _dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


class _RefCache:
    """Rounded reference values per (space, t), shared by repeated ops."""

    def __init__(self, basis_cls):
        self.basis_cls = basis_cls
        self.bases = {}
        self.values = {}
        self.points = {}

    def basis(self, exps):
        if exps not in self.bases:
            self.bases[exps] = self.basis_cls(exps)
        return self.bases[exps]

    def basis_floats(self, exps, t):
        key = (exps, t)
        if key not in self.values:
            self.values[key] = tuple(float(v) for v in self.basis(exps).values(t))
        return self.values[key]

    def point_floats(self, exps, points, t):
        key = (exps, points, t)
        if key not in self.points:
            ref = self.basis(exps).point(points, t)
            self.points[key] = tuple(float(c) for c in ref)
        return self.points[key]


def check_basis_csv(text, exps, samples, refs, acc):
    header, rows = _csv_rows(text)
    n = len(exps) - 1
    if header != ["t"] + [f"H{k}" for k in range(n + 1)] + ["unity_residual"]:
        raise CheckFailed(f"unexpected basis header {header[:3]}..")
    if len(rows) != samples:
        raise CheckFailed(f"{len(rows)} rows, expected {samples}")
    for t, row in zip(_grid(samples), rows):
        if float(row[0]) != t:
            raise CheckFailed(f"row parameter {row[0]} != {t!r}")
        values = [float(x) for x in row[1:n + 2]]
        ref = refs.basis_floats(exps, t)
        _close(max(abs(h - r) for h, r in zip(values, ref)), "basis value")
        acc.basis(values, ref)


def check_curve_csv(text, exps, points, samples, refs, acc):
    header, rows = _csv_rows(text)
    if header != ["t", "x0", "x1"]:
        raise CheckFailed(f"unexpected curve header {header}")
    if len(rows) != samples:
        raise CheckFailed(f"{len(rows)} rows, expected {samples}")
    diam = diameter(points)
    for t, row in zip(_grid(samples), rows):
        if float(row[0]) != t:
            raise CheckFailed(f"row parameter {row[0]} != {t!r}")
        err = _dist((float(row[1]), float(row[2])),
                    refs.point_floats(exps, points, t)) / diam
        _close(err, "curve point")
        acc.curve(err)


class IntSample:
    """Evaluation on a few integer spaces reused for the whole run."""

    name = "int-sample"
    # Space orders; gaps are 1-3 and sum to 2n, so each order has a fixed
    # degree and the op cost depends little on the seed.
    ORDERS = (3, 4, 5, 6, 7, 8)
    # The README curve is sampled at 2048 parameters.  Every other op gets
    # the sample count that makes it cost about the same, from the measured
    # per-sample cost ~ (n + 1)(r_n + 15), 10% more for `curve` than for
    # `basis`, so the latency distribution has one mode.
    BASE_SAMPLES = 2048

    @classmethod
    def samples(cls, exps, kind):
        def weight(r, kind):
            return len(r) * (r[-1] + 15) * (1.1 if kind == "curve" else 1.0)
        return round(cls.BASE_SAMPLES * weight(README_EXPONENTS, "curve")
                     / weight(exps, kind))

    def __init__(self, rng):
        self.refs = _RefCache(ExactBasis)
        self.spaces = [(README_EXPONENTS, FIG_POLYGON)]
        for n in self.ORDERS:
            while True:
                gaps = [rng.randint(1, 3) for _ in range(n)]
                if sum(gaps) == 2 * n:
                    break
            self.spaces.append((_space_from_gaps(gaps), _int_points(rng, n + 1)))
        self.classes = []
        for exps, pts in self.spaces:
            samples = self.samples(exps, "curve")
            self.classes.append(Op("curve", [
                "curve", "--exponents", _exps_text(exps), _points_text(pts),
                "--samples", str(samples)],
                {"exps": exps, "points": pts, "samples": samples}))
            samples = self.samples(exps, "basis")
            self.classes.append(Op("basis", [
                "basis", "--exponents", _exps_text(exps), "--samples", str(samples)],
                {"exps": exps, "samples": samples}))
        self.rng = rng

    def warmup(self):
        # builds every space's exact basis polynomials once
        return [Op("basis", ["basis", "--exponents", _exps_text(exps), "--samples", "2"])
                for exps, _ in self.spaces]

    def rounds(self):
        while True:
            ops = list(self.classes)
            self.rng.shuffle(ops)
            yield ops

    def check(self, op, text, acc):
        d = op.data
        if op.kind == "curve":
            check_curve_csv(text, d["exps"], d["points"], d["samples"],
                            self.refs, acc)
        else:
            check_basis_csv(text, d["exps"], d["samples"], self.refs, acc)


class IntBuild:
    """Exact construction: every op uses a space new to the process."""

    name = "int-build"
    # Gaps are drawn from 1-3, summing to 2n.  Building H_k enumerates
    # prod_{i>k} g_i interlacing partitions, so a space's construction
    # cost follows T = sum_k prod_{i>k} g_i; only spaces with T within 15%
    # of a fixed target per order (the median T for that order and sum)
    # are used, which keeps each op class to one narrow mode.
    T_TARGET = {8: 284, 9: 525, 10: 932}
    BASIS_SAMPLES = 33
    CHECK_TS = (Fraction(1, 3), Fraction(5, 7))

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()
        self.refs = _RefCache(ExactBasis)

    @staticmethod
    def interlacing_total(gaps):
        total, prod = 0, 1
        for g in reversed(gaps):
            prod *= g
            total += prod
        return total

    def _space(self, n):
        for _ in range(100_000):
            gaps = [self.rng.randint(1, 3) for _ in range(n)]
            if (sum(gaps) == 2 * n
                    and abs(self.interlacing_total(gaps) / self.T_TARGET[n] - 1) <= 0.15):
                exps = _space_from_gaps(gaps)
                if exps not in self.seen:
                    self.seen.add(exps)
                    return exps
        raise RuntimeError(f"no new order-{n} space left")

    def _op(self, kind, n):
        exps = self._space(n)
        pts = _int_points(self.rng, n + 1)
        if kind == "basis":
            return Op(kind, ["basis", "--exponents", _exps_text(exps),
                             "--samples", str(self.BASIS_SAMPLES)],
                      {"exps": exps, "samples": self.BASIS_SAMPLES})
        if kind == "decasteljau":
            # the Fraction sizes, and so the cost, grow with q: a narrow
            # range of denominators keeps this op class to one mode
            t = Fraction(self.rng.randint(1, 8), self.rng.randint(9, 16))
            return Op(kind, ["decasteljau", "--exponents", _exps_text(exps),
                             _points_text(pts), "--t", f"{t.numerator}/{t.denominator}"],
                      {"exps": exps, "points": pts, "t": t})
        rho = self.rng.choice([x for x in range(1, exps[-1] + 3) if x not in exps])
        return Op(kind, ["insert", "--exponents", _exps_text(exps),
                         _points_text(pts), "--rho", str(rho)],
                  {"exps": exps, "points": pts, "rho": rho})

    def warmup(self):
        return [self._op(kind, 8) for kind in ("basis", "decasteljau", "insert")]

    def rounds(self):
        while True:
            ops = [self._op(kind, n) for n in sorted(self.T_TARGET)
                   for kind in ("basis", "decasteljau", "insert")]
            self.rng.shuffle(ops)
            yield ops

    def check(self, op, text, acc):
        d = op.data
        if op.kind == "basis":
            check_basis_csv(text, d["exps"], d["samples"], self.refs, acc)
            return
        data = json.loads(text)
        if op.kind == "decasteljau":
            levels = data["levels"]
            n = len(d["exps"]) - 1
            if len(levels) != n + 1 or len(levels[-1]) != 1:
                raise CheckFailed("pyramid has the wrong shape")
            if [tuple(Fraction(c) for c in p) for p in levels[0]] != list(d["points"]):
                raise CheckFailed("pyramid base differs from the control points")
            apex = tuple(Fraction(c) for c in levels[-1][0])
            if apex != self.refs.basis(d["exps"]).point(d["points"], d["t"]):
                raise CheckFailed("apex differs from the exact curve point")
            acc.curve(0.0)
            return
        want_pts, want_exps = insert_exponent(d["points"], d["exps"], d["rho"])
        exps = tuple(Fraction(x) for x in data["exponents"])
        pts = tuple(tuple(Fraction(c) for c in p) for p in data["points"])
        if exps != want_exps or pts != want_pts:
            raise CheckFailed("elevated control points differ from the rule")
        old = self.refs.basis(d["exps"])
        new = ExactBasis(exps)
        for t in self.CHECK_TS:
            if new.point(pts, t) != old.point(d["points"], t):
                raise CheckFailed(f"elevated curve differs at t={t}")


class RealSample:
    """Real exponents: float Schur quotients and their Decimal fallback."""

    name = "real-sample"
    # Gap templates per order, in 0.3-2.5 with one near-coincident gap from
    # order 5 on.  Each op's space is a seeded permutation of its template
    # with every gap jittered, so spaces are new to the process while the
    # share of points that take the Decimal fallback, which sets the cost,
    # stays about the same from seed to seed.
    GAPS = {3: (0.8, 1.7, 0.45),
            4: (1.2, 0.35, 2.1, 0.9),
            5: (0.6, 1.4, 0.05, 2.3, 0.7),
            6: (1.1, 0.4, 1.9, 0.06, 0.8, 1.5),
            7: (0.5, 1.3, 2.2, 0.07, 0.9, 0.35, 1.6)}
    # Sample counts per order that give every curve and oracle op about
    # the same cost (the per-point cost roughly doubles with each order),
    # so the latency distribution has one main mode.
    CURVE_SAMPLES = {3: 257, 4: 129, 5: 65, 6: 33, 7: 17}
    ORACLE_SAMPLES = {3: 37, 4: 21, 5: 7, 6: 4, 7: 3}
    # de Casteljau parameters cycle through these strata, jittered.
    T_STRATA = (0.15, 0.35, 0.55, 0.75, 0.9)

    def __init__(self, rng):
        self.rng = rng
        self.refs = _RefCache(MpBasis)
        self.seen = set()
        self.round_index = 0

    def _space(self, n):
        while True:
            gaps = list(self.GAPS[n])
            self.rng.shuffle(gaps)
            r = [0]
            for g in gaps:
                jitter = 0.01 if g < 0.1 else 0.05
                r.append(round(r[-1] + g + self.rng.uniform(-jitter, jitter), 4))
            exps = tuple(r)
            if exps not in self.seen:
                self.seen.add(exps)
                return exps

    def _op(self, kind, n):
        exps = self._space(n)
        text = _exps_text(exps)
        # the CLI parses "0" as an int and the rest as floats
        exps = (0,) + tuple(float(x) for x in text.split(",")[1:])
        pts = _int_points(self.rng, n + 1)
        if kind == "curve":
            samples = self.CURVE_SAMPLES[n]
            return Op(kind, ["curve", "--exponents", text, _points_text(pts),
                             "--samples", str(samples)],
                      {"exps": exps, "points": pts, "samples": samples})
        if kind == "decasteljau":
            stratum = self.T_STRATA[(self.round_index + n) % len(self.T_STRATA)]
            t = round(stratum + self.rng.uniform(-0.04, 0.04), 6)
            return Op(kind, ["decasteljau", "--exponents", text, _points_text(pts),
                             "--t", repr(t)],
                      {"exps": exps, "points": pts, "t": t})
        return Op(kind, ["oracle", "--exponents", text, "--samples",
                         str(self.ORACLE_SAMPLES[n]), "--seed",
                         str(self.rng.randint(0, 10 ** 6))], {"exps": exps})

    def warmup(self):
        return [self._op(kind, 3) for kind in ("curve", "decasteljau", "oracle")]

    def rounds(self):
        while True:
            ops = [self._op(kind, n) for n in sorted(self.GAPS)
                   for kind in ("curve", "decasteljau", "oracle")]
            self.round_index += 1
            self.rng.shuffle(ops)
            yield ops

    def check(self, op, text, acc):
        d = op.data
        if op.kind == "curve":
            check_curve_csv(text, d["exps"], d["points"], d["samples"],
                            self.refs, acc)
        elif op.kind == "decasteljau":
            data = json.loads(text)
            apex = _float_point(data["levels"][-1][0])
            err = _dist(apex, self.refs.point_floats(d["exps"], d["points"], d["t"]))
            err /= diameter(d["points"])
            _close(err, "de Casteljau apex")
            acc.curve(err)
        else:
            lines = text.strip().split("\n")
            if len(lines) != 3:
                raise CheckFailed("oracle report needs three lines")
            for line in lines:
                value = float(line.rsplit(":", 1)[1])
                if not math.isfinite(value):
                    raise CheckFailed(f"non-finite oracle deviation: {line}")


class Elevate:
    """The dimension-elevation convergence experiment."""

    name = "elevate"
    ITERATIONS = 100
    SAMPLES = 512

    def __init__(self, rng):
        self.rng = rng

    def _op(self, preset, polygon, iterations=ITERATIONS):
        return Op("elevate", ["elevate", "--preset", preset, _points_text(polygon),
                              "--iterations", str(iterations),
                              "--samples", str(self.SAMPLES)],
                  {"preset": preset, "points": polygon, "iterations": iterations,
                   "figure": polygon == FIG_POLYGON})

    def warmup(self):
        # fills the basis cache of each preset's target curve
        return [self._op(p, FIG_POLYGON, iterations=1) for p in PRESETS]

    def rounds(self):
        while True:
            # each preset on the figure polygon and on a seeded polygon
            ops = [self._op(p, FIG_POLYGON) for p in PRESETS]
            ops += [self._op(p, _int_points(self.rng, 4)) for p in PRESETS]
            self.rng.shuffle(ops)
            yield ops

    def check(self, op, text, acc):
        d = op.data
        header, rows = _csv_rows(text)
        if header != ["iteration", "polygon_size", "hausdorff", "sup_param_distance"]:
            raise CheckFailed(f"unexpected elevate header {header}")
        if len(rows) != d["iterations"] + 1:
            raise CheckFailed(f"{len(rows)} rows, expected {d['iterations'] + 1}")
        h = []
        for i, row in enumerate(rows):
            if int(row[0]) != i or int(row[1]) != 4 + i:
                raise CheckFailed(f"row {i}: iteration/polygon size {row[:2]}")
            dist, sup = float(row[2]), float(row[3])
            if not (math.isfinite(dist) and math.isfinite(sup) and dist >= 0):
                raise CheckFailed(f"row {i}: distances {row[2:]}")
            h.append(dist)
        if not d["figure"]:
            return
        # criterion 11 of the acceptance gate on the figure polygon
        diam = diameter(d["points"])
        if d["preset"] == "cubic-quadratic":
            if not h[-1] >= 1e-2 * diam:
                raise CheckFailed(f"cubic-quadratic ended at {h[-1]}, below 1e-2 x diameter")
            return
        if not h[-1] <= 1e-2 * diam:
            raise CheckFailed(f"{d['preset']} ended at {h[-1]}, above 1e-2 x diameter")
        if d["preset"] == "cubic-linear" and not all(
                h[i + 1] <= h[i] + 1e-12 for i in range(5, len(h) - 1)):
            raise CheckFailed("cubic-linear distances not monotone after iteration 5")


WORKLOADS = {w.name: w for w in (IntSample, IntBuild, RealSample, Elevate)}
