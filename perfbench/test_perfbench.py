"""Tests of the benchmark's own pieces: references, tracer and metrics."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from reference import ExactBasis, MpBasis  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

FIG_POLYGON = ((0, 0), (1, 4), (3, 4), (4, 0))
TS = (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(5, 6), Fraction(1))


def test_exact_reference_matches_worked_example():
    # H_2 of (0,3,4,6,9) is (27/15) t^4 (1-t)^2 (3 + 6t + 4t^2 + 2t^3)
    basis = ExactBasis((0, 3, 4, 6, 9))
    for t in TS:
        want = Fraction(27, 15) * t ** 4 * (1 - t) ** 2 * (3 + 6 * t + 4 * t ** 2 + 2 * t ** 3)
        assert basis.values(t)[2] == want
        assert sum(basis.values(t)) == 1


def test_references_match_readme_curve():
    from gelfond.curves import GelfondBezierCurve

    curve = GelfondBezierCurve((0, 2, 4, 14), FIG_POLYGON)
    exact = ExactBasis((0, 2, 4, 14))
    mp = MpBasis((0, 2, 4, 14))
    for t in TS:
        assert exact.point(FIG_POLYGON, t) == tuple(curve.evaluate(t))
    for t in (0.0, 0.3, 0.77, 1.0):
        ref = exact.point(FIG_POLYGON, t)
        with mpmath.workdps(60):
            for a, b in zip(mp.point(FIG_POLYGON, t), ref):
                assert abs(a - mpmath.mpf(b.numerator) / b.denominator) < mpmath.mpf(10) ** -50


def _traced_ops(tracer, tmp_path, argvs):
    from gelfond import cli

    for i, argv in enumerate(argvs):
        with tracer.op(i):
            assert cli.main(argv + ["--output", str(tmp_path / f"out{i}")]) == 0


def test_self_times_within_op_time(tmp_path):
    tracer = Tracer().install()
    try:
        _traced_ops(tracer, tmp_path, [
            ["curve", "--exponents", "0,2,4,14", "--points=0,0;1,4;3,4;4,0",
             "--samples", "65"],
            ["decasteljau", "--exponents", "0,0.7,1.9", "--points=0,0;1,2;3,0",
             "--t", "0.4"],
            ["insert", "--exponents", "0,1,3", "--points=0,0;1,2;3,0", "--rho", "2"],
        ])
    finally:
        tracer.uninstall()
    op_s = tracer.op_seconds()
    assert tracer.calls[ROOT] == 3
    assert tracer.calls["curves.GelfondBezierCurve.evaluate"] == 65
    assert tracer.calls["schur.schur_bialternant"] > 0
    assert all(s >= -1e-9 for s in tracer.self_s.values())
    assert 0 < sum(tracer.self_s.values()) <= op_s * (1 + 1e-9)
    assert sum(v for k, v in tracer.self_s.items() if k != ROOT) < op_s


def _module(name):
    # the package re-exports functions named like some submodules
    return importlib.import_module(f"gelfond.{name}")


def test_uninstall_restores_every_binding():
    import gelfond

    schur, blossom, gelfond_basis = (_module(m) for m in ("schur", "blossom", "gelfond_basis"))

    before = (gelfond.schur, schur.schur, blossom.schur, gelfond_basis.schur,
              gelfond_basis._basis_poly_cached)
    tracer = Tracer().install()
    patched = (gelfond.schur, schur.schur, blossom.schur, gelfond_basis.schur)
    tracer.uninstall()
    assert len({id(f) for f in patched}) == 1 and patched[0] is not before[0]
    assert (gelfond.schur, schur.schur, blossom.schur, gelfond_basis.schur,
            gelfond_basis._basis_poly_cached) == before


def test_missing_wrapped_name_reports_zero(tmp_path, monkeypatch):
    from run import layer_metrics

    monkeypatch.delattr(_module("schur"), "_bialternant_decimal")
    tracer = Tracer().install()
    try:
        _traced_ops(tracer, tmp_path, [
            ["curve", "--exponents", "0,2,3", "--points=0,0;1,2;3,0", "--samples", "9"]])
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, (0, 0), 1.0, 1.0, 1.0)
    assert metrics["schur.decimal.calls"][0] == 0
    assert metrics["curves.evaluate.calls"][0] == 9

