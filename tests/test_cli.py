import contextlib
import csv
import io
import json
import sys
import time
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from gelfond import cli
from gelfond.arith import SingularityError, parse_number
from gelfond.curves import GelfondBezierCurve, curve_from_json
from gelfond.dimelev import (PRESETS, corner_cutting, insert_exponent,
                             preset, sample_curve)
from gelfond.gelfond_basis import (basis_table, basis_values,
                                   complete_exponents, elementary_exponents,
                                   gelfond_basis_schur, hook_exponents)
from oracles import basis_csv, curve_csv


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def test_basis_table(capsys):
    code, out = run(capsys, "basis", "--exponents", "0,3,4,6,9",
                    "--samples", "101")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "H0", "H1", "H2", "H3", "H4", "unity_residual"]
    assert len(rows) == 101
    assert max(abs(float(r[-1])) for r in rows) <= 1e-10
    assert float(rows[0][1]) == 1.0 and float(rows[-1][5]) == 1.0


def test_basis_closed_form_matches_generic(capsys):
    # each family names its exponents; the table is the same bytes
    cases = ([("elementary", ["--l", l, "--n", n], elementary_exponents(l, n))
              for n in (1, 3, 5) for l in range(1, n + 1)]
             + [("complete", ["--l", l, "--n", n], complete_exponents(l, n))
                for l in (1, 2, 4) for n in (1, 3, 5)]
             + [("hook", ["--l", l, "--m", m, "--n", n], hook_exponents(l, m, n))
                for l in (1, 3) for n in (2, 4) for m in range(1, n)])
    for family, flags, exps in cases:
        _, direct = run(capsys, "basis", "--exponents",
                        ",".join(map(str, exps.exponents)), "--samples", "21")
        code, closed = run(capsys, "basis", "--closed-form", family,
                           *map(str, flags), "--samples", "21")
        assert (code, closed) == (0, direct), (family, flags)


def test_byte_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _ = run(capsys, "basis", "--exponents", "0,3,4,6,9",
                      "--samples", "33", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r\n" in a.read_bytes()    # RFC 4180 line endings


def test_curve_csv_matches_evaluate(capsys):
    code, out = run(capsys, "curve", "--exponents", "0,1,2,20",
                    "--points", "0,0;1,4;3,4;4,0", "--samples", "17")
    assert code == 0
    _, rows = parse_csv(out)
    curve = GelfondBezierCurve((0, 1, 2, 20),
                               ((0, 0), (1, 4), (3, 4), (4, 0)))
    for row in rows:
        x, y = curve.evaluate(float(row[0]))
        assert row[1] == f"{float(x):.17g}"
        assert row[2] == f"{float(y):.17g}"


def test_curve_svg(capsys):
    code, out = run(capsys, "curve", "--exponents", "0,1,3",
                    "--points", "0,0;1,2;3,0", "--format", "svg",
                    "--samples", "16")
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                          'version="1.1"')
    assert out.count("<polyline") == 2       # curve plus control polygon
    assert out.count("<circle") == 3


def test_curve_svg_needs_plane_points(capsys):
    code, _ = run(capsys, "curve", "--exponents", "0,1,3",
                  "--points", "0;1;3", "--format", "svg")
    assert code == 2


def test_curve_json(capsys):
    code, out = run(capsys, "curve", "--exponents", "0,1,3",
                    "--points", "0,0;1,2;3,0", "--format", "json",
                    "--samples", "3")
    assert code == 0
    data = json.loads(out)
    assert data["curve"]["exponents"] == [0, 1, 3]
    assert len(data["samples"]) == 3


def test_decasteljau_trace(capsys):
    code, out = run(capsys, "decasteljau", "--exponents", "0,1,3",
                    "--points", "0,0;1,2;3,0", "--t", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["t"] == "1/2"
    assert data["levels"][0] == [[0, 0], [1, 2], [3, 0]]
    assert data["levels"][-1] == [["15/16", "9/8"]]


# t = p/q puts denominators near q^{r_n} into the exact pyramid: at 1/2
# its JSON is printable up to r_n = 14200 (4275 digits) and not from
# 14300 (4305) on.  Forming such a pyramid takes seconds, so the time
# bound and the patched Schur routine show the refusal comes first.
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on printing integers")
@pytest.mark.parametrize("t, r_n", [("1/2", 100000), ("1/2", 14300),
                                    ("2/7", 5120), ("999/1000", 1440)])
def test_unprintable_exact_pyramid_refused_at_once(t, r_n, monkeypatch, capsys):
    from gelfond import blossom

    def refuse(*args):
        raise AssertionError("formed a Schur value of an unprintable pyramid")
    monkeypatch.setattr(blossom, "schur", refuse)
    start = time.perf_counter()
    code = cli.main(["decasteljau", "--exponents", f"0,3,{r_n}",
                     "--points", "0,0;1,2;3,0", "--t", t])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert f"r_n = {r_n}" in lines[0] and str(sys.get_int_max_str_digits()) in lines[0]


@pytest.mark.parametrize("argv", [
    ["--exponents", "0,3,5000", "--points", "0,0;1,2;3,0", "--t", "1/2"],
    # float coordinates alone give a float pyramid, printable at any r_n
    ["--exponents", "0,3,14300", "--points", "0.5,0.25;1.5,2.0;3.0,0.5",
     "--t", "1/2"],
], ids=["exact-printable", "float-points"])
def test_printable_pyramids_still_answer(argv, capsys):
    code, out = run(capsys, "decasteljau", *argv)
    assert code == 0
    assert len(json.loads(out)["levels"]) == 3


def test_elevate_zero_iterations_echoes(capsys):
    code, out = run(capsys, "elevate", "--exponents", "0,1,2,3",
                    "--tail-rule", "classical",
                    "--points", "0,0;1,4;3,4;4,0",
                    "--iterations", "0", "--samples", "64")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["iteration", "polygon_size", "hausdorff",
                      "sup_param_distance"]
    assert len(rows) == 1 and rows[0][:2] == ["0", "4"]


def test_elevate_preset_with_frames(tmp_path, capsys):
    frames = tmp_path / "frames"
    code, out = run(capsys, "elevate", "--preset", "cubic-linear",
                    "--points", "0,0;1,4;3,4;4,0", "--iterations", "4",
                    "--samples", "64", "--frames-dir", str(frames))
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[-1][2]) < float(rows[0][2])
    assert sorted(p.name for p in frames.iterdir()) == [
        f"frame_{i:03d}.svg" for i in range(5)]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_elevate_frames_equal_exact_polygon_frames(name, tmp_path, capsys):
    # frames are drawn from the report's float polygons; at 6 significant
    # digits they match frames drawn from the exact polygons
    points = ((0, 0), (1, 4), (3, 4), (4, 0))
    frames = tmp_path / "frames"
    code, _ = run(capsys, "elevate", "--preset", name,
                  "--points", "0,0;1,4;3,4;4,0", "--frames-dir", str(frames))
    assert code == 0
    exps, source = preset(name)
    curve = [(float(x), float(y)) for x, y in
             sample_curve(GelfondBezierCurve(exps, points), 512)]
    for it, pts, _ in corner_cutting(points, exps, source, 100):
        poly = [tuple(float(c) for c in p) for p in pts]
        want = cli._svg_text([(curve, "#1f77b4", None),
                              (poly, "#d62728", "4 3")])
        assert (frames / f"frame_{it:03d}.svg").read_text() == want, it


def test_insert_roundtrip(capsys):
    code, out = run(capsys, "insert", "--exponents", "0,2,4,6",
                    "--points", "0,0;1,4;3,4;4,0", "--rho", "5")
    assert code == 0
    got = curve_from_json(out)
    pts, exps = insert_exponent(((0, 0), (1, 4), (3, 4), (4, 0)),
                                (0, 2, 4, 6), 5)
    assert got.points == pts and got.exponents == exps


def test_join_command(tmp_path, capsys):
    left = GelfondBezierCurve((0, 1, 3), ((0, 0), (1, 2), (3, 0)))
    path = tmp_path / "left.json"
    from gelfond.curves import curve_to_json
    path.write_text(curve_to_json(left))
    code, out = run(capsys, "join", "--left", str(path),
                    "--exponents", "0,1,3", "--interval", "1,2",
                    "--points", "4,1")
    assert code == 0
    right = curve_from_json(out)
    assert right.points[0] == (3, 0)
    assert right.points[1] == (7, -4)
    assert right.interval == (1, 2)


def test_join_reads_free_points_from_a_file(tmp_path, capsys):
    left = tmp_path / "left.json"
    assert cli.main(["curve", "--exponents", "0,1,3", "--points",
                     "0,0;1,2;3,0", "--format", "json", "--output",
                     str(left)]) == 0
    free = tmp_path / "free.json"
    free.write_text("[[4, 1], [5, 0]]")
    argv = ["join", "--left", str(left), "--exponents", "0,1,2,4",
            "--interval", "1,2"]
    code, out = run(capsys, *argv, "--points-file", str(free))
    assert code == 0
    assert out == run(capsys, *argv, "--points", "4,1;5,0")[1]


@pytest.mark.parametrize("argv", [
    ["basis", "--exponents", "0,1", "--foo"],
    ["basis", "--samples", "x"],
    ["decasteljau", "--exponents", "0,1", "--points", "0,0;1,2", "--t", "1/2",
     "--samples", "5"],
    ["insert", "--exponents", "0,1", "--points", "0,0;1,2", "--rho", "2",
     "--samples", "5"],
    ["join", "--left", "left.json", "--exponents", "0,1", "--samples", "5"],
    ["elevate", "--preset", "cubic-linear", "--points", "0,0;1,4;3,4;4,0",
     "--interval", "0,2"],
    ["elevate", "--preset", "cubic-linear", "--points", "0,0;1,4;3,4;4,0",
     "--tail-rule", "linear", "--extra", "5"],
    ["elevate", "--preset", "cubic-linear", "--points", "0,0;1,4;3,4;4,0",
     "--tail-rule", "classical"],
])
def test_refused_flags_print_one_line(argv, capsys):
    code, out, err = _outcome(argv, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_oracle_report(capsys):
    code, out = run(capsys, "oracle", "--exponents", "0,3,4,6,9",
                    "--samples", "17", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    values = [float(line.rsplit(":", 1)[1]) for line in lines]
    assert values[0] < 1e-8
    assert values[1] < 1e-10
    assert values[2] < 1e-10


# lines 2 and 3 of `oracle` for these commands, and line 1 when it also
# held the partial-fraction/recursive divided difference of each H_k
ORACLE_REPORTS = [
    (["0,3,4,6,9", "--samples", "17", "--seed", "3"], "3.1849523018934178e-15",
     ["partition-of-unity residual: 2.6645352591003757e-15",
      "de casteljau vs basis sum: 1.3322676295501878e-15"]),
    (["0,2.5,2.5000001,6", "--samples", "21"], "2.6196682045842579e-09",
     ["partition-of-unity residual: 3.3306690738754696e-16",
      "de casteljau vs basis sum: 3.3306690738754696e-16"]),
]


@pytest.mark.parametrize("argv, wider, tail", ORACLE_REPORTS)
def test_oracle_compares_schur_with_production(argv, wider, tail, capsys):
    code, out = run(capsys, "oracle", "--exponents", *argv)
    assert code == 0
    first, *rest = out.splitlines()
    assert rest == tail
    exps = tuple(parse_number(x) for x in argv[0].split(","))
    ts = cli._parameter_grid(0, 1, int(argv[2]))
    dev = 0.0
    for t, vals in zip(ts, basis_table(exps, ts).tolist()):
        if 0 < t:
            for k in range(len(exps)):
                a = gelfond_basis_schur(exps, k, t)
                dev = max(dev, abs(float(a) - float(vals[k])))
    assert first == f"basis routes (schur vs production): {cli._fmt17(dev)}"
    assert dev <= float(wider)


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"exponents": "0,3,4,6,9", "samples": 21}))
    _, from_cfg = run(capsys, "basis", "--config", str(cfg))
    _, from_flags = run(capsys, "basis", "--exponents", "0,3,4,6,9",
                        "--samples", "21")
    assert from_cfg == from_flags
    # explicit flags win over the file
    _, overridden = run(capsys, "basis", "--config", str(cfg),
                        "--samples", "5")
    assert len(overridden.splitlines()) == 6


def test_config_values_take_flag_types(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"closed_form": "elementary", "l": "2", "n": 3}))
    code, from_cfg = run(capsys, "basis", "--config", str(cfg))
    assert code == 0
    assert from_cfg == run(capsys, "basis", "--closed-form", "elementary",
                           "--l", "2", "--n", "3")[1]


@pytest.mark.parametrize("key", ["samples", "smaples", "config", "help"])
def test_config_keys_the_command_does_not_take_are_refused(key, tmp_path,
                                                           capsys):
    # a key for no flag of the command, misspelt or not, exits 2 with one
    # line naming it, as such a flag on the command line exits 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: 9, "t": "1/2"}))
    argv = ["decasteljau", "--exponents", "0,1,3", "--points", "0,0;1,2;3,0",
            "--config", str(cfg)]
    code, out, err = _outcome(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg}: {key!r} is not a flag of " \
        f"decasteljau\n"
    if key == "samples":
        assert _outcome(argv[:-2] + ["--t", "1/2", "--samples", "9"],
                        capsys)[0] == 2
    # keys of the command's own flags are taken
    cfg.write_text(json.dumps({"t": "1/2", "points_file": None}))
    assert _outcome(argv, capsys)[0] == 0


@pytest.mark.parametrize("data", [{"l": "x"}, {"closed_form": "bogus"},
                                  {"samples": 2.5}])
def test_config_values_refused(data, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"closed_form": "elementary", "l": 2, "n": 3,
                               **data}))
    assert cli.main(["basis", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config --")


def test_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["basis", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON object" in err
    assert len(err.strip().splitlines()) == 1


def test_input_error_exit_codes(capsys):
    assert run(capsys, "basis", "--exponents", "0,3,3")[0] == 2
    assert run(capsys, "basis", "--exponents", "0,3", "--samples", "1")[0] == 2
    assert run(capsys, "curve", "--exponents", "0,1",
               "--points", "0,0;1,1;2,2")[0] == 2
    assert run(capsys, "elevate", "--preset", "nope",
               "--points", "0,0;1,1")[0] == 2
    assert run(capsys, "join", "--exponents", "0,1,3")[0] == 2
    assert run(capsys, "curve", "--exponents", "0,1",
               "--points-file", "/does/not/exist.json")[0] == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["unknown-command"])
    assert exc.value.code == 2


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one run, argparse refusals included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, flag, value", [
    (["curve", "--exponents", "0,1", "--samples", "3"], "--points", "-1,0;1,2"),
    (["curve", "--exponents", "0,1", "--samples", "3"], "--points", "-1;2"),
    (["curve", "--exponents", "0,1", "--points", "0,0;1,1", "--samples", "3"],
     "--interval", "-1,2"),
    (["decasteljau", "--exponents", "0,1", "--points", "0,0;1,2"], "--t", "-1/2"),
    (["insert", "--exponents", "0,1", "--points", "0,0;1,2"], "--rho", "-1/2"),
    (["basis", "--exponents", "0,1"], "--samples", "-3"),
])
def test_negative_values_may_follow_their_flag(argv, flag, value, capsys):
    # argparse alone reads every value here but -3 as an unknown flag
    spaced = _outcome(argv + [flag, value], capsys)
    assert spaced == _outcome(argv + [f"{flag}={value}"], capsys)
    code, out, err = spaced
    assert code in (0, 2)
    assert len(err.splitlines()) == (code == 2)
    assert bool(out) == (code == 0)


def test_only_negative_values_join_their_flag(capsys):
    join = cli._join_negative_values
    assert join(["curve", "--t", "-1/2", "--points", "-.5;1"]) == [
        "curve", "--t=-1/2", "--points=-.5;1"]
    for argv in (["--t=0", "-1"], ["--", "-1"], ["curve", "-1"],
                 ["--points", "--samples", "3"], ["--points", "-x"]):
        assert join(argv) == argv
    # a real flag after a flag still fails in argparse
    code, out, err = _outcome(["curve", "--exponents", "0,1", "--points",
                               "--samples", "3"], capsys)
    assert (code, out) == (2, "") and "expected one argument" in err


@pytest.mark.parametrize("argv", [
    ["basis"],
    ["curve", "--points", "0,0;1,1;2,0"],
    ["oracle"],
    ["elevate", "--points", "0,0;1,1;2,0", "--iterations", "1"],
])
def test_huge_integer_exponent_is_refused_at_once(argv, capsys):
    # the dense exact basis of r_n = 10^9 would need 3 x 10^9 coefficients
    start = time.perf_counter()
    code, out, err = _outcome(argv + ["--exponents", "0,3,1000000000"], capsys)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the exact basis of order 2 with r_n = 1000000000")


@pytest.mark.parametrize("t, code", [
    ("1", 0), ("1.0", 0), ("0", 0), ("0.4", 3), ("0.999", 3), ("1e-130", 3),
    ("1e-300", 3)])
def test_huge_exponent_pyramid_ends_at_once(t, code, capsys):
    # the pyramid builds no basis, so the basis refusal does not cover it;
    # its ends form no Schur value, and inside [0, 1] the float Schur
    # values of r_n = 10^9 underflow to a vanishing weight denominator
    start = time.perf_counter()
    got, out, err = _outcome(["decasteljau", "--exponents", "0,3,1000000000",
                              "--points", "0,0;1,2;3,0", "--t", t], capsys)
    assert time.perf_counter() - start < 2.0
    assert got == code
    if code:
        assert out == ""
        assert err.splitlines() == [
            f"numeric singularity: pseudo-affinity denominator vanished at t={t}"]
    else:
        levels = json.loads(out)["levels"]
        end = [0, 0] if float(t) == 0 else [3, 0]
        assert levels[0] == [[0, 0], [1, 2], [3, 0]] and levels[-1] == [end]


def test_singularity_exit_code(monkeypatch, capsys):
    def blow_up(args):
        raise SingularityError("synthetic")
    monkeypatch.setattr(cli, "cmd_basis", blow_up)
    assert run(capsys, "basis", "--exponents", "0,1")[0] == 3


@pytest.mark.parametrize("interval", [
    f"0,1/{10 ** 400}",                                  # b - a underflows
    "3333333333333333/10000000000000000,0.3333333333333333",   # float(a) == b
])
def test_interval_below_float_resolution_exits_3(interval, capsys):
    # the float parameters all coincide, and (t - a)/(b - a) is 0/0
    assert run(capsys, "curve", "--exponents", "0,1", "--points", "0;1",
               "--interval", interval, "--samples", "3")[0] == 3


@pytest.mark.parametrize("exponents, points, t", [
    pytest.param("0,0.4,0.9,2.2,3.1", "0,0;1,1;2,0;3,1;4,0", "1e-100",
                 id="1e-100"),
    pytest.param("0,0.7,1.9,2.5", "0,0;1,2;3,0;4,4", "1e-130", id="1e-130"),
    pytest.param("0,0.7,1.9,2.5", "0,0;1,2;3,0;4,4", "1e-200", id="1e-200"),
])
def test_small_float_t_on_a_real_space_answers(exponents, points, t, capsys):
    # a one-valued Schur value v^{|lambda|} prod (a_i - a_j)/(j - i) forms
    # no negative power of t, so these pyramids stay in the float range
    code, out = run(capsys, "decasteljau", "--exponents", exponents,
                    "--points", points, "--t", t)
    assert code == 0
    apex = json.loads(out)["levels"][-1][0]
    exps = tuple(parse_number(x) for x in exponents.split(","))
    pts = tuple(tuple(parse_number(c) for c in p.split(","))
                for p in points.split(";"))
    ref = GelfondBezierCurve(exps, pts).evaluate_many([float(t)])[0]
    for x, y in zip(apex, ref):
        assert abs(x - y) <= 1e-13 * abs(y), (x, y)


@pytest.mark.parametrize("t", ["1e-300", "5e-324"])
def test_small_float_t_on_a_real_space_exits_3(t, capsys):
    # here the pyramid's Schur values leave the float range: a weight
    # that is not finite is a singularity at t
    code = cli.main(["decasteljau", "--exponents", "0,0.7,1.9,2.5",
                     "--points", "0,0;1,2;3,0;4,4", "--t", t])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric singularity:")
    assert t in lines[0]


def test_points_accept_fractions(capsys):
    code, out = run(capsys, "decasteljau", "--exponents", "0,1",
                    "--points", "1/3,0;2/3,1", "--t", "1/4")
    assert code == 0
    data = json.loads(out)
    assert data["levels"][0][0] == ["1/3", 0]


HUGE = 10 ** 400


@pytest.mark.parametrize("argv", [
    ["basis", "--closed-form", "hook", "--samples", "5"],
    ["basis", "--closed-form", "elementary", "--l", "2"],
    ["basis", "--exponents", "0,1,3", "--output", "{tmp}"],
    ["curve", "--exponents", "0,1", "--points", "0,0;nan,1"],
    ["curve", "--exponents", "0,1", "--points", "0,0;1,inf"],
    ["basis", "--exponents", "0,inf"],
    ["insert", "--exponents", "0,1", "--points", "0,0;1,1", "--rho", "inf"],
    ["decasteljau", "--exponents", "0,1", "--points", "0,0;1,1",
     "--interval", "0,inf", "--t", "1"],
    ["curve", "--exponents", "0,1", "--points", "0,0;1,1",
     "--interval", "nan,1"],
    # a zero denominator in every numeric flag
    ["basis", "--exponents", "0,2/0"],
    ["curve", "--exponents", "0,1", "--points", "0,0;1/0,1"],
    ["curve", "--exponents", "0,1", "--points", "0,0;1,1",
     "--interval", "0,1/0"],
    ["decasteljau", "--exponents", "0,1", "--points", "0,0;1,1", "--t", "1/0"],
    ["insert", "--exponents", "0,1", "--points", "0,0;1,1", "--rho", "1/0"],
    ["elevate", "--exponents", "0,1", "--points", "0,0;1,1", "--extra", "1/0"],
    # scalar and tuple points mixed
    ["insert", "--exponents", "0,1", "--points", "1;2,3", "--rho", "3"],
    # real exponents too large for the kernel's scaling
    ["basis", "--exponents", "0,1e308"],
    ["curve", "--exponents", "0,1e308", "--points", "0;1"],
    ["oracle", "--exponents", "0,1e308"],
    # finite coordinates whose squared distances or drawing span overflow
    ["elevate", "--preset", "cubic-linear", "--points",
     "1e308,0;-1e308,1;1e308,0;0,0"],
    ["elevate", "--preset", "cubic-linear", "--points",
     "1e200,0;-1e200,1;1e200,0;0,0", "--iterations", "2"],
    ["curve", "--exponents", "0,1,3,4", "--points",
     "1e308,0;-1e308,1;1e308,0;0,0", "--format", "svg"],
    # exact numbers too large for a float where a float route meets them
    ["curve", "--exponents", "0,1", "--points", f"{HUGE},0;0,0"],
    ["decasteljau", "--exponents", "0,1", "--points", f"{HUGE},0;0,0",
     "--t", "0.5"],
    ["elevate", "--preset", "cubic-linear", "--points",
     f"{HUGE},0;1,4;3,4;4,0"],
    ["curve", "--exponents", "0,1", "--points", f"{HUGE}/3,0;0,0",
     "--format", "svg"],
    ["basis", "--exponents", f"0,{HUGE}"],
    ["oracle", "--exponents", f"0,{HUGE}"],
    # 0 samples and an empty interval used to stand for the defaults
    ["basis", "--exponents", "0,1", "--samples", "0"],
    ["curve", "--exponents", "0,1", "--points", "0,0;1,1", "--samples", "0"],
    ["oracle", "--exponents", "0,1", "--samples", "0"],
    ["elevate", "--preset", "cubic-linear", "--points", "0,0;1,4;3,4;4,0",
     "--iterations", "1", "--samples", "0"],
    ["curve", "--exponents", "0,1", "--points", "0,0;1,1", "--interval", ""],
    ["decasteljau", "--exponents", "0,1", "--points", "0,0;1,1",
     "--interval", "", "--t", "1/2"],
    # values that argparse alone takes for flags
    ["decasteljau", "--exponents", "0,1", "--points", "0,0;1,2", "--t", "-1/2"],
    ["insert", "--exponents", "0,1", "--points", "0,0;1,2", "--rho", "-1/2"],
    ["basis", "--exponents", "-1,2"],
])
def test_boundary_inputs_exit_2(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv, flag", [
    (["curve", "--exponents", "0,1", "--points", "0,0;1,1",
      "--interval", "0,1,2"], "--interval"),
    (["curve", "--exponents", "0,1", "--points", "0,0;1,1",
      "--interval", "1/2"], "--interval"),
    (["join", "--left", "{tmp}/left.json", "--exponents", "0,1,3",
      "--interval", "1,2,3"], "--interval"),
    (["join", "--left", "{tmp}/left.json", "--exponents", "0,1,3",
      "--interval", "1"], "--interval"),
    (["oracle", "--exponents", "0,1.5,3", "--seed", "abc"], "--seed"),
])
def test_malformed_values_name_their_flag(argv, flag, tmp_path, capsys):
    # these used to print Python's unpacking or int() message
    assert cli.main(["curve", "--exponents", "0,1,3", "--points", "0,0;1,2;3,0",
                     "--format", "json", "--output", f"{tmp_path}/left.json"]) == 0
    code, out, err = _outcome([a.replace("{tmp}", str(tmp_path)) for a in argv],
                              capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and flag in err, err


@pytest.mark.parametrize("argv", [
    ["decasteljau", "--t", "1/2"],
    ["insert", "--rho", "2"],
])
def test_huge_exact_coordinates_stay_exact(argv, capsys):
    code, out = run(capsys, *argv, "--exponents", "0,1",
                    "--points", f"{HUGE},0;0,0")
    assert code == 0 and str(HUGE) in out


LEFT = {"exponents": [0, 1, 3], "interval": [0, 1],
        "points": [[0, 0], [1, 2], [3, 0]]}


@pytest.mark.parametrize("argv, data", [
    (["curve", "--exponents", "0,1", "--points-file", "{file}"],
     [["1/0", 0], [1, 1]]),
    (["curve", "--exponents", "0,1", "--points-file", "{file}"],
     [["nan", 0], [1, 1]]),
    (["join", "--left", "{file}", "--exponents", "0,1,2", "--interval", "1,2",
      "--points", "5,5"], {**LEFT, "points": [[0, 0], ["1/0", 2], [3, 0]]}),
    (["join", "--left", "{file}", "--exponents", "0,1,2", "--interval", "1,2",
      "--points", "5,5"], {**LEFT, "points": [[0, 0], ["nan", 2], [3, 0]]}),
    (["join", "--left", "{file}", "--exponents", "0,1,2", "--interval", "1,2",
      "--points", "5,5"],
     {**LEFT, "points": [[0, 0], [float("nan"), 2], [3, 0]]}),
    # JSON true/false are ints to Python; they are not read as 1 and 0
    (["curve", "--exponents", "0,1,2", "--points-file", "{file}",
      "--format", "json"], [[0, 0], [True, 1], [2, False]]),
    (["join", "--left", "{file}", "--exponents", "0,1,2", "--interval", "1,2",
      "--points", "5,5"], {**LEFT, "exponents": [0, True, 2]}),
    # a scalar and an empty point are of mixed dimensions
    (["curve", "--exponents", "0,1", "--points-file", "{file}"], [0, []]),
])
def test_json_inputs_exit_2(argv, data, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert cli.main([a.replace("{file}", str(path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_points_file_takes_scalar_points(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text("[0, 1, 3, 2]")
    code, out = run(capsys, "curve", "--exponents", "0,2,4,14",
                    "--points-file", str(path), "--samples", "5")
    assert code == 0
    assert out == run(capsys, "curve", "--exponents", "0,2,4,14",
                      "--points", "0;1;3;2", "--samples", "5")[1]


@pytest.mark.parametrize("fmt", ["csv", "svg"])
@pytest.mark.parametrize("interval, ends", [
    # float(1/3) rounds below 1/3, and the rounded step overshoots 2 at
    # the last of the default 101 samples; 0.3 + (0.9 - 0.3) overshoots 0.9
    ("1/3,2", ["0.33333333333333331", "2"]),
    ("0.3,0.9", ["0.29999999999999999", "0.90000000000000002"]),
])
def test_curve_interval_grid_ends(interval, ends, fmt, capsys):
    code, out = run(capsys, "curve", "--exponents", "0,1,2",
                    "--points", "0,0;1,1;2,0", "--interval", interval,
                    "--format", fmt)
    assert code == 0
    if fmt == "csv":
        _, rows = parse_csv(out)
        assert len(rows) == 101
        assert rows[0] == [ends[0], "0", "0"]
        assert rows[-1] == [ends[1], "2", "0"]
    else:
        curve, polygon = [line.split('points="')[1].split('"')[0].split()
                          for line in out.splitlines() if "<polyline" in line]
        assert len(curve) == 101
        assert (curve[0], curve[-1]) == (polygon[0], polygon[-1])


@pytest.mark.parametrize("argv", [
    ["basis", "--samples", "{ceiling}", "--exponents", "0,1,3"],
    ["curve", "--samples", "{ceiling}", "--exponents", "0,1",
     "--points", "0,0;1,1"],
    ["oracle", "--samples", "{ceiling}", "--exponents", "0,1,3"],
    ["elevate", "--samples", "{ceiling}", "--preset", "cubic-linear",
     "--points", "0,0;1,4;3,4;4,0", "--iterations", "1"],
])
def test_samples_ceiling(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("evaluated above the sample ceiling")
    for name in ("_parameter_grid", "basis_table", "convergence_report"):
        monkeypatch.setattr(cli, name, refuse)
    argv = [a.replace("{ceiling}", str(cli.MAX_SAMPLES + 1)) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cli.MAX_SAMPLES) in lines[0]


def _elevate_work(iterations, samples, n=3):
    return (iterations + 1) * (samples ** 2 + n + iterations
                               + cli.ELEVATE_ROW_WORK)


# (9990, 2) took about 25 s before the per-row term, inside the ceiling
@pytest.mark.parametrize("iterations, samples", [
    (10 ** 9, 2), (0, 20000), (500, 512), (9990, 2), (2000, 2)])
def test_elevate_work_ceiling(iterations, samples, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled above the work ceiling")
    monkeypatch.setattr(cli, "convergence_report", refuse)
    assert _elevate_work(iterations, samples) > cli.MAX_ELEVATE_WORK
    assert cli.main(["elevate", "--preset", "cubic-linear",
                     "--points", "0,0;1,4;3,4;4,0",
                     "--iterations", str(iterations),
                     "--samples", str(samples)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cli.MAX_ELEVATE_WORK) in lines[0]


def test_elevate_defaults_well_inside_work_ceiling():
    # the README example and the benchmark ops: 100 iterations, 512 samples
    assert 3 * _elevate_work(100, 512) <= cli.MAX_ELEVATE_WORK


@pytest.mark.parametrize("iterations, samples", [(100, 512), (1800, 2)])
def test_elevate_below_the_work_ceiling_runs(iterations, samples, capsys):
    assert _elevate_work(iterations, samples) <= cli.MAX_ELEVATE_WORK
    code, out = run(capsys, "elevate", "--preset", "cubic-quadratic",
                    "--points", "0,0;1,4;3,4;4,0",
                    "--iterations", str(iterations),
                    "--samples", str(samples))
    assert code == 0
    assert len(out.splitlines()) == iterations + 2


def _fmt_row(values):
    return ",".join(cli._fmt17(v) for v in values)


def test_basis_table_matches_pointwise(capsys):
    exps = (0, 1, 3, 4, 6, 8, 9, 11, 14, 16)
    code, out = run(capsys, "basis", "--exponents", ",".join(map(str, exps)),
                    "--samples", "37")
    assert code == 0
    lines = ["t," + ",".join(f"H{k}" for k in range(10)) + ",unity_residual"]
    for i in range(37):
        t = i / 36
        vals = basis_values(exps, t)
        lines.append(_fmt_row((t, *vals, sum(vals) - 1.0)))
    assert out == "\r\n".join(lines) + "\r\n"


def _pointwise_routes(monkeypatch):
    """Send the batched routes of the CLI back to one parameter at a time."""
    monkeypatch.setattr(cli, "basis_table", lambda exps, ts: np.array([
        basis_values(exps, t) for t in ts]))
    monkeypatch.setattr(GelfondBezierCurve, "evaluate_many", lambda self, ts: [
        self.evaluate(t) for t in ts])


CURVE = ["--exponents", "0,2,4,14", "--points", "0,0;1,4;3,4;4,0",
         "--samples", "129"]


@pytest.mark.parametrize("argv", [
    ["basis", "--exponents", "0,2,4,14", "--samples", "257"],
    ["basis", "--closed-form", "elementary", "--l", "2", "--n", "4"],
    ["basis", "--closed-form", "complete", "--l", "2", "--n", "3"],
    ["basis", "--closed-form", "hook", "--l", "1", "--m", "2", "--n", "4"],
    ["basis", "--exponents", "0,1.5,3", "--samples", "17"],
    ["oracle", "--exponents", "0,2,3", "--seed", "4"],
    ["oracle", "--exponents", "0,3,4,6,9", "--samples", "17"],
    ["oracle", "--exponents", "0,1.5,3", "--samples", "5"],
] + [["curve", *CURVE, "--format", fmt, "--interval", interval]
     for fmt in ("csv", "json", "svg")
     for interval in ("0,1", "1/3,2", "0.3,0.9")])
def test_batched_output_matches_pointwise(argv, monkeypatch, capsys):
    code, batched = run(capsys, *argv)
    assert code == 0
    _pointwise_routes(monkeypatch)
    assert run(capsys, *argv) == (0, batched)


def test_csv_reads_back():
    header = ["t", "x0", "x1"]
    rows = [(t, -t / 3, 1e-300 * t) for t in (0.0, 1 / 3, 1.0, 12345.678)]
    rows.append((float("inf"), -0.0, 2 ** 70))
    text = cli._csv_text(header, rows)
    assert text.endswith("\r\n") and text.count("\r\n") == len(rows) + 1
    assert list(csv.reader(io.StringIO(text, newline=""))) == [header] + [
        [cli._fmt17(x) for x in row] for row in rows]


def test_csv_row_format_is_fmt17_per_field():
    row = (-0.0, 5e-324, 2 ** 53 + 1, 1e16, 1e308, Fraction(1, 3),
           np.float64(0.1), 7, -1 / 3)
    header = [f"c{i}" for i in range(len(row))]
    assert cli._csv_text(header, [row]).split("\r\n")[1] == ",".join(
        cli._fmt17(x) for x in row)


COORDINATES = (st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)
               | st.floats(-9, 9, allow_nan=False))


@st.composite
def spaces(draw):
    """Integer spaces, or real ones from float gaps (3.0 is a real exponent)."""
    gap = draw(st.sampled_from([st.integers(1, 4),
                                st.sampled_from([0.5, 0.75, 1.5, 2.0, 2.25])]))
    n = draw(st.integers(1, 5))
    return (0,) + tuple(accumulate(draw(st.lists(gap, min_size=n, max_size=n))))


def _json_number(x):
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x


@pytest.fixture(scope="module")
def points_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("points")


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_csv_tables_match_the_per_field_route(points_dir, data):
    # `curve` and `basis` CSV, byte for byte, against the sum over
    # `basis_values` by vec_scale/vec_add with each field through _fmt17
    exps = data.draw(spaces())
    dim = data.draw(st.sampled_from([None, 1, 2, 3]))     # None: scalars
    point = COORDINATES if dim is None else st.tuples(*[COORDINATES] * dim)
    points = data.draw(st.lists(point, min_size=len(exps), max_size=len(exps)))
    interval = data.draw(st.sampled_from(
        [((0, 1), "0,1"), ((Fraction(1, 3), 1), "1/3,1"), ((0.3, 0.9), "0.3,0.9")]))
    samples = data.draw(st.integers(2, 65))
    path = points_dir / "points.json"
    path.write_text(json.dumps([
        _json_number(p) if dim is None else [_json_number(c) for c in p]
        for p in points]))
    exps_text = ",".join(map(str, exps))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["curve", "--exponents", exps_text, "--points-file",
                         str(path), "--interval", interval[1],
                         "--samples", str(samples)]) == 0
        assert cli.main(["basis", "--exponents", exps_text,
                         "--samples", str(samples)]) == 0
    want = (curve_csv(exps, points, interval[0], samples)
            + basis_csv(exps, samples))
    assert out.getvalue() == want


def test_parser_is_built_once(monkeypatch, capsys):
    tree = cli._build_parser()
    assert run(capsys, "basis", "--exponents", "0,1", "--samples", "3")[0] == 0
    assert cli._build_parser() is tree
    # the handler is looked up when a command runs, not bound into the tree
    seen = []
    monkeypatch.setattr(cli, "cmd_curve", lambda args: seen.append(args.command) or 0)
    assert run(capsys, "curve", "--exponents", "0,1", "--points", "0,0;1,1")[0] == 0
    assert seen == ["curve"] and cli._build_parser() is tree
    args = tree[0].parse_args(["basis", "--exponents", "0,2"])
    assert not hasattr(args, "func")
