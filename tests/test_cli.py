import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from gelfond import cli
from gelfond.arith import SingularityError
from gelfond.curves import GelfondBezierCurve, curve_from_json
from gelfond.dimelev import insert_exponent
from gelfond.gelfond_basis import basis_values


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
    _, direct = run(capsys, "basis", "--exponents", "0,1,3,4",
                    "--samples", "21")
    _, closed = run(capsys, "basis", "--closed-form", "elementary",
                    "--l", "2", "--n", "3", "--samples", "21")
    assert closed == direct


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


def test_singularity_exit_code(monkeypatch, capsys):
    def blow_up(args):
        raise SingularityError("synthetic")
    monkeypatch.setattr(cli, "cmd_basis", blow_up)
    assert run(capsys, "basis", "--exponents", "0,1")[0] == 3


def test_points_accept_fractions(capsys):
    code, out = run(capsys, "decasteljau", "--exponents", "0,1",
                    "--points", "1/3,0;2/3,1", "--t", "1/4")
    assert code == 0
    data = json.loads(out)
    assert data["levels"][0][0] == ["1/3", 0]


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
])
def test_boundary_inputs_exit_2(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


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
    for name in ("_parameter_grid", "basis_values_many", "convergence_report"):
        monkeypatch.setattr(cli, name, refuse)
    argv = [a.replace("{ceiling}", str(cli.MAX_SAMPLES + 1)) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cli.MAX_SAMPLES) in lines[0]


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
    monkeypatch.setattr(cli, "basis_values_many", lambda exps, ts: [
        list(basis_values(exps, t)) for t in ts])
    monkeypatch.setattr(cli, "horner_table", lambda polys, ts: np.array([
        [p(t) for p in polys] for t in ts]))
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
    rows = [[cli._fmt17(x) for x in (t, -t / 3, 1e-300 * t)]
            for t in (0.0, 1 / 3, 1.0, 12345.678)]
    rows.append([cli._fmt17(x) for x in (float("inf"), -0.0, 2 ** 70)])
    text = cli._csv_text(header, rows)
    assert text.endswith("\r\n") and text.count("\r\n") == len(rows) + 1
    assert list(csv.reader(io.StringIO(text, newline=""))) == [header] + rows
