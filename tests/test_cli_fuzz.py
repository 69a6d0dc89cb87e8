"""Seeded fuzz test of the command line: generated argv for every
subcommand, drawn from pools that mix valid values with the inputs the
boundary must refuse, among them exact coordinates (10^400 and
10^400/3) too large for the float routes, values that start with "-"
(`-1,0;1,2`, `-1/2`) given after their flag as separate arguments, and
the integer space (0, 3, 10^9), whose exact basis is refused before it
is built; `decasteljau`, which builds no basis, draws it too: its pyramid
forms no Schur value at t = 0 and 1, refuses an exact t as unprintable,
and meets a vanishing weight denominator at a float t.

A second test runs `decasteljau` on real spaces at float t below 1e-100,
where negative powers of t overflow the float range.

Every call ends with exit code 0, 2 or 3 and no traceback; every refused
input, argparse's refusals included, is reported on exactly one stderr
line.  No call raises a numpy RuntimeWarning, and one that exits 0
prints no nan or inf.  No call is timed: the sizes are kept small instead
(samples <= 65, iterations <= 5, integer exponents <= 1000 but for
10^9, which every command refuses or answers at once), because a dense basis polynomial of degree near 10^5
takes seconds.
"""

import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import given, seed, settings, strategies as st

from gelfond import cli

HUGE_SPACE = "0,3,1000000000"
EXPONENTS = ["0,1,3", "0,2,4,14", "0,3,4,6,9", "0,1,2,4", "0,1.5,3",
             "0,0.7,1.9", "0,1/2,5/2", "0", "0,1000", "0,1e200,1e300",
             "0,3,3", "0,3,2", "1,2,3", "0,-1", "0,2/0", "0,nan", "0,inf",
             "0,1e308", "0,,2", "zero,1", HUGE_SPACE]
POINTS = ["0,0;1,4;3,4;4,0", "0,0;1,2;3,0", "0,0;1,1", "0;1;3;2", "1;2,3",
          "0,0,0;1,2,3;3,0,1", "1/2,0;1,1;2,0", "1/0,0;1,1", "nan,0;1,1",
          "0,inf;1,1", "1e308,0;-1e308,1;1e308,0;0,0", "0,0;1", "a,b",
          f"{10 ** 400},0;1,2;3,0", f"0,0;1,4;3,{10 ** 400}/3;4,0",
          "-1,0;1,2"]
INTERVALS = ["0,1", "1/3,2", "0.3,0.9", "1,0", "1,1", "0,1/0", "nan,1",
             "0,inf", "1", "0,1,2", "-1e308,1e308", "-1,2", ""]
PARAMETERS = ["1/2", "1/3", "0.4", "0", "1", "2", "-1", "nan", "inf", "1/0",
              "x", "1e-130", "1e-300", "-1/2"]
RHOS = ["2", "5/2", "0.5", "3", "0", "-1", "1", "1/0", "nan", "1e308", "-1/2"]
EXTRAS = ["5,6", "2.5", "7/2,9", "1/0", "nan", "1e308", "0", "-3"]
SAMPLES = ["2", "3", "17", "65", "0", "1", "-3", "x"]
ITERATIONS = ["0", "1", "5", "-1", "x"]
PRESETS = ["cubic-linear", "cubic-quadratic", "sparse-affine", "bogus"]
SMALL = ["0", "1", "2", "3", "5", "-1", "x"]

# file contents, written once per module under these names
FILES = {
    "points.json": [[0, 0], [1, 4], [3, 4], [4, 0]],
    "scalar-points.json": [0, 1, 3, 2],
    "bad-points.json": [["1/0", 0], [1, 1], [2, 0], [3, 1]],
    "nan-points.json": [["nan", 0], [1, 1], [2, 0], [3, 1]],
    "left.json": {"exponents": [0, 1, 3], "interval": [0, 1],
                  "points": [[0, 0], [1, 2], [3, 0]]},
    "left-zero-den.json": {"exponents": [0, 1, 3], "interval": [0, 1],
                           "points": [[0, 0], ["1/0", 2], [3, 0]]},
    "left-nan.json": {"exponents": [0, 1, 3], "interval": [0, 1],
                      "points": [[0, 0], ["nan", 2], [3, 0]]},
    "left-mixed.json": {"exponents": [0, 1, 3], "interval": [0, 1],
                        "points": [[0, 0], [1], [3, 0]]},
    "left-short.json": {"exponents": [0, 1, 3], "interval": [0, 1],
                        "points": [[0, 0], [3, 0]]},
    "left-no-interval.json": {"exponents": [0, 1, 3],
                              "points": [[0, 0], [1, 2], [3, 0]]},
    "config.json": {"samples": 9, "exponents": "0,2,3"},
    "config-bad-type.json": {"samples": "many"},
    "config-bad-choice.json": {"tail_rule": "bogus", "format": "png"},
    "config-zero-den.json": {"exponents": "0,2/0", "points": "0;1;2"},
    "config-list.json": [1, 2],
}
RAW_FILES = {"not-json.json": "{",
             "nan-literal.json": '{"exponents": [0, NaN]}'}
POINT_FILES = ["points.json", "scalar-points.json", "bad-points.json",
               "nan-points.json", "not-json.json", "missing.json"]
LEFT_FILES = [name for name in FILES if name.startswith("left")] + [
    "not-json.json", "nan-literal.json", "missing.json"]
CONFIGS = [name for name in FILES if name.startswith("config")] + [
    "not-json.json", "missing.json"]

COMMON = {"--exponents": EXPONENTS, "--preset": PRESETS,
          "--config": CONFIGS, "--output": ["no-such-dir/out"]}
SAMPLED = {"--samples": SAMPLES}
POINTED = {"--points": POINTS, "--points-file": POINT_FILES}
INTERVAL = {"--interval": INTERVALS}
FLAGS = {
    "basis": {**COMMON, **SAMPLED,
              "--closed-form": ["elementary", "complete", "hook", "other"],
              "--l": SMALL, "--m": SMALL, "--n": SMALL},
    "curve": {**COMMON, **SAMPLED, **POINTED, **INTERVAL,
              "--format": ["csv", "json", "svg", "png"]},
    "decasteljau": {**COMMON, **POINTED, **INTERVAL, "--t": PARAMETERS},
    "elevate": {**COMMON, **SAMPLED, **POINTED,
                "--tail-rule": ["classical", "linear", "affine", "quadratic"],
                "--extra": EXTRAS, "--iterations": ITERATIONS},
    "insert": {**COMMON, **POINTED, **INTERVAL, "--rho": RHOS},
    "join": {**COMMON, **POINTED, **INTERVAL, "--left": LEFT_FILES},
    "oracle": {**COMMON, **SAMPLED, "--seed": ["0", "4", "x"]},
}
FILE_FLAGS = {"--points-file", "--left", "--config", "--output"}
# a number token that is not finite, as the CSV, JSON and SVG writers
# would print it
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in FILES.items():
        (root / name).write_text(json.dumps(data))
    for name, text in RAW_FILES.items():
        (root / name).write_text(text)
    return root


@st.composite
def argvs(draw, command):
    argv = [command]
    for flag, pool in FLAGS[command].items():
        value = draw(st.none() | st.sampled_from(pool))
        if value is not None:
            argv += [flag, value]
    return argv


@pytest.mark.parametrize("command", sorted(FLAGS))
@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_cli_ends_in_a_known_exit_code(command, files, data):
    argv = data.draw(argvs(command))
    # the value after a file flag names a file under `files`
    argv = [str(files / a) if flag in FILE_FLAGS else a
            for flag, a in zip([None] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse refused the argv
            code = exc.code
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert out.getvalue() == "", argv
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], argv
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), argv


@seed(20261019)
@settings(max_examples=40, deadline=None, database=None)
@given(gaps=st.lists(st.floats(0.05, 2.5), min_size=2, max_size=5),
       digits=st.floats(100, 320), data=st.data())
def test_decasteljau_at_small_float_t_on_real_spaces(gaps, digits, data):
    exponents = [0.0]
    for g in gaps:
        exponents.append(round(exponents[-1] + g, 4))
    text = "0," + ",".join(repr(x) for x in exponents[1:])
    points = ";".join(f"{data.draw(st.integers(-5, 5))},"
                      f"{data.draw(st.integers(-5, 5))}" for _ in exponents)
    argv = ["decasteljau", "--exponents", text, f"--points={points}",
            "--t", repr(10.0 ** -digits)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 3), (argv, code, err.getvalue())
    if code:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert out.getvalue() == "", argv
    else:
        assert not NON_FINITE.search(out.getvalue()), argv
