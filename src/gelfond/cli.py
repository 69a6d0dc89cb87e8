"""Command-line front end.

Commands
--------
basis        CSV table of t, H_0..H_n and a unity-residual column, for
             --exponents or for a family's exponents (--closed-form)
curve        sample a curve to CSV/JSON or draw it (with its control
             polygon) to SVG
decasteljau  full corner-cutting pyramid at one parameter, as JSON
elevate      corner-cutting convergence experiment, CSV (+ SVG frames)
insert       single exponent insertion, new curve as JSON
join         C1-join a new curve onto the end of a serialized one
oracle       cross-route consistency report (max deviations)

Outputs are deterministic: CSV floats carry 17 significant digits, SVG
coordinates 6, and the CSV dialect is RFC 4180 (CRLF); a CSV row is
formatted by one `%` operation.  The `basis` table and the production
columns of `oracle` are evaluated in one batch per space, which prints
the same bytes as evaluating each parameter on its own; `curve`
evaluates its samples one at a time, which takes about 9 times as long
as one batch on the integer space (0, 2, 4, 14) and 13 times on the
real space (0, 0.8, 2.5, 2.95), at 257 samples.  Exit codes:
0 success, 2 invalid input (an exact number too large for a float
included), 3 numeric singularity.

A JSON config file (--config) may supply any long flag of the command
(dashes as underscores) but --config itself, checked against the flag's
type and choices as on the command line; a key for no such flag is
refused.  Explicit flags win over the file.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from .arith import (SingularityError, as_point, format_number, is_exact,
                    parse_number)
from .curves import (GelfondBezierCurve, c1_join, curve_from_json,
                     curve_to_json)
from .dimelev import (PRESETS, TAIL_RULES, convergence_report,
                      exponent_source, insert_exponent, preset)
from .gelfond_basis import (basis_table, complete_exponents,
                            elementary_exponents, gelfond_basis_schur,
                            hook_exponents)
from .partitions import ExponentSequence

# --samples above this is refused before any grid is built: tables hold
# samples x (n + 1) floats and their text in memory.
MAX_SAMPLES = 10 ** 6

# `elevate` above this work is refused before any sampling.  Each of its
# iterations + 1 rows compares two samplings (up to samples^2 squared
# distances), inserts into and resamples a polygon that grows from n + 1
# points by one per iteration, and pays a fixed cost, ELEVATE_ROW_WORK,
# for numpy calls on small arrays.  Rows are measured in chunks of eight
# (see `dimelev`); at `--samples 2` a row costs about 0.3 ms over 1800
# iterations, the time of some 6e4 squared distances at 4.5 ns each (a
# shared 2-vCPU x86-64 VM).  The README example and the benchmark (100
# iterations, 512 samples) do 3.2e7; `--samples 2` stops near 1900
# iterations, under a second of rows.
MAX_ELEVATE_WORK = 10 ** 8
ELEVATE_ROW_WORK = 5 * 10 ** 4


def _fmt17(x):
    return f"{float(x):.17g}"


def _fmt6(x):
    return f"{float(x):.6g}"


def _parse_numbers(text):
    return [parse_number(tok) for tok in str(text).split(",") if str(tok).strip()]


def _parse_points(spec):
    if isinstance(spec, (list, tuple)):
        return [tuple(parse_number(c) for c in p) if isinstance(p, list)
                else parse_number(p) for p in spec]
    pts = []
    for chunk in str(spec).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = tuple(parse_number(tok) for tok in chunk.split(","))
        pts.append(coords if len(coords) > 1 else coords[0])
    return pts


def _load_points(args):
    if getattr(args, "points", None):
        return _parse_points(args.points)
    if getattr(args, "points_file", None):
        with open(args.points_file) as fh:
            return _parse_points(json.load(fh))
    raise ValueError("control points required (--points or --points-file)")


def _parse_interval(text):
    """The ends a, b of an --interval value "a,b"."""
    ends = _parse_numbers(text)
    if len(ends) != 2:
        raise ValueError(f'--interval takes two numbers "a,b", got {text!r}')
    return tuple(ends)


def _interval(args):
    if getattr(args, "interval", None) is not None:
        return _parse_interval(args.interval)
    return 0, 1


def _write_text(path, text):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows):
    """RFC 4180 text with CRLF line ends: the header, then each row, a
    tuple of numbers, formatted by one `%` operation.  A field "%.17g" % x
    has the bytes of `_fmt17(x)`, because `%` converts an int, a Fraction
    or a numpy float by float() too; an int up to 2**53 prints as its
    digits.  No field holds a comma, quote or line break, so none needs
    quoting."""
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_format % row for row in rows)
    lines.append("")
    return "\r\n".join(lines)


def _coords(p):
    return p if isinstance(p, tuple) else (p,)


def _svg_text(polylines, markers=()):
    """polylines: (points, stroke, dash) triples in data coordinates;
    markers: (x, y, radius_px) circles.  Y axis flipped for display."""
    xs = [x for pts, _, _ in polylines for x, _ in pts]
    ys = [y for pts, _, _ in polylines for _, y in pts]
    xs += [m[0] for m in markers]
    ys += [m[1] for m in markers]
    if not xs:
        raise ValueError("nothing to draw")
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y) or 1.0
    if span == float("inf"):
        raise ValueError("coordinates too large to draw: span overflows")
    pad = 0.05 * span
    lo_x, lo_y = lo_x - pad, lo_y - pad
    span += 2 * pad
    size = 480.0

    def map_pt(x, y):
        return ((x - lo_x) / span * size,
                size - (y - lo_y) / span * size)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{size:g}" height="{size:g}" '
             f'viewBox="0 0 {size:g} {size:g}">']
    for pts, stroke, dash in polylines:
        mapped = " ".join(
            f"{_fmt6(mx)},{_fmt6(my)}" for mx, my in (map_pt(x, y) for x, y in pts))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline fill="none" stroke="{stroke}" '
                     f'stroke-width="1.5"{dash_attr} points="{mapped}"/>')
    for x, y, radius in markers:
        mx, my = map_pt(x, y)
        parts.append(f'<circle cx="{_fmt6(mx)}" cy="{_fmt6(my)}" '
                     f'r="{_fmt6(radius)}" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _parameter_grid(a, b, samples):
    """`samples` uniform float parameters across [a, b]; the rounded step
    can overshoot float(b), so the grid is capped there.  On [0, 1] these
    are the correctly rounded i / (samples - 1)."""
    a, b = float(a), float(b)
    return [min(a + (b - a) * i / (samples - 1), b) for i in range(samples)]


def _curve_svg(curve, samples):
    pts2 = [(float(x), float(y)) for x, y in samples]
    poly = [tuple(float(c) for c in _coords(p)) for p in curve.points]
    markers = [(x, y, 3.0) for x, y in poly]
    return _svg_text([(pts2, "#1f77b4", None), (poly, "#d62728", "4 3")],
                     markers)


def _exponents_from(args):
    if getattr(args, "preset", None):
        exps, _ = preset(args.preset)
        return exps
    if getattr(args, "exponents", None):
        return ExponentSequence(_parse_numbers(args.exponents))
    raise ValueError("exponents required (--exponents or --preset)")


def _samples(args, default=101):
    n = getattr(args, "samples", None)
    n = int(default if n is None else n)
    if n < 2:
        raise ValueError("need at least 2 samples")
    if n > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples, got {n}")
    return n


def cmd_basis(args):
    samples = _samples(args)
    ts = _parameter_grid(0, 1, samples)
    if getattr(args, "closed_form", None):
        family = args.closed_form
        flags = ("l", "m", "n") if family == "hook" else ("l", "n")
        missing = [f"--{f}" for f in flags if getattr(args, f) is None]
        if missing:
            raise ValueError(f"--closed-form {family} needs {', '.join(missing)}")
        if family == "hook":
            exps = hook_exponents(args.l, args.m, args.n)
        elif family == "complete":
            exps = complete_exponents(args.l, args.n)
        else:
            exps = elementary_exponents(args.l, args.n)
    else:
        exps = _exponents_from(args)
    table = basis_table(exps, ts).tolist()
    n = exps.n
    header = ["t"] + [f"H{k}" for k in range(n + 1)] + ["unity_residual"]
    rows = ((t, *vals, sum(vals) - 1.0) for t, vals in zip(ts, table))
    _write_text(args.output, _csv_text(header, rows))
    return 0


def cmd_curve(args):
    exps = _exponents_from(args)
    curve = GelfondBezierCurve(exps, _load_points(args), _interval(args))
    samples = _samples(args)
    fmt = args.format or "csv"
    if fmt not in ("csv", "json", "svg"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "svg" and len(_coords(curve.points[0])) != 2:
        raise ValueError("SVG output needs 2-dimensional control points")
    ts = _parameter_grid(*curve.interval, samples)
    # one `evaluate` call per sample: perfbench/test_perfbench.py counts
    # them.  `evaluate_many` gives the same points in one batch, for 257
    # points about 9 times as fast on (0, 2, 4, 14) and 13 times on
    # (0, 0.8, 2.5, 2.95) (best of 9 on a shared 2-vCPU Xeon VM, whose
    # speed drifts too much between runs for absolute times)
    points = [curve.evaluate(t) for t in ts]
    if fmt == "svg":
        _write_text(args.output, _curve_svg(curve, points))
        return 0
    rows = [(t, *_coords(p)) for t, p in zip(ts, points)]
    if fmt == "csv":
        dim = len(_coords(curve.points[0]))
        header = ["t"] + [f"x{d}" for d in range(dim)]
        text = _csv_text(header, rows)
    else:
        data = {"curve": json.loads(curve_to_json(curve)),
                "samples": [[_fmt17(x) for x in row] for row in rows]}
        text = json.dumps(data, indent=2) + "\n"
    _write_text(args.output, text)
    return 0


def cmd_decasteljau(args):
    exps = _exponents_from(args)
    curve = GelfondBezierCurve(exps, _load_points(args), _interval(args))
    if args.t is None:
        raise ValueError("--t required")
    t = parse_number(args.t)
    _refuse_unprintable_pyramid(curve, t)
    levels = curve.de_casteljau_levels(t)
    data = {
        "t": format_number(t),
        "levels": [[[format_number(c) for c in _coords(p)] for p in level]
                   for level in levels],
    }
    _write_text(args.output, json.dumps(data, indent=2) + "\n")
    return 0


def _refuse_unprintable_pyramid(curve, t):
    """An exact pyramid at the unit parameter s = p/q holds numbers whose
    denominators grow as q^{r_n}, about r_n log10(q) digits.  Above the
    digits that Python converts to text (`sys.get_int_max_str_digits`)
    its JSON could not be written, so it is refused before any Schur
    value is formed; float coordinates alone stay printable."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    s = curve.local_parameter(t)
    if not (limit and is_exact(s) and 0 < s < 1 and curve.exponents.is_integer()
            and any(is_exact(c) for p in curve.points for c in _coords(p))):
        return
    r_n = curve.exponents[curve.n]
    q = Fraction(s).denominator
    digits = r_n * math.log10(q)
    if digits > limit:
        raise ValueError(
            f"an exact pyramid at the unit parameter {format_number(Fraction(s))} "
            f"with r_n = {r_n} holds numbers of about r_n x log10({q}) = "
            f"{digits:.0f} digits, above the {limit} that Python prints")


def cmd_elevate(args):
    if getattr(args, "preset", None):
        if args.tail_rule is not None or args.extra is not None:
            raise ValueError("--preset sets the tail rule and the extra "
                             "exponents: drop --tail-rule and --extra")
        exps, source = preset(args.preset)
    else:
        exps = _exponents_from(args)
        rule = args.tail_rule or "classical"
        extra = _parse_numbers(args.extra) if args.extra else ()
        source = exponent_source(rule, extra, first_index=exps.n + 1)
    points = _load_points(args)
    iterations = int(args.iterations if args.iterations is not None else 100)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    samples = _samples(args, default=512)
    work = (iterations + 1) * (samples ** 2 + exps.n + iterations
                               + ELEVATE_ROW_WORK)
    if work > MAX_ELEVATE_WORK:
        raise ValueError(
            f"(iterations + 1) x (samples^2 + n + iterations + "
            f"{ELEVATE_ROW_WORK}) = {work} is above the ceiling "
            f"{MAX_ELEVATE_WORK}; lower --iterations or --samples")
    frame = None
    if args.frames_dir:
        if any(len(_coords(as_point(p))) != 2 for p in points):
            raise ValueError("SVG frames need 2-dimensional points")
        os.makedirs(args.frames_dir, exist_ok=True)

        def frame(it, polygon, curve):
            svg = _svg_text([(curve.tolist(), "#1f77b4", None),
                             (polygon.tolist(), "#d62728", "4 3")])
            with open(f"{args.frames_dir}/frame_{it:03d}.svg", "w") as fh:
                fh.write(svg)

    rows = convergence_report(points, exps, source, iterations, samples,
                              frame=frame)
    header = ["iteration", "polygon_size", "hausdorff", "sup_param_distance"]
    _write_text(args.output, _csv_text(header, rows))
    return 0


def cmd_insert(args):
    exps = _exponents_from(args)
    points = _load_points(args)
    if args.rho is None:
        raise ValueError("--rho required")
    rho = parse_number(args.rho)
    curve = GelfondBezierCurve(exps, points, _interval(args))
    new_pts, new_exps = insert_exponent(curve.points, curve.exponents, rho)
    new = GelfondBezierCurve(new_exps, new_pts, curve.interval)
    _write_text(args.output, curve_to_json(new) + "\n")
    return 0


def cmd_join(args):
    if not args.left:
        raise ValueError("--left curve file required")
    with open(args.left) as fh:
        left = curve_from_json(fh.read())
    exps = _exponents_from(args)
    if not getattr(args, "interval", None):
        raise ValueError("--interval b,c required for the right segment")
    free = _load_points(args) if args.points or args.points_file else ()
    right = c1_join(left, exps, _parse_interval(args.interval), free)
    _write_text(args.output, curve_to_json(right) + "\n")
    return 0


def cmd_oracle(args):
    """Cross-route comparisons on a deterministic grid; prints max
    deviations so independent implementations of the same quantities can
    be eyeballed in one run."""
    exps = _exponents_from(args)
    samples = _samples(args, default=33)
    n = exps.n
    import random
    rng = random.Random(args.seed or 0)
    pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n + 1)]
    curve = GelfondBezierCurve(exps, pts)
    dev_routes = 0.0
    dev_unity = 0.0
    dev_dc = 0.0
    # the production routes run in batches; the routes they are checked
    # against run point by point
    ts = _parameter_grid(0, 1, samples)
    table = basis_table(exps, ts).tolist()
    values = curve.evaluate_many(ts)
    for t, vals, v1 in zip(ts, table, values):
        dev_unity = max(dev_unity, abs(sum(vals) - 1.0))
        if 0 < t:
            for k in range(n + 1):
                a = gelfond_basis_schur(exps, k, t)
                dev_routes = max(dev_routes, abs(float(a) - float(vals[k])))
        v2 = curve.evaluate_de_casteljau(t)
        dev_dc = max(dev_dc, max(abs(x - y) for x, y in zip(v1, v2)))
    lines = [
        f"basis routes (schur vs production): {_fmt17(dev_routes)}",
        f"partition-of-unity residual: {_fmt17(dev_unity)}",
        f"de casteljau vs basis sum: {_fmt17(dev_dc)}",
    ]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse refusing on one line, `error: <message>`, exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser():
    """The argparse tree and its subparsers by command name, built once per
    process.  The tree names no handler: `main` looks up `cmd_<command>`
    when it runs one."""
    parser = _Parser(
        prog="gelfond",
        description="Gelfond-Bezier curve toolkit over Muntz spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=True, points=False, interval=True):
        p.add_argument("--exponents", help="comma list, e.g. 0,3,4,6,9")
        p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
        if samples:
            p.add_argument("--samples", type=int)
        p.add_argument("--output", help="file path (default stdout)")
        p.add_argument("--config", help="JSON file supplying flags")
        if points:
            p.add_argument("--points", help='inline points "x,y;x,y;.."')
            p.add_argument("--points-file", dest="points_file")
            if interval:
                p.add_argument("--interval", help='"a,b" (default "0,1")')

    p = sub.add_parser("basis", help="basis value table")
    common(p)
    p.add_argument("--closed-form", dest="closed_form",
                   choices=["elementary", "complete", "hook"])
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)

    p = sub.add_parser("curve", help="sample or draw a curve")
    common(p, points=True)
    p.add_argument("--format", choices=["csv", "json", "svg"])

    p = sub.add_parser("decasteljau", help="corner-cutting pyramid as JSON")
    common(p, samples=False, points=True)
    p.add_argument("--t")

    p = sub.add_parser("elevate", help="dimension elevation experiment")
    common(p, points=True, interval=False)
    p.add_argument("--tail-rule", dest="tail_rule", choices=list(TAIL_RULES))
    p.add_argument("--extra", help="comma list inserted before the tail rule")
    p.add_argument("--iterations", type=int)
    p.add_argument("--frames-dir", dest="frames_dir")

    p = sub.add_parser("insert", help="insert one exponent")
    common(p, samples=False, points=True)
    p.add_argument("--rho")

    p = sub.add_parser("join", help="C1-join a right segment")
    common(p, samples=False, points=True)
    p.add_argument("--left", help="serialized left curve (JSON file)")

    p = sub.add_parser("oracle", help="cross-route consistency report")
    common(p)
    p.add_argument("--seed", type=int)

    return parser, sub.choices


def _config_value(action, value):
    """A config value as the command line would give it: through the
    flag's type= and choices=."""
    flag = action.option_strings[0]
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            raise ValueError(f"config {flag}: invalid {action.type.__name__} "
                             f"value: {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config {flag}: invalid choice: {value!r} (choose "
                         f"from {', '.join(map(repr, action.choices))})")
    return value


def _apply_config(args, parser):
    """Fill the flags left unset from the --config file, read against the
    command's own `parser`."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        actions = {a.dest: a for a in parser._actions
                   if a.dest not in ("help", "config")}
        for key, value in data.items():
            attr = key.replace("-", "_")
            if attr not in actions:
                raise ValueError(f"config file {args.config}: {key!r} is "
                                 f"not a flag of {args.command}")
            if value is not None and getattr(args, attr) is None:
                setattr(args, attr, _config_value(actions[attr], value))


def _join_negative_values(argv):
    """argv with each `--flag -<digit or .>..` pair joined as
    `--flag=-..`: argparse takes a value that starts with "-" for a flag
    unless it is a plain decimal such as -0.5, so `--points -1,0;1,2` and
    `--t -1/2` would not parse.  No flag of this command line starts that
    way, and a real flag after a flag (`--points --samples 3`) is left to
    fail as before."""
    out = []
    for arg in argv:
        if (out and re.match(r"-[0-9.]", arg)
                and re.fullmatch(r"--[^=]+", out[-1])):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(argv))
    try:
        _apply_config(args, commands[args.command])
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, NotImplementedError, OSError, OverflowError) as exc:
        # OverflowError: an exact input too large for a float (a coordinate
        # of 400 digits at a float parameter) or for a list (an exponent)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularityError as exc:
        print(f"numeric singularity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
