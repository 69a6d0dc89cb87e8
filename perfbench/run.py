#!/usr/bin/env python3
"""Benchmark of the `gelfond` command line, driven in-process.

    python3 perfbench/run.py --workload int-sample --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each op is a call of
`gelfond.cli.main(argv)` that starts when the previous one has returned,
with its output written to a file under `perfbench/scratch/`.  After the
timed phase every output is checked against the benchmark's own
references (`reference.py`); a failed check, a nonzero exit code or an
exception counts the op as failed, and it stays in the mix.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs half the time
untraced and half with every `gelfond` function wrapped (`tracer.py`) and
prints the per-layer metrics.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Times are given at a reference speed.  The speed of a shared machine
drifts by up to 2x over seconds, so two fixed kernels are timed between
ops (`Speedometer`) and each op's raw time is scaled by their reference
time over their time measured just before and just after that op.
"""

import argparse
import bisect
import contextlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / "scratch"

try:
    import mpmath  # noqa: F401  (the real-exponent reference needs it)
except ImportError:
    sys.exit("error: mpmath is required for the real-exponent references")

from tracer import ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS, Accuracy, CheckFailed

SETUP_REPEATS = 3
_OP_IDS = itertools.count()
CALIBRATE_EVERY_S = 0.05
# Times of `_cpu_kernel()` (best of three) and of `_memory_kernel()` on an
# unloaded 2-vCPU x86-64 VM (Python 3.11, 2 MB L2 per core); reported
# times are raw times scaled to this speed.
CPU_REF_S = 7.0e-4
MEMORY_REF_S = 3.4e-3


def _cpu_kernel():
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(i + 1, i + 2) + 1
    vals = [float(i) * 0.5 for i in range(1500)]
    return acc + sum(vals) + float(x)


def _memory_kernel(items):
    total = 0
    for x in items:
        total += x
    return total


def _timed(fn, *args):
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


class Speedometer:
    """Times two reference kernels between ops and scales raw times by
    them: a pure-Python CPU kernel, and a walk over ~3.6 MB of int
    objects (past the L2 cache) that also slows when neighbours contend
    for cache and memory."""

    def __init__(self):
        self._items = list(range(1000, 101000))
        self.times = []       # perf_counter at each calibration
        self.slowdowns = []   # kernel time over reference time
        self._last = None

    def calibrate(self):
        cpu = min(_timed(_cpu_kernel) for _ in range(3))
        memory = _timed(_memory_kernel, self._items)
        self._last = perf_counter()
        self.times.append(self._last)
        self.slowdowns.append((cpu / CPU_REF_S + memory / MEMORY_REF_S) / 2)

    def maybe_calibrate(self):
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self, start, end):
        """Reference seconds per raw second for an op run over
        [start, end]: one over the mean slowdown of the last calibration
        before it and the first after it."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.slowdowns[i] for i in (before, after)
                if 0 <= i < len(self.times)]
        return len(near) / sum(near)


class Record:
    __slots__ = ("op", "path", "status", "start", "end", "seconds")

    def __init__(self, op, path, status, start, end, seconds):
        self.op, self.path, self.status = op, path, status
        self.start, self.end, self.seconds = start, end, seconds


def _invoke(cli, argv, sink):
    """Run one CLI call; returns its exit code or an error description."""
    sink.seek(0)
    sink.truncate()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a failed run
            return f"{type(exc).__name__}: {exc}"


def _load_gelfond():
    """Import the package from this checkout's `src/`, afresh."""
    for name in [m for m in sys.modules if m == "gelfond" or m.startswith("gelfond.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("gelfond.cli")
    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"gelfond imported from {where}, not from {SRC}")
    return cli


def _run_ops(cli, ops, workdir, speed, sink, records, tracer=None):
    for op in ops:
        op_id = next(_OP_IDS)
        path = workdir / f"op{op_id:06d}.out"
        argv = op.argv + ["--output", str(path)]
        start = perf_counter()
        if tracer is None:
            status = _invoke(cli, argv, sink)
        else:
            with tracer.op(op_id):
                status = _invoke(cli, argv, sink)
        end = perf_counter()
        if status != 0:
            status = f"{status}: {sink.getvalue().strip()[-300:]}"
        records.append(Record(op, path, status, start, end, end - start))
        speed.maybe_calibrate()


def setup(workload_cls, seed, workdir, speed, sink):
    """Import gelfond, generate the inputs and warm up; returns
    (cli module, workload, reference seconds)."""
    speed.calibrate()
    start = perf_counter()
    cli = _load_gelfond()
    workload = workload_cls(random.Random(seed))
    warm = []
    _run_ops(cli, workload.warmup(), workdir, speed, sink, warm)
    end = perf_counter()
    speed.calibrate()
    for rec in warm:
        rec.path.unlink(missing_ok=True)
    failed = [rec.status for rec in warm if rec.status != 0]
    if failed:
        raise RuntimeError(f"warm-up op failed: {failed[0]}")
    return cli, workload, (end - start) * speed.scale(start, end)


def timed_phase(cli, rounds, seconds, workdir, speed, sink, tracer=None):
    """Whole rounds of ops until `seconds` of op time have passed."""
    records = []
    speed.calibrate()
    busy = 0.0
    while busy < seconds:
        first = len(records)
        _run_ops(cli, next(rounds), workdir, speed, sink, records, tracer)
        busy += sum(rec.seconds for rec in records[first:])
    speed.calibrate()
    return records


def check_records(workload, records, acc):
    """Check every op's output; returns the failure messages."""
    failures = []
    for rec in records:
        error = None
        if rec.status != 0:
            error = f"exit {rec.status}"
        else:
            try:
                with open(rec.path, newline="") as fh:
                    workload.check(rec.op, fh.read(), acc)
            except (CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        rec.path.unlink(missing_ok=True)
        if error:
            failures.append(f"{rec.op.kind} {' '.join(rec.op.argv)}: {error}")
    return failures


def latency_stats(records, speed):
    """Scaled latencies (s) and the tail rank: the highest percentile with
    at least 10 ops beyond it, never below the median."""
    lat = sorted(rec.seconds * speed.scale(rec.start, rec.end) for rec in records)
    n = len(lat)
    rank = max(n - 10, n // 2 + 1)        # 1-based
    return lat, rank


def end_to_end(records, speed, setups, rss_mb):
    lat, rank = latency_stats(records, speed)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * lat[rank - 1], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, (100.0 * rank / len(lat), len(lat) - rank, len(lat))


def layer_metrics(tracer, cache_delta, traced_ops_per_s, plain_ops_per_s, op_scale):
    calls = tracer.calls
    op_s = tracer.op_seconds()
    mod = tracer.module_self_s()
    m = {}

    def count(name, key, source=calls):
        m[name] = (source.get(key, 0), "count")

    def self_time(name, seconds):
        m[name + ".self_s"] = (seconds * op_scale, "s")
        m[name + ".self_share"] = (seconds / op_s if op_s else 0.0, "ratio")

    m["cli.calls"] = (sum(v for k, v in calls.items() if k.startswith("cli.")), "count")
    self_time("cli", mod.get("cli", 0.0))
    count("curves.evaluate.calls", "curves.GelfondBezierCurve.evaluate")
    count("curves.de_casteljau.calls", "blossom.de_casteljau")
    self_time("curves", mod.get("curves", 0.0))
    count("gelfond_basis.basis_values.calls", "gelfond_basis.basis_values")
    self_time("gelfond_basis", mod.get("gelfond_basis", 0.0))
    hits, misses = cache_delta
    m["gelfond_basis.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                          "ratio")
    m["gelfond_basis.cache_misses"] = (misses, "count")
    count("polynomials.eval.calls", "polynomials.Poly.__call__")
    self_time("polynomials", mod.get("polynomials", 0.0))
    count("partitions.interlacing.yielded", "partitions.interlacing_partitions",
          tracer.yielded)
    self_time("partitions", mod.get("partitions", 0.0))
    count("schur.calls", "schur.schur")
    count("schur.jacobi_trudi.calls", "schur.schur_jacobi_trudi")
    count("schur.bialternant.calls", "schur.schur_bialternant")
    count("schur.decimal.calls", "schur._bialternant_decimal")
    self_time("schur", mod.get("schur", 0.0))
    count("arith.det.calls", "arith.det")
    self_time("arith.det", tracer.self_s.get("arith.det", 0.0))
    count("divided_diff.naive.calls", "divided_diff.exponential_dd_naive")
    count("divided_diff.recursive.calls", "divided_diff.exponential_dd_recursive")
    self_time("divided_diff", mod.get("divided_diff", 0.0))
    count("blossom.pseudo_affinity.calls", "blossom.pseudo_affinity")
    self_time("blossom", mod.get("blossom", 0.0))
    slack = tracer.alpha_slack_min
    m["blossom.alpha_slack_min"] = (0.5 if slack is None else slack, "ratio")
    count("dimelev.insert_exponent.calls", "dimelev.insert_exponent")
    self_time("dimelev.insert_exponent", tracer.self_s.get("dimelev.insert_exponent", 0.0))
    self_time("dimelev.hausdorff", tracer.self_s.get("dimelev.hausdorff_distance", 0.0))
    self_time("dimelev.sampling", tracer.self_s.get("dimelev.sample_curve", 0.0)
              + tracer.self_s.get("dimelev.sample_polyline", 0.0))
    m["trace.ops"] = (calls.get(ROOT_SPAN, 0), "count")
    m["trace_overhead"] = (plain_ops_per_s / traced_ops_per_s, "ratio")
    return m


def _cache_info():
    basis = sys.modules["gelfond.gelfond_basis"]
    cached = getattr(basis, "_basis_poly_cached", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gelfond" / "__init__.py").is_file():
        print(f"error: no gelfond sources under {SRC}", file=sys.stderr)
        return 2
    # One thread in numpy's BLAS pool; set before gelfond imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload_cls = WORKLOADS[args.workload]
    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = Speedometer()
    sink = io.StringIO()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            cli, workload, secs = setup(workload_cls, args.seed, workdir, speed, sink)
            setups.append(secs)
        rounds = workload.rounds()
        acc = Accuracy()
        if args.trace == 0:
            records = timed_phase(cli, rounds, args.seconds, workdir, speed, sink)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, tail = end_to_end(records, speed, setups, rss_mb)
            failures = check_records(workload, records, acc)
            attempted = len(records)
        else:
            plain = timed_phase(cli, rounds, args.seconds / 2, workdir, speed, sink)
            plain_lat, _ = latency_stats(plain, speed)
            cache0 = _cache_info()
            tracer = Tracer().install()
            try:
                traced = timed_phase(cli, rounds, args.seconds / 2, workdir,
                                     speed, sink, tracer)
            finally:
                tracer.uninstall()
            cache1 = _cache_info()
            tracer.write_spans(SCRATCH / f"spans-{args.workload}.jsonl")
            traced_lat, _ = latency_stats(traced, speed)
            op_raw = sum(r.seconds for r in traced)
            metrics = layer_metrics(
                tracer, (cache1[0] - cache0[0], cache1[1] - cache0[1]),
                len(traced_lat) / sum(traced_lat), len(plain_lat) / sum(plain_lat),
                sum(traced_lat) / op_raw)
            records = plain + traced
            failures = check_records(workload, records, acc)
            attempted = len(records)
            tail = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["basis_rel_err"] = (acc.basis_rel_err, "ratio")
    metrics["curve_abs_err"] = (acc.curve_abs_err, "ratio")
    metrics["unity_residual"] = (acc.unity_residual, "1")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {len(failures)}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    if tail is not None:
        print(f"op_tail_ms is p{tail[0]:.1f} of {tail[2]} ops, {tail[1]} ops beyond it")
    print(f"accuracy over {acc.basis_values} basis values and {acc.curve_points} "
          f"curve points (0 where the workload emits none)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {_fmt(value)} {unit}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
