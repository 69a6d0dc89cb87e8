"""Span tracer that wraps the functions of every `gelfond` module from outside.

`Tracer.install()` finds each submodule with `importlib.import_module`
(the package re-exports functions under some submodules' names, so
attribute access on the package would give a function, not a module),
wraps the functions each module defines, and rebinds every namespace that
holds one of them: `from .schur import schur` copies a binding into other
modules, and all of those copies are patched.  `uninstall()` restores the
originals.

Each call is a span with a parent link; a span's self time is its
duration minus the time its child spans cover, so self times of all spans
of one op add up to at most the op's own span.  Spans are aggregated as
they close; only spans in the top `KEEP_DEPTH` levels are kept as
records, at most `MAX_SPANS` of them.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import types
from collections import Counter
from time import perf_counter

PACKAGE = "gelfond"
MODULES = ("arith", "partitions", "polynomials", "schur", "divided_diff",
           "gelfond_basis", "blossom", "curves", "dimelev", "cli")

# Private names that carry a route decision or a cache and are wrapped too.
PRIVATE = {
    "gelfond_basis": ("_basis_poly_cached",),
    "schur": ("_bialternant_decimal",),
}

# Helpers whose time belongs to their caller's layer.  Of `arith` only the
# determinant is a layer of its own; its scalar helpers (type tests,
# powers, exact division, lerp) and the partition coercions and value
# classes run for every basis value, where a wrapper would cost more than
# they do and would move, for example, the Fraction work of exponent
# insertion out of `insert_exponent`.
ONLY = {"arith": ("det",)}
UNWRAPPED = {"partitions": ("as_exponents", "partition_parts", "ExponentSequence",
                            "RealPartition", "IntegerPartition")}

# Methods besides public ones that do a layer's work (Poly arithmetic and
# Horner evaluation, curve evaluation through __call__).
METHODS = {"__call__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__pow__", "__neg__"}

ROOT = "bench.op"
KEEP_DEPTH = 4          # span records kept: op, cli.main, cmd_*, first call
MAX_SPANS = 200_000


def _defined_in(obj, module_name):
    return getattr(obj, "__module__", None) == module_name


class Tracer:
    """Aggregated spans over the functions of one package."""

    def __init__(self):
        self.calls = Counter()
        self.yielded = Counter()
        self.self_s = Counter()
        self.spans = []
        self.alpha_slack_min = None
        self._stack = []
        self._ids = itertools.count(1)
        self._op = None
        self._op_seconds = 0.0
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _enter(self, key):
        stack = self._stack
        parent = stack[-1][3] if stack else 0
        stack.append([key, perf_counter(), 0.0, next(self._ids), parent])

    def _exit(self):
        end = perf_counter()
        stack = self._stack
        key, start, child, sid, parent = stack.pop()
        dur = end - start
        self.self_s[key] += dur - child
        if stack:
            stack[-1][2] += dur
        if len(stack) < KEEP_DEPTH and len(self.spans) < MAX_SPANS:
            self.spans.append((self._op, sid, parent, key, start, end))
        return dur

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one benchmark op."""
        self._op = op_id
        self._enter(ROOT)
        try:
            yield
        finally:
            self._op_seconds += self._exit()
            self.calls[ROOT] += 1
            self._op = None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, key):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer._enter(key)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.yielded[key] += 1
                    yield item
            return gen_wrapper

        observe = self._observer(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer.calls[key] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _observer(self, key):
        if key != "blossom.pseudo_affinity":
            return None

        def alpha_slack(args, kwargs, alpha):
            t = kwargs["t"] if "t" in kwargs else args[3]
            if 0 < t < 1:
                slack = float(min(alpha, 1 - alpha))
                if self.alpha_slack_min is None or slack < self.alpha_slack_min:
                    self.alpha_slack_min = slack
        return alpha_slack

    def _targets(self, short, module):
        """(key, owner, name, function) for everything wrapped in module."""
        skip = UNWRAPPED.get(short, ())
        only = ONLY.get(short)
        private = PRIVATE.get(short, ())
        for name, obj in list(vars(module).items()):
            if name in skip or (only is not None and name not in only):
                continue
            if inspect.isclass(obj) and _defined_in(obj, module.__name__):
                for attr, fn in list(vars(obj).items()):
                    if isinstance(fn, types.FunctionType) and (
                            not attr.startswith("_") or attr in METHODS):
                        yield f"{short}.{obj.__name__}.{attr}", obj, attr, fn
            elif callable(obj) and _defined_in(obj, module.__name__):
                if name.startswith("_") and name not in private:
                    continue
                yield f"{short}.{name}", module, name, obj

    def install(self):
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
        wrappers = {}
        for short, module in modules.items():
            for key, owner, name, fn in self._targets(short, module):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(fn, key))
                if inspect.isclass(owner):
                    self._patch(owner, name, wrappers[id(fn)][1])
        namespaces = [sys.modules[PACKAGE]] + list(modules.values())
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, name, hit[1])
        return self

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)

    # -- reading ---------------------------------------------------------

    def module_self_s(self):
        """Self seconds per module (first component of the span key)."""
        out = Counter()
        for key, secs in self.self_s.items():
            out[key.split(".", 1)[0]] += secs
        return out

    def op_seconds(self):
        """Total duration of the root op spans."""
        return self._op_seconds

    def write_spans(self, path):
        """Kept span records as JSON lines: op, id, parent id, name, times."""
        fields = ("op", "id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
