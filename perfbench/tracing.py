"""Trace wrappers installed from outside linkchi, around the calls into each layer.

Two recorders share one installer:

* ``SpanRecorder`` records one span per call (layer name, start, end, parent
  span) in flat arrays kept in memory, and turns them into per-layer call
  counts and self times once the jobs have finished.  Self time is a span's
  duration minus the time its direct child spans cover.
* ``CountRecorder`` records exact work counts and no times: calls per layer,
  operand and result term counts of series products, the largest series any
  wrapped call returned, hairy graph classes, and (with
  ``install_rational_counts``) every ``Fraction`` multiply and add.  Those
  wrappers cost more than the spans, which is why counts come from a pass of
  their own.

A name imported by value (``from .special import plethystic_log``) keeps the
unwrapped function, so ``install`` replaces the function at every module
attribute of linkchi that holds it, then checks that none is left.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, layer): module-level functions, patched at every
# linkchi module attribute bound to them.
FUNCTIONS = (
    ("linkchi.special", "plethystic_exp", "special.plethystic_exp"),
    ("linkchi.special", "plethystic_log", "special.plethystic_log"),
    ("linkchi.special", "log_gamma_series", "special.log_gamma_series"),
    ("linkchi.genfun", "f_homotopy_direct", "genfun.f_homotopy_direct"),
    ("linkchi.genfun", "f_homology", "genfun.f_homology"),
    ("linkchi.genfun", "euler_table", "genfun.euler_table"),
    ("linkchi.cycleindex", "z_graph_supercharacter", "cycleindex.z_graph_supercharacter"),
    ("linkchi.cycleindex", "mod_envelope_supercharacter", "cycleindex.mod_envelope_supercharacter"),
    ("linkchi.cycleindex", "mod_envelope_supercharacter_direct",
     "cycleindex.mod_envelope_supercharacter_direct"),
    ("linkchi.cycleindex", "specialize_colors", "cycleindex.specialize_colors"),
    ("linkchi.graphs", "euler_char_oracle", "graphs.euler_char_oracle"),
    ("linkchi.graphs", "enumerate_classes", "graphs.enumerate_classes"),
    ("linkchi.graphs", "canonical_form", "graphs.canonical_form"),
    ("linkchi.cli", "main", "cli.main"),
)

# (module, class, attribute, layer): methods, patched on the class.
# __rmul__ is a class attribute of its own, distinct from __mul__.
METHODS = (
    ("linkchi.series", "TruncatedSeries", "__mul__", "series.mul"),
    ("linkchi.series", "TruncatedSeries", "__rmul__", "series.mul"),
    ("linkchi.series", "TruncatedSeries", "__add__", "series.add"),
    ("linkchi.series", "TruncatedSeries", "exp", "series.exp"),
    ("linkchi.series", "TruncatedSeries", "log", "series.log"),
    ("linkchi.series", "TruncatedSeries", "inverse", "series.inverse"),
    ("linkchi.series", "TruncatedSeries", "substitute", "series.substitute"),
    ("linkchi.special", "UniPolynomial", "at_series", "special.at_series"),
)

LAYERS = tuple(dict.fromkeys([f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]))

_RATIONAL_OPS = {
    "__mul__": "rationals.mul.count",
    "__rmul__": "rationals.mul.count",
    "__add__": "rationals.add.count",
    "__radd__": "rationals.add.count",
    "__sub__": "rationals.add.count",
    "__rsub__": "rationals.add.count",
}


def _linkchi_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "linkchi" or n.startswith("linkchi.")]


def install(wrap) -> None:
    """Wrap every layer entry point with ``wrap(fn, layer)``.

    Raises if any linkchi module still holds an unwrapped function afterwards.
    """
    import importlib

    from linkchi.series import TruncatedSeries

    originals = {}
    for module_name, attr, layer in FUNCTIONS:
        orig = getattr(importlib.import_module(module_name), attr)
        wrapped = wrap(orig, layer)
        originals[id(orig)] = layer
        for mod in _linkchi_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
    for module_name, cls_name, attr, layer in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        orig = cls.__dict__[attr]
        wrapped = wrap(orig, layer)
        if layer == "series.mul":
            wrapped = _series_operand_only(orig, wrapped, TruncatedSeries)
        setattr(cls, attr, wrapped)
    for mod in _linkchi_modules():
        for name, value in vars(mod).items():
            if id(value) in originals:
                raise RuntimeError(f"{mod.__name__}.{name} still unwrapped")


def _series_operand_only(orig, wrapped, series_type):
    """Record series x series products only; series x scalar goes straight through."""

    @functools.wraps(orig)
    def mul(self, other):
        if isinstance(other, series_type):
            return wrapped(self, other)
        return orig(self, other)

    return mul


class SpanRecorder:
    """One span per wrapped call, in flat arrays: layer id, parent, start, end."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.layers: list[str] = []
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []

    def wrap(self, fn, layer):
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        ids, parents, starts, ends, stack = self.layer, self.parent, self.start, self.end, self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def reset(self):
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]

    def aggregate(self):
        """({layer: calls}, {layer: self seconds}, seconds covered by root spans)."""
        n = len(self.start)
        child_ns = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += dur[i]
        calls = Counter()
        self_ns = Counter()
        root_ns = 0
        for i in range(n):
            name = self.layers[self.layer[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child_ns[i]
            if self.parent[i] < 0:
                root_ns += dur[i]
        return dict(calls), {k: v / 1e9 for k, v in self_ns.items()}, root_ns / 1e9

    def dump(self, path):
        """Write every span as columns: layer names, layer id, parent, start/end in ns."""
        with open(path, "w") as f:
            json.dump({
                "layers": self.layers,
                "layer": self.layer.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
            }, f)


class CountRecorder:
    """Exact work counts; no clocks."""

    def __init__(self):
        self.counts = Counter()

    def wrap(self, fn, layer):
        counts = self.counts
        calls_key = f"{layer}.calls"
        from linkchi.series import TruncatedSeries

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[calls_key] += 1
            result = fn(*args, **kwargs)
            if isinstance(result, TruncatedSeries) and len(result.coeffs) > counts["series.peak_terms"]:
                counts["series.peak_terms"] = len(result.coeffs)
            if layer == "series.mul":
                counts["series.mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
                counts["series.mul.terms_out"] += len(result.coeffs)
            elif layer == "graphs.enumerate_classes":
                counts["graphs.classes"] += len(result)
                counts["graphs.classes_killed"] += sum(c.killed for c in result)
            return result

        return counted

    def reset(self):
        self.counts.clear()


def install_rational_counts(recorder: CountRecorder) -> bool:
    """Count Fraction multiplies and adds; False when QQ is not Fraction."""
    from fractions import Fraction

    from linkchi.rationals import QQ

    if QQ is not Fraction:
        return False
    counts = recorder.counts
    for attr, key in _RATIONAL_OPS.items():
        orig = Fraction.__dict__[attr]

        def counted(a, b, _orig=orig, _key=key):
            counts[_key] += 1
            return _orig(a, b)

        setattr(Fraction, attr, counted)
    return True


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, as BENCHMARK.json lists them."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    return out + [
        ("series.mul.pairs", "count", "lower"),
        ("series.mul.terms_out", "count", "lower"),
        ("series.mul.yield", "1", "higher"),
        ("series.peak_terms", "count", "lower"),
        ("rationals.mul.count", "count", "lower"),
        ("rationals.add.count", "count", "lower"),
        ("graphs.classes", "count", "lower"),
        ("graphs.classes_killed", "count", "lower"),
        ("graphs.canonical_form.yield", "1", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.uncovered_s", "s", "lower"),
    ]
