"""Timing of the calls a workload makes into repkit, and the traced run.

``Timer`` times each call with ``perf_counter`` and nothing else.
``Tracer`` also records a span per call and per operation and runs the
standard-library profiler during the calls, so that time spent in layers
the benchmark never calls directly can be attributed.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "reductions", "mps", "trees", "translate", "trigger", "bench", "cli")

#: ``<layer>.<function>_s``: the spans' total where the benchmark calls the
#: function itself, else the profiler's inclusive time for it.
FUNCTION_TIMES = (
    ("reductions", "refutation_level"), ("bench", "verify"), ("cli", "main"),
    ("reductions", "hardness"), ("reductions", "w_hardness"), ("reductions", "p_hardness"),
    ("core", "is_satisfiable"), ("reductions", "prime_implicates"),
    ("reductions", "w_refutation_level"), ("mps", "mps_subsets"),
    ("trigger", "transversal_number"), ("trigger", "matching_number"),
    ("trigger", "depth_k_incomparable_family"),
    ("bench", "generate"), ("bench", "instance_dimacs"), ("core", "parse_dimacs"),
)
#: ``<layer>.<function>.calls``: every call the profiler saw, recursive ones included.
CALL_COUNTS = (
    ("core", "apply_assignment"), ("reductions", "reduce_r"),
    ("reductions", "propagate_units"), ("core", "solve"),
)
#: Work counts the benchmark tallies from the calls' results.
WORK_COUNTS = ("reductions.prime_implicates.clauses", "core.dimacs.bytes")


class Timer:
    """Untraced calls: only the time spent inside repkit is summed."""

    def __init__(self):
        self.elapsed = 0.0
        self.counts = defaultdict(int)

    def begin_op(self, op_id, label):
        self.elapsed = 0.0

    def end_op(self):
        return self.elapsed

    def call(self, name, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.elapsed += perf_counter() - t0

    def count(self, name, n):
        self.counts[name] += n


class Tracer(Timer):
    """Spans (id, parent, operation id, name, start, end) kept in memory,
    plus one profiler that is enabled only inside the calls."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.profiler = cProfile.Profile()
        self._op = None

    def _span(self, parent, op_id, name, start, end):
        self.spans.append({"id": len(self.spans), "parent": parent, "op": op_id,
                           "name": name, "start": start, "end": end})
        return len(self.spans) - 1

    def begin_op(self, op_id, label):
        super().begin_op(op_id, label)
        self._op = (self._span(None, op_id, label, perf_counter(), None), op_id)

    def end_op(self):
        self.spans[self._op[0]]["end"] = perf_counter()
        return self.elapsed

    def call(self, name, fn, *args):
        t0 = perf_counter()
        self.profiler.enable()
        try:
            return fn(*args)
        finally:
            self.profiler.disable()
            t1 = perf_counter()
            self.elapsed += t1 - t0
            self._span(self._op[0], self._op[1], name, t0, t1)

    def layer_metrics(self, src_dir):
        """Per-layer metrics of everything traced so far."""
        prof = Profile(self.profiler, src_dir)
        span_total = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                span_total[s["name"]] += s["end"] - s["start"]
        out = {}
        for layer, fn in FUNCTION_TIMES:
            name = f"{layer}.{fn}"
            value = span_total[name] if name in span_total else prof.inclusive(layer, fn)
            out[f"{name}_s"] = (value, "s")
        for layer, fn in CALL_COUNTS:
            out[f"{layer}.{fn}.calls"] = (prof.calls(layer, fn), "count")
        for layer, value in prof.self_times().items():
            out[f"{layer}.self_s"] = (value, "s")
        for name in WORK_COUNTS:
            out[name] = (self.counts[name], "bytes" if name.endswith(".bytes") else "count")
        return out


class Profile:
    """The profiler's table, keyed by repkit layer."""

    def __init__(self, profiler, src_dir):
        self.stats = pstats.Stats(profiler).stats
        pkg = os.path.join(os.path.realpath(src_dir), "repkit") + os.sep
        self._layer = {}
        for key in self.stats:
            path = os.path.realpath(key[0]) if key[0] != "~" else ""
            stem = os.path.splitext(os.path.basename(path))[0]
            self._layer[key] = stem if path.startswith(pkg) and stem in LAYERS else None

    def _entries(self, layer, fn):
        return [v for k, v in self.stats.items() if self._layer[k] == layer and k[2] == fn]

    def inclusive(self, layer, fn):
        return sum(v[3] for v in self._entries(layer, fn))

    def calls(self, layer, fn):
        return sum(v[1] for v in self._entries(layer, fn))

    def self_times(self):
        """Own time of each layer's functions, plus the time of library code
        (builtins, json, argparse, ...) they call, shared out among callers
        in proportion to the time each caller's calls took."""
        shares = {}

        def share(key, visiting):
            if key not in self.stats:
                return {}
            if self._layer[key]:
                return {self._layer[key]: 1.0}
            if key in shares:
                return shares[key]
            visiting = visiting | {key}
            callers = {c: v for c, v in self.stats[key][4].items() if c not in visiting}
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if not total:  # too quick to time: share by call count
                weights = {c: v[0] for c, v in callers.items()}
                total = sum(weights.values())
            out = defaultdict(float)
            for c, w in weights.items():
                for layer, frac in share(c, visiting).items():
                    out[layer] += frac * w / total
            shares[key] = dict(out)
            return shares[key]

        out = dict.fromkeys(LAYERS, 0.0)
        for key, v in self.stats.items():
            for layer, frac in share(key, frozenset()).items():
                out[layer] += v[2] * frac
        return out
