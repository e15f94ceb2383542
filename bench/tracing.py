"""Layer spans for the efglab benchmark, recorded from outside the program.

The Tracer wraps public functions of efglab's modules for the duration of
a `with` block. Each module imports names from the others (`from .evaluate
import exploitability`), so a wrapper replaces the original object under
every name that refers to it in every efglab module, and the block puts the
originals back on exit.

Spans are aggregated as they close: per span name the call count, the
durations (for percentiles), the self time (duration minus the time of
child spans) and, per parent span, the calls and time it caused.
"""

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

MODULES = ("game", "games", "values", "regularizers", "solvers", "evaluate",
           "harness", "cli")

# (module, function, span name). build_kuhn and build_leduc share a span.
SPANS = (
    ("games", "build_kuhn", "games.build"),
    ("games", "build_leduc", "games.build"),
    ("harness", "run_single", "harness.run_single"),
    ("solvers", "qfr_stochastic_step", "solvers.qfr_stochastic_step"),
    ("solvers", "lazy_qfr_step", "solvers.lazy_qfr_step"),
    ("solvers", "lazy_catch_up", "solvers.lazy_catch_up"),
    ("solvers", "qfr_full_step", "solvers.qfr_full_step"),
    ("solvers", "cfr_plus_step", "solvers.cfr_plus_step"),
    ("values", "feedback_flat", "values.feedback_flat"),
    ("values", "sample_trajectory", "values.sample_trajectory"),
    ("values", "estimate_trajectory_q", "values.estimate_trajectory_q"),
    ("values", "compute_feedback", "values.compute_feedback"),
    ("regularizers", "prox_step", "regularizers.prox_step"),
    ("regularizers", "prox_batch", "regularizers.prox_batch"),
    ("regularizers", "argmax_regularized", "regularizers.argmax_regularized"),
    ("evaluate", "exploitability", "evaluate.exploitability"),
    ("evaluate", "perturbed_regularized_gap",
     "evaluate.perturbed_regularized_gap"),
    ("evaluate", "bregman_to_reference", "evaluate.bregman_to_reference"),
    ("evaluate", "compute_reference", "evaluate.compute_reference"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))

STEP_SPANS = ("solvers.qfr_stochastic_step", "solvers.lazy_qfr_step",
              "solvers.qfr_full_step", "solvers.cfr_plus_step")

# Counts recorded at span boundaries.
COUNTS = (
    "solvers.iters",            # step calls made by harness.run_single
    "evaluate.points",          # evaluation points of harness.run_single
    "regularizers.prox_batch.rows",
    "regularizers.prox_step.zero_feedback_calls",   # lazy replays
    "harness.m_violations",
)

P90_MIN_CALLS = 100


def _efglab_modules():
    return [importlib.import_module(f"efglab.{m}") for m in MODULES]


class patch:
    """Context manager: replace each original function by its stand-in
    under every efglab name bound to it, given (original, stand-in)
    pairs."""

    def __init__(self, pairs):
        self.by_id = {id(orig): (orig, new) for orig, new in pairs}
        self.undo = []

    def __enter__(self):
        for mod in _efglab_modules():
            for key, val in list(vars(mod).items()):
                pair = self.by_id.get(id(val))
                if pair is not None and pair[0] is val:
                    self.undo.append((mod, key, val))
                    setattr(mod, key, pair[1])
        return self

    def __exit__(self, *exc):
        for mod, key, val in reversed(self.undo):
            setattr(mod, key, val)
        self.undo.clear()
        return False


class Tracer:
    """Span recorder. Use `with tracer.installed():` around traced work."""

    def __init__(self):
        self.stack = []
        self.durations = {n: array("d") for n in SPAN_NAMES}
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.caused = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def _wrap(self, name, fn):
        stack = self.stack
        durations = self.durations[name]
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if before is not None:
                before(self, parent, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, result)
                return result
            finally:
                dur = perf_counter() - t0
                stack.pop()
                durations.append(dur)
                self.self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                key = (parent[0] if parent is not None else None, name)
                c = self.caused.setdefault(key, [0, 0.0])
                c[0] += 1
                c[1] += dur

        return traced

    def installed(self):
        pairs = []
        for mod_name, attr, name in SPANS:
            orig = getattr(importlib.import_module(f"efglab.{mod_name}"),
                           attr)
            pairs.append((orig, self._wrap(name, orig)))
        return patch(pairs)

    def metrics(self):
        """Per-span calls, self time and percentiles, then the counts."""
        out = {}
        for name in SPAN_NAMES:
            d = np.frombuffer(self.durations[name], dtype=np.float64)
            calls = int(d.shape[0])
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            p50 = float(np.median(d)) * 1e6 if calls else 0.0
            out[f"{name}.p50_us"] = (p50, "us")
            # A p90 needs at least ten samples beyond it; below that the
            # metric reads 0.
            p90 = (float(np.percentile(d, 90)) * 1e6
                   if calls >= P90_MIN_CALLS else 0.0)
            out[f"{name}.p90_us"] = (p90, "us")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out

    def causes(self):
        """Calls and seconds per (parent span, span) pair."""
        return [{"parent": p, "span": s, "calls": c, "seconds": t}
                for (p, s), (c, t) in sorted(self.caused.items(),
                                             key=lambda kv: -kv[1][1])]


def _count_iter(tracer, parent, args, kwargs):
    if parent is not None and parent[0] == "harness.run_single":
        tracer.counts["solvers.iters"] += 1


def _count_rows(tracer, parent, args, kwargs):
    x0 = kwargs["X0"] if "X0" in kwargs else args[1]
    tracer.counts["regularizers.prox_batch.rows"] += int(np.shape(x0)[0])


def _count_zero_feedback(tracer, parent, args, kwargs):
    g = kwargs["g"] if "g" in kwargs else args[1]
    if not np.any(g):
        tracer.counts["regularizers.prox_step.zero_feedback_calls"] += 1


def _count_run(tracer, outcome):
    tracer.counts["evaluate.points"] += len(outcome.rows)
    tracer.counts["harness.m_violations"] += outcome.m_violations


_BEFORE = {name: _count_iter for name in STEP_SPANS}
_BEFORE["regularizers.prox_batch"] = _count_rows
_BEFORE["regularizers.prox_step"] = _count_zero_feedback
_AFTER = {"harness.run_single": _count_run}
