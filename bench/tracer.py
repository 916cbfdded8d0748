"""Spans around gathersim's public functions, installed from outside the package.

A `Tracer` replaces each traced function at every place it is looked up:
every module attribute of a loaded `gathersim.*` module that is the
original function object (so `experiments.run` and `engine.run` are both
covered), and, for methods, the attribute on each class that defines it.
`restore()` puts every original back.

Each span is closed into per-name aggregates at once rather than kept: a
`short_batch` batch opens about 90 000 spans.  A span knows its
parent (the enclosing open span), and on closing adds its duration to the
parent's child time, so the self time of a name is its duration minus its
direct children.  Durations of the names listed in `keep` are also kept
one by one, for percentiles.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (span name, module, function): every binding of the function is patched.
FUNCTION_SPANS = (
    ("cli.parse", "gathersim.cli", "parse_scenario"),
    ("cli.run_experiment", "gathersim.cli", "run_experiment"),
    ("cli.trace_json", "gathersim.cli", "trace_to_jsonable"),
    ("cli.emit", "gathersim.cli", "emit_report"),
    ("experiments.trial", "gathersim.experiments", "run_one_trial"),
    ("adversary.build", "gathersim.adversary", "adversary_from_descriptor"),
    ("policies.build", "gathersim.policies", "policy_from_descriptor"),
    ("policies.destination", "gathersim.policies", "destination"),
    ("engine.run", "gathersim.engine", "run"),
    ("analysis.segment", "gathersim.analysis", "segment_attempts"),
    ("analysis.distance", "gathersim.analysis", "max_distance_from"),
    ("analysis.midmove", "gathersim.analysis", "looks_see_midmove"),
    ("rational.parse", "gathersim.rational", "parse_rat"),
    ("rational.rng", "gathersim.rational", "spawn_rng"),
)

# (span name, module, method): patched on every class of the module that
# defines the method itself.
METHOD_SPANS = (
    ("adversary.wait", "gathersim.adversary", "wait_time"),
    ("adversary.delay", "gathersim.adversary", "computation_delay"),
    ("policies.sample", "gathersim.policies", "sample"),
)


class TraceSetupError(RuntimeError):
    """A traced function or method could not be found in the package."""


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost spans only, so recursion is not counted twice
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, hooks=None, keep=()):
        self.hooks = hooks or {}  # span name -> fn(result, counts)
        self.keep = set(keep)
        self._patches = []
        self.reset()

    def reset(self) -> None:
        """Start a new batch: clear every aggregate, count and kept duration."""
        self.stats = {}
        self.counts = {}
        self.durations = {name: [] for name in self.keep}
        self._stack = [[0.0]]  # the root frame's child time is never read

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    # ------------------------------------------------------------------
    # Installing and removing wrappers

    def install(self) -> None:
        """Patch every traced function and method; fail if one is missing."""
        try:
            for name, module, attr in FUNCTION_SPANS:
                self._patch_function(name, sys.modules[module], attr)
            for name, module, method in METHOD_SPANS:
                self._patch_method(name, sys.modules[module], method)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch_function(self, name, module, attr) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            raise TraceSetupError(f"{module.__name__}.{attr} not found")
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gathersim" and not mod_name.startswith("gathersim."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, name, module, method) -> None:
        found = False
        for _cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and method in vars(cls):
                original = vars(cls)[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                found = True
        if not found:
            raise TraceSetupError(f"no class in {module.__name__} defines {method}")

    # ------------------------------------------------------------------
    # Spans

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        kept = name in self.keep
        clock = perf_counter

        def wrapper(*args, **kwargs):
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stack = self._stack
            frame = [0.0]
            stack.append(frame)
            stats.calls += 1
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats.depth -= 1
                duration = end - start
                if stats.depth == 0:
                    stats.total += duration
                stats.self_time += duration - frame[0]
                stack[-1][0] += duration
                if kept:
                    self.durations[name].append(duration)
            if hook is not None:
                hook(result, self.counts)
                # Counted as child time of the enclosing span, so its self
                # time leaves the tracer's own inspection out.
                stack[-1][0] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper
