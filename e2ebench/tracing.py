"""Spans recorded from outside the program, around each layer's public calls.

:func:`install` replaces public functions and methods of ``repro`` with
timing wrappers and returns a callable that restores the originals.  Every
wrapped call records one span ``(id, parent, layer, start, end, request,
value)`` in the process-wide :class:`Recorder`; spans stay in memory until
the benchmark ends.  ``value`` is a layer-specific count: operand elements
for backend calls, 1/0 for a cache read that hit/missed, bytes for a cache
write.

Forked pool workers inherit the wrappers.  A worker cannot hand its spans
back through the runner, so each worker appends them to
``<flush_dir>/spans-<pid>.jsonl`` whenever one of its root spans ends; the
benchmark reads those files after the run (spans are collected per worker,
not re-run in process).

:func:`layer_metrics` folds spans into per-layer self times: a span's self
time is its duration minus the durations of its direct children, so the
self times of one thread's spans add up to the duration of its root spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: Layers whose spans nest inside a same-layer span (``dot3`` calls ``mul``,
#: a reference ``*_batch`` method calls the scalar method): only the
#: outermost span of such a chain counts as a call.
_COUNTED_OUTERMOST = ("core.backends", "core.context")


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self, flush_dir: Path | None = None):
        self.pid = os.getpid()
        self.flush_dir = flush_dir
        self.spans: list = []
        self.runner_stats: list = []  # (workers, wall, compute, tasks, retries)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._enabled = True
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.runner_stats = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id) -> None:
        """Tag the spans this thread records from now on with one id."""
        self._local.request = request_id

    @contextlib.contextmanager
    def paused(self):
        """Record nothing meanwhile (the benchmark's own reference reads)."""
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def call(self, layer: str, fn, args, kwargs, value=None):
        """Run ``fn`` inside a span; ``value(args, result)`` sizes it."""
        if not self._enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            amount = value(args, result) if value is not None else 0
            # A span belongs to the request set on its thread, else to the
            # operation its root span stands for.
            request = getattr(self._local, "request", None) or (
                stack[0] if stack else span_id)
            self.spans.append((span_id, parent, layer, start, end, request,
                               amount))
            if not stack and os.getpid() != self.pid:
                self._flush_worker()

    def _flush_worker(self) -> None:
        """Append this worker's spans to its file, then the flush's cost.

        The cost line lets the benchmark attribute the flush, which the
        runner counts as task time, to tracing instead of to no layer.
        """
        if self.flush_dir is None:
            return
        start = time.perf_counter()
        path = self.flush_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
            self.spans = []
            handle.write(json.dumps(time.perf_counter() - start) + "\n")

    def dump(self, path: Path) -> None:
        """Write this process's spans and runner stats as one JSON file."""
        path.write_text(json.dumps({"spans": self.spans,
                                    "runner_stats": self.runner_stats}))

    def worker_spans(self) -> dict:
        """``{pid: [span, ...]}`` flushed by forked workers so far.

        Each worker's flush costs appear as one ``trace.flush`` root span.
        """
        found: dict = {}
        if self.flush_dir is None:
            return found
        for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
            spans, flush_s = [], 0.0
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    doc = json.loads(line)
                    if isinstance(doc, list):
                        spans += [tuple(span) for span in doc]
                    else:
                        flush_s += doc
            spans.append((-1, 0, "trace.flush", 0.0, flush_s, None, 0))
            found[int(path.stem.split("-", 1)[1])] = spans
        return found


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
def _elements(args, _result) -> int:
    return int(np.size(args[1]))


def _batch_elements(args, _result) -> int:
    return int(np.size(args[1])) * len(_result or ())


def _hit(_args, result) -> int:
    return 0 if result is None else 1


_BACKEND_OPS = (
    "imprecise_add", "imprecise_subtract", "imprecise_multiply",
    "configurable_multiply", "truncated_multiply", "imprecise_fma",
    "imprecise_reciprocal", "imprecise_rsqrt", "imprecise_sqrt",
    "imprecise_log2", "imprecise_divide",
)
_BACKEND_BATCH_OPS = (
    "imprecise_add_batch", "imprecise_subtract_batch", "imprecise_fma_batch",
    "configurable_multiply_batch", "truncated_multiply_batch",
)
_CONTEXT_OPS = ("add", "sub", "mul", "fma", "div", "rcp", "rsqrt", "sqrt",
                "log2", "dot3")
_UNIT_FUNCTIONS = (
    "imprecise_add", "imprecise_multiply", "imprecise_divide",
    "imprecise_reciprocal", "imprecise_rsqrt", "imprecise_sqrt",
    "imprecise_log2", "imprecise_fma", "configurable_multiply",
    "truncated_multiply",
)
_METRIC_FUNCTIONS = ("mae", "mse", "rmse", "psnr", "ssim")


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs a callback right after a named module first executes.

    Lets :func:`install` wrap modules the program imports lazily (pool
    workers import ``repro.quality`` on their first task) without
    importing them early, which would change what a forked worker has to
    load and so what the traced run measures.
    """

    def __init__(self):
        self.pending: dict = {}

    def find_spec(self, name, path, target=None):
        callback = self.pending.pop(name, None)
        if callback is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            callback(module)

        spec.loader.exec_module = exec_module
        return spec


def install(recorder: Recorder):
    """Wrap every layer's public entry points; returns the undo callable."""
    undo: list = []

    def patch(owner, attr, layer, value=None):
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        if isinstance(original, property):
            fget = original.fget
            wrapped = property(functools.wraps(fget)(
                lambda *a: recorder.call(layer, fget, a, {}, value)))
        else:
            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                return recorder.call(layer, original, args, kwargs, value)
        setattr(owner, attr, wrapped)
        if had_own:
            undo.append(lambda: setattr(owner, attr, original))
        else:
            undo.append(lambda: delattr(owner, attr))

    def compute(module):
        from repro.core.backends import default_backend_name, get_backend

        backend_cls = type(get_backend(default_backend_name()))
        for op in _BACKEND_OPS:
            patch(backend_cls, op, "core.backends", _elements)
        for op in _BACKEND_BATCH_OPS:
            patch(backend_cls, op, "core.backends", _batch_elements)
        for op in _CONTEXT_OPS:
            patch(module.ArithmeticContext, op, "core.context")

    def framework(module):
        patch(module.PowerQualityFramework, "evaluate", "framework.evaluate")
        patch(module.PowerQualityFramework, "reference",
              "framework.reference")
        patch(module, "estimate_system_savings", "gpu")

    def cache(module):
        patch(module.ResultCache, "get", "runtime.cache.get", _hit)
        patch(module.ResultCache, "document", "runtime.cache.get", _hit)
        patch(module.ResultCache, "put", "runtime.cache.put", _entry_bytes)

    def quality(module):
        for name in _METRIC_FUNCTIONS:
            patch(module, name, "quality")

    def characterize(module):
        patch(module, "characterize_units", "erroranalysis")
        patch(module, "characterize_multiplier_configs", "erroranalysis")
        for name in _UNIT_FUNCTIONS:
            patch(module, name, "core.units")

    # Callers resolve these names through the modules below at call time
    # (the packages re-export same-named functions, hence dotted names).
    targets = {
        "repro.core.context": compute,
        "repro.runtime.spec": lambda m: patch(m.ExperimentSpec, "run_app",
                                              "apps"),
        "repro.framework.tradeoff": framework,
        "repro.gpu.power": lambda m: patch(m.GPUPowerModel, "breakdown",
                                           "gpu"),
        "repro.quality": quality,
        "repro.runtime.cache": cache,
        "repro.runtime.runner": lambda m: _patch_runner(
            recorder, m.ExperimentRunner, undo),
        "repro.erroranalysis.characterize": characterize,
        "repro.service.client": lambda m: patch(m.ServiceClient, "sweep",
                                                "service.call"),
    }
    hook = _AfterImport()
    for name, callback in targets.items():
        if name in sys.modules:
            callback(sys.modules[name])
        else:
            hook.pending[name] = callback
    sys.meta_path.insert(0, hook)

    def restore():
        sys.meta_path.remove(hook)
        while undo:
            undo.pop()()
    return restore


def _entry_bytes(args, stored) -> int:
    """Bytes one successful ``ResultCache.put`` left in a directory store."""
    cache, spec, config = args[0], args[1], args[2]
    if not stored or cache.local_root is None:
        return 0
    return sum(os.path.getsize(path)
               for path in cache.entry_paths(spec, config)
               if os.path.exists(path))


def _patch_runner(recorder, runner_cls, undo) -> None:
    """Span each sweep and keep its public :class:`RunnerStats` figures."""
    original = runner_cls.sweep

    @functools.wraps(original)
    def sweep(self, *args, **kwargs):
        try:
            return recorder.call("runtime.runner", original,
                                 (self,) + args, kwargs)
        finally:
            stats = self.stats
            if stats is not None and stats.cache_misses:
                recorder.runner_stats.append((
                    stats.max_workers, stats.wall_seconds,
                    stats.compute_seconds, stats.cache_misses,
                    stats.retries,
                ))

    runner_cls.sweep = sweep
    undo.append(lambda: setattr(runner_cls, "sweep", original))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans) -> dict:
    """``{span id: self seconds}`` for one process's spans."""
    child_time: dict = {}
    for span_id, parent, _layer, start, end, _req, _value in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {span[0]: (span[4] - span[3]) - child_time.get(span[0], 0.0)
            for span in spans}


def layer_metrics(processes: list) -> dict:
    """Per-layer totals over every process's spans.

    Returns ``{layer: {"self_s", "busy_s", "calls", "value"}}`` where
    ``busy_s``, ``calls`` and ``value`` count only the outermost span of a
    same-layer chain (a layer's wall-clock occupancy), and ``self_s``
    excludes every child span.
    """
    out: dict = {}
    for spans in processes:
        layer_of = {span[0]: span[2] for span in spans}
        selfs = self_times(spans)
        for span_id, parent, layer, start, end, _req, value in spans:
            entry = out.setdefault(layer, {"self_s": 0.0, "busy_s": 0.0,
                                           "calls": 0, "value": 0})
            entry["self_s"] += selfs[span_id]
            if layer in _COUNTED_OUTERMOST and layer_of.get(parent) == layer:
                continue
            entry["busy_s"] += end - start
            entry["calls"] += 1
            entry["value"] += value
    return out
