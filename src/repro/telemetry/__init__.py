"""Observability for the imprecise-compute stack: metrics, traces, drift.

The paper's contribution is a *measured* tradeoff — access counts feed the
power model while quality metrics track error — and this subsystem makes
the reproduction measure itself the same way:

- :class:`MetricsRegistry` (``metrics.py``) — counters, gauges, and
  histograms with JSON-lines and Prometheus-text exporters;
- :class:`Tracer` (``tracer.py``) — nested timing spans around sweeps,
  experiments, kernels, cache operations, and unit characterization, with
  per-worker buffers merged by the runner;
- :class:`DriftProbe` (``drift.py``) — the one per-op observer: sampled
  relative-error statistics (count, mean/max \\|ERR%\\|, ``ceil(log2
  |ERR%|)`` histogram matching the Figure 8–9 binning) plus per-op backend
  wall time, calls and elements, collected from live kernels without
  perturbing the access counts the power model consumes.

Everything is **off by default** and controlled by one knob::

    REPRO_TELEMETRY=off       # default: zero-instrumentation fast path
    REPRO_TELEMETRY=metrics   # metric counters + drift probes
    REPRO_TELEMETRY=trace     # metrics plus nested spans

With ``off``, instrumentation sites reduce to one mode check — the
sequential path stays bit-identical and the sweep wall time unchanged
(asserted by ``tests/test_telemetry.py`` and the overhead gate in
``benchmarks/test_runtime_sweep.py``).  Snapshots persist under
``REPRO_TELEMETRY_DIR`` (default ``.repro_telemetry/``):
``metrics.json`` merges across runs, ``trace.jsonl`` appends spans.  The
``repro metrics`` and ``repro trace`` CLI subcommands render them.

Library use: :func:`override` forces a mode in-process (tests, benchmarks,
the report generator) without touching the environment of worker
processes, which read ``REPRO_TELEMETRY`` themselves.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .drift import DriftProbe, OpDrift
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .tracer import NULL_TRACER, NullTracer, Tracer, render_span_tree

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DriftProbe",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "OpDrift",
    "Tracer",
    "MODES",
    "METRICS_FILENAME",
    "TRACE_FILENAME",
    "telemetry_mode",
    "metrics_enabled",
    "trace_enabled",
    "override",
    "get_registry",
    "get_tracer",
    "span",
    "counter_inc",
    "gauge_set",
    "histogram_observe",
    "make_drift_probe",
    "record_kernel",
    "record_runner_stats",
    "drain_worker",
    "absorb_worker",
    "telemetry_dir",
    "flush",
    "reset",
    "render_span_tree",
]

MODES = ("off", "metrics", "trace")
METRICS_FILENAME = "metrics.json"
TRACE_FILENAME = "trace.jsonl"
DEFAULT_TELEMETRY_DIR = ".repro_telemetry"

_OVERRIDE: str | None = None
_REGISTRY = MetricsRegistry()
_TRACER = Tracer()


# ----------------------------------------------------------------------
# Mode
# ----------------------------------------------------------------------
def telemetry_mode() -> str:
    """The active mode: an :func:`override` if set, else ``REPRO_TELEMETRY``."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    mode = os.environ.get("REPRO_TELEMETRY", "off").strip().lower()
    return mode if mode in MODES else "off"


def metrics_enabled() -> bool:
    return telemetry_mode() != "off"


def trace_enabled() -> bool:
    return telemetry_mode() == "trace"


@contextmanager
def override(mode: str):
    """Force a telemetry mode for this process (ignores the environment).

    Does not propagate to worker processes — they read ``REPRO_TELEMETRY``
    — so pair it with ``max_workers=1`` runners or set the environment
    variable when fanning out.
    """
    global _OVERRIDE
    if mode not in MODES:
        raise ValueError(f"unknown telemetry mode {mode!r}; expected one of {MODES}")
    previous, _OVERRIDE = _OVERRIDE, mode
    try:
        yield
    finally:
        _OVERRIDE = previous


# ----------------------------------------------------------------------
# Global instances
# ----------------------------------------------------------------------
def get_registry() -> MetricsRegistry:
    """The process-wide registry (always real; guarded by the helpers)."""
    return _REGISTRY


def get_tracer():
    """The process tracer, or the shared no-op tracer when not tracing."""
    return _TRACER if trace_enabled() else NULL_TRACER


def reset() -> None:
    """Clear all buffered telemetry and the open-span stack.

    Used for test isolation and — critically — as the worker-process
    initializer: forked workers inherit the parent's buffered spans and
    counters, which would travel back with :func:`drain_worker` and be
    double-counted unless cleared at worker startup.
    """
    _REGISTRY.clear()
    _TRACER.drain()
    _TRACER.clear_stack()


# ----------------------------------------------------------------------
# Instrumentation helpers (each a no-op when the mode disables it)
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """``with telemetry.span("sweep", app=...):`` — no-op unless tracing."""
    return get_tracer().span(name, **attrs)


def counter_inc(name: str, amount: float = 1.0, **labels) -> None:
    if metrics_enabled():
        _REGISTRY.counter(name, **labels).inc(amount)


def gauge_set(name: str, value: float, agg: str = "last", **labels) -> None:
    if metrics_enabled():
        _REGISTRY.gauge(name, agg=agg, **labels).set(value)


def histogram_observe(name: str, value: float, buckets=DEFAULT_BUCKETS,
                      **labels) -> None:
    if metrics_enabled():
        _REGISTRY.histogram(name, buckets=buckets, **labels).observe(value)


def make_drift_probe() -> DriftProbe | None:
    """A probe for one kernel run, or None when metrics are off."""
    return DriftProbe() if metrics_enabled() else None


def record_kernel(name: str, context) -> None:
    """Fold one finished kernel execution into the registry.

    Reads the context's counters and drift probe (whose flush also
    writes the per-op backend timings); never mutates ``context.counts``
    (the power model's inputs stay untouched).
    """
    if not metrics_enabled():
        return
    _REGISTRY.counter("repro_kernel_runs_total", kernel=name).inc()
    for (op, path), count in context.counts.items():
        _REGISTRY.counter(
            "repro_kernel_ops_total", kernel=name, op=op, path=path
        ).inc(count)
    probe = getattr(context, "drift_probe", None)
    if probe:
        backend = getattr(getattr(context, "backend", None), "name", "unknown")
        probe.flush_into(_REGISTRY, kernel=name, backend=backend)


def record_runner_stats(stats, app: str | None = None) -> None:
    """Fold one :class:`~repro.runtime.RunnerStats` into the registry."""
    if not metrics_enabled():
        return
    labels = {"app": app} if app else {}
    doc = stats.to_dict()
    _REGISTRY.counter("repro_runner_sweeps_total", **labels).inc()
    _REGISTRY.counter("repro_runner_tasks_total", source="cache", **labels).inc(
        doc["cache_hits"]
    )
    _REGISTRY.counter("repro_runner_tasks_total", source="computed", **labels).inc(
        doc["cache_misses"]
    )
    _REGISTRY.counter("repro_runner_wall_seconds_total", **labels).inc(
        doc["wall_seconds"]
    )
    _REGISTRY.counter("repro_runner_compute_seconds_total", **labels).inc(
        doc["compute_seconds"]
    )
    _REGISTRY.gauge("repro_runner_last_speedup_vs_sequential", **labels).set(
        doc["speedup_vs_sequential"]
    )
    for task in doc["tasks"]:
        if not task["cached"]:
            _REGISTRY.histogram("repro_task_seconds", **labels).observe(
                task["seconds"]
            )


# ----------------------------------------------------------------------
# Worker handoff
# ----------------------------------------------------------------------
def drain_worker():
    """Everything this process buffered, as one picklable payload (or None)."""
    if not metrics_enabled():
        return None
    return {"spans": _TRACER.drain(), "metrics": _REGISTRY.drain()}


def absorb_worker(payload, parent_id=None) -> None:
    """Merge a worker's drained payload; root spans adopt ``parent_id``."""
    if not payload:
        return
    _REGISTRY.merge(payload["metrics"])
    _TRACER.absorb(payload["spans"], parent_id=parent_id)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def telemetry_dir() -> Path:
    return Path(os.environ.get("REPRO_TELEMETRY_DIR") or DEFAULT_TELEMETRY_DIR)


def flush(directory=None) -> dict:
    """Persist buffered telemetry and clear the buffers.

    Metrics merge into ``<dir>/metrics.json`` (accumulating across runs);
    spans append to ``<dir>/trace.jsonl``.  Returns ``{kind: path}`` for
    what was written; empty when telemetry is off or nothing is buffered.
    """
    written: dict = {}
    if not metrics_enabled():
        return written
    directory = Path(directory) if directory else telemetry_dir()
    if len(_REGISTRY):
        path = directory / METRICS_FILENAME
        merged = (
            MetricsRegistry.from_snapshot_file(path)
            if path.exists()
            else MetricsRegistry()
        )
        merged.merge(_REGISTRY.drain())
        written["metrics"] = merged.write_snapshot(path)
    if _TRACER.spans():
        written["trace"] = _TRACER.append_jsonl(directory / TRACE_FILENAME)
    return written
