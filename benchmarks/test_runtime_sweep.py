"""Experiment runtime: parallel sweep speedup and cache effectiveness.

A fixed 12-configuration HotSpot sweep (precise + 8 single units + three
all-imprecise threshold variants) run three ways:

    sequential cold   ExperimentRunner(max_workers=1), no cache
    parallel cold     ExperimentRunner(auto workers), fresh cache
    warm rerun        same cache, everything served from disk

Shape requirements: all three produce bit-identical evaluations; the warm
rerun is >= 10x faster than the sequential cold sweep; on machines with
>= 4 cores the parallel cold sweep is >= 2x faster than sequential (on
smaller machines the measured ratio is still recorded, not asserted).
Results land in ``BENCH_runtime.json`` at the repo root so successive PRs
can track the perf trajectory; a run that fails its gates writes nothing.
"""

import os
import time

import numpy as np

from repro import telemetry
from repro.core import IHWConfig
from repro.runtime import (
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    default_worker_count,
)

from report import emit, format_row, write_bench_json

SPEC = ExperimentSpec.create("hotspot", metric="mae", rows=64, cols=64, iterations=30)

CONFIGS = {
    "precise": IHWConfig.precise(),
    "add": IHWConfig.units("add"),
    "mul": IHWConfig.units("mul"),
    "div": IHWConfig.units("div"),
    "rcp": IHWConfig.units("rcp"),
    "rsqrt": IHWConfig.units("rsqrt"),
    "sqrt": IHWConfig.units("sqrt"),
    "log2": IHWConfig.units("log2"),
    "all_th4": IHWConfig.all_imprecise(adder_threshold=4),
    "all_th8": IHWConfig.all_imprecise(),
    "all_th12": IHWConfig.all_imprecise(adder_threshold=12),
    "all_bt8": IHWConfig.all_imprecise().with_multiplier("truncated", truncation=8),
}


def _identical(a, b):
    return (
        a.quality == b.quality
        and a.savings == b.savings
        and a.breakdown.watts == b.breakdown.watts
        and np.array_equal(a.output, b.output)
    )


def test_runtime_sweep(benchmark, tmp_path):
    assert len(CONFIGS) == 12

    t0 = time.perf_counter()
    sequential = ExperimentRunner(max_workers=1, cache=None)
    seq_results = sequential.sweep(SPEC, CONFIGS)
    cold_sequential_s = time.perf_counter() - t0

    workers = default_worker_count()
    cache_dir = tmp_path / "cache"
    t0 = time.perf_counter()
    parallel = ExperimentRunner(max_workers=workers, cache=ResultCache(cache_dir))
    par_results = parallel.sweep(SPEC, CONFIGS)
    cold_parallel_s = time.perf_counter() - t0

    def warm_sweep():
        runner = ExperimentRunner(max_workers=workers, cache=ResultCache(cache_dir))
        return runner, runner.sweep(SPEC, CONFIGS)

    warm_runner, warm_results = benchmark(warm_sweep)
    warm_s = warm_runner.stats.wall_seconds

    # Every mode is bit-identical to the sequential reference.
    for name in CONFIGS:
        assert _identical(seq_results[name], par_results[name]), name
        assert _identical(seq_results[name], warm_results[name]), name
    assert warm_runner.stats.cache_hits == len(CONFIGS)

    cpu_count = os.cpu_count() or 1
    parallel_speedup = cold_sequential_s / cold_parallel_s
    warm_speedup = cold_sequential_s / warm_s
    payload = {
        "sweep": {"app": SPEC.app, "configs": sorted(CONFIGS),
                  "params": SPEC.params_dict()},
        "cpu_count": cpu_count,
        "workers": workers,
        "cold_sequential_s": round(cold_sequential_s, 4),
        "cold_parallel_s": round(cold_parallel_s, 4),
        "parallel_speedup": round(parallel_speedup, 2),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 1),
        "cache_hit_rate": warm_runner.stats.hit_rate,
    }
    benchmark.extra_info.update(payload)
    emit("Runtime: 12-config HotSpot sweep (64x64x30)", [
        format_row("mode", "wall s", "speedup", widths=[22, 10, 10]),
        format_row("sequential cold", f"{cold_sequential_s:.3f}", "1.00x",
                   widths=[22, 10, 10]),
        format_row(f"parallel cold ({workers}w)", f"{cold_parallel_s:.3f}",
                   f"{parallel_speedup:.2f}x", widths=[22, 10, 10]),
        format_row("warm cache", f"{warm_s:.3f}", f"{warm_speedup:.1f}x",
                   widths=[22, 10, 10]),
        f"cache hit rate (warm): {warm_runner.stats.hit_rate:.0%}",
    ])

    # Gate first: a failing run must not rewrite the committed numbers.
    assert warm_speedup >= 10.0
    if cpu_count >= 4:
        assert parallel_speedup >= 2.0
    write_bench_json("runtime", payload, update=True)


OVERHEAD_SPEC = ExperimentSpec.create(
    "hotspot", metric="mae", rows=48, cols=48, iterations=20
)


def _sweep_once(mode):
    """One sequential uncached sweep under telemetry ``mode``."""
    with telemetry.override(mode):
        telemetry.reset()
        runner = ExperimentRunner(max_workers=1, cache=None)
        t0 = time.perf_counter()
        runner.sweep(OVERHEAD_SPEC, CONFIGS)
        elapsed = time.perf_counter() - t0
        telemetry.reset()
    return elapsed


def _timed_sweep(mode, repeats=3):
    """Best-of-N wall time of the overhead sweep under ``mode``."""
    return min(_sweep_once(mode) for _ in range(repeats))


#: Interleaved off/metrics pairs behind the metrics-mode gate.
OVERHEAD_PAIRS = 10


def _overhead_pairs():
    """:data:`OVERHEAD_PAIRS` back-to-back ``(off_s, metrics_s)`` pairs;
    every second pair runs metrics first, so a position bias cancels."""
    pairs = []
    for index in range(OVERHEAD_PAIRS):
        if index % 2:
            metrics_s = _sweep_once("metrics")
            off_s = _sweep_once("off")
        else:
            off_s = _sweep_once("off")
            metrics_s = _sweep_once("metrics")
        pairs.append((off_s, metrics_s))
    return pairs


def test_telemetry_overhead(benchmark):
    """Telemetry must be near-free when off and cheap when on.

    Measures the same 12-config sequential uncached sweep with telemetry
    off, metrics (drift probes sampling), and trace (spans on top), and
    records the overheads next to the runtime numbers.  The gate is on
    metrics mode: the *median* per-pair overhead of
    :data:`OVERHEAD_PAIRS` interleaved off/metrics pairs must stay under
    5%.  Pairing keeps container CPU drift between phases out of the
    ratio, alternating the order cancels a first-or-second position
    bias, and the median lets no single lucky or unlucky pair decide
    the verdict.
    """
    _sweep_once("off")  # warm the framework memo out of the measurement
    benchmark.pedantic(lambda: _sweep_once("metrics"), rounds=3)
    pairs = _overhead_pairs()
    off_s = min(off for off, _ in pairs)
    metrics_s = min(met for _, met in pairs)
    trace_s = _timed_sweep("trace")

    overheads = [met / off - 1.0 for off, met in pairs]
    metrics_overhead = float(np.median(overheads))
    trace_overhead = trace_s / off_s - 1.0
    payload = {
        "telemetry_off_s": round(off_s, 4),
        "telemetry_metrics_s": round(metrics_s, 4),
        "telemetry_trace_s": round(trace_s, 4),
        "telemetry_metrics_overhead": round(metrics_overhead, 4),
        "telemetry_trace_overhead": round(trace_overhead, 4),
    }
    emit("Runtime: telemetry overhead (12-config sweep, 48x48x20)", [
        format_row("mode", "wall s", "overhead", widths=[22, 10, 10]),
        format_row("off", f"{off_s:.3f}", "-", widths=[22, 10, 10]),
        format_row("metrics (median pair)", f"{metrics_s:.3f}",
                   f"{metrics_overhead:+.1%}", widths=[22, 10, 10]),
        format_row("trace", f"{trace_s:.3f}",
                   f"{trace_overhead:+.1%}", widths=[22, 10, 10]),
        "metrics overhead per pair (every second pair metrics first): "
        + " ".join(f"{o:+.1%}" for o in overheads),
    ])

    # Gate first: a failing run must not rewrite the committed numbers.
    assert metrics_overhead < 0.05, overheads
    write_bench_json("runtime", payload, update=True)
