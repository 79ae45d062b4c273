"""End-to-end benchmark of the reproduction: evaluate, sweep, serve, characterize.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload evaluate-large --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, every
sample scaled to the reference host speed by the probe of ``speed.py``;
``--trace 1`` runs the workload once untraced and once with span wrappers
installed, and prints the per-layer metrics (with the tracing overhead and
the reconciliation of self times against wall time).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Lines before it restate each metric by name and unit,
with the workload-specific name it stands for and its unscaled value, plus
machine metadata and the probe's speed factor.

``--record-digests`` rewrites ``e2ebench/digests.json`` from the current
code; do that only when a result is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Settings that would make a number measure a different engine, cache or
#: telemetry mode than the one users get by default.
REFUSED_ENV = ("REPRO_BACKEND", "REPRO_THREADS", "REPRO_TELEMETRY",
               "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_FAULTS")

#: What the generic end-to-end metrics stand for on each workload.
ALIASES = {
    "evaluate-large": {"op_p50_s": "evaluate_s", "cold_p50_s": "evaluate_s",
                       "work_per_s": "evaluations_per_s"},
    "sweep-apps-48": {"op_p50_s": "sweep_warm_s",
                      "cold_p50_s": "sweep_cold_s",
                      "work_per_s": "sweep_cold_evals_per_s"},
    "serve-mixed": {"op_p50_s": "call_hit_p50_s",
                    "cold_p50_s": "call_miss_p50_s",
                    "work_per_s": "calls_per_s"},
    "characterize-fig8-9": {"op_p50_s": "characterize_pass_s",
                            "cold_p50_s": "characterize_pass_s",
                            "work_per_s": "characterize_samples_per_s"},
}


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in _contract()[section]}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _metadata(seed: int) -> dict:
    import numpy

    from repro.core.backends import default_backend_name

    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": default_backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def end_to_end(phase, setup, speed) -> dict:
    """The contract metrics; with a ``speed`` probe, every sample is taken
    to the reference speed by the probes around it before the median."""
    from workloads import median

    def p50(samples, per_second=False):
        if speed is None:
            return median([value for _at, value in samples])
        return speed.scaled_median(samples, per_second)

    return {
        "setup_s": p50(setup.op_s),
        "op_p50_s": p50(phase.op_s),
        "cold_p50_s": p50(phase.cold_s),
        "work_per_s": p50(phase.rates, per_second=True),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(recorder, workers, phase, untraced, speed,
              warnings_seen: int) -> dict:
    import tracing
    from workloads import median

    main_spans = recorder.spans
    remote = [dump["spans"] for dump in phase.remote]
    layers = tracing.layer_metrics([main_spans] + workers + remote)

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    runner_stats = list(recorder.runner_stats)
    for dump in phase.remote:
        runner_stats += dump["runner_stats"]
    backend_busy = get("core.backends", "busy_s")
    gets = get("runtime.cache.get", "calls")
    main_self = sum(tracing.self_times(main_spans).values())
    # Task time as the runner measured it, against the framework.evaluate
    # spans recorded where the tasks ran (workers or the server).
    remote_layers = tracing.layer_metrics(workers + remote)
    task_spans = sum(remote_layers.get(layer, {}).get("busy_s", 0.0)
                     for layer in ("framework.evaluate", "trace.flush"))
    task_seconds = sum(stat[2] for stat in runner_stats)
    metrics = {
        "core.backends.calls": get("core.backends", "calls"),
        "core.backends.elements": get("core.backends", "value"),
        "core.backends.busy_s": backend_busy,
        "core.backends.elements_per_s": (
            get("core.backends", "value") / backend_busy if backend_busy else 0.0),
        "core.context.calls": get("core.context", "calls"),
        "core.context.self_s": get("core.context", "self_s"),
        "apps.self_s": get("apps", "self_s"),
        "framework.self_s": get("framework.evaluate", "self_s"),
        "framework.reference_s": get("framework.reference", "busy_s"),
        "quality.busy_s": get("quality", "busy_s"),
        "gpu.busy_s": get("gpu", "busy_s"),
        "runtime.cache.get_calls": gets,
        "runtime.cache.get_s": get("runtime.cache.get", "busy_s"),
        "runtime.cache.put_calls": get("runtime.cache.put", "calls"),
        "runtime.cache.put_s": get("runtime.cache.put", "busy_s"),
        "runtime.cache.hit_ratio": (
            get("runtime.cache.get", "value") / gets if gets else 0.0),
        "runtime.cache.bytes_written": get("runtime.cache.put", "value"),
        "runtime.runner.tasks": sum(stat[3] for stat in runner_stats),
        "runtime.runner.retries": sum(stat[4] for stat in runner_stats),
        "runtime.runner.overhead_s": sum(
            workers_ * wall - compute
            for workers_, wall, compute, _tasks, _retries in runner_stats),
        "runtime.runner.self_s": get("runtime.runner", "self_s"),
        "service.hits": 0, "service.misses": 0, "service.coalesced": 0,
        "service.refused": 0, "service.overhead_s": 0.0,
        "service.queue_wait_s": 0.0, "service.hit_tail_s": 0.0,
        "service.call_self_s": get("service.call", "self_s"),
        "erroranalysis.self_s": get("erroranalysis", "self_s"),
        "core.units.busy_s": get("core.units", "busy_s"),
        "core.units.calls": get("core.units", "calls"),
        "core.runtime_warnings": warnings_seen,
        "bench.self_s": get("bench", "self_s"),
        "trace.spans": sum(len(s) for s in [main_spans] + workers + remote),
        "trace.wall_s": phase.wall_s,
        "trace.worker_flush_s": get("trace.flush", "busy_s"),
        "trace.reconcile_ratio": main_self / phase.wall_s,
        "trace.task_reconcile_ratio": (
            task_spans / task_seconds if task_seconds else 0.0),
        # Each half's rate at the reference speed, so drift between the
        # halves does not show as tracing cost.
        "trace.overhead_pct": 100.0 * (
            speed.scaled_median(untraced.rates, per_second=True)
            / speed.scaled_median(phase.rates, per_second=True) - 1.0),
    }
    metrics.update(phase.layers)
    metrics["core.runtime_warnings"] = (
        warnings_seen + phase.layers.get("core.runtime_warnings", 0))
    return metrics


def run_workload(name: str, args, work: Path, table) -> tuple:
    """One workload -> (metrics, unscaled metrics or None, attempted, failed)."""
    import speed
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](args.scale, args.seed, table, work)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setup = workload.setup_seconds()
        workload.speed.now()  # so that the last sample has a probe after it
        workload.warm_up()
        if not args.trace:
            phase = workload.measure(args.seconds)
            workload.speed.now()
            probes = [took for _at, took in workload.speed.marks]
            quartiles = statistics.quantiles(probes, n=4)
            print(f"# speed {name}: {len(probes)} probes, quartiles "
                  + ", ".join(f"{q:.6f}" for q in quartiles)
                  + f" s (reference {speed.REFERENCE_S} s)")
            return (end_to_end(phase, setup, workload.speed),
                    end_to_end(phase, setup, None),
                    phase.attempted, phase.failed)
        untraced = workload.measure(args.seconds / 2)
        workload.speed.now()
        flush_dir = work / "worker-spans"
        flush_dir.mkdir()
        recorder = tracing.Recorder(flush_dir)
        restore = tracing.install(recorder)
        try:
            phase = workload.measure(args.seconds / 2, recorder)
        finally:
            restore()
        workload.speed.now()
        runtime = sum(1 for w in caught
                      if issubclass(w.category, RuntimeWarning))
    workers = list(recorder.worker_spans().values())
    remote = [dump["spans"] for dump in phase.remote]
    out = ROOT / ".e2ebench_out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{name}.json").write_text(json.dumps(
        {"benchmark": recorder.spans, "workers": workers, "remote": remote}))
    metrics = per_layer(recorder, workers, phase, untraced, workload.speed,
                        runtime)
    return (metrics, None, untraced.attempted + phase.attempted,
            untraced.failed + phase.failed)


def _print_metrics(workload: str, metrics: dict, units: dict, raw) -> None:
    aliases = ALIASES[workload]
    for key, value in metrics.items():
        unit = units.get(key, "")
        alias = f"  [{aliases[key]}]" if key in aliases else ""
        unscaled = (f"  unscaled {raw[key]:.6g} {unit}"
                    if raw and raw[key] != value else "")
        print(f"{workload:20s} {key:32s} {value:14.6g} {unit}{alias}"
              f"{unscaled}")


def record_digests(path: Path) -> None:
    """Evaluate every input the workloads use and store its digests."""
    import importlib

    import digests
    from repro.runtime import ExperimentSpec
    from workloads import (CHARACTERIZE_SEEDS, MULTIPLIER_CONFIGS, SCALES,
                           evaluate_pairs, metric_for, units_family)

    module = importlib.import_module("repro.erroranalysis.characterize")
    table = {"apps": {}, "characterize": {}}

    def add(spec, label, config):
        evaluation = spec.framework().evaluate(config)
        table["apps"][digests.app_key(spec, config.canonical())] = {
            "label": label, **digests.evaluation_record(evaluation)}

    for scale, sizes in SCALES.items():
        for label, app, params, config in evaluate_pairs(scale):
            add(ExperimentSpec.create(app, metric_for(app), **params),
                f"{scale}/{label}", config)
        for app, params in list(sizes["sweep"].items()) + [
                ("hotspot", sizes["serve"])]:
            spec = ExperimentSpec.create(app, metric_for(app), **params)
            for name, config in units_family().items():
                add(spec, f"{scale}/{app}/{name}", config)
        samples = sizes["characterize_samples"]
        for seed in range(CHARACTERIZE_SEEDS):
            pmfs = list(module.characterize_units(
                n_samples=samples, seed=seed).values())
            pmfs += module.characterize_multiplier_configs(
                MULTIPLIER_CONFIGS, n_samples=samples, seed=seed).values()
            for pmf in pmfs:
                table["characterize"][digests.characterize_key(
                    pmf.label, samples, seed)] = digests.pmf_sha256(pmf)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['apps'])} evaluation and "
          f"{len(table['characterize'])} characterization digests to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--digests", type=Path, default=None,
                        help="digest table to check against "
                             "(default: e2ebench/digests.json)")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: the benchmark "
              "measures the default engine, cache and telemetry mode",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import digests
    from workloads import WORKLOADS

    if args.record_digests:
        record_digests(args.digests or digests.DEFAULT_PATH)
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    table = digests.DigestTable(args.digests or digests.DEFAULT_PATH)
    units = _units("per_layer" if args.trace else "end_to_end")
    print("# machine " + json.dumps(_metadata(args.seed), sort_keys=True))

    results, attempted, failed = {}, 0, 0
    for name in names:
        work = ROOT / ".e2ebench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            metrics, raw, tried, bad = run_workload(name, args, work, table)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += tried
        failed += bad
        _print_metrics(name, metrics, units, raw)
        print(f"{name:20s} {'error_rate':32s} {bad / tried:14.6g} "
              f"({bad} of {tried} operations failed)")
        for key, value in metrics.items():
            results[key if len(names) == 1 else f"{name}.{key}"] = {
                "value": value, "unit": units.get(key, "")}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
