"""Command line interface: run the paper's experiments from a shell.

Usage (after installation)::

    python -m repro list
    python -m repro info
    python -m repro characterize ifpmul --samples 100000
    python -m repro characterize lp_tr19 --samples 100000
    python -m repro evaluate hotspot --config all --rows 96 --iterations 40
    python -m repro evaluate raytracing --config rcp,add,sqrt --size 96
    python -m repro sweep-multiplier --bits 32
    python -m repro sweep hotspot --family units --workers 4
    python -m repro sensitivity raytracing --size 48
    python -m repro lint

Every command prints a plain-text report; exit code 0 on success.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]

#: Units accepted by ``--config`` beyond the unit-name list.
_CONFIG_ALIASES = ("all", "precise")


def _app_registry():
    """App name -> (runner factory, default quality metric, metric name)."""
    from repro.apps import cp, hotspot, raytrace, srad
    from repro.quality import mae, ssim

    def hotspot_runner(args):
        return lambda cfg: hotspot.run(cfg, args.rows, args.rows, args.iterations)

    def srad_runner(args):
        return lambda cfg: srad.run(cfg, args.rows, args.rows, args.iterations)

    def ray_runner(args):
        return lambda cfg: raytrace.run(cfg, args.size, args.size)

    def cp_runner(args):
        return lambda cfg: cp.run(cfg, grid=args.size)

    ssim_metric = lambda out, ref: ssim(out, ref, data_range=1.0)  # noqa: E731
    return {
        "hotspot": (hotspot_runner, mae, "MAE (K)"),
        "srad": (srad_runner, mae, "MAE"),
        "raytracing": (ray_runner, ssim_metric, "SSIM"),
        "cp": (cp_runner, mae, "MAE"),
    }


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_list(args, out) -> int:
    from repro.framework import EXPERIMENTS

    print(f"{'id':8s} {'bench':45s} title", file=out)
    for exp in EXPERIMENTS.values():
        print(f"{exp.id:8s} {exp.bench:45s} {exp.title}", file=out)
    print(f"\n{len(EXPERIMENTS)} experiments; run them with "
          "`pytest benchmarks/ --benchmark-only -s`.", file=out)
    return 0


def cmd_info(args, out) -> int:
    from repro import __version__
    from repro.gpu import FERMI_GTX480
    from repro.hardware import HardwareLibrary

    print(f"repro {__version__} — Low Power GPGPU Computation with "
          "Imprecise Hardware (DAC 2014)", file=out)
    cfg = FERMI_GTX480
    print(f"\nsimulated GPU: {cfg.num_sms} SMs x {cfg.fpu_lanes} lanes @ "
          f"{cfg.clock_ghz} GHz ({cfg.peak_gflops():.0f} GFLOPS peak)", file=out)
    print("\n45 nm hardware library (paper-calibrated):", file=out)
    print(HardwareLibrary.paper_45nm().table(), file=out)
    return 0


def cmd_characterize(args, out) -> int:
    from repro.erroranalysis import (
        UNIT_CHARACTERIZATIONS,
        characterize_multiplier_config,
        characterize_unit,
    )

    dtype = np.float64 if args.double else np.float32
    if args.unit in UNIT_CHARACTERIZATIONS:
        pmf = characterize_unit(args.unit, args.samples, dtype=dtype)
    else:
        try:
            pmf = characterize_multiplier_config(
                args.unit, args.samples, dtype=dtype
            )
        except ValueError:
            known = sorted(UNIT_CHARACTERIZATIONS) + ["lp_trN", "fp_trN", "bt_N"]
            print(f"unknown unit {args.unit!r}; expected one of {known}",
                  file=sys.stderr)
            return 2
    print(pmf.format_rows(), file=out)
    print(f"\n{pmf.stats}", file=out)
    return 0


def cmd_evaluate(args, out) -> int:
    from repro.core import parse_config_spec
    from repro.framework import PowerQualityFramework

    registry = _app_registry()
    if args.app not in registry:
        print(f"unknown app {args.app!r}; expected one of {sorted(registry)}",
              file=sys.stderr)
        return 2
    runner_factory, metric, metric_name = registry[args.app]
    try:
        config = parse_config_spec(args.config, args.threshold,
                                   args.multiplier, args.sfu_mode)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2

    framework = PowerQualityFramework(
        run_app=runner_factory(args), quality_metric=metric
    )
    evaluation = framework.evaluate(config)
    breakdown = framework.reference_breakdown
    print(f"application: {args.app}", file=out)
    print(f"configuration: {config.describe()}", file=out)
    print(f"quality ({metric_name}): {evaluation.quality:.5g}", file=out)
    print(f"FPU+SFU power share: {breakdown.arithmetic_share:.1%}", file=out)
    print(evaluation.savings.format_row(), file=out)
    return 0


def cmd_sweep_multiplier(args, out) -> int:
    from repro.core import MultiplierConfig
    from repro.erroranalysis import characterize_multiplier_configs
    from repro.hardware import bt_fp_multiplier, dw_fp_multiplier, mitchell_fp_multiplier

    bits = args.bits
    dtype = np.float32 if bits == 32 else np.float64
    mantissa = 23 if bits == 32 else 52
    dw = dw_fp_multiplier(bits).metrics().power_mw
    truncations = sorted({0, mantissa // 4, mantissa // 2, int(mantissa * 0.82)})
    configs = [MultiplierConfig(path, tr) for path in ("full", "log") for tr in truncations]
    baselines = [f"bt_{tr}" for tr in truncations[1:]]
    pmfs = characterize_multiplier_configs(configs + baselines, args.samples,
                                           dtype=dtype)

    print(f"{'config':10s} {'power mW':>9s} {'reduction':>10s} {'eps_max':>9s}",
          file=out)
    for cfg in configs:
        power = mitchell_fp_multiplier(bits, cfg).metrics().power_mw
        print(f"{cfg.name:10s} {power:9.3f} {dw / power:9.1f}x "
              f"{pmfs[cfg.name].stats.eps_max:9.2%}", file=out)
    for tr, label in zip(truncations[1:], baselines):
        power = bt_fp_multiplier(bits, tr).metrics().power_mw
        print(f"{label:10s} {power:9.3f} {dw / power:9.1f}x "
              f"{pmfs[label].stats.eps_max:9.2%}", file=out)
    return 0


def cmd_verify(args, out) -> int:
    from repro.core import MultiplierConfig
    from repro.hdl import cosimulate

    runs = [
        ("table1_mul", {}, 0),
        ("threshold_add", {"threshold": args.threshold}, 0),
        ("mitchell_mul", {"config": MultiplierConfig("log", 0)}, 0),
        ("mitchell_mul", {"config": MultiplierConfig("full", 0)}, 0),
    ]
    failures = 0
    for unit, kwargs, tol in runs:
        result = cosimulate(unit, args.bits, n_random=args.samples, **kwargs)
        tolerance = tol if args.bits == 32 else max(tol, 1)
        ok = result.within(tolerance)
        failures += not ok
        print(f"{result.summary()}  (tolerance {tolerance} ulp) "
              f"{'OK' if ok else 'FAIL'}", file=out)
    return 1 if failures else 0


def cmd_stalls(args, out) -> int:
    """Issue/stall breakdown of an application's representative window."""
    from repro.gpu import profile_kernel_stalls

    registry = _app_registry()
    if args.app not in registry:
        print(f"unknown app {args.app!r}; expected one of {sorted(registry)}",
              file=sys.stderr)
        return 2
    runner_factory, _metric, _name = registry[args.app]
    result = runner_factory(args)(None)
    profile = profile_kernel_stalls(result.counters)
    print(f"application: {args.app} (precise run, "
          f"{result.counters.total_scalar_ops():,} scalar ops)", file=out)
    print(profile.format_rows(), file=out)
    return 0


def cmd_sweep_app(args, out) -> int:
    """Sweep multiplier configurations over a CPU benchmark (Fig 21/Table 7)."""
    from repro.apps import art, gromacs, sphinx
    from repro.core import IHWConfig
    from repro.quality import error_percent, word_accuracy

    apps = {"art": art, "gromacs": gromacs, "sphinx": sphinx}
    if args.app not in apps:
        print(f"unknown app {args.app!r}; expected one of {sorted(apps)}",
              file=sys.stderr)
        return 2
    module = apps[args.app]
    reference = module.reference_run()

    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    print(f"application: {args.app} (precise reference computed)", file=out)
    for name in configs:
        try:
            if name.startswith("bt_"):
                cfg = IHWConfig.units("mul").with_multiplier(
                    "truncated", truncation=int(name[3:])
                )
            else:
                cfg = IHWConfig.units("mul").with_multiplier("mitchell", config=name)
        except ValueError as exc:
            print(f"bad configuration {name!r}: {exc}", file=sys.stderr)
            return 2
        result = module.run(cfg)
        if args.app == "art":
            obj, _loc, vigilance = result.output
            print(f"{name:10s} recognized={obj:12s} vigilance={vigilance:.4f}",
                  file=out)
        elif args.app == "gromacs":
            err = error_percent(result.output[0], reference.output[0])
            verdict = "PASS" if err < 1.25 else "FAIL"
            print(f"{name:10s} energy err={err:7.3f}%  {verdict} (1.25% line)",
                  file=out)
        else:
            correct, total = word_accuracy(result.output, reference.extras["truth"])
            print(f"{name:10s} words recognized={correct}/{total}", file=out)
    return 0


#: Spec parameters and quality metric per sweepable application.
_SWEEP_APPS = {
    "hotspot": ("mae", lambda a: {"rows": a.rows, "cols": a.rows,
                                  "iterations": a.iterations}),
    "srad": ("mae", lambda a: {"rows": a.rows, "cols": a.rows,
                               "iterations": a.iterations}),
    "raytracing": ("ssim", lambda a: {"width": a.size, "height": a.size}),
    "cp": ("mae", lambda a: {"grid": a.size}),
}


def cmd_sweep(args, out) -> int:
    """Parallel, cached sweep of one application over many configurations."""
    import json as _json

    from repro import telemetry
    from repro.core import config_family, parse_config_spec
    from repro.runtime import (ExperimentRunner, ExperimentSpec, ResultCache,
                               RetryPolicy, TaskFailedError)

    if args.app not in _SWEEP_APPS:
        print(f"unknown app {args.app!r}; expected one of {sorted(_SWEEP_APPS)}",
              file=sys.stderr)
        return 2
    metric, params_for = _SWEEP_APPS[args.app]
    spec = ExperimentSpec.create(args.app, metric=metric, **params_for(args))

    try:
        if args.configs:
            configs = {
                part.strip(): parse_config_spec(part.strip(), args.threshold)
                for part in args.configs.split("|") if part.strip()
            }
        else:
            configs = config_family(args.family, args.threshold)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    if not configs:
        print("no configurations to sweep", file=sys.stderr)
        return 2

    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = ResultCache(args.cache_dir)
    else:
        cache = "auto"
    try:
        policy = RetryPolicy(max_retries=args.retries,
                             task_timeout=args.task_timeout)
    except ValueError as exc:
        print(f"bad retry policy: {exc}", file=sys.stderr)
        return 2
    runner = ExperimentRunner(max_workers=args.workers, cache=cache,
                              policy=policy)
    try:
        results = runner.sweep(spec, configs)
    except TaskFailedError as exc:
        # Completed work is already in the cache; a rerun serves it from
        # there and computes only the rest.
        print(f"sweep failed: {exc}", file=sys.stderr)
        print(f"{runner.stats.summary()}", file=sys.stderr)
        if runner.cache is not None:
            print("completed configurations are in the result cache; rerun "
                  "the same command to continue", file=sys.stderr)
        return 1
    stats = runner.stats

    cached_names = {t.name for t in stats.tasks if t.cached}
    print(f"application: {spec.describe()}", file=out)
    print(f"{'config':24s} {'quality':>10s} {'holistic':>9s} {'arith':>9s} "
          f"{'source':>7s}", file=out)
    for name, ev in results.items():
        source = "cache" if name in cached_names else "run"
        print(f"{name:24s} {ev.quality:10.5g} "
              f"{ev.savings.system_savings:9.2%} "
              f"{ev.savings.arithmetic_savings:9.2%} {source:>7s}", file=out)
    print(f"\n{stats.summary()}", file=out)
    if args.stats:
        doc = stats.to_dict()
        print("\nrunner stats:", file=out)
        for field in ("wall_seconds", "compute_seconds", "mean_task_seconds",
                      "speedup_vs_sequential", "max_workers", "chunk_size",
                      "n_tasks", "cache_hits", "cache_misses", "hit_rate",
                      "retries", "fallbacks", "timeouts", "pool_rebuilds",
                      "degraded"):
            print(f"  {field:24s} {doc[field]}", file=out)
        for note in doc["notes"]:
            print(f"  note: {note}", file=out)
        print(f"  {'task':24s} {'seconds':>9s} source", file=out)
        for task in doc["tasks"]:
            source = "cache" if task["cached"] else "run"
            detail = ""
            if task["attempts"] > 1:
                detail += f" attempts={task['attempts']}"
            if task["fallback"]:
                detail += " fallback=reference"
            print(f"  {task['name']:24s} {task['seconds']:9.3f} {source}"
                  f"{detail}", file=out)
        if telemetry.metrics_enabled():
            # The flush path only exists when telemetry is on; with it off
            # this section would point at a directory nothing writes to.
            print(f"  {'telemetry_mode':24s} {telemetry.telemetry_mode()}",
                  file=out)
            print(f"  {'telemetry_flush_path':24s} {telemetry.telemetry_dir()}",
                  file=out)
    if runner.cache is not None:
        print(f"cache: {runner.cache.root} "
              f"({runner.cache.entry_count()} entries)", file=out)

    if args.json:
        payload = {
            "spec": spec.canonical(),
            "results": {
                name: {
                    "config": ev.config.describe(),
                    "quality": ev.quality,
                    "system_savings": ev.savings.system_savings,
                    "arithmetic_savings": ev.savings.arithmetic_savings,
                    "cached": name in cached_names,
                }
                for name, ev in results.items()
            },
            "stats": stats.to_dict(),
            "speedup_vs_sequential": stats.speedup_vs_sequential,
        }
        if telemetry.metrics_enabled():
            payload["telemetry"] = {
                "mode": telemetry.telemetry_mode(),
                "flush_path": str(telemetry.telemetry_dir()),
            }
        with open(args.json, "w") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"results written to {args.json}", file=out)
    return 0


def cmd_serve(args, out) -> int:
    """Run a sweep-service instance (docs/SERVICE.md)."""
    from repro.service import ServiceConfig, run_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        max_pending=args.max_pending,
        max_configs=args.max_configs,
        retry_after=args.retry_after,
    )
    return run_server(config, out=out)


def cmd_call(args, out) -> int:
    """Query a sweep-service instance (client side of ``repro serve``)."""
    import json as _json
    import time as _time

    from repro.service import ServiceClient, ServiceError

    if args.app not in _SWEEP_APPS:
        print(f"unknown app {args.app!r}; expected one of {sorted(_SWEEP_APPS)}",
              file=sys.stderr)
        return 2
    metric, params_for = _SWEEP_APPS[args.app]
    kwargs: dict = {
        "params": params_for(args),
        "metric": metric,
        "threshold": args.threshold,
    }
    if args.configs:
        kwargs["config_specs"] = {
            part.strip(): part.strip()
            for part in args.configs.split("|") if part.strip()
        }
    else:
        kwargs["family"] = args.family

    client = ServiceClient(args.url, timeout=args.timeout,
                           retries=args.retries)
    try:
        latencies = []
        response = None
        for _ in range(max(1, args.repeats)):
            start = _time.perf_counter()
            # The per-request timeout knob, explicitly: every repeat is
            # bounded on its own, not by an ambient socket default.
            response = client.sweep(args.app, timeout=args.timeout,
                                    **kwargs)
            latencies.append(_time.perf_counter() - start)
    except ServiceError as exc:
        print(f"service call failed: {exc}", file=sys.stderr)
        return 1

    print(f"{'config':24s} {'quality':>10s} {'holistic':>9s} {'arith':>9s}",
          file=out)
    for name, doc in response["results"].items():
        if "error" in doc:
            print(f"{name:24s} ERROR: {doc['error']}", file=out)
            continue
        savings = doc["savings"]
        print(f"{name:24s} {doc['quality']:10.5g} "
              f"{savings['system_savings']:9.2%} "
              f"{savings['arithmetic_savings']:9.2%}", file=out)
    served = response["served"]
    print(f"\nserved: {served['hits']} hit / {served['misses']} miss"
          + (f" / {served['errors']} error" if served["errors"] else ""),
          file=out)
    if len(latencies) > 1:
        ordered = sorted(latencies)
        p50 = _percentile(ordered, 0.50)
        p95 = _percentile(ordered, 0.95)
        p99 = _percentile(ordered, 0.99)
        print(f"latency over {len(latencies)} calls: "
              f"p50 {p50 * 1e3:.2f} ms / p95 {p95 * 1e3:.2f} ms / "
              f"p99 {p99 * 1e3:.2f} ms", file=out)
    if args.json:
        payload = dict(response)
        if len(latencies) > 1:
            ordered = sorted(latencies)
            payload["latency_p50_seconds"] = _percentile(ordered, 0.50)
            payload["latency_p95_seconds"] = _percentile(ordered, 0.95)
            payload["latency_p99_seconds"] = _percentile(ordered, 0.99)
        with open(args.json, "w") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"response written to {args.json}", file=out)
    return 0


def _percentile(ordered, q: float):
    """Nearest-rank percentile of an ascending-sorted non-empty list.

    ``q=0.50`` reproduces the historical p50 (``[n // 2]``) exactly, so
    the smoke benchmark's warm-latency gate keeps its semantics.
    """
    index = min(len(ordered) - 1, int(len(ordered) * q))
    return ordered[index]


def cmd_metrics(args, out) -> int:
    """Render the persisted telemetry metrics snapshot."""
    from repro import telemetry
    from repro.telemetry import MetricsRegistry

    directory = args.dir or telemetry.telemetry_dir()
    path = Path(directory) / telemetry.METRICS_FILENAME
    if not path.exists():
        print(f"no metrics snapshot at {path}; run a command with "
              "REPRO_TELEMETRY=metrics (or trace) first", file=sys.stderr)
        return 2
    registry = MetricsRegistry.from_snapshot_file(path)
    if args.format == "json":
        print(registry.to_jsonl(), file=out)
    else:
        print(registry.prometheus_text(), file=out)
    return 0


def cmd_trace(args, out) -> int:
    """Render the persisted telemetry trace as an indented span tree."""
    import json as _json

    from repro import telemetry
    from repro.telemetry import render_span_tree

    directory = args.dir or telemetry.telemetry_dir()
    path = Path(directory) / telemetry.TRACE_FILENAME
    if not path.exists():
        print(f"no trace at {path}; run a command with "
              "REPRO_TELEMETRY=trace first", file=sys.stderr)
        return 2
    spans = [
        _json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    if not spans:
        print(f"trace {path} is empty", file=sys.stderr)
        return 2
    print(render_span_tree(spans, roots_only_last=not args.all), file=out)
    return 0


def cmd_lint(args, out) -> int:
    """Contract-enforcing static analysis (see docs/ANALYSIS.md)."""
    import json as _json

    import repro
    from repro.analysis import run_analysis, to_sarif

    root = Path(args.path) if args.path else Path(repro.__file__).parent
    if not root.is_dir():
        print(f"repro lint: package path {root} is not a directory\n"
              "usage: repro lint [--path PACKAGE_DIR]", file=sys.stderr)
        return 2
    try:
        report = run_analysis(root)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if report.modules_scanned == 0:
        print(f"repro lint: no python modules found under {root}\n"
              "usage: repro lint [--path PACKAGE_DIR]", file=sys.stderr)
        return 2

    prefix = "" if root.name == str(root) else f"{root}/"
    if args.format == "sarif":
        rendered = _json.dumps(to_sarif(report, path_prefix=prefix),
                               indent=2, sort_keys=True)
    else:
        rendered = report.format_text(path_prefix=prefix)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"{args.format} report written to {args.output}", file=out)
        print(report.summary(), file=out)
    else:
        print(rendered, file=out)
    return 0 if report.ok else 1


def cmd_report(args, out) -> int:
    from repro.reporting import generate_report

    text = generate_report(fast=args.fast)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_sensitivity(args, out) -> int:
    from repro.erroranalysis import analyze_sensitivity
    from repro.framework import PowerQualityFramework

    registry = _app_registry()
    if args.app not in registry:
        print(f"unknown app {args.app!r}; expected one of {sorted(registry)}",
              file=sys.stderr)
        return 2
    runner_factory, metric, metric_name = registry[args.app]
    framework = PowerQualityFramework(
        run_app=runner_factory(args), quality_metric=metric
    )
    higher_is_better = args.app == "raytracing"
    report = analyze_sensitivity(
        framework.quality_evaluator(), higher_is_better=higher_is_better
    )
    print(f"application: {args.app} (metric: {metric_name})", file=out)
    print(report.format_rows(), file=out)
    print(f"\nsuggested disable order: {', '.join(report.ranking())}", file=out)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Imprecise-hardware GPGPU power-quality experiments (DAC 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible tables and figures")
    sub.add_parser("info", help="show the machine and hardware library")

    p = sub.add_parser("characterize", help="error-characterize one unit")
    p.add_argument("unit", help="unit (ifpmul, ircp, ...) or config (lp_tr19, bt_21)")
    p.add_argument("--samples", type=int, default=1 << 17)
    p.add_argument("--double", action="store_true", help="binary64 operands")

    p = sub.add_parser("evaluate", help="power-quality evaluation of an app")
    p.add_argument("app", help="hotspot | srad | raytracing | cp")
    p.add_argument("--config", default="all",
                   help="'all', 'precise', or comma-separated units")
    p.add_argument("--multiplier", default=None,
                   help="multiplier config: fp_trN / lp_trN / bt_N")
    p.add_argument("--threshold", type=int, default=8, help="adder TH")
    p.add_argument("--sfu-mode", default="linear", choices=("linear", "quadratic"))
    p.add_argument("--rows", type=int, default=64, help="grid rows (hotspot/srad)")
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--size", type=int, default=64, help="image/grid size (ray/cp)")

    p = sub.add_parser("sweep-multiplier", help="Figure-14 design-space sweep")
    p.add_argument("--bits", type=int, default=32, choices=(32, 64))
    p.add_argument("--samples", type=int, default=1 << 14)

    p = sub.add_parser("sensitivity", help="per-unit quality sensitivity of an app")
    p.add_argument("app", help="hotspot | srad | raytracing | cp")
    p.add_argument("--rows", type=int, default=48)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--size", type=int, default=48)

    p = sub.add_parser("verify", help="co-simulate behavioral vs HDL datapaths")
    p.add_argument("--bits", type=int, default=32, choices=(32, 64))
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--threshold", type=int, default=8)

    p = sub.add_parser("stalls", help="issue/stall breakdown of an app's kernel")
    p.add_argument("app", help="hotspot | srad | raytracing | cp")
    p.add_argument("--rows", type=int, default=48)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--size", type=int, default=48)

    p = sub.add_parser(
        "sweep-app", help="multiplier sweep over a CPU benchmark (Fig 21/Table 7)"
    )
    p.add_argument("app", help="art | gromacs | sphinx")
    p.add_argument(
        "--configs",
        default="fp_tr0,fp_tr44,lp_tr44,bt_44,bt_49",
        help="comma-separated configurations (fp_trN / lp_trN / bt_N)",
    )

    p = sub.add_parser(
        "sweep", help="parallel cached sweep of an app over configurations"
    )
    p.add_argument("app", help="hotspot | srad | raytracing | cp")
    p.add_argument("--family", default="units",
                   choices=("units", "threshold", "multiplier"),
                   help="preset configuration family")
    p.add_argument("--configs", default=None,
                   help="pipe-separated config specs (e.g. 'all|precise|add,mul') "
                        "overriding --family")
    p.add_argument("--threshold", type=int, default=8, help="adder TH")
    p.add_argument("--rows", type=int, default=48, help="grid rows (hotspot/srad)")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--size", type=int, default=48, help="image/grid size (ray/cp)")
    p.add_argument("--workers", type=int, default=None,
                   help="process count (default: auto; 1 = sequential)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache for this run")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default .repro_cache or REPRO_CACHE_DIR)")
    p.add_argument("--json", default=None, help="also write results to a JSON file")
    p.add_argument("--stats", action="store_true",
                   help="print the detailed runner statistics after the sweep")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per failing configuration (default 2)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-task deadline in seconds; hung workers are "
                        "terminated and the task retried (default: none)")

    p = sub.add_parser(
        "serve", help="serve power-quality tradeoff queries over HTTP"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 = ephemeral; default 8642)")
    p.add_argument("--cache-dir", default=".repro_cache",
                   help="local result-cache directory")
    p.add_argument("--max-pending", type=int, default=64,
                   help="work-queue bound; beyond it requests get 429 + "
                        "Retry-After")
    p.add_argument("--max-configs", type=int, default=64,
                   help="per-request configuration bound (413 above)")
    p.add_argument("--retry-after", type=float, default=2.0,
                   help="Retry-After hint (seconds) on 429 responses")

    p = sub.add_parser(
        "call", help="query a running sweep service (client of 'serve')"
    )
    p.add_argument("app", help="hotspot | srad | raytracing | cp")
    p.add_argument("--url", default="http://127.0.0.1:8642",
                   help="service base URL")
    p.add_argument("--family", default="units",
                   choices=("units", "threshold", "multiplier"),
                   help="preset configuration family")
    p.add_argument("--configs", default=None,
                   help="pipe-separated config specs (e.g. 'all|precise') "
                        "overriding --family")
    p.add_argument("--threshold", type=int, default=8, help="adder TH")
    p.add_argument("--rows", type=int, default=48, help="grid rows (hotspot/srad)")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--size", type=int, default=48, help="image/grid size (ray/cp)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-request socket timeout (seconds)")
    p.add_argument("--retries", type=int, default=3,
                   help="client retries through 429s and torn connections")
    p.add_argument("--repeats", type=int, default=1,
                   help="repeat the call N times and report p50/p95/p99 "
                        "latency (warm-path probe)")
    p.add_argument("--json", default=None,
                   help="also write the response document to a JSON file")

    p = sub.add_parser(
        "metrics", help="print the persisted telemetry metrics snapshot"
    )
    p.add_argument("--dir", default=None,
                   help="telemetry directory (default .repro_telemetry or "
                        "REPRO_TELEMETRY_DIR)")
    p.add_argument("--format", default="prometheus",
                   choices=("prometheus", "json"),
                   help="output format (default Prometheus text exposition)")

    p = sub.add_parser("trace", help="render the persisted telemetry trace")
    p.add_argument("--dir", default=None,
                   help="telemetry directory (default .repro_telemetry or "
                        "REPRO_TELEMETRY_DIR)")
    p.add_argument("--all", action="store_true",
                   help="render every recorded root span (default: last only)")

    p = sub.add_parser(
        "lint", help="contract-enforcing static analysis of the package"
    )
    p.add_argument("--path", default=None,
                   help="package directory to scan (default: the installed "
                        "repro package)")
    p.add_argument("--format", default="text",
                   choices=("text", "sarif"))
    p.add_argument("--output", default=None,
                   help="write the rendered report to a file instead of "
                        "stdout (stdout gets the one-line summary)")

    p = sub.add_parser("report", help="generate the full markdown report")
    p.add_argument("--fast", action="store_true", help="smoke-test scale")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")

    return parser


_COMMANDS = {
    "list": cmd_list,
    "info": cmd_info,
    "characterize": cmd_characterize,
    "evaluate": cmd_evaluate,
    "sweep-multiplier": cmd_sweep_multiplier,
    "sensitivity": cmd_sensitivity,
    "verify": cmd_verify,
    "stalls": cmd_stalls,
    "sweep-app": cmd_sweep_app,
    "sweep": cmd_sweep,
    "serve": cmd_serve,
    "call": cmd_call,
    "metrics": cmd_metrics,
    "trace": cmd_trace,
    "lint": cmd_lint,
    "report": cmd_report,
}

#: Commands that run no experiments — never flush telemetry of their own.
#: ``call`` belongs here: the experiments run (and flush) server-side.
_VIEWER_COMMANDS = ("metrics", "trace", "lint", "call")


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    With ``REPRO_TELEMETRY=metrics|trace`` every experiment-running
    command persists its buffered telemetry under the telemetry
    directory on the way out; ``repro metrics`` / ``repro trace``
    render what accumulated there.
    """
    from repro import telemetry

    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, out)
        if args.command not in _VIEWER_COMMANDS:
            written = telemetry.flush()
            for kind, path in sorted(written.items()):
                print(f"telemetry {kind} written to {path}", file=out)
    except BrokenPipeError:
        # Downstream closed early (e.g. piped into head); exit quietly.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.  Streams without a real fd
        # (captured/redirected) have nothing to redirect — skip.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
