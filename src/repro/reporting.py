"""Markdown report generation: the full evaluation in one document.

``generate_report()`` runs the headline experiments at a configurable scale
and renders a paper-vs-measured markdown document (the automated companion
to the hand-annotated ``EXPERIMENTS.md``).  Exposed on the CLI as
``python -m repro report [--fast]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_runner_stats", "generate_report", "report_sections"]


def _section_units(scale: int) -> list:
    from repro.erroranalysis import characterize_multiplier_configs, characterize_units
    from repro.hardware import TABLE1_MAX_ERRORS

    paper = {
        "ircp": "5.88%", "irsqrt": "11.11%", "isqrt": "11.11%",
        "ifpdiv": "5.88%", "ifpmul": "25%",
    }
    lines = [
        "## Imprecise units (Table 1)",
        "",
        "| unit | paper eps_max | measured |",
        "|---|---|---|",
    ]
    multipliers = {"fp_tr0": "2.04%", "lp_tr0": "11.11%", "lp_tr19": "~18%"}
    pmfs = characterize_units(paper, scale)
    pmfs.update(characterize_multiplier_configs(multipliers, scale))
    for name, ref in {**paper, **multipliers}.items():
        lines.append(f"| {name} | {ref} | {pmfs[name].stats.eps_max:.2%} |")
    assert TABLE1_MAX_ERRORS  # keep the reference data imported/linked
    return lines


def _section_hardware() -> list:
    from repro.core import MultiplierConfig
    from repro.hardware import (
        HardwareLibrary,
        bt_fp_multiplier,
        dw_fp_multiplier,
        mitchell_fp_multiplier,
    )

    dw32 = dw_fp_multiplier(32).metrics().power_mw
    lp19 = mitchell_fp_multiplier(32, MultiplierConfig("log", 19)).metrics().power_mw
    bt21 = bt_fp_multiplier(32, 21).metrics().power_mw
    dw64 = dw_fp_multiplier(64).metrics().power_mw
    lp48 = mitchell_fp_multiplier(64, MultiplierConfig("log", 48)).metrics().power_mw
    paper_mul = HardwareLibrary.paper_45nm().power_reduction("mul")
    return [
        "## Hardware power (Figure 14 / Tables 2-3)",
        "",
        "| quantity | paper | measured |",
        "|---|---|---|",
        f"| Table-1 multiplier reduction | 25x | {paper_mul:.1f}x (library), "
        f"{dw32 / mitchell_fp_multiplier(32).metrics().power_mw:.1f}x (model fp_tr0) |",
        f"| lp_tr19 (fp32) reduction | >25x | {dw32 / lp19:.1f}x |",
        f"| bt_21 (fp32) reduction | ~2.3x | {dw32 / bt21:.1f}x |",
        f"| lp_tr48 (fp64) reduction | 49x | {dw64 / lp48:.1f}x |",
    ]


def _section_applications(scale: int) -> list:
    from repro.apps import hotspot, raytrace, srad
    from repro.core import IHWConfig
    from repro.framework import PowerQualityFramework, RAY_CONFIGS
    from repro.quality import mae, ssim

    rows = ["## Applications (Table 5 / Figures 15-18)", "",
            "| experiment | paper | measured |", "|---|---|---|"]

    fw = PowerQualityFramework(
        run_app=lambda cfg: hotspot.run(cfg, scale, scale, 30), quality_metric=mae
    )
    ev = fw.evaluate(IHWConfig.all_imprecise())
    rows.append(
        f"| HotSpot savings (holistic/arith) | 32.06% / 91.54% | "
        f"{ev.savings.system_savings:.2%} / {ev.savings.arithmetic_savings:.2%} |"
    )
    rows.append(f"| HotSpot MAE | 0.05 K | {ev.quality:.3f} K |")

    fw = PowerQualityFramework(
        run_app=lambda cfg: srad.run(cfg, scale, scale, 30), quality_metric=mae
    )
    ev = fw.evaluate(IHWConfig.all_imprecise())
    rows.append(
        f"| SRAD savings | 24.23% / 90.68% | "
        f"{ev.savings.system_savings:.2%} / {ev.savings.arithmetic_savings:.2%} |"
    )

    fw = PowerQualityFramework(
        run_app=lambda cfg: raytrace.run(cfg, scale, scale),
        quality_metric=lambda out, ref: ssim(out, ref, data_range=1.0),
    )
    paper_ssim = {"ray_rcp_add_sqrt": 0.95, "ray_rcp_add_sqrt_rsqrt": 0.83,
                  "ray_rcp_add_sqrt_fpmul_fp": 0.85}
    for name, cfg in RAY_CONFIGS.items():
        ev = fw.evaluate(cfg)
        rows.append(
            f"| RayTracing {name.removeprefix('ray_')} SSIM | "
            f"{paper_ssim[name]} | {ev.quality:.3f} |"
        )
    return rows


def _section_verification(scale: int) -> list:
    from repro.core import MultiplierConfig
    from repro.hdl import cosimulate

    rows = ["## Functional verification (Figures 10-11)", "",
            "| datapath | vectors | max ULP |", "|---|---|---|"]
    for unit, kwargs in (
        ("table1_mul", {}),
        ("threshold_add", {"threshold": 8}),
        ("mitchell_mul", {"config": MultiplierConfig("full", 0)}),
    ):
        result = cosimulate(unit, 32, n_random=scale, **kwargs)
        rows.append(f"| {result.unit} | {result.vectors} | {result.max_ulps} |")
    return rows


def format_runner_stats(stats) -> list:
    """Markdown bullet rendering of a :class:`~repro.runtime.RunnerStats`."""
    lines = [
        f"- tasks: {stats.n_tasks} in {stats.wall_seconds:.3f}s wall "
        f"({stats.max_workers} worker{'s' if stats.max_workers != 1 else ''}, "
        f"chunk {stats.chunk_size})",
        f"- cache: {stats.hit_rate:.0%} hit rate "
        f"({stats.cache_hits} hit / {stats.cache_misses} miss)",
        f"- compute: {stats.compute_seconds:.3f}s summed, "
        f"speedup vs sequential {stats.speedup_vs_sequential:.2f}x",
    ]
    reliability = stats.reliability_summary()
    if reliability:
        lines.append(f"- reliability: {reliability}")
    for note in getattr(stats, "notes", []):
        lines.append(f"  - {note}")
    return lines


def _section_runtime(scale: int) -> list:
    import tempfile

    from repro.core import IHWConfig
    from repro.runtime import ExperimentRunner, ExperimentSpec, ResultCache

    spec = ExperimentSpec.create(
        "hotspot", metric="mae", rows=scale, cols=scale, iterations=10
    )
    configs = {
        "precise": IHWConfig.precise(),
        "add": IHWConfig.units("add"),
        "mul": IHWConfig.units("mul"),
        "rcp": IHWConfig.units("rcp"),
        "th4": IHWConfig.all_imprecise(adder_threshold=4),
        "all": IHWConfig.all_imprecise(),
    }
    lines = ["## Experiment runtime (parallel sweep + result cache)", ""]
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as tmp:
        runner = ExperimentRunner(max_workers=1, cache=ResultCache(tmp))
        runner.sweep(spec, configs)
        cold = runner.stats
        runner.sweep(spec, configs)
        warm = runner.stats
        lines.append(f"Cold sweep of {cold.n_tasks} HotSpot configurations:")
        lines.extend(format_runner_stats(cold))
        lines.append("")
        lines.append("Warm rerun (content-addressed cache):")
        lines.extend(format_runner_stats(warm))
        if cold.wall_seconds > 0 and warm.wall_seconds > 0:
            lines.append(
                f"- warm/cold wall ratio: "
                f"{cold.wall_seconds / warm.wall_seconds:.1f}x faster"
            )
    return lines


def _section_telemetry(scale: int) -> list:
    """Trace one small sweep and summarize what the telemetry observed."""
    from repro import telemetry
    from repro.core import IHWConfig
    from repro.runtime import ExperimentRunner, ExperimentSpec

    spec = ExperimentSpec.create(
        "hotspot", metric="mae", rows=scale, cols=scale, iterations=10
    )
    configs = {
        "precise": IHWConfig.precise(),
        "add": IHWConfig.units("add"),
        "all": IHWConfig.all_imprecise(),
    }
    with telemetry.override("trace"):
        telemetry.reset()
        runner = ExperimentRunner(max_workers=1, cache=None)
        runner.sweep(spec, configs)
        spans = telemetry.get_tracer().drain()
        snapshot = telemetry.get_registry().drain()

    drift = [
        doc for doc in snapshot
        if doc["name"] == "repro_drift_observed_total"
    ]
    lines = [
        "## Telemetry (spans, metrics, numeric drift)",
        "",
        f"Traced sweep of {len(configs)} HotSpot configurations "
        f"({len(spans)} spans, {len(snapshot)} metric series):",
        "",
        "```",
        telemetry.render_span_tree(spans),
        "```",
        "",
        "Sampled per-op drift observations (imprecise kernels only):",
    ]
    for doc in sorted(drift, key=lambda d: d["labels"].get("op", "")):
        mean = _drift_mean(snapshot, doc["labels"])
        lines.append(
            f"- `{doc['labels'].get('op', '?')}`: {int(doc['value'])} elements, "
            f"mean |ERR%| {mean:.3g}"
        )
    if not drift:
        lines.append("- (no imprecise elements sampled at this scale)")
    return lines


def _drift_mean(snapshot, labels) -> float:
    """Mean |ERR%| of the drift series matching ``labels``."""
    def value(name):
        for doc in snapshot:
            if doc["name"] == name and doc["labels"] == labels:
                return doc["value"]
        return 0.0

    observed = value("repro_drift_observed_total")
    return value("repro_drift_err_pct_sum") / observed if observed else 0.0


def report_sections(fast: bool = False) -> list:
    """The report as a list of markdown-line lists (one per section)."""
    char_scale = 1 << 13 if fast else 1 << 16
    app_scale = 48 if fast else 96
    cosim_scale = 300 if fast else 2000
    return [
        _section_units(char_scale),
        _section_hardware(),
        _section_applications(app_scale),
        _section_verification(cosim_scale),
        _section_runtime(app_scale),
        _section_telemetry(32 if fast else app_scale),
    ]


def generate_report(fast: bool = False) -> str:
    """Render the full markdown report."""
    np.seterr(all="ignore")
    header = [
        "# Reproduction report — Low Power GPGPU Computation with Imprecise Hardware",
        "",
        f"Scale: {'fast (smoke)' if fast else 'default'}.  Generated by "
        "`python -m repro report`; see EXPERIMENTS.md for the full annotated "
        "comparison and benchmarks/ for the asserted versions.",
        "",
    ]
    body = []
    for section in report_sections(fast=fast):
        body.extend(section)
        body.append("")
    return "\n".join(header + body)
