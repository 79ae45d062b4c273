"""Tests for the power-quality framework and experiment registry."""

import pytest

from repro.apps import hotspot, raytrace
from repro.core import IHWConfig
from repro.framework import (
    EXPERIMENTS,
    PowerQualityFramework,
    RAY_CONFIGS,
    table5_configurations,
)
from repro.quality import QualityTuner, mae, ssim


def hotspot_framework():
    return PowerQualityFramework(
        run_app=lambda cfg: hotspot.run(cfg, 32, 32, 20),
        quality_metric=mae,
    )


class TestPowerQualityFramework:
    def test_reference_cached(self):
        fw = hotspot_framework()
        assert fw.reference is fw.reference

    def test_evaluate_all_imprecise(self):
        fw = hotspot_framework()
        ev = fw.evaluate(IHWConfig.all_imprecise())
        assert ev.quality < 1.0  # MAE in Kelvin stays small
        assert 0.0 < ev.savings.system_savings < 0.5
        assert ev.savings.arithmetic_savings > 0.8

    def test_precise_config_zero_savings(self):
        fw = hotspot_framework()
        ev = fw.evaluate(IHWConfig.precise())
        assert ev.quality == 0.0
        assert ev.savings.system_savings == 0.0

    def test_breakdown_in_figure2_band(self):
        fw = hotspot_framework()
        assert 0.2 <= fw.reference_breakdown.arithmetic_share <= 0.45

    def test_sweep(self):
        fw = hotspot_framework()
        results = fw.evaluate_many(
            {"all": IHWConfig.all_imprecise(), "add": IHWConfig.units("add")}
        )
        assert set(results) == {"all", "add"}
        assert (
            results["all"].savings.system_savings
            > results["add"].savings.system_savings
        )

    def test_summary_renders(self):
        fw = hotspot_framework()
        text = fw.evaluate(IHWConfig.units("add")).summary()
        assert "savings" in text

    def test_integrates_with_tuner(self):
        # The Figure-10 loop: ray tracing tuned to an SSIM constraint.
        fw = PowerQualityFramework(
            run_app=lambda cfg: raytrace.run(cfg, 32, 32, depth=1),
            quality_metric=lambda out, ref: ssim(out, ref, data_range=1.0),
        )
        tuner = QualityTuner(fw.quality_evaluator(), lambda q: q >= 0.9)
        result = tuner.tune()
        assert result.satisfied
        assert not result.config.is_enabled("mul")  # mul must go first


class TestExperimentRegistry:
    def test_every_table_and_figure_present(self):
        expected = {
            "fig1", "fig2", "table1", "fig8", "fig9", "fig10-11", "table2",
            "table3", "table4", "fig14", "fig15", "fig16", "fig17", "fig18",
            "table5", "table6", "fig19", "fig20", "fig21a", "fig21b", "table7",
        }
        assert expected == set(EXPERIMENTS)

    def test_experiments_carry_bench_paths(self):
        for exp in EXPERIMENTS.values():
            assert exp.bench.startswith("benchmarks/")
            assert exp.modules

    def test_table5_configurations(self):
        cfgs = table5_configurations()
        assert set(cfgs) == {
            "hotspot",
            "srad",
            "ray_rcp_add_sqrt",
            "ray_rcp_add_sqrt_rsqrt",
            "ray_rcp_add_sqrt_fpmul_fp",
        }
        assert cfgs["hotspot"].is_enabled("mul")
        assert not cfgs["ray_rcp_add_sqrt"].is_enabled("mul")

    def test_ray_configs_ladder(self):
        assert RAY_CONFIGS["ray_rcp_add_sqrt_fpmul_fp"].multiplier_mode == "mitchell"
        with pytest.raises(KeyError):
            RAY_CONFIGS["ray_everything"]
