"""Tests for the GPU timing simulator, power model, and savings algorithm."""

import hashlib
import json
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro.core import ArithmeticContext, IHWConfig
from repro.gpu import (
    COMPONENTS,
    EnergyParams,
    FERMI_GTX480,
    GPUConfig,
    GPUPowerModel,
    KernelCounters,
    OpClass,
    StallProfile,
    build_warp_stream,
    estimate_system_savings,
    pipeline_latency_ns,
    profile_kernel_stalls,
    simulate_kernel,
    simulate_sm_window,
)
from repro.hardware import HardwareLibrary


def make_counters(fpu=1000, sfu=100, alu=200, mem=300, ctrl=50, threads=3200):
    ctx = ArithmeticContext()
    a = np.ones(fpu, dtype=np.float32)
    if fpu:
        ctx.add(a, a)
    if sfu:
        ctx.rsqrt(np.ones(sfu, dtype=np.float32))
    return KernelCounters.from_context(
        ctx, "test", int_ops=alu, mem_ops=mem, ctrl_ops=ctrl, threads=threads
    )


class TestCounters:
    def test_class_counts(self):
        c = make_counters()
        counts = c.class_counts()
        assert counts[OpClass.FPU] == 1000
        assert counts[OpClass.SFU] == 100
        assert counts[OpClass.ALU] == 200
        assert counts[OpClass.MEM] == 300

    def test_arithmetic_fraction(self):
        c = make_counters()
        assert c.arithmetic_fraction() == pytest.approx(1100 / 1650)

    def test_precise_vs_imprecise_counts(self):
        ctx = ArithmeticContext(IHWConfig.units("mul"))
        a = np.ones(10, dtype=np.float32)
        ctx.mul(a, a)
        ctx.mul(a, a, precise=True)
        c = KernelCounters.from_context(ctx)
        assert c.precise_count("mul") == 10
        assert c.imprecise_count("mul") == 10
        assert c.op_count("mul") == 20

    def test_merged(self):
        a = make_counters(fpu=100, sfu=0, alu=10, mem=5, ctrl=1)
        b = make_counters(fpu=50, sfu=20, alu=5, mem=5, ctrl=2)
        m = a.merged_with(b)
        assert m.op_count("add") == 150
        assert m.int_ops == 15

    def test_warp_instruction_counts(self):
        c = make_counters(fpu=3200, sfu=0, alu=0, mem=0, ctrl=0)
        warp = c.warp_instruction_counts(32)
        assert warp[OpClass.FPU] == 100

    def test_empty_fraction(self):
        c = KernelCounters(name="empty")
        assert c.arithmetic_fraction() == 0.0

    def test_from_context_round_trips_non_arith_counts(self):
        ctx = ArithmeticContext(IHWConfig.units("add"))
        a = np.ones(7, dtype=np.float32)
        ctx.add(a, a)
        c = KernelCounters.from_context(
            ctx, name="k", int_ops=11, mem_ops=22, ctrl_ops=33, threads=44
        )
        assert c.name == "k"
        assert (c.int_ops, c.mem_ops, c.ctrl_ops, c.threads) == (11, 22, 33, 44)
        assert c.arith == dict(ctx.counts)
        # The snapshot is a copy: later context activity must not leak in.
        ctx.add(a, a)
        assert c.imprecise_count("add") == 7


class TestWarpStream:
    def test_proportions_match(self):
        mix = {OpClass.FPU: 60, OpClass.MEM: 30, OpClass.ALU: 10}
        stream = build_warp_stream(mix, 100)
        assert stream.count(OpClass.FPU) == 60
        assert stream.count(OpClass.MEM) == 30
        assert stream.count(OpClass.ALU) == 10

    def test_every_class_present_in_short_window(self):
        mix = {OpClass.FPU: 1000, OpClass.SFU: 10, OpClass.MEM: 10}
        stream = build_warp_stream(mix, 32)
        assert OpClass.SFU in stream or OpClass.MEM in stream

    def test_no_empty_slots(self):
        mix = {OpClass.FPU: 5, OpClass.CTRL: 5}
        stream = build_warp_stream(mix, 64)
        assert None not in stream

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError):
            build_warp_stream({OpClass.FPU: 0}, 10)
        with pytest.raises(ValueError):
            build_warp_stream({OpClass.FPU: 10}, 0)


class TestSimulator:
    def test_pure_fpu_ipc_near_issue_bound(self):
        mix = {OpClass.FPU: 100}
        cycles, issued = simulate_sm_window(mix, resident_warps=32, window=64)
        ipc = issued / cycles
        assert 0.8 <= ipc <= FERMI_GTX480.issue_width

    def test_sfu_serializes(self):
        fpu_only = {OpClass.FPU: 100}
        sfu_heavy = {OpClass.FPU: 50, OpClass.SFU: 50}
        c1, i1 = simulate_sm_window(fpu_only, resident_warps=32, window=64)
        c2, i2 = simulate_sm_window(sfu_heavy, resident_warps=32, window=64)
        assert i2 / c2 < i1 / c1  # SFU occupancy lowers IPC

    def test_more_warps_hide_latency(self):
        mix = {OpClass.FPU: 70, OpClass.MEM: 30}
        c_few, i_few = simulate_sm_window(mix, resident_warps=4, window=64)
        c_many, i_many = simulate_sm_window(mix, resident_warps=32, window=64)
        assert i_many / c_many > i_few / c_few

    def test_all_instructions_issue(self):
        mix = {OpClass.FPU: 50, OpClass.MEM: 30, OpClass.ALU: 20}
        cycles, issued = simulate_sm_window(mix, resident_warps=8, window=32)
        assert issued == 8 * 32

    def test_kernel_timing_scales_with_work(self):
        small = simulate_kernel(make_counters(fpu=10000, threads=3200))
        large = simulate_kernel(make_counters(fpu=100000, threads=3200))
        assert large.cycles > small.cycles
        assert large.time_s > small.time_s

    def test_kernel_timing_fields(self):
        t = simulate_kernel(make_counters())
        assert t.time_ns == pytest.approx(t.time_s * 1e9)
        assert 0 < t.occupancy <= 1
        assert t.ipc_per_sm > 0

    def test_empty_kernel_rejected(self):
        with pytest.raises(ValueError):
            simulate_kernel(KernelCounters(name="empty", threads=32))

    def test_resident_warp_validation(self):
        with pytest.raises(ValueError):
            simulate_sm_window({OpClass.FPU: 10}, resident_warps=0)



_F, _S, _A, _M, _C = OpClass.FPU, OpClass.SFU, OpClass.ALU, OpClass.MEM, OpClass.CTRL

#: Three instruction mixes drawn once from a seeded RNG and kept as literals
#: (the second has no ALU or MEM class, the third no SFU or ALU class).
GOLDEN_MIXES = (
    {_F: 373, _S: 20, _A: 240, _M: 203, _C: 92},
    {_F: 1, _S: 249, _C: 96},
    {_F: 147, _M: 336, _C: 306},
)
GOLDEN_WARPS = (1, 2, 7, 16, 32, 48)
GOLDEN_WINDOWS = (1, 5, 64, 100)
GOLDEN_CONFIGS = {
    "fermi": FERMI_GTX480,
    "issue1": replace(FERMI_GTX480, issue_width=1),
    "issue4": replace(FERMI_GTX480, issue_width=4),
    "shortmem": replace(FERMI_GTX480, mem_latency=50, mem_pipeline_depth=4),
    "sfu1": replace(FERMI_GTX480, sfu_lanes=1),
    "memdep1": replace(FERMI_GTX480, mem_dependence_distance=1),
}
#: sha256 of the JSON list of ``[cycles, issued, *StallProfile fields]``
#: over mixes x resident warps x windows (in that nesting order), as the
#: cycle-by-cycle simulator returned them.
GOLDEN_GRID_SHA256 = {
    "fermi": "c8b7a251407d9fcc3eb8ff7217d4c42032573dc7bef4033074de68b6e712004e",
    "issue1": "65e79c5530c84f7636f927ce3f081a9ddc1dd5dae6054f9f8b52eebb3ccfccb2",
    "issue4": "ae94373407580dab0312d49955d13a79aa2c9da687104c898d96bcb961c307ab",
    "shortmem": "8872e53f13d7ae3ec828cc751dc83e3a8bcf1b606e3f55d228740b1ffedbe73b",
    "sfu1": "b066e538249aeed1bc377e16873c7374d6070f15de28fe945063f9a9b434dd30",
    "memdep1": "092d0f00240208ba4ed13854b792dba4ab0f021323b452f6e9ddfd6843c20be3",
}
#: Scalar (FPU, SFU, ALU, MEM, CTRL) counts and threads of each app's
#: precise reference run at smoke size (hotspot and srad 16^2 x 4,
#: raytracing 16^2, cp 12, dct 16, blackscholes 64 options).
GOLDEN_APP_COUNTS = {
    "hotspot": (14336, 0, 3072, 2048, 128, 256),
    "srad": (36864, 3072, 18432, 28672, 128, 256),
    "raytracing": (53416, 3004, 12288, 9216, 5120, 256),
    "cp": (41484, 4608, 13824, 1440, 576, 144),
    "dct": (15360, 0, 1024, 768, 32, 4),
    "blackscholes": (2304, 384, 384, 512, 64, 64),
}
#: ``simulate_kernel`` cycles and IPC, and the ``profile_kernel_stalls``
#: fields, of each app's counts above.
GOLDEN_APP_TIMING = {
    "hotspot": (100, 0.41025641025641024, (512, 1584, 381, 0, 18, 0, 1)),
    "srad": (428, 0.42454394693200664, (512, 1619, 89, 52, 139, 0, 1)),
    "raytracing": (286, 0.6059171597633136, (512, 802, 332, 27, 16, 0, 1)),
    "cp": (355, 0.36363636363636365, (256, 1064, 12, 75, 0, 0, 1)),
    "dct": (366, 0.09800918836140889, (64, 1241, 0, 0, 0, 0, 1)),
    "blackscholes": (19, 0.4155844155844156, (128, 471, 2, 12, 2, 0, 1)),
}


class TestGoldenTiming:
    """The simulator's exact outputs, recorded from the cycle-by-cycle loop."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_grid(self, name):
        config = GOLDEN_CONFIGS[name]
        rows = []
        for mix in GOLDEN_MIXES:
            for warps in GOLDEN_WARPS:
                for window in GOLDEN_WINDOWS:
                    profile = StallProfile()
                    result = simulate_sm_window(mix, config, warps, window,
                                                profile=profile)
                    assert simulate_sm_window(mix, config, warps, window) \
                        == result
                    rows.append([*result, *astuple(profile)])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == GOLDEN_GRID_SHA256[name]

    @pytest.mark.parametrize("app", sorted(GOLDEN_APP_COUNTS))
    def test_app_reference_mix(self, app):
        fpu, sfu, alu, mem, ctrl, threads = GOLDEN_APP_COUNTS[app]
        counters = KernelCounters(
            name=app, arith={("add", "precise"): fpu, ("rcp", "precise"): sfu},
            int_ops=alu, mem_ops=mem, ctrl_ops=ctrl, threads=threads)
        timing = simulate_kernel(counters)
        profile = profile_kernel_stalls(counters)
        assert (timing.cycles, timing.ipc_per_sm, astuple(profile)) \
            == GOLDEN_APP_TIMING[app]

    def test_ends_on_max_cycles_guard(self):
        # A zero-depth memory window never admits the load, so the one warp
        # stalls on it until the guard at 2 x (400 + 16) cycles.
        config = replace(FERMI_GTX480, mem_pipeline_depth=0)
        profile = StallProfile()
        result = simulate_sm_window({_F: 1, _M: 1}, config, 1, 2,
                                    profile=profile)
        assert result == (832, 1)
        assert astuple(profile) == (1, 7, 0, 0, 0, 1656, 0)

class TestGPUConfig:
    def test_peak_gflops(self):
        # 15 SMs x 32 lanes x 0.7 GHz x 2 flops = 672 GFLOPS.
        assert FERMI_GTX480.peak_gflops() == pytest.approx(672.0)

    def test_sfu_occupancy(self):
        assert FERMI_GTX480.sfu_occupancy_cycles == 8

    def test_custom_config(self):
        small = GPUConfig(num_sms=2, fpu_lanes=16)
        assert small.peak_gflops() < FERMI_GTX480.peak_gflops()


class TestPowerModel:
    def test_all_components_present(self):
        bd = GPUPowerModel().breakdown(make_counters())
        assert set(bd.watts) == set(COMPONENTS)
        assert bd.total_w > 0

    def test_shares_sum_to_one(self):
        bd = GPUPowerModel().breakdown(make_counters())
        assert sum(bd.share(c) for c in COMPONENTS) == pytest.approx(1.0)

    def test_compute_intensive_in_figure2_band(self):
        c = make_counters(fpu=100000, sfu=8000, alu=20000, mem=15000, ctrl=3000)
        bd = GPUPowerModel().breakdown(c)
        assert 0.2 <= bd.arithmetic_share <= 0.5

    def test_memory_bound_has_lower_arith_share(self):
        compute = make_counters(fpu=100000, sfu=5000, alu=10000, mem=10000)
        memory = make_counters(fpu=20000, sfu=1000, alu=10000, mem=120000)
        pm = GPUPowerModel()
        assert pm.breakdown(memory).arithmetic_share < pm.breakdown(compute).arithmetic_share

    def test_alu_share_small(self):
        # Figure 2: the integer unit is under ~10% of total power.
        c = make_counters(fpu=100000, sfu=8000, alu=30000, mem=20000)
        bd = GPUPowerModel().breakdown(c)
        assert bd.share("ALU") < 0.10

    def test_custom_energy_params(self):
        hot = GPUPowerModel(params=EnergyParams(fpu_pj=200.0))
        cold = GPUPowerModel(params=EnergyParams(fpu_pj=10.0))
        c = make_counters()
        assert hot.breakdown(c).fpu_share > cold.breakdown(c).fpu_share

    def test_unknown_component_rejected(self):
        bd = GPUPowerModel().breakdown(make_counters())
        with pytest.raises(ValueError):
            bd.share("TPU")

    def test_format_rows(self):
        text = GPUPowerModel().breakdown(make_counters()).format_rows()
        assert "FPU" in text and "Static" in text


class TestPipelineLatency:
    def test_single_access(self):
        # One op: just the unit latency in whole cycles.
        assert pipeline_latency_ns(1, 1.3, 0.7) == pytest.approx(1 / 0.7)

    def test_pipelined_throughput(self):
        # Many ops: one per cycle after the fill.
        lat = pipeline_latency_ns(1000, 1.3, 0.7)
        assert lat == pytest.approx((999 + 1) / 0.7)

    def test_zero_accesses(self):
        assert pipeline_latency_ns(0, 1.3, 0.7) == 0.0


class TestSavings:
    def _imprecise_counters(self, config):
        ctx = ArithmeticContext(config)
        a = np.ones(10000, dtype=np.float32)
        for _ in range(4):
            ctx.mul(a, a)
        for _ in range(6):
            ctx.add(a, a)
        ctx.rcp(a)
        return KernelCounters.from_context(ctx, "mix", threads=10000)

    def test_all_imprecise_saves_most(self):
        cfg_all = IHWConfig.all_imprecise()
        cfg_add = IHWConfig.units("add")
        c = self._imprecise_counters(cfg_all)
        r_all = estimate_system_savings(c, cfg_all, 0.3, 0.05)
        r_add = estimate_system_savings(c, cfg_add, 0.3, 0.05)
        assert r_all.system_savings > r_add.system_savings

    def test_savings_bounded_by_shares(self):
        cfg = IHWConfig.all_imprecise()
        c = self._imprecise_counters(cfg)
        r = estimate_system_savings(c, cfg, 0.3, 0.05)
        assert 0 <= r.system_savings <= 0.35

    def test_mul_dominated_fpu_improvement_near_table2(self):
        # A mul-only FPU mix approaches the 96% per-unit saving.
        ctx = ArithmeticContext(IHWConfig.units("mul"))
        a = np.ones(10000, dtype=np.float32)
        ctx.mul(a, a)
        c = KernelCounters.from_context(ctx, threads=10000)
        r = estimate_system_savings(c, IHWConfig.units("mul"), 0.3, 0.0)
        assert 0.9 <= r.fpu_improvement <= 0.99

    def test_precise_pinned_ops_dilute(self):
        cfg = IHWConfig.units("mul")
        ctx = ArithmeticContext(cfg)
        a = np.ones(10000, dtype=np.float32)
        ctx.mul(a, a)
        ctx.mul(a, a, precise=True)  # half the muls pinned precise
        half = KernelCounters.from_context(ctx, threads=10000)
        r_half = estimate_system_savings(half, cfg, 0.3, 0.0)

        ctx2 = ArithmeticContext(cfg)
        ctx2.mul(a, a)
        full = KernelCounters.from_context(ctx2, threads=10000)
        r_full = estimate_system_savings(full, cfg, 0.3, 0.0)
        assert r_half.fpu_improvement < r_full.fpu_improvement

    def test_no_sfu_ops_zero_sfu_improvement(self):
        ctx = ArithmeticContext(IHWConfig.all_imprecise())
        ctx.add(np.ones(100, dtype=np.float32), 1.0)
        c = KernelCounters.from_context(ctx, threads=100)
        r = estimate_system_savings(c, IHWConfig.all_imprecise(), 0.3, 0.05)
        assert r.sfu_improvement == 0.0

    def test_invalid_shares_rejected(self):
        c = self._imprecise_counters(IHWConfig.all_imprecise())
        with pytest.raises(ValueError):
            estimate_system_savings(c, IHWConfig.all_imprecise(), 0.8, 0.5)
        with pytest.raises(ValueError):
            estimate_system_savings(c, IHWConfig.all_imprecise(), -0.1, 0.1)

    def test_analytic_library_also_works(self):
        cfg = IHWConfig.all_imprecise()
        c = self._imprecise_counters(cfg)
        r = estimate_system_savings(
            c, cfg, 0.3, 0.05, library=HardwareLibrary.analytic()
        )
        assert r.system_savings > 0

    def test_report_format(self):
        cfg = IHWConfig.all_imprecise()
        c = self._imprecise_counters(cfg)
        text = estimate_system_savings(c, cfg, 0.3, 0.05).format_row()
        assert "holistic" in text and "arith" in text


class TestStallProfile:
    def test_slots_accounted(self):
        from repro.gpu import StallProfile, simulate_sm_window

        profile = StallProfile()
        mix = {OpClass.FPU: 60, OpClass.MEM: 30, OpClass.ALU: 10}
        cycles, issued = simulate_sm_window(mix, resident_warps=8, window=32,
                                            profile=profile)
        assert profile.issued == issued
        # Every (cycle, slot) pair is accounted once.
        assert profile.total_slots == cycles * FERMI_GTX480.issue_width

    def test_fractions_sum_to_one(self):
        from repro.gpu import StallProfile, simulate_sm_window

        profile = StallProfile()
        simulate_sm_window({OpClass.FPU: 10}, resident_warps=4, window=16,
                           profile=profile)
        assert sum(profile.fractions().values()) == pytest.approx(1.0)

    def test_sfu_heavy_kernel_sfu_port_bound(self):
        from repro.gpu import profile_kernel_stalls

        sfu_heavy = make_counters(fpu=2000, sfu=100000, alu=100, mem=100)
        profile = profile_kernel_stalls(sfu_heavy)
        fr = profile.fractions()
        assert fr["sfu_port"] + fr["dependency"] > 0.4

    def test_mem_bound_kernel_shows_memory_stalls(self):
        from repro.gpu import profile_kernel_stalls

        mem_heavy = make_counters(fpu=5000, sfu=0, alu=1000, mem=200000)
        compute = make_counters(fpu=200000, sfu=0, alu=1000, mem=2000)
        fr_mem = profile_kernel_stalls(mem_heavy).fractions()
        fr_cmp = profile_kernel_stalls(compute).fractions()
        mem_stalls = fr_mem["mem_bandwidth"] + fr_mem["lsu_port"] + fr_mem["dependency"]
        cmp_stalls = fr_cmp["mem_bandwidth"] + fr_cmp["lsu_port"] + fr_cmp["dependency"]
        assert mem_stalls > cmp_stalls

    def test_empty_kernel_rejected(self):
        from repro.gpu import KernelCounters, profile_kernel_stalls

        with pytest.raises(ValueError):
            profile_kernel_stalls(KernelCounters(name="empty", threads=32))

    def test_format_rows(self):
        from repro.gpu import profile_kernel_stalls

        text = profile_kernel_stalls(make_counters()).format_rows()
        assert "issued" in text and "dependency" in text
