"""Tests for the GPU benchmark applications (hotspot, srad, raytrace, cp)."""

import numpy as np
import pytest

from repro.apps import cp, hotspot, raytrace, srad
from repro.core import IHWConfig
from repro.quality import mae, pratt_fom, ssim, wed


class TestHotspot:
    def test_reference_converges_above_ambient(self):
        result = hotspot.reference_run(32, 32, 40)
        temps = result.output
        assert temps.shape == (32, 32)
        assert (temps > 300).all() and (temps < 400).all()

    def test_hot_blocks_are_hotter(self):
        power = hotspot.default_power_map(32, 32)
        result = hotspot.reference_run(32, 32, 40, power_map=power)
        hot = result.output[power > power.min() * 2]
        cool = result.output[power <= power.min()]
        assert hot.mean() > cool.mean()

    def test_deterministic(self):
        a = hotspot.reference_run(16, 16, 10).output
        b = hotspot.reference_run(16, 16, 10).output
        np.testing.assert_array_equal(a, b)

    def test_imprecise_quality_small_mae(self):
        # Figure 15: no perceptible degradation with all IHW on.
        ref = hotspot.reference_run(32, 32, 40)
        imp = hotspot.run(IHWConfig.all_imprecise(), 32, 32, 40)
        assert mae(imp.output, ref.output) < 1.0  # Kelvin
        assert wed(imp.output, ref.output) < 6.0

    def test_peaks_colocated(self):
        # The "hot spots" stay in the same cells (Figure 15c): every cell
        # the precise run puts in its hottest percentile is still in the
        # imprecise run's hottest 5%.
        ref = hotspot.reference_run(32, 32, 40)
        imp = hotspot.run(IHWConfig.all_imprecise(), 32, 32, 40)
        ref_hot = ref.output >= np.percentile(ref.output, 99)
        imp_hot = imp.output >= np.percentile(imp.output, 95)
        assert imp_hot[ref_hot].all()

    def test_counts_scale_with_grid(self):
        small = hotspot.reference_run(16, 16, 5)
        large = hotspot.reference_run(32, 32, 5)
        assert large.op_counts["mul"] == 4 * small.op_counts["mul"]

    def test_validation(self):
        with pytest.raises(ValueError):
            hotspot.run(None, rows=2, cols=2)
        with pytest.raises(ValueError):
            hotspot.run(None, iterations=0)
        with pytest.raises(ValueError):
            hotspot.run(None, rows=16, cols=16, power_map=np.zeros((4, 4)))

    def test_unstable_grid_refused(self):
        # At 1024^2 the explicit step crosses the forward-Euler limit
        # (2.18 > 2) and even the precise run diverges.
        with pytest.raises(ValueError, match="forward-Euler"):
            hotspot.run(None, rows=1024, cols=1024, iterations=1)
        # 768^2 (1.23) is the largest of the documented sizes still
        # inside the limit; running it takes seconds, so check the
        # coefficients the run would use.
        assert hotspot._coefficients(768, 768)["step_div_cap"] > 0

    def test_arithmetic_dominated(self):
        result = hotspot.reference_run(32, 32, 10)
        assert result.counters.arithmetic_fraction() > 0.5


class TestSRAD:
    def test_diffusion_smooths_speckle(self):
        noisy, _ = srad.speckle_phantom(48, 48)
        result = srad.reference_run(48, 48, 30)
        # Variance inside homogeneous regions shrinks.
        assert result.output[10:20, 10:20].std() < noisy[10:20, 10:20].std()

    def test_edges_survive(self):
        result = srad.reference_run(48, 48, 30)
        ideal = srad.ideal_edges(48, 48)
        fom = pratt_fom(srad.detect_edges(result.output), ideal)
        noisy, _ = srad.speckle_phantom(48, 48)
        fom_noisy = pratt_fom(srad.detect_edges(noisy), ideal)
        assert fom > fom_noisy  # diffusion improves segmentation

    def test_imprecise_fom_close_to_precise(self):
        # Figure 16: imprecise FOM ~= precise FOM (0.20 vs 0.23 there).
        ref = srad.reference_run(48, 48, 30)
        imp = srad.run(IHWConfig.all_imprecise(), 48, 48, 30)
        ideal = srad.ideal_edges(48, 48)
        fom_ref = pratt_fom(srad.detect_edges(ref.output), ideal)
        fom_imp = pratt_fom(srad.detect_edges(imp.output), ideal)
        assert abs(fom_imp - fom_ref) < 0.1

    def test_output_in_range(self):
        result = srad.run(IHWConfig.all_imprecise(), 32, 32, 20)
        assert np.isfinite(result.output).all()
        assert (result.output > 0).all()

    def test_phantom_validation(self):
        with pytest.raises(ValueError):
            srad.speckle_phantom(8, 8)

    def test_run_validation(self):
        with pytest.raises(ValueError):
            srad.run(None, iterations=0)
        with pytest.raises(ValueError):
            srad.run(None, lam=0.0)

    def test_uses_sfu(self):
        result = srad.reference_run(32, 32, 5)
        counts = result.op_counts
        assert counts.get("rcp", 0) > 0 and counts.get("div", 0) > 0


class TestRaytrace:
    @pytest.fixture(scope="class")
    def reference(self):
        return raytrace.reference_run(64, 64)

    def test_image_shape_and_range(self, reference):
        assert reference.output.shape == (64, 64)
        assert reference.output.min() >= 0.0
        assert reference.output.max() <= 1.0

    def test_spheres_visible(self, reference):
        # The center sphere is brighter than the background corners.
        img = reference.output
        assert img[28:36, 28:36].mean() > img[:6, :6].mean()

    def test_quality_ladder_matches_figure17(self, reference):
        mild = raytrace.run(IHWConfig.units("rcp", "add", "sqrt"), 64, 64)
        rsq = raytrace.run(IHWConfig.units("rcp", "add", "sqrt", "rsqrt"), 64, 64)
        s_mild = ssim(mild.output, reference.output, data_range=1.0)
        s_rsq = ssim(rsq.output, reference.output, data_range=1.0)
        assert s_mild > 0.9  # paper: 0.95
        assert s_rsq < s_mild  # adding rsqrt costs quality

    def test_table1_multiplier_destroys_image(self, reference):
        bad = raytrace.run(IHWConfig.units("rcp", "add", "sqrt", "mul"), 64, 64)
        good = raytrace.run(
            IHWConfig.units("rcp", "add", "sqrt").with_multiplier(
                "mitchell", config="fp_tr0"
            ),
            64,
            64,
        )
        s_bad = ssim(bad.output, reference.output, data_range=1.0)
        s_good = ssim(good.output, reference.output, data_range=1.0)
        # Figure 18: the full-path multiplier recovers what Table 1 destroys.
        assert s_good > s_bad + 0.15
        assert s_good > 0.75

    def test_reflections_contribute(self):
        flat = raytrace.reference_run(32, 32, depth=0)
        shiny = raytrace.reference_run(32, 32, depth=2)
        assert not np.array_equal(flat.output, shiny.output)

    def test_validation(self):
        with pytest.raises(ValueError):
            raytrace.run(None, width=4, height=4)
        with pytest.raises(ValueError):
            raytrace.run(None, depth=-1)

    def test_multiplication_heavy(self, reference):
        counts = reference.op_counts
        fpu = counts["add"] + counts["sub"] + counts["mul"]
        assert counts["mul"] / fpu > 0.3  # Table 6: mul-sensitive workload


class TestCP:
    @pytest.fixture(scope="class")
    def reference(self):
        return cp.reference_run(grid=32)

    def test_potential_finite(self, reference):
        assert np.isfinite(reference.output).all()

    def test_about_20_percent_muls_precise(self):
        result = cp.run(IHWConfig.units("mul"), grid=32)
        c = result.counters
        precise_fraction = c.precise_count("mul") / c.op_count("mul")
        assert 0.15 <= precise_fraction <= 0.35  # Table 6: ~20%

    def test_proposed_beats_truncation_at_depth(self, reference):
        # Figure 20: the configurable multiplier has lower MAE at larger
        # power reduction than intuitive truncation.
        lp = cp.run(
            IHWConfig.units("mul").with_multiplier("mitchell", config="fp_tr15"),
            grid=32,
        )
        bt = cp.run(
            IHWConfig.units("mul").with_multiplier("truncated", truncation=21),
            grid=32,
        )
        assert mae(lp.output, reference.output) < mae(bt.output, reference.output)

    def test_mae_grows_with_truncation(self, reference):
        maes = []
        for tr in (0, 10, 19):
            r = cp.run(
                IHWConfig.units("mul").with_multiplier(
                    "mitchell", config=f"lp_tr{tr}"
                ),
                grid=32,
            )
            maes.append(mae(r.output, reference.output))
        assert maes == sorted(maes)

    def test_charges_shape_field(self, reference):
        # Potential has both signs (positive and negative charges).
        assert reference.output.min() < 0 < reference.output.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            cp.run(None, grid=2)
        with pytest.raises(ValueError):
            cp.run(None, spacing=0.0)
        with pytest.raises(ValueError):
            cp.default_atoms(0)
        with pytest.raises(ValueError):
            cp.run(None, atoms=np.zeros((3, 2)))


class TestHotspotFMA:
    def test_fma_variant_matches_precise(self):
        ref = hotspot.reference_run(32, 32, 20)
        fma = hotspot.run(None, 32, 32, 20, use_fma=True)
        # Precise FMA (mul+add) equals the unfused precise form here.
        np.testing.assert_allclose(fma.output, ref.output, rtol=1e-6)

    def test_fma_variant_counts_fma_ops(self):
        result = hotspot.run(IHWConfig.all_imprecise(), 32, 32, 10, use_fma=True)
        counts = result.op_counts
        assert counts.get("fma", 0) > 0
        # The final scale-and-accumulate fused away: 3 flux muls remain
        # per cell against 1 fma.
        assert counts["mul"] == 3 * counts["fma"]

    def test_imprecise_fma_quality_comparable(self):
        # The fused form must not be categorically worse than mul+add.
        ref = hotspot.reference_run(32, 32, 20)
        unfused = hotspot.run(IHWConfig.all_imprecise(), 32, 32, 20)
        fused = hotspot.run(IHWConfig.all_imprecise(), 32, 32, 20, use_fma=True)
        from repro.quality import mae as _mae

        assert _mae(fused.output, ref.output) < 3 * _mae(unfused.output, ref.output) + 0.1
