"""Tests for error metrics, bounds, and quasi-MC characterization."""

import math

import numpy as np
import pytest

from repro.core import FULL_PATH_MAX_ERROR, LOG_PATH_MAX_ERROR
from repro.core import backends
from repro.erroranalysis import (
    ErrorPMF,
    UNIT_CHARACTERIZATIONS,
    adder_addition_bound,
    adder_case_bound,
    adder_subtraction_bound,
    bin_errors,
    characterize,
    characterize_multiplier_config,
    characterize_multiplier_configs,
    characterize_unit,
    characterize_units,
    error_stats,
    full_path_bound,
    log_path_bound,
    mantissa_inputs,
    mitchell_pointwise_error,
    relative_errors,
    sobol_unit,
    uniform_inputs,
)


class TestQuasiRandom:
    def test_sobol_shape_and_range(self):
        pts = sobol_unit(1000, 3)
        assert pts.shape == (1000, 3)
        assert (pts >= 0).all() and (pts < 1).all()

    def test_sobol_more_uniform_than_pseudorandom(self):
        # Low-discrepancy: bin counts of 4096 Sobol points over 16 bins are
        # nearly exactly 256 each, unlike a pseudo-random draw.
        pts = sobol_unit(4096, 1)[:, 0]
        counts, _ = np.histogram(pts, bins=16, range=(0, 1))
        assert counts.max() - counts.min() <= 8

    def test_sobol_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sobol_unit(0, 1)
        with pytest.raises(ValueError):
            sobol_unit(10, 0)

    def test_uniform_inputs(self):
        a, b = uniform_inputs(500, 2, low=2.0, high=4.0)
        assert a.dtype == np.float32
        assert (a >= 2.0).all() and (a < 4.0).all()
        assert (b >= 2.0).all() and (b < 4.0).all()

    def test_uniform_inputs_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            uniform_inputs(10, 2, low=1.0, high=1.0)

    def test_mantissa_inputs_cover_exponents(self):
        (x,) = mantissa_inputs(4096, 1, exponent_range=(-2, 2))
        exps = np.floor(np.log2(np.abs(x.astype(np.float64))))
        assert set(np.unique(exps)) == {-2, -1, 0, 1, 2}

    def test_mantissa_inputs_rejects_bad_range(self):
        with pytest.raises(ValueError):
            mantissa_inputs(10, 1, exponent_range=(3, 1))


class TestMetrics:
    def test_relative_errors_basic(self):
        rel = relative_errors([1.1, 2.0], [1.0, 2.0])
        np.testing.assert_allclose(rel, [0.1, 0.0], atol=1e-12)

    def test_relative_errors_drops_zero_exact(self):
        rel = relative_errors([1.0, 5.0], [0.0, 4.0])
        assert rel.shape == (1,)

    def test_error_stats_values(self):
        stats = error_stats([1.1, 2.0, 2.7], [1.0, 2.0, 3.0])
        assert stats.eps_max == pytest.approx(0.1)
        assert stats.error_rate == pytest.approx(2 / 3)
        assert stats.wed == pytest.approx(0.3)
        assert stats.med == pytest.approx(0.4 / 3)
        assert stats.samples == 3

    def test_error_stats_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_stats([1.0], [1.0, 2.0])

    def test_error_stats_no_valid_pairs(self):
        with pytest.raises(ValueError):
            error_stats([np.nan], [np.nan])

    def test_str_renders(self):
        s = str(error_stats([1.1], [1.0]))
        assert "eps_max" in s


class TestBinning:
    def test_bin_labels(self):
        # 3% error -> ceil(log2 3) = 2; 0.4% -> ceil(log2 0.4) = -1.
        bins, counts = bin_errors(np.array([0.03, 0.004]))
        assert list(bins) == [-1, 2]
        assert list(counts) == [1, 1]

    def test_zero_errors_excluded(self):
        bins, counts = bin_errors(np.array([0.0, 0.0, 0.01]))
        assert counts.sum() == 1

    def test_empty(self):
        bins, counts = bin_errors(np.array([]))
        assert bins.size == 0 and counts.size == 0

    def test_exact_power_boundary(self):
        # exactly 1%: ceil(log2 1) = 0.
        bins, _ = bin_errors(np.array([0.01]))
        assert list(bins) == [0]


class TestPMF:
    def test_characterize_probabilities_sum_to_error_rate(self):
        approx = np.array([1.0, 1.1, 2.0, 3.3])
        exact = np.array([1.0, 1.0, 2.0, 3.0])
        pmf = characterize(approx, exact, label="demo")
        assert pmf.error_rate == pytest.approx(0.5)
        assert pmf.label == "demo"

    def test_probability_above(self):
        pmf = characterize([1.1, 1.001], [1.0, 1.0])
        # 10% error is in bin ceil(log2 10) = 4: entire bin above 8%.
        assert pmf.probability_above(8.0) == pytest.approx(0.5)
        assert pmf.probability_above(0.0) == pmf.error_rate

    def test_format_rows(self):
        pmf = characterize([1.1], [1.0])
        text = pmf.format_rows()
        assert "error rate" in text


class TestUnitCharacterization:
    @pytest.mark.parametrize("name", sorted(UNIT_CHARACTERIZATIONS))
    def test_all_units_run(self, name):
        pmf = characterize_unit(name, n_samples=4096)
        assert isinstance(pmf, ErrorPMF)
        assert pmf.stats.samples > 0

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            characterize_unit("bogus")

    def test_fpadd_is_fsm(self):
        # Figure 8: the adder's errors are frequent but small-magnitude.
        pmf = characterize_unit("ifpadd", n_samples=65536)
        assert pmf.error_rate > 0.9
        assert pmf.probability_above(8.0) < 0.01
        assert pmf.dominant_bin() <= 0  # mass below 1%

    def test_fpmul_bounded_by_25_percent(self):
        pmf = characterize_unit("ifpmul", n_samples=65536)
        assert pmf.stats.eps_max <= 0.25 + 1e-6
        assert pmf.stats.eps_max > 0.2

    def test_rcp_bounded(self):
        pmf = characterize_unit("ircp", n_samples=65536)
        assert pmf.stats.eps_max <= 0.0591

    def test_multiplier_configs(self):
        full = characterize_multiplier_config("fp_tr0", n_samples=65536)
        log = characterize_multiplier_config("lp_tr0", n_samples=65536)
        assert full.stats.eps_max <= FULL_PATH_MAX_ERROR + 1e-6
        assert log.stats.eps_max <= LOG_PATH_MAX_ERROR + 1e-6
        assert full.stats.eps_mean < log.stats.eps_mean

    def test_multiplier_truncation_shifts_mass_right(self):
        # Figure 9: more truncation clusters probability at larger bins.
        tr17 = characterize_multiplier_config("lp_tr17", n_samples=65536)
        tr19 = characterize_multiplier_config("lp_tr19", n_samples=65536)
        assert tr19.dominant_bin() >= tr17.dominant_bin()

    def test_bt_baseline_config(self):
        pmf = characterize_multiplier_config("bt_21", n_samples=16384)
        assert pmf.label == "bt_21"
        assert pmf.stats.eps_max > 0.1

    def test_multiplier_config_object(self):
        from repro.core import MultiplierConfig

        pmf = characterize_multiplier_config(MultiplierConfig("full", 5), 4096)
        assert pmf.label == "fp_tr5"


class TestDefaultBackendRouting:
    """Characterization runs its units on the default compute backend."""

    UNITS = sorted(UNIT_CHARACTERIZATIONS)
    MULTIPLIERS = ["fp_tr8", "lp_tr19", "bt_16"]

    def _pmfs(self):
        pmfs = characterize_units(self.UNITS, n_samples=4096, seed=3)
        pmfs.update(characterize_multiplier_configs(
            self.MULTIPLIERS, n_samples=4096, seed=3))
        return pmfs

    def test_pmfs_bit_identical_to_reference(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        assert backends.default_backend_name() != "reference"
        default = self._pmfs()
        monkeypatch.setenv(backends.ENV_VAR, "reference")
        reference = self._pmfs()
        assert list(default) == list(reference)
        assert len(default) == len(self.UNITS) + len(self.MULTIPLIERS)
        for label, pmf in default.items():
            ref = reference[label]
            assert np.array_equal(pmf.bins, ref.bins), label
            assert pmf.probabilities.tobytes() == ref.probabilities.tobytes()
            assert pmf.stats == ref.stats, label

    def test_default_backend_sees_the_calls(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        name = backends.default_backend_name()
        make = backends._FACTORIES[name]
        seen = []

        def record(op, method):
            def wrapper(*args, **kwargs):
                seen.append(op)
                return method(*args, **kwargs)
            return wrapper

        def recording(**kwargs):
            backend = make(**kwargs)
            for op in ("imprecise_fma", "configurable_multiply",
                       "truncated_multiply"):
                setattr(backend, op, record(op, getattr(backend, op)))
            return backend

        monkeypatch.setitem(backends._FACTORIES, name, recording)
        characterize_units(["ifma"], n_samples=1024)
        characterize_multiplier_configs(["lp_tr19", "bt_16"], n_samples=1024)
        assert seen == ["imprecise_fma", "configurable_multiply",
                        "truncated_multiply"]


class TestBounds:
    def test_adder_addition_bound_th8(self):
        # Paper: eps_max < 0.785% at TH = 8 (case a dominates at small TH).
        assert adder_addition_bound(8) <= 0.00785

    def test_adder_subtraction_bound_th8(self):
        assert adder_subtraction_bound(8) == pytest.approx(1 / 127)

    def test_case_d_unbounded(self):
        assert math.isinf(adder_case_bound(8, 3, subtraction=True))

    def test_case_a_vs_c(self):
        assert adder_case_bound(8, 10, False) < adder_case_bound(8, 10, True)

    def test_bounds_decrease_with_threshold(self):
        vals = [adder_addition_bound(t) for t in range(2, 20)]
        assert vals == sorted(vals, reverse=True)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            adder_addition_bound(0)
        with pytest.raises(ValueError):
            adder_subtraction_bound(1)
        with pytest.raises(ValueError):
            adder_case_bound(8, -1, False)

    def test_path_bounds(self):
        assert full_path_bound(0) == pytest.approx(FULL_PATH_MAX_ERROR, abs=1e-6)
        assert log_path_bound(0) == pytest.approx(LOG_PATH_MAX_ERROR, abs=1e-6)
        assert full_path_bound(19) > full_path_bound(0)
        with pytest.raises(ValueError):
            full_path_bound(-1)
        with pytest.raises(ValueError):
            log_path_bound(24)

    def test_mitchell_worst_case_point(self):
        # x1 = x2 = 0.5 is the 1/9 maximum.
        err = mitchell_pointwise_error(0.4999999, 0.4999999)
        assert err == pytest.approx(1 / 9, rel=1e-4)
        assert mitchell_pointwise_error(0.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            mitchell_pointwise_error(1.0, 0.5)

    def test_empirical_never_exceeds_analytic(self):
        pmf = characterize_unit("ifpadd", n_samples=65536)
        # Effective additions and case-c subtractions obey the bounds; the
        # PMF includes case-d so only check that mass above 8% is negligible
        # (the paper's Figure-8 observation).
        assert pmf.probability_above(8.0) < 0.01
