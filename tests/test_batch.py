"""Per-config loops, batch signatures and mixed-signature sweeps.

Covers:

- backend: the ``ComputeBackend`` ``*_batch`` loops return one result per
  configuration, each bit-identical to the per-config call;
- config: batch signatures and cache-key independence;
- runtime: sweeps over mixed batch signatures produce identical results,
  cache entries, and resume behavior pooled and sequential, and scratch
  pools are reclaimed between tasks with the high-water gauge published.
"""

import numpy as np
import pytest

from repro.core import IHWConfig
from repro.core.backends import (
    get_backend,
    release_all_scratch,
    scratch_nbytes,
)
from repro.core.backends.base import ComputeBackend
from repro.runtime import ExperimentRunner, ExperimentSpec, ResultCache
from repro.runtime.stats import group_key

SPEC = ExperimentSpec.create(
    "hotspot", metric="mae", rows=16, cols=16, iterations=3
)


def _bits(x):
    fmt_uint = {4: np.uint32, 8: np.uint64, 2: np.uint16}[x.dtype.itemsize]
    return np.asarray(x).view(fmt_uint)


def _assert_identical(a, b):
    __tracebackhide__ = True
    assert np.array_equal(_bits(a), _bits(b))


# ----------------------------------------------------------------------
# Backend layer
# ----------------------------------------------------------------------
class TestBatchedBackendParity:
    def test_reference_batch_is_the_per_config_loop(self):
        backend = get_backend("reference")
        rng = np.random.default_rng(5)
        a = rng.normal(size=256).astype(np.float32)
        b = rng.normal(size=256).astype(np.float32)
        thresholds = [1, 8, 8, 16]
        outs = backend.imprecise_add_batch(a, b, thresholds)
        assert len(outs) == len(thresholds)
        for th, out in zip(thresholds, outs):
            _assert_identical(out, backend.imprecise_add(a, b, threshold=th))
        # Duplicate thresholds produce identical bits, independently.
        _assert_identical(outs[1], outs[2])

    def test_truncated_batch_rounding_length_mismatch(self):
        backend = get_backend("fused")
        a = np.ones(8, dtype=np.float32)
        with pytest.raises(ValueError, match="rounding"):
            backend.truncated_multiply_batch(a, a, [0, 8], rounding=[True])

    def test_empty_batch_returns_empty(self):
        backend = get_backend("fused")
        a = np.ones(8, dtype=np.float32)
        assert backend.imprecise_add_batch(a, a, []) == []
        assert backend.configurable_multiply_batch(a, a, []) == []
        assert backend.truncated_multiply_batch(a, a, []) == []


# ----------------------------------------------------------------------
# Config layer
# ----------------------------------------------------------------------
class TestBatchGrouping:
    def test_signature_ignores_batchable_knobs_and_backend(self):
        a = IHWConfig.all_imprecise(adder_threshold=1)
        b = IHWConfig.all_imprecise(adder_threshold=23).with_backend("fused")
        assert a.batch_signature() == b.batch_signature()

    def test_signature_splits_on_structural_switches(self):
        base = IHWConfig.units("mul")
        mitchell = base.with_multiplier("mitchell", config="fp_tr0")
        truncated = base.with_multiplier("truncated", truncation=8)
        assert mitchell.batch_signature() != truncated.batch_signature()
        quad = IHWConfig.units("rcp").with_sfu_mode("quadratic")
        assert quad.batch_signature() != IHWConfig.units("rcp").batch_signature()

    def test_cache_key_is_batch_invariant(self):
        """The backend choice must never fragment the result cache."""
        cfg = IHWConfig.all_imprecise()
        assert cfg.cache_key() == cfg.with_backend("fused").cache_key()


# ----------------------------------------------------------------------
# Runtime layer
# ----------------------------------------------------------------------
def _mixed_configs():
    base = IHWConfig.units("mul")
    return {
        "th4": IHWConfig.all_imprecise(adder_threshold=4),
        "bt8": base.with_multiplier("truncated", truncation=8),
        "th8": IHWConfig.all_imprecise(adder_threshold=8),
        "fp_tr0": base.with_multiplier("mitchell", config="fp_tr0"),
        "th12": IHWConfig.all_imprecise(adder_threshold=12),
        "bt16": base.with_multiplier("truncated", truncation=16),
    }


def _evaluation_equal(a, b):
    return (
        a.quality == b.quality
        and a.savings == b.savings
        and np.array_equal(a.output, b.output)
    )


class TestBatchedSweep:
    """Sweeps whose configurations span several batch signatures."""

    def test_pooled_matches_sequential_and_shares_cache(self, tmp_path):
        configs = _mixed_configs()
        pooled_runner = ExperimentRunner(
            max_workers=2, cache=ResultCache(tmp_path / "pooled")
        )
        pooled = pooled_runner.sweep(SPEC, configs)
        sequential_runner = ExperimentRunner(
            max_workers=1, cache=ResultCache(tmp_path / "sequential")
        )
        sequential = sequential_runner.sweep(SPEC, configs)

        assert list(pooled) == list(configs)  # insertion order preserved
        for name in configs:
            assert _evaluation_equal(pooled[name], sequential[name]), name

        # Identical cache entries: the pooled run serves a sequential
        # runner with a 100% hit rate.
        crossover = ExperimentRunner(
            max_workers=1, cache=ResultCache(tmp_path / "pooled")
        )
        again = crossover.sweep(SPEC, configs)
        assert crossover.stats.cache_hits == len(configs)
        for name in configs:
            assert _evaluation_equal(again[name], pooled[name]), name

    def test_batched_sweep_in_worker_pool(self, tmp_path):
        """Fixed-size chunks that mix signatures, with per-group accounting."""
        configs = _mixed_configs()
        runner = ExperimentRunner(
            max_workers=2, chunk_size=3,
            cache=ResultCache(tmp_path / "pool"),
        )
        pooled = runner.sweep(SPEC, configs)
        sequential = ExperimentRunner(max_workers=1, cache=None).sweep(
            SPEC, configs
        )
        for name in configs:
            assert _evaluation_equal(pooled[name], sequential[name]), name
        assert runner.stats.chunk_size == 3
        expected = {}
        for config in configs.values():
            key = group_key(config)
            expected[key] = expected.get(key, 0) + 1
        groups = runner.stats.signature_groups
        assert {k: v["misses"] for k, v in groups.items()} == expected
        assert all(v["hits"] == 0 for v in groups.values())

    def test_resume_after_interruption_pooled(self, tmp_path):
        cache = ResultCache(tmp_path / "resume")
        configs = _mixed_configs()
        first = dict(list(configs.items())[:3])
        ExperimentRunner(max_workers=2, cache=cache).sweep(SPEC, first)
        resumed_runner = ExperimentRunner(max_workers=2, cache=cache)
        results = resumed_runner.sweep(SPEC, configs, resume=True)
        assert list(results) == list(configs)
        assert resumed_runner.stats.cache_hits == len(first)

    def test_evaluate_many_runner_passthrough(self):
        framework = SPEC.framework()
        runner = ExperimentRunner(max_workers=2, cache=None)
        configs = {"th4": IHWConfig.all_imprecise(adder_threshold=4),
                   "th8": IHWConfig.all_imprecise(adder_threshold=8)}
        pooled = framework.evaluate_many(configs, runner=runner)
        direct = {name: SPEC.framework().evaluate(cfg)
                  for name, cfg in configs.items()}
        for name in configs:
            assert _evaluation_equal(pooled[name], direct[name]), name


class TestScratchReclamation:
    def test_runner_reclaims_and_publishes_high_water(self):
        from repro import telemetry
        from repro.runtime.runner import _reclaim_scratch

        release_all_scratch()
        backend = get_backend("fused")
        a = np.linspace(0.5, 2.0, 4096, dtype=np.float32)
        backend.imprecise_add(a, a, 8)
        held = scratch_nbytes()
        assert held > 0
        with telemetry.override("metrics"):
            telemetry.reset()
            assert _reclaim_scratch() == held
            snapshot = telemetry.get_registry().drain()
            gauges = {s["name"]: s for s in snapshot}
            assert gauges["repro_backend_scratch_bytes"]["value"] == held
            telemetry.reset()
        assert backend.scratch_nbytes() == 0
        assert _reclaim_scratch() == 0  # idempotent no-op when empty

    def test_sweep_leaves_no_scratch_behind(self):
        release_all_scratch()
        runner = ExperimentRunner(max_workers=1, cache=None)
        runner.sweep(SPEC, {
            "th8": IHWConfig.all_imprecise().with_backend("fused"),
        })
        assert scratch_nbytes() == 0

    def test_base_backend_scratch_contract(self):
        backend = ComputeBackend()
        assert backend.scratch_nbytes() == 0
        assert backend.release_scratch() == 0
