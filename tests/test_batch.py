"""Per-config loops and sweeps that mix datapaths.

Covers:

- backend: the ``ComputeBackend`` ``*_batch`` loops return one result per
  configuration, each bit-identical to the per-config call;
- config: cache-key independence from the backend choice;
- runtime: sweeps mixing adder thresholds and multiplier modes produce
  identical results, cache entries, and rerun behavior pooled and
  sequential, and no backend (nor its scratch) outlives its context or
  the sweep that built it.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ArithmeticContext, IHWConfig
from repro.core.backends import get_backend
from repro.core.backends.fused import FusedBackend
from repro.runtime import ExperimentRunner, ExperimentSpec, ResultCache

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
        backend = get_backend("threaded")
        a = np.ones(8, dtype=np.float32)
        with pytest.raises(ValueError, match="rounding"):
            backend.truncated_multiply_batch(a, a, [0, 8], rounding=[True])

    def test_empty_batch_returns_empty(self):
        backend = get_backend("threaded")
        a = np.ones(8, dtype=np.float32)
        assert backend.imprecise_add_batch(a, a, []) == []
        assert backend.configurable_multiply_batch(a, a, []) == []
        assert backend.truncated_multiply_batch(a, a, []) == []


# ----------------------------------------------------------------------
# Config layer
# ----------------------------------------------------------------------
class TestBatchGrouping:
    def test_cache_key_is_batch_invariant(self):
        """The backend choice must never fragment the result cache."""
        cfg = IHWConfig.all_imprecise()
        assert cfg.cache_key() == cfg.with_backend("threaded").cache_key()


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


#: FusedBackends built while a test tracks them (see ``_track_fused``);
#: each process, pool workers included, keeps its own copy.
_FUSED_BUILT: list = []
_FUSED_ALIVE: "weakref.WeakSet" = weakref.WeakSet()


def _track_fused(monkeypatch):
    init = FusedBackend.__init__

    def tracked(self):
        init(self)
        _FUSED_BUILT.append(None)
        _FUSED_ALIVE.add(self)

    _FUSED_BUILT.clear()
    monkeypatch.setattr(FusedBackend, "__init__", tracked)


def _fused_census(_=None):
    """(built, alive) tracked FusedBackends of the calling process."""
    gc.collect()
    return len(_FUSED_BUILT), len(_FUSED_ALIVE)


def _evaluation_equal(a, b):
    return (
        a.quality == b.quality
        and a.savings == b.savings
        and np.array_equal(a.output, b.output)
    )


class TestBatchedSweep:
    """Sweeps whose configurations span several datapaths."""

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
        """Fixed-size chunks that mix datapaths match the sequential run."""
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
        assert runner.stats.cache_misses == len(configs)

    def test_resume_after_interruption_pooled(self, tmp_path):
        cache = ResultCache(tmp_path / "resume")
        configs = _mixed_configs()
        first = dict(list(configs.items())[:3])
        ExperimentRunner(max_workers=2, cache=cache).sweep(SPEC, first)
        resumed_runner = ExperimentRunner(max_workers=2, cache=cache)
        results = resumed_runner.sweep(SPEC, configs)
        assert list(results) == list(configs)
        assert resumed_runner.stats.cache_hits == len(first)

    def test_no_backend_outlives_its_context_or_sweep(self, monkeypatch):
        """Scratch needs no reclaiming: backends die with their contexts."""
        _track_fused(monkeypatch)
        context = ArithmeticContext(IHWConfig.all_imprecise(),
                                    backend="threaded")
        backend = weakref.ref(context.backend)
        del context
        assert backend() is None

        configs = {name: config.with_backend("threaded")
                   for name, config in _mixed_configs().items()}
        ExperimentRunner(max_workers=1, cache=None).sweep(SPEC, configs)
        built, alive = _fused_census()
        assert built > 0 and alive == 0

        runner = ExperimentRunner(max_workers=2, cache=None)
        runner.sweep(SPEC, configs)
        assert _fused_census()[1] == 0
        census = list(runner._pool.map(_fused_census, range(4)))
        assert any(built for built, _ in census)
        assert all(alive == 0 for _, alive in census)

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
