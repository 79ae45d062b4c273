"""The multi-core backend leg: thread policy, tiled parity, pool pinning.

Covers the four layers of the parallel contract:

- policy: :mod:`repro.core.backends.threads` resolution order (explicit >
  worker pin > ``REPRO_THREADS`` > CPU count) and clamping rules;
- backend: the ``threaded`` tiling machinery stays bit-identical to the
  reference kernels even with a forced tiny tile width;
- config/registry: ``backend_threads`` plumbs through ``IHWConfig`` and
  ``get_backend`` without ever reaching a serial backend or the cache key;
- runtime: a sweep through a ``ProcessPoolExecutor`` pins worker-side
  backends to one thread and stays bit-identical to the sequential path,
  and the ``repro_backend_threads`` gauge / per-backend op counters are
  published.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.core import ArithmeticContext, IHWConfig
from repro.core.backends import ENV_VAR as BACKEND_ENV_VAR
from repro.core.backends import backend_accepts_threads, get_backend
from repro.core.backends import threads as threads_mod
from repro.core.backends.parity import check_parity
from repro.core.backends.threaded import MIN_TILE_ELEMENTS, ThreadedFusedBackend
from repro.runtime import ExperimentRunner, ExperimentSpec, ResultCache

SPEC = ExperimentSpec.create(
    "hotspot", metric="mae", rows=16, cols=16, iterations=3
)


@pytest.fixture(autouse=True)
def _fresh_thread_policy(monkeypatch):
    monkeypatch.delenv(threads_mod.ENV_VAR, raising=False)
    threads_mod.reset()
    yield
    threads_mod.reset()


def _assert_identical(a, b):
    __tracebackhide__ = True
    fmt_uint = {4: np.uint32, 8: np.uint64}[np.asarray(a).dtype.itemsize]
    assert np.array_equal(np.asarray(a).view(fmt_uint),
                          np.asarray(b).view(fmt_uint))


# ----------------------------------------------------------------------
# Thread-count policy
# ----------------------------------------------------------------------
class TestThreadPolicy:
    def test_default_is_cpu_count(self):
        assert threads_mod.resolve_thread_count() == threads_mod.cpu_count()

    def test_explicit_wins_and_is_not_clamped(self):
        big = threads_mod.cpu_count() + 7
        assert threads_mod.resolve_thread_count(big) == big

    def test_explicit_below_one_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            threads_mod.resolve_thread_count(0)

    def test_env_var_honored(self, monkeypatch):
        monkeypatch.setenv(threads_mod.ENV_VAR, "1")
        assert threads_mod.resolve_thread_count() == 1

    def test_env_var_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv(threads_mod.ENV_VAR,
                           str(threads_mod.cpu_count() + 100))
        assert threads_mod.resolve_thread_count() == threads_mod.cpu_count()

    def test_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(threads_mod.ENV_VAR, "lots")
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            threads_mod.resolve_thread_count()
        monkeypatch.setenv(threads_mod.ENV_VAR, "0")
        with pytest.raises(ValueError, match=">= 1"):
            threads_mod.resolve_thread_count()

    def test_worker_pin_forces_one_thread(self, monkeypatch):
        monkeypatch.setenv(threads_mod.ENV_VAR, "4")
        threads_mod.pin_worker_threads()
        assert threads_mod.worker_pinned()
        assert threads_mod.resolve_thread_count() == 1
        # An explicit request still beats the pin (deliberate nesting).
        assert threads_mod.resolve_thread_count(3) == 3
        threads_mod.reset()
        assert not threads_mod.worker_pinned()


# ----------------------------------------------------------------------
# Registry and config plumbing
# ----------------------------------------------------------------------
class TestThreadsPlumbing:
    def test_accepts_threads_predicate(self):
        assert backend_accepts_threads("threaded")
        assert not backend_accepts_threads("reference")

    def test_get_backend_forwards_threads(self):
        assert get_backend("threaded", threads=2).threads == 2
        assert get_backend("threaded").threads == threads_mod.cpu_count()

    def test_get_backend_rejects_threads_for_serial_backends(self):
        with pytest.raises(ValueError, match="does not take a thread"):
            get_backend("reference", threads=2)

    def test_config_backend_threads_validation(self):
        assert IHWConfig(backend_threads=2).backend_threads == 2
        with pytest.raises(ValueError, match="backend_threads"):
            IHWConfig(backend_threads=0)

    def test_config_with_backend_sets_threads(self):
        cfg = IHWConfig.all_imprecise().with_backend("threaded", threads=2)
        assert cfg.backend == "threaded"
        assert cfg.backend_threads == 2
        assert "threads=2" in cfg.describe()

    def test_backend_threads_never_changes_cache_key(self):
        base = IHWConfig.all_imprecise()
        pinned = base.with_backend("threaded", threads=8)
        assert pinned.cache_key() == base.cache_key()
        assert pinned.canonical() == base.canonical()

    def test_context_uses_config_threads(self):
        ctx = ArithmeticContext(
            IHWConfig(backend="threaded", backend_threads=2))
        assert ctx.backend.name == "threaded"
        assert ctx.backend.threads == 2

    def test_context_ignores_threads_for_serial_backend(self, monkeypatch):
        # backend_threads set but the resolved backend is serial: the
        # count must be dropped, not passed (which would raise).
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        ctx = ArithmeticContext(IHWConfig(backend_threads=4))
        assert ctx.backend.name == "reference"


# ----------------------------------------------------------------------
# Threaded backend: tiling machinery and bit identity
# ----------------------------------------------------------------------
class TestThreadedBackend:
    def test_bounds_partition_the_range(self):
        bounds = ThreadedFusedBackend._bounds(10, 3)
        assert bounds == [0, 4, 7, 10]
        for n, tiles in ((1, 1), (100, 7), (64, 64)):
            b = ThreadedFusedBackend._bounds(n, tiles)
            assert b[0] == 0 and b[-1] == n and len(b) == tiles + 1
            assert all(hi > lo for lo, hi in zip(b, b[1:]))

    def test_small_arrays_stay_inline(self):
        backend = ThreadedFusedBackend(threads=4)
        assert backend._tile_count(MIN_TILE_ELEMENTS) == 1
        assert backend._tile_count(4 * MIN_TILE_ELEMENTS) == 4
        assert backend._tile_count(10**9) == 4

    def test_floor_boundary_sizes_tile_as_documented(self):
        # Nothing below two full tiles leaves the caller; above it every
        # tile holds at least MIN_TILE_ELEMENTS, up to one per thread.
        two = ThreadedFusedBackend(threads=2)
        assert two._tile_count(2 * MIN_TILE_ELEMENTS - 1) == 1
        assert two._tile_count(2 * MIN_TILE_ELEMENTS) == 2
        four = ThreadedFusedBackend(threads=4)
        assert four._tile_count(3 * MIN_TILE_ELEMENTS - 1) == 2
        assert four._tile_count(3 * MIN_TILE_ELEMENTS) == 3
        # Characterization's 2^18-sample ops stay untiled.
        assert two._tile_count(1 << 18) == 1

    def test_untiled_op_gets_the_callers_operands(self):
        """A 256^2 op at 2 threads runs on shard 0, operands untouched."""
        backend = ThreadedFusedBackend(threads=2)
        seen = []
        shard = backend._shards[0]
        real = shard.imprecise_add

        def spy(a, b, **kwargs):
            seen.append((a, b))
            return real(a, b, **kwargs)

        shard.imprecise_add = spy
        a = np.ones((256, 256), dtype=np.float32)
        out = backend.imprecise_add(a, 2.0, 8)
        assert seen[0][0] is a and seen[0][1] == 2.0
        assert len(backend._shards) == 1
        _assert_identical(out, get_backend("reference").imprecise_add(a, 2.0, 8))

    def test_pinned_worker_never_tiles(self):
        threads_mod.pin_worker_threads()
        backend = ThreadedFusedBackend()
        assert backend.threads == 1
        assert backend._tile_count(10**9) == 1
        a = np.ones(2 * MIN_TILE_ELEMENTS, dtype=np.float32)
        backend.imprecise_multiply(a, a)
        assert len(backend._shards) == 1

    def test_large_op_fans_out(self):
        backend = ThreadedFusedBackend(threads=2)
        a = np.linspace(1, 2, 2 * MIN_TILE_ELEMENTS, dtype=np.float32)
        out = backend.imprecise_multiply(a, a)
        assert len(backend._shards) == 2
        _assert_identical(out, get_backend("reference").imprecise_multiply(a, a))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forced_tiling_parity(self, dtype):
        """Bit identity with real multi-tile execution on small vectors."""
        backend = ThreadedFusedBackend(threads=4)
        backend._min_tile = 64  # force the tiled path in the harness
        assert check_parity(backend, dtype=dtype, n_random=1024) == []

    def test_tiled_matches_untiled_2d(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(64, 64)).astype(np.float32)
        b = rng.normal(size=(64, 64)).astype(np.float32)
        tiled = ThreadedFusedBackend(threads=3)
        tiled._min_tile = 128
        inline = ThreadedFusedBackend(threads=1)
        out = tiled.imprecise_add(a, b, 8)
        assert out.shape == a.shape
        _assert_identical(out, inline.imprecise_add(a, b, 8))

    def test_scratch_accounting_aggregates_shards(self):
        backend = ThreadedFusedBackend(threads=2)
        backend._min_tile = 64
        rng = np.random.default_rng(4)
        a = rng.normal(size=512).astype(np.float32)
        backend.imprecise_add(a, a, 8)
        assert len(backend._shards) == 2
        assert backend.scratch_nbytes() > 0
        assert backend.release_scratch() > 0
        assert backend.scratch_nbytes() == 0


def test_numba_backends_raise_without_numba():
    names = r"\('reference', 'threaded'\)"
    for name in ("numba", "numba-parallel"):
        assert not backend_accepts_threads(name)
        with pytest.raises(ValueError, match=names):
            get_backend(name)
        with pytest.raises(ValueError, match=names):
            get_backend(name, threads=2)


# ----------------------------------------------------------------------
# Runtime: pool pinning and telemetry
# ----------------------------------------------------------------------
def _pool_probe(_):
    from repro.core.backends import threads as t

    return t.worker_pinned(), t.resolve_thread_count()


class TestRunnerIntegration:
    def test_worker_init_pins_threads(self):
        from repro.runtime.runner import _worker_init

        with ProcessPoolExecutor(max_workers=1,
                                 initializer=_worker_init) as pool:
            pinned, threads = list(pool.map(_pool_probe, [None]))[0]
        assert pinned is True
        assert threads == 1
        # The parent process stays unpinned.
        assert not threads_mod.worker_pinned()

    def test_pooled_threaded_sweep_matches_sequential(self, tmp_path):
        """Workers x threads never oversubscribes, results stay identical."""
        configs = {
            f"th{t}": IHWConfig.all_imprecise(adder_threshold=t).with_backend(
                "threaded")
            for t in (4, 8, 12, 16)
        }
        pooled = ExperimentRunner(
            max_workers=2, chunk_size=1,
            cache=ResultCache(tmp_path / "pool"),
        ).sweep(SPEC, configs)
        sequential = ExperimentRunner(max_workers=1, cache=None).sweep(
            SPEC, configs)
        for name in configs:
            assert pooled[name].quality == sequential[name].quality
            assert np.array_equal(pooled[name].output,
                                  sequential[name].output)

    def test_runner_publishes_thread_gauge(self):
        with telemetry.override("metrics"):
            telemetry.get_registry().clear()
            ExperimentRunner(max_workers=1, cache=None)
            text = telemetry.get_registry().prometheus_text()
        assert "repro_backend_threads" in text

    def test_op_counters_carry_new_backend_names(self):
        with telemetry.override("metrics"):
            telemetry.get_registry().clear()
            ctx = ArithmeticContext(
                IHWConfig.all_imprecise().with_backend("threaded"))
            ctx.drift_probe = telemetry.make_drift_probe()
            ctx.mul(np.float32(1.5), np.float32(2.5))
            telemetry.record_kernel("parallel-test", ctx)
            text = telemetry.get_registry().prometheus_text()
        assert 'backend="threaded"' in text
        assert "repro_backend_op_calls_total" in text
