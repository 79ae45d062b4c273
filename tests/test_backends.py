"""Pluggable compute backends: registry, parity, cache keys, CLI, analysis."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import ArithmeticContext, IHWConfig
from repro.core.backends import (
    DEFAULT_BACKEND,
    ENV_VAR,
    backend_names,
    default_backend_name,
    get_backend,
)
from repro.core.backends.base import ReferenceBackend
from repro.core.backends.fused import FusedBackend, ScratchPool
from repro.core.backends.parity import adversarial_operands, check_parity
from repro.core.floatops import format_for_dtype


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registered_names(self):
        assert backend_names() == ("reference", "threaded")

    def test_reference_and_fused_always_available(self):
        for name in backend_names():
            assert get_backend(name).name == name
        # The fused kernels are no registered name: they run as the
        # threaded backend's shards.
        assert isinstance(get_backend("threaded")._shards[0], FusedBackend)

    def test_default_is_threaded_when_env_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_backend_name() == DEFAULT_BACKEND == "threaded"
        assert get_backend().name == "threaded"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        assert default_backend_name() == "reference"
        assert get_backend().name == "reference"

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="turbo"):
            default_backend_name()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="turbo"):
            get_backend("turbo")

    def test_instance_passthrough(self):
        backend = FusedBackend()
        assert get_backend(backend) is backend

    def test_fresh_instances_per_call(self):
        assert get_backend("threaded") is not get_backend("threaded")

    def test_removed_numba_names_rejected(self, monkeypatch):
        names = r"\('reference', 'threaded'\)"
        for removed in ("numba", "numba-parallel", "fused"):
            with pytest.raises(ValueError, match=names):
                get_backend(removed)
            with pytest.raises(ValueError, match=names):
                IHWConfig(backend=removed)
            monkeypatch.setenv(ENV_VAR, removed)
            with pytest.raises(ValueError, match=names):
                get_backend()

    def test_config_backend_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        ctx = ArithmeticContext(IHWConfig(backend="reference"))
        assert ctx.backend.name == "reference"
        # Explicit argument wins over the config field.
        ctx = ArithmeticContext(IHWConfig(backend="reference"),
                                backend="threaded")
        assert ctx.backend.name == "threaded"

    def test_env_var_reaches_context(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        ctx = ArithmeticContext(IHWConfig.all_imprecise())
        assert ctx.backend.name == "reference"


# ----------------------------------------------------------------------
# Parity: the contractual bit-identity of every backend
# ----------------------------------------------------------------------
#: Engines checked against the reference oracle: the registered
#: ``threaded`` backend and the fused kernel class its shards run.
_ENGINES = {"fused": FusedBackend, "threaded": lambda: get_backend("threaded")}


class TestParity:
    @pytest.mark.parametrize("name", sorted(_ENGINES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_reference(self, name, dtype):
        failures = check_parity(_ENGINES[name](), dtype=dtype, n_random=4096)
        assert failures == []

    def test_adversarial_operands_cover_specials(self):
        a, b = adversarial_operands(np.float32)
        assert np.isnan(a).any() and np.isinf(a).any()
        fmt = format_for_dtype(np.float32)
        exponents = (a.view(fmt.uint) >> np.uint32(fmt.mantissa_bits)) & np.uint32(
            fmt.exponent_mask
        )
        mantissas = a.view(fmt.uint) & np.uint32(fmt.mantissa_mask)
        assert ((exponents == 0) & (mantissas != 0)).any()  # subnormals
        assert (a.view(fmt.uint) == 0).any() or (a == 0).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_scalar_inputs(self, dtype):
        backend = FusedBackend()
        reference = ReferenceBackend()
        got = backend.imprecise_add(1.5, 2.25, 8, dtype=dtype)
        want = reference.imprecise_add(1.5, 2.25, 8, dtype=dtype)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_fused_broadcasting(self):
        backend = FusedBackend()
        reference = ReferenceBackend()
        a = np.linspace(-2, 2, 12, dtype=np.float32).reshape(3, 4)
        b = np.float32(0.75)
        got = backend.imprecise_multiply(a, b)
        want = reference.imprecise_multiply(a, b)
        assert got.shape == want.shape == (3, 4)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_fused_scratch_reuse_across_calls(self):
        backend = FusedBackend()
        a = np.linspace(0.5, 4.0, 1024, dtype=np.float32)
        first = backend.imprecise_add(a, a, 8)
        before = dict(backend._scratch._buffers)
        second = backend.imprecise_add(a, a, 8)
        after = backend._scratch._buffers
        assert after.keys() == before.keys()
        for key, buf in before.items():
            assert np.shares_memory(after[key], buf), key  # no regrowth
        assert np.array_equal(first, second)
        # Results must be freshly owned, never views of scratch.
        assert not any(np.shares_memory(second, buf) for buf in after.values())
        first[0] = 99.0
        assert second[0] != 99.0

    def test_scratch_pool_grows_and_reshapes(self):
        pool = ScratchPool()
        small = pool.get("x", np.int64, (16,))
        assert small.shape == (16,)
        big = pool.get("x", np.int64, (64,))
        assert big.shape == (64,)
        assert not np.shares_memory(big, small)  # grown into a new buffer
        again = pool.get("x", np.int64, (8, 4))
        assert again.shape == (8, 4)
        assert np.shares_memory(again, big)  # reshaped, not reallocated
        other = pool.get("x", np.float64, (8,))
        assert not np.shares_memory(other, big)  # keyed by dtype too


# ----------------------------------------------------------------------
# Context integration: same numbers, same counters
# ----------------------------------------------------------------------
class TestContextIntegration:
    @pytest.mark.parametrize("name", sorted(_ENGINES))
    def test_context_results_and_counts_match(self, name):
        cfg = IHWConfig.all_imprecise()
        ref_ctx = ArithmeticContext(cfg, backend="reference")
        alt_ctx = ArithmeticContext(cfg, backend=_ENGINES[name]())
        rng = np.random.default_rng(3)
        a = rng.uniform(0.1, 8.0, 512).astype(np.float32)
        b = rng.uniform(0.1, 8.0, 512).astype(np.float32)
        pairs = [
            ("add", (a, b)), ("sub", (a, b)), ("mul", (a, b)),
            ("fma", (a, b, a)), ("div", (a, b)), ("rcp", (a,)),
            ("rsqrt", (a,)), ("sqrt", (a,)), ("log2", (a,)),
        ]
        for op, args in pairs:
            want = getattr(ref_ctx, op)(*args)
            got = getattr(alt_ctx, op)(*args)
            assert np.array_equal(
                want.view(np.uint32), got.view(np.uint32)
            ), op
        assert ref_ctx.counts == alt_ctx.counts

    def test_mitchell_and_truncated_modes_route_through_backend(self):
        for mode_kwargs in (
            {"mode": "mitchell", "config": "lp_tr8"},
            {"mode": "truncated", "truncation": 8},
        ):
            cfg = IHWConfig.all_imprecise().with_multiplier(**mode_kwargs)
            a = np.linspace(0.5, 4.0, 256, dtype=np.float32)
            want = ArithmeticContext(cfg, backend="reference").mul(a, a)
            got = ArithmeticContext(cfg, backend="threaded").mul(a, a)
            assert np.array_equal(want.view(np.uint32), got.view(np.uint32))

    def test_precise_context_untouched_by_backend(self):
        a = np.linspace(-1, 1, 64, dtype=np.float32)
        precise = ArithmeticContext(backend="threaded")
        assert np.array_equal(precise.add(a, a), a + a)


# ----------------------------------------------------------------------
# Cache-key independence
# ----------------------------------------------------------------------
class TestCacheIndependence:
    def test_backend_does_not_change_cache_key(self):
        base = IHWConfig.all_imprecise()
        for name in backend_names():
            pinned = base.with_backend(name)
            assert pinned.cache_key() == base.cache_key()
            assert pinned.canonical() == base.canonical()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            IHWConfig(backend="turbo")

    def test_describe_mentions_pinned_backend(self):
        cfg = IHWConfig.all_imprecise().with_backend("reference")
        assert "backend=reference" in cfg.describe()
        assert "backend" not in IHWConfig.all_imprecise().describe()

    def test_result_cache_key_shared_across_backends(self, tmp_path):
        from repro.runtime import ResultCache

        class Spec:
            def canonical(self):
                return {"app": "unit-test", "params": {"n": 8}}

        cache = ResultCache(tmp_path)
        spec = Spec()
        base = IHWConfig.all_imprecise()
        keys = {cache.key(spec, base.with_backend(n)) for n in backend_names()}
        keys.add(cache.key(spec, base))
        assert len(keys) == 1


# ----------------------------------------------------------------------
# Telemetry: per-backend op timing (recorded by the drift probe)
# ----------------------------------------------------------------------
class TestOpTimer:
    def test_timings_labeled_with_backend(self):
        from repro import telemetry

        with telemetry.override("metrics"):
            telemetry.reset()
            ctx = ArithmeticContext(IHWConfig.all_imprecise(),
                                    backend="threaded")
            ctx.drift_probe = telemetry.make_drift_probe()
            a = np.linspace(0.5, 2.0, 128, dtype=np.float32)
            ctx.add(a, a)
            ctx.mul(a, a)
            telemetry.record_kernel("unit-test", ctx)
            snapshot = telemetry.get_registry().drain()
            names = {
                (s["name"], s["labels"].get("op"), s["labels"].get("backend"))
                for s in snapshot
            }
            assert ("repro_backend_op_calls_total", "add", "threaded") in names
            assert ("repro_backend_op_seconds_total", "mul", "threaded") in names
        telemetry.reset()

    def test_off_mode_attaches_nothing(self):
        from repro import telemetry
        from repro.apps.base import make_context

        with telemetry.override("off"):
            ctx = make_context(IHWConfig.all_imprecise())
            assert ctx.drift_probe is None


# ----------------------------------------------------------------------
# Static-analysis coverage of the new package
# ----------------------------------------------------------------------
class TestAnalysisCoverage:
    def test_backend_package_lints_clean(self):
        import repro
        from repro.analysis import run_analysis

        report = run_analysis(Path(repro.__file__).parent)
        backend_findings = [
            f for f in report.findings if f.path.startswith("core/backends")
        ]
        assert backend_findings == []

    def test_fixture_backend_layer_violation_flagged(self, tmp_path):
        from repro.analysis import AnalysisConfig, run_analysis
        from tests.test_analysis import make_package

        root = make_package(tmp_path, {
            "__init__.py": "",
            "core/__init__.py": "",
            "core/backends/__init__.py": "from fixture.apps import helper\n",
            "apps/__init__.py": "def helper():\n    return 1\n",
        })
        config = AnalysisConfig(
            package="fixture",
            layer_rules={"core": frozenset(), "apps": frozenset({"core"})},
            kernel_layers=("apps",),
            worker_layers=("core", "apps"),
        )
        report = run_analysis(root, config=config)
        assert any(f.checker == "layer-imports" for f in report.findings)

    def test_fixture_backend_mutable_registry_flagged(self, tmp_path):
        from repro.analysis import AnalysisConfig, run_analysis
        from tests.test_analysis import make_package

        root = make_package(tmp_path, {
            "__init__.py": "",
            "core/__init__.py": "",
            "core/backends/__init__.py": "_REGISTRY = {}\n",
        })
        config = AnalysisConfig(
            package="fixture",
            layer_rules={"core": frozenset()},
            kernel_layers=(),
            worker_layers=("core",),
        )
        report = run_analysis(root, config=config)
        assert any(f.checker == "fork-safety" for f in report.findings)
