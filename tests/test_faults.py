"""Chaos suite: deterministic fault injection against the runtime.

Every recovery path the fault-tolerant runner advertises is exercised
here with real injected failures — worker crashes (``os._exit`` in a
pool worker), hangs, transient exceptions, flaky compute backends, and
corrupted cache entries — all driven by the seeded ``REPRO_FAULTS``
harness in :mod:`repro.faults`, so each scenario reproduces exactly.

The contract under test: a sweep disturbed by any of these faults
completes with results **bit-identical** to an undisturbed sequential
run, reports what happened in :class:`~repro.runtime.RunnerStats`, and
an interrupted sweep resumed with ``resume=True`` recomputes zero
already-completed configurations.

A SIGALRM watchdog guards every test: the suite's whole point is that
hangs are recovered from, so a regression that hangs the runner must
fail loudly instead of stalling the run (CI adds ``pytest-timeout`` on
top; the watchdog keeps local runs safe without it).
"""

import json
import signal

import pytest

from repro import faults
from repro.core import IHWConfig
from repro.faults import (
    BackendFault,
    FaultClause,
    FaultInjector,
    TransientFault,
    stable_fraction,
)
from repro.runtime import (
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    RetryPolicy,
    TaskFailedError,
)

SPEC = ExperimentSpec.create(
    "hotspot", metric="mae", rows=12, cols=12, iterations=2
)

#: Hard per-test deadline.  Generous: the slowest scenario (hang + pool
#: teardown + full retry) finishes in a few seconds; only a true hang
#: regression can reach it.
WATCHDOG_SECONDS = 120


@pytest.fixture(autouse=True)
def watchdog():
    def _expired(signum, frame):
        raise AssertionError(
            f"test exceeded the {WATCHDOG_SECONDS}s hang watchdog — a "
            "runtime recovery path is stuck"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_configs(n: int) -> dict:
    """``n`` distinct configurations with predictable names.

    Every configuration must be *distinct* (unique adder threshold) so
    each owns its own cache entry — duplicated configs share one content
    address, which would let a later twin silently heal an entry the
    corrupt-cache fault just damaged.
    """
    configs = {}
    for i in range(n):
        base = IHWConfig.all_imprecise(adder_threshold=i % 27 + 1)
        if i >= 27:  # threshold range is [1, 27]; vary a second axis
            base = base.with_multiplier("truncated", truncation=8)
        configs[f"cfg{i:02d}"] = base
    return configs


def assert_results_identical(a, b):
    assert set(a) == set(b)
    for name in a:
        assert a[name].quality == b[name].quality, name  # bitwise
        assert a[name].savings == b[name].savings, name


def fast_policy(**overrides) -> RetryPolicy:
    """Retry policy without real-time backoff (tests shouldn't sleep)."""
    defaults = dict(max_retries=3, backoff_base=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# ----------------------------------------------------------------------
# Spec grammar and determinism
# ----------------------------------------------------------------------
class TestFaultSpecGrammar:
    def test_parse_full_clause(self):
        injector = FaultInjector.parse(
            "seed=7;crash:match=cfg03,times=2;hang:seconds=1.5"
        )
        assert injector.seed == 7
        assert injector.clauses == (
            FaultClause("crash", match="cfg03", times=2),
            FaultClause("hang", seconds=1.5),
        )

    def test_empty_spec_arms_nothing(self):
        assert FaultInjector.parse("") is None
        assert FaultInjector.parse("  ") is None
        assert FaultInjector.parse("seed=3") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector.parse("meteor-strike")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector.parse("crash:severity=high")

    def test_bad_parameter_values_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector.parse("crash:times=0")
        with pytest.raises(ValueError):
            FaultInjector.parse("transient:p=1.5")
        with pytest.raises(ValueError):
            FaultInjector.parse("hang:seconds=0")

    def test_injection_context_sets_and_restores_env(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_FAULTS", "transient")
        with faults.injection("crash:match=x") as injector:
            assert os.environ["REPRO_FAULTS"] == "crash:match=x"
            assert injector.clauses[0].kind == "crash"
        assert os.environ["REPRO_FAULTS"] == "transient"

    def test_decisions_are_deterministic(self):
        first = FaultInjector.parse("seed=11;transient:p=0.5,times=3")
        second = FaultInjector.parse("seed=11;transient:p=0.5,times=3")
        keys = [f"cfg{i:02d}" for i in range(20)]
        decisions_a = [
            first._armed("transient", key, attempt) is not None
            for key in keys for attempt in range(3)
        ]
        decisions_b = [
            second._armed("transient", key, attempt) is not None
            for key in keys for attempt in range(3)
        ]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)  # p gates some

    def test_seed_changes_the_decisions(self):
        a = FaultInjector.parse("seed=1;transient:p=0.5")
        b = FaultInjector.parse("seed=2;transient:p=0.5")
        keys = [f"cfg{i:02d}" for i in range(40)]
        assert [a._armed("transient", k, 0) is None for k in keys] != [
            b._armed("transient", k, 0) is None for k in keys
        ]

    def test_stable_fraction_range_and_stability(self):
        values = {stable_fraction("a", i) for i in range(50)}
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(values) == 50  # no trivial collisions
        assert stable_fraction(1, "x", 2) == stable_fraction(1, "x", 2)

    def test_guards_raise_typed_faults(self):
        injector = FaultInjector.parse("transient;flaky-backend")
        with pytest.raises(TransientFault):
            injector.task("anything", 0)
        with pytest.raises(BackendFault):
            injector.backend("anything", 0, "fused")
        injector.backend("anything", 0, "reference")  # never on reference


# ----------------------------------------------------------------------
# Individual recovery paths
# ----------------------------------------------------------------------
class TestTransientRetry:
    def test_parallel_sweep_retries_and_completes(self, tmp_path):
        configs = make_configs(8)
        with faults.injection("transient:match=cfg02,times=1"):
            runner = ExperimentRunner(
                max_workers=2, cache=ResultCache(tmp_path),
                policy=fast_policy(),
            )
            results = runner.sweep(SPEC, configs)
        assert len(results) == len(configs)
        assert runner.stats.retries == 1
        by_name = {t.name: t for t in runner.stats.tasks}
        assert by_name["cfg02"].attempts == 2

    def test_exhausted_retries_raise_task_failed(self, tmp_path):
        with faults.injection("transient:match=cfg01,times=99"):
            runner = ExperimentRunner(
                max_workers=1, cache=ResultCache(tmp_path),
                policy=fast_policy(max_retries=2),
            )
            with pytest.raises(TaskFailedError) as excinfo:
                runner.sweep(SPEC, make_configs(4))
        assert excinfo.value.key == "cfg01"
        assert excinfo.value.attempts == 3  # 1 try + 2 retries
        assert "TransientFault" in excinfo.value.error


class TestWorkerCrashRecovery:
    def test_pool_rebuilt_and_sweep_completes(self, tmp_path):
        configs = make_configs(8)
        with faults.injection("crash:match=cfg03,times=1"):
            runner = ExperimentRunner(
                max_workers=2, cache=ResultCache(tmp_path),
                policy=fast_policy(),
            )
            results = runner.sweep(SPEC, configs)
        assert len(results) == len(configs)
        assert runner.stats.pool_rebuilds >= 1
        assert runner.stats.retries >= 1  # in-flight work was requeued

    def test_persistent_crashes_degrade_to_sequential(self, tmp_path):
        configs = make_configs(6)
        with faults.injection("crash:times=99"):
            runner = ExperimentRunner(
                max_workers=2, cache=ResultCache(tmp_path),
                policy=fast_policy(max_retries=20, pool_failure_limit=2),
            )
            results = runner.sweep(SPEC, configs)
        # The crash guard only exists in pool workers, so the degraded
        # sequential path is structurally immune and must finish.
        assert len(results) == len(configs)
        assert runner.stats.degraded
        assert runner.stats.pool_rebuilds >= 2
        assert any("degraded" in note for note in runner.stats.notes)

    def test_degraded_results_match_clean_sequential(self, tmp_path):
        configs = make_configs(6)
        clean = ExperimentRunner(max_workers=1, cache=None).sweep(
            SPEC, configs
        )
        with faults.injection("crash:times=99"):
            runner = ExperimentRunner(
                max_workers=2, cache=ResultCache(tmp_path),
                policy=fast_policy(max_retries=20, pool_failure_limit=1),
            )
            disturbed = runner.sweep(SPEC, configs)
        assert_results_identical(clean, disturbed)

    def test_pool_broken_during_dispatch_is_rebuilt(self, tmp_path,
                                                    monkeypatch):
        # The pool can break between two submits of one dispatch round;
        # the chunk whose submit failed never ran and must be requeued.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.runtime import runner as runner_mod

        submits = []

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(None)
                if len(submits) == 2:
                    raise BrokenProcessPool("worker died mid-dispatch")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        configs = make_configs(6)
        clean = ExperimentRunner(max_workers=1, cache=None).sweep(
            SPEC, configs
        )
        runner = ExperimentRunner(
            max_workers=2, chunk_size=1, cache=ResultCache(tmp_path),
            policy=fast_policy(),
        )
        disturbed = runner.sweep(SPEC, configs)
        assert_results_identical(clean, disturbed)
        assert runner.stats.pool_rebuilds == 1
        assert runner.stats.retries == 0  # the unsent chunk is not charged


class TestHangTimeout:
    def test_hung_worker_terminated_and_task_retried(self, tmp_path):
        configs = make_configs(6)
        with faults.injection("hang:match=cfg04,times=1,seconds=60"):
            runner = ExperimentRunner(
                max_workers=2, cache=ResultCache(tmp_path), chunk_size=1,
                policy=fast_policy(task_timeout=2.0),
            )
            results = runner.sweep(SPEC, configs)
        assert len(results) == len(configs)
        assert runner.stats.timeouts >= 1
        assert runner.stats.pool_rebuilds >= 1


class TestBackendFallback:
    def test_flaky_backend_falls_back_to_reference(self, tmp_path):
        configs = {
            name: config.with_backend("fused")
            for name, config in make_configs(4).items()
        }
        reference = ExperimentRunner(max_workers=1, cache=None).sweep(
            SPEC, {n: c.with_backend("reference") for n, c in configs.items()}
        )
        with faults.injection("flaky-backend:times=1"):
            runner = ExperimentRunner(
                max_workers=1, cache=ResultCache(tmp_path),
                policy=fast_policy(),
            )
            results = runner.sweep(SPEC, configs)
        assert runner.stats.fallbacks == len(configs)
        assert any("reference" in note for note in runner.stats.notes)
        by_name = {t.name: t for t in runner.stats.tasks}
        assert all(by_name[n].fallback for n in configs)
        # Parity contract: the fallback results are bit-identical.
        assert_results_identical(reference, results)

    def test_fallback_result_serves_the_original_cache_key(self, tmp_path):
        configs = {"only": IHWConfig.all_imprecise().with_backend("fused")}
        with faults.injection("flaky-backend:times=1"):
            runner = ExperimentRunner(
                max_workers=1, cache=ResultCache(tmp_path),
                policy=fast_policy(),
            )
            runner.sweep(SPEC, configs)
        # The backend field is cache-key exempt, so a later lookup under
        # the original fused config hits the fallback-computed entry.
        warm = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        warm.sweep(SPEC, configs)
        assert warm.stats.cache_hits == 1


class TestCorruptCacheRecovery:
    def test_corrupted_entry_quarantined_and_recomputed(self, tmp_path):
        configs = make_configs(6)
        with faults.injection("corrupt-cache:match=cfg02,times=1"):
            runner = ExperimentRunner(
                max_workers=1, cache=ResultCache(tmp_path),
            )
            first = runner.sweep(SPEC, configs)
        warm = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        second = warm.sweep(SPEC, configs)
        assert warm.stats.cache_misses == 1  # only the corrupted entry
        assert warm.cache.stats.quarantined == 1
        assert warm.cache.quarantine_count() == 1
        assert_results_identical(first, second)
        # Third run: fully warm again, the recomputed entry is healthy.
        third = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        third.sweep(SPEC, configs)
        assert third.stats.cache_hits == len(configs)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_interrupted_sweep_resumes_with_zero_recompute(self, tmp_path):
        configs = make_configs(8)
        # First run dies at cfg05 with no retry budget; cfg00..cfg04 are
        # checkpointed (cache + manifest) before the failure.
        with faults.injection("transient:match=cfg05,times=99"):
            runner = ExperimentRunner(
                max_workers=1, cache=ResultCache(tmp_path),
                policy=fast_policy(max_retries=0), checkpoint_every=1,
            )
            with pytest.raises(TaskFailedError):
                runner.sweep(SPEC, configs)

        manifest_path = next(tmp_path.glob("manifests/*.json"))
        doc = json.loads(manifest_path.read_text())
        assert doc["status"] == "running"
        assert doc["completed"] == [f"cfg{i:02d}" for i in range(5)]

        resumed = ExperimentRunner(
            max_workers=1, cache=ResultCache(tmp_path), checkpoint_every=1,
        )
        results = resumed.sweep(SPEC, configs, resume=True)
        assert len(results) == len(configs)
        assert resumed.stats.resumed_skipped == 5
        assert resumed.stats.cache_hits == 5  # zero recomputation of those
        assert resumed.stats.cache_misses == 3
        doc = json.loads(manifest_path.read_text())
        assert doc["status"] == "complete"

    def test_complete_sweep_manifest_marked_complete(self, tmp_path):
        runner = ExperimentRunner(
            max_workers=1, cache=ResultCache(tmp_path), checkpoint_every=2,
        )
        runner.sweep(SPEC, make_configs(4))
        doc = json.loads(next(tmp_path.glob("manifests/*.json")).read_text())
        assert doc["status"] == "complete"
        assert len(doc["completed"]) == 4

    def test_different_sweeps_get_different_manifests(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(max_workers=1, cache=cache)
        runner.sweep(SPEC, make_configs(2))
        runner.sweep(SPEC, make_configs(3))
        assert len(list(tmp_path.glob("manifests/*.json"))) == 2


# ----------------------------------------------------------------------
# Acceptance scenario (ISSUE.md): combined faults, bit-identical outcome
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    def test_combined_faults_sweep_is_bit_identical(self, tmp_path):
        """Crash + hang + corrupt cache entry in one >=32-config sweep."""
        configs = make_configs(32)
        clean = ExperimentRunner(max_workers=1, cache=None).sweep(
            SPEC, configs
        )

        # The crash charges one attempt to every in-flight task, so the
        # hang is armed for two attempts — whichever attempt cfg07 runs
        # at after the crash recovery, it hangs at least once.
        spec_string = (
            "seed=5;"
            "crash:match=cfg03,times=1;"
            "hang:match=cfg07,times=2,seconds=60;"
            "corrupt-cache:match=cfg05,times=1"
        )
        with faults.injection(spec_string):
            runner = ExperimentRunner(
                max_workers=2, cache=ResultCache(tmp_path), chunk_size=1,
                policy=fast_policy(task_timeout=3.0),
                checkpoint_every=4,
            )
            disturbed = runner.sweep(SPEC, configs)

        # 1. The sweep completed, bit-identical to the clean run.
        assert_results_identical(clean, disturbed)
        # 2. The stats report the recovery work.
        stats = runner.stats
        assert stats.retries >= 2  # crash requeue + hang retry at minimum
        assert stats.timeouts >= 1
        assert stats.pool_rebuilds >= 2  # one crash, one hang termination
        assert stats.had_faults
        assert stats.reliability_summary() in stats.summary()

        # 3. The corrupted entry is quarantined and recomputed on the
        #    next run; everything else is served from cache.
        warm = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        again = warm.sweep(SPEC, configs)
        assert warm.stats.cache_misses == 1
        assert warm.cache.stats.quarantined == 1
        assert_results_identical(clean, again)

        # 4. A resume pass recomputes zero configurations.
        resumed = ExperimentRunner(
            max_workers=1, cache=ResultCache(tmp_path)
        )
        resumed.sweep(SPEC, configs, resume=True)
        assert resumed.stats.cache_misses == 0
        assert resumed.stats.resumed_skipped == len(configs)
