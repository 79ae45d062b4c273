"""Tests for the parallel experiment runtime and its result cache.

The contract under test: every execution mode — sequential in-process,
process-pool parallel, cache-restored — returns bit-identical evaluations,
and anything the cache cannot faithfully serve (corrupted, stale, or
truncated entries) is recomputed, never served.
"""

import gc
import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.core import IHWConfig
from repro.core.config import config_family
from repro.framework import PowerQualityFramework
from repro.quality import MultiplierAutoTuner, sweep_design_points
from repro.runtime import (
    SPEEDUP_CAP,
    ExperimentRunner,
    ExperimentSpec,
    ResultCache,
    RetryPolicy,
    RunnerStats,
    TaskTiming,
    cache_disabled,
    cache_from_env,
    default_worker_count,
)

HOTSPOT = ExperimentSpec.create(
    "hotspot", metric="mae", rows=24, cols=24, iterations=6
)
SRAD = ExperimentSpec.create("srad", metric="mae", rows=24, cols=24, iterations=4)

SWEEP = {
    "precise": IHWConfig.precise(),
    "add": IHWConfig.units("add"),
    "mul": IHWConfig.units("mul"),
    "all": IHWConfig.all_imprecise(),
}

#: The six apps of the end-to-end ``units`` sweep, at toy size.
APP_SPECS = [
    ExperimentSpec.create("hotspot", metric="mae", rows=16, cols=16,
                          iterations=4),
    ExperimentSpec.create("srad", metric="mae", rows=16, cols=16,
                          iterations=4),
    ExperimentSpec.create("raytracing", metric="ssim", width=16, height=16),
    ExperimentSpec.create("cp", metric="mae", grid=12),
    ExperimentSpec.create("dct", metric="mae", size=16),
    ExperimentSpec.create("blackscholes", metric="mae", n_options=64),
]


def assert_evaluations_identical(a, b):
    assert a.config == b.config
    assert a.quality == b.quality  # bitwise: no tolerance
    assert a.savings == b.savings
    assert a.breakdown.watts == b.breakdown.watts
    assert a.breakdown.timing == b.breakdown.timing
    assert isinstance(b.output, np.ndarray) == isinstance(a.output, np.ndarray)
    if isinstance(a.output, np.ndarray):
        assert a.output.dtype == b.output.dtype
        assert np.array_equal(a.output, b.output)
    else:
        assert a.output == b.output


class TestExperimentSpec:
    def test_create_sorts_params(self):
        a = ExperimentSpec.create("hotspot", metric="mae", rows=8, cols=8)
        b = ExperimentSpec.create("hotspot", metric="mae", cols=8, rows=8)
        assert a == b and hash(a) == hash(b)

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            ExperimentSpec.create("bogus", metric="mae")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ExperimentSpec.create("hotspot", metric="bogus")

    def test_non_scalar_param_rejected(self):
        with pytest.raises(TypeError, match="plain scalar"):
            ExperimentSpec.create("hotspot", metric="mae", power_map=np.ones(4))

    def test_framework_round_trip(self):
        fw = HOTSPOT.framework()
        assert isinstance(fw, PowerQualityFramework)
        assert fw.spec is HOTSPOT


class TestParallelSequentialIdentity:
    @pytest.mark.parametrize("spec", [HOTSPOT, SRAD], ids=["hotspot", "srad"])
    def test_bit_identical(self, spec):
        sequential = ExperimentRunner(max_workers=1, cache=None)
        parallel = ExperimentRunner(max_workers=2, cache=None)
        seq = sequential.sweep(spec, SWEEP)
        par = parallel.sweep(spec, SWEEP)
        assert list(seq) == list(par) == list(SWEEP)
        for name in SWEEP:
            assert_evaluations_identical(seq[name], par[name])

    def test_reused_workers_bit_identical_on_every_app(self):
        # The second sweep of each app runs in workers that already hold
        # every app's framework, reference run and backend scratch.
        configs = config_family("units")
        sequential = ExperimentRunner(max_workers=1, cache=None)
        pooled = ExperimentRunner(max_workers=2, cache=None)
        for spec in APP_SPECS:
            seq = sequential.sweep(spec, configs)
            for _ in range(2):
                par = pooled.sweep(spec, configs)
                assert list(par) == list(configs)
                for name in configs:
                    assert_evaluations_identical(seq[name], par[name])

    def test_stats_capture(self):
        runner = ExperimentRunner(max_workers=1, cache=None)
        runner.sweep(HOTSPOT, SWEEP)
        stats = runner.stats
        assert stats.n_tasks == len(SWEEP)
        assert stats.cache_misses == len(SWEEP)
        assert stats.wall_seconds > 0
        assert all(t.seconds > 0 for t in stats.tasks)
        assert "hit rate" in stats.summary()
        assert stats.to_dict()["n_tasks"] == len(SWEEP)


def _new_children(known: set) -> dict:
    """``{pid: process}`` of live child processes not in ``known``."""
    return {p.pid: p for p in multiprocessing.active_children()
            if p.pid not in known}


class TestKeptPool:
    """One runner keeps one pool across its sweeps until it is dropped."""

    def test_sweeps_share_workers_until_the_runner_is_dropped(self):
        known = set(_new_children(set()))
        runner = ExperimentRunner(max_workers=2, cache=None)
        runner.sweep(HOTSPOT, SWEEP)
        first = _new_children(known)
        runner.sweep(SRAD, SWEEP)
        assert len(first) == 2
        assert set(_new_children(known)) == set(first)
        del runner
        gc.collect()
        deadline = time.monotonic() + 30
        while any(p.is_alive() for p in first.values()):
            assert time.monotonic() < deadline, "workers outlived the runner"
            time.sleep(0.05)

    def test_pool_lost_to_a_crash_is_replaced_on_the_next_sweep(self):
        clean = ExperimentRunner(max_workers=1, cache=None).sweep(
            HOTSPOT, SWEEP
        )
        known = set(_new_children(set()))
        runner = ExperimentRunner(max_workers=2, cache=None,
                                  policy=RetryPolicy(backoff_base=0.0,
                                                     pool_failure_limit=1))
        with faults.injection("crash:match=add,times=1"):
            runner.sweep(HOTSPOT, SWEEP)
            # The crash broke the pool and the sweep finished in process.
            assert runner.stats.degraded
            lost = set(_new_children(known))
            # Same environment and no "add" task: only a pool left over
            # from the crash could fail this sweep.
            rest = {n: c for n, c in SWEEP.items() if n != "add"}
            results = runner.sweep(HOTSPOT, rest)
        assert runner.stats.pool_rebuilds == 0
        assert not runner.stats.degraded
        assert len(set(_new_children(known)) - lost) == 2  # a fresh pool
        for name in rest:
            assert_evaluations_identical(clean[name], results[name])


class TestResultCache:
    def test_round_trip_identical(self, tmp_path):
        cold = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        first = cold.sweep(HOTSPOT, SWEEP)
        warm = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        second = warm.sweep(HOTSPOT, SWEEP)
        assert warm.stats.cache_hits == len(SWEEP)
        assert warm.cache.stats.hits == len(SWEEP)
        for name in SWEEP:
            assert_evaluations_identical(first[name], second[name])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_sweep_writes_nothing(self, tmp_path, workers):
        def snapshot():
            return {
                (str(path.relative_to(tmp_path)), stat.st_size, stat.st_mtime_ns)
                for path in tmp_path.rglob("*")
                for stat in [path.stat()]
            }

        ExperimentRunner(max_workers=workers,
                         cache=ResultCache(tmp_path)).sweep(HOTSPOT, SWEEP)
        cold = snapshot()
        warm = ExperimentRunner(max_workers=workers,
                                cache=ResultCache(tmp_path))
        warm.sweep(HOTSPOT, SWEEP)
        assert warm.stats.cache_hits == len(SWEEP)
        assert snapshot() == cold

    def test_warm_sweep_lists_no_directory(self, tmp_path, monkeypatch):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        runner.sweep(HOTSPOT, SWEEP)
        listed = []
        scandir = os.scandir

        def counting_scandir(*args):
            listed.append(args)
            return scandir(*args)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        runner.sweep(HOTSPOT, SWEEP)
        assert runner.stats.cache_hits == len(SWEEP)
        assert listed == []

    def test_distinct_specs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        other = ExperimentSpec.create(
            "hotspot", metric="mae", rows=24, cols=24, iterations=7
        )
        config = IHWConfig.units("add")
        assert cache.key(HOTSPOT, config) != cache.key(other, config)
        assert cache.key(HOTSPOT, config) != cache.key(
            HOTSPOT, IHWConfig.units("add", adder_threshold=4)
        )

    def test_corrupted_json_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(max_workers=1, cache=cache)
        config = {"add": IHWConfig.units("add")}
        before = runner.sweep(HOTSPOT, config)
        entry = next(tmp_path.glob("??/*.json"))
        entry.write_text("{ not json")
        fresh = ResultCache(tmp_path)
        again = ExperimentRunner(max_workers=1, cache=fresh).sweep(HOTSPOT, config)
        assert fresh.stats.invalid == 1 and fresh.stats.hits == 0
        assert_evaluations_identical(before["add"], again["add"])

    def test_corrupted_npz_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(max_workers=1, cache=cache)
        config = {"add": IHWConfig.units("add")}
        before = runner.sweep(HOTSPOT, config)
        npz = next(tmp_path.glob("??/*.npz"))
        npz.write_bytes(b"garbage")
        fresh = ResultCache(tmp_path)
        again = ExperimentRunner(max_workers=1, cache=fresh).sweep(HOTSPOT, config)
        assert fresh.stats.invalid == 1
        assert_evaluations_identical(before["add"], again["add"])

    def test_stale_schema_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentRunner(max_workers=1, cache=cache).sweep(
            HOTSPOT, {"add": IHWConfig.units("add")}
        )
        entry = next(tmp_path.glob("??/*.json"))
        doc = json.loads(entry.read_text())
        doc["schema"] = 999
        entry.write_text(json.dumps(doc))
        fresh = ResultCache(tmp_path)
        assert fresh.get(HOTSPOT, IHWConfig.units("add")) is None
        assert fresh.stats.invalid == 1

    def test_env_off_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert cache_disabled()
        assert cache_from_env() is None
        runner = ExperimentRunner(max_workers=1, cache="auto")
        assert runner.cache is None

    def test_env_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        cache = cache_from_env()
        assert cache is not None
        assert cache.root == tmp_path / "alt"


class TestRunnerStats:
    def test_speedup_normal_run(self):
        stats = RunnerStats(
            wall_seconds=2.0,
            tasks=[TaskTiming("a", 3.0), TaskTiming("b", 3.0)],
        )
        assert stats.speedup_vs_sequential == pytest.approx(3.0)

    def test_speedup_degenerate_runs_report_one(self):
        assert RunnerStats().speedup_vs_sequential == 1.0
        assert RunnerStats(wall_seconds=0.0, tasks=[
            TaskTiming("a", 1.0)
        ]).speedup_vs_sequential == 1.0
        # Warm all-hits run: zero compute over a tiny wall time must not
        # explode into a meaningless thousands-x figure.
        warm = RunnerStats(
            wall_seconds=1e-4,
            tasks=[TaskTiming("a", 0.0, cached=True),
                   TaskTiming("b", 0.0, cached=True)],
        )
        assert warm.speedup_vs_sequential == 1.0

    def test_speedup_clamped_at_cap(self):
        stats = RunnerStats(
            wall_seconds=1e-6, tasks=[TaskTiming("a", 10.0)]
        )
        assert stats.speedup_vs_sequential == SPEEDUP_CAP

    def test_to_dict_has_the_cli_and_telemetry_fields(self):
        stats = RunnerStats(
            wall_seconds=1.0,
            max_workers=2,
            chunk_size=3,
            tasks=[TaskTiming("a", 0.5), TaskTiming("b", 0.0, cached=True)],
        )
        doc = stats.to_dict()
        assert doc["n_tasks"] == 2
        assert doc["cache_hits"] == 1 and doc["cache_misses"] == 1
        assert doc["speedup_vs_sequential"] == stats.speedup_vs_sequential
        assert doc["tasks"][1] == {"name": "b", "seconds": 0.0, "cached": True,
                                   "attempts": 1, "fallback": False}
        assert doc["retries"] == 0 and doc["degraded"] is False
        json.dumps(doc)  # JSON-serializable for the CLI --json payload


class TestFrameworkIntegration:
    def test_evaluate_many_matches_evaluate(self, tmp_path):
        fw = HOTSPOT.framework()
        direct = {name: fw.evaluate(cfg) for name, cfg in SWEEP.items()}
        runner = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        many = fw.evaluate_many(SWEEP, runner=runner)
        for name in SWEEP:
            assert_evaluations_identical(direct[name], many[name])

    def test_sweep_alias_still_sequential(self):
        fw = HOTSPOT.framework()
        results = fw.evaluate_many({"add": IHWConfig.units("add")})
        assert set(results) == {"add"}

    def test_runner_without_spec_rejected(self):
        from repro.apps import hotspot
        from repro.quality import mae

        fw = PowerQualityFramework(
            run_app=lambda cfg: hotspot.run(cfg, 16, 16, 4), quality_metric=mae
        )
        with pytest.raises(ValueError, match=r"ExperimentSpec\.framework"):
            fw.evaluate_many(SWEEP, runner=ExperimentRunner(max_workers=1))


class TestAutotunerIntegration:
    def test_runner_probes_match_direct(self, tmp_path):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        constraint = lambda q: q < 0.5  # noqa: E731
        tuned = MultiplierAutoTuner(
            None, constraint, runner=runner, spec=HOTSPOT, max_truncation=6
        ).tune()
        direct = MultiplierAutoTuner(
            HOTSPOT.framework().quality_evaluator(), constraint, max_truncation=6
        ).tune()
        assert tuned.multiplier == direct.multiplier
        assert tuned.quality == direct.quality
        # A rerun over the same cache is pure hits.
        rerun_runner = ExperimentRunner(
            max_workers=1, cache=ResultCache(tmp_path)
        )
        MultiplierAutoTuner(
            None, constraint, runner=rerun_runner, spec=HOTSPOT, max_truncation=6
        ).tune()
        assert rerun_runner.cache.stats.misses == 0

    def test_runner_requires_spec(self):
        with pytest.raises(ValueError, match="spec"):
            MultiplierAutoTuner(
                None, lambda q: True, runner=ExperimentRunner(max_workers=1)
            )


class TestParetoIntegration:
    def test_sweep_design_points(self, tmp_path):
        runner = ExperimentRunner(max_workers=1, cache=ResultCache(tmp_path))
        points = sweep_design_points(HOTSPOT, SWEEP, runner=runner)
        assert [p.name for p in points] == list(SWEEP)
        precise = next(p for p in points if p.name == "precise")
        everything = next(p for p in points if p.name == "all")
        assert everything.cost < precise.cost  # savings reduce residual power
        assert all(p.cost >= 0 and p.loss >= 0 for p in points)


class TestCharacterizeIntegration:
    def test_multiplier_configs(self):
        from repro.erroranalysis import characterize_multiplier_configs

        pmfs = characterize_multiplier_configs(["fp_tr0", "bt_8"], n_samples=2048)
        assert set(pmfs) == {"fp_tr0", "bt_8"}


# ----------------------------------------------------------------------
# Cache hardening: atomic writes, quarantine, stale-artifact cleanup
# ----------------------------------------------------------------------
class TestCacheHardening:
    def test_truncated_json_quarantined_and_recomputed(self, tmp_path):
        """Regression: a torn write must be moved aside, never raise."""
        cache = ResultCache(tmp_path)
        config = {"add": IHWConfig.units("add")}
        before = ExperimentRunner(max_workers=1, cache=cache).sweep(
            HOTSPOT, config
        )
        entry = next(tmp_path.glob("??/*.json"))
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])

        fresh = ResultCache(tmp_path)
        again = ExperimentRunner(max_workers=1, cache=fresh).sweep(
            HOTSPOT, config
        )
        assert fresh.stats.invalid == 1
        assert fresh.stats.quarantined == 1
        assert fresh.quarantine_count() == 1
        # The damaged bytes stay inspectable under quarantine/.
        quarantined = next((tmp_path / "quarantine").glob("*.json"))
        assert quarantined.read_bytes() == data[: len(data) // 2]
        assert_evaluations_identical(before["add"], again["add"])

    def test_no_temp_files_survive_a_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentRunner(max_workers=1, cache=cache).sweep(HOTSPOT, SWEEP)
        leftovers = [
            p for pattern in ("??/*.tmp", "??/*.tmp.npz", "??/*.lock")
            for p in tmp_path.glob(pattern)
        ]
        assert leftovers == []

    def test_writer_killed_inside_put_blocks_no_rerun(self, tmp_path):
        """Resume is a rerun: a dead writer's leftovers never stop a put."""
        cache = ResultCache(tmp_path)
        config = IHWConfig.units("add")
        evaluation = HOTSPOT.framework().evaluate(config)

        def killed_at_first_rename():
            os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
            cache.put(HOTSPOT, config, evaluation)

        writer = multiprocessing.get_context("fork").Process(
            target=killed_at_first_rename
        )
        writer.start()
        writer.join(60)
        assert writer.exitcode == -signal.SIGKILL
        json_path, _ = cache.entry_paths(HOTSPOT, config)
        assert not json_path.exists()
        assert list(json_path.parent.iterdir())  # the dead writer's leftovers
        assert cache.put(HOTSPOT, config, evaluation) is True
        restored = cache.get(HOTSPOT, config)
        assert restored is not None
        assert_evaluations_identical(evaluation, restored)

    def test_concurrent_writers_of_one_entry(self, tmp_path):
        """Two processes of four threads each put one entry under a reader."""
        config = IHWConfig.units("add")
        evaluation = HOTSPOT.framework().evaluate(config)

        def put_from_four_threads():
            sys.setswitchinterval(1e-6)  # interleave the threads' writes
            writer = ResultCache(tmp_path)
            landed = []

            def put_ten():
                for _ in range(10):
                    landed.append(
                        writer.put(HOTSPOT, config, evaluation, 1.0)
                    )

            threads = [threading.Thread(target=put_ten) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert landed == [True] * 40  # exit code 1 otherwise

        context = multiprocessing.get_context("fork")
        writers = [context.Process(target=put_from_four_threads)
                   for _ in range(2)]
        for writer in writers:
            writer.start()
        reader = ResultCache(tmp_path)
        deadline = time.monotonic() + 60
        while (any(writer.is_alive() for writer in writers)
               and time.monotonic() < deadline):
            reader.get(HOTSPOT, config)
        for writer in writers:
            writer.join(1)
            if writer.is_alive():
                writer.kill()
        assert [writer.exitcode for writer in writers] == [0, 0]
        restored = reader.get(HOTSPOT, config)
        assert restored is not None
        assert_evaluations_identical(evaluation, restored)
        assert reader.stats.invalid == 0
        assert reader.stats.quarantined == 0
        assert not (tmp_path / "quarantine").exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_cleanup_stale_removes_old_artifacts_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        shard = tmp_path / "ab"
        shard.mkdir(parents=True)
        old_npz_tmp = shard / "deadbeef.npz.4242.140001.tmp"
        old_json_tmp = shard / "deadbeef.json.4242.140001.tmp"
        fresh_tmp = shard / "cafe.json.4343.140001.tmp"
        for path in (old_npz_tmp, old_json_tmp, fresh_tmp):
            path.write_text("x")
        stale = time.time() - 1000.0
        os.utime(old_npz_tmp, (stale, stale))
        os.utime(old_json_tmp, (stale, stale))
        assert cache.cleanup_stale() == 2
        assert not old_npz_tmp.exists() and not old_json_tmp.exists()
        assert fresh_tmp.exists()


# ----------------------------------------------------------------------
# Worker-count detection and runner internals
# ----------------------------------------------------------------------
class TestDefaultWorkerCount:
    def test_uses_scheduler_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_worker_count() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity (macOS, Windows) raise
        # AttributeError; the runner must fall back to os.cpu_count().
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_worker_count() == 5

    def test_never_returns_zero(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(), raising=False)
        assert default_worker_count() == 1

    def test_framework_memo_is_bounded(self):
        from repro.runtime.runner import _FRAMEWORK_MEMO_CAP, _memo_framework

        memo = {}
        specs = [
            ExperimentSpec.create("hotspot", metric="mae", rows=12, cols=12,
                                  iterations=i + 1)
            for i in range(_FRAMEWORK_MEMO_CAP + 4)
        ]
        for spec in specs:
            _memo_framework(memo, spec)
        assert len(memo) == _FRAMEWORK_MEMO_CAP
        # Most-recently-used specs survive; the oldest were evicted.
        assert specs[-1] in memo and specs[0] not in memo
        # A hit refreshes recency and must not rebuild the framework.
        survivor = specs[-_FRAMEWORK_MEMO_CAP]
        kept = memo[survivor]
        assert _memo_framework(memo, survivor) is kept
