"""Parallel experiment runtime with content-addressed result caching.

The architectural seam every multi-configuration consumer shares:

- :class:`ExperimentSpec` — picklable experiment identity (app, params,
  metric, dtype, seed);
- :class:`ResultCache` — content-addressed JSON+npz store under
  ``.repro_cache/`` (``REPRO_CACHE=off`` to disable), with atomic
  crash-safe writes and quarantine of damaged entries;
- :class:`ExperimentRunner` — fault-tolerant process-pool fan-out with
  chunked dispatch, per-task retries, backend fallback, pool-loss
  recovery, and optional task deadlines (see :class:`RetryPolicy`);
  ``max_workers=1`` is the bit-identical sequential path; an interrupted
  sweep run again finds its finished configs in the cache;
- :class:`RunnerStats` — wall time, per-task latency, hit rate, speedup,
  and the run's reliability events.

Quick start::

    from repro.core import IHWConfig
    from repro.runtime import ExperimentRunner, ExperimentSpec

    spec = ExperimentSpec.create("hotspot", metric="mae",
                                 rows=64, cols=64, iterations=30)
    runner = ExperimentRunner()  # workers auto-detected, cache from env
    results = runner.sweep(spec, {
        "all": IHWConfig.all_imprecise(),
        "add": IHWConfig.units("add"),
    })
    print(runner.stats.summary())

Failure semantics are documented in ``docs/RELIABILITY.md``.
"""

from .cache import (
    CacheStats,
    ResultCache,
    cache_disabled,
    cache_from_env,
    entry_key,
)
from .policy import RetryPolicy
from .runner import ExperimentRunner, TaskFailedError, default_worker_count
from .spec import APP_RUNNERS, METRIC_NAMES, ExperimentSpec
from .stats import SPEEDUP_CAP, RunnerStats, TaskTiming

__all__ = [
    "APP_RUNNERS",
    "CacheStats",
    "ExperimentRunner",
    "ExperimentSpec",
    "METRIC_NAMES",
    "ResultCache",
    "RetryPolicy",
    "RunnerStats",
    "SPEEDUP_CAP",
    "TaskFailedError",
    "TaskTiming",
    "cache_disabled",
    "cache_from_env",
    "default_worker_count",
    "entry_key",
]
