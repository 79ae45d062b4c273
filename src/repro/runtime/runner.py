"""Parallel, cached, fault-tolerant experiment execution.

:class:`ExperimentRunner` evaluates :class:`~repro.core.IHWConfig` objects
against one :class:`~repro.runtime.spec.ExperimentSpec`, and is the one
execution path shared by every consumer (``repro sweep``, framework
``evaluate_many``, autotuner probes, Pareto studies, the service queue).
It has one task path: :meth:`~ExperimentRunner.sweep` hands its cache
misses to one dispatch loop, and :meth:`~ExperimentRunner.evaluate` runs
one configuration through the same in-process retry loop that a
sequential or degraded sweep uses:

- each requested configuration is first looked up in the content-addressed
  :class:`~repro.runtime.cache.ResultCache` (when enabled);
- the misses fan out over a ``concurrent.futures.ProcessPoolExecutor`` in
  chunks, each worker memoizing a bounded LRU of frameworks (and thus one
  precise reference run) per :class:`~repro.runtime.spec.ExperimentSpec`;
- the pool is built on the first pooled sweep and kept for the runner's
  later sweeps, so its workers import the app and quality modules and
  fill their memos once per runner, not once per sweep.  It is replaced
  when it is lost or terminated, when a sweep aborts, when a sweep needs
  more workers than it has, or when the ``REPRO_*`` environment the
  workers were forked with has changed; dropping the runner shuts its
  workers down;
- ``max_workers=1`` degrades to a fully in-process sequential path —
  no pool, no pickling — so results stay bit-identical and debuggable;
- per-task compute time is captured either way and aggregated into a
  :class:`~repro.runtime.stats.RunnerStats`.

Failures are bounded and recoverable (see ``docs/RELIABILITY.md``),
governed by a :class:`~repro.runtime.policy.RetryPolicy`:

- a task that raises is retried with exponential backoff + deterministic
  jitter; a failing task whose config selects a non-``reference`` compute
  backend first **falls back to the reference backend** (bit-identical by
  the parity contract) and is counted loudly — in a sweep and in
  :meth:`~ExperimentRunner.evaluate` alike;
- a lost pool (``BrokenProcessPool`` — worker crash, OOM kill) is rebuilt
  and only the unfinished work is requeued; after
  ``policy.pool_failure_limit`` consecutive losses the runner **degrades
  to the sequential inline path**, which produces the same bits;
- with ``policy.task_timeout`` set, a dispatched chunk that blows its
  deadline has its workers terminated and its tasks retried — a hung
  worker cannot stall a sweep forever;
- every completed result is written to the cache as it arrives, so an
  interrupted sweep run again gets its finished configs as cache hits
  and computes only the rest.

Deterministic fault injection (``REPRO_FAULTS``, :mod:`repro.faults`)
exercises every one of these paths in ``tests/test_faults.py``.

Results are deterministic and mode-independent: each evaluation runs the
same seeded kernel through the same framework code whether inline, in a
worker, restored from cache, or recomputed on a retry.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro import faults, telemetry
from repro.core.backends import default_backend_name
from repro.core.backends.threads import (
    cpu_count as default_worker_count,
    pin_worker_threads,
    resolve_thread_count,
)

from .cache import ResultCache, cache_from_env
from .policy import RetryPolicy
from .stats import RunnerStats, TaskTiming

__all__ = ["ExperimentRunner", "TaskFailedError", "default_worker_count"]


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget; carries the last failure."""

    def __init__(self, key: str, attempts: int, error: str):
        super().__init__(
            f"task {key!r} failed after {attempts} attempt"
            f"{'s' if attempts != 1 else ''}: {error}"
        )
        self.key = key
        self.attempts = attempts
        self.error = error


class _PendingTask:
    """One configuration moving through the fault-tolerant engine."""

    __slots__ = ("name", "config", "attempt", "fallback")

    def __init__(self, name: str, config):
        self.name = name  # routing, display and fault-injection key
        self.config = config
        self.attempt = 0  # failures so far
        self.fallback = False  # switched to the reference backend


# ----------------------------------------------------------------------
# Worker-side execution (module-level: must be picklable)
# ----------------------------------------------------------------------
#: Cap on per-process framework memos: a long-lived worker fed many
#: distinct specs must not grow without bound (each memo pins a precise
#: reference run, which can hold a large output array).
_FRAMEWORK_MEMO_CAP = 8

# repro-lint: disable=fork-safety,worker-state -- per-process memo kept for the worker's life (one runner's pool), rebuilt from the spec on first use
_WORKER_FRAMEWORKS: dict = {}


def _memo_framework(memo: dict, spec):
    """Fetch/build the framework for ``spec`` with LRU-bounded memoization."""
    framework = memo.pop(spec, None)
    if framework is None:
        framework = spec.framework()
    memo[spec] = framework  # (re)insert last: dict order is the LRU order
    while len(memo) > _FRAMEWORK_MEMO_CAP:
        memo.pop(next(iter(memo)))
    return framework


def _evaluate(memo: dict, spec, config):
    """One timed evaluation, reusing the framework (and reference) in ``memo``.

    Pool workers pass the module memo; the runner passes its own.
    """
    framework = _memo_framework(memo, spec)
    start = time.perf_counter()
    evaluation = framework.evaluate(config)
    return evaluation, time.perf_counter() - start


def _error_summary(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _worker_init() -> None:
    """Pool-worker initializer: fresh telemetry, single-threaded backends.

    The pin keeps the threaded backend inside a pool worker from multiplying
    the pool's process parallelism into ``workers x threads``
    oversubscription: with the pin, a sweep over N workers uses N cores
    total no matter which backend the configurations select.  An explicit
    ``backend_threads`` still wins over the pin, by design.
    """
    telemetry.reset()
    pin_worker_threads()


def _evaluate_chunk(spec, tasks):
    """Worker task: evaluate a chunk with per-task fault isolation.

    ``tasks`` is a tuple of ``(name, config, attempt)``.  Each task is
    wrapped individually, so one raising task costs one ``("err", ...)``
    row instead of the whole chunk; the parent classifies and retries.
    Workers inherit ``REPRO_TELEMETRY`` and ``REPRO_FAULTS`` from the
    environment; buffered telemetry travels home as the second element.
    """
    injector = faults.active()
    rows = []
    for name, config, attempt in tasks:
        try:
            if injector is not None:
                injector.worker_task(name, attempt)
                injector.task(name, attempt)
                injector.backend(name, attempt, config.backend)
            rows.append(
                ("ok", name, _evaluate(_WORKER_FRAMEWORKS, spec, config))
            )
        except Exception as exc:
            rows.append(("err", name, _error_summary(exc)))
    return rows, telemetry.drain_worker()


def _repro_environ() -> dict:
    """The ``REPRO_*`` variables a forked worker reads its settings from."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


class ExperimentRunner:
    """Fan configuration evaluations out over processes, through a cache.

    Parameters
    ----------
    max_workers:
        Process count; default auto-detected from the machine.  ``1``
        selects the in-process sequential path.
    cache:
        ``"auto"`` (default): honor ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``;
        ``None``/``False``: caching off; or a :class:`ResultCache`.
        Construction removes the cache's stale temp files
        (:meth:`~repro.runtime.cache.ResultCache.cleanup_stale`).
    chunk_size:
        Configurations per dispatched task; default balances ~2 chunks
        per worker so stragglers overlap.  Retries always dispatch solo.
    policy:
        :class:`~repro.runtime.policy.RetryPolicy` governing retries,
        timeouts, and degradation (default: two retries, no deadline).
    """

    def __init__(self, max_workers: int | None = None, cache="auto",
                 chunk_size: int | None = None,
                 policy: RetryPolicy | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.max_workers = max_workers or default_worker_count()
        if cache == "auto":
            self.cache = cache_from_env()
        elif cache in (None, False):
            self.cache = None
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        if self.cache is not None:
            self.cache.cleanup_stale()
        self.chunk_size = chunk_size
        self.policy = policy or RetryPolicy()
        self.stats = RunnerStats(max_workers=self.max_workers)
        self._frameworks: dict = {}
        # The kept pool, built by the first pooled sweep: (executor,
        # worker count, the REPRO_* environment its workers inherited).
        self._pool = None
        self._pool_workers = 0
        self._pool_environ: dict = {}
        # Parent-process thread resolution for the threaded backend; pool
        # workers are pinned to 1 by _worker_init, so workers x threads
        # stays bounded by max(workers, threads).
        telemetry.gauge_set("repro_backend_threads", resolve_thread_count())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, spec, config):
        """One cached evaluation, always in-process (autotuner probes).

        Runs through the sweep's in-process retry loop, so a probe against
        a flaky backend falls back to ``reference`` instead of aborting an
        autotuning session.  ``self.stats`` keeps describing the last
        sweep; the retry counters still reach telemetry.
        """
        cached = self.cache.get(spec, config) if self.cache else None
        if cached is not None:
            return cached
        evaluation, seconds = self._run_inline(
            spec, _PendingTask("evaluate", config), RunnerStats()
        )
        if self.cache:
            self.cache.put(spec, config, evaluation, seconds)
        return evaluation

    def sweep(self, spec, configs) -> dict:
        """Evaluate ``{name: IHWConfig}`` and return ``{name: Evaluation}``.

        Insertion order is preserved; ``self.stats`` afterwards describes
        this sweep.  Each result reaches the cache as it completes, so
        after an unrecoverable failure (:class:`TaskFailedError`) running
        the same sweep again serves every finished configuration from the
        cache and computes only the rest.
        """
        wall_start = time.perf_counter()
        injector = faults.active()
        results: dict = {}
        timings: dict = {}
        configs = dict(configs)
        stats = RunnerStats(max_workers=self.max_workers,
                            chunk_size=self._chunk_size_for(len(configs)))

        def deliver(task, value, seconds):
            results[task.name] = value
            timings[task.name] = TaskTiming(
                task.name, seconds,
                attempts=task.attempt + 1, fallback=task.fallback,
            )
            if self.cache:
                self.cache.put(spec, configs[task.name], value, seconds)
                if injector is not None and injector.corrupt_cache(task.name):
                    faults.corrupt_entry(self.cache, spec, configs[task.name])

        try:
            with telemetry.span(
                "sweep", app=spec.app, metric=spec.metric, configs=len(configs)
            ) as sweep_span:
                misses = []
                for name, config in configs.items():
                    cached = self.cache.get(spec, config) if self.cache else None
                    if cached is not None:
                        results[name] = cached
                        timings[name] = TaskTiming(name, 0.0, cached=True)
                    else:
                        misses.append(_PendingTask(name, config))
                stats.chunk_size = self._chunk_size_for(len(misses))
                self._execute(
                    spec, misses, stats, deliver,
                    parent_span_id=sweep_span["id"] if sweep_span else None,
                )
        finally:
            stats.wall_seconds = time.perf_counter() - wall_start
            stats.tasks = [timings[name] for name in configs if name in timings]
            fell_back = sorted(t.name for t in stats.tasks if t.fallback)
            if fell_back:
                stats.notes.append(
                    f"backend fell back to reference for: {', '.join(fell_back)}"
                )
            self.stats = stats
            telemetry.record_runner_stats(stats, app=spec.app)
        return {name: results[name] for name in configs}

    # ------------------------------------------------------------------
    # Fault-tolerant execution engine
    # ------------------------------------------------------------------
    def _execute(self, spec, tasks, stats, deliver, parent_span_id=None):
        """Drive every task to completion (or exhaust its retries).

        Tasks flow: queue -> dispatched chunk -> delivered, with failures
        looping back into the queue until ``policy.max_retries`` is
        spent.  ``max_workers == 1`` — or degradation after repeated pool
        losses — drains the queue through :meth:`_run_inline` instead:
        the bit-identical sequential path.  Reliability events are
        counted on ``stats``.
        """
        policy = self.policy
        chunk_size = stats.chunk_size
        queue = deque(tasks)
        if not queue:
            return
        pool = None
        pending: dict = {}  # future -> (chunk tasks, deadline or None)
        workers = min(
            self.max_workers,
            max(1, math.ceil(len(tasks) / max(1, chunk_size))),
        )
        consecutive_pool_failures = 0
        inline = self.max_workers == 1
        finished = False
        try:
            while queue or pending:
                if inline:
                    while queue:
                        task = queue.popleft()
                        deliver(task, *self._run_inline(spec, task, stats))
                    continue
                if pool is None:
                    pool = self._acquire_pool(workers)
                pool_broken = False
                while queue:
                    chunk = [queue.popleft()]
                    while (
                        len(chunk) < chunk_size and queue
                        and chunk[0].attempt == 0 and queue[0].attempt == 0
                    ):
                        chunk.append(queue.popleft())
                    batch = tuple((t.name, t.config, t.attempt) for t in chunk)
                    try:
                        future = pool.submit(_evaluate_chunk, spec, batch)
                    except BrokenProcessPool:
                        # A worker died while this round was still being
                        # dispatched; the chunk never ran, so it goes back
                        # uncharged and the pool is rebuilt below.
                        self._requeue_chunk(chunk, queue, stats)
                        pool_broken = True
                        break
                    deadline = policy.chunk_deadline_seconds(len(chunk))
                    pending[future] = (
                        chunk,
                        time.monotonic() + deadline if deadline else None,
                    )

                deadlines = [d for _, d in pending.values() if d is not None]
                timeout = (
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines else None
                )
                done, _ = wait(pending, timeout=timeout,
                               return_when=FIRST_COMPLETED)

                for future in done:
                    chunk, _deadline = pending.pop(future)
                    try:
                        rows, worker_telemetry = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        self._requeue_chunk(
                            chunk, queue, stats,
                            reason="worker process died (BrokenProcessPool)",
                        )
                        continue
                    consecutive_pool_failures = 0
                    telemetry.absorb_worker(worker_telemetry,
                                            parent_id=parent_span_id)
                    by_name = {task.name: task for task in chunk}
                    for status, name, payload in rows:
                        task = by_name[name]
                        if status == "ok":
                            deliver(task, *payload)
                        else:
                            self._retry_or_raise(task, payload, stats)
                            queue.append(task)

                if pool_broken:
                    # Every other in-flight future shares the dead pool.
                    for future, (chunk, _deadline) in pending.items():
                        self._requeue_chunk(
                            chunk, queue, stats,
                            reason="worker process died (BrokenProcessPool)",
                        )
                    pending.clear()
                    self._drop_pool()
                    pool = None
                    consecutive_pool_failures += 1
                    stats.pool_rebuilds += 1
                    telemetry.counter_inc("repro_runtime_pool_rebuilds_total")
                    if consecutive_pool_failures >= policy.pool_failure_limit:
                        inline = stats.degraded = True
                        stats.notes.append(
                            f"degraded to sequential after "
                            f"{consecutive_pool_failures} consecutive pool "
                            "failures"
                        )
                        telemetry.counter_inc("repro_runtime_degraded_total",
                                              mode="sequential")
                    continue

                now = time.monotonic()
                expired = [
                    future for future, (_chunk, deadline) in pending.items()
                    if deadline is not None and deadline <= now
                ]
                if expired:
                    # A hung worker can only be cleared by terminating the
                    # pool; expired chunks are charged an attempt, innocent
                    # in-flight chunks are requeued as they were.
                    for future in expired:
                        chunk, _deadline = pending.pop(future)
                        stats.timeouts += 1
                        telemetry.counter_inc("repro_runtime_timeouts_total")
                        self._requeue_chunk(
                            chunk, queue, stats,
                            reason=(
                                f"task deadline exceeded "
                                f"({policy.task_timeout}s/task)"
                            ),
                        )
                    for future, (chunk, _deadline) in pending.items():
                        self._requeue_chunk(chunk, queue, stats)
                    pending.clear()
                    self._drop_pool(terminate=True)
                    pool = None
                    stats.pool_rebuilds += 1
                    telemetry.counter_inc("repro_runtime_pool_rebuilds_total")
            finished = True
        finally:
            if not finished:
                # An aborted sweep can leave chunks running, or the pool
                # broken, so the next sweep starts from a fresh pool.
                self._drop_pool()

    def _acquire_pool(self, workers: int):
        """The kept pool, (re)built when it is missing or no longer fits.

        A kept pool is replaced when it has fewer than ``workers``
        processes, or when the ``REPRO_*`` environment differs from the
        one its workers were forked with: workers read their faults,
        telemetry mode and backend from that environment, so a pool
        forked outside ``faults.injection`` would never see its faults.
        """
        environ = _repro_environ()
        if self._pool is not None and (
            self._pool_workers < workers or self._pool_environ != environ
        ):
            self._drop_pool()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init
            )
            self._pool_workers, self._pool_environ = workers, environ
        return self._pool

    def _drop_pool(self, terminate: bool = False) -> None:
        """Shut the kept pool down; the next pooled sweep builds a new one.

        ``terminate`` tears it down even when its workers are hung:
        ``shutdown`` alone would join a hung worker forever, so the worker
        processes are terminated first.  That touches the executor's
        private process table — there is no public kill switch — guarded
        so a future stdlib reshape degrades to a plain shutdown.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except OSError:
                    pass  # already gone
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_inline(self, spec, task, stats):
        """In-process execution of one task: retry in place until it
        succeeds or exhausts its budget, under the same fallback rule."""
        injector = faults.active()
        while True:
            try:
                if injector is not None:
                    injector.task(task.name, task.attempt)
                    injector.backend(task.name, task.attempt,
                                     task.config.backend)
                return _evaluate(self._frameworks, spec, task.config)
            except Exception as exc:
                self._retry_or_raise(task, _error_summary(exc), stats)

    def _requeue_chunk(self, chunk, queue, stats, reason=None) -> None:
        """Put a chunk's tasks back on the queue after a pool-level loss.

        With a ``reason`` every task is charged an attempt (the pool died
        under it or its deadline expired); without one it goes back
        uncharged.
        """
        for task in chunk:
            if reason is not None:
                self._retry_or_raise(task, reason, stats, pool_loss=True)
            queue.append(task)

    def _retry_or_raise(self, task, error: str, stats,
                        pool_loss: bool = False) -> None:
        """Charge one failed attempt, or raise once the budget is spent.

        A task failure backs off and falls back to ``reference`` (see
        :meth:`_fall_back`); a pool loss does neither — the pool failed,
        not the task.
        """
        task.attempt += 1
        if task.attempt > self.policy.max_retries:
            raise TaskFailedError(task.name, task.attempt, error)
        kind = "retry" if pool_loss else self._fall_back(task)
        stats.retries += 1
        telemetry.counter_inc("repro_runtime_retries_total", kind=kind)
        if kind == "backend-fallback":
            stats.fallbacks += 1
            telemetry.counter_inc("repro_runtime_fallbacks_total",
                                  kind="backend")
        if not pool_loss:
            delay = self.policy.backoff_seconds(task.name, task.attempt)
            if delay > 0:
                time.sleep(delay)

    @staticmethod
    def _fall_back(task) -> str:
        """Classify a task retry: flaky non-reference backends fall back.

        Any failure of a task whose config selects a non-``reference``
        compute backend (a ``None`` selection resolves to the process
        default) retries on ``reference`` — the parity contract makes the
        results bit-identical, so trading speed for certainty is always
        sound.
        """
        backend = task.config.backend or default_backend_name()
        if backend != "reference":
            task.config = task.config.with_backend("reference")
            task.fallback = True
            return "backend-fallback"
        return "retry"

    def _chunk_size_for(self, n_tasks: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if n_tasks <= 0 or self.max_workers == 1:
            return 1
        return max(1, math.ceil(n_tasks / (self.max_workers * 2)))
