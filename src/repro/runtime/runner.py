"""Parallel, cached, fault-tolerant experiment execution.

:class:`ExperimentRunner` is the one execution path shared by every
multi-configuration consumer (framework sweeps, autotuner probes, Pareto
studies, benchmarks, the CLI):

- each requested configuration is first looked up in the content-addressed
  :class:`~repro.runtime.cache.ResultCache` (when enabled);
- the misses fan out over a ``concurrent.futures.ProcessPoolExecutor`` in
  chunks, each worker memoizing a bounded LRU of frameworks (and thus one
  precise reference run) per :class:`~repro.runtime.spec.ExperimentSpec`;
- ``max_workers=1`` degrades to a fully in-process sequential path —
  no pool, no pickling — so results stay bit-identical and debuggable;
- per-task compute time is captured either way and aggregated into a
  :class:`~repro.runtime.stats.RunnerStats`.

Failures are bounded and recoverable (see ``docs/RELIABILITY.md``),
governed by a :class:`~repro.runtime.policy.RetryPolicy`:

- a task that raises is retried with exponential backoff + deterministic
  jitter; a failing task whose config selects a non-``reference`` compute
  backend first **falls back to the reference backend** (bit-identical by
  the parity contract) and is counted loudly;
- a lost pool (``BrokenProcessPool`` — worker crash, OOM kill) is rebuilt
  and only the unfinished work is requeued; after
  ``policy.pool_failure_limit`` consecutive losses the runner **degrades
  to the sequential inline path**, which produces the same bits;
- with ``policy.task_timeout`` set, a dispatched chunk that blows its
  deadline has its workers terminated and its tasks retried — a hung
  worker cannot stall a sweep forever;
- completed sweep results are checkpointed through the cache plus a
  :class:`~repro.runtime.manifest.SweepManifest`, so an interrupted sweep
  resumed with ``resume=True`` recomputes none of its finished configs.

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

from .cache import ResultCache, cache_from_env
from .manifest import SweepManifest
from .policy import RetryPolicy
from .stats import RunnerStats, TaskTiming

__all__ = ["ExperimentRunner", "TaskFailedError", "default_worker_count"]


def default_worker_count() -> int:
    """Usable CPU count (affinity-aware where the platform supports it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


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
    """One unit of work moving through the fault-tolerant engine."""

    __slots__ = ("key", "label", "payload", "attempt", "fallback")

    def __init__(self, key, label: str, payload):
        self.key = key  # unique routing key (config name / map index)
        self.label = label  # display + fault-injection key
        self.payload = payload  # IHWConfig for sweeps, argument tuple for map
        self.attempt = 0  # failures so far
        self.fallback = False  # switched to the reference backend


# ----------------------------------------------------------------------
# Worker-side execution (module-level: must be picklable)
# ----------------------------------------------------------------------
#: Cap on per-process framework memos: a long-lived worker fed many
#: distinct specs must not grow without bound (each memo pins a precise
#: reference run, which can hold a large output array).
_FRAMEWORK_MEMO_CAP = 8

# repro-lint: disable=fork-safety,worker-state -- per-process memo, rebuilt from the spec on first use
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


def _evaluate_spec(spec, config):
    """One evaluation with per-process framework (and reference) reuse."""
    framework = _memo_framework(_WORKER_FRAMEWORKS, spec)
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
    from repro.core.backends import threads as backend_threads

    backend_threads.pin_worker_threads()


def _reclaim_scratch() -> int:
    """Record and release backend scratch pools between tasks.

    A backend call grows its :class:`ScratchPool` to the call's peak
    working set; invoked by the runner between chunks (and by the sweep
    epilogue), this publishes the high-water mark as the
    ``repro_backend_scratch_bytes`` gauge and returns the pinned buffers
    to the allocator so one large call cannot pin peak memory for the
    rest of a sweep.  Cheap no-op when nothing is held.
    """
    from repro.core import backends

    held = backends.scratch_nbytes()
    if held:
        telemetry.gauge_set("repro_backend_scratch_bytes", held, agg="max")
        backends.release_all_scratch()
    return held


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
            rows.append(("ok", name, _evaluate_spec(spec, config)))
        except Exception as exc:
            rows.append(("err", name, _error_summary(exc)))
    _reclaim_scratch()
    return rows, telemetry.drain_worker()


def _call_chunk(func, tasks):
    """Worker task for :meth:`ExperimentRunner.map`, same row protocol.

    ``tasks`` is a tuple of ``(index, label, arguments, attempt)``; rows
    are keyed by the index so results stay aligned with their labels no
    matter how tasks fail, retry, or complete out of order.
    """
    injector = faults.active()
    rows = []
    for index, label, arguments, attempt in tasks:
        try:
            if injector is not None:
                injector.worker_task(label, attempt)
                injector.task(label, attempt)
            start = time.perf_counter()
            result = func(*arguments)
            rows.append(("ok", index, (result, time.perf_counter() - start)))
        except Exception as exc:
            rows.append(("err", index, _error_summary(exc)))
    return rows, telemetry.drain_worker()


def _terminate_pool(pool) -> None:
    """Tear a pool down even when its workers are hung.

    ``shutdown`` alone would join a hung worker forever, so the worker
    processes are terminated first.  Touches the executor's private
    process table — there is no public kill switch — guarded so a future
    stdlib reshape degrades to a plain shutdown.
    """
    for process in list(getattr(pool, "_processes", {}).values() or []):
        try:
            process.terminate()
        except OSError:
            pass  # already gone
    pool.shutdown(wait=False, cancel_futures=True)


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
    chunk_size:
        Configurations per dispatched task; default balances ~2 chunks
        per worker so stragglers overlap.  Retries always dispatch solo.
    policy:
        :class:`~repro.runtime.policy.RetryPolicy` governing retries,
        timeouts, and degradation (default: two retries, no deadline).
    checkpoint_every:
        Completed tasks between sweep-manifest flushes (0 disables
        manifests entirely).
    """

    def __init__(self, max_workers: int | None = None, cache="auto",
                 chunk_size: int | None = None,
                 policy: RetryPolicy | None = None,
                 checkpoint_every: int = 8):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.max_workers = max_workers or default_worker_count()
        if cache == "auto":
            self.cache = cache_from_env()
        elif cache in (None, False):
            self.cache = None
        elif isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self.chunk_size = chunk_size
        self.policy = policy or RetryPolicy()
        self.checkpoint_every = checkpoint_every
        self.stats = RunnerStats(max_workers=self.max_workers)
        self._frameworks: dict = {}
        # Parent-process thread resolution for the threaded backend; pool
        # workers are pinned to 1 by _worker_init, so workers x threads
        # stays bounded by max(workers, threads).
        from repro.core.backends.threads import resolve_thread_count

        telemetry.gauge_set("repro_backend_threads", resolve_thread_count())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, spec, config):
        """One cached evaluation, always in-process (autotuner probes).

        Shares the sweep path's retry and backend-fallback behavior; a
        probe against a flaky backend degrades to ``reference`` instead
        of aborting an autotuning session.
        """
        cached = self.cache.get(spec, config) if self.cache else None
        if cached is not None:
            return cached
        injector = faults.active()
        task = _PendingTask(key="evaluate", label="evaluate", payload=config)
        events = _new_events()
        evaluation, seconds = self._run_inline_with_retry(
            task, lambda t: self._evaluate_inline_guarded(spec, t, injector),
            events,
        )
        if self.cache:
            self.cache.put(spec, config, evaluation, seconds)
        return evaluation

    def sweep(self, spec, configs, resume: bool = False) -> dict:
        """Evaluate ``{name: IHWConfig}`` and return ``{name: Evaluation}``.

        Insertion order is preserved; ``self.stats`` afterwards describes
        this sweep.  With ``resume=True`` and a cache, a manifest left by
        an interrupted run of the same sweep is consulted and the count
        of already-completed configurations is reported in
        ``stats.resumed_skipped`` (their results come from the cache —
        zero recomputation).  On an unrecoverable failure
        (:class:`TaskFailedError`) the manifest still records every
        completed configuration, so the next ``resume=True`` run picks up
        where this one stopped.
        """
        wall_start = time.perf_counter()
        injector = faults.active()
        events = _new_events()
        results: dict = {}
        timings: dict = {}
        configs = dict(configs)
        manifest = None
        chunk_size = self._chunk_size_for(len(configs))
        if self.cache is not None:
            self.cache.cleanup_stale()
            # Manifests live under the cache root; a remote (HTTP) backend
            # has no local paths, so checkpoint/resume is local-only.
            if self.checkpoint_every and self.cache.local_root is not None:
                manifest = SweepManifest.for_sweep(self.cache, spec, configs)
        completions = 0

        def deliver(task, value, seconds):
            nonlocal completions
            results[task.key] = value
            timings[task.key] = TaskTiming(
                task.key, seconds,
                attempts=task.attempt + 1, fallback=task.fallback,
            )
            if task.fallback:
                events["fallback_notes"].append(task.key)
            if self.cache:
                self.cache.put(spec, configs[task.key], value, seconds)
                if injector is not None and injector.corrupt_cache(task.key):
                    faults.corrupt_entry(self.cache, spec, configs[task.key])
            if manifest is not None:
                manifest.mark(task.key)
                completions += 1
                if completions % self.checkpoint_every == 0:
                    manifest.flush()

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
                        if manifest is not None:
                            manifest.mark(name)
                        if resume and manifest is not None and (
                            name in manifest.previously_completed
                        ):
                            events["resumed_skipped"] += 1
                    else:
                        misses.append(_PendingTask(name, name, config))
                chunk_size = self._chunk_size_for(len(misses))
                self._execute(
                    tasks=misses,
                    chunk_size=chunk_size,
                    call_factory=lambda chunk: (
                        _evaluate_chunk,
                        spec,
                        tuple((t.key, t.payload, t.attempt) for t in chunk),
                    ),
                    inline_call=lambda t: self._evaluate_inline_guarded(
                        spec, t, injector
                    ),
                    prepare_retry=self._sweep_prepare_retry,
                    deliver=deliver,
                    events=events,
                    parent_span_id=sweep_span["id"] if sweep_span else None,
                )
        finally:
            _reclaim_scratch()
            if manifest is not None:
                manifest.flush()
            self.stats = self._build_stats(
                wall_seconds=time.perf_counter() - wall_start,
                chunk_size=chunk_size,
                tasks=[timings[name] for name in configs if name in timings],
                events=events,
            )
            telemetry.record_runner_stats(self.stats, app=spec.app)
        return {name: results[name] for name in configs}

    def map(self, func, argument_tuples, labels=None) -> list:
        """Generic fan-out: ``[func(*args) for args in argument_tuples]``.

        ``func`` must be a module-level (picklable) callable.  Used by the
        characterization sweeps; results keep input order — including
        across per-task failures and retries, which are routed by index —
        and the run is recorded in ``self.stats`` (no caching here).
        """
        argument_tuples = list(argument_tuples)
        labels = list(labels) if labels is not None else [
            f"task{i}" for i in range(len(argument_tuples))
        ]
        if len(labels) != len(argument_tuples):
            raise ValueError("labels and argument_tuples lengths differ")
        wall_start = time.perf_counter()
        injector = faults.active()
        events = _new_events()
        chunk_size = self._chunk_size_for(len(argument_tuples))
        slots: list = [None] * len(argument_tuples)
        timings: list = [None] * len(argument_tuples)

        def inline_call(task):
            if injector is not None:
                injector.task(task.label, task.attempt)
            start = time.perf_counter()
            result = func(*task.payload)
            return result, time.perf_counter() - start

        def deliver(task, value, seconds):
            slots[task.key] = value
            timings[task.key] = TaskTiming(
                task.label, seconds, attempts=task.attempt + 1
            )

        tasks = [
            _PendingTask(index, label, arguments)
            for index, (label, arguments) in enumerate(
                zip(labels, argument_tuples)
            )
        ]
        try:
            with telemetry.span(
                "map", func=getattr(func, "__name__", str(func)),
                tasks=len(argument_tuples),
            ) as map_span:
                self._execute(
                    tasks=tasks,
                    chunk_size=chunk_size,
                    call_factory=lambda chunk: (
                        _call_chunk,
                        func,
                        tuple(
                            (t.key, t.label, t.payload, t.attempt)
                            for t in chunk
                        ),
                    ),
                    inline_call=inline_call,
                    prepare_retry=lambda task: "retry",
                    deliver=deliver,
                    events=events,
                    parent_span_id=map_span["id"] if map_span else None,
                )
        finally:
            self.stats = self._build_stats(
                wall_seconds=time.perf_counter() - wall_start,
                chunk_size=chunk_size,
                tasks=[t for t in timings if t is not None],
                events=events,
            )
        return slots

    # ------------------------------------------------------------------
    # Fault-tolerant execution engine
    # ------------------------------------------------------------------
    def _execute(self, tasks, chunk_size, call_factory, inline_call,
                 prepare_retry, deliver, events, parent_span_id=None):
        """Drive every task to completion (or exhaust its retries).

        Tasks flow: queue -> dispatched chunk -> delivered, with failures
        looping back into the queue until ``policy.max_retries`` is
        spent.  ``max_workers == 1`` — or degradation after repeated pool
        losses — drains the queue through ``inline_call`` instead: the
        bit-identical sequential path.
        """
        policy = self.policy
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
        degraded = self.max_workers == 1
        try:
            while queue or pending:
                if degraded:
                    while queue:
                        task = queue.popleft()
                        value, seconds = self._run_inline_with_retry(
                            task, inline_call, events,
                            prepare_retry=prepare_retry,
                        )
                        deliver(task, value, seconds)
                    continue
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers, initializer=_worker_init
                    )
                pool_broken = False
                while queue:
                    chunk = [queue.popleft()]
                    while (
                        len(chunk) < chunk_size and queue
                        and chunk[0].attempt == 0 and queue[0].attempt == 0
                    ):
                        chunk.append(queue.popleft())
                    try:
                        future = pool.submit(*call_factory(chunk))
                    except BrokenProcessPool:
                        # A worker died while this round was still being
                        # dispatched; the chunk never ran, so it goes back
                        # uncharged and the pool is rebuilt below.
                        self._requeue_chunk(chunk, queue, events,
                                            reason="", charge_attempt=False)
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
                            chunk, queue, events,
                            reason="worker process died (BrokenProcessPool)",
                            charge_attempt=True,
                        )
                        continue
                    consecutive_pool_failures = 0
                    telemetry.absorb_worker(worker_telemetry,
                                            parent_id=parent_span_id)
                    by_key = {task.key: task for task in chunk}
                    for status, key, payload in rows:
                        task = by_key[key]
                        if status == "ok":
                            deliver(task, *payload)
                        else:
                            self._retry_or_raise(
                                task, payload, queue, events, prepare_retry
                            )

                if pool_broken:
                    # Every other in-flight future shares the dead pool.
                    for future, (chunk, _deadline) in pending.items():
                        self._requeue_chunk(
                            chunk, queue, events,
                            reason="worker process died (BrokenProcessPool)",
                            charge_attempt=True,
                        )
                    pending.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    consecutive_pool_failures += 1
                    events["pool_rebuilds"] += 1
                    telemetry.counter_inc("repro_runtime_pool_rebuilds_total")
                    if consecutive_pool_failures >= policy.pool_failure_limit:
                        degraded = True
                        events["degraded"] = True
                        events["notes"].append(
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
                        events["timeouts"] += 1
                        telemetry.counter_inc("repro_runtime_timeouts_total")
                        self._requeue_chunk(
                            chunk, queue, events,
                            reason=(
                                f"task deadline exceeded "
                                f"({policy.task_timeout}s/task)"
                            ),
                            charge_attempt=True,
                        )
                    for future, (chunk, _deadline) in pending.items():
                        self._requeue_chunk(chunk, queue, events,
                                            reason="", charge_attempt=False)
                    pending.clear()
                    _terminate_pool(pool)
                    pool = None
                    events["pool_rebuilds"] += 1
                    telemetry.counter_inc("repro_runtime_pool_rebuilds_total")
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _requeue_chunk(self, chunk, queue, events, reason: str,
                       charge_attempt: bool) -> None:
        """Put a chunk's tasks back on the queue after a pool-level loss."""
        for task in chunk:
            if charge_attempt:
                self._retry_or_raise(task, reason, queue, events,
                                     prepare_retry=None, backoff=False)
            else:
                queue.append(task)

    def _retry_or_raise(self, task, error: str, queue, events,
                        prepare_retry=None, backoff: bool = True) -> None:
        """Charge one failed attempt; requeue with backoff or give up."""
        task.attempt += 1
        if task.attempt > self.policy.max_retries:
            raise TaskFailedError(task.label, task.attempt, error)
        kind = prepare_retry(task) if prepare_retry is not None else "retry"
        events["retries"] += 1
        telemetry.counter_inc("repro_runtime_retries_total", kind=kind)
        if kind == "backend-fallback":
            events["fallbacks"] += 1
            telemetry.counter_inc("repro_runtime_fallbacks_total",
                                  kind="backend")
        if backoff:
            delay = self.policy.backoff_seconds(task.label, task.attempt)
            if delay > 0:
                time.sleep(delay)
        queue.append(task)

    def _run_inline_with_retry(self, task, inline_call, events,
                               prepare_retry=None):
        """Sequential execution of one task, same retry/fallback rules."""
        while True:
            try:
                return inline_call(task)
            except Exception as exc:
                # Inline retry loop: requeue-to-self (the deque-based
                # engine handles pool dispatch; here the task just spins
                # in place until it succeeds or exhausts its budget).
                local: deque = deque()
                self._retry_or_raise(task, _error_summary(exc), local,
                                     events, prepare_retry)

    @staticmethod
    def _sweep_prepare_retry(task) -> str:
        """Classify a sweep retry: flaky non-reference backends fall back.

        Any failure of a task whose config selects a non-``reference``
        compute backend (a ``None`` selection resolves to the process
        default) retries on ``reference`` — the parity contract makes the
        results bit-identical, so trading speed for certainty is always
        sound mid-sweep.
        """
        config = task.payload
        backend = getattr(config, "backend", None) or default_backend_name()
        if backend != "reference":
            task.payload = config.with_backend("reference")
            task.fallback = True
            return "backend-fallback"
        return "retry"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evaluate_inline_guarded(self, spec, task, injector):
        """Inline evaluation with the process-agnostic fault guards."""
        if injector is not None:
            injector.task(task.label, task.attempt)
            injector.backend(task.label, task.attempt, task.payload.backend)
        return self._evaluate_inline(spec, task.payload)

    def _evaluate_inline(self, spec, config):
        framework = _memo_framework(self._frameworks, spec)
        start = time.perf_counter()
        evaluation = framework.evaluate(config)
        return evaluation, time.perf_counter() - start

    def _build_stats(self, wall_seconds, chunk_size, tasks, events):
        notes = list(events["notes"])
        if events["fallback_notes"]:
            fell_back = ", ".join(sorted(events["fallback_notes"]))
            notes.append(f"backend fell back to reference for: {fell_back}")
        return RunnerStats(
            wall_seconds=wall_seconds,
            max_workers=self.max_workers,
            chunk_size=chunk_size,
            tasks=tasks,
            retries=events["retries"],
            fallbacks=events["fallbacks"],
            timeouts=events["timeouts"],
            pool_rebuilds=events["pool_rebuilds"],
            degraded=events["degraded"],
            resumed_skipped=events["resumed_skipped"],
            notes=notes,
        )

    def _chunk_size_for(self, n_tasks: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if n_tasks <= 0 or self.max_workers == 1:
            return 1
        return max(1, math.ceil(n_tasks / (self.max_workers * 2)))


def _new_events() -> dict:
    return {
        "retries": 0,
        "fallbacks": 0,
        "timeouts": 0,
        "pool_rebuilds": 0,
        "degraded": False,
        "resumed_skipped": 0,
        "notes": [],
        "fallback_notes": [],
    }
