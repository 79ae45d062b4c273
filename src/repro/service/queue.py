"""Bounded work queue with request coalescing for the sweep service.

Cache misses become queue items, one per (experiment, configuration) pair,
addressed by the same content key the result cache uses.  That shared
address is what makes coalescing exact: a request for work already
in flight — queued *or* executing — attaches a waiter to the existing
item instead of enqueuing a duplicate, so N concurrent identical requests
cost exactly one computation and one cache write
(``repro_service_coalesced_total`` counts the other N-1).

One worker thread drains the queue; it pops one item, then gathers every
other pending item of the *same experiment* (up to :data:`BATCH_LIMIT`) and
evaluates them as one :meth:`~repro.runtime.ExperimentRunner.sweep` call,
so they share one runner dispatch and cache pass.  Results are
re-read through the cache (:meth:`~repro.runtime.cache.ResultCache.document`)
and delivered to waiters as sanitized entry documents — the identical
bytes a warm request would have been served, which is what makes service
answers bit-identical across the cold/warm/coalesced paths.

Waiters are plain callbacks ``(doc, error)`` invoked on the worker
thread; the HTTP layer's request thread blocks on its own waiter until
the result is delivered or its timeout passes.  Backpressure is a hard bound on distinct
in-flight items — :class:`QueueFullError` carries the ``Retry-After``
hint the server turns into a 429.

The queue lives in memory only.  Everything it delivers is first written
to the result cache, so a node that stops or dies with work still queued
loses nothing but time: restarted on the same cache directory, it
answers the resent request's finished configurations as hits and
computes the rest.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro import telemetry

from .protocol import sanitize_document

__all__ = ["QueueFullError", "SweepQueue"]

#: Most same-experiment items one runner call gathers.
BATCH_LIMIT = 16


class QueueFullError(RuntimeError):
    """The queue's in-flight bound is reached; retry after a delay."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"work queue is full; retry after {retry_after:.0f}s"
        )
        self.retry_after = retry_after


class _Item:
    """One in-flight (spec, config) computation and its waiters."""

    __slots__ = ("key", "spec", "config", "waiters", "parent_span_id",
                 "running")

    def __init__(self, key, spec, config, parent_span_id=None):
        self.key = key
        self.spec = spec
        self.config = config
        self.waiters: list = []  # callables (doc, error) -> None
        self.parent_span_id = parent_span_id
        self.running = False


class SweepQueue:
    """Work-queue scheduler running misses on one worker thread.

    Parameters
    ----------
    cache:
        The service's :class:`~repro.runtime.ResultCache`; results are
        written here and re-read for delivery.
    runner_factory:
        Zero-argument callable producing the
        :class:`~repro.runtime.ExperimentRunner` the worker thread uses
        (built on that thread — runners are not thread-safe).
    max_pending:
        Bound on distinct in-flight items; beyond it :meth:`submit`
        raises :class:`QueueFullError` (coalescing onto existing items
        is always admitted — it adds no work).
    retry_after:
        The backoff hint (seconds) carried by :class:`QueueFullError`.
    """

    def __init__(self, cache, runner_factory, max_pending: int = 64,
                 retry_after: float = 2.0):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.cache = cache
        self.runner_factory = runner_factory
        self.max_pending = max_pending
        self.retry_after = retry_after

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._pending: deque = deque()  # _Item, FIFO
        self._inflight: dict = {}  # key -> _Item (pending or running)
        self._paused = threading.Event()
        self._paused.set()  # set = running; cleared = paused
        self._stopping = False

        self.executions = 0  # runner.sweep calls
        self.completed = 0  # items delivered successfully
        self.failed = 0  # items delivered with an error
        self.coalesced = 0  # submits that attached to existing items

        threading.Thread(target=self._worker_loop, name="sweep-queue",
                         daemon=True).start()

    # ------------------------------------------------------------------
    # Producer side (HTTP handlers)
    # ------------------------------------------------------------------
    def submit(self, spec, config, waiter, parent_span_id=None) -> str:
        """Enqueue one (spec, config) computation, coalescing duplicates.

        ``waiter(doc, error)`` fires exactly once from the worker thread:
        with the sanitized entry document on success, or with the failure
        exception.  Returns ``"queued"`` or ``"coalesced"``.
        """
        key = self.cache.key(spec, config)
        with self._not_empty:
            item = self._inflight.get(key)
            if item is not None:
                item.waiters.append(waiter)
                self.coalesced += 1
                telemetry.counter_inc("repro_service_coalesced_total")
                return "coalesced"
            if self._stopping:
                raise RuntimeError("queue is shut down")
            if len(self._inflight) >= self.max_pending:
                telemetry.counter_inc("repro_service_rejected_total",
                                      reason="queue-full")
                raise QueueFullError(self.retry_after)
            item = _Item(key, spec, config, parent_span_id=parent_span_id)
            item.waiters.append(waiter)
            self._inflight[key] = item
            self._pending.append(item)
            telemetry.counter_inc("repro_service_enqueued_total")
            telemetry.gauge_set("repro_service_queue_depth",
                                len(self._pending))
            self._not_empty.notify()
            return "queued"

    # ------------------------------------------------------------------
    # Introspection / test hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/queuez`` view: depths, bounds and counters."""
        with self._lock:
            running = sum(1 for i in self._inflight.values() if i.running)
            return {
                "pending": len(self._pending),
                "running": running,
                "inflight": len(self._inflight),
                "max_pending": self.max_pending,
                "executions": self.executions,
                "completed": self.completed,
                "failed": self.failed,
                "coalesced": self.coalesced,
                "paused": not self._paused.is_set(),
            }

    def pause(self) -> None:
        """Hold the worker before its next pop (deterministic coalescing
        tests: pause, fire N identical requests, then resume)."""
        self._paused.clear()

    def resume(self) -> None:
        self._paused.set()

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until nothing is in flight; False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    return True
            time.sleep(0.01)
        with self._lock:
            return not self._inflight

    def shutdown(self) -> None:
        """Refuse new work, unblock the idle worker (a daemon thread), and
        fail the waiters of every item not yet running.

        Nothing of those items is kept: a client that resends its request
        to a node restarted on the same cache computes them then.
        """
        with self._not_empty:
            self._stopping = True
            waiters = []
            while self._pending:
                item = self._pending.popleft()
                del self._inflight[item.key]
                waiters.extend(item.waiters)
            self._not_empty.notify_all()
        self._paused.set()
        error = RuntimeError("node shutting down")
        for waiter in waiters:
            try:
                waiter(None, error)
            except Exception:
                telemetry.counter_inc("repro_service_waiter_errors_total")

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        runner = self.runner_factory()
        while True:
            self._paused.wait()
            with self._not_empty:
                while not self._pending and not self._stopping:
                    self._not_empty.wait(timeout=0.5)
                    if not self._paused.is_set():
                        break
                if self._stopping:
                    return
                if not self._paused.is_set() or not self._pending:
                    continue
                batch = self._take_batch()
                telemetry.gauge_set("repro_service_queue_depth",
                                    len(self._pending))
            self._execute_batch(runner, batch)

    def _take_batch(self) -> list:
        """Pop the head item plus same-experiment followers (lock held)."""
        first = self._pending.popleft()
        first.running = True
        batch = [first]
        spec_id = first.spec
        kept: deque = deque()
        while self._pending and len(batch) < BATCH_LIMIT:
            item = self._pending.popleft()
            if item.spec == spec_id:
                item.running = True
                batch.append(item)
            else:
                kept.append(item)
        # Items of other experiments go back in arrival order.
        self._pending.extendleft(reversed(kept))
        return batch

    def _execute_batch(self, runner, batch) -> None:
        spec = batch[0].spec
        configs = {item.key: item.config for item in batch}
        with self._lock:
            self.executions += 1
        telemetry.counter_inc("repro_service_executions_total")
        error = None
        start = time.perf_counter()
        with telemetry.span(
            "service.execute", app=spec.app, configs=len(batch)
        ) as span_doc:
            if span_doc is not None and batch[0].parent_span_id:
                # Re-parent under the span of the request that enqueued
                # the work: the trace crosses the queue boundary intact.
                span_doc["parent"] = batch[0].parent_span_id
            try:
                runner.sweep(spec, configs)
            except Exception as exc:  # delivered to waiters, not raised
                error = exc
        telemetry.histogram_observe("repro_service_execute_seconds",
                                    time.perf_counter() - start)
        for item in batch:
            self._deliver(item, error)

    def _deliver(self, item, error) -> None:
        doc = None
        if error is None:
            doc = self.cache.document(item.spec, item.config)
            if doc is None:
                error = RuntimeError(
                    f"computed result for {item.key[:12]} did not land in "
                    "the cache (uncacheable output or storage failure)"
                )
            else:
                doc = sanitize_document(doc)
        with self._lock:
            self._inflight.pop(item.key, None)
            if error is None:
                self.completed += 1
            else:
                self.failed += 1
            waiters = list(item.waiters)
            item.waiters.clear()
        telemetry.counter_inc(
            "repro_service_items_total",
            outcome="completed" if error is None else "failed",
        )
        for waiter in waiters:
            try:
                waiter(doc, error)
            except Exception:
                # A broken waiter (e.g. its connection already dropped)
                # must not poison delivery to the remaining waiters.
                telemetry.counter_inc("repro_service_waiter_errors_total")
