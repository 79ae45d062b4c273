"""Retry, timeout, and degradation policy of the fault-tolerant runner.

One frozen value object holds every knob the
:class:`~repro.runtime.ExperimentRunner` consults when a task or a
worker pool fails.  The defaults are conservative: a couple of retries
with sub-second backoff, no task deadline (hang detection is opt-in —
a deadline that is too tight turns slow-but-correct work into churn),
and sequential degradation after three consecutive pool losses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import stable_fraction

__all__ = ["RetryPolicy"]

#: Longest retry delay in seconds, before jitter.
BACKOFF_CAP = 2.0
#: Deterministic per-(task, attempt) stretch of a retry delay, in
#: ``[0, JITTER]`` of the delay: reproducible runs, no thundering requeues.
JITTER = 0.5
#: Seconds added to every chunk deadline on top of the per-task budget.
TIMEOUT_GRACE = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner reacts to task and pool failures.

    Attributes
    ----------
    max_retries:
        Retries per task after its first failure (0 = fail fast).  A
        pool-level failure (worker crash) charges one attempt to every
        in-flight task, since the culprit cannot be identified.
    backoff_base:
        Retry delay ``min(BACKOFF_CAP, base * 2**(attempt-1))`` stretched
        by a deterministic per-(task, attempt) :data:`JITTER`.
    task_timeout:
        Per-task deadline in seconds; a dispatched chunk's deadline is
        ``task_timeout * len(chunk) + TIMEOUT_GRACE`` measured from
        submission (so it also budgets time spent queued behind other
        chunks).  ``None`` disables hang detection.
    pool_failure_limit:
        Consecutive ``BrokenProcessPool`` losses tolerated before the
        runner degrades to the bit-identical sequential inline path for
        the remaining work.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    task_timeout: float | None = None
    pool_failure_limit: int = 3

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0 or None, got {self.task_timeout}"
            )
        if self.pool_failure_limit < 1:
            raise ValueError(
                f"pool_failure_limit must be >= 1, got {self.pool_failure_limit}"
            )

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` of ``key``."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(BACKOFF_CAP, self.backoff_base * 2 ** max(0, attempt - 1))
        return delay * (1.0 + JITTER * stable_fraction("backoff", key, attempt))

    def chunk_deadline_seconds(self, n_tasks: int) -> float | None:
        """Deadline budget of one dispatched chunk, or None when disabled."""
        if self.task_timeout is None:
            return None
        return self.task_timeout * max(1, n_tasks) + TIMEOUT_GRACE
