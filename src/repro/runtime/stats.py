"""Timing and cache statistics of one runner invocation.

Every :meth:`repro.runtime.ExperimentRunner.sweep` call produces a
:class:`RunnerStats`: wall time, per-task latencies, how many results came
from the cache, and the estimated speedup over a one-task-at-a-time
execution.  The CLI and :mod:`repro.reporting` render its
:meth:`~RunnerStats.summary`; benchmarks persist :meth:`~RunnerStats.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TaskTiming", "RunnerStats", "SPEEDUP_CAP"]

#: Upper bound on the reported ``speedup_vs_sequential``.  The ratio is
#: compute-time / wall-time, so a warm run serving tiny residual compute
#: from a fast wall clock can produce absurd figures (thousands of "x")
#: that mean nothing about parallelism.  Anything above this cap is
#: clamped; real fan-out speedups are bounded by the worker count, which
#: is orders of magnitude below it.
SPEEDUP_CAP = 64.0


@dataclass(frozen=True)
class TaskTiming:
    """One evaluated (or cache-served) task."""

    name: str
    seconds: float  # compute time for misses, lookup time for hits
    cached: bool = False
    attempts: int = 1  # executions it took (1 = first try succeeded)
    fallback: bool = False  # completed on the reference-backend fallback


@dataclass
class RunnerStats:
    """Aggregate outcome of one runner invocation."""

    wall_seconds: float = 0.0
    max_workers: int = 1
    chunk_size: int = 1
    tasks: list = field(default_factory=list)
    # Reliability outcome (all zero/False on an undisturbed run):
    retries: int = 0  # task re-executions after a failure
    fallbacks: int = 0  # retries that switched to the reference backend
    timeouts: int = 0  # chunk deadlines that expired (pool was terminated)
    pool_rebuilds: int = 0  # process pools lost and rebuilt
    degraded: bool = False  # finished on the sequential inline path
    notes: list = field(default_factory=list)  # human-readable reliability notes

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.tasks if t.cached)

    @property
    def cache_misses(self) -> int:
        return self.n_tasks - self.cache_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.n_tasks if self.tasks else 0.0

    @property
    def compute_seconds(self) -> float:
        """Summed per-task compute time of the non-cached tasks."""
        return sum(t.seconds for t in self.tasks if not t.cached)

    @property
    def speedup_vs_sequential(self) -> float:
        """Summed compute time / wall time, clamped to sane territory.

        For a parallel cold run this approaches the effective worker
        count.  Degenerate runs are normalized instead of reported raw:

        - no tasks, zero wall time, or an all-hits warm run (zero compute)
          report ``1.0`` — there was no parallel work to speed up, and the
          raw ratio would be either undefined or a meaningless explosion
          of residual timer noise; compare wall times across runs instead;
        - anything above :data:`SPEEDUP_CAP` is clamped to it.
        """
        if not self.tasks or self.wall_seconds <= 0:
            return 1.0
        compute = self.compute_seconds
        if compute <= 0:
            return 1.0
        return min(compute / self.wall_seconds, SPEEDUP_CAP)

    @property
    def mean_task_seconds(self) -> float:
        computed = [t.seconds for t in self.tasks if not t.cached]
        return sum(computed) / len(computed) if computed else 0.0

    # ------------------------------------------------------------------
    # Rendering / persistence
    # ------------------------------------------------------------------
    @property
    def had_faults(self) -> bool:
        """Whether any reliability event occurred during the run."""
        return bool(
            self.retries or self.fallbacks or self.timeouts
            or self.pool_rebuilds or self.degraded
        )

    def reliability_summary(self) -> str:
        """One-line account of the run's reliability events ("" when clean)."""
        if not self.had_faults:
            return ""
        parts = []
        if self.retries:
            parts.append(f"{self.retries} retr{'ies' if self.retries != 1 else 'y'}")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} backend fallback"
                         f"{'s' if self.fallbacks != 1 else ''}")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeout"
                         f"{'s' if self.timeouts != 1 else ''}")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuild"
                         f"{'s' if self.pool_rebuilds != 1 else ''}")
        if self.degraded:
            parts.append("degraded to sequential")
        return ", ".join(parts)

    def summary(self) -> str:
        text = (
            f"{self.n_tasks} task{'s' if self.n_tasks != 1 else ''} "
            f"in {self.wall_seconds:.3f}s wall "
            f"({self.max_workers} worker{'s' if self.max_workers != 1 else ''}, "
            f"chunk {self.chunk_size}): "
            f"cache hit rate {self.hit_rate:.0%} "
            f"({self.cache_hits} hit / {self.cache_misses} miss), "
            f"compute {self.compute_seconds:.3f}s, "
            f"speedup vs sequential {self.speedup_vs_sequential:.2f}x"
        )
        reliability = self.reliability_summary()
        return f"{text} [{reliability}]" if reliability else text

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "max_workers": self.max_workers,
            "chunk_size": self.chunk_size,
            "n_tasks": self.n_tasks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "compute_seconds": self.compute_seconds,
            "speedup_vs_sequential": self.speedup_vs_sequential,
            "mean_task_seconds": self.mean_task_seconds,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
            "notes": list(self.notes),
            "tasks": [
                {"name": t.name, "seconds": t.seconds, "cached": t.cached,
                 "attempts": t.attempts, "fallback": t.fallback}
                for t in self.tasks
            ],
        }
