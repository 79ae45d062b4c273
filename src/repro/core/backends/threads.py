"""Thread-count policy for the multi-core ``threaded`` backend.

The ``threaded`` backend splits elementwise work across OS threads.  How
many threads it may use is a *policy* question that has to compose with
the process-level parallelism of
:class:`~repro.runtime.runner.ExperimentRunner`: a sweep already fans out
over a ``ProcessPoolExecutor`` sized to the machine, so the backend inside
a pool worker must not multiply that out into ``workers x threads``
oversubscription.

Resolution order (first match wins):

1. an explicit ``threads=`` argument (``get_backend(..., threads=N)``,
   ``IHWConfig.backend_threads``, ``repro bench --threads``);
2. the worker pin: inside a runner pool worker every backend gets exactly
   one thread (:func:`pin_worker_threads`, installed by the pool
   initializer);
3. the ``REPRO_THREADS`` environment variable;
4. the usable CPU count (affinity-aware).

Environment- and machine-derived counts are clamped to the usable CPU
count; an *explicit* request is honored as given (callers like ``repro
bench --threads`` enforce their own oversubscription refusal), which also
lets tests exercise real multi-tile execution on small CI machines.
"""

from __future__ import annotations

import os

__all__ = [
    "ENV_VAR",
    "cpu_count",
    "resolve_thread_count",
    "pin_worker_threads",
    "worker_pinned",
    "reset",
]

#: Environment variable selecting the process-wide default thread count.
ENV_VAR = "REPRO_THREADS"

# True inside a runner pool worker; set by the pool initializer so nested
# backend parallelism collapses to one thread per worker process.
_WORKER_PINNED = False


def cpu_count() -> int:
    """Usable CPU count (affinity-aware where the platform supports it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def pin_worker_threads() -> None:
    """Mark this process as a pool worker: backends default to 1 thread.

    Installed as (part of) the runner's ``ProcessPoolExecutor``
    initializer.  An explicit ``threads=`` argument still wins — the pin
    only replaces the *default*, so a caller who deliberately nests
    parallelism can, but nobody does so by accident.
    """
    global _WORKER_PINNED
    _WORKER_PINNED = True


def worker_pinned() -> bool:
    """Whether this process runs as a runner pool worker."""
    return _WORKER_PINNED


def reset() -> None:
    """Clear the worker pin (tests; a fresh interpreter starts unpinned)."""
    global _WORKER_PINNED
    _WORKER_PINNED = False


def _env_threads() -> int | None:
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_VAR}={raw!r} is not an integer thread count"
        ) from None
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be >= 1, got {value}")
    return value


def resolve_thread_count(requested: int | None = None) -> int:
    """Resolve a thread-count request to a concrete, clamped count.

    ``requested`` is an explicit per-call/per-config choice or ``None`` to
    defer to the worker pin, then ``REPRO_THREADS``, then the CPU count.
    Deferred resolutions are clamped to ``[1, cpu_count()]``; an explicit
    request is only validated (``>= 1``), not clamped.
    """
    limit = cpu_count()
    if requested is not None:
        requested = int(requested)
        if requested < 1:
            raise ValueError(f"threads must be >= 1, got {requested}")
        return requested
    if _WORKER_PINNED:
        return 1
    env = _env_threads()
    if env is not None:
        return min(env, limit)
    return limit
