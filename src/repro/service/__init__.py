"""Sweep service: power-quality tradeoff queries as a served API.

The batch surfaces (``repro sweep``, the framework, the autotuner) answer
one process's questions; this subsystem serves *fleets* of them.  A
service instance (``repro serve``) exposes:

- ``POST /v1/sweep`` — "what does app X lose under configuration C?" —
  answered from the content-addressed result cache when warm, computed
  through a coalescing, bounded work queue when cold, optionally
  streamed as NDJSON progress;
- ``/cache/v1/...`` — the shared-cache peer surface: another instance
  pointed at this one (``--remote-cache``) reads and writes this
  instance's warm set through
  :class:`~repro.runtime.HTTPCacheBackend`, so N boxes converge on one
  cache with zero recomputation;
- ``/healthz`` / ``/readyz`` / ``/drainz`` — liveness, readiness
  (queue depth, draining — what fleet placement routes on), and
  graceful drain;
- ``/queuez`` / ``/metricsz`` — queue depths and counters, and
  Prometheus metrics.

Across instances, :class:`FleetClient` (``repro call --fleet``) turns N
nodes into one resilient endpoint: rendezvous-hash placement by cache
key, per-member circuit breakers, hedged retries for stragglers, and
failover that re-routes a dead node's keys — while each node's durable
queue journal (:mod:`repro.service.journal`) guarantees a killed node
recomputes zero completed configs on restart.

Guarantees, in one line each:

- **Bit-identical answers**: every response document is the sanitized
  cache entry (volatile timing dropped) serialized canonically — warm,
  cold, coalesced, local, or remote paths all produce identical bytes.
- **Exactly-once compute**: identical in-flight work (by cache key)
  coalesces to one execution with all waiters notified
  (``repro_service_coalesced_total``).
- **Bounded**: the queue admits at most ``max_pending`` distinct items
  (429 + ``Retry-After`` beyond) and at most ``max_configs``
  configurations per request (413).

See ``docs/SERVICE.md`` for the schema and topology recipes.
"""

from .client import ServiceClient, ServiceError
from .fleet import (
    BreakerOpen,
    CircuitBreaker,
    FleetClient,
    FleetError,
    rendezvous_rank,
)
from .journal import JOURNAL_FILENAME, QueueJournal
from .protocol import (
    DEFAULT_METRICS,
    HIGHER_IS_BETTER,
    ProtocolError,
    SweepRequest,
    canonical_json,
    meets_target,
    sanitize_document,
)
from .queue import DrainingError, QueueFullError, SweepQueue
from .server import (
    ServerHandle,
    ServiceConfig,
    SweepService,
    run_server,
    serve_in_thread,
)

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "DEFAULT_METRICS",
    "DrainingError",
    "FleetClient",
    "FleetError",
    "HIGHER_IS_BETTER",
    "JOURNAL_FILENAME",
    "ProtocolError",
    "QueueFullError",
    "QueueJournal",
    "ServerHandle",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SweepQueue",
    "SweepRequest",
    "SweepService",
    "canonical_json",
    "meets_target",
    "rendezvous_rank",
    "run_server",
    "sanitize_document",
    "serve_in_thread",
]
