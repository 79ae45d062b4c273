"""Sweep service: power-quality tradeoff queries as a served API.

The batch surfaces (``repro sweep``, the framework, the autotuner) answer
one process's questions; this subsystem serves them to many clients at
once.  A service instance (``repro serve``) exposes:

- ``POST /v1/sweep`` — "what does app X lose under configuration C?" —
  answered from the content-addressed result cache when warm, computed
  through a coalescing, bounded work queue when cold;
- ``/healthz`` / ``/readyz`` — liveness, and readiness (queue depth);
- ``/queuez`` / ``/metricsz`` — queue depths and counters, and
  Prometheus metrics.

The result cache is the only record of finished work: an instance that
is stopped or killed and restarted on the same cache directory answers
a resent request's finished configurations as hits and computes only
the rest.

Guarantees, in one line each:

- **Bit-identical answers**: every response document is the sanitized
  cache entry (volatile timing dropped) serialized canonically — warm,
  cold and coalesced paths all produce identical bytes.
- **Exactly-once compute**: identical in-flight work (by cache key)
  coalesces to one execution with all waiters notified
  (``repro_service_coalesced_total``).
- **Bounded**: the queue admits at most ``max_pending`` distinct items
  (429 + ``Retry-After`` beyond) and at most ``max_configs``
  configurations per request (413).

See ``docs/SERVICE.md`` for the schema and how to restart a node.
"""

from .client import ServiceClient, ServiceError
from .protocol import (
    DEFAULT_METRICS,
    ProtocolError,
    SweepRequest,
    canonical_json,
    sanitize_document,
)
from .queue import QueueFullError, SweepQueue
from .server import (
    ServerHandle,
    ServiceConfig,
    SweepService,
    run_server,
    serve_in_thread,
)

__all__ = [
    "DEFAULT_METRICS",
    "ProtocolError",
    "QueueFullError",
    "ServerHandle",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SweepQueue",
    "SweepRequest",
    "SweepService",
    "canonical_json",
    "run_server",
    "sanitize_document",
    "serve_in_thread",
]
