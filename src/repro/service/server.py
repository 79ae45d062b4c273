"""Threaded HTTP server of the sweep service (stdlib ``http.server``).

``repro serve`` binds this server; the dependency posture matches the
rest of the project (no third-party HTTP stack — a
:class:`http.server.ThreadingHTTPServer` answering HTTP/1.1 with
``Connection: close`` semantics, which sidesteps keep-alive and
chunked-encoding state machines entirely).  Each connection gets its own
thread: it reads the cache and admits misses to the work queue inline,
then blocks on the queue's delivery for up to ``request_timeout``, so a
slow request never holds up another and every request's trace spans
nest on its own thread.

Endpoints (schema in ``docs/SERVICE.md``):

- ``POST /v1/sweep`` — the tradeoff query; warm configurations answer
  from the result cache, misses go through the coalescing work queue.
  ``"stream": true`` switches the response to NDJSON progress lines.
- ``GET /healthz`` — pure liveness: the process is up and answering.
- ``GET /readyz`` — readiness: 200 only when the node should receive
  *new* work (not draining, queue below capacity, backends healthy);
  503 otherwise, with the reasons in the body.  Fleet placement routes
  on this, never on liveness.
- ``POST /drainz`` — graceful drain: stop admitting cache-miss work,
  finish everything in flight, flip readiness.  ``DELETE /drainz``
  resumes admissions.
- ``GET /queuez`` / ``GET /metricsz`` — queue introspection and
  Prometheus metrics.
- ``/cache/v1/...`` — the shared-cache peer surface consumed by
  :class:`~repro.runtime.HTTPCacheBackend`, so one instance's warm store
  can back another's reads (N boxes, one warm set).

Admitted cache-miss work is journaled (``<cache dir>/manifests/
queue.journal``) and replayed at startup: orphans already present in the
(possibly shared) cache are recovered without recomputation, the rest are
re-enqueued — see :mod:`repro.service.journal`.

Deterministic service faults (``REPRO_FAULTS`` kinds ``slow-response``,
``dropped-connection``, ``queue-full``) are injected at the request
boundary, keyed by request path with the client's ``X-Repro-Attempt``
header as the attempt axis — so ``times=N`` clauses disturb exactly the
first N attempts and provably recover on retry.  The fleet kinds
``node-crash`` and ``slow-node`` guard the same boundary keyed by
``"<host:port><path>"`` so one member of an in-process fleet can be
targeted by port (see :mod:`repro.faults`).
"""

from __future__ import annotations

import http.server
import json
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults, telemetry
from repro.core import IHWConfig
from repro.core.backends.threads import resolve_thread_count
from repro.faults.injector import CRASH_EXIT_CODE
from repro.runtime import (
    CacheBackendError,
    DirectoryBackend,
    ExperimentRunner,
    ExperimentSpec,
    HTTPCacheBackend,
    ResultCache,
    RetryPolicy,
)
from repro.runtime.manifest import MANIFEST_DIRNAME

from .journal import QueueJournal
from .protocol import (
    ProtocolError,
    SweepRequest,
    canonical_json,
    meets_target,
    sanitize_document,
)
from .queue import DrainingError, QueueFullError, SweepQueue

__all__ = ["ServiceConfig", "SweepService", "ServerHandle",
           "serve_in_thread", "run_server"]

#: Largest accepted request body (a sweep request is a few KiB of JSON;
#: cache-peer npz payload PUTs are the big legitimate writes).
MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 32 * 1024

_JSON = "application/json"
_BINARY = "application/octet-stream"


@dataclass
class ServiceConfig:
    """Tunables of one service instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    cache_dir: str = ".repro_cache"
    remote_cache: str | None = None  # peer base URL -> shared warm set
    max_pending: int = 64
    max_configs: int = 64  # per-request configuration bound (413 above)
    retry_after: float = 2.0
    request_timeout: float = 300.0
    journal: bool = True  # durable queue journal under cache_dir


class SweepService:
    """The application behind the HTTP surface (transport-independent).

    Routing takes a request object with ``command``, ``path``, ``body``
    and ``respond(status, payload, ...)``; :class:`_Handler` is the one
    the server passes.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        if config.remote_cache:
            backend = HTTPCacheBackend(config.remote_cache)
            self.cache = ResultCache(backend=backend)
        else:
            self.cache = ResultCache(
                backend=DirectoryBackend(config.cache_dir)
            )
        #: Set by the transport once the socket is bound ("host:port");
        #: the node-targeted fault kinds key on it.
        self.node_id = ""
        self.journal = None
        orphans: list = []
        if config.journal:
            # Node-local state even when the *store* is a remote peer:
            # the journal records what this node's queue owes, and the
            # (possibly shared) cache is consulted at replay to decide
            # what still needs computing.
            self.journal = QueueJournal(
                Path(config.cache_dir) / MANIFEST_DIRNAME
                / "queue.journal"
            )
            orphans = self.journal.replay()
            self.journal.reset()
        self.queue = SweepQueue(
            cache=self.cache,
            runner_factory=self._make_runner,
            max_pending=config.max_pending,
            retry_after=config.retry_after,
            journal=self.journal,
        )
        #: Replay accounting, surfaced by /readyz and ``repro serve``.
        self.recovered = {"complete": 0, "requeued": 0, "invalid": 0}
        if orphans:
            self._recover(orphans)
        self.started = time.time()
        # What a parallel backend would resolve to in this process: lets
        # /metricsz distinguish a service running wide from one whose
        # sweeps execute single-threaded.
        telemetry.gauge_set("repro_backend_threads",
                            resolve_thread_count())
        # npz payloads a cache peer staged ahead of the entry document
        # (the backend protocol writes npz-before-json for crash safety).
        self._staged_npz: dict = {}
        self._staged_lock = threading.Lock()

    def _recover(self, orphans: list) -> None:
        """Resolve journal orphans: cache-present keys are already done
        (computed by this node pre-crash or by a peer on the shared
        store); the rest re-enter the queue through normal admission.
        The invariant this enforces is the acceptance criterion of the
        journal: a killed node recomputes **zero** completed configs.
        """
        for record in orphans:
            try:
                spec = ExperimentSpec.from_canonical(record["spec"])
                config = IHWConfig.from_canonical(record["config"])
            except (KeyError, TypeError, ValueError):
                self.recovered["invalid"] += 1
                telemetry.counter_inc("repro_service_journal_replayed_total",
                                      outcome="invalid")
                continue
            try:
                present = self.cache.backend.contains(
                    self.cache.key(spec, config))
            except CacheBackendError:
                present = False  # unreachable peer: recompute (idempotent)
            if present:
                self.recovered["complete"] += 1
                telemetry.counter_inc("repro_service_journal_replayed_total",
                                      outcome="complete")
                continue
            self.queue.submit(spec, config, waiter=_discard_waiter)
            self.recovered["requeued"] += 1
            telemetry.counter_inc("repro_service_journal_replayed_total",
                                  outcome="requeued")

    def _make_runner(self) -> ExperimentRunner:
        # The queue thread's runner: inline (max_workers=1) keeps execution
        # deterministic and fork-free inside server threads; manifests
        # are disabled — the queue is its own progress authority.
        return ExperimentRunner(
            max_workers=1,
            cache=self.cache,
            policy=RetryPolicy(),
            checkpoint_every=0,
        )

    def close(self) -> None:
        self.queue.shutdown()
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def handle(self, request) -> None:
        """Dispatch one request; ``request.respond`` writes the answer."""
        path = request.path.split("?", 1)[0]
        method = request.command
        if path == "/healthz" and method == "GET":
            request.respond(200, self._healthz())
        elif path == "/readyz" and method == "GET":
            doc = self._readyz()
            request.respond(200 if doc["ready"] else 503, doc)
        elif path == "/drainz" and method == "POST":
            self.queue.start_draining()
            telemetry.counter_inc("repro_service_requests_total",
                                  endpoint="drainz")
            snapshot = self.queue.snapshot()
            request.respond(200, {
                "draining": True,
                "pending": snapshot["pending"],
                "inflight": snapshot["inflight"],
            })
        elif path == "/drainz" and method == "DELETE":
            self.queue.stop_draining()
            request.respond(200, {"draining": False})
        elif path == "/queuez" and method == "GET":
            request.respond(200, self.queue.snapshot())
        elif path == "/metricsz" and method == "GET":
            text = telemetry.get_registry().prometheus_text() + "\n"
            request.respond(200, text.encode("utf-8"),
                            content_type="text/plain; charset=utf-8")
        elif path == "/v1/sweep" and method == "POST":
            self._handle_sweep(request)
        elif path.startswith("/cache/v1/"):
            self._handle_cache(request, path)
        else:
            request.respond(404, {"error": f"no route for {method} {path}"})

    def _healthz(self) -> dict:
        # Liveness only: "the process is up".  Everything that should
        # steer *placement* — draining, capacity, degradation — lives in
        # /readyz, so a drained node still answers health probes.
        snapshot = self.queue.snapshot()
        return {
            "status": "ok",
            "service": "repro-sweep-service",
            "uptime_seconds": round(time.time() - self.started, 3),
            "cache": str(self.cache.root),
            "pending": snapshot["pending"],
            "inflight": snapshot["inflight"],
        }

    def _readyz(self) -> dict:
        snapshot = self.queue.snapshot()
        reasons = []
        if snapshot["draining"]:
            reasons.append("draining")
        if snapshot["inflight"] >= snapshot["max_pending"]:
            reasons.append("queue-full")
        if snapshot["degraded"]:
            reasons.append("degraded-backend")
        return {
            "ready": not reasons,
            "reasons": reasons,
            "draining": snapshot["draining"],
            "degraded": snapshot["degraded"],
            "pending": snapshot["pending"],
            "inflight": snapshot["inflight"],
            "max_pending": snapshot["max_pending"],
            "recovered": dict(self.recovered),
        }

    # ------------------------------------------------------------------
    # Sweep queries
    # ------------------------------------------------------------------
    def _handle_sweep(self, request) -> None:
        try:
            body = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            request.respond(400, {"error": f"request body is not JSON: {exc}"})
            return
        try:
            sweep = SweepRequest.from_document(
                body, max_configs=self.config.max_configs
            )
        except ProtocolError as exc:
            request.respond(exc.status, {"error": str(exc)})
            return

        with telemetry.span(
            "service.request", app=sweep.spec.app,
            configs=len(sweep.configs),
        ) as request_span:
            parent_id = request_span["id"] if request_span else None
            warm: dict = {}
            replies: dict = {}
            try:
                for name, config in sweep.configs.items():
                    doc = self.cache.document(sweep.spec, config)
                    if doc is not None:
                        warm[name] = sanitize_document(doc)
                        continue
                    reply = _Reply()
                    self.queue.submit(sweep.spec, config, reply.deliver,
                                      parent_id)
                    replies[name] = reply
            except QueueFullError as exc:
                # Work already admitted still runs and lands in the
                # cache; its replies simply go unread.
                request.respond(
                    429,
                    {"error": str(exc), "retry_after": exc.retry_after},
                    headers={"Retry-After": f"{exc.retry_after:.0f}"},
                )
                return
            except DrainingError as exc:
                # The request needed new computation and this node is
                # winding down: refuse the whole sweep so the client
                # (or fleet placement) routes it to a ready peer.
                request.respond(503, {"error": str(exc), "draining": True})
                return
            telemetry.counter_inc("repro_service_requests_total",
                                  endpoint="sweep")
            telemetry.counter_inc("repro_service_cache_outcomes_total",
                                  outcome="hit", amount=float(len(warm)))
            telemetry.counter_inc("repro_service_cache_outcomes_total",
                                  outcome="miss", amount=float(len(replies)))
            if sweep.stream:
                self._respond_stream(request, sweep, warm, replies)
            else:
                self._respond_unary(request, sweep, warm, replies)

    def _respond_unary(self, request, sweep, warm, replies) -> None:
        results = {}
        errors = 0
        for name in sweep.configs:
            if name in warm:
                results[name] = warm[name]
                continue
            doc, error = replies[name].wait(self.config.request_timeout)
            if error is None:
                results[name] = doc
            else:
                results[name] = {"error": error}
                errors += 1
        payload = {
            "app": sweep.spec.app,
            "experiment": sweep.spec.canonical(),
            "results": results,
            "served": {
                "hits": len(warm),
                "misses": len(replies),
                "errors": errors,
            },
        }
        if sweep.quality_target is not None:
            payload["target_met"] = {
                name: meets_target(sweep.spec.metric,
                                   doc["quality"], sweep.quality_target)
                for name, doc in results.items() if "quality" in doc
            }
        request.respond(200, payload)

    def _respond_stream(self, request, sweep, warm, replies) -> None:
        """NDJSON progress: one line per configuration, then a summary."""
        stream = request.respond(200, None,
                                 content_type="application/x-ndjson",
                                 stream=True)
        errors = 0
        for name in sweep.configs:
            if name in warm:
                stream({"name": name, "status": "hit", "result": warm[name]})
        for name, reply in replies.items():
            doc, error = reply.wait(self.config.request_timeout)
            if error is None:
                stream({"name": name, "status": "computed", "result": doc})
            else:
                errors += 1
                stream({"name": name, "status": "error", "error": error})
        stream({"done": True, "served": {
            "hits": len(warm), "misses": len(replies), "errors": errors,
        }})

    # ------------------------------------------------------------------
    # Cache peer surface
    # ------------------------------------------------------------------
    def _handle_cache(self, request, path) -> None:
        backend = self.cache.backend
        parts = path[len("/cache/v1/"):].split("/")
        method = request.command

        if parts == ["statz"] and method == "GET":
            request.respond(200, {"entries": backend.entry_count()})
            return
        if not parts or not parts[0]:
            request.respond(404, {"error": "missing cache key"})
            return
        key = parts[0]
        if not _valid_key(key):
            request.respond(400, {"error": f"malformed cache key {key!r}"})
            return
        sub = parts[1] if len(parts) > 1 else None
        if len(parts) > 2 or sub not in (None, "npz", "lock"):
            request.respond(404, {"error": f"no cache route {path!r}"})
            return

        handler = {
            (None, "GET"): self._cache_get_json,
            (None, "HEAD"): self._cache_head,
            (None, "PUT"): self._cache_put_json,
            ("npz", "GET"): self._cache_get_npz,
            ("npz", "PUT"): self._cache_put_npz,
            ("lock", "POST"): self._cache_lock,
            ("lock", "DELETE"): self._cache_unlock,
        }.get((sub, method))
        if handler is None:
            request.respond(405,
                            {"error": f"{method} not supported on {path}"})
            return
        handler(backend, key, request)

    def _cache_get_json(self, backend, key, request):
        text = backend.read_json(key)
        if text is None:
            request.respond(404, {"error": "no such entry"})
        else:
            request.respond(200, text.encode("utf-8"), content_type=_JSON)

    def _cache_head(self, backend, key, request):
        status = 200 if backend.contains(key) else 404
        request.respond(status, b"", head=True)

    def _cache_put_json(self, backend, key, request):
        with self._staged_lock:
            npz = self._staged_npz.pop(key, None)
        backend.write_entry(key, request.body.decode("utf-8"), npz)
        telemetry.counter_inc("repro_service_peer_writes_total")
        request.respond(200, {"stored": key})

    def _cache_get_npz(self, backend, key, request):
        data = backend.read_npz(key)
        if data is None:
            request.respond(404, {"error": "no such payload"})
        else:
            request.respond(200, data, content_type=_BINARY)

    def _cache_put_npz(self, backend, key, request):
        # Staged until the entry document lands: the backend contract
        # writes npz-before-json so a torn write can never parse.
        with self._staged_lock:
            self._staged_npz[key] = request.body
        request.respond(200, {"staged": key})

    def _cache_lock(self, backend, key, request):
        if backend.acquire_lock(key):
            request.respond(200, {"locked": key})
        else:
            request.respond(409, {"error": "entry is locked"})

    def _cache_unlock(self, backend, key, request):
        backend.release_lock(key)
        request.respond(200, {"unlocked": key})


def _valid_key(key: str) -> bool:
    return (0 < len(key) <= 64 and
            all(c in "0123456789abcdef" for c in key))


def _discard_waiter(doc, error) -> None:
    """Waiter for journal-replayed work: nobody is on the socket for it —
    the result lands in the cache, which is the whole point."""


class _Reply:
    """One queue delivery, awaited by the request thread that asked."""

    __slots__ = ("_done", "_doc", "_error")

    def __init__(self):
        self._done = threading.Event()
        self._doc = None
        self._error = None

    def deliver(self, doc, error) -> None:
        """The queue's ``waiter(doc, error)``, called on a worker thread."""
        self._doc, self._error = doc, error
        self._done.set()

    def wait(self, timeout: float) -> tuple:
        """``(doc, None)`` on success, ``(None, error text)`` otherwise."""
        if not self._done.wait(timeout):
            return None, "computation timed out"
        if self._error is not None:
            return None, str(self._error)
        return self._doc, None


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
class _Handler(http.server.BaseHTTPRequestHandler):
    """One connection: parse, bound, run the fault guards, then route."""

    protocol_version = "HTTP/1.1"
    # Parse errors are answered with a status line, never HTTP/0.9-style.
    default_request_version = "HTTP/1.0"
    # Per-request state, set by _dispatch once the request is admitted.
    body = b""
    attempt = 0
    injector = None
    responded = False

    def _dispatch(self) -> None:
        self.close_connection = True
        if len(self.requestline.split()) != 3:
            self.respond(400, {"error": "malformed request line"})
            return
        if len(self.raw_requestline) + len(str(self.headers)) \
                > MAX_HEADER_BYTES:
            self.respond(431, {"error": "request header block too large"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self.respond(400, {"error": "malformed Content-Length"})
            return
        if not 0 <= length <= MAX_BODY_BYTES:
            # Refused before reading: the body never enters memory.
            self.respond(413, {"error": f"body of {length} bytes is outside "
                                        f"[0, {MAX_BODY_BYTES}]"})
            return
        self.body = self.rfile.read(length)
        if len(self.body) < length:
            return  # the peer hung up mid-body
        try:
            self.attempt = int(self.headers.get("X-Repro-Attempt", "0"))
        except ValueError:
            self.attempt = 0
        self.injector = faults.active()
        service = self.server.service
        try:
            if self.injector is not None:
                # Node-targeted fleet faults: keyed by "<host:port><path>"
                # so a clause can match one member of an in-process fleet
                # by port, one endpoint by path, or both.
                node_key = f"{service.node_id}{self.path}"
                if self.injector.node_crash(node_key, self.attempt):
                    # Die exactly as a power cut would: no cleanup, no
                    # journal compaction, no goodbye on the socket.
                    os._exit(CRASH_EXIT_CODE)
                stall = self.injector.slow_node(node_key, self.attempt)
                if stall > 0:
                    time.sleep(stall)
            if self.injector is not None and self.injector.queue_full(
                    self.path, self.attempt):
                retry_after = service.config.retry_after
                self.respond(
                    429,
                    {"error": "injected queue-full",
                     "retry_after": retry_after},
                    headers={"Retry-After": f"{retry_after:.0f}"},
                )
            else:
                service.handle(self)
        except ConnectionError:
            pass  # the peer went away, or an injected drop tore the socket
        except Exception as exc:  # one request must not take the server down
            telemetry.counter_inc("repro_service_errors_total")
            if not self.responded:
                try:
                    self.respond(500, {"error": f"internal error: {exc}"})
                except ConnectionError:
                    pass

    do_GET = do_POST = do_PUT = do_DELETE = do_HEAD = _dispatch

    def respond(self, status, payload, content_type=None, headers=None,
                stream=False, head=False):
        """Write one response; with ``stream`` return a line writer."""
        self.responded = True
        injector = self.injector
        if injector is not None:
            delay = injector.slow_response(self.path, self.attempt)
            if delay:
                time.sleep(delay)
            if injector.drop_connection(self.path, self.attempt):
                # Sever mid-exchange with a RST (linger 0), as a torn
                # connection looks: the client must retry with an
                # incremented attempt header.
                self.connection.setsockopt(socket.SOL_SOCKET,
                                           socket.SO_LINGER,
                                           struct.pack("ii", 1, 0))
                self.rfile.close()
                self.connection.close()
                raise ConnectionResetError("injected dropped connection")
        if isinstance(payload, (dict, list)):
            body = (canonical_json(payload) + "\n").encode("utf-8")
            content_type = content_type or _JSON
        else:
            body = payload if payload is not None else b""
            content_type = content_type or _BINARY
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Connection", "close")
        if not stream:
            self.send_header("Content-Length", str(0 if head else len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if stream:
            return self._send_line
        if not head:
            self.wfile.write(body)
        return None

    def _send_line(self, doc) -> None:
        self.wfile.write((canonical_json(doc) + "\n").encode("utf-8"))

    def log_message(self, format, *args) -> None:
        """Silent: nothing is logged per request."""


class ServerHandle:
    """A running service instance (its accept loop on its own thread)."""

    def __init__(self, service, server, thread):
        self.service = service
        self.host = service.config.host
        self.port = server.server_address[1]
        self.base_url = f"http://{self.host}:{self.port}"
        self._server = server
        self._thread = thread

    def stop(self, timeout: float = 10.0) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout)
        self.service.close()


def serve_in_thread(config: ServiceConfig) -> ServerHandle:
    """Start a service on a daemon thread; returns once it accepts."""
    service = SweepService(config)
    server = http.server.ThreadingHTTPServer((config.host, config.port),
                                             _Handler)
    server.service = service
    service.node_id = f"{config.host}:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              name="sweep-service", daemon=True)
    thread.start()
    return ServerHandle(service, server, thread)


def run_server(config: ServiceConfig, out=None) -> int:
    """Blocking entry point of ``repro serve`` (Ctrl-C to stop)."""
    import sys

    out = out or sys.stdout
    handle = serve_in_thread(config)
    print(f"sweep service listening on {handle.base_url} "
          f"(cache: {handle.service.cache.root})", file=out)
    recovered = handle.service.recovered
    if any(recovered.values()):
        print(f"journal replay: {recovered['complete']} complete, "
              f"{recovered['requeued']} requeued, "
              f"{recovered['invalid']} invalid", file=out)
    try:
        while handle._thread.is_alive():
            handle._thread.join(timeout=0.5)
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        handle.stop()
    return 0
