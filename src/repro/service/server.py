"""Threaded HTTP server of the sweep service (stdlib ``http.server``).

``repro serve`` binds this server; the dependency posture matches the
rest of the project (no third-party HTTP stack — a
:class:`http.server.ThreadingHTTPServer` answering HTTP/1.1 with
``Connection: close`` semantics, which sidesteps keep-alive and
chunked-encoding state machines entirely).  Each connection gets its own
thread: it reads the cache and admits misses to the work queue inline,
then blocks on the queue's delivery for up to :data:`REQUEST_TIMEOUT_S`,
so a slow request never holds up another and every request's trace
spans nest on its own thread.

Endpoints (schema in ``docs/SERVICE.md``):

- ``POST /v1/sweep`` — the tradeoff query; warm configurations answer
  from the result cache, misses go through the coalescing work queue.
- ``GET /healthz`` — pure liveness: the process is up and answering.
- ``GET /readyz`` — readiness: 200 while the queue is below capacity,
  503 with ``"queue-full"`` in ``reasons`` once it is not.  Start-up
  scripts wait on this, never on liveness.
- ``GET /queuez`` / ``GET /metricsz`` — queue introspection and
  Prometheus metrics.

A node has one lifecycle: start, serve, stop.  :meth:`ServerHandle.stop`
answers every queued request with ``node shutting down``; the client
resends, and a node restarted on the same cache directory answers the
configurations that finished as hits and computes only the rest.

Deterministic service faults (``REPRO_FAULTS`` kinds ``slow-response``,
``dropped-connection``, ``queue-full``) are injected at the request
boundary, keyed by request path with the client's ``X-Repro-Attempt``
header as the attempt axis — so ``times=N`` clauses disturb exactly the
first N attempts and provably recover on retry.  ``node-crash`` guards
the same boundary keyed by ``"<host:port><path>"`` and kills the whole
process, so a clause can target one instance by port or one crafted
request by path (see :mod:`repro.faults`).
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

from repro import faults, telemetry
from repro.core.backends.threads import resolve_thread_count
from repro.faults.injector import CRASH_EXIT_CODE
from repro.runtime import ExperimentRunner, ResultCache

from .protocol import (
    ProtocolError,
    SweepRequest,
    canonical_json,
    sanitize_document,
)
from .queue import QueueFullError, SweepQueue

__all__ = ["ServiceConfig", "SweepService", "ServerHandle",
           "serve_in_thread", "run_server"]

#: Largest accepted request body.  One canonical configuration is
#: 200-250 bytes of JSON, so a request at the default ``max_configs``
#: (64) is about 16 KB.
MAX_BODY_BYTES = 1024 * 1024
MAX_HEADER_BYTES = 32 * 1024
#: How long a request thread waits for the queue to deliver one miss.
REQUEST_TIMEOUT_S = 300.0

_JSON = "application/json"
_BINARY = "application/octet-stream"


@dataclass
class ServiceConfig:
    """Tunables of one service instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    cache_dir: str = ".repro_cache"
    max_pending: int = 64
    max_configs: int = 64  # per-request configuration bound (413 above)
    retry_after: float = 2.0


class SweepService:
    """The application behind the HTTP surface (transport-independent).

    Routing takes a request object with ``command``, ``path``, ``body``
    and ``respond(status, payload, ...)``; :class:`_Handler` is the one
    the server passes.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.cache = ResultCache(config.cache_dir)
        #: Set by the transport once the socket is bound ("host:port");
        #: the ``node-crash`` fault kind keys on it.
        self.node_id = ""
        self.queue = SweepQueue(
            cache=self.cache,
            runner_factory=self._make_runner,
            max_pending=config.max_pending,
            retry_after=config.retry_after,
        )
        self.started = time.time()
        # What a parallel backend would resolve to in this process: lets
        # /metricsz distinguish a service running wide from one whose
        # sweeps execute single-threaded.
        telemetry.gauge_set("repro_backend_threads",
                            resolve_thread_count())

    def _make_runner(self) -> ExperimentRunner:
        # The queue thread's runner: inline (max_workers=1) keeps execution
        # deterministic and fork-free inside server threads.
        return ExperimentRunner(max_workers=1, cache=self.cache)

    def close(self) -> None:
        self.queue.shutdown()

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
        elif path == "/queuez" and method == "GET":
            request.respond(200, self.queue.snapshot())
        elif path == "/metricsz" and method == "GET":
            text = telemetry.get_registry().prometheus_text() + "\n"
            request.respond(200, text.encode("utf-8"),
                            content_type="text/plain; charset=utf-8")
        elif path == "/v1/sweep" and method == "POST":
            self._handle_sweep(request)
        else:
            request.respond(404, {"error": f"no route for {method} {path}"})

    def _healthz(self) -> dict:
        # Liveness only: "the process is up".  Whether the node has room
        # for new work is /readyz's question, so a full queue still
        # answers health probes.
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
        if snapshot["inflight"] >= snapshot["max_pending"]:
            reasons.append("queue-full")
        return {
            "ready": not reasons,
            "reasons": reasons,
            "pending": snapshot["pending"],
            "inflight": snapshot["inflight"],
            "max_pending": snapshot["max_pending"],
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
            telemetry.counter_inc("repro_service_requests_total",
                                  endpoint="sweep")
            telemetry.counter_inc("repro_service_cache_outcomes_total",
                                  outcome="hit", amount=float(len(warm)))
            telemetry.counter_inc("repro_service_cache_outcomes_total",
                                  outcome="miss", amount=float(len(replies)))
            self._answer(request, sweep, warm, replies)

    def _answer(self, request, sweep, warm, replies) -> None:
        """Wait for every miss, then answer with one JSON document."""
        results = {}
        errors = 0
        for name in sweep.configs:
            if name in warm:
                results[name] = warm[name]
                continue
            doc, error = replies[name].wait(REQUEST_TIMEOUT_S)
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
        request.respond(200, payload)


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
            return  # the client hung up mid-body
        try:
            self.attempt = int(self.headers.get("X-Repro-Attempt", "0"))
        except ValueError:
            self.attempt = 0
        self.injector = faults.active()
        service = self.server.service
        try:
            # Keyed by "<host:port><path>": a clause can match one
            # instance by port, one crafted request by path, or both.
            if self.injector is not None and self.injector.node_crash(
                    f"{service.node_id}{self.path}", self.attempt):
                # Die exactly as a power cut would: no cleanup, no
                # goodbye on the socket.
                os._exit(CRASH_EXIT_CODE)
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
            pass  # the client went away, or an injected drop tore the socket
        except Exception as exc:  # one request must not take the server down
            telemetry.counter_inc("repro_service_errors_total")
            if not self.responded:
                try:
                    self.respond(500, {"error": f"internal error: {exc}"})
                except ConnectionError:
                    pass

    do_GET = do_POST = _dispatch

    def respond(self, status, payload, content_type=None, headers=None):
        """Write one response."""
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
            body = payload
            content_type = content_type or _BINARY
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Connection", "close")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

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
    try:
        while handle._thread.is_alive():
            handle._thread.join(timeout=0.5)
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        handle.stop()
    return 0
