"""HTTP client of the sweep service (stdlib ``http.client``).

:class:`ServiceClient` is what ``repro call`` uses: it speaks the
``/v1/sweep`` protocol, retries through the service's
backpressure and fault semantics (429 + ``Retry-After``, torn
connections), and advertises its retry count in the ``X-Repro-Attempt``
header — the attempt axis deterministic service faults key on, so a
``dropped-connection:times=1`` injection disturbs exactly the first
attempt and the retry provably recovers.

Every endpoint accepts an explicit per-request ``timeout=`` overriding
the client-wide socket default — a health probe should give up in a
second while a cold sweep on the same client may wait minutes.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse

from repro import telemetry

from .protocol import canonical_json

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A request that failed after exhausting retries; carries ``status``
    (0 for transport-level failures)."""

    def __init__(self, message: str, status: int = 0):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Client of one sweep-service instance.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the instance.
    timeout:
        Per-request socket timeout (seconds).
    retries:
        Additional attempts after the first (429s and torn connections
        are retried; 4xx protocol errors are not).
    backoff:
        Base sleep between retries when the server sends no
        ``Retry-After`` hint.
    """

    def __init__(self, base_url: str, timeout: float = 300.0,
                 retries: int = 3, backoff: float = 0.2):
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise ValueError(
                f"base_url must be http://host:port, got {base_url!r}"
            )
        self.base_url = f"http://{parts.netloc}"
        self.netloc = parts.netloc
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(self, method: str, path: str, body: bytes | None = None,
                content_type: str = "application/json",
                timeout: float | None = None) -> tuple:
        """One request with retry/backoff -> (status, headers, body bytes).

        ``timeout`` overrides the client-wide socket timeout for this
        request only (applied to connect and each read).
        """
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self._delay(last_error, attempt))
            try:
                status, headers, payload = self._once(
                    method, path, body, content_type, attempt, timeout
                )
            except (OSError, http.client.HTTPException) as exc:
                telemetry.counter_inc("repro_service_client_retries_total",
                                      reason="connection")
                last_error = exc
                continue
            if status == 429:
                telemetry.counter_inc("repro_service_client_retries_total",
                                      reason="backpressure")
                last_error = ServiceError(
                    _error_text(payload) or "service is at capacity",
                    status=429,
                )
                last_error.retry_after = _retry_after(headers)
                continue
            return status, headers, payload
        raise ServiceError(
            f"{method} {path} failed after {self.retries + 1} attempts: "
            f"{last_error}",
            status=getattr(last_error, "status", 0),
        )

    def _once(self, method, path, body, content_type, attempt,
              timeout=None):
        connection = http.client.HTTPConnection(
            self.netloc,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            headers = {
                "Content-Type": content_type,
                "X-Repro-Attempt": str(attempt),
                "Connection": "close",
            }
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            return response.status, dict(response.getheaders()), payload
        finally:
            connection.close()

    def _delay(self, last_error, attempt) -> float:
        hinted = getattr(last_error, "retry_after", None)
        if hinted:
            return min(float(hinted), 30.0)
        return self.backoff * attempt

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self, timeout: float | None = None) -> dict:
        return self._get_json("/healthz", timeout=timeout)

    def readyz(self, timeout: float | None = None) -> dict:
        """The readiness document; 503 (not ready) is a valid answer,
        not an error — ``doc["ready"]`` carries the verdict."""
        status, _headers, payload = self.request("GET", "/readyz",
                                                 timeout=timeout)
        if status not in (200, 503):
            raise ServiceError(
                f"GET /readyz returned {status}: {_error_text(payload)}",
                status=status,
            )
        return json.loads(payload)

    def queuez(self, timeout: float | None = None) -> dict:
        return self._get_json("/queuez", timeout=timeout)

    def metricsz(self, timeout: float | None = None) -> str:
        status, _headers, payload = self.request("GET", "/metricsz",
                                                 timeout=timeout)
        if status != 200:
            raise ServiceError(f"/metricsz returned {status}", status=status)
        return payload.decode("utf-8")

    def _get_json(self, path: str, timeout: float | None = None) -> dict:
        status, _headers, payload = self.request("GET", path,
                                                 timeout=timeout)
        if status != 200:
            raise ServiceError(
                f"GET {path} returned {status}: {_error_text(payload)}",
                status=status,
            )
        return json.loads(payload)

    def sweep(self, app: str, *, configs=None, config_specs=None,
              family=None, params=None, metric=None, seed=0,
              threshold=None, timeout: float | None = None) -> dict:
        """One ``POST /v1/sweep`` query -> the parsed response document.

        ``configs`` is ``{name: IHWConfig}`` (serialized canonically);
        ``config_specs``/``family`` pass the shorthand forms through.
        """
        doc = self._request_doc(app, configs, config_specs, family, params,
                                metric, seed, threshold)
        status, _headers, payload = self.request(
            "POST", "/v1/sweep", canonical_json(doc).encode("utf-8"),
            timeout=timeout,
        )
        if status != 200:
            raise ServiceError(
                f"sweep returned {status}: {_error_text(payload)}",
                status=status,
            )
        return json.loads(payload)

    @staticmethod
    def _request_doc(app, configs, config_specs, family, params, metric,
                     seed, threshold) -> dict:
        doc: dict = {"app": app, "seed": int(seed)}
        if params:
            doc["params"] = dict(params)
        if metric:
            doc["metric"] = metric
        if configs:
            doc["configs"] = {
                name: cfg.canonical() for name, cfg in configs.items()
            }
        if config_specs:
            doc["config_specs"] = dict(config_specs)
        if family:
            doc["family"] = family
        if threshold is not None:
            doc["threshold"] = int(threshold)
        return doc


def _retry_after(headers: dict) -> float | None:
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return float(value)
            except ValueError:
                return None
    return None


def _error_text(payload: bytes) -> str:
    try:
        return json.loads(payload).get("error", "")
    except Exception:
        return payload.decode("utf-8", "replace")[:200]
