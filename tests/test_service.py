"""Tests for the sweep service: protocol, cache entries, queue, HTTP.

The contract under test mirrors docs/SERVICE.md: every answer is the
sanitized content-addressed cache entry serialized canonically, so the
warm, cold, coalesced, and fault-disturbed paths all produce
bit-identical bytes; identical in-flight work coalesces to one
computation; the queue's backpressure bounds are enforced with retryable
statuses; and a stopped node, restarted on its cache and sent the same
sweep again, computes only the configurations that have no cache entry.
"""

import concurrent.futures
import io
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import faults, telemetry
from repro.core import IHWConfig
from repro.runtime import ExperimentSpec, ResultCache, entry_key
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SweepRequest,
    SweepService,
    canonical_json,
    sanitize_document,
    serve_in_thread,
)

TINY = ExperimentSpec.create("hotspot", metric="mae",
                             rows=8, cols=8, iterations=2)
TINY_PARAMS = {"rows": 8, "cols": 8, "iterations": 2}

CONFIGS = {
    "precise": IHWConfig.precise(),
    "add": IHWConfig.units("add"),
    "all": IHWConfig.all_imprecise(),
}


def start_service(tmp_path, **overrides):
    config = ServiceConfig(cache_dir=str(tmp_path / "svc_cache"), **overrides)
    return serve_in_thread(config)


def start_node(cache_dir, **overrides):
    return serve_in_thread(ServiceConfig(cache_dir=str(cache_dir),
                                         **overrides))


def tiny_sweep(client, configs=None, **kwargs):
    configs = CONFIGS if configs is None else configs
    return client.sweep("hotspot", configs=configs, params=TINY_PARAMS,
                        metric="mae", **kwargs)


def ground_truth(tmp_path, seed=0, configs=None):
    """Results of a clean single-node run on a fresh cache."""
    handle = start_node(tmp_path / "ground_truth")
    try:
        return tiny_sweep(ServiceClient(handle.base_url),
                          configs=configs, seed=seed)["results"]
    finally:
        handle.stop()


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_canonical_configs_round_trip(self):
        request = SweepRequest.from_document({
            "app": "hotspot", "params": TINY_PARAMS,
            "configs": {name: cfg.canonical()
                        for name, cfg in CONFIGS.items()},
        })
        assert request.spec == TINY
        assert request.configs == CONFIGS

    def test_config_specs_match_cli_vocabulary(self):
        request = SweepRequest.from_document({
            "app": "hotspot", "params": TINY_PARAMS,
            "config_specs": {"a": "all", "p": "precise", "u": "add,mul"},
        })
        assert request.configs["a"] == IHWConfig.all_imprecise()
        assert request.configs["p"] == IHWConfig.precise()
        assert request.configs["u"] == IHWConfig.units("add", "mul")

    def test_family_expands(self):
        request = SweepRequest.from_document({
            "app": "hotspot", "params": TINY_PARAMS, "family": "threshold",
        })
        assert set(request.configs) == {f"th{n}" for n in (2, 4, 6, 8, 10, 12)}

    def test_default_metric_per_app(self):
        doc = {"app": "raytracing", "params": {"width": 8, "height": 8},
               "config_specs": {"a": "all"}}
        assert SweepRequest.from_document(doc).spec.metric == "ssim"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            SweepRequest.from_document({"app": "hotspot", "bogus": 1})
        # The NDJSON stream and the quality target are not part of the
        # protocol: a body carrying either is a 400 that names the field.
        for field in ("stream", "quality_target"):
            doc = {"app": "hotspot", "params": TINY_PARAMS,
                   "config_specs": {"a": "all"}, field: True}
            with pytest.raises(ProtocolError, match=field) as excinfo:
                SweepRequest.from_document(doc)
            assert excinfo.value.status == 400

    def test_missing_configs_rejected(self):
        with pytest.raises(ProtocolError, match="names no configurations"):
            SweepRequest.from_document({"app": "hotspot",
                                        "params": TINY_PARAMS})

    def test_unknown_app_rejected(self):
        with pytest.raises(ProtocolError, match="unknown app"):
            SweepRequest.from_document({"app": "doom",
                                        "config_specs": {"a": "all"}})

    def test_config_count_limit_is_413(self):
        doc = {"app": "hotspot", "params": TINY_PARAMS, "family": "units"}
        with pytest.raises(ProtocolError) as excinfo:
            SweepRequest.from_document(doc, max_configs=3)
        assert excinfo.value.status == 413

    def test_sanitize_drops_only_volatile_timing(self):
        doc = {"quality": 1.0, "compute_seconds": 0.5, "key": "ab"}
        assert sanitize_document(doc) == {"quality": 1.0, "key": "ab"}

    def test_from_canonical_round_trips_cache_key(self):
        for cfg in (
            IHWConfig.precise(),
            IHWConfig.all_imprecise(adder_threshold=4),
            IHWConfig.units("mul").with_multiplier("mitchell",
                                                   config="lp_tr8"),
            IHWConfig.units("mul").with_multiplier("truncated",
                                                   truncation=16),
            IHWConfig.units("rcp", "sqrt").with_sfu_mode("quadratic"),
        ):
            rebuilt = IHWConfig.from_canonical(cfg.canonical())
            assert rebuilt == cfg
            assert rebuilt.cache_key() == cfg.cache_key()


# ----------------------------------------------------------------------
# Cache entries
# ----------------------------------------------------------------------
class TestCacheBackends:
    def test_entry_layout_is_sharded_by_key_prefix(self, tmp_path):
        """An entry lands at <root>/<key[:2]>/<key>.json and .npz."""
        config = IHWConfig.units("add")
        evaluation = TINY.framework().evaluate(config)
        cache = ResultCache(tmp_path)
        assert cache.put(TINY, config, evaluation)
        key = entry_key(TINY, config)
        assert cache.entry_paths(TINY, config) == (
            tmp_path / key[:2] / f"{key}.json",
            tmp_path / key[:2] / f"{key}.npz",
        )
        assert sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*") if p.is_file()) == [
            f"{key[:2]}/{key}.json", f"{key[:2]}/{key}.npz",
        ]
        assert cache.local_root == tmp_path

    def test_document_matches_entry_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = IHWConfig.units("add")
        evaluation = TINY.framework().evaluate(config)
        cache.put(TINY, config, evaluation, compute_seconds=1.5)
        doc = cache.document(TINY, config)
        json_path, _ = cache.entry_paths(TINY, config)
        assert doc == json.loads(json_path.read_text())
        assert doc["compute_seconds"] == 1.5


# ----------------------------------------------------------------------
# Service endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz_queuez_metricsz(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            health = client.healthz()
            assert health["status"] == "ok"
            queue = client.queuez()
            assert queue["max_pending"] == 64
            assert queue["pending"] == 0
            with telemetry.override("metrics"):
                telemetry.counter_inc("repro_service_test_probe_total")
                assert "repro_service_test_probe_total" in client.metricsz()
        finally:
            handle.stop()

    def test_unknown_route_is_404(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            status, _headers, _body = client.request("GET", "/nope")
            assert status == 404
        finally:
            handle.stop()

    def test_bad_json_body_is_400(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            status, _headers, body = client.request(
                "POST", "/v1/sweep", b"not json"
            )
            assert status == 400
            assert "not JSON" in json.loads(body)["error"]
        finally:
            handle.stop()

    def test_config_limit_is_413(self, tmp_path):
        handle = start_service(tmp_path, max_configs=2)
        try:
            client = ServiceClient(handle.base_url, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                tiny_sweep(client)  # 3 configs > limit 2
            assert excinfo.value.status == 413
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Warm/cold serving and bit-identity
# ----------------------------------------------------------------------
class TestWarmCold:
    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            cold = tiny_sweep(client)
            assert cold["served"] == {"hits": 0, "misses": 3, "errors": 0}
            warm = tiny_sweep(client)
            assert warm["served"] == {"hits": 3, "misses": 0, "errors": 0}
            assert canonical_json(cold["results"]) == \
                canonical_json(warm["results"])
            # No volatile fields in the payload.
            for doc in cold["results"].values():
                assert "compute_seconds" not in doc
                assert doc["quality"] is not None
            snapshot = handle.service.queue.snapshot()
            # Batching is opportunistic: the worker may take the first
            # item before its siblings enqueue, but never recomputes.
            assert 1 <= snapshot["executions"] <= 3
            assert snapshot["completed"] == 3
        finally:
            handle.stop()

    def test_sweep_groups_accounting_matches_queuez(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            cold = tiny_sweep(client)
            warm = tiny_sweep(client)
            queue = client.queuez()
            # Only the cold call's misses reached the queue; the warm
            # call was answered from the cache without enqueuing.
            assert cold["served"]["misses"] == queue["completed"] == 3
            assert warm["served"]["hits"] == 3
            assert queue["failed"] == queue["inflight"] == 0
            assert "groups" not in queue
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_16_identical_cold_requests_compute_once(self, tmp_path):
        handle = start_service(tmp_path)
        queue = handle.service.queue
        coalesce_counter = telemetry.get_registry().counter(
            "repro_service_coalesced_total"
        )
        before = coalesce_counter.value
        try:
            client = ServiceClient(handle.base_url, timeout=120)
            queue.pause()
            with telemetry.override("metrics"):
                with concurrent.futures.ThreadPoolExecutor(16) as pool:
                    futures = [
                        pool.submit(tiny_sweep, client,
                                    {"all": IHWConfig.all_imprecise()})
                        for _ in range(16)
                    ]
                    deadline = time.time() + 30
                    while time.time() < deadline:
                        snapshot = queue.snapshot()
                        if snapshot["coalesced"] == 15 and \
                                snapshot["inflight"] == 1:
                            break
                        time.sleep(0.01)
                    else:
                        pytest.fail("requests never coalesced: "
                                    f"{queue.snapshot()}")
                    queue.resume()
                    responses = [f.result(timeout=120) for f in futures]
            snapshot = queue.snapshot()
            assert snapshot["executions"] == 1
            assert snapshot["coalesced"] == 15
            assert handle.service.cache.stats.writes == 1
            assert coalesce_counter.value - before == 15
            payloads = {canonical_json(r["results"]) for r in responses}
            assert len(payloads) == 1  # all 16 answers bit-identical
        finally:
            queue.resume()
            handle.stop()


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        handle = start_service(tmp_path, max_pending=1, retry_after=7.0)
        queue = handle.service.queue
        try:
            client = ServiceClient(handle.base_url, timeout=120)
            queue.pause()
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                blocked = pool.submit(
                    tiny_sweep, client, {"all": IHWConfig.all_imprecise()}
                )
                deadline = time.time() + 30
                while time.time() < deadline:
                    if queue.snapshot()["inflight"] == 1:
                        break
                    time.sleep(0.01)
                # The queue is at its bound: distinct new work is refused.
                request = urllib.request.Request(
                    handle.base_url + "/v1/sweep",
                    data=canonical_json({
                        "app": "hotspot", "params": TINY_PARAMS,
                        "config_specs": {"add": "add"},
                    }).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=30)
                assert excinfo.value.code == 429
                assert excinfo.value.headers["Retry-After"] == "7"
                body = json.loads(excinfo.value.read())
                assert body["retry_after"] == 7.0
                # Coalescing onto the existing item is still admitted.
                queue.resume()
                assert blocked.result(timeout=120)["served"]["misses"] == 1
        finally:
            queue.resume()
            handle.stop()

    def test_client_retries_through_429(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            with faults.injection("queue-full:match=/healthz,times=1"):
                # Attempt 0 is refused with 429; the retry (attempt 1)
                # passes the deterministic guard and succeeds.
                client = ServiceClient(handle.base_url, retries=1,
                                       backoff=0.01)
                assert client.healthz()["status"] == "ok"
                strict = ServiceClient(handle.base_url, retries=0)
                with pytest.raises(ServiceError) as excinfo:
                    strict.healthz()
                assert excinfo.value.status == 429
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Deterministic service faults and chaos
# ----------------------------------------------------------------------
class TestServiceFaults:
    def test_slow_response_delays_but_preserves_bytes(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            fast = client.healthz()
            with faults.injection(
                "slow-response:match=/healthz,times=1,seconds=0.3"
            ):
                start = time.perf_counter()
                slow = client.healthz()
                assert time.perf_counter() - start >= 0.3
            assert slow["status"] == fast["status"]
        finally:
            handle.stop()

    def test_dropped_connection_recovers_on_retry(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            with faults.injection("dropped-connection:match=/healthz,times=1"):
                strict = ServiceClient(handle.base_url, retries=0)
                with pytest.raises(ServiceError):
                    strict.healthz()
                retrying = ServiceClient(handle.base_url, retries=1,
                                         backoff=0.01)
                assert retrying.healthz()["status"] == "ok"
        finally:
            handle.stop()

    def test_chaos_hammer_is_bit_identical_to_clean_run(self, tmp_path):
        # The reference: a clean, sequential, in-process evaluation.
        framework = TINY.framework()
        clean = {name: framework.evaluate(cfg)
                 for name, cfg in CONFIGS.items()}

        handle = start_service(tmp_path)
        try:
            spec = ("slow-response:match=/v1/sweep,times=1,seconds=0.05;"
                    "dropped-connection:match=/v1/sweep,times=1")
            with faults.injection(spec):
                clients = [
                    ServiceClient(handle.base_url, timeout=120,
                                  retries=3, backoff=0.01)
                    for _ in range(6)
                ]
                with concurrent.futures.ThreadPoolExecutor(6) as pool:
                    futures = [pool.submit(tiny_sweep, c) for c in clients]
                    responses = [f.result(timeout=120) for f in futures]
            payloads = {canonical_json(r["results"]) for r in responses}
            assert len(payloads) == 1
            for name, evaluation in clean.items():
                doc = responses[0]["results"][name]
                assert doc["quality"] == evaluation.quality  # bitwise
                assert doc["savings"]["system_savings"] == \
                    evaluation.savings.system_savings
                assert doc["savings"]["arithmetic_savings"] == \
                    evaluation.savings.arithmetic_savings
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Readiness
# ----------------------------------------------------------------------
class TestReadyAndDrain:
    def test_readyz_initially_ready(self, tmp_path):
        handle = start_node(tmp_path / "svc")
        try:
            doc = ServiceClient(handle.base_url).readyz()
            assert doc["ready"] is True
            assert doc["reasons"] == []
        finally:
            handle.stop()

    def test_readyz_reports_queue_full(self, tmp_path):
        service = SweepService(ServiceConfig(
            cache_dir=str(tmp_path / "svc"), max_pending=1,
        ))
        try:
            service.queue.pause()
            service.queue.submit(TINY, CONFIGS["precise"],
                                 waiter=lambda doc, error: None)
            doc = service._readyz()
            assert doc["ready"] is False
            assert "queue-full" in doc["reasons"]
            service.queue.resume()
            assert service.queue.drain(timeout=30.0)
            assert service._readyz()["ready"] is True
        finally:
            service.queue.resume()
            service.close()


# ----------------------------------------------------------------------
# Crash recovery: a stopped node restarts on its cache directory and the
# client resends
# ----------------------------------------------------------------------
def wait_pending(queue, count):
    deadline = time.monotonic() + 10.0
    while (queue.snapshot()["pending"] < count
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert queue.snapshot()["pending"] == count


class TestCrashRecovery:
    def test_restart_computes_only_uncached_configs(self, tmp_path):
        """A node stops with one config finished and the rest queued.
        Restarted on the same cache directory and sent the sweep again,
        it answers the finished config as a hit, computes each of the
        others once, and its bytes equal a clean run's."""
        cache_dir = tmp_path / "svc_cache"
        handle = start_node(cache_dir)
        outcome = {}

        def call():
            client = ServiceClient(handle.base_url, timeout=60, retries=0)
            outcome["reply"] = tiny_sweep(client)

        try:
            tiny_sweep(ServiceClient(handle.base_url),
                       configs={"precise": CONFIGS["precise"]})
            handle.service.queue.pause()
            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            wait_pending(handle.service.queue, len(CONFIGS) - 1)
        finally:
            handle.stop()
        caller.join(10.0)
        assert outcome["reply"]["served"] == {
            "hits": 1, "misses": len(CONFIGS) - 1,
            "errors": len(CONFIGS) - 1,
        }

        restarted = start_node(cache_dir)
        try:
            resent = tiny_sweep(ServiceClient(restarted.base_url))
            assert resent["served"] == {
                "hits": 1, "misses": len(CONFIGS) - 1, "errors": 0,
            }
            assert restarted.service.cache.stats.writes == len(CONFIGS) - 1
            assert canonical_json(resent["results"]) == \
                canonical_json(ground_truth(tmp_path))
        finally:
            restarted.stop()

    def test_stop_releases_a_stranded_request(self, tmp_path):
        """stop() fails the waiters of queued work at once instead of
        leaving their request threads blocked for ``REQUEST_TIMEOUT_S``."""
        handle = start_node(tmp_path / "svc_cache")
        handle.service.queue.pause()
        before = set(threading.enumerate())
        outcome = {}

        def call():
            client = ServiceClient(handle.base_url, timeout=60, retries=0)
            outcome["reply"] = tiny_sweep(client, {"add": CONFIGS["add"]})

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        wait_pending(handle.service.queue, 1)
        request_threads = [t for t in threading.enumerate()
                           if t not in before and t is not caller]
        assert request_threads

        stopped = time.monotonic()
        handle.stop()
        for thread in [caller, *request_threads]:
            thread.join(max(0.0, stopped + 2.0 - time.monotonic()))
            assert not thread.is_alive(), thread.name
        assert outcome["reply"]["served"] == {
            "hits": 0, "misses": 1, "errors": 1,
        }
        assert outcome["reply"]["results"]["add"] == {
            "error": "node shutting down",
        }


# ----------------------------------------------------------------------
# Framework and telemetry integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_execute_span_reparented_under_request(self, tmp_path):
        with telemetry.override("trace"):
            telemetry.reset()
            handle = start_service(tmp_path)
            try:
                client = ServiceClient(handle.base_url, timeout=120)
                tiny_sweep(client, {"all": IHWConfig.all_imprecise()})
                deadline = time.time() + 10
                spans = []
                while time.time() < deadline:
                    # Accumulate until both sides have closed: the
                    # request span ends only after its response is
                    # written, which can be after the client has it.
                    spans.extend(telemetry.get_tracer().drain())
                    names = {s["name"] for s in spans}
                    if {"service.request", "service.execute"} <= names:
                        break
                    time.sleep(0.05)
            finally:
                handle.stop()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert "service.request" in by_name
        assert "service.execute" in by_name
        request_ids = {s["id"] for s in by_name["service.request"]}
        # The queue boundary is crossed: the worker-side execution span
        # is a child of the request that enqueued the work.
        assert by_name["service.execute"][0]["parent"] in request_ids


# ----------------------------------------------------------------------
# Transport: per-request threads, input bounds, no head-of-line blocking
# ----------------------------------------------------------------------
def raw_exchange(handle, data: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes on a fresh socket; return everything read to EOF."""
    with socket.create_connection((handle.host, handle.port),
                                  timeout=timeout) as sock:
        try:
            sock.sendall(data)
        except ConnectionError:
            pass  # refused mid-send: what was answered is still readable
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def assert_no_2xx(reply: bytes) -> None:
    status_line = reply.split(b"\r\n", 1)[0]
    assert not status_line.startswith((b"HTTP/1.1 2", b"HTTP/1.0 2")), \
        status_line


class TestTransport:
    def test_overlapping_requests_have_independent_spans(self, tmp_path):
        configs = [{"add": IHWConfig.units("add")},
                   {"mul": IHWConfig.units("mul")},
                   {"all": IHWConfig.all_imprecise()}]
        with telemetry.override("trace"):
            telemetry.reset()
            handle = start_service(tmp_path)
            queue = handle.service.queue
            try:
                client = ServiceClient(handle.base_url, timeout=120)
                queue.pause()
                with concurrent.futures.ThreadPoolExecutor(3) as pool:
                    futures = [pool.submit(tiny_sweep, client, c)
                               for c in configs]
                    # All three requests are inside their span at once.
                    deadline = time.time() + 30
                    while queue.snapshot()["inflight"] < 3:
                        assert time.time() < deadline, queue.snapshot()
                        time.sleep(0.01)
                    queue.resume()
                    for future in futures:
                        future.result(timeout=120)
                spans = []
                deadline = time.time() + 10
                while time.time() < deadline:
                    spans.extend(telemetry.get_tracer().drain())
                    if sum(s["name"] == "service.request"
                           for s in spans) == 3:
                        break
                    time.sleep(0.05)
            finally:
                queue.resume()
                handle.stop()
        requests = [s for s in spans if s["name"] == "service.request"]
        assert len(requests) == 3
        request_ids = {s["id"] for s in requests}
        assert [s["parent"] for s in requests
                if s["parent"] in request_ids] == []

    def test_input_bounds_refuse_without_taking_the_server_down(
            self, tmp_path):
        from repro.service.server import MAX_BODY_BYTES, MAX_HEADER_BYTES

        handle = start_service(tmp_path)
        try:
            # A body over the bound is refused before it is read: the
            # exchange ends although not one body byte was sent.
            start = time.perf_counter()
            assert_no_2xx(raw_exchange(handle, (
                "POST /v1/sweep HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
            ).encode("latin-1")))
            assert time.perf_counter() - start < 5.0
            pad = "a" * (MAX_HEADER_BYTES + 1024)
            assert_no_2xx(raw_exchange(handle, (
                f"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: {pad}\r\n\r\n"
            ).encode("latin-1")))
            assert_no_2xx(raw_exchange(
                handle, b"THIS IS NOT A REQUEST LINE\r\n\r\n"))
            assert ServiceClient(handle.base_url).healthz()["status"] == "ok"
            # A request at the configuration bound fits under the body
            # bound and is answered.
            max_configs = handle.service.config.max_configs
            body = canonical_json({
                "app": "hotspot", "params": TINY_PARAMS, "metric": "mae",
                "configs": {f"c{i:02d}": IHWConfig.all_imprecise().canonical()
                            for i in range(max_configs)},
            }).encode("utf-8")
            assert len(body) < MAX_BODY_BYTES
            status, _headers, reply = ServiceClient(
                handle.base_url, timeout=120).request("POST", "/v1/sweep",
                                                      body)
            assert status == 200
            assert len(json.loads(reply)["results"]) == max_configs
        finally:
            handle.stop()

    def test_slow_request_does_not_block_health_probes(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url, timeout=120)
            tiny_sweep(client, {"add": IHWConfig.units("add")})  # warm
            with faults.injection(
                "slow-response:match=/v1/sweep,times=1,seconds=1"
            ):
                with concurrent.futures.ThreadPoolExecutor(1) as pool:
                    held = pool.submit(tiny_sweep, client,
                                       {"add": IHWConfig.units("add")})
                    time.sleep(0.2)  # the sweep is now in its 1 s stall
                    start = time.perf_counter()
                    assert client.healthz()["status"] == "ok"
                    took = time.perf_counter() - start
                    assert not held.done()
                    held.result(timeout=120)
            assert took < 0.5
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# CLI surface: repro call --repeats / broken pipes
# ----------------------------------------------------------------------
def run_cli(*argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCallCLI:
    def test_call_repeats_reports_percentiles(self, tmp_path):
        import json

        handle = start_node(tmp_path / "svc")
        try:
            json_path = tmp_path / "response.json"
            code, out = run_cli(
                "call", "hotspot", "--url", handle.base_url,
                "--configs", "precise", "--rows", "8",
                "--iterations", "2", "--repeats", "4",
                "--json", str(json_path),
            )
            assert code == 0
            assert "p50" in out and "p95" in out and "p99" in out
            payload = json.loads(json_path.read_text())
            for key in ("latency_p50_seconds", "latency_p95_seconds",
                        "latency_p99_seconds"):
                assert key in payload
                assert payload[key] >= 0.0
            assert payload["latency_p50_seconds"] <= \
                payload["latency_p95_seconds"] <= \
                payload["latency_p99_seconds"]
        finally:
            handle.stop()

    def test_call_survives_broken_pipe(self, tmp_path, monkeypatch):
        from repro.cli import main

        class BrokenOut:
            def write(self, text):
                raise BrokenPipeError()

            def flush(self):
                pass

        handle = start_node(tmp_path / "svc")
        try:
            # stdout without a real fd, as under a closed pipe's dup2
            # fallback: the handler must cope with both.
            monkeypatch.setattr(sys, "stdout", io.StringIO())
            code = main(
                ["call", "hotspot", "--url", handle.base_url,
                 "--configs", "precise", "--rows", "8",
                 "--iterations", "2", "--repeats", "3"],
                out=BrokenOut(),
            )
            assert code == 0
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Per-request timeout knob (ServiceClient)
# ----------------------------------------------------------------------
class TestPerRequestTimeout:
    def test_request_timeout_overrides_client_default(self, tmp_path):
        handle = start_node(tmp_path / "svc")
        client = ServiceClient(handle.base_url, timeout=30.0, retries=0)
        try:
            with faults.injection(
                "slow-response:match=/healthz,seconds=0.5,times=100"
            ):
                # A 0.1s probe gives up on the stalled response...
                with pytest.raises(ServiceError):
                    client.healthz(timeout=0.1)
                # ...while the client-wide 30s default rides it out.
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()
