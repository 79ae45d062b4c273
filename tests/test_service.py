"""Tests for the sweep service: protocol, cache backends, queue, HTTP.

The contract under test mirrors docs/SERVICE.md: every answer is the
sanitized content-addressed cache entry serialized canonically, so the
warm, cold, coalesced, remote-cache, and fault-disturbed paths all
produce bit-identical bytes; identical in-flight work coalesces to one
computation; and the queue's backpressure bounds are enforced with
retryable statuses.
"""

import concurrent.futures
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import faults, telemetry
from repro.core import IHWConfig
from repro.runtime import (
    CacheBackend,
    CacheBackendError,
    DirectoryBackend,
    ExperimentSpec,
    HTTPCacheBackend,
    ResultCache,
)
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SweepRequest,
    canonical_json,
    meets_target,
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


def tiny_sweep(client, configs=None, **kwargs):
    configs = CONFIGS if configs is None else configs
    return client.sweep("hotspot", configs=configs, params=TINY_PARAMS,
                        metric="mae", **kwargs)


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

    def test_meets_target_orientation(self):
        assert meets_target("mae", 0.1, 0.5)  # error metric: lower is better
        assert not meets_target("mae", 0.9, 0.5)
        assert meets_target("ssim", 0.9, 0.5)  # higher is better
        assert not meets_target("ssim", 0.1, 0.5)

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
# Cache backend extraction
# ----------------------------------------------------------------------
class _FailingBackend(CacheBackend):
    """A backend whose transport is down."""

    name = "failing"

    def read_json(self, key):
        raise CacheBackendError("transport down")

    def read_npz(self, key):
        raise CacheBackendError("transport down")

    def write_entry(self, key, json_text, npz_bytes):
        raise CacheBackendError("transport down")

    def contains(self, key):
        return False

    def acquire_lock(self, key):
        return True

    def release_lock(self, key):
        pass


class TestCacheBackends:
    def test_directory_backend_is_byte_compatible_default(self, tmp_path):
        """Explicit DirectoryBackend and plain root produce identical trees."""
        config = IHWConfig.units("add")
        evaluation = TINY.framework().evaluate(config)
        a = ResultCache(tmp_path / "a")
        b = ResultCache(backend=DirectoryBackend(tmp_path / "b"))
        assert a.put(TINY, config, evaluation)
        assert b.put(TINY, config, evaluation)
        json_a, _ = a.entry_paths(TINY, config)
        json_b, _ = b.entry_paths(TINY, config)
        assert json_a.relative_to(tmp_path / "a") == \
            json_b.relative_to(tmp_path / "b")
        assert json_a.read_bytes() == json_b.read_bytes()

    def test_transport_errors_are_misses_not_quarantines(self):
        cache = ResultCache(backend=_FailingBackend())
        config = IHWConfig.precise()
        assert cache.get(TINY, config) is None
        assert cache.document(TINY, config) is None
        assert cache.stats.backend_errors == 2
        assert cache.stats.misses == 2
        assert cache.stats.quarantined == 0
        evaluation = TINY.framework().evaluate(config)
        assert cache.put(TINY, config, evaluation) is False
        assert cache.stats.backend_errors == 3

    def test_document_matches_entry_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = IHWConfig.units("add")
        evaluation = TINY.framework().evaluate(config)
        cache.put(TINY, config, evaluation, compute_seconds=1.5)
        doc = cache.document(TINY, config)
        json_path, _ = cache.entry_paths(TINY, config)
        assert doc == json.loads(json_path.read_text())
        assert doc["compute_seconds"] == 1.5
        built = cache.build_document(TINY, config, evaluation,
                                     compute_seconds=1.5)
        assert built == doc

    def test_http_backend_round_trip_via_peer(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            remote = ResultCache(backend=HTTPCacheBackend(handle.base_url))
            config = IHWConfig.units("add")
            evaluation = TINY.framework().evaluate(config)
            assert remote.get(TINY, config) is None
            assert remote.put(TINY, config, evaluation) is True
            served = remote.get(TINY, config)
            assert served is not None
            assert served.quality == evaluation.quality
            assert served.savings == evaluation.savings
            # The bytes landed in the peer's local tree, byte-compatible.
            local = handle.service.cache
            assert local.entry_count() == 1
            assert remote.backend.contains(remote.key(TINY, config))
            assert remote.entry_count() == 1
            # And locks round-trip through the peer.
            key = remote.key(TINY, config)
            assert remote.backend.acquire_lock(key) is True
            assert remote.backend.acquire_lock(key) is False
            remote.backend.release_lock(key)
            assert remote.backend.acquire_lock(key) is True
            remote.backend.release_lock(key)
        finally:
            handle.stop()

    def test_http_backend_unreachable_is_transport_error(self):
        backend = HTTPCacheBackend("http://127.0.0.1:9")  # discard port
        with pytest.raises(CacheBackendError):
            backend.read_json("ab" * 32)
        cache = ResultCache(backend=backend)
        assert cache.get(TINY, IHWConfig.precise()) is None
        assert cache.stats.backend_errors == 1

    def test_remote_backed_cache_reports_no_local_root(self):
        cache = ResultCache(backend=HTTPCacheBackend("http://127.0.0.1:9"))
        assert cache.local_root is None
        with pytest.raises(ValueError, match="no local paths"):
            cache.entry_paths(TINY, IHWConfig.precise())


class _ScriptedPeer:
    """Raw TCP server whose per-connection behavior is a callable — the
    transport-fault shapes (truncation, stalls) a real HTTP stack won't
    produce on demand."""

    def __init__(self, behavior):
        self._behavior = behavior
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self._sock.settimeout(0.1)
        self.base_url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            try:
                conn.settimeout(2.0)
                try:
                    conn.recv(65536)  # the request line; content irrelevant
                except OSError:
                    pass
                self._behavior(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sock.close()


class TestHTTPBackendTransportFaults:
    """Every transport-level failure shape is a counted miss
    (``CacheStats.backend_errors``), never a quarantine — the peer's
    bytes are not damaged just because the network is."""

    def test_connection_refused_is_counted_backend_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        cache = ResultCache(
            backend=HTTPCacheBackend(f"http://127.0.0.1:{port}")
        )
        assert cache.get(TINY, IHWConfig.precise()) is None
        assert cache.stats.backend_errors == 1
        assert cache.stats.misses == 1
        assert cache.stats.quarantined == 0

    def test_mid_body_truncation_is_miss_not_quarantine(self):
        def truncate(conn):
            # Promise 4096 body bytes, deliver 5, sever: the client's
            # read raises IncompleteRead (an HTTPException, not OSError).
            conn.sendall(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 4096\r\n"
                         b"Connection: close\r\n\r\n"
                         b'{"tr')

        peer = _ScriptedPeer(truncate)
        try:
            cache = ResultCache(backend=HTTPCacheBackend(peer.base_url))
            assert cache.get(TINY, IHWConfig.precise()) is None
            assert cache.stats.backend_errors == 1
            assert cache.stats.misses == 1
            assert cache.stats.quarantined == 0
        finally:
            peer.close()

    def test_slow_peer_times_out_as_backend_error(self):
        def stall(conn):
            time.sleep(1.0)  # never answer within the client's budget

        peer = _ScriptedPeer(stall)
        try:
            cache = ResultCache(
                backend=HTTPCacheBackend(peer.base_url, timeout=0.2)
            )
            start = time.monotonic()
            assert cache.document(TINY, IHWConfig.precise()) is None
            assert time.monotonic() - start < 5.0
            assert cache.stats.backend_errors == 1
            assert cache.stats.quarantined == 0
        finally:
            peer.close()


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

    def test_malformed_cache_key_is_400(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            status, _headers, _body = client.request(
                "GET", "/cache/v1/not-a-key"
            )
            assert status == 400
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

    def test_quality_target_reporting(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            response = tiny_sweep(client, quality_target=1e-9)
            met = response["target_met"]
            assert met["precise"] is True  # zero error
            assert met["all"] is False
        finally:
            handle.stop()

    def test_streaming_matches_unary(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            unary = tiny_sweep(client)
            lines = list(client.sweep_stream(
                "hotspot", configs=CONFIGS, params=TINY_PARAMS, metric="mae",
            ))
            done = lines[-1]
            assert done["done"] is True
            assert done["served"]["hits"] == 3
            by_name = {line["name"]: line["result"]
                       for line in lines[:-1]}
            assert canonical_json(by_name) == canonical_json(unary["results"])
        finally:
            handle.stop()

    def test_sweep_groups_accounting_matches_queuez(self, tmp_path):
        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url)
            tiny_sweep(client)
            tiny_sweep(client)
            groups = client.queuez()["groups"]
            # precise and add share a ledger shape with sweep --stats:
            # one miss (first call) + one hit (second call) per group.
            assert groups["precise|table1|linear"] == {"hits": 1, "misses": 1}
            assert groups["add|table1|linear"] == {"hits": 1, "misses": 1}
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
# Two-instance topology (acceptance E2E)
# ----------------------------------------------------------------------
class TestSharedCacheTopology:
    def test_b_serves_warm_from_a_with_zero_recompute(self, tmp_path):
        a = start_service(tmp_path)
        b = None
        try:
            b = serve_in_thread(ServiceConfig(remote_cache=a.base_url))
            client_a = ServiceClient(a.base_url, timeout=120)
            client_b = ServiceClient(b.base_url, timeout=120)

            computed = tiny_sweep(client_a)
            assert computed["served"]["misses"] == 3

            served = tiny_sweep(client_b)
            assert served["served"] == {"hits": 3, "misses": 0, "errors": 0}
            assert b.service.queue.snapshot()["executions"] == 0
            assert canonical_json(computed["results"]) == \
                canonical_json(served["results"])

            # B can also compute cold work, writing through to A's store.
            extra = {"mul": IHWConfig.units("mul")}
            cold_b = tiny_sweep(client_b, extra)
            assert cold_b["served"]["misses"] == 1
            warm_a = tiny_sweep(client_a, extra)
            assert warm_a["served"]["hits"] == 1
            assert canonical_json(cold_b["results"]) == \
                canonical_json(warm_a["results"])
        finally:
            if b is not None:
                b.stop()
            a.stop()


# ----------------------------------------------------------------------
# Framework and telemetry integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_evaluate_many_via_client_matches_local(self, tmp_path):
        from tests.test_runtime import assert_evaluations_identical

        handle = start_service(tmp_path)
        try:
            client = ServiceClient(handle.base_url, timeout=120)
            framework = TINY.framework()
            local = {name: framework.evaluate(cfg)
                     for name, cfg in CONFIGS.items()}
            remote = framework.evaluate_many(CONFIGS, client=client)
            assert list(remote) == list(CONFIGS)
            for name in CONFIGS:
                assert_evaluations_identical(local[name], remote[name])
        finally:
            handle.stop()

    def test_runner_and_client_are_exclusive(self):
        framework = TINY.framework()
        with pytest.raises(ValueError, match="not both"):
            framework.evaluate_many(CONFIGS, runner=object(),
                                    client=object())

    def test_sweep_stats_reports_signature_groups(self, tmp_path, monkeypatch):
        from tests.test_cli import run_cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ("sweep", "hotspot", "--family", "threshold", "--rows", "8",
                "--iterations", "2", "--workers", "1", "--stats",
                "--json", str(tmp_path / "out.json"))
        code, out = run_cli(*argv)
        assert code == 0
        assert "signature group" in out
        # The whole threshold family shares one batch signature; the
        # ledger key matches the /queuez rendering exactly.
        key = "add+div+fma+log2+mul+rcp+rsqrt+sqrt|table1|linear"
        cold = json.loads((tmp_path / "out.json").read_text())
        assert cold["stats"]["signature_groups"] == {
            key: {"hits": 0, "misses": 6}
        }
        code, _out = run_cli(*argv)
        assert code == 0
        warm = json.loads((tmp_path / "out.json").read_text())
        assert warm["stats"]["signature_groups"] == {
            key: {"hits": 6, "misses": 0}
        }

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
