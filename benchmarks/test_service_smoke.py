"""Sweep service smoke: real ``repro serve`` + ``repro call`` round trip.

Exercises the shipped CLI surface end to end the way an operator would:
start a service subprocess on an ephemeral port, query it cold (computed
through the work queue) and warm (served from the content-addressed
cache), check the Prometheus cache-hit counters, and gate the warm-hit
overhead: the p50 warm HTTP round trip must sit within 10 ms of a
direct in-process cache read of the same entry.  Numbers land in
``BENCH_service.json`` so successive PRs can track the serving overhead.

A second test kills ``repro serve`` mid-batch with an injected
``node-crash`` fault, restarts it on the same cache directory, and
checks that the journal replay recomputes nothing that completed before
the kill and that the follow-up call is all hits, byte-equal to a clean
run on a fresh cache.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.core import IHWConfig
from repro.faults.injector import CRASH_EXIT_CODE
from repro.runtime import ExperimentSpec, ResultCache
from repro.service import QueueJournal, ServiceClient

from report import emit, format_row, write_bench_json

SPEC = ExperimentSpec.create("hotspot", metric="mae",
                             rows=8, cols=8, iterations=2)
CALL_ARGS = ["hotspot", "--configs", "precise|all",
             "--rows", "8", "--iterations", "2"]
CONFIGS = {"precise": IHWConfig.precise(), "all": IHWConfig.all_imprecise()}
WARM_GATE_SECONDS = 0.010  # p50 warm HTTP overhead over a direct read
# Heavy enough that the batch is still executing when the crash lands
# (~0.4 s per imprecise configuration), light enough for a smoke job.
KILL_ARGS = ["hotspot", "--configs", "precise|add|all",
             "--rows", "64", "--iterations", "100"]


def _repro(*argv, env=None, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=timeout,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )


def _start_server(cache_dir, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["REPRO_TELEMETRY"] = "metrics"
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         "--port", "0", "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    line = process.stdout.readline()
    match = re.search(r"listening on (http://[\d.]+:\d+)", line)
    if not match:
        process.terminate()
        raise RuntimeError(f"serve did not announce a URL: {line!r}")
    return process, match.group(1)


def test_service_smoke(tmp_path):
    cache_dir = tmp_path / "cache"
    process, url = _start_server(cache_dir)
    env = dict(os.environ, PYTHONPATH="src")
    try:
        # Cold: both configurations computed through the queue.
        cold_json = tmp_path / "cold.json"
        cold = _repro("call", *CALL_ARGS, "--url", url,
                      "--json", str(cold_json), env=env)
        assert cold.returncode == 0, cold.stderr
        cold_doc = json.loads(cold_json.read_text())
        assert cold_doc["served"] == {"hits": 0, "misses": 2, "errors": 0}

        # Warm: identical query, entirely cache-served, p50 over repeats.
        warm_json = tmp_path / "warm.json"
        warm = _repro("call", *CALL_ARGS, "--url", url,
                      "--repeats", "9", "--json", str(warm_json), env=env)
        assert warm.returncode == 0, warm.stderr
        warm_doc = json.loads(warm_json.read_text())
        assert warm_doc["served"] == {"hits": 2, "misses": 0, "errors": 0}
        assert warm_doc["results"] == cold_doc["results"]
        warm_p50 = warm_doc["latency_p50_seconds"]

        # The server accounted the hits in its Prometheus surface.
        metrics = ServiceClient(url).metricsz()
        hit_line = next(
            line for line in metrics.splitlines()
            if line.startswith("repro_service_cache_outcomes_total")
            and 'outcome="hit"' in line
        )
        assert float(hit_line.rsplit(" ", 1)[1]) >= 18  # 9 repeats x 2

        # Direct read baseline: the same entries straight off disk.
        cache = ResultCache(cache_dir)
        direct = []
        for _ in range(9):
            start = time.perf_counter()
            for config in CONFIGS.values():
                assert cache.document(SPEC, config) is not None
            direct.append(time.perf_counter() - start)
        direct_p50 = statistics.median(direct)
    finally:
        process.terminate()
        process.wait(timeout=10)

    overhead = warm_p50 - direct_p50
    payload = {
        "warm_call_p50_s": round(warm_p50, 5),
        "direct_read_p50_s": round(direct_p50, 5),
        "serving_overhead_p50_s": round(overhead, 5),
        "gate_s": WARM_GATE_SECONDS,
    }
    path = write_bench_json("service", payload)
    emit("Service: warm-hit serving overhead (2-config HotSpot call)", [
        format_row("path", "p50 ms", widths=[26, 10]),
        format_row("direct cache read", f"{direct_p50 * 1e3:.2f}",
                   widths=[26, 10]),
        format_row("warm HTTP call", f"{warm_p50 * 1e3:.2f}",
                   widths=[26, 10]),
        f"overhead: {overhead * 1e3:.2f} ms "
        f"(gate: {WARM_GATE_SECONDS * 1e3:.0f} ms)",
        f"written: {path}",
    ])

    assert overhead < WARM_GATE_SECONDS, (
        f"warm-hit p50 {warm_p50 * 1e3:.2f} ms exceeds direct read "
        f"{direct_p50 * 1e3:.2f} ms by more than "
        f"{WARM_GATE_SECONDS * 1e3:.0f} ms"
    )


def _call_json(tmp_path, name, url, *extra, env):
    """``repro call`` with ``KILL_ARGS``; returns the --json document."""
    out = tmp_path / f"{name}.json"
    done = _repro("call", *KILL_ARGS, "--url", url, *extra,
                  "--json", str(out), env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_killed_serve_restarts_without_recompute(tmp_path):
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_FAULTS", None)
    process, url = _start_server(cache_dir,
                                 faults="node-crash:match=?boom,times=1")
    processes = [process]
    try:
        # 1. Admit a sweep the node will never deliver: the client gives
        #    up after 0.3 s while the batch is still computing.
        stranded = _repro("call", *KILL_ARGS, "--url", url,
                          "--timeout", "0.3", "--retries", "0", env=env)
        assert stranded.returncode == 1, stranded.stderr

        # 2. Kill the node mid-batch (no cleanup, no goodbye).
        try:
            urllib.request.urlopen(f"{url}/healthz?boom", timeout=10)
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        assert process.wait(timeout=15) == CRASH_EXIT_CODE
        orphans = QueueJournal(
            cache_dir / "manifests" / "queue.journal").replay()
        assert orphans, "the killed node left no journaled orphans"

        # 3. Restart on the same cache dir.  Orphans whose entry landed
        #    before the kill are complete; the rest are requeued, and
        #    only those are computed.
        process, url = _start_server(cache_dir)
        processes.append(process)
        client = ServiceClient(url)
        recovered = client.readyz()["recovered"]
        assert recovered["invalid"] == 0
        assert recovered["requeued"] + recovered["complete"] == len(orphans)
        deadline = time.monotonic() + 120
        queue = client.queuez()
        while queue["inflight"] and time.monotonic() < deadline:
            time.sleep(0.05)
            queue = client.queuez()
        assert queue["inflight"] == 0
        assert queue["failed"] == 0
        assert queue["completed"] == recovered["requeued"]
        assert queue["executions"] <= recovered["requeued"]

        # 4. The follow-up call is all hits, byte-equal to a clean run
        #    on a fresh cache.
        follow_up = _call_json(tmp_path, "follow_up", url, env=env)
        assert follow_up["served"] == {"hits": 3, "misses": 0, "errors": 0}
        clean_process, clean_url = _start_server(tmp_path / "clean")
        processes.append(clean_process)
        clean = _call_json(tmp_path, "clean", clean_url, env=env)
        assert follow_up["results"] == clean["results"]
    finally:
        for proc in processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in processes:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
            proc.stdout.close()

    emit("Service: serve killed mid-batch, restarted on its cache dir", [
        format_row("stage", "outcome", widths=[30, 24]),
        format_row("orphans journaled at crash", str(len(orphans)),
                   widths=[30, 24]),
        format_row("replay: complete / requeued",
                   f"{recovered['complete']} / {recovered['requeued']}",
                   widths=[30, 24]),
        format_row("follow-up vs clean run", "byte-equal, all hits",
                   widths=[30, 24]),
    ])
