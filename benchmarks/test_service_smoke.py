"""Sweep service smoke: real ``repro serve`` + ``repro call`` round trip.

Exercises the shipped CLI surface end to end the way an operator would:
start a service subprocess on an ephemeral port, query it cold (computed
through the work queue) and warm (served from the content-addressed
cache), check the Prometheus cache-hit counters, and gate the warm-hit
overhead: the p50 warm HTTP round trip must sit within 10 ms of a
direct in-process cache read of the same entry.  The test writes no
file; the tracked warm-hit latency is ``op_p50_s`` of the end-to-end
benchmark's ``serve-mixed`` workload.

A second test kills ``repro serve`` mid-batch with an injected
``node-crash`` fault, restarts it on the same cache directory and sends
the same call again.  The configurations that reached the cache before
the kill come back as hits, only the rest are computed, and the answer
is byte-equal to a clean run on a fresh cache.
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

from repro.core import IHWConfig, parse_config_spec
from repro.faults.injector import CRASH_EXIT_CODE
from repro.runtime import ExperimentSpec, ResultCache
from repro.service import ServiceClient

from report import emit, format_row

SPEC = ExperimentSpec.create("hotspot", metric="mae",
                             rows=8, cols=8, iterations=2)
CALL_ARGS = ["hotspot", "--configs", "precise|all",
             "--rows", "8", "--iterations", "2"]
CONFIGS = {"precise": IHWConfig.precise(), "all": IHWConfig.all_imprecise()}
WARM_GATE_SECONDS = 0.010  # p50 warm HTTP overhead over a direct read
# Heavy enough that the batch is still executing when the crash lands
# (~0.2 s per configuration on a 2-vCPU host), light enough for a smoke
# job.
KILL_ARGS = ["hotspot", "--configs", "precise|add|all",
             "--rows", "64", "--iterations", "100"]
KILL_SPEC = ExperimentSpec.create("hotspot", metric="mae",
                                  rows=64, cols=64, iterations=100)


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
    emit("Service: warm-hit serving overhead (2-config HotSpot call)", [
        format_row("path", "p50 ms", widths=[26, 10]),
        format_row("direct cache read", f"{direct_p50 * 1e3:.2f}",
                   widths=[26, 10]),
        format_row("warm HTTP call", f"{warm_p50 * 1e3:.2f}",
                   widths=[26, 10]),
        f"overhead: {overhead * 1e3:.2f} ms "
        f"(gate: {WARM_GATE_SECONDS * 1e3:.0f} ms)",
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
        # 1. Send a sweep the node will never answer: the client gives
        #    up after 0.3 s while the batch is still computing.
        stranded = _repro("call", *KILL_ARGS, "--url", url,
                          "--timeout", "0.3", "--retries", "0", env=env)
        assert stranded.returncode == 1, stranded.stderr

        # 2. Once the first config lands in the cache, kill the node
        #    mid-batch (no cleanup, no goodbye).
        configs = [parse_config_spec(name)
                   for name in KILL_ARGS[2].split("|")]
        cache = ResultCache(cache_dir)

        def count_cached():
            return sum(cache.document(KILL_SPEC, config) is not None
                       for config in configs)

        deadline = time.monotonic() + 60
        while not count_cached() and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            urllib.request.urlopen(f"{url}/healthz?boom", timeout=10)
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        assert process.wait(timeout=15) == CRASH_EXIT_CODE
        cached = count_cached()
        assert 1 <= cached < len(configs), "the kill missed the batch"

        # 3. Restart on the same cache dir and resend: the configs that
        #    reached the cache before the kill are hits, and only the
        #    rest are computed.
        process, url = _start_server(cache_dir)
        processes.append(process)
        resent = _call_json(tmp_path, "resent", url, env=env)
        assert resent["served"] == {
            "hits": cached, "misses": len(configs) - cached, "errors": 0,
        }
        queue = ServiceClient(url).queuez()
        assert queue["completed"] == len(configs) - cached
        assert queue["failed"] == 0

        # 4. The answer is byte-equal to a clean run on a fresh cache.
        clean_process, clean_url = _start_server(tmp_path / "clean")
        processes.append(clean_process)
        clean = _call_json(tmp_path, "clean", clean_url, env=env)
        assert resent["results"] == clean["results"]
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
        format_row("configs cached at the kill",
                   f"{cached} of {len(configs)}", widths=[30, 24]),
        format_row("resent call: hits / misses",
                   f"{resent['served']['hits']} / "
                   f"{resent['served']['misses']}", widths=[30, 24]),
        format_row("resent vs clean run", "byte-equal", widths=[30, 24]),
    ])
