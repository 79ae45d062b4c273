"""The four workloads: what each runs, how long, and what it reports.

Every workload measures the program as users get it: the default compute
backend, telemetry off, and a fresh result cache under the benchmark's
work directory (never the repository's ``.repro_cache/``).  Each one

- times its set-up (imports, construction, or server spawn) several times
  in fresh processes (:meth:`Workload.setup_seconds`);
- runs a closed loop for a given number of seconds (:meth:`Workload.measure`)
  with an optional span recorder installed, checking every result against
  the committed digest table;
- times the machine-speed probe of :mod:`speed` between operations, about
  once a second, and stamps every sample with the moment it was taken, so
  that each duration can be scaled to the reference speed by the probes
  around it.

Load model: one closed-loop caller (two client threads on
``serve-mixed``), two runner workers on ``sweep-apps-48``; sized for a
machine with two cores.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Input sizes.  ``full`` is what the benchmark measures; ``smoke`` is the
#: same code path at toy size for the benchmark's own tests.
SCALES = {
    "full": {
        # 256^2 stays above the threaded backend's 32K-element tile floor;
        # the iteration counts keep one sample near 4 s.
        "evaluate": {"hotspot": {"rows": 256, "cols": 256, "iterations": 6},
                     "srad": {"rows": 256, "cols": 256, "iterations": 5}},
        "sweep": {"hotspot": {"rows": 48, "cols": 48, "iterations": 20},
                  "srad": {"rows": 48, "cols": 48, "iterations": 20},
                  "raytracing": {"width": 48, "height": 48},
                  "cp": {"grid": 48},
                  "dct": {"size": 64},
                  "blackscholes": {"n_options": 512}},
        "serve": {"rows": 48, "cols": 48, "iterations": 20},
        "characterize_samples": 2 ** 18,
    },
    "smoke": {
        "evaluate": {"hotspot": {"rows": 32, "cols": 32, "iterations": 2},
                     "srad": {"rows": 32, "cols": 32, "iterations": 2}},
        "sweep": {"hotspot": {"rows": 16, "cols": 16, "iterations": 4},
                  "srad": {"rows": 16, "cols": 16, "iterations": 4},
                  "raytracing": {"width": 16, "height": 16},
                  "cp": {"grid": 12},
                  "dct": {"size": 16},
                  "blackscholes": {"n_options": 64}},
        "serve": {"rows": 16, "cols": 16, "iterations": 4},
        "characterize_samples": 2 ** 12,
    },
}

#: Characterization seeds with committed PMF digests; ``--seed`` picks one.
CHARACTERIZE_SEEDS = 8
MULTIPLIER_CONFIGS = tuple(
    f"{path}_tr{tr}" for path in ("fp", "lp") for tr in (0, 4, 8, 12, 16, 19)
) + ("bt_8", "bt_16", "bt_21")
SWEEP_WORKERS = 2
SERVE_CLIENTS = 2
WARM_PASSES = 5  # warm re-reads of all six app sweeps per cold pass
SETUP_REPEATS = 5
SERVE_WINDOW_S = 1.0  # the clients pause after each window for the probe
SERVE_BLOCK = 10  # one never-served label per block of ten requests


def metric_for(app: str) -> str:
    """The quality metric ``repro sweep`` and the service default to."""
    from repro.service.protocol import DEFAULT_METRICS

    return DEFAULT_METRICS.get(app, "mae")


def evaluate_pairs(scale: str) -> list:
    """``[(label, app, params, config)]`` of one ``evaluate-large`` sample."""
    from repro.core import IHWConfig

    sizes = SCALES[scale]["evaluate"]
    every = IHWConfig.all_imprecise()
    return [
        ("hotspot/all", "hotspot", sizes["hotspot"], every),
        ("hotspot/all+fp_tr8", "hotspot", sizes["hotspot"],
         every.with_multiplier("mitchell", config="fp_tr8")),
        ("srad/all", "srad", sizes["srad"], every),
    ]


def units_family() -> dict:
    from repro.core.config import config_family

    return config_family("units")


def program_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> float:
    """Highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (0.999, 0.99, 0.95, 0.9, 0.5):
        if len(ordered) * (1 - q) >= 10:
            return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return ordered[-1] if ordered else 0.0


@dataclass
class Phase:
    """What one measured loop saw."""

    # Samples are (stamp, value) pairs, stamped with the perf_counter at
    # the middle of the timed operation.
    op_s: list = field(default_factory=list)  # the repeated operation, s
    cold_s: list = field(default_factory=list)  # operations that computed, s
    rates: list = field(default_factory=list)  # work units per second, per pass
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # summed active time of the measuring threads, probes excluded
    layers: dict = field(default_factory=dict)  # per-layer figures measured outside spans
    remote: list = field(default_factory=list)  # span dumps of other processes

    def add(self, samples: list, value: float, took: float) -> None:
        """Append ``value`` to ``samples``, stamped with the middle of an
        operation that took ``took`` seconds and has just ended."""
        samples.append((time.perf_counter() - took / 2, value))

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def _op(recorder, body):
    """Run one benchmark operation, inside a root span when tracing."""
    if recorder is None:
        return body()
    return recorder.call("bench", body, (), {})


class Workload:
    name = ""
    setup_code = ""  # program run in a fresh interpreter to time set-up

    def __init__(self, scale: str, seed: int, table, work: Path):
        self.scale = scale
        self.seed = seed
        self.rng = random.Random(seed)
        self.table = table
        self.work = work
        self.speed = SpeedProbe()  # every probe of the run, set-up included

    def setup_args(self) -> list:
        return []

    def setup_seconds(self) -> Phase:
        """Wall time of imports plus construction, in fresh interpreters,
        as the ``op_s`` samples of a phase; the probe runs before each."""
        setup = Phase()
        for _ in range(SETUP_REPEATS):
            self.speed.now()
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", self.setup_code, *self.setup_args()],
                cwd=ROOT, env=program_env(), check=True, timeout=120,
            )
            took = time.perf_counter() - start
            setup.add(setup.op_s, took, took)
        return setup

    def warm_up(self) -> None:
        """Finish lazy imports that set-up already timed, untimed here."""

    def measure(self, seconds: float, recorder=None) -> Phase:
        raise NotImplementedError


# ----------------------------------------------------------------------
# evaluate-large
# ----------------------------------------------------------------------
class EvaluateLarge(Workload):
    """What ``repro evaluate`` does, three (app, config) pairs per sample."""

    name = "evaluate-large"
    setup_code = (
        "import json, sys\n"
        "from repro.runtime import ExperimentSpec\n"
        "for app, metric, params in json.loads(sys.argv[1]):\n"
        "    ExperimentSpec.create(app, metric, **params).framework()\n"
    )

    def setup_args(self) -> list:
        return [json.dumps([[app, metric_for(app), params] for _l, app, params, _c
                            in evaluate_pairs(self.scale)])]

    def warm_up(self) -> None:
        """One untimed sample: the first evaluate in a process also pays
        lazy imports and one-time tables."""
        from repro.runtime import ExperimentSpec

        for _label, app, params, config in evaluate_pairs(self.scale):
            ExperimentSpec.create(app, metric_for(app),
                                  **params).framework().evaluate(config)

    def measure(self, seconds, recorder=None) -> Phase:
        from repro.runtime import ExperimentSpec

        phase = Phase()
        pairs = evaluate_pairs(self.scale)
        begin, probed = time.perf_counter(), self.speed.total_s
        while True:
            self.speed.due()
            self.rng.shuffle(pairs)
            sample = 0.0
            for _label, app, params, config in pairs:
                spec = ExperimentSpec.create(app, metric_for(app), **params)

                def body(spec=spec, config=config):
                    start = time.perf_counter()
                    evaluation = spec.framework().evaluate(config)
                    took = time.perf_counter() - start
                    return took, self.table.check_evaluation(spec, config,
                                                             evaluation)

                took, ok = _op(recorder, body)
                phase.check(ok)
                sample += took
            phase.add(phase.op_s, sample, sample)
            phase.add(phase.rates, len(pairs) / sample, sample)
            elapsed = time.perf_counter() - begin
            if elapsed + sample > seconds:
                break
        phase.cold_s = list(phase.op_s)
        phase.wall_s = (time.perf_counter() - begin
                        - (self.speed.total_s - probed))
        return phase


# ----------------------------------------------------------------------
# sweep-apps-48
# ----------------------------------------------------------------------
class SweepApps(Workload):
    """The ``units`` family over all six apps, cold and then warm."""

    name = "sweep-apps-48"
    setup_code = (
        "import json, sys\n"
        "from repro.runtime import ExperimentRunner, ExperimentSpec, ResultCache\n"
        "ExperimentRunner(max_workers=2, cache=ResultCache(sys.argv[2]))\n"
        "for app, metric, params in json.loads(sys.argv[1]):\n"
        "    ExperimentSpec.create(app, metric, **params)\n"
    )

    def setup_args(self) -> list:
        sizes = SCALES[self.scale]["sweep"]
        return [json.dumps([[app, metric_for(app), params]
                            for app, params in sizes.items()]),
                str(self.work / "setup-cache")]

    def measure(self, seconds, recorder=None) -> Phase:
        from repro.runtime import ExperimentRunner, ExperimentSpec, ResultCache

        phase = Phase()
        sizes = SCALES[self.scale]["sweep"]
        specs = [ExperimentSpec.create(app, metric_for(app), **params)
                 for app, params in sizes.items()]
        family = list(units_family().items())
        begin, probed = time.perf_counter(), self.speed.total_s
        cycle = 0
        while True:
            cycle_start = time.perf_counter()
            cache_dir = self.work / f"sweep-cache-{cycle}"
            runner = ExperimentRunner(max_workers=SWEEP_WORKERS,
                                      cache=ResultCache(cache_dir))
            for warm in range(WARM_PASSES + 1):
                # Apps differ in sweep time, so a median over single sweeps
                # would sit between two apps' clusters; one sample is a pass
                # over all six apps.
                pass_s = 0.0
                if warm:
                    # A warm pass takes a few tens of milliseconds, and the
                    # host's speed changes faster than once a second: probe
                    # right before each warm pass (and after the last).
                    self.speed.now()
                self.rng.shuffle(specs)
                for spec in specs:
                    self.rng.shuffle(family)
                    configs = dict(family)

                    def body(spec=spec, configs=configs):
                        start = time.perf_counter()
                        results = runner.sweep(spec, configs)
                        took = time.perf_counter() - start
                        ok = all(self.table.check_evaluation(
                            spec, configs[name], evaluation)
                            for name, evaluation in results.items())
                        return took, ok, runner.stats.cache_misses

                    self.speed.due()
                    took, ok, misses = _op(recorder, body)
                    phase.check(ok and misses == (0 if warm else len(configs)))
                    pass_s += took
                if warm:
                    phase.add(phase.op_s, pass_s / len(specs), pass_s)
                else:
                    phase.add(phase.cold_s, pass_s / len(specs), pass_s)
                    phase.add(phase.rates,
                              len(specs) * len(family) / pass_s, pass_s)
            self.speed.now()
            shutil.rmtree(cache_dir, ignore_errors=True)
            cycle += 1
            elapsed = time.perf_counter() - begin
            if elapsed + (time.perf_counter() - cycle_start) > seconds:
                break
        phase.wall_s = (time.perf_counter() - begin
                        - (self.speed.total_s - probed))
        return phase


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def label_schedule(rng: random.Random):
    """Endless seeded seed-label sequence for ``serve-mixed``.

    Every block of ten requests introduces exactly one never-served label
    (a cold miss) at a seeded position; every other block asks for it
    twice in a row so that the two clients coalesce on it.  The rest
    repeat labels drawn uniformly from those already introduced.
    """
    served: list = []
    block = 0
    while True:
        new = block + 1
        position = 0 if block == 0 else rng.randrange(SERVE_BLOCK - 1)
        twice = block % 2 == 1
        for i in range(SERVE_BLOCK):
            if i == position or (twice and i == position + 1):
                yield new
            else:
                yield rng.choice(served)
            if i == position:
                served.append(new)
        block += 1


class ServerProcess:
    """One ``python -m repro serve --port 0`` subprocess."""

    def __init__(self, cache_dir: Path, log: Path, trace_dump: Path | None):
        from repro.service import ServiceClient

        if trace_dump is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(trace_dump)]
        command += ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        self.cache_dir = cache_dir
        self.log = log
        start = time.perf_counter()
        with open(log, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                stderr=stderr, text=True,
            )
        try:
            banner = self.process.stdout.readline()
            found = re.search(r"listening on (http://\S+)", banner)
            if found is None:
                raise RuntimeError(f"server did not start: {banner!r}")
            self.client = ServiceClient(found.group(1), timeout=120.0)
            deadline = time.monotonic() + 60
            while not self._ready():
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _ready(self) -> bool:
        from repro.service import ServiceError

        try:
            return bool(self.client.readyz(timeout=5)["ready"])
        except (OSError, ServiceError):
            return False

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def runtime_warnings(self) -> int:
        text = self.log.read_text(encoding="utf-8", errors="replace")
        return text.count("RuntimeWarning")


class ServeMixed(Workload):
    """Two closed-loop clients against one ``repro serve`` instance."""

    name = "serve-mixed"

    def __init__(self, *args):
        super().__init__(*args)
        self.servers = 0

    def _spawn(self, trace_dump=None) -> ServerProcess:
        self.servers += 1
        return ServerProcess(self.work / f"serve-cache-{self.servers}",
                             self.work / f"serve-{self.servers}.log",
                             trace_dump)

    def setup_seconds(self) -> Phase:
        setup = Phase()
        for _ in range(SETUP_REPEATS):
            self.speed.now()
            server = self._spawn()
            setup.add(setup.op_s, server.startup_s, server.startup_s)
            server.stop()
        return setup

    def measure(self, seconds, recorder=None) -> Phase:
        from repro.runtime import ExperimentSpec, ResultCache

        params = SCALES[self.scale]["serve"]
        dump = self.work / f"server-spans-{self.servers + 1}.json"
        server = self._spawn(dump if recorder is not None else None)
        try:
            phase, hits, misses, refused = self._drive(server, seconds,
                                                       recorder)
            coalesced = server.client.queuez(timeout=30)["coalesced"]
        finally:
            server.stop()

        # Direct in-process reads of the entries the server answered from,
        # and the compute time it recorded for each cold label.
        cache = ResultCache(server.cache_dir)
        family = units_family()
        read_s, compute_s = [], {}
        with recorder.paused() if recorder is not None else nullcontext():
            for label in sorted({label for _took, label in misses}):
                spec = ExperimentSpec.create("hotspot", metric_for("hotspot"),
                                             seed=label, **params)
                start = time.perf_counter()
                docs = [cache.document(spec, cfg) for cfg in family.values()]
                read_s.append(time.perf_counter() - start)
                compute_s[label] = sum(doc["compute_seconds"] for doc in docs
                                       if doc is not None)
        phase.layers = {
            "service.hits": len(hits),
            "service.misses": len(misses),
            "service.coalesced": coalesced,
            "service.refused": refused,
            "service.overhead_s": median(hits) - median(read_s),
            "service.queue_wait_s": median(
                [took - compute_s[label] for took, label in misses]),
            "service.hit_tail_s": tail(hits),
            "core.runtime_warnings": server.runtime_warnings(),
        }
        if dump.exists():
            phase.remote.append(json.loads(dump.read_text()))
        shutil.rmtree(server.cache_dir, ignore_errors=True)
        return phase

    def _drive(self, server, seconds, recorder) -> tuple:
        """Closed loop of the client threads -> (phase, hits, misses, refused).

        The clients run in windows of ``SERVE_WINDOW_S``; between windows,
        with no request in flight, the speed probe runs.
        """
        from repro.runtime import ExperimentSpec
        from repro.service import ServiceError

        params = SCALES[self.scale]["serve"]
        expected = len(units_family())
        phase = Phase()
        lock = threading.Lock()
        schedule = label_schedule(self.rng)
        hits: list = []
        misses: list = []  # (latency, label)
        refused = 0
        active: list = []
        stop_at = time.perf_counter() + seconds

        def call(label):
            start = time.perf_counter()
            try:
                reply = server.client.sweep("hotspot", family="units",
                                            params=params, seed=label)
            except ServiceError as exc:
                return ("refused" if exc.status in (429, 503) else "error",
                        time.perf_counter() - start)
            took = time.perf_counter() - start
            return ("miss" if reply["served"]["misses"] else "hit", reply), took

        # Replies are checked between windows, so that one client's digest
        # check never holds the interpreter while the other's reply arrives.
        replies: list = []  # (label, reply)

        def check_replies() -> None:
            with recorder.paused() if recorder is not None else nullcontext():
                for label, reply in replies:
                    spec = ExperimentSpec.create(
                        "hotspot", metric_for("hotspot"), seed=label, **params)
                    phase.check(len(reply["results"]) == expected and all(
                        "error" not in doc and self.table.check_document(spec, doc)
                        for doc in reply["results"].values()))
            replies.clear()

        counts = [0] * SERVE_CLIENTS

        def client_loop(index: int, window_end: float) -> None:
            nonlocal refused
            started = time.perf_counter()
            while True:
                with lock:
                    if time.perf_counter() >= window_end:
                        break
                    label = next(schedule)
                if recorder is not None:
                    recorder.set_request(f"client{index}-{counts[index]}")
                counts[index] += 1
                outcome, took = _op(recorder, lambda: call(label))
                with lock:
                    if not isinstance(outcome, tuple):
                        refused += outcome == "refused"
                        phase.check(False)
                        continue
                    kind, reply = outcome
                    replies.append((label, reply))
                    if kind == "miss":
                        misses.append((took, label))
                        phase.add(phase.cold_s, took, took)
                    else:
                        hits.append(took)
                        phase.add(phase.op_s, took, took)
            active.append(time.perf_counter() - started)

        while time.perf_counter() < stop_at:
            self.speed.now()
            begin = time.perf_counter()
            calls = len(hits) + len(misses)
            window_end = min(stop_at, begin + SERVE_WINDOW_S)
            threads = [threading.Thread(target=client_loop, args=(i, window_end))
                       for i in range(SERVE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window = time.perf_counter() - begin
            phase.add(phase.rates, (len(hits) + len(misses) - calls) / window,
                      window)
            check_replies()
        phase.wall_s = sum(active)
        return phase, hits, misses, refused


# ----------------------------------------------------------------------
# characterize-fig8-9
# ----------------------------------------------------------------------
class CharacterizeFig89(Workload):
    """Figure-8 units and Figure-9 multiplier configurations, in process."""

    name = "characterize-fig8-9"
    setup_code = "import repro.erroranalysis\n"

    def warm_up(self) -> None:
        import repro.erroranalysis  # noqa: F401

    def measure(self, seconds, recorder=None) -> Phase:
        import importlib

        module = importlib.import_module("repro.erroranalysis.characterize")
        samples = SCALES[self.scale]["characterize_samples"]
        seed = self.seed % CHARACTERIZE_SEEDS
        configs = list(MULTIPLIER_CONFIGS)
        per_pass = (len(module.UNIT_CHARACTERIZATIONS) + len(configs)) * samples
        phase = Phase()
        begin, probed = time.perf_counter(), self.speed.total_s
        while True:
            self.speed.due()
            self.rng.shuffle(configs)

            def body():
                start = time.perf_counter()
                pmfs = list(module.characterize_units(
                    n_samples=samples, seed=seed).values())
                pmfs += module.characterize_multiplier_configs(
                    configs, n_samples=samples, seed=seed).values()
                took = time.perf_counter() - start
                return took, [self.table.check_pmf(pmf, samples, seed)
                              for pmf in pmfs]

            took, checks = _op(recorder, body)
            for ok in checks:
                phase.check(ok)
            phase.add(phase.op_s, took, took)
            phase.add(phase.rates, per_pass / took, took)
            elapsed = time.perf_counter() - begin
            if elapsed + took > seconds:
                break
        phase.cold_s = list(phase.op_s)
        phase.wall_s = (time.perf_counter() - begin
                        - (self.speed.total_s - probed))
        return phase


WORKLOADS = {cls.name: cls for cls in
             (EvaluateLarge, SweepApps, ServeMixed, CharacterizeFig89)}
