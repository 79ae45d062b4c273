"""Deterministic, seeded fault injection for the experiment runtime.

The runtime's recovery paths (retry, pool rebuild, backend fallback,
cache quarantine) are only trustworthy if they are *exercised*, and real
faults are rare and nondeterministic.  This module injects them on
demand, reproducibly, from one environment knob::

    REPRO_FAULTS="crash:match=cfg03,times=1;hang:match=cfg07,seconds=30"

Grammar (clauses separated by ``;``)::

    spec    = clause (";" clause)*
    clause  = "seed=" INT                 # global pseudo-randomness seed
            | KIND [":" param ("," param)*]
    KIND    = "crash" | "hang" | "transient" | "flaky-backend"
            | "corrupt-cache" | "slow-response" | "dropped-connection"
            | "queue-full" | "node-crash"
    param   = "match=" SUBSTR             # fire only for task keys
                                          # containing SUBSTR (default: all)
            | "times=" INT                # fire on the first N attempts of
                                          # a matching task (default 1)
            | "p=" FLOAT                  # additionally gate each firing on
                                          # a seeded hash fraction < p
            | "seconds=" FLOAT            # hang duration (hang only)

Fault kinds and the recovery path each one proves:

``crash``
    ``os._exit`` inside a worker process → ``BrokenProcessPool`` → the
    runner rebuilds the pool and requeues the unfinished work.
``hang``
    ``time.sleep(seconds)`` inside a worker → the per-task deadline
    expires → the runner terminates the pool and retries the task.
``transient``
    raises :class:`TransientFault` from the task body (worker or inline)
    → per-task retry with backoff.
``flaky-backend``
    raises :class:`BackendFault` when the task's config selects a
    non-``reference`` compute backend (``None`` resolves to the process
    default) → per-task fallback to the
    ``reference`` backend (bit-identical by the parity contract).
``corrupt-cache``
    truncates the just-written cache entry → the next read detects the
    damage, quarantines the entry, and recomputes.
``slow-response``
    the sweep service delays a response by ``seconds`` → clients observe
    latency but identical bytes (timeout handling is the client's job).
``dropped-connection``
    the sweep service closes the socket mid-response → the client
    retries with an incremented attempt counter and recovers.
``queue-full``
    the sweep service reports 429 + ``Retry-After`` as if the work queue
    were at capacity → the client backs off and retries.
``node-crash``
    a sweep-service *process* dies mid-request (``os._exit``, exactly as
    a power cut would) → restarted on the same cache directory, the node
    answers the resent request's finished configurations from the cache
    and computes only the rest.

The three service kinds guard the HTTP boundary (``repro.service``), not
worker processes; their ``key`` is the request path, and the attempt axis
is the client's retry counter (``X-Repro-Attempt``), so ``times=N``
clauses disturb the first N attempts and then let the retry succeed —
recovery is provable, not probabilistic.

``node-crash`` guards the same boundary with ``key =
"<host:port><path>"`` (match by port to target one instance, by path to
target one crafted request such as ``/healthz?boom``).

Decisions are **deterministic**: ``crash``/``hang``/``transient``/
``flaky-backend`` fire iff ``attempt < times`` (and, when ``p`` is given,
a SHA-256 fraction of ``(seed, kind, key, attempt)`` is below ``p``) —
stateless, so forked workers and the parent agree without coordination.
``corrupt-cache`` has no attempt axis and uses a per-injector counter
instead (cache writes happen only in the parent process).

Injected faults are counted in ``repro_faults_injected_total{kind=...}``
(a ``crash`` increments before exiting, so its count dies with the
worker — the parent-side ``repro_runtime_pool_rebuilds_total`` is the
observable trace).
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro import telemetry

__all__ = [
    "FAULT_KINDS",
    "BackendFault",
    "FaultClause",
    "FaultError",
    "FaultInjector",
    "TransientFault",
    "active",
    "corrupt_entry",
    "injection",
    "stable_fraction",
]

FAULT_KINDS = (
    "crash", "hang", "transient", "flaky-backend", "corrupt-cache",
    "slow-response", "dropped-connection", "queue-full", "node-crash",
)

#: Exit code of an injected worker crash (distinguishable in core dumps
#: and CI logs from a real interpreter abort).
CRASH_EXIT_CODE = 91


class FaultError(RuntimeError):
    """Base class of every injected failure."""


class TransientFault(FaultError):
    """An injected failure that a plain retry recovers from."""


class BackendFault(FaultError):
    """An injected compute-backend failure (recovered by falling back
    to the ``reference`` backend)."""


def stable_fraction(*parts) -> float:
    """A deterministic fraction in [0, 1) derived from ``parts``."""
    payload = "|".join(str(part) for part in parts)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultClause:
    """One armed fault: kind plus targeting parameters."""

    kind: str
    match: str = ""
    times: int = 1
    p: float | None = None
    seconds: float = 30.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {self.seconds}")


def _parse_clause(text: str) -> FaultClause:
    kind, _, params = text.partition(":")
    kind = kind.strip()
    kwargs: dict = {}
    if params.strip():
        for param in params.split(","):
            key, sep, value = param.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise ValueError(
                    f"bad fault parameter {param!r} in clause {text!r} "
                    "(expected key=value)"
                )
            if key == "match":
                kwargs["match"] = value
            elif key == "times":
                kwargs["times"] = int(value)
            elif key == "p":
                kwargs["p"] = float(value)
            elif key == "seconds":
                kwargs["seconds"] = float(value)
            else:
                raise ValueError(
                    f"unknown fault parameter {key!r} in clause {text!r} "
                    "(expected match/times/p/seconds)"
                )
    return FaultClause(kind=kind, **kwargs)


class FaultInjector:
    """Parsed ``REPRO_FAULTS`` spec, queried by the runtime's guard sites.

    One injector instance is created per process (workers parse the
    inherited environment themselves) and, for the stateful
    ``corrupt-cache`` kind, per sweep in the parent.
    """

    def __init__(self, clauses, seed: int = 0, spec: str = ""):
        self.clauses = tuple(clauses)
        self.seed = seed
        self.spec = spec
        self._fired: dict = {}  # (kind, key) -> count, corrupt-cache only

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultInjector | None":
        """Parse a spec string; None when it arms nothing."""
        spec = (spec or "").strip()
        if not spec:
            return None
        clauses = []
        seed = 0
        for raw in spec.split(";"):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("seed="):
                seed = int(text[len("seed="):])
                continue
            clauses.append(_parse_clause(text))
        if not clauses:
            return None
        return cls(clauses, seed=seed, spec=spec)

    # ------------------------------------------------------------------
    # Decision core
    # ------------------------------------------------------------------
    def _armed(self, kind: str, key: str, attempt: int):
        """The first clause of ``kind`` firing for (key, attempt), or None."""
        for clause in self.clauses:
            if clause.kind != kind:
                continue
            if clause.match and clause.match not in key:
                continue
            if attempt >= clause.times:
                continue
            if clause.p is not None and stable_fraction(
                self.seed, kind, key, attempt
            ) >= clause.p:
                continue
            return clause
        return None

    def _record(self, kind: str) -> None:
        telemetry.counter_inc("repro_faults_injected_total", kind=kind)

    # ------------------------------------------------------------------
    # Guard sites
    # ------------------------------------------------------------------
    def worker_task(self, key: str, attempt: int) -> None:
        """Worker-process guard: crash and hang faults.

        Only ever called from pool worker processes — a crash here kills
        the worker, not the experiment; the degraded sequential path
        never runs this guard, which is what makes degradation safe.
        """
        if self._armed("crash", key, attempt):
            self._record("crash")
            os._exit(CRASH_EXIT_CODE)
        clause = self._armed("hang", key, attempt)
        if clause:
            self._record("hang")
            time.sleep(clause.seconds)

    def task(self, key: str, attempt: int) -> None:
        """Process-agnostic guard: transient faults (safe inline)."""
        if self._armed("transient", key, attempt):
            self._record("transient")
            raise TransientFault(
                f"injected transient fault for task {key!r} (attempt {attempt})"
            )

    def backend(self, key: str, attempt: int, backend) -> None:
        """Backend guard: flaky-backend faults, non-reference backends only.

        ``backend`` is a config's selection; ``None`` means the process
        default, which is guarded like any other non-reference backend.
        """
        from repro.core.backends import default_backend_name

        backend = backend or default_backend_name()
        if backend == "reference":
            return
        if self._armed("flaky-backend", key, attempt):
            self._record("flaky-backend")
            raise BackendFault(
                f"injected {backend!r} backend fault for task {key!r} "
                f"(attempt {attempt})"
            )

    def slow_response(self, key: str, attempt: int) -> float:
        """Service guard: seconds to stall before answering (0.0 = none)."""
        clause = self._armed("slow-response", key, attempt)
        if clause:
            self._record("slow-response")
            return clause.seconds
        return 0.0

    def drop_connection(self, key: str, attempt: int) -> bool:
        """Service guard: whether to sever the connection mid-response."""
        if self._armed("dropped-connection", key, attempt):
            self._record("dropped-connection")
            return True
        return False

    def queue_full(self, key: str, attempt: int) -> bool:
        """Service guard: whether to refuse as if the queue were full."""
        if self._armed("queue-full", key, attempt):
            self._record("queue-full")
            return True
        return False

    def node_crash(self, key: str, attempt: int) -> bool:
        """Server guard: whether this *process* should die mid-request.

        The caller performs the ``os._exit`` so the guard stays testable;
        ``key`` is ``"<host:port><path>"`` (see module docstring).
        """
        if self._armed("node-crash", key, attempt):
            self._record("node-crash")
            return True
        return False

    def corrupt_cache(self, key: str) -> bool:
        """Whether to corrupt the entry just written for ``key`` (stateful)."""
        for clause in self.clauses:
            if clause.kind != "corrupt-cache":
                continue
            if clause.match and clause.match not in key:
                continue
            fired = self._fired.get(("corrupt-cache", key), 0)
            if fired >= clause.times:
                continue
            self._fired[("corrupt-cache", key)] = fired + 1
            self._record("corrupt-cache")
            return True
        return False


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def active() -> FaultInjector | None:
    """The injector armed by ``REPRO_FAULTS``, or None when unset."""
    return FaultInjector.parse(os.environ.get("REPRO_FAULTS", ""))


@contextmanager
def injection(spec: str):
    """Arm ``spec`` for this process *and* pool workers forked inside.

    Sets ``REPRO_FAULTS`` in the environment (fork-based workers inherit
    it) and restores the previous value on exit.  Yields the parent-side
    injector (None for an empty spec).
    """
    previous = os.environ.get("REPRO_FAULTS")
    os.environ["REPRO_FAULTS"] = spec
    try:
        yield active()
    finally:
        if previous is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = previous


def corrupt_entry(cache, spec, config) -> bool:
    """Truncate the persisted cache entry for (spec, config).

    Emulates bit rot / a torn write surviving on disk: the entry's JSON
    is cut to half its length, so the next ``cache.get`` fails to parse
    it, quarantines it, and forces a recompute.  Returns whether an
    entry existed to corrupt.
    """
    json_path, _npz_path = cache.entry_paths(spec, config)
    try:
        data = json_path.read_bytes()
    except OSError:
        return False
    json_path.write_bytes(data[: max(1, len(data) // 2)])
    return True
