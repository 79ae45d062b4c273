"""Backend micro-benchmarks behind the ``repro bench`` CLI subcommand.

Times the hot unit operations on large finite operand vectors for every
requested backend, best-of-``repeats``, and reports speedups relative to
``reference``.  Each backend must pass the parity harness before its
numbers are published — a fast-but-wrong backend is worse than useless
here, because the result cache deliberately ignores the backend choice.

The payload is plain JSON-serialisable data; the CLI handles all IO.
"""

from __future__ import annotations

import os
import platform
import sys
import time

import numpy as np

from ..adder import DEFAULT_THRESHOLD
from ..floatops import format_for_dtype
from . import backend_accepts_threads, backend_names, get_backend
from .parity import check_parity
from .threads import resolve_thread_count

__all__ = ["BENCH_OPS", "PARALLEL_BACKENDS", "run_benchmarks",
           "run_parallel_benchmarks"]

#: Operations timed by :func:`run_benchmarks`.
BENCH_OPS = ("add", "mul", "fma", "rcp", "sqrt")

#: Backends timed by the ``parallel`` section against the fused baseline.
PARALLEL_BACKENDS = tuple(
    name for name in backend_names() if backend_accepts_threads(name)
)


def _operands(size: int, dtype, seed: int = 11):
    """Large finite operand vectors (the steady-state kernel workload)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.25, 4.0, size=size).astype(dtype)
    b = rng.uniform(0.25, 4.0, size=size).astype(dtype)
    c = rng.uniform(0.25, 4.0, size=size).astype(dtype)
    sign = np.where(rng.integers(0, 2, size=size) == 1, -1.0, 1.0)
    a = (a * sign.astype(dtype)).astype(dtype)
    return a, b, c


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _machine_metadata(threads=None) -> dict:
    meta = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    if threads is not None:
        meta["threads"] = int(threads)
    return meta


def _parallel_section(size: int, repeats: int, fmt, parity_samples: int,
                      threads=None) -> dict:
    """Time the multi-core backends against the single-core fused baseline.

    For each parallel backend (:data:`PARALLEL_BACKENDS`) this times the
    ``add``/``mul``/``fma`` datapaths on the same large operand vectors as
    the fused baseline, reporting per-op speedup vs fused.  Like every
    other section, a backend must pass the parity harness before its
    numbers are published.
    """
    threads = resolve_thread_count(threads)
    section = {
        "baseline": "fused",
        "threads": threads,
        "size": int(size),
        "backends": {},
    }
    dt = fmt.dtype
    a, b, c = _operands(size, dt)
    runs = {
        "add": lambda be: be.imprecise_add(a, b, DEFAULT_THRESHOLD,
                                           dtype=dt),
        "mul": lambda be: be.imprecise_multiply(a, b, dtype=dt),
        "fma": lambda be: be.imprecise_fma(a, b, c, DEFAULT_THRESHOLD,
                                           dtype=dt),
    }

    fused = get_backend("fused")
    fused_times = {}
    for op, fn in runs.items():
        fn(fused)  # warm-up
        fused_times[op] = _time_best(lambda f=fn: f(fused), repeats)
    section["fused_seconds"] = fused_times

    for name in PARALLEL_BACKENDS:
        entry = {"parity_ok": None, "ops": {}}
        section["backends"][name] = entry
        backend = get_backend(name, threads=threads)
        failures = check_parity(backend, dtype=dt, n_random=parity_samples)
        entry["parity_ok"] = not failures
        if failures:
            entry["parity_failures"] = failures
            continue
        for op, fn in runs.items():
            fn(backend)  # warm-up
            seconds = _time_best(lambda f=fn: f(backend), repeats)
            record = {"seconds": seconds}
            if seconds > 0:
                record["speedup_vs_fused"] = fused_times[op] / seconds
            entry["ops"][op] = record
    return section


def run_parallel_benchmarks(size: int = 1_000_000, repeats: int = 5,
                            dtype=np.float32, parity_samples: int = 4096,
                            threads=None) -> dict:
    """Just the ``parallel`` section of the payload.

    The standalone entry point behind ``benchmarks/test_parallel_backend.py``;
    equivalent to the ``parallel`` key that :func:`run_benchmarks` embeds.
    """
    return _parallel_section(size, repeats, format_for_dtype(dtype),
                             parity_samples, threads=threads)


def run_benchmarks(size: int = 1_000_000, repeats: int = 5,
                   dtype=np.float32, backends=None,
                   parity_samples: int = 4096, parallel: bool = True,
                   threads=None) -> dict:
    """Benchmark ``backends`` against ``reference`` on ``size`` elements.

    Returns a payload dict with machine metadata, per-backend parity
    status, and per-op timings in seconds plus speedup vs reference.
    Backends failing parity get no timings (``parity_failures`` lists the
    mismatches instead).

    With ``parallel=True`` (default) the payload also carries a
    ``parallel`` section timing the multi-core backends against the fused
    baseline (see :func:`_parallel_section`).  ``threads`` caps the
    threaded backend's worker count (``repro bench --threads N``); ``None``
    resolves via ``REPRO_THREADS`` / the machine core count.
    """
    fmt = format_for_dtype(dtype)
    if backends is None:
        backends = backend_names()
    unknown = [name for name in backends if name not in backend_names()]
    if unknown:
        raise ValueError(
            f"unknown backend(s) {unknown}; expected a subset of "
            f"{backend_names()}"
        )
    if "reference" not in backends:
        backends = ("reference",) + tuple(backends)
    resolved_threads = resolve_thread_count(threads)

    a, b, c = _operands(size, fmt.dtype)
    abs_a = np.abs(a)

    payload = {
        "schema": "repro-bench-core/3",
        "machine": _machine_metadata(threads=resolved_threads),
        "size": int(size),
        "repeats": int(repeats),
        "dtype": fmt.name,
        "threshold": DEFAULT_THRESHOLD,
        "backends": {},
    }
    if parallel:
        payload["parallel"] = _parallel_section(size, repeats, fmt,
                                                parity_samples,
                                                threads=resolved_threads)

    reference_times = {}
    for name in backends:
        entry = {"parity_ok": None, "ops": {}}
        payload["backends"][name] = entry
        kwargs = ({"threads": resolved_threads}
                  if backend_accepts_threads(name) else {})
        backend = get_backend(name, **kwargs)
        if name == "reference":
            entry["parity_ok"] = True
        else:
            failures = check_parity(backend, dtype=fmt.dtype,
                                    n_random=parity_samples)
            entry["parity_ok"] = not failures
            if failures:
                entry["parity_failures"] = failures
                continue
        runs = {
            "add": lambda be=backend: be.imprecise_add(
                a, b, DEFAULT_THRESHOLD, dtype=fmt.dtype),
            "mul": lambda be=backend: be.imprecise_multiply(
                a, b, dtype=fmt.dtype),
            "fma": lambda be=backend: be.imprecise_fma(
                a, b, c, DEFAULT_THRESHOLD, dtype=fmt.dtype),
            "rcp": lambda be=backend: be.imprecise_reciprocal(
                a, dtype=fmt.dtype),
            "sqrt": lambda be=backend: be.imprecise_sqrt(
                abs_a, dtype=fmt.dtype),
        }
        for op in BENCH_OPS:
            fn = runs[op]
            fn()  # warm-up
            seconds = _time_best(fn, repeats)
            record = {"seconds": seconds}
            if name == "reference":
                reference_times[op] = seconds
            elif op in reference_times and seconds > 0:
                record["speedup_vs_reference"] = reference_times[op] / seconds
            entry["ops"][op] = record
    return payload
