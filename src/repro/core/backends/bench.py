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
from ..configurable import MultiplierConfig
from ..floatops import format_for_dtype
from . import backend_accepts_threads, backend_names, get_backend
from .parity import check_batch_parity, check_parity
from .threads import resolve_thread_count

__all__ = ["BENCH_OPS", "BATCH_SWEEP_THRESHOLDS", "PARALLEL_BACKENDS",
           "run_benchmarks", "run_batch_benchmarks",
           "run_parallel_benchmarks"]

#: Operations timed by :func:`run_benchmarks`.
BENCH_OPS = ("add", "mul", "fma", "rcp", "sqrt")

#: The 8-configuration adder-threshold sweep timed by the ``batch``
#: section: one batched call against eight per-config fused calls.
BATCH_SWEEP_THRESHOLDS = (1, 2, 4, 6, 8, 12, 16, 23)

#: Backends timed by the ``parallel`` section against the fused baseline.
PARALLEL_BACKENDS = tuple(
    name for name in backend_names() if backend_accepts_threads(name)
)

#: The Mitchell multiplier-configuration sweep shared by the ``batch``
#: and ``parallel`` sections (filtered to ``truncation <= mantissa_bits``).
_MITCHELL_SWEEP_NAMES = ("fp_tr0", "lp_tr0", "fp_tr4", "lp_tr4",
                         "fp_tr8", "lp_tr8", "fp_tr12", "lp_tr16")


def _mitchell_sweep(fmt) -> list:
    mbits = fmt.mantissa_bits
    return [
        MultiplierConfig.from_name(name)
        for name in _MITCHELL_SWEEP_NAMES
        if MultiplierConfig.from_name(name).truncation <= mbits
    ]


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


def _batch_section(size: int, repeats: int, fmt, parity_samples: int) -> dict:
    """Time multi-config sweeps: batched entry points vs per-config fused.

    Every sweep presents one operand pair to N configurations — the shape
    of a power–quality design sweep.  The baseline is the *fused* backend
    called once per configuration (the fastest pre-batch path); the
    candidate is the corresponding ``*_batch`` entry point sharing one
    field decomposition.  Timings are only published when the batched
    parity harness passes, mirroring the per-backend rule.
    """
    backend = get_backend("fused")
    section = {
        "backend": "fused",
        "n_configs": len(BATCH_SWEEP_THRESHOLDS),
        "thresholds": list(BATCH_SWEEP_THRESHOLDS),
        "parity_ok": None,
        "sweeps": {},
    }
    failures = check_batch_parity(backend, dtype=fmt.dtype,
                                  n_random=parity_samples)
    section["parity_ok"] = not failures
    if failures:
        section["parity_failures"] = failures
        return section

    a, b, c = _operands(size, fmt.dtype)
    thresholds = list(BATCH_SWEEP_THRESHOLDS)
    mbits = fmt.mantissa_bits
    mitchell = _mitchell_sweep(fmt)
    truncations = [t for t in (0, 2, 4, 6, 8, 10, 12, 16) if t <= mbits]
    dt = fmt.dtype
    sweeps = {
        "add": (
            lambda: [backend.imprecise_add(a, b, t, dtype=dt)
                     for t in thresholds],
            lambda: backend.imprecise_add_batch(a, b, thresholds, dtype=dt),
        ),
        "fma": (
            lambda: [backend.imprecise_fma(a, b, c, t, dtype=dt)
                     for t in thresholds],
            lambda: backend.imprecise_fma_batch(a, b, c, thresholds,
                                                dtype=dt),
        ),
        "mul_mitchell": (
            lambda: [backend.configurable_multiply(a, b, cfg, dtype=dt)
                     for cfg in mitchell],
            lambda: backend.configurable_multiply_batch(a, b, mitchell,
                                                        dtype=dt),
        ),
        "mul_truncated": (
            lambda: [backend.truncated_multiply(a, b, t, dtype=dt,
                                                rounding=False)
                     for t in truncations],
            lambda: backend.truncated_multiply_batch(a, b, truncations,
                                                     dtype=dt,
                                                     rounding=False),
        ),
    }
    total_per = total_batch = 0.0
    th_per = th_batch = 0.0
    for op, (per_config, batched) in sweeps.items():
        per_config()  # warm-up
        batched()
        per_seconds = _time_best(per_config, repeats)
        batch_seconds = _time_best(batched, repeats)
        total_per += per_seconds
        total_batch += batch_seconds
        if op in ("add", "fma"):
            th_per += per_seconds
            th_batch += batch_seconds
        record = {
            "per_config_seconds": per_seconds,
            "batch_seconds": batch_seconds,
        }
        if batch_seconds > 0:
            record["speedup"] = per_seconds / batch_seconds
        section["sweeps"][op] = record
    # The headline number: the 8-configuration adder-threshold sweep
    # (add + fma share the threshold parameter), where the whole datapath
    # after the one decompose is per-config-cheap integer masking.  The
    # multiplier sweeps are reported individually above; Mitchell's
    # per-config mantissa product bounds its batch gain, so it is kept
    # out of the headline aggregate rather than silently diluting it.
    section["threshold_sweep"] = {
        "per_config_seconds": th_per,
        "batch_seconds": th_batch,
    }
    if th_batch > 0:
        section["threshold_sweep"]["speedup"] = th_per / th_batch
    section["sweep"] = {
        "per_config_seconds": total_per,
        "batch_seconds": total_batch,
    }
    if total_batch > 0:
        section["sweep"]["speedup"] = total_per / total_batch
    return section


def _parallel_section(size: int, repeats: int, fmt, parity_samples: int,
                      threads=None) -> dict:
    """Time the multi-core backends against the single-core fused baseline.

    For each parallel backend (:data:`PARALLEL_BACKENDS`) this times the
    scalar ``add``/``mul``/``fma`` datapaths and the batched Mitchell
    configuration sweep on the same large operand vectors as the fused
    baseline, reporting per-op speedup vs fused.  Like every other
    section, a backend must pass both the scalar and the batched parity
    harness before its numbers are published.
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
    mitchell = _mitchell_sweep(fmt)
    runs = {
        "add": lambda be: be.imprecise_add(a, b, DEFAULT_THRESHOLD,
                                           dtype=dt),
        "mul": lambda be: be.imprecise_multiply(a, b, dtype=dt),
        "fma": lambda be: be.imprecise_fma(a, b, c, DEFAULT_THRESHOLD,
                                           dtype=dt),
        "mul_mitchell_batch": lambda be: be.configurable_multiply_batch(
            a, b, mitchell, dtype=dt),
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
        failures = failures + check_batch_parity(backend, dtype=dt,
                                                 n_random=parity_samples)
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


def run_batch_benchmarks(size: int = 1_000_000, repeats: int = 5,
                         dtype=np.float32,
                         parity_samples: int = 4096) -> dict:
    """Just the batched multi-config sweep section of the payload.

    The standalone entry point behind ``benchmarks/test_batched_backend.py``
    and the CI bench smoke; equivalent to the ``batch`` key that
    :func:`run_benchmarks` embeds.
    """
    return _batch_section(size, repeats, format_for_dtype(dtype),
                          parity_samples)


def run_benchmarks(size: int = 1_000_000, repeats: int = 5,
                   dtype=np.float32, backends=None,
                   parity_samples: int = 4096, batch: bool = True,
                   parallel: bool = True, threads=None) -> dict:
    """Benchmark ``backends`` against ``reference`` on ``size`` elements.

    Returns a payload dict with machine metadata, per-backend parity
    status, and per-op timings in seconds plus speedup vs reference.
    Backends failing parity get no timings (``parity_failures`` lists the
    mismatches instead).

    With ``batch=True`` (default) the payload also carries a ``batch``
    section comparing the fused backend's batched entry points against
    eight per-config fused calls (see :func:`_batch_section`); pass
    ``batch=False`` to skip it (``repro bench --no-batch``).  With
    ``parallel=True`` (default) it carries a ``parallel`` section timing
    the multi-core backends against the fused baseline (see
    :func:`_parallel_section`).  ``threads`` caps the threaded backend's
    worker count (``repro bench --threads N``); ``None`` resolves via
    ``REPRO_THREADS`` / the machine core count.
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
    if batch:
        payload["batch"] = _batch_section(size, repeats, fmt, parity_samples)
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
