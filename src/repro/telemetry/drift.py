"""Numeric-drift probes: per-op error statistics from live kernels.

The error characterization (:mod:`repro.erroranalysis.characterize`)
measures each unit over a synthetic low-discrepancy input sweep; a
:class:`DriftProbe` measures the same statistic — relative error of the
imprecise result against the float64-exact one, binned at
``ceil(log2 |ERR%|)`` like Figures 8–9 — over the *actual operands the
kernel produced*, while the kernel runs.  That exposes how
imprecision-induced error accumulates mid-kernel (drift), which the
end-to-end quality metric only shows after the fact.

An :class:`~repro.core.ArithmeticContext` with a probe attached calls
:meth:`DriftProbe.observe` from each imprecise dispatch with the
approximate result, the unit call's wall time, and a *thunk* producing the
exact result.  The probe is also the per-op backend timer: every dispatch
adds to its op's seconds, calls and elements, which :meth:`flush_into`
writes as ``repro_backend_op_*_total`` labeled with the executing backend
(how ``reference`` vs ``threaded`` throughput shows in ``repro metrics``).
It is strictly read-only with respect to the context — it never touches
``ArithmeticContext.counts``, so the access counts feeding the power
model are bit-identical with and without probing (tested).

Cost control (the probe must stay under the telemetry overhead budget):

- only every ``sample_every``-th call per op is observed (the first call
  always is, so every op appears in the stats);
- observed arrays larger than ``max_elements`` are strided down to at
  most that many elements;
- the exact-result thunk is only evaluated for sampled calls.

With the defaults (:data:`SAMPLE_EVERY`, :data:`MAX_ELEMENTS`) metrics
mode is not yet under the 5% gate of
``benchmarks/test_runtime_sweep.py::test_telemetry_overhead`` on the
12-configuration sweep: median overheads of +6.7% to +8.7% were measured
on a 2-vCPU host.  Reaching the 5% bound is an open target of ROADMAP
item 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DriftProbe", "OpDrift"]

#: Default: observe every 16th call per op.
SAMPLE_EVERY = 16
#: Default: compare at most 256 strided elements per observed call.
MAX_ELEMENTS = 256


@dataclass
class OpDrift:
    """Accumulated drift statistics of one op within one kernel run."""

    calls: int = 0  # imprecise dispatches seen (sampled or not)
    sampled_calls: int = 0
    observed: int = 0  # scalar results compared against the exact value
    nonzero: int = 0  # compared results with a non-zero relative error
    err_pct_sum: float = 0.0  # summed |ERR%| over observed results
    err_pct_max: float = 0.0
    bins: dict = field(default_factory=dict)  # ceil(log2 |ERR%|) -> count
    seconds: float = 0.0  # wall time of the unit calls
    elements: int = 0  # scalar results produced by the unit calls

    @property
    def mean_err_pct(self) -> float:
        return self.err_pct_sum / self.observed if self.observed else 0.0

    @property
    def error_rate(self) -> float:
        return self.nonzero / self.observed if self.observed else 0.0


class DriftProbe:
    """Per-op unit timings and sampled relative errors for one kernel run."""

    def __init__(self, sample_every: int = SAMPLE_EVERY,
                 max_elements: int = MAX_ELEMENTS):
        self.sample_every = sample_every
        self.max_elements = max_elements
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.max_elements < 1:
            raise ValueError(f"max_elements must be >= 1, got {self.max_elements}")
        self.ops: dict = {}

    def __bool__(self) -> bool:
        return bool(self.ops)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, op: str, approx, exact, seconds: float = 0.0) -> None:
        """Record one imprecise dispatch that took ``seconds``.

        ``exact`` is a zero-argument callable producing the float64 exact
        result — evaluated only when this call is sampled.
        """
        stats = self.ops.get(op)
        if stats is None:
            stats = self.ops[op] = OpDrift()
        stats.calls += 1
        stats.seconds += seconds
        stats.elements += np.size(approx)
        if (stats.calls - 1) % self.sample_every:
            return
        stats.sampled_calls += 1
        with np.errstate(all="ignore"):
            approx64 = np.asarray(approx, dtype=np.float64).ravel()
            exact64 = np.asarray(exact(), dtype=np.float64).ravel()
            if approx64.size > self.max_elements:
                stride = -(-approx64.size // self.max_elements)  # ceil div
                approx64 = approx64[::stride]
                exact64 = exact64[::stride]
            valid = np.isfinite(exact64) & np.isfinite(approx64) & (exact64 != 0)
            err_pct = (
                np.abs(approx64[valid] - exact64[valid])
                / np.abs(exact64[valid])
                * 100.0
            )
        stats.observed += int(valid.sum())
        if err_pct.size == 0:
            return
        nonzero = err_pct[err_pct > 0]
        stats.nonzero += int(nonzero.size)
        stats.err_pct_sum += float(err_pct.sum())
        if nonzero.size:
            stats.err_pct_max = max(stats.err_pct_max, float(nonzero.max()))
            labels, counts = np.unique(
                np.ceil(np.log2(nonzero)).astype(np.int64), return_counts=True
            )
            for label, count in zip(labels, counts):
                key = int(label)
                stats.bins[key] = stats.bins.get(key, 0) + int(count)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def flush_into(self, registry, kernel: str, backend: str) -> None:
        """Write the accumulated statistics into a metrics registry.

        Everything is expressed as counters (plus a max-aggregated gauge),
        so snapshots from worker processes and successive runs merge
        exactly; consumers derive the mean as ``sum / observed``.  The
        per-op timings are labeled with the executing ``backend``.
        """
        for op, stats in sorted(self.ops.items()):
            timing = {"kernel": kernel, "op": op, "backend": backend}
            registry.counter("repro_backend_op_seconds_total", **timing).inc(
                stats.seconds)
            registry.counter("repro_backend_op_calls_total", **timing).inc(
                stats.calls)
            registry.counter("repro_backend_op_elements_total", **timing).inc(
                stats.elements)
            labels = {"kernel": kernel, "op": op}
            registry.counter("repro_drift_calls_total", **labels).inc(stats.calls)
            registry.counter("repro_drift_sampled_calls_total", **labels).inc(
                stats.sampled_calls
            )
            registry.counter("repro_drift_observed_total", **labels).inc(
                stats.observed
            )
            registry.counter("repro_drift_nonzero_total", **labels).inc(
                stats.nonzero
            )
            registry.counter("repro_drift_err_pct_sum", **labels).inc(
                stats.err_pct_sum
            )
            registry.gauge("repro_drift_err_pct_max", agg="max", **labels).set(
                stats.err_pct_max
            )
            for bin_label, count in sorted(stats.bins.items()):
                registry.counter(
                    "repro_drift_err_pct_log2_bin_total",
                    **labels,
                    bin=str(bin_label),
                ).inc(count)
        self.ops = {}
