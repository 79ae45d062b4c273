"""Machine-speed probe: a fixed piece of the benchmark's own work, timed
between the program's operations.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over seconds to minutes, with CPU time equal to wall time:
the host runs the vCPUs slower, and medians over one run do not average
that out.  So every run times this probe between operations, never during
one, at least once a second, and scales each sample it reports by
``REFERENCE_S`` over the mean of the two probes nearest to it in time:
the figures read as seconds on a host running at the reference speed.
The speed changes within a run too, which is why each sample is scaled by
the probes around it and not the run by its median probe.  A change to the
program moves the operations but not the probe; a change in host speed
moves both.

The probe mixes what the workloads spend time on: numpy element-wise passes
over 64K-element float32/float64 arrays (``frexp``/``ldexp``, casts,
compares) and interpreter-bound dict work.  It never imports ``repro``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe time on an idle 2-vCPU x86-64 host (Python 3.11, numpy 2.4).
REFERENCE_S = 0.055
#: Least work time between two probes.
EVERY_S = 1.0
#: Probes nearest to a sample whose median (here: mean) gives its factor.
NEAREST = 2

_N = 1 << 16
_rng = np.random.default_rng(12345)
_F32 = _rng.random(_N, dtype=np.float32) + np.float32(0.5)
_F64 = _rng.random(_N)
# Preallocated outputs: the probe allocates no arrays, so its time does not
# depend on the state the program's own allocations left the heap in.
_X32 = np.empty(_N, dtype=np.float32)
_MANTISSA = np.empty(_N, dtype=np.float32)
_EXPONENT = np.empty(_N, dtype=np.int32)
_Y64 = np.empty(_N)
_Z64 = np.empty(_N)
_ABOVE = np.empty(_N, dtype=bool)


def _numpy_work() -> float:
    np.copyto(_X32, _F32)
    for _ in range(80):
        np.multiply(_X32, np.float32(1.25), out=_X32)
        np.add(_X32, np.float32(0.5), out=_X32)
        np.frexp(_X32, out=(_MANTISSA, _EXPONENT))
        np.subtract(_EXPONENT, 1, out=_EXPONENT)
        np.ldexp(_MANTISSA, _EXPONENT, out=_X32)
        np.add(_X32, _F64, out=_Y64)
        np.sqrt(_Y64, out=_Y64)
        np.greater(_Y64, 1.0, out=_ABOVE)
        np.multiply(_ABOVE, 0.75, out=_Z64)
        np.subtract(_Y64, _Z64, out=_Y64)
        np.add(_Y64, 0.25, out=_Y64)
        np.copyto(_X32, _Y64, casting="same_kind")
    return float(_X32[0])


def _python_work() -> int:
    table: dict = {}
    total = 0
    for i in range(240_000):
        key = i & 1023
        total += table.get(key, 0)
        table[key] = i
    return total


class SpeedProbe:
    """The probe times of one run, each with the moment it was taken."""

    def __init__(self):
        self.marks: list = []  # (perf_counter at the probe's middle, seconds)
        self.total_s = 0.0
        self._last = float("-inf")

    def now(self) -> None:
        start = time.perf_counter()
        _numpy_work()
        _python_work()
        self._last = time.perf_counter()
        took = self._last - start
        self.marks.append((start + took / 2, took))
        self.total_s += took

    def due(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe ended."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.now()

    def factor_at(self, at: float) -> float:
        """``REFERENCE_S`` over the median of the ``NEAREST`` probes taken
        closest to the moment ``at`` (1.0 when nothing was probed)."""
        if not self.marks:
            return 1.0
        nearest = sorted(self.marks, key=lambda mark: abs(mark[0] - at))
        return REFERENCE_S / statistics.median(
            took for _at, took in nearest[:NEAREST])

    def scaled_median(self, samples, per_second=False) -> float:
        """Median of ``(stamp, value)`` samples, each value (a duration, or a
        rate if ``per_second``) taken to the reference speed by the probes
        around its stamp."""
        if not samples:
            return 0.0
        return statistics.median(
            value / self.factor_at(at) if per_second
            else value * self.factor_at(at) for at, value in samples)
