"""Instrumented arithmetic context: the kernels' window onto the hardware.

The paper runs CUDA kernels on GPGPU-Sim with a knob that switches each
arithmetic unit between the precise and the imprecise functional model, while
GPUWattch collects per-operation performance counters.  In this reproduction
every application kernel routes its floating point arithmetic through an
:class:`ArithmeticContext`, which

- dispatches each operation to the IEEE-precise NumPy implementation or the
  corresponding imprecise unit according to its :class:`~repro.core.config.IHWConfig`,
- counts scalar operations per operation type (the performance counters
  consumed by :mod:`repro.gpu.power` and :mod:`repro.gpu.savings`),
- lets a kernel pin individual operations to the precise datapath
  (``precise=True``), as the CP study does for coordinate computations.

Operations and their executing unit class:

========  =======  =====================================
op        unit     precise implementation
========  =======  =====================================
add, sub  FPU      ``numpy.add`` / ``numpy.subtract``
mul, fma  FPU      ``numpy.multiply`` / mul+add
div       SFU      ``numpy.divide``
rcp       SFU      ``1 / x``
rsqrt     SFU      ``1 / sqrt(x)``
sqrt      SFU      ``numpy.sqrt``
log2      SFU      ``numpy.log2``
========  =======  =====================================
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from .backends import backend_accepts_threads, default_backend_name, \
    get_backend
from .config import IHWConfig
from .quadratic import (
    quadratic_log2,
    quadratic_reciprocal,
    quadratic_rsqrt,
    quadratic_sqrt,
)
from .floatops import flush_subnormals

__all__ = [
    "ArithmeticContext",
    "OP_UNIT_CLASS",
    "FPU_OPS",
    "SFU_OPS",
]

#: Unit class executing each counted operation.
OP_UNIT_CLASS = {
    "add": "FPU",
    "sub": "FPU",
    "mul": "FPU",
    "fma": "FPU",
    "div": "SFU",
    "rcp": "SFU",
    "rsqrt": "SFU",
    "sqrt": "SFU",
    "log2": "SFU",
}

FPU_OPS = tuple(op for op, cls in OP_UNIT_CLASS.items() if cls == "FPU")
SFU_OPS = tuple(op for op, cls in OP_UNIT_CLASS.items() if cls == "SFU")

#: Which IHWConfig unit switch governs each operation.
_OP_UNIT_SWITCH = {
    "add": "add",
    "sub": "add",
    "mul": "mul",
    "fma": "fma",
    "div": "div",
    "rcp": "rcp",
    "rsqrt": "rsqrt",
    "sqrt": "sqrt",
    "log2": "log2",
}


def _config_backend(config: IHWConfig):
    """Construct the backend a configuration selects.

    ``config.backend_threads`` reaches the factory only when the resolved
    backend actually has a thread pool, so a thread count riding along
    with a serial backend (or the default) is ignored rather than fatal.
    """
    name = config.backend if config.backend is not None \
        else default_backend_name()
    threads = config.backend_threads if backend_accepts_threads(name) \
        else None
    return get_backend(name, threads=threads)


class ArithmeticContext:
    """Counted, configuration-dispatched floating point arithmetic.

    Parameters
    ----------
    config:
        Which units run imprecisely.  Defaults to fully precise.
    dtype:
        ``numpy.float32`` (GPU benchmarks), ``numpy.float64`` (the SPEC CPU
        studies), or ``numpy.float16`` (the half-precision extension).
    backend:
        Compute backend executing the imprecise unit operations: a name, a
        :class:`~repro.core.backends.base.ComputeBackend` instance, or
        ``None`` to use ``config.backend`` / the ``REPRO_BACKEND``
        environment variable.  Backends are bit-identical, so this only
        changes execution speed, never results.
    """

    def __init__(self, config: IHWConfig | None = None, dtype=np.float32,
                 backend=None):
        self.config = config if config is not None else IHWConfig.precise()
        self.dtype = np.dtype(dtype)
        if self.dtype not in (
            np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64)
        ):
            raise TypeError(f"unsupported dtype: {self.dtype}")
        #: backend executing the imprecise unit operations (explicit argument
        #: wins over ``config.backend``, which wins over ``REPRO_BACKEND``);
        #: an explicit instance keeps its own thread count, otherwise
        #: ``config.backend_threads`` reaches the parallel factories
        if backend is not None:
            self.backend = get_backend(backend)
        else:
            self.backend = _config_backend(self.config)
        #: scalar-operation counts keyed by (op, "imprecise" | "precise")
        self.counts: Counter = Counter()
        #: optional :class:`~repro.telemetry.DriftProbe` observing imprecise
        #: results against their float64-exact value.  The probe never
        #: touches ``counts`` — the power model's inputs are identical with
        #: and without it.
        self.drift_probe = None
        #: optional :class:`~repro.telemetry.OpTimer` accumulating wall-clock
        #: time per imprecise operation.  Attached externally (like
        #: ``drift_probe``) so the core layer never imports telemetry.
        self.op_timer = None

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def _count(self, op: str, result, imprecise: bool):
        key = (op, "imprecise" if imprecise else "precise")
        # Innermost loop of every kernel: results are almost always ndarrays
        # already, so only wrap the rare scalar case.
        if isinstance(result, np.ndarray):
            self.counts[key] += result.size
        else:
            self.counts[key] += int(np.asarray(result).size)

    def reset_counts(self):
        """Clear the performance counters."""
        self.counts.clear()

    def op_counts(self) -> dict:
        """Total scalar operations per op name (precise + imprecise)."""
        totals: Counter = Counter()
        for (op, _), n in self.counts.items():
            totals[op] += n
        return dict(totals)

    def counts_by_class(self) -> dict:
        """Total scalar operations per unit class (``FPU`` / ``SFU``)."""
        totals: Counter = Counter()
        for (op, _), n in self.counts.items():
            totals[OP_UNIT_CLASS[op]] += n
        return dict(totals)

    def _use_imprecise(self, op: str, precise: bool) -> bool:
        return not precise and self.config.is_enabled(_OP_UNIT_SWITCH[op])

    def _timed(self, op: str, fn):
        """Run one imprecise unit op, feeding ``op_timer`` when attached."""
        timer = self.op_timer
        if timer is None:
            return fn()
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        if isinstance(out, np.ndarray):
            size = out.size
        else:
            size = int(np.asarray(out).size)
        timer.record(op, elapsed, size)
        return out

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def add(self, a, b, precise: bool = False):
        """``a + b``; imprecise threshold adder when the ``add`` unit is on."""
        if self._use_imprecise("add", precise):
            out = self._timed("add", lambda: self.backend.imprecise_add(
                a, b, self.config.adder_threshold, dtype=self.dtype))
            self._count("add", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "add", out, lambda: np.add(a, b, dtype=np.float64)
                )
        else:
            out = np.add(a, b, dtype=self.dtype)
            self._count("add", out, False)
        return out

    def sub(self, a, b, precise: bool = False):
        """``a - b``; shares the imprecise adder datapath."""
        if self._use_imprecise("sub", precise):
            out = self._timed("sub", lambda: self.backend.imprecise_subtract(
                a, b, self.config.adder_threshold, dtype=self.dtype))
            self._count("sub", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "sub", out, lambda: np.subtract(a, b, dtype=np.float64)
                )
        else:
            out = np.subtract(a, b, dtype=self.dtype)
            self._count("sub", out, False)
        return out

    def _imprecise_mul(self, a, b):
        mode = self.config.multiplier_mode
        if mode == "table1":
            return self.backend.imprecise_multiply(a, b, dtype=self.dtype)
        if mode == "mitchell":
            return self.backend.configurable_multiply(
                a, b, self.config.multiplier_config, dtype=self.dtype
            )
        return self.backend.truncated_multiply(
            a,
            b,
            self.config.multiplier_truncation,
            dtype=self.dtype,
            rounding=self.config.multiplier_bt_rounding,
        )

    def mul(self, a, b, precise: bool = False):
        """``a * b``; dispatches to the configured imprecise multiplier."""
        if self._use_imprecise("mul", precise):
            out = self._timed("mul", lambda: self._imprecise_mul(a, b))
            self._count("mul", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "mul", out, lambda: np.multiply(a, b, dtype=np.float64)
                )
        else:
            out = np.multiply(a, b, dtype=self.dtype)
            self._count("mul", out, False)
        return out

    def fma(self, a, b, c, precise: bool = False):
        """``a * b + c`` on the FMA unit."""
        if self._use_imprecise("fma", precise):
            out = self._timed("fma", lambda: self.backend.imprecise_fma(
                a, b, c, self.config.adder_threshold, dtype=self.dtype))
            self._count("fma", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "fma",
                    out,
                    lambda: np.add(
                        np.multiply(a, b, dtype=np.float64), c, dtype=np.float64
                    ),
                )
        else:
            out = np.add(np.multiply(a, b, dtype=self.dtype), c, dtype=self.dtype)
            self._count("fma", out, False)
        return out

    def _quadratic_divide(self, a, b):
        """``a * quadratic_rcp(b)`` — the quadratic-mode divider."""
        a = flush_subnormals(np.asarray(a, dtype=self.dtype))
        rcp = quadratic_reciprocal(b, dtype=self.dtype)
        with np.errstate(invalid="ignore"):
            result = a.astype(np.float64) * rcp.astype(np.float64)
        return flush_subnormals(result.astype(self.dtype))

    def div(self, a, b, precise: bool = False):
        """``a / b`` on the SFU divider."""
        if self._use_imprecise("div", precise):
            if self.config.sfu_mode == "quadratic":
                out = self._timed("div", lambda: self._quadratic_divide(a, b))
            else:
                out = self._timed("div", lambda: self.backend.imprecise_divide(
                    a, b, dtype=self.dtype))
            self._count("div", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "div", out, lambda: np.divide(a, b, dtype=np.float64)
                )
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.divide(a, b, dtype=self.dtype)
            self._count("div", out, False)
        return out

    def rcp(self, x, precise: bool = False):
        """``1 / x`` on the SFU."""
        if self._use_imprecise("rcp", precise):
            if self.config.sfu_mode == "quadratic":
                out = self._timed("rcp", lambda: quadratic_reciprocal(
                    x, dtype=self.dtype))
            else:
                out = self._timed(
                    "rcp",
                    lambda: self.backend.imprecise_reciprocal(x, dtype=self.dtype),
                )
            self._count("rcp", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "rcp", out, lambda: 1.0 / np.asarray(x, dtype=np.float64)
                )
        else:
            with np.errstate(divide="ignore"):
                out = np.divide(np.array(1.0, self.dtype), x, dtype=self.dtype)
            self._count("rcp", out, False)
        return out

    def rsqrt(self, x, precise: bool = False):
        """``1 / sqrt(x)`` on the SFU."""
        if self._use_imprecise("rsqrt", precise):
            if self.config.sfu_mode == "quadratic":
                out = self._timed("rsqrt", lambda: quadratic_rsqrt(
                    x, dtype=self.dtype))
            else:
                out = self._timed(
                    "rsqrt",
                    lambda: self.backend.imprecise_rsqrt(x, dtype=self.dtype),
                )
            self._count("rsqrt", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "rsqrt",
                    out,
                    lambda: 1.0 / np.sqrt(np.asarray(x, dtype=np.float64)),
                )
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.divide(
                    np.array(1.0, self.dtype), np.sqrt(x, dtype=self.dtype), dtype=self.dtype
                )
            self._count("rsqrt", out, False)
        return out

    def sqrt(self, x, precise: bool = False):
        """``sqrt(x)`` on the SFU."""
        if self._use_imprecise("sqrt", precise):
            if self.config.sfu_mode == "quadratic":
                out = self._timed("sqrt", lambda: quadratic_sqrt(
                    x, dtype=self.dtype))
            else:
                out = self._timed(
                    "sqrt",
                    lambda: self.backend.imprecise_sqrt(x, dtype=self.dtype),
                )
            self._count("sqrt", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "sqrt", out, lambda: np.sqrt(np.asarray(x, dtype=np.float64))
                )
        else:
            with np.errstate(invalid="ignore"):
                out = np.sqrt(x, dtype=self.dtype)
            self._count("sqrt", out, False)
        return out

    def log2(self, x, precise: bool = False):
        """``log2(x)`` on the SFU."""
        if self._use_imprecise("log2", precise):
            if self.config.sfu_mode == "quadratic":
                out = self._timed("log2", lambda: quadratic_log2(
                    x, dtype=self.dtype))
            else:
                out = self._timed(
                    "log2",
                    lambda: self.backend.imprecise_log2(x, dtype=self.dtype),
                )
            self._count("log2", out, True)
            if self.drift_probe is not None:
                self.drift_probe.observe(
                    "log2", out, lambda: np.log2(np.asarray(x, dtype=np.float64))
                )
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.log2(x, dtype=self.dtype)
            self._count("log2", out, False)
        return out

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def array(self, values):
        """Convert ``values`` to this context's dtype (not counted)."""
        return np.asarray(values, dtype=self.dtype)

    def dot3(self, ax, ay, az, bx, by, bz, precise: bool = False):
        """3-component dot product (3 muls + 2 adds), as ray tracers use."""
        return self.add(
            self.add(self.mul(ax, bx, precise), self.mul(ay, by, precise), precise),
            self.mul(az, bz, precise),
            precise,
        )

