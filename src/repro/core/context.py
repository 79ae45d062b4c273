"""Instrumented arithmetic context: the kernels' window onto the hardware.

The paper runs CUDA kernels on GPGPU-Sim with a knob that switches each
arithmetic unit between the precise and the imprecise functional model, while
GPUWattch collects per-operation performance counters.  In this reproduction
every application kernel routes its floating point arithmetic through an
:class:`ArithmeticContext`, which

- dispatches each operation to the IEEE-precise NumPy implementation or the
  corresponding imprecise unit according to its :class:`~repro.core.config.IHWConfig`
  (the ``{op: unit}`` table is resolved once, when the context is built),
- counts scalar operations per operation type (the performance counters
  consumed by :mod:`repro.gpu.power` and :mod:`repro.gpu.savings`),
- lets a kernel pin individual operations to the precise datapath
  (``precise=True``), as the CP study does for coordinate computations,
- times each imprecise operation and hands its result to an attached
  drift probe (:class:`~repro.telemetry.DriftProbe`), the one per-op
  observer.

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
from functools import partial

import numpy as np

from .backends import backend_accepts_threads, default_backend_name, \
    get_backend
from .config import IHWConfig
from .quadratic import (
    quadratic_divide,
    quadratic_log2,
    quadratic_reciprocal,
    quadratic_rsqrt,
    quadratic_sqrt,
)

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


def _ignoring(fn, **errstate):
    """``fn`` run under ``numpy.errstate(**errstate)``."""
    def run(*args, **kwargs):
        with np.errstate(**errstate):
            return fn(*args, **kwargs)
    return run


#: IEEE-precise implementation of each op, called as
#: ``fn(*operands, dtype=dtype)``.  Only the SFU ops silence the warnings
#: their domain edges raise.
_PRECISE = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "fma": lambda a, b, c, dtype: np.add(
        np.multiply(a, b, dtype=dtype), c, dtype=dtype),
    "div": _ignoring(np.divide, divide="ignore", invalid="ignore"),
    "rcp": _ignoring(lambda x, dtype: np.divide(
        np.array(1.0, dtype), x, dtype=dtype), divide="ignore"),
    "rsqrt": _ignoring(lambda x, dtype: np.divide(
        np.array(1.0, dtype), np.sqrt(x, dtype=dtype), dtype=dtype),
        divide="ignore", invalid="ignore"),
    "sqrt": _ignoring(np.sqrt, invalid="ignore"),
    "log2": _ignoring(np.log2, divide="ignore", invalid="ignore"),
}

#: Float64-exact value of each op: the drift probe's reference.
_EXACT = {
    "add": lambda a, b: np.add(a, b, dtype=np.float64),
    "sub": lambda a, b: np.subtract(a, b, dtype=np.float64),
    "mul": lambda a, b: np.multiply(a, b, dtype=np.float64),
    "fma": lambda a, b, c: np.add(
        np.multiply(a, b, dtype=np.float64), c, dtype=np.float64),
    "div": lambda a, b: np.divide(a, b, dtype=np.float64),
    "rcp": lambda x: 1.0 / np.asarray(x, dtype=np.float64),
    "rsqrt": lambda x: 1.0 / np.sqrt(np.asarray(x, dtype=np.float64)),
    "sqrt": lambda x: np.sqrt(np.asarray(x, dtype=np.float64)),
    "log2": lambda x: np.log2(np.asarray(x, dtype=np.float64)),
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
        environment variable / the ``threaded`` default.  Backends are
        bit-identical, so this only changes execution speed, never
        results.
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
        #: optional :class:`~repro.telemetry.DriftProbe` timing each imprecise
        #: op and observing its result against the float64-exact value.
        #: Attached externally so the core layer never imports telemetry;
        #: it never touches ``counts`` — the power model's inputs are
        #: identical with and without it.
        self.drift_probe = None
        #: imprecise unit of each op the configuration enables
        self._units = self._unit_table()

    def _unit_table(self) -> dict:
        """``{op: callable}`` for every op whose unit runs imprecisely.

        Backend methods are looked up on the instance here, so wrappers
        installed on the backend class before construction see the calls.
        """
        config, backend, dtype = self.config, self.backend, self.dtype
        threshold = config.adder_threshold
        if config.multiplier_mode == "table1":
            mul = partial(backend.imprecise_multiply, dtype=dtype)
        elif config.multiplier_mode == "mitchell":
            mul = partial(backend.configurable_multiply,
                          config=config.multiplier_config, dtype=dtype)
        else:
            mul = partial(backend.truncated_multiply,
                          truncation=config.multiplier_truncation,
                          dtype=dtype,
                          rounding=config.multiplier_bt_rounding)
        if config.sfu_mode == "quadratic":
            sfus = {"div": quadratic_divide, "rcp": quadratic_reciprocal,
                    "rsqrt": quadratic_rsqrt, "sqrt": quadratic_sqrt,
                    "log2": quadratic_log2}
        else:
            sfus = {"div": backend.imprecise_divide,
                    "rcp": backend.imprecise_reciprocal,
                    "rsqrt": backend.imprecise_rsqrt,
                    "sqrt": backend.imprecise_sqrt,
                    "log2": backend.imprecise_log2}
        units = {
            "add": partial(backend.imprecise_add, threshold=threshold,
                           dtype=dtype),
            "sub": partial(backend.imprecise_subtract, threshold=threshold,
                           dtype=dtype),
            "mul": mul,
            "fma": partial(backend.imprecise_fma, threshold=threshold,
                           dtype=dtype),
        }
        units.update((op, partial(fn, dtype=dtype)) for op, fn in sfus.items())
        return {op: fn for op, fn in units.items()
                if config.is_enabled(_OP_UNIT_SWITCH[op])}

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _run(self, op: str, precise: bool, operands: tuple):
        """Run ``op`` on its imprecise unit when enabled, else precisely.

        Counts the result's scalar operations; with a drift probe
        attached, also times the unit call and hands the probe the
        float64-exact function and the operands.
        """
        unit = None if precise else self._units.get(op)
        if unit is None:
            out = _PRECISE[op](*operands, dtype=self.dtype)
            path = "precise"
        else:
            probe = self.drift_probe
            if probe is None:
                out = unit(*operands)
            else:
                start = time.perf_counter()
                out = unit(*operands)
                probe.observe(op, out, _EXACT[op],
                              time.perf_counter() - start, operands)
            path = "imprecise"
        # Innermost loop of every kernel: results are almost always ndarrays
        # already, so only wrap the rare scalar case.
        size = out.size if isinstance(out, np.ndarray) else np.asarray(out).size
        self.counts[(op, path)] += size
        return out

    def add(self, a, b, precise: bool = False):
        """``a + b``; imprecise threshold adder when the ``add`` unit is on."""
        return self._run("add", precise, (a, b))

    def sub(self, a, b, precise: bool = False):
        """``a - b``; shares the imprecise adder datapath."""
        return self._run("sub", precise, (a, b))

    def mul(self, a, b, precise: bool = False):
        """``a * b``; dispatches to the configured imprecise multiplier."""
        return self._run("mul", precise, (a, b))

    def fma(self, a, b, c, precise: bool = False):
        """``a * b + c`` on the FMA unit."""
        return self._run("fma", precise, (a, b, c))

    def div(self, a, b, precise: bool = False):
        """``a / b`` on the SFU divider."""
        return self._run("div", precise, (a, b))

    def rcp(self, x, precise: bool = False):
        """``1 / x`` on the SFU."""
        return self._run("rcp", precise, (x,))

    def rsqrt(self, x, precise: bool = False):
        """``1 / sqrt(x)`` on the SFU."""
        return self._run("rsqrt", precise, (x,))

    def sqrt(self, x, precise: bool = False):
        """``sqrt(x)`` on the SFU."""
        return self._run("sqrt", precise, (x,))

    def log2(self, x, precise: bool = False):
        """``log2(x)`` on the SFU."""
        return self._run("log2", precise, (x,))

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

