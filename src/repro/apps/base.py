"""Shared structure of the benchmark applications.

Every application in :mod:`repro.apps` follows the same contract: a
``run(config=..., **params)`` function executes the numerical kernel with
all floating point arithmetic routed through an instrumented
:class:`~repro.core.ArithmeticContext` and returns an :class:`AppResult`
bundling the output, the performance counters, and the context, so the
framework can compare precise and imprecise executions and feed the power
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import telemetry
from repro.core import ArithmeticContext, IHWConfig
from repro.gpu import KernelCounters

__all__ = ["AppResult", "make_context", "finish"]


@dataclass
class AppResult:
    """Output and counters of one application execution."""

    name: str
    output: Any
    counters: KernelCounters
    extras: dict | None = None

    @property
    def op_counts(self) -> dict:
        return self.counters.op_counts()

    @property
    def fp_mul_count(self) -> int:
        """Floating point multiplications executed (the Table-6 column)."""
        return self.counters.op_count("mul") + self.counters.op_count("fma")


def make_context(config: IHWConfig | None, dtype=np.float32) -> ArithmeticContext:
    """Context with the given configuration (precise when ``config`` is None).

    When telemetry is enabled (``REPRO_TELEMETRY=metrics|trace``) imprecise
    runs get a numeric-drift probe attached, which also times each
    imprecise op; the precise reference never does (its drift is zero by
    construction).
    """
    ctx = ArithmeticContext(
        config if config is not None else IHWConfig.precise(), dtype=dtype
    )
    if config is not None:
        ctx.drift_probe = telemetry.make_drift_probe()
    return ctx


def finish(
    name: str,
    output,
    ctx: ArithmeticContext,
    int_ops: int = 0,
    mem_ops: int = 0,
    ctrl_ops: int = 0,
    threads: int = 0,
    extras: dict | None = None,
) -> AppResult:
    """Package a finished kernel execution into an :class:`AppResult`."""
    counters = KernelCounters.from_context(
        ctx,
        name=name,
        int_ops=int_ops,
        mem_ops=mem_ops,
        ctrl_ops=ctrl_ops,
        threads=threads,
    )
    telemetry.record_kernel(name, ctx)
    return AppResult(name=name, output=output, counters=counters, extras=extras or {})
