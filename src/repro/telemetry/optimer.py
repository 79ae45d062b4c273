"""Per-operation wall-clock accumulation for compute backends.

An :class:`OpTimer` is attached to an
:class:`~repro.core.context.ArithmeticContext` by the apps layer (like the
drift probe — the core layer never imports telemetry) and accumulates wall
time, call counts, and element counts per imprecise operation.  At kernel
finish, :func:`repro.telemetry.record_kernel` folds the totals into the
metrics registry labeled with the executing backend, which is what makes
``reference`` vs ``threaded`` throughput visible in ``repro metrics``.
"""

from __future__ import annotations

__all__ = ["OpTimer"]


class OpTimer:
    """Accumulates ``[seconds, calls, elements]`` per operation name."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: dict = {}

    def record(self, op: str, seconds: float, elements: int) -> None:
        entry = self.ops.get(op)
        if entry is None:
            self.ops[op] = [seconds, 1, elements]
        else:
            entry[0] += seconds
            entry[1] += 1
            entry[2] += elements

    def __bool__(self) -> bool:
        return bool(self.ops)

    def flush_into(self, registry, kernel: str, backend: str) -> None:
        """Fold the accumulated timings into ``registry`` and clear."""
        for op, (seconds, calls, elements) in self.ops.items():
            labels = {"kernel": kernel, "op": op, "backend": backend}
            registry.counter("repro_backend_op_seconds_total", **labels).inc(
                seconds
            )
            registry.counter("repro_backend_op_calls_total", **labels).inc(
                calls
            )
            registry.counter("repro_backend_op_elements_total", **labels).inc(
                elements
            )
        self.ops.clear()
