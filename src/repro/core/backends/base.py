"""Backend interface and the ``reference`` backend.

A :class:`ComputeBackend` executes the imprecise unit operations for an
:class:`~repro.core.context.ArithmeticContext`.  The base class *is* the
``reference`` backend: every method delegates to the original vectorized
NumPy unit in :mod:`repro.core`, which stays the single source of truth for
the paper's semantics.  The ``threaded`` backend and the fused kernels
its shards run (:class:`~repro.core.backends.fused.FusedBackend`)
override the hot methods with faster implementations and are contractually
bit-identical — the parity harness in :mod:`repro.core.backends.parity`
asserts exact equality on random and adversarial operand vectors, so
result-cache keys never depend on the backend choice.
"""

from __future__ import annotations

import numpy as np

from ..adder import DEFAULT_THRESHOLD, imprecise_add, imprecise_subtract
from ..configurable import MultiplierConfig, configurable_multiply
from ..fma import imprecise_fma
from ..multiplier import imprecise_multiply
from ..special import (
    imprecise_divide,
    imprecise_log2,
    imprecise_reciprocal,
    imprecise_rsqrt,
    imprecise_sqrt,
)
from ..truncation import truncated_multiply

__all__ = ["ComputeBackend", "ReferenceBackend"]


def _rounding_flags(rounding, n: int) -> list:
    """Normalize a shared-or-per-config rounding flag to ``n`` booleans."""
    if isinstance(rounding, (list, tuple)):
        if len(rounding) != n:
            raise ValueError(
                f"rounding sequence has {len(rounding)} entries for "
                f"{n} truncations"
            )
        return [bool(r) for r in rounding]
    return [bool(rounding)] * n


class ComputeBackend:
    """Executes the imprecise unit operations (reference implementation).

    Subclasses override individual methods; anything not overridden falls
    back to the reference NumPy unit, so a backend only has to accelerate
    the operations it cares about while keeping the full contract.

    Backends may hold per-instance state (scratch buffers); one instance
    belongs to one :class:`~repro.core.context.ArithmeticContext` and is
    not thread-safe.
    """

    #: Registry name of the backend.
    name = "reference"

    # ------------------------------------------------------------------
    # FPU ops
    # ------------------------------------------------------------------
    def imprecise_add(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        return imprecise_add(a, b, threshold=threshold, dtype=dtype)

    def imprecise_subtract(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                           dtype=np.float32) -> np.ndarray:
        return imprecise_subtract(a, b, threshold=threshold, dtype=dtype)

    def imprecise_multiply(self, a, b, dtype=np.float32) -> np.ndarray:
        return imprecise_multiply(a, b, dtype=dtype)

    def configurable_multiply(self, a, b, config: MultiplierConfig,
                              dtype=np.float32) -> np.ndarray:
        return configurable_multiply(a, b, config, dtype=dtype)

    def truncated_multiply(self, a, b, truncation: int = 0, dtype=np.float32,
                           rounding: bool = True) -> np.ndarray:
        return truncated_multiply(a, b, truncation, dtype=dtype,
                                  rounding=rounding)

    def imprecise_fma(self, a, b, c, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        return imprecise_fma(a, b, c, threshold=threshold, dtype=dtype)

    # ------------------------------------------------------------------
    # Per-config loops: one result array per configuration, in order
    # ------------------------------------------------------------------
    # Kept only because e2ebench/tracing.py wraps them by name; drop at the next bench change.

    def imprecise_add_batch(self, a, b, thresholds,
                            dtype=np.float32) -> list:
        """``a + b`` under each adder threshold."""
        return [
            self.imprecise_add(a, b, threshold=th, dtype=dtype)
            for th in thresholds
        ]

    def imprecise_subtract_batch(self, a, b, thresholds,
                                 dtype=np.float32) -> list:
        """``a - b`` under each adder threshold."""
        return [
            self.imprecise_subtract(a, b, threshold=th, dtype=dtype)
            for th in thresholds
        ]

    def imprecise_fma_batch(self, a, b, c, thresholds,
                            dtype=np.float32) -> list:
        """``a * b + c`` under each adder threshold."""
        return [
            self.imprecise_fma(a, b, c, threshold=th, dtype=dtype)
            for th in thresholds
        ]

    def configurable_multiply_batch(self, a, b, configs,
                                    dtype=np.float32) -> list:
        """``a * b`` under each :class:`MultiplierConfig`."""
        return [
            self.configurable_multiply(a, b, cfg, dtype=dtype)
            for cfg in configs
        ]

    def truncated_multiply_batch(self, a, b, truncations, dtype=np.float32,
                                 rounding=True) -> list:
        """``a * b`` under each ``bt_N`` truncation.

        ``rounding`` is one shared flag or a sequence aligned with
        ``truncations``.
        """
        roundings = _rounding_flags(rounding, len(list(truncations)))
        return [
            self.truncated_multiply(a, b, t, dtype=dtype, rounding=r)
            for t, r in zip(truncations, roundings)
        ]

    # ------------------------------------------------------------------
    # SFU ops (linear approximations; the quadratic extension dispatches
    # directly in the context and is not backend-routed)
    # ------------------------------------------------------------------
    def imprecise_reciprocal(self, x, dtype=np.float32) -> np.ndarray:
        return imprecise_reciprocal(x, dtype=dtype)

    def imprecise_rsqrt(self, x, dtype=np.float32) -> np.ndarray:
        return imprecise_rsqrt(x, dtype=dtype)

    def imprecise_sqrt(self, x, dtype=np.float32) -> np.ndarray:
        return imprecise_sqrt(x, dtype=dtype)

    def imprecise_log2(self, x, dtype=np.float32) -> np.ndarray:
        return imprecise_log2(x, dtype=dtype)

    def imprecise_divide(self, a, b, dtype=np.float32) -> np.ndarray:
        return imprecise_divide(a, b, dtype=dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class ReferenceBackend(ComputeBackend):
    """The original vectorized NumPy units, unchanged."""

    name = "reference"
