"""Quasi-Monte-Carlo error characterization of the imprecise units.

Reproduces the Figure 8 / Figure 9 probability mass functions: for each
imprecise unit, relative error magnitudes are collected over a large
low-discrepancy input sweep and binned at

    x = ceil(log2 |ERR%|)

so a bar at ``x = -2`` is the probability that the error percentage falls in
``(2^-3, 2^-2]``.  The sum of all bars is the unit's error rate.

The paper uses 200 million inputs; the default here is 2e5 (the PMFs are
visually converged well before that thanks to the low-discrepancy sweep) and
every entry point takes ``n_samples`` for full-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core import MultiplierConfig
from repro.core.backends import get_backend

from .metrics import ErrorStats, error_stats
from .quasirandom import mantissa_inputs

__all__ = [
    "ErrorPMF",
    "bin_errors",
    "characterize",
    "characterize_unit",
    "characterize_units",
    "characterize_multiplier_config",
    "characterize_multiplier_configs",
    "UNIT_CHARACTERIZATIONS",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 200_000


@dataclass(frozen=True)
class ErrorPMF:
    """Binned error distribution of one unit configuration (one Fig-8 panel).

    ``bins[i]`` is the ``ceil(log2 |ERR%|)`` bin label and
    ``probabilities[i]`` the fraction of inputs landing in it.  Exact results
    (zero error) are not binned; their share is ``1 - probabilities.sum()``.
    """

    label: str
    bins: np.ndarray
    probabilities: np.ndarray
    stats: ErrorStats

    @property
    def error_rate(self) -> float:
        """Total probability of a non-zero error (the sum of all bars)."""
        return float(self.probabilities.sum())

    def probability_above(self, err_percent: float) -> float:
        """Probability that the error percentage exceeds ``err_percent``."""
        if err_percent <= 0:
            return self.error_rate
        threshold = np.log2(err_percent)
        # A bin labeled x covers errors in (2^(x-1), 2^x]%: the whole bin
        # exceeds err_percent iff x - 1 >= log2(err_percent).
        mask = self.bins - 1 >= threshold
        return float(self.probabilities[mask].sum())

    def dominant_bin(self) -> int:
        """Bin label carrying the highest probability mass."""
        return int(self.bins[np.argmax(self.probabilities)])

    def format_rows(self) -> str:
        """Text rendering of the PMF (one row per bar)."""
        lines = [f"{self.label}: error rate {self.error_rate:.4f}"]
        for b, p in zip(self.bins, self.probabilities):
            lines.append(f"  2^{int(b):+d} %  p={p:.4f} {'#' * int(round(p * 60))}")
        return "\n".join(lines)


def bin_errors(rel_errors: np.ndarray) -> tuple:
    """Bin relative error magnitudes at ``ceil(log2 |ERR%|)``.

    Returns ``(bins, counts)`` over the non-zero errors only.
    """
    rel = np.asarray(rel_errors, dtype=np.float64)
    rel = rel[np.isfinite(rel) & (rel > 0)]
    if rel.size == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    labels = np.ceil(np.log2(rel * 100.0)).astype(np.int64)
    bins, counts = np.unique(labels, return_counts=True)
    return bins, counts


def characterize(approx, exact, label: str = "") -> ErrorPMF:
    """Build an :class:`ErrorPMF` from paired approximate/exact results."""
    approx = np.asarray(approx, dtype=np.float64).ravel()
    exact = np.asarray(exact, dtype=np.float64).ravel()
    valid = np.isfinite(exact) & np.isfinite(approx) & (exact != 0)
    rel = np.abs(approx[valid] - exact[valid]) / np.abs(exact[valid])
    bins, counts = bin_errors(rel)
    total = max(int(valid.sum()), 1)
    return ErrorPMF(
        label=label,
        bins=bins,
        probabilities=counts / total,
        stats=error_stats(approx[valid], exact[valid]),
    )


def _on_default_backend(op: str):
    """Module-level unit function running ``op`` on the default backend.

    The drivers below call the units through these module attributes, so
    ``REPRO_BACKEND`` (or its default) picks the engine, and a wrapper
    installed on a name sees every call.
    """
    def unit(*args, **kwargs):
        return getattr(get_backend(), op)(*args, **kwargs)

    unit.__name__ = unit.__qualname__ = op
    return unit


imprecise_add = _on_default_backend("imprecise_add")
imprecise_multiply = _on_default_backend("imprecise_multiply")
imprecise_divide = _on_default_backend("imprecise_divide")
imprecise_reciprocal = _on_default_backend("imprecise_reciprocal")
imprecise_rsqrt = _on_default_backend("imprecise_rsqrt")
imprecise_sqrt = _on_default_backend("imprecise_sqrt")
imprecise_log2 = _on_default_backend("imprecise_log2")
imprecise_fma = _on_default_backend("imprecise_fma")
configurable_multiply = _on_default_backend("configurable_multiply")
truncated_multiply = _on_default_backend("truncated_multiply")


# ----------------------------------------------------------------------
# Figure 8: the Table-1 unit set
# ----------------------------------------------------------------------
def _char_fpadd(n, seed, dtype, threshold=8):
    a, b = mantissa_inputs(n, 2, exponent_range=(-8, 8), seed=seed, dtype=dtype)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(dtype)
    b = b * sign  # exercise both effective operations
    return imprecise_add(a, b, threshold=threshold, dtype=dtype), (
        a.astype(np.float64) + b.astype(np.float64)
    )


def _char_fpmul(n, seed, dtype):
    a, b = mantissa_inputs(n, 2, seed=seed, dtype=dtype)
    return imprecise_multiply(a, b, dtype=dtype), a.astype(np.float64) * b.astype(
        np.float64
    )


def _char_fpdiv(n, seed, dtype):
    a, b = mantissa_inputs(n, 2, seed=seed, dtype=dtype)
    return imprecise_divide(a, b, dtype=dtype), a.astype(np.float64) / b.astype(
        np.float64
    )


def _char_rcp(n, seed, dtype):
    (x,) = mantissa_inputs(n, 1, seed=seed, dtype=dtype)
    return imprecise_reciprocal(x, dtype=dtype), 1.0 / x.astype(np.float64)


def _char_rsqrt(n, seed, dtype):
    (x,) = mantissa_inputs(n, 1, seed=seed, dtype=dtype)
    return imprecise_rsqrt(x, dtype=dtype), 1.0 / np.sqrt(x.astype(np.float64))


def _char_sqrt(n, seed, dtype):
    (x,) = mantissa_inputs(n, 1, seed=seed, dtype=dtype)
    return imprecise_sqrt(x, dtype=dtype), np.sqrt(x.astype(np.float64))


def _char_log2(n, seed, dtype):
    (x,) = mantissa_inputs(n, 1, exponent_range=(-8, 8), seed=seed, dtype=dtype)
    return imprecise_log2(x, dtype=dtype), np.log2(x.astype(np.float64))


def _char_fma(n, seed, dtype):
    a, b, c = mantissa_inputs(n, 3, seed=seed, dtype=dtype)
    exact = a.astype(np.float64) * b.astype(np.float64) + c.astype(np.float64)
    return imprecise_fma(a, b, c, dtype=dtype), exact


#: Figure-8 panels: unit name -> characterization driver.
UNIT_CHARACTERIZATIONS = {
    "ifpadd": _char_fpadd,
    "ifpmul": _char_fpmul,
    "ifpdiv": _char_fpdiv,
    "ircp": _char_rcp,
    "irsqrt": _char_rsqrt,
    "isqrt": _char_sqrt,
    "ilog2": _char_log2,
    "ifma": _char_fma,
}


def characterize_unit(
    name: str, n_samples: int = DEFAULT_SAMPLES, seed: int = 0, dtype=np.float32
) -> ErrorPMF:
    """Characterize one Table-1 unit by name (Figure 8)."""
    try:
        driver = UNIT_CHARACTERIZATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown unit {name!r}; expected one of {sorted(UNIT_CHARACTERIZATIONS)}"
        ) from None
    with telemetry.span("characterize", unit=name, samples=n_samples):
        approx, exact = driver(n_samples, seed, dtype)
        pmf = characterize(approx, exact, label=name)
    telemetry.counter_inc("repro_characterizations_total", kind="unit",
                          unit=name)
    telemetry.counter_inc("repro_characterization_samples_total", n_samples,
                          kind="unit", unit=name)
    return pmf


def characterize_units(
    names=None,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dtype=np.float32,
) -> dict:
    """Characterize several Table-1 units (default: every Figure-8 panel)."""
    names = list(names) if names is not None else sorted(UNIT_CHARACTERIZATIONS)
    unknown = [n for n in names if n not in UNIT_CHARACTERIZATIONS]
    if unknown:
        raise ValueError(
            f"unknown units {unknown}; expected from {sorted(UNIT_CHARACTERIZATIONS)}"
        )
    return {name: characterize_unit(name, n_samples, seed, dtype) for name in names}


def characterize_multiplier_configs(
    configs,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dtype=np.float32,
) -> dict:
    """Characterize several multiplier configurations (Figure-9 sweep).

    ``configs`` holds :class:`~repro.core.MultiplierConfig` objects or
    paper-style names (``"lp_tr19"``, ``"bt_21"``); the result maps each
    configuration's label to its PMF.
    """
    pmfs = (
        characterize_multiplier_config(cfg, n_samples, seed, dtype)
        for cfg in configs
    )
    return {pmf.label: pmf for pmf in pmfs}


def characterize_multiplier_config(
    config, n_samples: int = DEFAULT_SAMPLES, seed: int = 0, dtype=np.float32
) -> ErrorPMF:
    """Characterize one configurable-multiplier configuration (Figure 9).

    ``config`` is a :class:`~repro.core.MultiplierConfig`, a paper-style name
    (``"lp_tr19"``), or ``"bt_N"`` for the intuitive truncation baseline.
    """
    with telemetry.span("characterize", multiplier=str(config),
                        samples=n_samples):
        a, b = mantissa_inputs(n_samples, 2, seed=seed, dtype=dtype)
        exact = a.astype(np.float64) * b.astype(np.float64)
        if isinstance(config, str) and config.startswith("bt_"):
            truncation = int(config[3:])
            approx = truncated_multiply(a, b, truncation, dtype=dtype)
            label = config
        else:
            if isinstance(config, str):
                config = MultiplierConfig.from_name(config)
            approx = configurable_multiply(a, b, config, dtype=dtype)
            label = config.name
        pmf = characterize(approx, exact, label=label)
    telemetry.counter_inc("repro_characterizations_total", kind="multiplier",
                          unit=label)
    telemetry.counter_inc("repro_characterization_samples_total", n_samples,
                          kind="multiplier", unit=label)
    return pmf
