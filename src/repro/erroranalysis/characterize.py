"""Quasi-Monte-Carlo error characterization of the imprecise units.

Reproduces the Figure 8 / Figure 9 probability mass functions: for each
imprecise unit, relative error magnitudes are collected over a large
low-discrepancy input sweep and binned at

    x = ceil(log2 |ERR%|)

so a bar at ``x = -2`` is the probability that the error percentage falls in
``(2^-3, 2^-2]``.  The sum of all bars is the unit's error rate.

The paper uses 200 million inputs; the default here is 2e5 (the PMFs are
visually converged well before that thanks to the low-discrepancy sweep) and
every entry point takes ``n_samples`` for full-scale runs.  The sweep
streams in blocks of :data:`CHUNK_SAMPLES` inputs:

- units that read the same input set (same operand count and exponent
  range) share it: one Sobol sequence per set is drawn block by block, and
  each block's operands, and the float64 exact product the multipliers
  share, are computed once for every unit that reads them;
- each configuration's error pass runs once per block, and its bin counts
  and statistics are merged across blocks.

Memory is bounded by the block, not by ``n_samples``, so the paper's
sample count (``n_samples=2**27``) runs in the memory of the default one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from repro import telemetry
from repro.core import MultiplierConfig
from repro.core.backends import get_backend

from .metrics import ErrorStats
from .quasirandom import mantissa_operands, sobol_chunks

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

#: Inputs per streamed block.  It equals the threaded backend's tile floor
#: (``MIN_TILE_ELEMENTS``): a default-size pass makes the same unit calls
#: it made unstreamed, and a larger one repeats them block by block.
CHUNK_SAMPLES = 1 << 18


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
    return _count_labels(rel[np.isfinite(rel) & (rel > 0)])


def _count_labels(rel: np.ndarray) -> tuple:
    """``(bins, counts)`` of finite, positive relative errors."""
    if rel.size == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    labels = rel * 100.0
    np.log2(labels, out=labels)
    np.ceil(labels, out=labels)
    low = labels.min()
    labels -= low
    counts = np.bincount(labels.astype(np.intp))
    (present,) = np.nonzero(counts)
    return present.astype(np.int64) + np.int64(low), counts[present].astype(np.int64)


class _ErrorTally:
    """One configuration's error pass, merged block by block.

    Each block's relative errors are computed once and feed both the bins
    and every :class:`ErrorStats` field.  Bin counts, sample and error
    counts, ``eps_max`` and ``wed`` merge exactly.  ``eps_mean`` and
    ``med`` divide the correctly rounded sum (``math.fsum``) of the
    blocks' NumPy sums by the sample count: with one block that is
    ``ndarray.mean()`` bit for bit, and over several it differs from a
    one-shot mean only by NumPy's pairwise-summation rounding (a relative
    difference below 1e-13).
    """

    def __init__(self):
        self.bins = Counter()
        self.samples = 0
        self.errors = 0
        self.rel_sums = []
        self.distance_sums = []
        self.eps_max = self.wed = -math.inf

    def add(self, approx, exact) -> None:
        approx = np.ravel(approx)
        exact = np.asarray(exact, dtype=np.float64).ravel()
        if exact.size == 0:
            return
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            distance = np.subtract(approx, exact, dtype=np.float64)
            np.abs(distance, out=distance)
            rel = distance / exact
            np.abs(rel, out=rel)
            peak = rel.max()
            # Only a pair with a zero or non-finite operand, or an
            # overflowing error, makes ``rel`` non-finite.
            if not np.isfinite(peak):
                valid = np.isfinite(exact) & np.isfinite(approx) & (exact != 0)
                distance, rel = distance[valid], rel[valid]
                if rel.size == 0:
                    return
                peak = rel.max()
        # A non-zero distance never underflows to a zero relative error.
        positive = rel > 0
        errors = np.count_nonzero(positive)
        if np.isfinite(peak):
            binned = rel if errors == rel.size else rel[positive]
        else:  # overflowed errors count as errors but have no bin
            binned = rel[positive & np.isfinite(rel)]
        bins, counts = _count_labels(binned)
        self.bins.update(dict(zip(bins.tolist(), counts.tolist())))
        self.samples += rel.size
        self.errors += errors
        self.rel_sums.append(float(rel.sum()))
        self.distance_sums.append(float(distance.sum()))
        self.eps_max = max(self.eps_max, float(peak))
        self.wed = max(self.wed, float(distance.max()))

    def pmf(self, label: str) -> ErrorPMF:
        if not self.samples:
            raise ValueError("no finite sample pairs to evaluate")
        bins = sorted(self.bins)
        counts = np.array([self.bins[b] for b in bins], dtype=np.int64)
        return ErrorPMF(
            label=label,
            bins=np.array(bins, dtype=np.int64),
            probabilities=counts / self.samples,
            stats=ErrorStats(
                eps_max=self.eps_max,
                eps_mean=math.fsum(self.rel_sums) / self.samples,
                error_rate=self.errors / self.samples,
                med=math.fsum(self.distance_sums) / self.samples,
                wed=self.wed,
                samples=self.samples,
            ),
        )


def characterize(approx, exact, label: str = "") -> ErrorPMF:
    """Build an :class:`ErrorPMF` from paired approximate/exact results.

    Pairs with a zero or non-finite exact value, or a non-finite
    approximation, are left out; :class:`ValueError` if none remain.
    """
    tally = _ErrorTally()
    tally.add(approx, exact)
    return tally.pmf(label)


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
# Streaming over shared inputs
# ----------------------------------------------------------------------
class _Block:
    """One streamed block of an input set's operands."""

    def __init__(self, operands: tuple):
        self.operands = operands

    @cached_property
    def product(self) -> np.ndarray:
        """Exact product of the first two operands, computed once per block."""
        a, b = self.operands
        return a.astype(np.float64) * b.astype(np.float64)


def _stream(kind, jobs, dims, exponent_range, n_samples, seed, dtype) -> dict:
    """``{label: ErrorPMF}`` over one input set, streamed block by block.

    ``jobs`` maps each label to ``run``; ``run(block)`` returns one block's
    ``(approx, exact)``.  Only the current block is held.  ``kind`` is the
    span attribute and counter label naming the configuration.
    """
    tallies = {label: _ErrorTally() for label in jobs}
    for points in sobol_chunks(n_samples, 2 * dims, seed, CHUNK_SAMPLES):
        block = _Block(mantissa_operands(points, exponent_range, dtype))
        del points
        samples = len(block.operands[0])
        for label, run in jobs.items():
            with telemetry.span("characterize", samples=samples, **{kind: label}):
                tallies[label].add(*run(block))
    pmfs = {}
    for label, tally in tallies.items():
        pmfs[label] = tally.pmf(label)
        telemetry.counter_inc("repro_characterizations_total", kind=kind,
                              unit=label)
        telemetry.counter_inc("repro_characterization_samples_total", n_samples,
                              kind=kind, unit=label)
    return pmfs


# ----------------------------------------------------------------------
# Figure 8: the Table-1 unit set
# ----------------------------------------------------------------------
class _Panel(NamedTuple):
    """A Figure-8 unit: the input set it reads and its per-block driver."""

    dims: int
    exponent_range: tuple
    run: Callable  # run(block, dtype) -> (approx, exact)


# Each driver calls its unit before it builds its own exact result, so
# that float64 temporary is not held across the unit call.
def _char_fpadd(block, dtype, threshold=8):
    a, b = block.operands
    # Blocks start at even offsets, so this parity is the sweep's own.
    sign = np.where(np.arange(a.size) % 2 == 0, 1.0, -1.0).astype(dtype)
    b = b * sign  # exercise both effective operations
    return imprecise_add(a, b, threshold=threshold, dtype=dtype), (
        a.astype(np.float64) + b.astype(np.float64)
    )


def _char_fpmul(block, dtype):
    return imprecise_multiply(*block.operands, dtype=dtype), block.product


def _char_fpdiv(block, dtype):
    a, b = block.operands
    return imprecise_divide(a, b, dtype=dtype), a.astype(np.float64) / b.astype(
        np.float64
    )


def _char_rcp(block, dtype):
    (x,) = block.operands
    return imprecise_reciprocal(x, dtype=dtype), 1.0 / x.astype(np.float64)


def _char_rsqrt(block, dtype):
    (x,) = block.operands
    return imprecise_rsqrt(x, dtype=dtype), 1.0 / np.sqrt(x.astype(np.float64))


def _char_sqrt(block, dtype):
    (x,) = block.operands
    return imprecise_sqrt(x, dtype=dtype), np.sqrt(x.astype(np.float64))


def _char_log2(block, dtype):
    (x,) = block.operands
    return imprecise_log2(x, dtype=dtype), np.log2(x.astype(np.float64))


def _char_fma(block, dtype):
    a, b, c = block.operands
    approx = imprecise_fma(a, b, c, dtype=dtype)
    return approx, a.astype(np.float64) * b.astype(np.float64) + c.astype(np.float64)


#: Figure-8 panels: unit name -> input set and characterization driver.
UNIT_CHARACTERIZATIONS = {
    "ifpadd": _Panel(2, (-8, 8), _char_fpadd),
    "ifpmul": _Panel(2, (-4, 4), _char_fpmul),
    "ifpdiv": _Panel(2, (-4, 4), _char_fpdiv),
    "ircp": _Panel(1, (-4, 4), _char_rcp),
    "irsqrt": _Panel(1, (-4, 4), _char_rsqrt),
    "isqrt": _Panel(1, (-4, 4), _char_sqrt),
    "ilog2": _Panel(1, (-8, 8), _char_log2),
    "ifma": _Panel(3, (-4, 4), _char_fma),
}


def characterize_unit(
    name: str, n_samples: int = DEFAULT_SAMPLES, seed: int = 0, dtype=np.float32
) -> ErrorPMF:
    """Characterize one Table-1 unit by name (Figure 8)."""
    return characterize_units([name], n_samples, seed, dtype)[name]


def characterize_units(
    names=None,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dtype=np.float32,
) -> dict:
    """Characterize several Table-1 units (default: every Figure-8 panel).

    Units reading the same input set share its operands; the result keeps
    the order of ``names``.
    """
    names = list(names) if names is not None else sorted(UNIT_CHARACTERIZATIONS)
    unknown = [n for n in names if n not in UNIT_CHARACTERIZATIONS]
    if unknown:
        raise ValueError(
            f"unknown units {unknown}; expected from {sorted(UNIT_CHARACTERIZATIONS)}"
        )
    groups = {}
    for name in names:
        panel = UNIT_CHARACTERIZATIONS[name]
        groups.setdefault((panel.dims, panel.exponent_range), {})[name] = partial(
            panel.run, dtype=dtype)
    pmfs = {}
    for (dims, exponent_range), jobs in groups.items():
        pmfs.update(_stream("unit", jobs, dims, exponent_range, n_samples, seed, dtype))
    return {name: pmfs[name] for name in names}


# ----------------------------------------------------------------------
# Figure 9: the configurable multiplier
# ----------------------------------------------------------------------
def _multiplier_job(config, dtype) -> tuple:
    """``(label, run)`` of one configuration; ``run`` as in :func:`_stream`."""
    if isinstance(config, str) and config.startswith("bt_"):
        truncation = int(config[3:])
        return config, lambda block: (
            truncated_multiply(*block.operands, truncation, dtype=dtype),
            block.product,
        )
    if isinstance(config, str):
        config = MultiplierConfig.from_name(config)
    return config.name, lambda block: (
        configurable_multiply(*block.operands, config, dtype=dtype),
        block.product,
    )


def characterize_multiplier_configs(
    configs,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    dtype=np.float32,
) -> dict:
    """Characterize several multiplier configurations (Figure-9 sweep).

    ``configs`` holds :class:`~repro.core.MultiplierConfig` objects or
    paper-style names (``"lp_tr19"``, ``"bt_21"``); the result maps each
    configuration's label to its PMF.  All configurations share one input
    set and one exact product.
    """
    jobs = {}
    for config in configs:
        label, run = _multiplier_job(config, dtype)
        jobs.setdefault(label, run)
    return _stream("multiplier", jobs, 2, (-4, 4), n_samples, seed, dtype)


def characterize_multiplier_config(
    config, n_samples: int = DEFAULT_SAMPLES, seed: int = 0, dtype=np.float32
) -> ErrorPMF:
    """Characterize one configurable-multiplier configuration (Figure 9).

    ``config`` is a :class:`~repro.core.MultiplierConfig`, a paper-style name
    (``"lp_tr19"``), or ``"bt_N"`` for the intuitive truncation baseline.
    """
    (pmf,) = characterize_multiplier_configs([config], n_samples, seed,
                                             dtype).values()
    return pmf
