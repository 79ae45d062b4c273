"""Low-discrepancy input generation for IHW error characterization.

Chapter 4.2 characterizes the imprecise units with the quasi-Monte Carlo
method: a low-discrepancy sequence covers the input space far more uniformly
than pseudo-random sampling, so the error PMF converges with fewer samples
and without clustering bias.

Because the proposed imprecise algorithms do not disturb the exponent
arithmetic, the paper characterizes over the interval that exercises the
mantissa datapath; :func:`mantissa_inputs` generates operands whose mantissas
sweep the characterization range while exponents stay controlled, and
:func:`uniform_inputs` covers a plain real interval.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

__all__ = [
    "mantissa_inputs",
    "mantissa_operands",
    "sobol_chunks",
    "sobol_unit",
    "uniform_inputs",
]


def sobol_unit(n_samples: int, dimensions: int, seed: int = 0) -> np.ndarray:
    """``(n, d)`` Sobol low-discrepancy points in the unit hypercube.

    ``n_samples`` is rounded up to the next power of two (Sobol sequences
    are balanced at powers of two) and the excess is trimmed.
    """
    return next(sobol_chunks(n_samples, dimensions, seed, n_samples))


def _ceil_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def sobol_chunks(n_samples: int, dimensions: int, seed: int, chunk: int):
    """The points of :func:`sobol_unit` in successive blocks of ``chunk`` rows.

    One sampler continues its sequence across blocks, so concatenating the
    blocks gives ``sobol_unit(n_samples, dimensions, seed)`` bit for bit.
    The final partial block is drawn at the next power of two and trimmed,
    like a one-shot draw, so ``chunk`` must be a power of two unless it
    covers all of ``n_samples``.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if dimensions <= 0:
        raise ValueError(f"dimensions must be positive, got {dimensions}")
    sampler = qmc.Sobol(d=dimensions, scramble=True, seed=seed)
    left = n_samples
    while left > 0:
        take = min(chunk, left)
        yield sampler.random(_ceil_pow2(take))[:take]
        left -= take


def uniform_inputs(
    n_samples: int,
    dimensions: int = 2,
    low: float = 0.0,
    high: float = 1.0,
    seed: int = 0,
    dtype=np.float32,
) -> tuple:
    """Low-discrepancy operand tuples covering ``[low, high)^dimensions``.

    Returns a tuple of ``dimensions`` arrays of length ``n_samples``.
    """
    if not high > low:
        raise ValueError(f"need high > low, got [{low}, {high})")
    points = sobol_unit(n_samples, dimensions, seed)
    scaled = (low + points * (high - low)).astype(dtype)
    return tuple(scaled[:, i] for i in range(dimensions))


def mantissa_inputs(
    n_samples: int,
    dimensions: int = 2,
    exponent_range: tuple = (-4, 4),
    seed: int = 0,
    dtype=np.float32,
) -> tuple:
    """Operands with low-discrepancy mantissas and dithered exponents.

    Mantissas sweep [1, 2) uniformly (the range the imprecise datapaths
    actually see) while exponents draw from ``exponent_range`` so that
    alignment-dependent units (the adder) see realistic exponent
    differences.
    """
    points = sobol_unit(n_samples, 2 * dimensions, seed)
    return mantissa_operands(points, exponent_range, dtype)


def mantissa_operands(points: np.ndarray, exponent_range: tuple, dtype) -> tuple:
    """The :func:`mantissa_inputs` operands built from ``(n, 2d)`` points.

    Column ``2i`` sets operand ``i``'s mantissa and column ``2i + 1`` its
    exponent, so a block of :func:`sobol_chunks` rows gives the matching
    rows of the one-shot operands.
    """
    lo, hi = exponent_range
    if hi < lo:
        raise ValueError(f"invalid exponent_range: {exponent_range}")
    out = []
    for i in range(points.shape[1] // 2):
        mant = 1.0 + points[:, 2 * i]
        exp = np.floor(points[:, 2 * i + 1] * (hi - lo + 1)) + lo
        out.append((mant * np.exp2(exp)).astype(dtype))
    return tuple(out)
