"""Intuitive bit-truncation baseline multiplier (``bt_N`` configurations).

The conventional low-power technique for FP multipliers truncates low-order
bits of the mantissa multiplication, keeping the multiplier otherwise exact
(Wires et al.; Gupta et al. — Chapter 2).  The paper uses this as the
baseline against which the Mitchell-based configurable multiplier is
compared (Figures 14, 19-21, Table 7): intuitive truncation loses accuracy
quickly while saving comparatively little power, because the exponent /
normalization / rounding overhead of the IEEE datapath remains.

``truncated_multiply`` reduces each operand mantissa to its top
``mantissa_bits - truncation`` fraction bits, multiplies exactly, and
truncates the result mantissa (subnormals flushed).  By default the operand
reduction uses round-to-nearest, modeling the variable-correction constants
of truncated-multiplier designs (Wires et al.); ``rounding=False`` selects
plain magnitude truncation.  With rounding, the worst-case relative error at
``bt_21`` (2 fraction bits kept, binary32) is ~21%, matching Figure 14.
"""

from __future__ import annotations

import numpy as np

from .floatops import flush_subnormals, format_for_dtype, truncate_mantissa

__all__ = ["truncated_multiply", "round_mantissa", "truncation_max_error"]


def round_mantissa(x, keep_bits: int, fmt=None) -> np.ndarray:
    """Round ``x`` to ``keep_bits`` mantissa fraction bits (half away from zero).

    Exploits the monotonicity of IEEE bit patterns: adding half a ULP of the
    kept precision to the raw bits and masking the dropped bits implements
    round-half-up in magnitude, with mantissa-to-exponent carries handled by
    the binary representation itself.  NaN/inf are passed through.
    """
    x = np.asarray(x)
    if fmt is None:
        fmt = format_for_dtype(x.dtype)
    if not 0 <= keep_bits <= fmt.mantissa_bits:
        raise ValueError(f"keep_bits must be in [0, {fmt.mantissa_bits}], got {keep_bits}")
    if keep_bits == fmt.mantissa_bits:
        return x.astype(fmt.dtype, copy=False)
    drop = fmt.mantissa_bits - keep_bits
    bits = x.astype(fmt.dtype, copy=False).view(fmt.uint)
    half = np.array(1 << (drop - 1), dtype=fmt.uint)
    mask = np.array(~((1 << drop) - 1) & ((1 << (fmt.sign_shift + 1)) - 1), dtype=fmt.uint)
    rounded = (bits + half) & mask
    exponent = (bits >> np.array(fmt.mantissa_bits, dtype=fmt.uint)) & np.array(
        fmt.exponent_mask, dtype=fmt.uint
    )
    special = exponent == fmt.exponent_mask
    return np.where(special, bits, rounded).view(fmt.dtype)


def truncated_multiply(
    a, b, truncation: int = 0, dtype=np.float32, rounding: bool = True
) -> np.ndarray:
    """Multiply ``a * b`` with the bit-truncation baseline (``bt_N``).

    Parameters
    ----------
    a, b:
        Array-like operands; converted to ``dtype``.
    truncation:
        Number of low-order mantissa-fraction bits removed from each operand
        (0 = IEEE-accurate apart from final truncation instead of rounding).
    dtype:
        ``numpy.float32`` or ``numpy.float64``.
    rounding:
        Round (variable-correction style, default) vs truncate the operand
        reduction.
    """
    fmt = format_for_dtype(dtype)
    if not 0 <= truncation <= fmt.mantissa_bits:
        raise ValueError(
            f"truncation must be in [0, {fmt.mantissa_bits}], got {truncation}"
        )
    a = np.asarray(a, dtype=fmt.dtype)
    b = np.asarray(b, dtype=fmt.dtype)
    keep = fmt.mantissa_bits - truncation
    reduce = round_mantissa if rounding else truncate_mantissa
    a_t = reduce(flush_subnormals(a, fmt), keep, fmt)
    b_t = reduce(flush_subnormals(b, fmt), keep, fmt)
    # The exact product of the reduced operands, then result truncation.
    # For binary32 the float64 product is exact; for binary64 the float64
    # rounding is far below the truncation error being modeled.  Overflow
    # to inf and inf * 0 = NaN are the intended IEEE results.
    with np.errstate(over="ignore", invalid="ignore"):
        product = a_t.astype(np.float64) * b_t.astype(np.float64)
        product = product.astype(fmt.dtype)
    product = truncate_mantissa(product, fmt.mantissa_bits, fmt)
    return flush_subnormals(product, fmt)


def truncation_max_error(truncation: int, dtype=np.float32, rounding: bool = True) -> float:
    """Analytic worst-case relative error of the ``bt_N`` scheme.

    Each operand's mantissa reduction changes it by at most ``delta``
    relative to a mantissa of 1.0 — ``2^-(keep+1)`` when rounding,
    ``(2^t - 1) * 2^-p`` when truncating — and the product error compounds
    two operand errors: ``(1+delta)^2 - 1``.
    """
    fmt = format_for_dtype(dtype)
    keep = fmt.mantissa_bits - truncation
    if rounding:
        delta = 2.0 ** -(keep + 1)
    else:
        delta = ((1 << truncation) - 1) / float(fmt.implicit_one)
    return 2.0 * delta + delta * delta
