"""Imprecise special function units: linear approximation + range reduction.

Table 1 proposes one-shot linear approximations for the elementary functions
normally computed by the GPU's special function units (SFU):

=============  ==========================================  ==============
function       imprecise function                          eps_max
=============  ==========================================  ==============
1/x            y = 2.823 - 1.882 x     on x in [0.5, 1]    5.88%
1/sqrt(x)      y = 2.08 - 1.1911 x     on x in [0.5, 1]    11.11%
sqrt(x)        y = x (2.08 - 1.1911 x) on x in [0.25, 1]   11.11%
log2(x)        y = exp + 0.9846 x - 0.9196, x in [1, 2)    unbounded
a / b          y = a (2.823 - 1.882 b), b in [0.5, 1]      5.88%
=============  ==========================================  ==============

Range reduction exploits the IEEE-754 representation: the operand's mantissa
``1.M in [1, 2)`` is mapped into the approximation interval by replacing the
exponent (a right shift by one for [0.5, 1)), the linear polynomial is
evaluated, and the exponent is reconstructed.  For the square roots the
exponent parity is absorbed into a second coefficient set scaled by
``1/sqrt(2)`` (hardware muxes the constants on the exponent's LSB).

Subnormal inputs/outputs flush to zero, rounding circuits are removed, and
IEEE special cases (0, inf, NaN, negative operands) are handled.
"""

from __future__ import annotations

import math

import numpy as np

from .floatops import decompose, flush_subnormals, format_for_dtype

__all__ = [
    "imprecise_reciprocal",
    "imprecise_rsqrt",
    "imprecise_sqrt",
    "imprecise_log2",
    "imprecise_divide",
    "RECIPROCAL_COEFFS",
    "RSQRT_COEFFS",
    "LOG2_COEFFS",
    "RECIPROCAL_MAX_ERROR",
    "RSQRT_MAX_ERROR",
    "SQRT_MAX_ERROR",
]

#: (intercept, slope) of the reciprocal approximation on [0.5, 1].
RECIPROCAL_COEFFS = (2.823, -1.882)
#: (intercept, slope) of the inverse-square-root approximation on [0.5, 1].
RSQRT_COEFFS = (2.08, -1.1911)
#: (intercept, slope) applied to the mantissa for log2 on [1, 2).
LOG2_COEFFS = (-0.9196, 0.9846)

# The paper quotes 5.88% for the reciprocal; the exact endpoint error of the
# published coefficients is (2 - 1.882/... ) = 0.0590, so we carry the exact
# bound and note the paper's rounded figure.
RECIPROCAL_MAX_ERROR = 0.0590
RSQRT_MAX_ERROR = 0.1112
SQRT_MAX_ERROR = 0.1112

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _mantissa_and_exponent(x, fmt):
    """Decompose positive normal values into (1+M in [1,2), unbiased exp)."""
    _, exp, frac = decompose(x, fmt)
    mant = 1.0 + frac.astype(np.float64) / float(fmt.implicit_one)
    e = exp.astype(np.int64) - np.int64(fmt.bias)
    return mant, e


def _quantize(values: np.ndarray, fmt) -> np.ndarray:
    """Cast the float64 datapath result to the target format, flush subnormals."""
    with np.errstate(over="ignore"):  # out-of-range results become inf
        out = values.astype(fmt.dtype)
    return flush_subnormals(out, fmt)


def imprecise_reciprocal(x, dtype=np.float32) -> np.ndarray:
    """Approximate ``1 / x`` with the Table-1 linear SFU.

    Range reduction: ``|x| = m * 2^e`` with ``m in [1, 2)`` gives
    ``|x| = (m/2) * 2^(e+1)`` and ``1/|x| = lin(m/2) * 2^-(e+1)``.
    """
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)
    ax = np.abs(x)

    mant, e = _mantissa_and_exponent(ax, fmt)
    xr = 0.5 * mant  # in [0.5, 1)
    c0, c1 = RECIPROCAL_COEFFS
    approx = (c0 + c1 * xr) * np.exp2(-(e + 1).astype(np.float64))
    result = np.where(np.signbit(x), -approx, approx)

    with np.errstate(divide="ignore"):
        result = np.where(x == 0, np.where(np.signbit(x), -np.inf, np.inf), result)
    result = np.where(np.isinf(x), np.where(np.signbit(x), -0.0, 0.0), result)
    result = np.where(np.isnan(x), np.nan, result)
    return _quantize(result, fmt)


def imprecise_rsqrt(x, dtype=np.float32) -> np.ndarray:
    """Approximate ``1 / sqrt(x)`` with the Table-1 linear SFU.

    For ``x = m * 2^e``: write ``x = xr * 2^(e+1)`` with ``xr = m/2`` in
    [0.5, 1).  When ``e+1`` is even the result is ``lin(xr) * 2^-(e+1)/2``;
    odd parity multiplies the coefficients by ``1/sqrt(2)``.
    """
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)

    mant, e = _mantissa_and_exponent(np.abs(x), fmt)
    xr = 0.5 * mant
    c0, c1 = RSQRT_COEFFS
    lin = c0 + c1 * xr
    e1 = e + 1
    # e1 = 2q + r: result = lin * 2^-q / sqrt(2)^r
    q = np.floor_divide(e1, 2)
    r = e1 - 2 * q
    approx = lin * np.exp2(-q.astype(np.float64)) * np.where(r == 1, _SQRT1_2, 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        approx = np.where(x == 0, np.inf, approx)
        approx = np.where(np.isposinf(x), 0.0, approx)
        approx = np.where((x < 0) | np.isnan(x), np.nan, approx)
    return _quantize(approx, fmt)


def imprecise_sqrt(x, dtype=np.float32) -> np.ndarray:
    """Approximate ``sqrt(x)`` as ``x_r * lin(x_r)`` (Table 1).

    Range reduction maps ``x = xr * 4^q`` with ``xr in [0.25, 1)`` so that
    ``sqrt(x) = 2^q * xr * (2.08 - 1.1911 xr)``.
    """
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)

    mant, e = _mantissa_and_exponent(np.abs(x), fmt)
    # x = mant * 2^e = (mant * 2^r / 4) * 4^(q+... ): choose q so xr in [0.25,1).
    # e = 2q + r with r in {0, 1}: x = (mant * 2^r) * 4^q, mant*2^r in [1, 4),
    # xr = mant * 2^r / 4 in [0.25, 1) and sqrt(x) = 2^(q+1) * sqrt(xr).
    q = np.floor_divide(e, 2)
    r = e - 2 * q
    xr = mant * np.exp2(r.astype(np.float64)) * 0.25
    c0, c1 = RSQRT_COEFFS
    approx = xr * (c0 + c1 * xr) * np.exp2((q + 1).astype(np.float64))

    with np.errstate(invalid="ignore"):
        approx = np.where(x == 0, 0.0, approx)
        approx = np.where(np.isposinf(x), np.inf, approx)
        approx = np.where((x < 0) | np.isnan(x), np.nan, approx)
    return _quantize(approx, fmt)


def imprecise_log2(x, dtype=np.float32) -> np.ndarray:
    """Approximate ``log2(x)`` as ``e + 0.9846 m - 0.9196`` for mantissa m.

    The relative error is unbounded near ``x = 1`` where the true logarithm
    crosses zero (Table 1), but the absolute error stays below ~0.0155.
    """
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)

    mant, e = _mantissa_and_exponent(np.abs(x), fmt)
    c0, c1 = LOG2_COEFFS
    approx = e.astype(np.float64) + c1 * mant + c0

    with np.errstate(divide="ignore", invalid="ignore"):
        approx = np.where(x == 0, -np.inf, approx)
        approx = np.where(np.isposinf(x), np.inf, approx)
        approx = np.where((x < 0) | np.isnan(x), np.nan, approx)
    return _quantize(approx, fmt)


def imprecise_divide(a, b, dtype=np.float32) -> np.ndarray:
    """Approximate ``a / b`` as ``a * lin_rcp(b)`` (Table 1).

    The reciprocal of ``b`` is produced by the linear SFU and multiplied by
    ``a`` exactly (the divider's product stage), so the worst-case error is
    the reciprocal's 5.88%.
    """
    fmt = format_for_dtype(dtype)
    a = flush_subnormals(np.asarray(a, dtype=fmt.dtype), fmt)
    b = np.asarray(b, dtype=fmt.dtype)
    rcp = imprecise_reciprocal(b, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        result = a.astype(np.float64) * rcp.astype(np.float64)
        # 0 * inf and inf * 0 from the reciprocal stage are NaN, matching
        # IEEE division semantics for 0/0 and inf/inf; finite products
        # past float64's range overflow to inf.
    return _quantize(result, fmt)
