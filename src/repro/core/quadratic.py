"""Quadratic-approximation SFUs: the "more structural parameters" extension.

Chapter 6 lists *"enabling more structural parameters of IHW components to
expand the design space"* as future work, and Chapter 3 contrasts the
chosen one-shot linear approximations against the *"commonly used quadratic
approximations using Lagrange or least square approximations with high
accuracy but also very high power consumption"*.

This module adds that second design point: relative-error-weighted
quadratic polynomials on the same reduced ranges, several-fold more
accurate than the Table-1 linear functions (worst case 1.9% for rcp, 0.6%
for rsqrt vs 5.9% / 11.1% linear) at roughly the cost of one extra
constant multiplier and adder (see
:func:`repro.hardware.units.quadratic_sfu`).  Together with the linear
units they give each SFU a two-point accuracy knob analogous to the
multiplier's log/full paths.
"""

from __future__ import annotations

import numpy as np

from .floatops import flush_subnormals, format_for_dtype
from .special import _SQRT1_2, _mantissa_and_exponent

__all__ = [
    "quadratic_reciprocal",
    "quadratic_rsqrt",
    "quadratic_sqrt",
    "quadratic_log2",
    "quadratic_divide",
    "QUADRATIC_RCP_COEFFS",
    "QUADRATIC_RSQRT_COEFFS",
    "QUADRATIC_LOG2_COEFFS",
    "QUADRATIC_RCP_MAX_ERROR",
    "QUADRATIC_RSQRT_MAX_ERROR",
    "QUADRATIC_LOG2_MAX_ABS_ERROR",
]

# Relative-error-weighted least-squares quadratic fits on the reduced
# ranges (computed offline with numpy.polyfit over a dense grid, constants
# frozen here as the hardware would carry them in CSD form).
#: 1/x ~= c0 + c1 x + c2 x^2 on [0.5, 1].
QUADRATIC_RCP_COEFFS = (4.14574, -5.59465, 2.46232)
#: 1/sqrt(x) ~= c0 + c1 x + c2 x^2 on [0.5, 1].
QUADRATIC_RSQRT_COEFFS = (2.21123, -2.01373, 0.80678)
#: log2(m) ~= c0 + c1 m + c2 m^2 on m in [1, 2).
QUADRATIC_LOG2_COEFFS = (-1.64899, 1.99490, -0.33688)

QUADRATIC_RCP_MAX_ERROR = 0.0185
QUADRATIC_RSQRT_MAX_ERROR = 0.0060
QUADRATIC_LOG2_MAX_ABS_ERROR = 0.0095

def _poly2(coeffs, x):
    c0, c1, c2 = coeffs
    return c0 + x * (c1 + x * c2)


def quadratic_reciprocal(x, dtype=np.float32) -> np.ndarray:
    """``1 / x`` via the quadratic SFU (1.9% worst case vs 5.9% linear)."""
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)
    mant, e = _mantissa_and_exponent(np.abs(x), fmt)
    xr = 0.5 * mant
    approx = _poly2(QUADRATIC_RCP_COEFFS, xr) * np.exp2(-(e + 1).astype(np.float64))
    result = np.where(np.signbit(x), -approx, approx)
    with np.errstate(divide="ignore"):
        result = np.where(x == 0, np.where(np.signbit(x), -np.inf, np.inf), result)
    result = np.where(np.isinf(x), np.where(np.signbit(x), -0.0, 0.0), result)
    result = np.where(np.isnan(x), np.nan, result)
    return flush_subnormals(result.astype(fmt.dtype), fmt)


def quadratic_rsqrt(x, dtype=np.float32) -> np.ndarray:
    """``1 / sqrt(x)`` via the quadratic SFU."""
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)
    mant, e = _mantissa_and_exponent(np.abs(x), fmt)
    xr = 0.5 * mant
    lin = _poly2(QUADRATIC_RSQRT_COEFFS, xr)
    e1 = e + 1
    q = np.floor_divide(e1, 2)
    r = e1 - 2 * q
    approx = lin * np.exp2(-q.astype(np.float64)) * np.where(r == 1, _SQRT1_2, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        approx = np.where(x == 0, np.inf, approx)
        approx = np.where(np.isposinf(x), 0.0, approx)
        approx = np.where((x < 0) | np.isnan(x), np.nan, approx)
    return flush_subnormals(approx.astype(fmt.dtype), fmt)


def quadratic_sqrt(x, dtype=np.float32) -> np.ndarray:
    """``sqrt(x)`` as ``x * quadratic_rsqrt(x)`` (the GPU lowering)."""
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)
    inv = quadratic_rsqrt(x, dtype=dtype)
    with np.errstate(invalid="ignore"):
        result = x.astype(np.float64) * inv.astype(np.float64)
        result = np.where(x == 0, 0.0, result)
        result = np.where(np.isposinf(x), np.inf, result)
    return flush_subnormals(result.astype(fmt.dtype), fmt)


def quadratic_log2(x, dtype=np.float32) -> np.ndarray:
    """``log2(x)`` via the quadratic mantissa polynomial."""
    fmt = format_for_dtype(dtype)
    x = flush_subnormals(np.asarray(x, dtype=fmt.dtype), fmt)
    mant, e = _mantissa_and_exponent(np.abs(x), fmt)
    approx = e.astype(np.float64) + _poly2(QUADRATIC_LOG2_COEFFS, mant)
    with np.errstate(divide="ignore", invalid="ignore"):
        approx = np.where(x == 0, -np.inf, approx)
        approx = np.where(np.isposinf(x), np.inf, approx)
        approx = np.where((x < 0) | np.isnan(x), np.nan, approx)
    return flush_subnormals(approx.astype(fmt.dtype), fmt)


def quadratic_divide(a, b, dtype=np.float32) -> np.ndarray:
    """``a * quadratic_reciprocal(b)`` — the quadratic-mode divider."""
    a = flush_subnormals(np.asarray(a, dtype=dtype))
    rcp = quadratic_reciprocal(b, dtype=dtype)
    with np.errstate(invalid="ignore"):
        result = a.astype(np.float64) * rcp.astype(np.float64)
    return flush_subnormals(result.astype(dtype))
