"""Mitchell's Algorithm (MA) for approximate fixed point multiplication.

Mitchell's algorithm (Chapter 3.2.1) approximates a product through the
logarithm domain using the piecewise-linear estimates

    log2(2^k * (1 + x)) ~= k + x          (binary-to-log)
    2^(k + x)           ~= 2^k * (1 + x)  (log-to-binary)

so that for ``D1 = 2^k1 (1 + x1)`` and ``D2 = 2^k2 (1 + x2)``:

    D1 * D2 ~= 2^(k1+k2)   * (1 + x1 + x2)   if x1 + x2 <  1     (eq. 12)
               2^(k1+k2+1) * (x1 + x2)       if x1 + x2 in [1,2)

The maximum relative error magnitude is 1/9 = 11.11% (Mitchell 1962) and the
approximation always under-estimates the true product.

Two entry points are provided:

- :func:`mitchell_multiply_int` — the hardware algorithm on unsigned
  integers (LOD + shift + add + decode), matching Figure 6 bit for bit;
- :func:`mitchell_mantissa_product` — MA applied to dyadic fractions in
  ``[0, 2)`` as used inside the accuracy-configurable FP multiplier.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MITCHELL_MAX_ERROR",
    "POW2_RANGE",
    "mitchell_multiply_int",
    "mitchell_mantissa_product",
    "pow2",
    "pow2_table",
]

#: Analytic maximum relative error magnitude of Mitchell's algorithm.
MITCHELL_MAX_ERROR = 1.0 / 9.0

#: Half-width of the shared power-of-two table: index = exponent + POW2_RANGE.
POW2_RANGE = 1100

# Lazily-built shared table; read-only once published (no reset needed).
_POW2_TABLE = None


def pow2_table() -> np.ndarray:
    """Shared read-only table of ``2.0**k`` for ``k`` in ±:data:`POW2_RANGE`.

    The log-domain decode multiplies by exact powers of two (``2^{k1+k2}``
    and ``2^{-msb}``); a shared table turns every per-lane ``np.ldexp``
    into an indexed gather.  Entries beyond float64's exponent range hold the same
    ``0.0`` / ``inf`` that ``np.ldexp`` produces, which makes clamped
    lookups (:func:`pow2`) exact for every int64 exponent.
    """
    global _POW2_TABLE
    if _POW2_TABLE is None:
        exponents = np.arange(-POW2_RANGE, POW2_RANGE + 1, dtype=np.int32)
        with np.errstate(under="ignore", over="ignore"):
            table = np.ldexp(1.0, exponents)
        table.setflags(write=False)
        _POW2_TABLE = table
    return _POW2_TABLE


def pow2(exponents) -> np.ndarray:
    """Exact ``2.0**exponents`` for integer exponents via the shared table."""
    idx = np.clip(np.asarray(exponents, dtype=np.int64) + POW2_RANGE,
                  0, 2 * POW2_RANGE)
    return pow2_table()[idx]


def _msb_index(values: np.ndarray) -> np.ndarray:
    """Exact leading-one (MSB) bit index of positive int64 values."""
    msb = (np.frexp(values.astype(np.float64))[1] - 1).astype(np.int64)
    # float64 conversion may round up across a power of two.
    return msb - ((values >> msb) == 0)


def mitchell_multiply_int(n1, n2) -> np.ndarray:
    """Approximate the product of unsigned integers with Mitchell's algorithm.

    Implements the Figure-6 datapath: leading-one detection, left-align of
    the fraction, addition in the log domain, and decode back to binary.
    Operands must be non-negative and below 2^31 so the exact log-domain sum
    fits in int64.  A zero operand yields zero (hardware detects it before
    the LOD).
    """
    n1 = np.asarray(n1, dtype=np.int64)
    n2 = np.asarray(n2, dtype=np.int64)
    if (n1 < 0).any() or (n2 < 0).any():
        raise ValueError("Mitchell multiplication is defined for non-negative integers")
    if (n1 >= 1 << 31).any() or (n2 >= 1 << 31).any():
        raise ValueError("operands must be below 2^31")
    n1, n2 = np.broadcast_arrays(n1, n2)

    zero = (n1 == 0) | (n2 == 0)
    s1 = np.where(zero, np.int64(1), n1)
    s2 = np.where(zero, np.int64(1), n2)

    k1 = _msb_index(s1)
    k2 = _msb_index(s2)
    # Fraction parts x = (n - 2^k) / 2^k, represented at a common scale of
    # 2^-62 ... instead keep exact: x1 + x2 = f1/2^k1 + f2/2^k2.  Align both
    # to scale 2^-(k1+k2): x_sum_scaled = f1 * 2^k2 + f2 * 2^k1.
    f1 = s1 - (np.int64(1) << k1)
    f2 = s2 - (np.int64(1) << k2)
    x_sum_scaled = (f1 << k2) + (f2 << k1)  # (x1 + x2) * 2^(k1+k2)
    unit = np.int64(1) << (k1 + k2)

    carry = x_sum_scaled >= unit
    # P = 2^(k1+k2) * (1 + x1 + x2)      -> unit + x_sum_scaled
    # P = 2^(k1+k2+1) * (x1 + x2)        -> 2 * x_sum_scaled
    product = np.where(carry, x_sum_scaled << np.int64(1), unit + x_sum_scaled)
    return np.where(zero, np.int64(0), product)


def mitchell_mantissa_product(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Mitchell approximation of ``m1 * m2`` for dyadic fractions in (0, 2).

    ``m1`` and ``m2`` are float64 arrays holding exactly-representable
    mantissa values (e.g. ``1 + Ma`` in [1, 2) for the log path, or the
    fraction ``Ma`` in (0, 1) for the full path).  Zero operands yield zero.

    The computation mirrors the hardware: decompose each operand as
    ``2^k (1 + x)`` with ``x in [0, 1)``, add in the log domain, decode.
    All intermediate quantities are dyadic rationals representable in
    float64, so the model is exact w.r.t. the algorithm.
    """
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    m1, m2 = np.broadcast_arrays(m1, m2)

    zero = (m1 == 0) | (m2 == 0)
    s1 = np.where(zero, 1.0, m1)
    s2 = np.where(zero, 1.0, m2)

    frac1, exp1 = np.frexp(s1)  # s = frac * 2^exp, frac in [0.5, 1)
    frac2, exp2 = np.frexp(s2)
    k1 = exp1 - 1
    k2 = exp2 - 1
    x1 = 2.0 * frac1 - 1.0  # in [0, 1)
    x2 = 2.0 * frac2 - 1.0

    x_sum = x1 + x2
    scale = pow2(k1 + k2)
    product = np.where(x_sum < 1.0, scale * (1.0 + x_sum), 2.0 * scale * x_sum)
    return np.where(zero, 0.0, product)
