"""Parity harness: proves backends bit-identical to ``reference``.

The backend contract is exact bit equality, not closeness: the result
cache keys experiments by configuration alone, so two backends that
disagreed in even one ULP would poison caches and make experiments
irreproducible across machines.  This module generates random plus
adversarial operand vectors (subnormals, signed zeros, inf/NaN, exact
cancellation pairs, extreme magnitudes) and compares every backend
operation against the reference implementation bit for bit.

Used by ``tests/test_backends.py`` and ``tests/test_parallel.py`` (the
contractual gate, also run as CI's parity smoke).
"""

from __future__ import annotations

import numpy as np

from ..adder import max_threshold
from ..configurable import MultiplierConfig
from ..floatops import format_for_dtype
from .base import ComputeBackend, ReferenceBackend

__all__ = [
    "adversarial_operands",
    "finite_operands",
    "check_parity",
    "PARITY_OPS",
]

#: Operation names exercised by :func:`check_parity`.
PARITY_OPS = (
    "add", "sub", "mul_table1", "mul_mitchell", "mul_truncated",
    "fma", "rcp", "rsqrt", "sqrt", "log2", "div",
)


def adversarial_operands(dtype, n_random: int = 4096, seed: int = 7):
    """Operand pair (a, b) stressing every special-case branch.

    Random bit patterns (which hit NaNs, infinities, subnormals, and the
    full exponent range with high probability) are concatenated with a
    hand-picked corner list and exact-cancellation pairs ``(v, -v)``.
    """
    fmt = format_for_dtype(dtype)
    rng = np.random.default_rng(seed)
    info = np.iinfo(fmt.uint)
    raw = rng.integers(0, info.max, size=n_random, dtype=np.uint64)
    vals = raw.astype(fmt.uint).view(fmt.dtype)
    fin = np.finfo(fmt.dtype)
    corners = np.array(
        [0.0, -0.0, 1.0, -1.0, 1.5, 2.0, 0.1, -0.375,
         np.inf, -np.inf, np.nan,
         fin.tiny, -fin.tiny, fin.tiny / 2, -fin.tiny / 2,
         fin.smallest_subnormal, -fin.smallest_subnormal,
         fin.max, -fin.max, fin.eps, 1.0 + fin.eps],
        dtype=fmt.dtype,
    )
    a = np.concatenate([vals, corners, np.repeat(corners, len(corners))])
    b = np.concatenate([vals[::-1].copy(), corners[::-1].copy(),
                        np.tile(corners, len(corners))])
    # Exact cancellation: a + (-a) must yield +0 on every backend.
    cancel = np.concatenate([vals[:256], corners])
    a = np.concatenate([a, cancel])
    b = np.concatenate([b, -cancel])
    return a, b


def finite_operands(dtype, n_random: int = 4096, seed: int = 8):
    """Finite normal operands spanning the exponent range, both signs."""
    fmt = format_for_dtype(dtype)
    rng = np.random.default_rng(seed)
    mant = rng.uniform(1.0, 2.0, size=n_random)
    exp = rng.integers(-30, 31, size=n_random)
    sign = np.where(rng.integers(0, 2, size=n_random) == 1, -1.0, 1.0)
    a = (sign * np.ldexp(mant, exp)).astype(fmt.dtype)
    b = a[::-1].copy()
    return a, b


def _mismatch(op, param, dtype, ref, got) -> dict:
    fmt = format_for_dtype(np.dtype(dtype))
    bad = np.nonzero(ref.view(fmt.uint) != got.view(fmt.uint))[0]
    return {
        "op": op,
        "param": param,
        "dtype": np.dtype(dtype).name,
        "mismatches": int(bad.size),
        "first_index": int(bad[0]),
    }


def check_parity(backend: ComputeBackend, dtype=np.float32,
                 n_random: int = 4096, ops=PARITY_OPS, seed: int = 7) -> list:
    """Compare ``backend`` against the reference on adversarial vectors.

    Returns a list of mismatch descriptions — empty means the backend is
    bit-identical on every checked operation.
    """
    fmt = format_for_dtype(dtype)
    reference = ReferenceBackend()
    failures = []

    def compare(op, param, ref, got):
        if not np.array_equal(ref.view(fmt.uint), got.view(fmt.uint)):
            failures.append(_mismatch(op, param, dtype, ref, got))

    thresholds = sorted({1, 4, 8, max_threshold(dtype)})
    # Two sweeps: adversarial operands hit every special-case branch, while
    # the finite-only set keeps backends on their fast clean path (several
    # ops delegate wholesale to reference the moment NaN/inf appear, which
    # would otherwise leave the clean path entirely unexercised).
    for tag, (a, b) in (
        ("adversarial", adversarial_operands(dtype, n_random=n_random,
                                             seed=seed)),
        ("finite", finite_operands(dtype, n_random=n_random, seed=seed + 1)),
    ):
        c = np.concatenate([b[1:], b[:1]])
        _sweep(compare, reference, backend, tag, a, b, c, fmt, dtype,
               thresholds, ops)
    return failures


def _sweep(compare, reference, backend, tag, a, b, c, fmt, dtype,
           thresholds, ops):
    if "add" in ops:
        for th in thresholds:
            compare("add", f"{tag}:TH={th}",
                    reference.imprecise_add(a, b, th, dtype=dtype),
                    backend.imprecise_add(a, b, th, dtype=dtype))
    if "sub" in ops:
        compare("sub", f"{tag}:TH=8",
                reference.imprecise_subtract(a, b, 8, dtype=dtype),
                backend.imprecise_subtract(a, b, 8, dtype=dtype))
    if "mul_table1" in ops:
        compare("mul_table1", tag,
                reference.imprecise_multiply(a, b, dtype=dtype),
                backend.imprecise_multiply(a, b, dtype=dtype))
    if "mul_mitchell" in ops:
        for name in ("fp_tr0", "lp_tr0", "fp_tr8", "lp_tr16"):
            cfg = MultiplierConfig.from_name(name)
            if cfg.truncation > fmt.mantissa_bits:
                continue
            compare("mul_mitchell", f"{tag}:{name}",
                    reference.configurable_multiply(a, b, cfg, dtype=dtype),
                    backend.configurable_multiply(a, b, cfg, dtype=dtype))
    if "mul_truncated" in ops:
        for truncation, rounding in ((0, True), (8, True), (8, False)):
            compare("mul_truncated", f"{tag}:bt_{truncation},round={rounding}",
                    reference.truncated_multiply(a, b, truncation,
                                                 dtype=dtype,
                                                 rounding=rounding),
                    backend.truncated_multiply(a, b, truncation,
                                               dtype=dtype,
                                               rounding=rounding))
    if "fma" in ops:
        compare("fma", f"{tag}:TH=8",
                reference.imprecise_fma(a, b, c, 8, dtype=dtype),
                backend.imprecise_fma(a, b, c, 8, dtype=dtype))
    if "rcp" in ops:
        compare("rcp", tag,
                reference.imprecise_reciprocal(a, dtype=dtype),
                backend.imprecise_reciprocal(a, dtype=dtype))
    # The unsigned SFUs fall back to the reference wholesale when any
    # operand is negative, so sweep both the raw vector (special/negative
    # handling) and its magnitude (the fused clean path).
    pos = np.abs(a)
    if "rsqrt" in ops:
        compare("rsqrt", tag,
                reference.imprecise_rsqrt(a, dtype=dtype),
                backend.imprecise_rsqrt(a, dtype=dtype))
        compare("rsqrt", f"{tag}:abs",
                reference.imprecise_rsqrt(pos, dtype=dtype),
                backend.imprecise_rsqrt(pos, dtype=dtype))
    if "sqrt" in ops:
        compare("sqrt", tag,
                reference.imprecise_sqrt(a, dtype=dtype),
                backend.imprecise_sqrt(a, dtype=dtype))
        compare("sqrt", f"{tag}:abs",
                reference.imprecise_sqrt(pos, dtype=dtype),
                backend.imprecise_sqrt(pos, dtype=dtype))
    if "log2" in ops:
        compare("log2", tag,
                reference.imprecise_log2(a, dtype=dtype),
                backend.imprecise_log2(a, dtype=dtype))
        compare("log2", f"{tag}:abs",
                reference.imprecise_log2(pos, dtype=dtype),
                backend.imprecise_log2(pos, dtype=dtype))
    if "div" in ops:
        compare("div", tag,
                reference.imprecise_divide(a, b, dtype=dtype),
                backend.imprecise_divide(a, b, dtype=dtype))
