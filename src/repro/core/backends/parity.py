"""Parity harness: proves backends bit-identical to ``reference``.

The backend contract is exact bit equality, not closeness: the result
cache keys experiments by configuration alone, so two backends that
disagreed in even one ULP would poison caches and make experiments
irreproducible across machines.  This module generates random plus
adversarial operand vectors (subnormals, signed zeros, inf/NaN, exact
cancellation pairs, extreme magnitudes) and compares every backend
operation against the reference implementation bit for bit.
:func:`check_adder_enumeration` walks every binary32 mantissa of the
adder's smaller operand at each exponent difference around a threshold.

Used by ``tests/test_backends.py`` and ``tests/test_parallel.py`` (the
contractual gate, also run as CI's parity smoke), and at full stride by
``benchmarks/test_adder_enumeration.py`` (CI's adder-enumeration job).
"""

from __future__ import annotations

import numpy as np

from ..adder import max_threshold
from ..configurable import MultiplierConfig
from ..floatops import BINARY32, format_for_dtype
from .base import ComputeBackend, ReferenceBackend

__all__ = [
    "adversarial_operands",
    "finite_operands",
    "check_parity",
    "check_adder_enumeration",
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
        for op, param, method, args, kwargs in _calls(a, b, c, fmt,
                                                      thresholds):
            if op not in ops:
                continue
            ref = getattr(reference, method)(*args, dtype=dtype, **kwargs)
            got = getattr(backend, method)(*args, dtype=dtype, **kwargs)
            if not np.array_equal(ref.view(fmt.uint), got.view(fmt.uint)):
                label = f"{tag}:{param}" if param else tag
                failures.append(_mismatch(op, label, dtype, ref, got))
    return failures


def _calls(a, b, c, fmt, thresholds) -> list:
    """``(op, param, method, args, kwargs)`` of every checked call."""
    calls = []
    for th in thresholds:
        calls += [("add", f"TH={th}", "imprecise_add", (a, b, th), {}),
                  ("sub", f"TH={th}", "imprecise_subtract", (a, b, th), {}),
                  ("fma", f"TH={th}", "imprecise_fma", (a, b, c, th), {})]
    calls.append(("mul_table1", "", "imprecise_multiply", (a, b), {}))
    for name in ("fp_tr0", "lp_tr0", "fp_tr8", "lp_tr16"):
        cfg = MultiplierConfig.from_name(name)
        if cfg.truncation <= fmt.mantissa_bits:
            calls.append(("mul_mitchell", name, "configurable_multiply",
                          (a, b, cfg), {}))
    for truncation, rounding in ((0, True), (8, True), (8, False)):
        calls.append(("mul_truncated", f"bt_{truncation},round={rounding}",
                      "truncated_multiply", (a, b, truncation),
                      {"rounding": rounding}))
    calls.append(("rcp", "", "imprecise_reciprocal", (a,), {}))
    # The unsigned SFUs fall back to the reference wholesale when any
    # operand is negative, so sweep both the raw vector (special/negative
    # handling) and its magnitude (the fused clean path).
    for op in ("rsqrt", "sqrt", "log2"):
        calls += [(op, "", "imprecise_" + op, (a,), {}),
                  (op, "abs", "imprecise_" + op, (np.abs(a),), {})]
    calls.append(("div", "", "imprecise_divide", (a, b), {}))
    return calls


def _adder_enumeration(d: int, negate: bool, stride: int = 1,
                       block: int = 1 << 18):
    """binary32 adder operand blocks ``(x, y)`` at exponent difference ``d``.

    Every ``stride``-th mantissa of the smaller operand ``y`` (all 2^23 at
    stride 1) is paired with a larger operand ``x`` whose mantissa is a
    fixed odd-multiplier permutation of it; ``negate`` makes the addition
    effective subtraction.  ``x`` lies in [1, 2), so ``y`` stays normal.
    """
    fmt = BINARY32
    p = fmt.mantissa_bits
    exp_x = fmt.bias
    ys = np.arange(0, 1 << p, stride, dtype=np.uint64)
    for lo in range(0, ys.size, block):
        m_y = ys[lo:lo + block]
        m_x = (m_y * np.uint64(0x9E3779B1) + np.uint64(0x2545F)) & np.uint64(
            fmt.mantissa_mask)
        x = ((exp_x << p) | m_x).astype(np.uint32).view(np.float32)
        y = (((exp_x - d) << p) | m_y).astype(np.uint32).view(np.float32)
        yield x, (-y if negate else y)


def check_adder_enumeration(backend: ComputeBackend, stride: int = 1,
                            thresholds=(1, 8, 27)) -> list:
    """Compare ``backend``'s binary32 adder against the reference on
    :func:`_adder_enumeration` at every ``d`` in ``0..TH+1``, both
    effective operations; returns mismatches as :func:`check_parity`."""
    reference = ReferenceBackend()
    failures = []
    for th in thresholds:
        for d in range(th + 2):
            for negate in (False, True):
                for x, y in _adder_enumeration(d, negate, stride):
                    ref = reference.imprecise_add(x, y, th)
                    got = backend.imprecise_add(x, y, th)
                    if not np.array_equal(ref.view(np.uint32),
                                          got.view(np.uint32)):
                        failures.append(_mismatch(
                            "add", f"TH={th},d={d},negate={negate}",
                            np.float32, ref, got))
    return failures
