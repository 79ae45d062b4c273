"""Parity harness: proves backends bit-identical to ``reference``.

The backend contract is exact bit equality, not closeness: the result
cache keys experiments by configuration alone, so two backends that
disagreed in even one ULP would poison caches and make experiments
irreproducible across machines.  This module generates random plus
adversarial operand vectors (subnormals, signed zeros, inf/NaN, exact
cancellation pairs, extreme magnitudes) and compares every backend
operation against the reference implementation bit for bit.
:func:`check_adder_enumeration` walks every binary32 mantissa of the
adder's smaller operand at each exponent difference around a threshold,
and :func:`check_multiplier_enumeration` every binary32 mantissa of the
multipliers' first operand at exponent pairs around both range edges.

Used by ``tests/test_backends.py`` and ``tests/test_parallel.py`` (the
contractual gate, also run as CI's parity smoke), and at full stride by
``benchmarks/test_adder_enumeration.py`` and
``benchmarks/test_multiplier_enumeration.py`` (CI's adder-enumeration job).
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
    "range_operands",
    "check_parity",
    "check_adder_enumeration",
    "check_multiplier_enumeration",
    "PARITY_OPS",
]

#: Operation names exercised by :func:`check_parity`.
PARITY_OPS = (
    "add", "sub", "mul_table1", "mul_mitchell", "mul_truncated",
    "fma", "rcp", "rsqrt", "sqrt", "log2", "div",
)

#: Mitchell configurations checked by :func:`check_parity` and
#: :func:`check_multiplier_enumeration`.
MITCHELL_CONFIGS = ("fp_tr0", "lp_tr0", "fp_tr8", "lp_tr16")

#: binary32 exponent-field pairs of :func:`check_multiplier_enumeration`:
#: ``E_a + E_b - bias`` at 0 and 1 (a carry decides underflow) and at the
#: largest normal exponent and one past it (a carry decides overflow), each
#: lopsided and balanced; the middle of the range; and a zero or subnormal
#: ``a`` against a normal ``b`` and against a zero or subnormal ``b``.
MULTIPLIER_EXPONENTS = (
    (1, 126), (63, 64), (1, 127), (64, 64), (127, 127),
    (127, 254), (190, 191), (128, 254), (191, 191), (0, 127), (0, 0),
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
    span = min(30, fmt.bias - 1)  # mant * 2^span stays below the maximum
    mant = rng.uniform(1.0, 2.0, size=n_random)
    exp = rng.integers(-span, span + 1, size=n_random)
    sign = np.where(rng.integers(0, 2, size=n_random) == 1, -1.0, 1.0)
    a = (sign * np.ldexp(mant, exp)).astype(fmt.dtype)
    b = a[::-1].copy()
    return a, b


def range_operands(dtype, n_random: int = 4096, seed: int = 9):
    """Operands with no NaN/inf lane, at the edges of the exponent range.

    Each pair puts the product's exponent sum ``E_a + E_b - bias`` at -1,
    0, 1 or 2 (underflow, and a carry into the smallest normal) or around
    the largest normal exponent (a carry into overflow).  One lane in eight
    of each operand is a signed zero or a subnormal, so those pair with
    normals and with each other, and one in four has a short fraction,
    which operand truncation can clear.  With no special lane, these values
    reach the kernels' datapaths rather than the NaN/inf patch.
    """
    fmt = format_for_dtype(dtype)
    rng = np.random.default_rng(seed)
    bias, top = fmt.bias, fmt.max_exponent
    sums = rng.choice([-1, 0, 1, 2, top - 2, top - 1, top, top + 1],
                      size=n_random)
    lo = np.maximum(1, sums + bias - top)
    hi = np.minimum(top, sums + bias - 1)
    exp_a = lo + (rng.random(n_random) * (hi - lo + 1)).astype(np.int64)
    out = []
    for exp in (exp_a, sums + bias - exp_a):
        mant = rng.integers(0, fmt.implicit_one, size=n_random)
        short = rng.random(n_random) < 0.25
        mant[short] >>= rng.integers(0, fmt.mantissa_bits + 1,
                                     size=int(short.sum()))
        # Zero or subnormal: exponent field 0 with a zero or random fraction.
        small = rng.random(n_random) < 0.125
        exp = np.where(small, 0, exp)
        mant = np.where(small & (rng.random(n_random) < 0.5), 0, mant)
        sign = rng.integers(0, 2, size=n_random)
        bits = ((sign << fmt.sign_shift) | (exp << fmt.mantissa_bits)
                | mant).astype(fmt.uint)
        out.append(bits.view(fmt.dtype))
    return out[0], out[1]


def _compare(backend, op, param, dtype, method, *args, **kwargs) -> list:
    """``[]`` if ``backend.method`` equals the reference bit for bit, else
    a one-item list describing the mismatch."""
    fmt = format_for_dtype(dtype)
    ref = getattr(ReferenceBackend(), method)(*args, dtype=dtype, **kwargs)
    got = getattr(backend, method)(*args, dtype=dtype, **kwargs)
    bad = np.nonzero(ref.view(fmt.uint) != got.view(fmt.uint))[0]
    if not bad.size:
        return []
    return [{"op": op, "param": param, "dtype": fmt.dtype.name,
             "mismatches": int(bad.size), "first_index": int(bad[0])}]


def check_parity(backend: ComputeBackend, dtype=np.float32,
                 n_random: int = 4096, ops=PARITY_OPS, seed: int = 7) -> list:
    """Compare ``backend`` against the reference on adversarial vectors.

    Returns a list of mismatch descriptions — empty means the backend is
    bit-identical on every checked operation.
    """
    fmt = format_for_dtype(dtype)
    failures = []
    thresholds = sorted({1, 4, 8, max_threshold(dtype)})
    # Three sweeps: adversarial operands hit every special-case branch,
    # while the finite-only set keeps backends on their fast clean path
    # (several ops delegate wholesale to reference the moment NaN/inf
    # appear, which would otherwise leave the clean path entirely
    # unexercised), and the range set takes zeros, subnormals, underflow
    # and overflow through that clean path.
    for tag, (a, b) in (
        ("adversarial", adversarial_operands(dtype, n_random=n_random,
                                             seed=seed)),
        ("finite", finite_operands(dtype, n_random=n_random, seed=seed + 1)),
        ("range", range_operands(dtype, n_random=n_random, seed=seed + 2)),
    ):
        c = np.concatenate([b[1:], b[:1]])
        for op, param, method, args, kwargs in _calls(a, b, c, fmt,
                                                      thresholds):
            if op in ops:
                label = f"{tag}:{param}" if param else tag
                failures += _compare(backend, op, label, dtype, method,
                                     *args, **kwargs)
    return failures


def _calls(a, b, c, fmt, thresholds) -> list:
    """``(op, param, method, args, kwargs)`` of every checked call."""
    calls = []
    for th in thresholds:
        calls += [("add", f"TH={th}", "imprecise_add", (a, b, th), {}),
                  ("sub", f"TH={th}", "imprecise_subtract", (a, b, th), {}),
                  ("fma", f"TH={th}", "imprecise_fma", (a, b, c, th), {})]
    calls.append(("mul_table1", "", "imprecise_multiply", (a, b), {}))
    for name in MITCHELL_CONFIGS:
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


def _mantissa_blocks(stride: int, block: int = 1 << 18):
    """Every ``stride``-th binary32 mantissa in fixed blocks, each with a
    fixed odd-multiplier hash whose low 23 bits permute the mantissas."""
    ms = np.arange(0, 1 << BINARY32.mantissa_bits, stride, dtype=np.uint64)
    for lo in range(0, ms.size, block):
        m = ms[lo:lo + block]
        yield m, m * np.uint64(0x9E3779B1) + np.uint64(0x2545F)


def _adder_enumeration(d: int, negate: bool, stride: int = 1):
    """binary32 adder operand blocks ``(x, y)`` at exponent difference ``d``.

    Every ``stride``-th mantissa of the smaller operand ``y`` (all 2^23 at
    stride 1) is paired with a larger operand ``x`` whose mantissa is its
    permutation; ``negate`` makes the addition effective subtraction.
    ``x`` lies in [1, 2), so ``y`` stays normal.
    """
    p, exp_x = BINARY32.mantissa_bits, BINARY32.bias
    for m_y, h in _mantissa_blocks(stride):
        m_x = h & np.uint64(BINARY32.mantissa_mask)
        x = ((exp_x << p) | m_x).astype(np.uint32).view(np.float32)
        y = (((exp_x - d) << p) | m_y).astype(np.uint32).view(np.float32)
        yield x, (-y if negate else y)


def check_adder_enumeration(backend: ComputeBackend, stride: int = 1,
                            thresholds=(1, 8, 27)) -> list:
    """Compare ``backend``'s binary32 adder against the reference on
    :func:`_adder_enumeration` at every ``d`` in ``0..TH+1``, both
    effective operations; returns mismatches as :func:`check_parity`."""
    failures = []
    for th in thresholds:
        for d in range(th + 2):
            for negate in (False, True):
                for x, y in _adder_enumeration(d, negate, stride):
                    failures += _compare(
                        backend, "add", f"TH={th},d={d},negate={negate}",
                        np.float32, "imprecise_add", x, y, th)
    return failures


def _multiplier_enumeration(exp_a: int, exp_b: int, stride: int = 1):
    """binary32 multiplier operand blocks ``(a, b)`` at exponent fields
    ``exp_a`` and ``exp_b``.

    Every ``stride``-th mantissa of ``a`` (all 2^23 at stride 1) is paired
    with a ``b`` whose mantissa is its permutation and whose sign is the
    next bit of the same hash, so both product signs occur.
    """
    p = BINARY32.mantissa_bits
    for m_a, h in _mantissa_blocks(stride):
        a = ((exp_a << p) | m_a).astype(np.uint32).view(np.float32)
        b = (((h >> np.uint64(p)) & np.uint64(1)) << np.uint64(31)
             | np.uint64(exp_b << p) | (h & np.uint64(BINARY32.mantissa_mask)))
        yield a, b.astype(np.uint32).view(np.float32)


def check_multiplier_enumeration(backend: ComputeBackend, stride: int = 1,
                                 exponents=MULTIPLIER_EXPONENTS,
                                 units=("table1",) + MITCHELL_CONFIGS) -> list:
    """Compare ``backend``'s binary32 Table-1 and Mitchell multipliers
    against the reference on :func:`_multiplier_enumeration` at every pair
    of ``exponents``; returns mismatches as :func:`check_parity`."""
    failures = []
    for unit in units:
        op, method, extra = "mul_table1", "imprecise_multiply", ()
        if unit != "table1":
            op, method = "mul_mitchell", "configurable_multiply"
            extra = (MultiplierConfig.from_name(unit),)
        for exp_a, exp_b in exponents:
            for a, b in _multiplier_enumeration(exp_a, exp_b, stride):
                failures += _compare(backend, op, f"{unit},e=({exp_a},{exp_b})",
                                     np.float32, method, a, b, *extra)
    return failures
