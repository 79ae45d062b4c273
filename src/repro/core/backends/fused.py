"""The fused kernels: single-pass, scratch-buffered unit operations.

:class:`FusedBackend` is not a registered backend name; it is the kernel
class each shard of the ``threaded`` backend runs (untiled ops go to
shard 0 alone).

The reference units are written for clarity: each materializes 20-40
full-array temporaries (``np.where`` chains, repeated ``decompose``,
unconditional special-case handling).  At the 1M-element scale every one of
those temporaries is a fresh 8 MB allocation that round-trips through the
allocator's mmap threshold, which dominates the runtime.  This class
reimplements the hot datapaths with

- **preallocated scratch buffers** — a grow-only pool of named ``int64`` /
  ``float64`` / ``bool`` working arrays reused across calls, so a steady
  -state op performs no large allocations besides its result;
- **in-place ufuncs** — every field extraction, alignment, and compose step
  writes into scratch via ``out=`` / ``np.copyto(..., where=...)``;
- **single-pass decompose reuse** — sign/exponent/fraction are extracted
  once per operand and reused by every later stage;
- **lazy special-case handling** — a cheap pre-check (an ``exp.max()``
  reduction on the already-extracted exponent fields) skips the NaN/inf
  (and, for the SFUs, zero/negative) branch entirely when no operand needs
  it, which is the overwhelmingly common case for kernel data.  When the
  pre-check fires, the op falls back to patching from (or delegating to)
  the reference unit, so special-value semantics are inherited verbatim.

Every method is bit-identical to the reference backend — asserted over
random and adversarial vectors by :mod:`repro.core.backends.parity` and
``tests/test_backends.py``.

The adder's normalization replaces the reference's float64 ``np.frexp``
MSB extraction (and its overshoot-correction fixup) with one exact float64
conversion of the integer total for binary32/16.  binary64 adds and the
Mitchell decode use an integer-only smear + ``numpy.bitwise_count``
popcount.

Instances hold mutable scratch state: one backend belongs to one
:class:`~repro.core.context.ArithmeticContext` and is not thread-safe.
The pool lives as long as its backend and is freed with it, so the
buffers a large call grew do not outlive that call's context.
"""

from __future__ import annotations

import numpy as np

from ..adder import DEFAULT_THRESHOLD, _special_add, max_threshold
from ..configurable import MultiplierConfig
from ..floatops import flush_subnormals, format_for_dtype
from ..mitchell import POW2_RANGE, pow2_table
from ..multiplier import _special_results
from ..special import LOG2_COEFFS, RECIPROCAL_COEFFS, RSQRT_COEFFS, _SQRT1_2
from .base import ComputeBackend

__all__ = ["FusedBackend", "ScratchPool"]


class ScratchPool:
    """Named, grow-only scratch buffers keyed by (name, dtype).

    ``get`` returns a view of the right shape over a flat buffer that is
    reallocated only when a larger size is requested, so repeated calls at
    a kernel's working size are allocation-free.
    """

    def __init__(self):
        self._buffers: dict = {}

    def get(self, name: str, dtype, shape) -> np.ndarray:
        n = 1
        for dim in shape:
            n *= int(dim)
        key = (name, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(max(n, 1), dtype=dtype)
            self._buffers[key] = buf
        return buf[:n].reshape(shape)


class FusedBackend(ComputeBackend):
    """Scratch-buffered, lazily-special-cased unit kernels."""

    name = "fused"

    def __init__(self):
        self._scratch = ScratchPool()

    # Scratch accessors: int64 working arrays, bool masks, float64 datapath.
    def _i(self, name, shape):
        return self._scratch.get(name, np.int64, shape)

    def _b(self, name, shape):
        return self._scratch.get(name, np.bool_, shape)

    def _f(self, name, shape):
        return self._scratch.get(name, np.float64, shape)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _operands(self, a, b, fmt):
        a = np.asarray(a, dtype=fmt.dtype)
        b = np.asarray(b, dtype=fmt.dtype)
        return np.broadcast_arrays(a, b)

    def _fields(self, tag, values, fmt, shape):
        """Extract (bits, exponent, fraction) once into int64 scratch."""
        bits = self._i("bits_" + tag, shape)
        np.copyto(bits, values.view(fmt.uint))
        exp = self._i("exp_" + tag, shape)
        np.right_shift(bits, fmt.mantissa_bits, out=exp)
        np.bitwise_and(exp, fmt.exponent_mask, out=exp)
        frac = self._i("frac_" + tag, shape)
        np.bitwise_and(bits, fmt.mantissa_mask, out=frac)
        return bits, exp, frac

    def _msb_index(self, total, shape):
        """Exact MSB bit index of positive int64 values, in scratch.

        Integer-only: smear the leading one downward, then popcount.  This
        replaces the reference's float64 ``np.frexp`` extraction and its
        round-up overshoot correction.  Overwrites ``total`` is avoided;
        uses the ``smear``/``shreg`` scratch slots.
        """
        smear = self._i("smear", shape)
        np.copyto(smear, total)
        shreg = self._i("shreg", shape)
        for s in (1, 2, 4, 8, 16, 32):
            np.right_shift(smear, s, out=shreg)
            np.bitwise_or(smear, shreg, out=smear)
        counts = self._scratch.get("popcount", np.uint8, shape)
        np.bitwise_count(smear, out=counts)
        msb = shreg
        np.copyto(msb, counts)
        np.subtract(msb, 1, out=msb)
        return msb

    # ------------------------------------------------------------------
    # Threshold adder
    # ------------------------------------------------------------------
    # The head runs field extraction, magnitude compare, operand select,
    # alignment and the effective-operation sign; the tail applies the
    # threshold cut and normalizes.  Two identities keep it lean:
    #
    # - ``mant_x +/- (y & keep)`` == ``base -/+ (y & low)`` with the
    #   full-precision ``base = mant_x +/- y``, so only the *discarded* low
    #   bits are masked.  Lanes beyond the threshold (d > TH) need no
    #   separate "far" zeroing: the aligned y is already below the keep cut.
    # - when ``p + TH + 2 <= 53`` (always true for binary32/16) the int64
    #   total converts to float64 *exactly*, so the float64 bit pattern IS
    #   the normalized result: its exponent field is the MSB index and its
    #   top fraction bits are the truncated mantissa — normalization,
    #   including the left-shift cancellation case, collapses into one
    #   conversion plus two shifts.  binary64 totals reach 62 bits, so that
    #   dtype keeps the exact integer-domain normalize instead.

    def imprecise_add(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        threshold = int(threshold)
        limit = max_threshold(dtype)
        if not 1 <= threshold <= limit:
            raise ValueError(
                f"threshold must be in [1, {limit}] for {fmt.name}, "
                f"got {threshold}"
            )
        a, b = self._operands(a, b, fmt)
        shape = a.shape
        head = self._add_head(a, b, fmt, shape, threshold)
        if fmt.mantissa_bits + threshold + 2 <= 53:
            result = self._add_tail_exact(fmt, shape, head)
        else:
            result = self._add_tail_int(fmt, shape, threshold, head)
        if head["special"] is not None:
            special_mask, special_vals = head["special"]
            np.copyto(result, special_vals, where=special_mask)
        return result

    def imprecise_subtract(self, a, b, threshold: int = DEFAULT_THRESHOLD,
                           dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        b = np.asarray(b, dtype=fmt.dtype)
        return self.imprecise_add(a, -b, threshold=threshold, dtype=dtype)

    def _add_head(self, a, b, fmt, shape, threshold: int) -> dict:
        """Decompose, align and pre-sum at ``TH`` guard bits (see above)."""
        p = fmt.mantissa_bits
        emask = fmt.exponent_mask
        ss = fmt.sign_shift

        bits_a, exp_a, frac_a = self._fields("a", a, fmt, shape)
        bits_b, exp_b, frac_b = self._fields("b", b, fmt, shape)
        special = None
        if int(exp_a.max()) == emask or int(exp_b.max()) == emask:
            special = _special_add(a, b, fmt)

        mag_mask = (1 << ss) - 1
        mag_a = self._i("t1", shape)
        np.bitwise_and(bits_a, mag_mask, out=mag_a)
        mag_b = self._i("t2", shape)
        np.bitwise_and(bits_b, mag_mask, out=mag_b)
        a_larger = self._b("a_larger", shape)
        np.greater_equal(mag_a, mag_b, out=a_larger)

        mant_a = mag_a
        np.add(frac_a, np.int64(fmt.implicit_one), out=mant_a)
        np.left_shift(mant_a, threshold, out=mant_a)
        zero_a = self._b("zero_a", shape)
        np.equal(exp_a, 0, out=zero_a)
        np.copyto(mant_a, np.int64(0), where=zero_a)
        mant_b = mag_b
        np.add(frac_b, np.int64(fmt.implicit_one), out=mant_b)
        np.left_shift(mant_b, threshold, out=mant_b)
        zero_b = self._b("zero_b", shape)
        np.equal(exp_b, 0, out=zero_b)
        np.copyto(mant_b, np.int64(0), where=zero_b)

        mant_x = self._i("mant_x", shape)
        np.copyto(mant_x, mant_b)
        np.copyto(mant_x, mant_a, where=a_larger)
        y = self._i("add_y", shape)
        np.copyto(y, mant_a)
        np.copyto(y, mant_b, where=a_larger)
        exp_x = self._i("exp_x", shape)
        np.maximum(exp_a, exp_b, out=exp_x)
        d = self._i("d", shape)
        np.minimum(exp_a, exp_b, out=d)
        np.subtract(exp_x, d, out=d)

        sign_a = bits_a
        np.right_shift(bits_a, ss, out=sign_a)
        sign_b = bits_b
        np.right_shift(bits_b, ss, out=sign_b)
        sign_z = self._i("sign_z", shape)
        np.copyto(sign_z, sign_b)
        np.copyto(sign_z, sign_a, where=a_larger)
        sign_part = self._i("add_sign", shape)
        np.left_shift(sign_z, ss, out=sign_part)

        # s = +1 for effective addition, -1 for effective subtraction.
        eff_sub = self._b("eff_sub", shape)
        np.not_equal(sign_a, sign_b, out=eff_sub)
        s = self._i("add_s", shape)
        np.multiply(eff_sub, np.int64(-2), out=s)
        np.add(s, np.int64(1), out=s)

        # Align y at guard scale (the tail applies the threshold cut).
        shift = self._i("shift", shape)
        np.minimum(d, p + threshold + 1, out=shift)
        np.right_shift(y, shift, out=y)

        # base = mant_x + s*y: the full-precision total.  The tail recovers
        # the thresholded total as base - s*(y & low_mask).
        base = self._i("add_base", shape)
        np.multiply(y, s, out=base)
        np.add(base, mant_x, out=base)

        exact53 = p + threshold + 2 <= 53
        # Offset folding the exponent bias of the float64 view (exact path)
        # or the MSB reference point (integer path) into one add.
        offset = (1023 + p + threshold) if exact53 else (p + threshold)
        expk = self._i("add_expk", shape)
        np.subtract(exp_x, np.int64(offset), out=expk)
        adj = None
        if exact53:
            # bits_out = (f64_bits >> (52-p)) + adj composes sign, exponent
            # and fraction in two passes (no carries: in-range exponents
            # keep the fraction's 23 low bits clear of the sign bit).
            adj = self._i("add_adj", shape)
            np.multiply(expk, np.int64(1) << p, out=adj)
            np.add(adj, sign_part, out=adj)

        # Overflow needs exp_z > max_exponent and exp_z <= exp_x + 1.
        can_over = int(exp_x.max()) >= fmt.max_exponent
        return {
            "y": y, "s": s, "base": base, "sign_part": sign_part,
            "expk": expk, "adj": adj, "special": special,
            "can_over": can_over,
        }

    def _add_tail_exact(self, fmt, shape, head: dict) -> np.ndarray:
        """Threshold cut plus the exact float64-conversion normalize."""
        p = fmt.mantissa_bits
        # With TH guard bits, the threshold discards exactly the low p bits
        # of the aligned y.
        low = self._i("add_low", shape)
        np.bitwise_and(head["y"], np.int64((1 << p) - 1), out=low)
        np.multiply(low, head["s"], out=low)
        total = self._i("add_total", shape)
        np.subtract(head["base"], low, out=total)
        zero_total = self._b("zero_total", shape)
        np.equal(total, 0, out=zero_total)

        # total < 2^52 converts exactly: exponent field = MSB index + 1023,
        # fraction field = the normalized mantissa, already truncated when
        # we keep only its top p bits.
        ft = self._f("add_ft", shape)
        np.copyto(ft, total)
        fbits = ft.view(np.int64)
        bits_out = self._i("add_bits", shape)
        np.right_shift(fbits, 52 - p, out=bits_out)
        np.add(bits_out, head["adj"], out=bits_out)

        exp_z = self._i("add_e", shape)
        np.right_shift(fbits, 52, out=exp_z)
        np.add(exp_z, head["expk"], out=exp_z)

        underflow = self._b("underflow", shape)
        np.less(exp_z, 1, out=underflow)
        if head["can_over"]:
            overflow = self._b("overflow", shape)
            np.greater(exp_z, fmt.max_exponent, out=overflow)
            if bool(overflow.any()):
                inf_bits = self._i("inf_bits", shape)
                np.bitwise_or(head["sign_part"],
                              np.int64(fmt.exponent_mask) << p, out=inf_bits)
                np.copyto(bits_out, inf_bits, where=overflow)
        np.copyto(bits_out, head["sign_part"], where=underflow)
        # Exact cancellation yields +0 as in IEEE round-to-nearest.
        np.copyto(bits_out, np.int64(0), where=zero_total)
        return bits_out.astype(fmt.uint).view(fmt.dtype)

    def _add_tail_int(self, fmt, shape, threshold: int,
                      head: dict) -> np.ndarray:
        """Threshold cut plus the exact integer normalize (binary64)."""
        p = fmt.mantissa_bits
        emask = fmt.exponent_mask
        low = self._i("add_low", shape)
        np.bitwise_and(head["y"], np.int64((1 << p) - 1), out=low)
        np.multiply(low, head["s"], out=low)
        total = self._i("add_total", shape)
        np.subtract(head["base"], low, out=total)
        zero_total = self._b("zero_total", shape)
        np.equal(total, 0, out=zero_total)
        np.copyto(total, np.int64(1), where=zero_total)

        msb = self._msb_index(total, shape)
        exp_z = self._i("add_e", shape)
        np.add(head["expk"], msb, out=exp_z)
        norm_shift = msb
        np.subtract(msb, p + threshold, out=norm_shift)

        left = self._i("add_l", shape)
        np.negative(norm_shift, out=left)
        np.maximum(left, 0, out=left)
        right = norm_shift
        np.maximum(norm_shift, 0, out=right)
        np.left_shift(total, left, out=total)
        np.right_shift(total, right, out=total)
        np.right_shift(total, threshold, out=total)
        np.bitwise_and(total, fmt.mantissa_mask, out=total)

        overflow = self._b("overflow", shape)
        np.greater(exp_z, fmt.max_exponent, out=overflow)
        underflow = self._b("underflow", shape)
        np.less(exp_z, 1, out=underflow)
        np.logical_or(underflow, zero_total, out=underflow)

        np.clip(exp_z, 0, emask, out=exp_z)
        np.left_shift(exp_z, p, out=exp_z)
        bits_out = exp_z
        np.bitwise_or(bits_out, head["sign_part"], out=bits_out)
        np.bitwise_or(bits_out, total, out=bits_out)

        if bool(overflow.any()):
            inf_bits = self._i("inf_bits", shape)
            np.bitwise_or(head["sign_part"], np.int64(emask) << p,
                          out=inf_bits)
            np.copyto(bits_out, inf_bits, where=overflow)
        np.copyto(bits_out, head["sign_part"], where=underflow)
        np.copyto(bits_out, np.int64(0), where=zero_total)
        return bits_out.astype(fmt.uint).view(fmt.dtype)

    # ------------------------------------------------------------------
    # Table-1 multiplier
    # ------------------------------------------------------------------
    def _mul_special(self, a, b, exp_a, frac_a, exp_b, frac_b, sign_z, fmt):
        """Reference NaN/inf/zero (mask, values) for a multiplication.

        Computed on the rare special branch only, so plain allocating NumPy
        is fine; mirrors the reference's subnormal-flush of the operands
        feeding :func:`_special_results`.
        """
        zero = np.array(0.0, fmt.dtype)
        a_eff = np.where((exp_a == 0) & (frac_a != 0), zero, a)
        b_eff = np.where((exp_b == 0) & (frac_b != 0), zero, b)
        return _special_results(a_eff, b_eff, sign_z, fmt)

    def imprecise_multiply(self, a, b, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        a, b = self._operands(a, b, fmt)
        shape = a.shape
        p = fmt.mantissa_bits
        emask = fmt.exponent_mask
        fmask = fmt.mantissa_mask
        ss = fmt.sign_shift

        bits_a, exp_a, frac_a = self._fields("a", a, fmt, shape)
        bits_b, exp_b, frac_b = self._fields("b", b, fmt, shape)
        has_special = int(exp_a.max()) == emask or int(exp_b.max()) == emask

        sign_z = self._i("sign_z", shape)
        np.right_shift(bits_a, ss, out=bits_a)
        np.right_shift(bits_b, ss, out=bits_b)
        np.bitwise_xor(bits_a, bits_b, out=sign_z)

        special = None
        if has_special:
            # NaN/inf lanes run the integer datapath harmlessly (their
            # saturated exponents land in the overflow patch) and are then
            # overwritten with the reference special results.
            special = self._mul_special(a, b, exp_a, frac_a, exp_b, frac_b,
                                        sign_z, fmt)

        # Mantissa datapath: 1 + Ma + Mb, halved on carry (LSB truncated).
        frac_sum = frac_a
        np.add(frac_a, frac_b, out=frac_sum)
        carry = frac_b
        np.right_shift(frac_sum, p, out=carry)
        halved = self._i("halved", shape)
        np.bitwise_and(frac_sum, fmask, out=halved)
        np.right_shift(halved, 1, out=halved)
        carried = self._b("carried", shape)
        np.not_equal(carry, 0, out=carried)
        frac_z = frac_sum
        np.copyto(frac_z, halved, where=carried)
        np.bitwise_and(frac_z, fmask, out=frac_z)

        exp_z = self._i("exp_z", shape)
        np.add(exp_a, exp_b, out=exp_z)
        np.subtract(exp_z, fmt.bias, out=exp_z)
        np.add(exp_z, carry, out=exp_z)

        overflow = self._b("overflow", shape)
        np.greater(exp_z, fmt.max_exponent, out=overflow)
        underflow = self._b("underflow", shape)
        np.less(exp_z, 1, out=underflow)
        # Zero or subnormal operand (exp field 0) makes the product zero.
        zero_any = self._b("zero_any", shape)
        np.equal(exp_a, 0, out=zero_any)
        zero_b = self._b("zero_b", shape)
        np.equal(exp_b, 0, out=zero_b)
        np.logical_or(zero_any, zero_b, out=zero_any)

        np.clip(exp_z, 0, emask, out=exp_z)
        sign_part = self._i("sign_part", shape)
        np.left_shift(sign_z, ss, out=sign_part)
        np.left_shift(exp_z, p, out=exp_z)
        bits_out = exp_z
        np.bitwise_or(bits_out, sign_part, out=bits_out)
        np.bitwise_or(bits_out, frac_z, out=bits_out)

        if bool(overflow.any()):
            inf_bits = self._i("inf_bits", shape)
            np.bitwise_or(sign_part, np.int64(emask) << p, out=inf_bits)
            np.copyto(bits_out, inf_bits, where=overflow)
        np.copyto(bits_out, sign_part, where=underflow)
        np.copyto(bits_out, sign_part, where=zero_any)
        result = bits_out.astype(fmt.uint).view(fmt.dtype)
        if special is not None:
            special_mask, special_vals = special
            np.copyto(result, special_vals, where=special_mask)
        return result

    # ------------------------------------------------------------------
    # Mitchell (accuracy-configurable) multiplier
    # ------------------------------------------------------------------
    def _mitchell_head(self, a, b, fmt, shape) -> dict:
        """Operand fields, sign and exponent sum for the Mitchell tail."""
        emask = fmt.exponent_mask
        ss = fmt.sign_shift
        bits_a, exp_a, frac_a = self._fields("a", a, fmt, shape)
        bits_b, exp_b, frac_b = self._fields("b", b, fmt, shape)
        has_special = int(exp_a.max()) == emask or int(exp_b.max()) == emask

        sign_z = self._i("sign_z", shape)
        np.right_shift(bits_a, ss, out=bits_a)
        np.right_shift(bits_b, ss, out=bits_b)
        np.bitwise_xor(bits_a, bits_b, out=sign_z)
        special = None
        if has_special:
            special = self._mul_special(a, b, exp_a, frac_a, exp_b, frac_b,
                                        sign_z, fmt)
        sign_part = self._i("bm_sign", shape)
        np.left_shift(sign_z, ss, out=sign_part)

        esum = self._i("bm_esum", shape)
        np.add(exp_a, exp_b, out=esum)
        np.subtract(esum, np.int64(fmt.bias), out=esum)
        zero_any = self._b("bm_zero", shape)
        np.equal(exp_a, 0, out=zero_any)
        zero_b = self._b("zero_b", shape)
        np.equal(exp_b, 0, out=zero_b)
        np.logical_or(zero_any, zero_b, out=zero_any)
        return {
            "frac_a": frac_a, "frac_b": frac_b, "esum": esum,
            "sign_part": sign_part, "zero_any": zero_any, "special": special,
            # Range prechecks let the tail skip whole overflow/underflow/
            # zero passes when no lane can need them (the overwhelmingly
            # common case).
            "esum_lo": int(esum.min()), "esum_hi": int(esum.max()),
            "has_zero": bool(zero_any.any()),
        }

    def _mitchell_log_fields(self, fmt, shape, head: dict) -> None:
        """Log-domain decode fields of the untruncated operand fractions.

        Operand truncation clears only fraction bits *below* the leading
        one (or the whole fraction), so each operand's MSB index — and with
        it the ``2^{-msb}`` normalizer and the ``2^{k1+k2}`` decode scale —
        does not depend on the truncation; zero-after-truncation reduces to
        an integer compare against the MSB index.  The powers of
        two come from the shared :func:`~repro.core.mitchell.pow2_table`.
        """
        p = fmt.mantissa_bits
        table = pow2_table()
        idx = self._i("bm_p2idx", shape)
        for tag in ("a", "b"):
            frac = head["frac_" + tag]
            safe = self._i("bm_safe", shape)
            np.maximum(frac, np.int64(1), out=safe)
            msb = self._i("bm_msb_" + tag, shape)
            np.copyto(msb, self._msb_index(safe, shape))
            # A zero fraction marks with msb = -1: below every truncation.
            zero = self._b("bm_fz", shape)
            np.equal(frac, 0, out=zero)
            np.copyto(msb, np.int64(-1), where=zero)
            inv = self._f("bm_inv_" + tag, shape)
            np.subtract(np.int64(POW2_RANGE), msb, out=idx)
            np.take(table, idx, out=inv)
            head["msb_" + tag] = msb
            head["inv_" + tag] = inv
        scale = self._f("bm_scale", shape)
        np.add(head["msb_a"], head["msb_b"], out=idx)
        np.subtract(idx, np.int64(2 * p - POW2_RANGE), out=idx)
        np.take(table, idx, out=scale)
        scale2 = self._f("bm_scale2", shape)
        np.multiply(scale, 2.0, out=scale2)
        min_msb = self._i("bm_minmsb", shape)
        np.minimum(head["msb_a"], head["msb_b"], out=min_msb)
        head["min_msb"] = min_msb
        head["log_scale"] = scale
        head["log_scale2"] = scale2

    def _mitchell_tail(self, fmt, shape, config: MultiplierConfig,
                       head: dict) -> np.ndarray:
        """One Mitchell configuration over already-extracted fields."""
        p = fmt.mantissa_bits
        emask = fmt.exponent_mask
        scale = float(fmt.implicit_one)
        inv_scale = 1.0 / scale  # exact: scale is a power of two
        sign_part = head["sign_part"]

        # Operand truncation into separate scratch: the head's fraction
        # fields stay pristine for the log-domain decode fields.
        if config.truncation:
            cut = np.int64(~((1 << config.truncation) - 1) & fmt.mantissa_mask)
            fa = self._i("bm_fa", shape)
            np.bitwise_and(head["frac_a"], cut, out=fa)
            fb = self._i("bm_fb", shape)
            np.bitwise_and(head["frac_b"], cut, out=fb)
        else:
            fa, fb = head["frac_a"], head["frac_b"]

        # Exact dyadic mantissa fractions in the float64 datapath.
        ma = self._f("bm_ma", shape)
        np.multiply(fa, inv_scale, out=ma)
        mb = self._f("bm_mb", shape)
        np.multiply(fb, inv_scale, out=mb)

        if config.path == "log":
            # MA of (1+Ma)(1+Mb): both operands are in [1, 2), so the log
            # decomposition is k = 0, x = M exactly and the product reduces
            # to 1 + Ma + Mb (or 2 (Ma + Mb) past the carry) — the same
            # dyadic float64 values mitchell_mantissa_product computes.
            x_sum = ma
            np.add(ma, mb, out=x_sum)
            mant_product = self._f("bm_mant", shape)
            np.add(x_sum, 1.0, out=mant_product)
            doubled = mb
            np.multiply(x_sum, 2.0, out=doubled)
            carried = self._b("bm_carried", shape)
            np.greater_equal(x_sum, 1.0, out=carried)
            np.copyto(mant_product, doubled, where=carried)
        else:
            # Cross term MA(Ma, Mb) with the decode scales taken from the
            # untruncated fields: only the x-fraction alignment and the
            # piecewise decode remain, and every multiply is by an exact
            # power of two — the same float64 values, in the same order, as
            # mitchell_mantissa_product.
            self._mitchell_log_fields(fmt, shape, head)
            x1 = self._f("bm_x1", shape)
            np.multiply(fa, head["inv_a"], out=x1)
            np.subtract(x1, 1.0, out=x1)
            x2 = self._f("bm_x2", shape)
            np.multiply(fb, head["inv_b"], out=x2)
            np.subtract(x2, 1.0, out=x2)
            x_sum = x1
            np.add(x1, x2, out=x_sum)
            cross = self._f("bm_cross", shape)
            np.add(x_sum, 1.0, out=cross)
            np.multiply(cross, head["log_scale"], out=cross)
            doubled = x2
            np.multiply(x_sum, head["log_scale2"], out=doubled)
            carried = self._b("bm_carried", shape)
            np.greater_equal(x_sum, 1.0, out=carried)
            np.copyto(cross, doubled, where=carried)
            # Zero cross where either fraction truncates away entirely.
            zc = self._b("bm_zc", shape)
            np.less(head["min_msb"], np.int64(config.truncation), out=zc)
            np.copyto(cross, 0.0, where=zc)
            mant_product = self._f("bm_mant", shape)
            np.add(ma, 1.0, out=mant_product)
            np.add(mant_product, mb, out=mant_product)
            np.add(mant_product, cross, out=mant_product)

        carry = self._b("bm_carry", shape)
        np.greater_equal(mant_product, 2.0, out=carry)
        mant_norm = mant_product
        halved = self._f("bm_half", shape)
        np.multiply(mant_product, 0.5, out=halved)
        np.copyto(mant_norm, halved, where=carry)

        # mant_norm is in [1, 2) exactly, so (mant_norm - 1) * 2^p is an
        # exact non-negative float64 below 2^p: the int cast truncates like
        # the reference's floor+clip without either pass.
        np.subtract(mant_norm, 1.0, out=mant_norm)
        np.multiply(mant_norm, scale, out=mant_norm)
        frac_z = self._i("bm_frz", shape)
        np.copyto(frac_z, mant_norm, casting="unsafe")

        exp_z = self._i("bm_e", shape)
        np.add(head["esum"], carry, out=exp_z)

        # The head's exponent-range prechecks bound esum + carry, so the
        # overflow/underflow passes run only when some lane can need them.
        may_overflow = head["esum_hi"] + 1 > fmt.max_exponent
        may_underflow = head["esum_lo"] < 1
        overflow = None
        if may_overflow:
            overflow = self._b("overflow", shape)
            np.greater(exp_z, fmt.max_exponent, out=overflow)
        underflow = None
        if may_underflow:
            underflow = self._b("underflow", shape)
            np.less(exp_z, 1, out=underflow)

        # Out-of-range exponents compose garbage bits here, but every such
        # lane is overwritten by the overflow/underflow masks below.
        np.left_shift(exp_z, p, out=exp_z)
        bits_out = exp_z
        np.bitwise_or(bits_out, sign_part, out=bits_out)
        np.bitwise_or(bits_out, frac_z, out=bits_out)

        if overflow is not None and bool(overflow.any()):
            inf_bits = self._i("inf_bits", shape)
            np.bitwise_or(sign_part, np.int64(emask) << p, out=inf_bits)
            np.copyto(bits_out, inf_bits, where=overflow)
        if underflow is not None:
            np.copyto(bits_out, sign_part, where=underflow)
        if head["has_zero"]:
            np.copyto(bits_out, sign_part, where=head["zero_any"])
        result = bits_out.astype(fmt.uint).view(fmt.dtype)
        if head["special"] is not None:
            special_mask, special_vals = head["special"]
            np.copyto(result, special_vals, where=special_mask)
        return result

    def _check_mitchell(self, config: MultiplierConfig, fmt) -> None:
        if config.truncation > fmt.mantissa_bits:
            raise ValueError(
                f"truncation {config.truncation} exceeds the "
                f"{fmt.mantissa_bits}-bit mantissa of {fmt.name}"
            )

    #: Element-block width for the Mitchell path.  The ~20 scratch passes
    #: run over one block before the next block starts, so they hit
    #: cache-resident working arrays instead of streaming full-size buffers
    #: through memory on every pass.
    MITCHELL_BLOCK = 1 << 15

    def configurable_multiply(self, a, b, config: MultiplierConfig,
                              dtype=np.float32) -> np.ndarray:
        """Head + tail over cache-sized element blocks."""
        fmt = format_for_dtype(dtype)
        self._check_mitchell(config, fmt)
        a, b = self._operands(a, b, fmt)
        shape = a.shape
        n = int(a.size)
        block = self.MITCHELL_BLOCK
        if n <= block:
            head = self._mitchell_head(a, b, fmt, shape)
            return self._mitchell_tail(fmt, shape, config, head)
        flat_a = np.ascontiguousarray(a.reshape(-1))
        flat_b = np.ascontiguousarray(b.reshape(-1))
        out = np.empty(n, dtype=fmt.dtype)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            ta = flat_a[lo:hi]
            tb = flat_b[lo:hi]
            head = self._mitchell_head(ta, tb, fmt, ta.shape)
            out[lo:hi] = self._mitchell_tail(fmt, ta.shape, config, head)
        return out.reshape(shape)

    # ------------------------------------------------------------------
    # bt_N truncation baseline
    # ------------------------------------------------------------------
    def _check_bt(self, truncation: int, fmt) -> None:
        if not 0 <= truncation <= fmt.mantissa_bits:
            raise ValueError(
                f"truncation must be in [0, {fmt.mantissa_bits}], "
                f"got {truncation}"
            )

    def _bt_head(self, a, b, fmt, shape) -> dict:
        """Subnormal-flushed operand bits for the ``bt_N`` reduction.

        Per-operand special masks (NaN / inf) are kept so the tail can
        pass those lanes through the mantissa reduction unreduced — the
        exact semantics of the reference ``round_mantissa``.  The float64
        product then runs on full arrays with the same element values the
        reference sees, which is what keeps NaN payload propagation (an
        array-shape-sensitive NumPy detail) bit-identical.
        """
        emask = fmt.exponent_mask
        ss = fmt.sign_shift
        bits_a, exp_a, frac_a = self._fields("a", a, fmt, shape)
        bits_b, exp_b, frac_b = self._fields("b", b, fmt, shape)
        spec_a = spec_b = None
        if int(exp_a.max()) == emask:
            spec_a = self._b("bt_spec_a", shape)
            np.equal(exp_a, emask, out=spec_a)
        if int(exp_b.max()) == emask:
            spec_b = self._b("bt_spec_b", shape)
            np.equal(exp_b, emask, out=spec_b)

        # Flush subnormal operands to the signed zero pattern.
        sign_mask = np.int64(1) << ss
        for bits, exp in ((bits_a, exp_a), (bits_b, exp_b)):
            sub = self._b("sub", shape)
            np.equal(exp, 0, out=sub)
            signed_zero = self._i("signed_zero", shape)
            np.bitwise_and(bits, sign_mask, out=signed_zero)
            np.copyto(bits, signed_zero, where=sub)
        return {"bits_a": bits_a, "bits_b": bits_b,
                "spec_a": spec_a, "spec_b": spec_b}

    def _bt_tail(self, fmt, shape, truncation: int, rounding: bool,
                 head: dict) -> np.ndarray:
        """One ``bt_N`` reduction over already-flushed operand bits."""
        ra = self._i("btm_a", shape)
        np.copyto(ra, head["bits_a"])
        rb = self._i("btm_b", shape)
        np.copyto(rb, head["bits_b"])
        if truncation:
            # In the signed-int64 domain ~((1<<t)-1) keeps every high bit
            # (including the sign bit for binary64 patterns), so no width
            # clamp is needed.
            mask = np.int64(~((1 << truncation) - 1))
            for bits, spec, orig in ((ra, head["spec_a"], head["bits_a"]),
                                     (rb, head["spec_b"], head["bits_b"])):
                if rounding:
                    np.add(bits, np.int64(1 << (truncation - 1)), out=bits)
                np.bitwise_and(bits, mask, out=bits)
                if spec is not None:
                    # NaN / inf operands pass through unreduced, exactly as
                    # the reference round_mantissa preserves them.
                    np.copyto(bits, orig, where=spec)

        # Exact float64 product of the reduced operands, then result flush.
        # NaN operands, overflow to inf and inf * 0 = NaN are intended.
        fa = self._f("fa", shape)
        fb = self._f("fb", shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(fa, ra.astype(fmt.uint).view(fmt.dtype))
            np.copyto(fb, rb.astype(fmt.uint).view(fmt.dtype))
            np.multiply(fa, fb, out=fa)
            product = fa.astype(fmt.dtype)
        return flush_subnormals(product, fmt)

    def truncated_multiply(self, a, b, truncation: int = 0, dtype=np.float32,
                           rounding: bool = True) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        self._check_bt(truncation, fmt)
        a, b = self._operands(a, b, fmt)
        shape = a.shape
        head = self._bt_head(a, b, fmt, shape)
        return self._bt_tail(fmt, shape, truncation, bool(rounding), head)

    # ------------------------------------------------------------------
    # FMA: fused multiply feeding the fused adder
    # ------------------------------------------------------------------
    def imprecise_fma(self, a, b, c, threshold: int = DEFAULT_THRESHOLD,
                      dtype=np.float32) -> np.ndarray:
        product = self.imprecise_multiply(a, b, dtype=dtype)
        return self.imprecise_add(product, c, threshold=threshold, dtype=dtype)

    # ------------------------------------------------------------------
    # Linear SFUs
    # ------------------------------------------------------------------
    def _sfu_fields(self, x, fmt, signed_ok: bool):
        """Decompose an SFU operand; None signals the reference fallback.

        Returns ``(exp, frac, negative_or_None, patch_or_None)``.  The
        fast path runs on every lane; ``patch`` marks the lanes the caller
        must overwrite from the reference unit (zero / inf / NaN /
        subnormal, plus negatives unless ``signed_ok``).  Those lanes are
        neutralized to 1.0 here so the fast path stays warning-free.
        ``None`` signals the wholesale reference fallback (0-d input, or
        every lane needs patching anyway).
        """
        if x.ndim == 0:
            return None
        shape = x.shape
        bits = self._i("bits_a", shape)
        np.copyto(bits, x.view(fmt.uint))
        exp = self._i("exp_a", shape)
        np.right_shift(bits, fmt.mantissa_bits, out=exp)
        np.bitwise_and(exp, fmt.exponent_mask, out=exp)
        sign = self._i("sign_a", shape)
        np.right_shift(bits, fmt.sign_shift, out=sign)
        frac = self._i("frac_a", shape)
        np.bitwise_and(bits, fmt.mantissa_mask, out=frac)

        patch = self._b("sfu_patch", shape)
        np.equal(exp, fmt.exponent_mask, out=patch)
        sub = self._b("sfu_sub", shape)
        np.equal(exp, 0, out=sub)
        np.logical_or(patch, sub, out=patch)
        negative = None
        if signed_ok:
            negative = self._b("negative", shape)
            np.not_equal(sign, 0, out=negative)
        else:
            neg = self._b("negative", shape)
            np.not_equal(sign, 0, out=neg)
            np.logical_or(patch, neg, out=patch)
        if not bool(patch.any()):
            return exp, frac, negative, None
        if bool(patch.all()):
            return None
        np.copyto(exp, np.int64(fmt.bias), where=patch)
        np.copyto(frac, np.int64(0), where=patch)
        return exp, frac, negative, patch

    def _mantissa_and_exponent(self, exp, frac, fmt, shape):
        """float64 mantissa 1+M in [1, 2) and unbiased exponent, in scratch."""
        mant = self._f("mant", shape)
        np.divide(frac, float(fmt.implicit_one), out=mant)
        np.add(mant, 1.0, out=mant)
        e = self._i("e", shape)
        np.subtract(exp, fmt.bias, out=e)
        return mant, e

    def _quantize(self, values, fmt):
        with np.errstate(over="ignore"):  # out-of-range results become inf
            out = values.astype(fmt.dtype)
        return flush_subnormals(out, fmt)

    def imprecise_reciprocal(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        x = np.asarray(x, dtype=fmt.dtype)
        fields = self._sfu_fields(x, fmt, signed_ok=True)
        if fields is None:
            return ComputeBackend.imprecise_reciprocal(self, x, dtype=dtype)
        exp, frac, negative, patch = fields
        shape = x.shape
        mant, e = self._mantissa_and_exponent(exp, frac, fmt, shape)
        xr = mant
        np.multiply(mant, 0.5, out=xr)
        c0, c1 = RECIPROCAL_COEFFS
        approx = self._f("approx", shape)
        np.multiply(xr, c1, out=approx)
        np.add(approx, c0, out=approx)
        np.add(e, 1, out=e)
        np.negative(e, out=e)
        scale = self._f("scale", shape)
        np.copyto(scale, e)
        np.exp2(scale, out=scale)
        np.multiply(approx, scale, out=approx)
        negated = self._f("negated", shape)
        np.negative(approx, out=negated)
        np.copyto(approx, negated, where=negative)
        result = self._quantize(approx, fmt)
        if patch is not None:
            result[patch] = ComputeBackend.imprecise_reciprocal(
                self, x[patch], dtype=dtype)
        return result

    def imprecise_rsqrt(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        x = np.asarray(x, dtype=fmt.dtype)
        fields = self._sfu_fields(x, fmt, signed_ok=False)
        if fields is None:
            return ComputeBackend.imprecise_rsqrt(self, x, dtype=dtype)
        exp, frac, _, patch = fields
        shape = x.shape
        mant, e = self._mantissa_and_exponent(exp, frac, fmt, shape)
        xr = mant
        np.multiply(mant, 0.5, out=xr)
        c0, c1 = RSQRT_COEFFS
        lin = self._f("approx", shape)
        np.multiply(xr, c1, out=lin)
        np.add(lin, c0, out=lin)
        # e1 = e + 1 = 2q + r with r in {0, 1}
        e1 = e
        np.add(e1, 1, out=e1)
        q = self._i("q", shape)
        np.floor_divide(e1, 2, out=q)
        r = self._i("r", shape)
        np.left_shift(q, 1, out=r)
        np.subtract(e1, r, out=r)
        scale = self._f("scale", shape)
        nq = self._i("shift", shape)
        np.negative(q, out=nq)
        np.copyto(scale, nq)
        np.exp2(scale, out=scale)
        np.multiply(lin, scale, out=lin)
        odd = self._b("odd", shape)
        np.equal(r, 1, out=odd)
        factor = self._f("factor", shape)
        np.copyto(factor, 1.0)
        np.copyto(factor, _SQRT1_2, where=odd)
        np.multiply(lin, factor, out=lin)
        result = self._quantize(lin, fmt)
        if patch is not None:
            result[patch] = ComputeBackend.imprecise_rsqrt(
                self, x[patch], dtype=dtype)
        return result

    def imprecise_sqrt(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        x = np.asarray(x, dtype=fmt.dtype)
        fields = self._sfu_fields(x, fmt, signed_ok=False)
        if fields is None:
            return ComputeBackend.imprecise_sqrt(self, x, dtype=dtype)
        exp, frac, _, patch = fields
        shape = x.shape
        mant, e = self._mantissa_and_exponent(exp, frac, fmt, shape)
        q = self._i("q", shape)
        np.floor_divide(e, 2, out=q)
        r = self._i("r", shape)
        np.left_shift(q, 1, out=r)
        np.subtract(e, r, out=r)
        # xr = mant * 2^r * 0.25 in [0.25, 1)
        scale = self._f("scale", shape)
        np.copyto(scale, r)
        np.exp2(scale, out=scale)
        xr = mant
        np.multiply(mant, scale, out=xr)
        np.multiply(xr, 0.25, out=xr)
        c0, c1 = RSQRT_COEFFS
        lin = self._f("approx", shape)
        np.multiply(xr, c1, out=lin)
        np.add(lin, c0, out=lin)
        np.multiply(xr, lin, out=lin)
        np.add(q, 1, out=q)
        np.copyto(scale, q)
        np.exp2(scale, out=scale)
        np.multiply(lin, scale, out=lin)
        result = self._quantize(lin, fmt)
        if patch is not None:
            result[patch] = ComputeBackend.imprecise_sqrt(
                self, x[patch], dtype=dtype)
        return result

    def imprecise_log2(self, x, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        x = np.asarray(x, dtype=fmt.dtype)
        fields = self._sfu_fields(x, fmt, signed_ok=False)
        if fields is None:
            return ComputeBackend.imprecise_log2(self, x, dtype=dtype)
        exp, frac, _, patch = fields
        shape = x.shape
        mant, e = self._mantissa_and_exponent(exp, frac, fmt, shape)
        c0, c1 = LOG2_COEFFS
        approx = self._f("approx", shape)
        np.multiply(mant, c1, out=approx)
        ef = self._f("scale", shape)
        np.copyto(ef, e)
        np.add(ef, approx, out=approx)
        np.add(approx, c0, out=approx)
        result = self._quantize(approx, fmt)
        if patch is not None:
            result[patch] = ComputeBackend.imprecise_log2(
                self, x[patch], dtype=dtype)
        return result

    def imprecise_divide(self, a, b, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        a = flush_subnormals(np.asarray(a, dtype=fmt.dtype), fmt)
        b = np.asarray(b, dtype=fmt.dtype)
        rcp = self.imprecise_reciprocal(b, dtype=dtype)
        a, rcp = np.broadcast_arrays(a, rcp)
        fa = self._f("fa", a.shape)
        fb = self._f("fb", a.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(fa, a)
            np.copyto(fb, rcp)
            np.multiply(fa, fb, out=fa)
        return self._quantize(fa, fmt)
