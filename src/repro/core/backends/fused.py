"""The fused kernels: single-pass, scratch-buffered unit operations.

:class:`FusedBackend` is not a registered backend name; it is the kernel
class each shard of the ``threaded`` backend runs (untiled ops go to
shard 0 alone).

The reference units are written for clarity: each materializes 20-40
full-array temporaries (``np.where`` chains, repeated ``decompose``,
unconditional special-case handling).  These kernels instead

- write every pass with ``out=`` into a grow-only pool of named scratch
  arrays (:class:`ScratchPool`), so a steady-state op allocates nothing
  but its result;
- extract each operand's fields once and reuse them in every stage;
- select branch-free (xor masks, ``maximum``, multiplies by a bool)
  rather than copy under a data-dependent ``where=`` mask;
- skip the NaN/inf (and, for the SFUs, zero/negative) branch after one
  ``max()`` reduction when no lane needs it, and patch from (or delegate
  to) the reference unit when one does, so special values keep its
  semantics verbatim.

The binary32/16 threshold adder and multipliers run in float64, where
their whole datapaths are exact: power-of-two scalings built from
exponent bits, adds, and a bit mask for the truncating normalize, then a
flush compare and the cast to the format.  binary64 adds keep an integer
datapath that finds MSB indices with an integer smear +
``numpy.bitwise_count`` popcount; binary64 products compose their
exponent and fraction as integers.

Every method is bit-identical to the reference backend — asserted over
random and adversarial vectors by :mod:`repro.core.backends.parity` and
``tests/test_backends.py``.

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
from ..multiplier import _special_results
from ..special import LOG2_COEFFS, RECIPROCAL_COEFFS, RSQRT_COEFFS, _SQRT1_2
from .base import ComputeBackend

__all__ = ["FusedBackend", "ScratchPool"]

# float64 bit fields: the exponent field, the fraction field, and 1.0.
_EXP = np.int64(0x7FF << 52)
_FRAC = np.int64((1 << 52) - 1)
_ONE = np.int64(1023 << 52)
#: rsqrt's factor for an even (0) or odd (1) exponent remainder.
_RSQRT_ODD = np.array([1.0, _SQRT1_2])


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
    # binary32/16 run in the float64 domain.  The cut keeps the smaller
    # operand y down to 2^(E_x - TH) only, E_x the larger operand's
    # exponent: y_t = trunc(y 2^(TH - E_x)) 2^(E_x - TH) scales by powers
    # of two and is exact.  x + y_t is a multiple of 2^(E_x - max(p, TH))
    # below 2^(E_x + 2), so with p + TH + 2 <= 53 the sum is exact too, and
    # clearing its low 52 - p bits is the truncating normalize.  binary64
    # totals reach 62 bits: its head aligns and pre-sums at TH guard bits,
    # its tail cuts as ``base -/+ (y & low)`` and normalizes by MSB index.

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
        if fmt.mantissa_bits + threshold + 2 <= 53:
            return self._add_float(a, b, fmt, shape, threshold)
        head = self._add_head(a, b, fmt, shape, threshold)
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

    def _add_float(self, a, b, fmt, shape, threshold: int) -> np.ndarray:
        """The exact float64-domain adder for ``p + TH + 2 <= 53``."""
        p = fmt.mantissa_bits
        sint = np.dtype(f"i{fmt.uint.itemsize}")
        mag_mask = sint.type((1 << fmt.sign_shift) - 1)
        bits_a, bits_b = a.view(sint), b.view(sint)
        mag_a = self._scratch.get("mag_a", sint, shape)
        np.bitwise_and(bits_a, mag_mask, out=mag_a)
        mag_b = self._scratch.get("mag_b", sint, shape)
        np.bitwise_and(bits_b, mag_mask, out=mag_b)
        lo_a, lo_b = int(mag_a.min()), int(mag_b.min())
        special = None
        if max(int(mag_a.max()), int(mag_b.max())) >= fmt.exponent_mask << p:
            special = _special_add(a, b, fmt)
        # Branch-free select: x is the larger magnitude (a tie keeps a), y
        # the other operand.  mag_a - mag_b, arithmetic-shifted by the width
        # less one, is all ones exactly where b is larger: the swap mask.
        swap = mag_a
        np.subtract(mag_a, mag_b, out=swap)
        np.right_shift(swap, 8 * sint.itemsize - 1, out=swap)
        flip = mag_b
        np.bitwise_xor(bits_a, bits_b, out=flip)
        np.bitwise_and(flip, swap, out=flip)
        bits_x = swap
        np.bitwise_xor(bits_a, flip, out=bits_x)
        bits_y = flip
        np.bitwise_xor(bits_b, flip, out=bits_y)
        x, y = self._f("add_x", shape), self._f("add_y", shape)
        # NaN/inf lanes compute garbage that the special patch overwrites;
        # the final cast overflows to inf exactly where the hardware does.
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(x, bits_x.view(fmt.dtype))
            np.copyto(y, bits_y.view(fmt.dtype))
            tiny = 2.0 ** (1 - fmt.bias)
            if min(lo_a, lo_b) < fmt.implicit_one:
                # Zero and subnormal operands flush to +0, so a flushed x
                # (and with it y) sums to +0 even from -0 + -0.
                small = self._b("add_small", shape)
                for v in (x, y):
                    np.less(np.abs(v, out=self._f("add_abs", shape)), tiny,
                            out=small)
                    np.copyto(v, 0.0, where=small)

            # 2^E_x is x's bare exponent field; 2^-E_x is built from it in
            # the integer domain, where x = 0 gives a finite 2^1023.
            pow_x = self._i("add_pow", shape)
            np.bitwise_and(x.view(np.int64), np.int64(0x7FF << 52), out=pow_x)
            inv_x = self._i("add_inv", shape)
            np.subtract(np.int64(2046 << 52), pow_x, out=inv_x)
            cut = y
            np.multiply(y, inv_x.view(np.float64), out=cut)
            np.multiply(cut, 2.0 ** threshold, out=cut)
            np.trunc(cut, out=cut)
            np.multiply(cut, 2.0 ** -threshold, out=cut)
            np.multiply(cut, pow_x.view(np.float64), out=cut)
            s = x
            np.add(x, cut, out=s)
            s_bits = s.view(np.int64)
            np.bitwise_and(s_bits, np.int64(-1 << (52 - p)), out=s_bits)
            # A nonzero sum is at least 2^(E_x - max(p, TH)), so only a
            # small E_x can take it below the smallest normal, where it
            # flushes to a zero with the sign of x.  Every x is at least
            # the larger of the two operand minima.
            if max(lo_a, lo_b) >> p < 1 + max(p, threshold):
                under = self._b("underflow", shape)
                np.less(np.abs(s, out=cut), tiny, out=under)
                np.multiply(s, 0.0, out=s, where=under)
            result = s.astype(fmt.dtype)
        if special is not None:
            np.copyto(result, special[1], where=special[0])
        return result

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

        # The exponent less the MSB reference point, folded into one add.
        expk = self._i("add_expk", shape)
        np.subtract(exp_x, np.int64(p + threshold), out=expk)
        return {
            "y": y, "s": s, "base": base, "sign_part": sign_part,
            "expk": expk, "special": special,
        }

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
    # Multipliers: Table-1 and Mitchell
    # ------------------------------------------------------------------
    # Both run in the float64 domain on |a| and |b|: an operand's float64
    # bits give 2^E (its bare exponent field) and 1 + M (its fraction under
    # exponent field 1023).  Each unit forms 2^(E_a + E_b) times a mantissa
    # product in [1, 4) with the float64 values the reference computes, so
    # clearing the low 52 - p bits is the truncating normalize.  binary32/16
    # results are exact in float64 and need only a flush compare and the
    # cast, which overflows to inf exactly where the hardware does.
    # binary64 results leave float64's range, so they compose carry,
    # fraction and exponent sum as integers.  The sign is the operands'
    # xor'd sign bit.

    def _mul_head(self, a, b, fmt, shape) -> dict:
        """float64 |a|, |b| and their 2^E, and the range guards."""
        head = {"a": a, "b": b, "special": None}
        tiny = np.int64((1024 - fmt.bias) << 52)  # 2^E of the least normal
        lo, hi = [], []
        for tag, v in (("a", a), ("b", b)):
            x = v  # binary64 reads the bit fields only
            if fmt.mantissa_bits < 52:
                x = np.absolute(v, out=self._f("mul_" + tag, shape))
            pow_e = self._i("mul_pow_" + tag, shape)
            np.bitwise_and(x.view(np.int64), _EXP, out=pow_e)
            head["x_" + tag], head["pow_" + tag] = x, pow_e
            lo.append(int(pow_e.min()))
            hi.append(int(pow_e.max()))
        if max(hi) == _EXP:
            # The reference's NaN/inf/zero results from its subnormal-
            # flushed operands: allocating NumPy on this rare branch.
            sign_z = (a.view(fmt.uint) ^ b.view(fmt.uint)) >> fmt.sign_shift
            head["special"] = _special_results(
                flush_subnormals(a, fmt), flush_subnormals(b, fmt), sign_z,
                fmt)
        # A zero or subnormal operand zeroes its lane.  Widening makes a
        # binary32/16 subnormal normal, so it is zeroed here.
        head["small"] = min(lo) < tiny
        if head["small"] and fmt.mantissa_bits < 52:
            normal = self._b("mul_normal", shape)
            for tag in ("a", "b"):
                np.greater_equal(head["pow_" + tag], tiny, out=normal)
                np.multiply(head["pow_" + tag], normal,
                            out=head["pow_" + tag])
                np.multiply(head["x_" + tag], normal, out=head["x_" + tag])
        # Every lane's exponent sum is at least the two operand minima's.
        head["may_underflow"] = ((lo[0] >> 52) + (lo[1] >> 52) - 2046
                                 < 1 - fmt.bias)
        return head

    def _mul_float_tail(self, r, fmt, shape, head) -> np.ndarray:
        """binary32/16: truncate, flush and cast the exact product r."""
        r_bits = r.view(np.int64)
        np.bitwise_and(r_bits, np.int64(-1 << (52 - fmt.mantissa_bits)),
                       out=r_bits)
        if head["may_underflow"]:
            normal = self._b("mul_normal", shape)
            np.greater_equal(r, 2.0 ** (1 - fmt.bias), out=normal)
            np.multiply(r, normal, out=r)
        return self._mul_sign(r.astype(fmt.dtype), fmt, shape, head)

    def _mul_int_tail(self, carry, frac, fmt, shape, head) -> np.ndarray:
        """binary64: compose ``E_a + E_b + carry`` with the fraction."""
        exp_z = carry
        e = self._i("mul_e", shape)
        for tag in ("a", "b"):
            np.right_shift(head["pow_" + tag], 52, out=e)
            np.add(exp_z, e, out=exp_z)
        np.subtract(exp_z, fmt.bias, out=exp_z)
        np.clip(exp_z, 0, fmt.exponent_mask, out=exp_z)
        if head["small"]:  # a zero or subnormal operand
            np.minimum(head["pow_a"], head["pow_b"], out=e)
            np.multiply(exp_z, e.astype(bool), out=exp_z)
        normal = exp_z.astype(bool)
        np.left_shift(exp_z, 52, out=exp_z)
        np.bitwise_or(exp_z, frac, out=exp_z)
        np.minimum(exp_z, _EXP, out=exp_z)  # a saturated field is inf
        np.multiply(exp_z, normal, out=exp_z)
        return self._mul_sign(exp_z.view(np.float64).copy(), fmt, shape, head)

    def _mul_sign(self, result, fmt, shape, head) -> np.ndarray:
        """OR in the xor'd operand signs, then patch NaN/inf lanes."""
        sign = self._scratch.get("mul_sign", fmt.uint, shape)
        np.bitwise_xor(head["a"].view(fmt.uint), head["b"].view(fmt.uint),
                       out=sign)
        np.bitwise_and(sign, fmt.uint.type(1 << fmt.sign_shift), out=sign)
        bits = result.view(fmt.uint)
        np.bitwise_or(bits, sign, out=bits)
        if head["special"] is not None:
            special_mask, special_vals = head["special"]
            np.copyto(result, special_vals, where=special_mask)
        return result

    def imprecise_multiply(self, a, b, dtype=np.float32) -> np.ndarray:
        fmt = format_for_dtype(dtype)
        a, b = self._operands(a, b, fmt)
        shape = a.shape
        # NaN/inf lanes compute garbage that the special patch overwrites.
        with np.errstate(over="ignore", invalid="ignore"):
            head = self._mul_head(a, b, fmt, shape)
            x, y = head["x_a"], head["x_b"]
            pow_a = head["pow_a"].view(np.float64)
            pow_b = head["pow_b"].view(np.float64)
            if fmt.mantissa_bits < 52:
                # x 2^E_b + y 2^E_a - 2^(E_a + E_b) is
                # 2^(E_a + E_b) (1 + Ma + Mb), every step exact.
                r = x
                np.multiply(x, pow_b, out=r)
                np.multiply(y, pow_a, out=y)
                np.add(r, y, out=r)
                np.multiply(pow_a, pow_b, out=y)
                np.subtract(r, y, out=r)
                return self._mul_float_tail(r, fmt, shape, head)
            # binary64: Ma + Mb in the integer domain; a carry halves it
            # and truncates its LSB.
            frac = self._i("mul_frac", shape)
            np.bitwise_and(x.view(np.int64), _FRAC, out=frac)
            carry = self._i("mul_carry", shape)
            np.bitwise_and(y.view(np.int64), _FRAC, out=carry)
            np.add(frac, carry, out=frac)
            np.right_shift(frac, 52, out=carry)
            np.bitwise_and(frac, _FRAC, out=frac)
            np.right_shift(frac, carry, out=frac)
            return self._mul_int_tail(carry, frac, fmt, shape, head)

    def _mitchell_mant(self, fmt, shape, config: MultiplierConfig,
                       head: dict) -> np.ndarray:
        """The Mitchell mantissa product in [1, 4), in the reference's
        float64 values and order."""
        p = fmt.mantissa_bits
        # 1 + M of the truncated operands, then Ma and Mb (b's in place).
        cut = _FRAC & np.int64(-1 << (52 - p + config.truncation))
        m1a = self._f("bm_m1a", shape)
        ma = self._f("bm_ma", shape)
        mb = self._f("bm_mb", shape)
        for tag, m1, m in (("a", m1a, ma), ("b", mb, mb)):
            bits = m1.view(np.int64)
            np.bitwise_and(head["x_" + tag].view(np.int64), cut, out=bits)
            np.bitwise_or(bits, _ONE, out=bits)
            np.subtract(m1, 1.0, out=m)
        x_sum = ma
        if config.path == "log":
            # MA of (1+Ma)(1+Mb): both operands are in [1, 2), so the log
            # decomposition is k = 0, x = M exactly.
            np.add(ma, mb, out=x_sum)
        else:
            # Cross term MA(Ma, Mb), x = M 2^(p - msb) - 1 per operand.
            # Truncation clears only fraction bits below the leading one (or
            # the whole fraction), so the MSB index msb, the normalizer
            # 2^(p - msb) and the scale 2^(msb_a + msb_b - 2p) come from the
            # untruncated fraction, and a fraction truncates away exactly
            # where msb < truncation.  Ma + 2^-(p+1) is exact, with float64
            # exponent field e = 1023 + msb - p (msb = -1 for a zero
            # fraction), so each is built from exponent bits.
            e_a, e_b = self._i("bm_e_a", shape), self._i("bm_e_b", shape)
            pow2 = self._i("bm_pow2", shape)
            x2 = self._f("bm_x2", shape)
            for tag, m, e, x in (("a", ma, e_a, x_sum), ("b", mb, e_b, x2)):
                np.bitwise_and(head["x_" + tag].view(np.int64), _FRAC, out=e)
                np.bitwise_or(e, _ONE, out=e)
                np.subtract(e.view(np.float64), 1.0 - 2.0 ** -(p + 1),
                            out=e.view(np.float64))
                np.bitwise_and(e, _EXP, out=e)
                np.subtract(np.int64(2046 << 52), e, out=pow2)
                np.multiply(m, pow2.view(np.float64), out=x)
                np.subtract(x, 1.0, out=x)
            np.add(x_sum, x2, out=x_sum)
            np.add(e_a, e_b, out=pow2)
            np.subtract(pow2, np.int64(1023 << 52), out=pow2)
        # The decode, 1 + x below the carry and 2x past it, is the larger
        # of the two: they are equal at x = 1.
        mant = self._f("bm_mant", shape)
        np.add(x_sum, 1.0, out=mant)
        np.multiply(x_sum, 2.0, out=x_sum)
        np.maximum(mant, x_sum, out=mant)
        if config.path == "log":
            return mant
        cross = mant
        np.multiply(cross, pow2.view(np.float64), out=cross)
        # Zero where either fraction truncates away entirely.
        kept = self._b("bm_kept", shape)
        np.minimum(e_a, e_b, out=e_a)
        np.greater_equal(e_a, np.int64((1023 + config.truncation - p) << 52),
                         out=kept)
        np.multiply(cross, kept, out=cross)
        total = x_sum
        np.add(m1a, mb, out=total)
        np.add(total, cross, out=total)
        return total

    def _mitchell(self, a, b, fmt, shape, config) -> np.ndarray:
        """One block of :meth:`configurable_multiply`."""
        with np.errstate(over="ignore", invalid="ignore"):
            head = self._mul_head(a, b, fmt, shape)
            mant = self._mitchell_mant(fmt, shape, config, head)
            if fmt.mantissa_bits < 52:
                np.multiply(mant, head["pow_a"].view(np.float64), out=mant)
                np.multiply(mant, head["pow_b"].view(np.float64), out=mant)
                return self._mul_float_tail(mant, fmt, shape, head)
            # At p = 52 mant's fraction field is the truncated result
            # fraction, and its exponent field is 1023 + carry.
            bits = mant.view(np.int64)
            carry = self._i("mul_carry", shape)
            np.right_shift(bits, 52, out=carry)
            np.subtract(carry, 1023, out=carry)
            np.bitwise_and(bits, _FRAC, out=bits)
            return self._mul_int_tail(carry, bits, fmt, shape, head)

    #: Element-block width for the Mitchell path.  Its 15-35 scratch
    #: passes run over one block before the next block starts, so they hit
    #: cache-resident working arrays instead of streaming full-size buffers
    #: through memory on every pass: at 2^18 elements fp_tr8 took 6.4 ms
    #: blocked against 10.3 ms unblocked (2-vCPU host), and at 2^16 the
    #: two tie.
    MITCHELL_BLOCK = 1 << 15

    def configurable_multiply(self, a, b, config: MultiplierConfig,
                              dtype=np.float32) -> np.ndarray:
        """Head + tail over cache-sized element blocks."""
        fmt = format_for_dtype(dtype)
        if config.truncation > fmt.mantissa_bits:
            raise ValueError(
                f"truncation {config.truncation} exceeds the "
                f"{fmt.mantissa_bits}-bit mantissa of {fmt.name}"
            )
        a, b = self._operands(a, b, fmt)
        shape = a.shape
        n = int(a.size)
        block = self.MITCHELL_BLOCK
        if n <= block:
            return self._mitchell(a, b, fmt, shape, config)
        flat_a = np.ascontiguousarray(a.reshape(-1))
        flat_b = np.ascontiguousarray(b.reshape(-1))
        out = np.empty(n, dtype=fmt.dtype)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            ta = flat_a[lo:hi]
            tb = flat_b[lo:hi]
            out[lo:hi] = self._mitchell(ta, tb, fmt, ta.shape, config)
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

        Returns ``(exp, frac, patch_or_None)``.  The fast path runs on
        every lane; ``patch`` marks the lanes the caller must overwrite
        from the reference unit (zero / inf / NaN / subnormal, plus
        negatives unless ``signed_ok``).  Those lanes are neutralized to
        1.0 here so the fast path stays warning-free.
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
        frac = self._i("frac_a", shape)
        np.bitwise_and(bits, fmt.mantissa_mask, out=frac)

        patch = self._b("sfu_patch", shape)
        np.equal(exp, fmt.exponent_mask, out=patch)
        sub = self._b("sfu_sub", shape)
        np.equal(exp, 0, out=sub)
        np.logical_or(patch, sub, out=patch)
        if not signed_ok:
            neg = self._b("negative", shape)
            np.signbit(x, out=neg)
            np.logical_or(patch, neg, out=patch)
        if not bool(patch.any()):
            return exp, frac, None
        if bool(patch.all()):
            return None
        np.copyto(exp, np.int64(fmt.bias), where=patch)
        np.copyto(frac, np.int64(0), where=patch)
        return exp, frac, patch

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
        exp, frac, patch = fields
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
        with np.errstate(invalid="ignore"):  # NaN lanes are patched
            np.copysign(approx, x, out=approx)
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
        exp, frac, patch = fields
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
        factor = self._f("factor", shape)
        np.take(_RSQRT_ODD, r, out=factor)
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
        exp, frac, patch = fields
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
        exp, frac, patch = fields
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
