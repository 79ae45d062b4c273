"""Exhaustive binary16 checks: every mantissa pair at one exponent pair.

A binary16 operand has a 10-bit fraction, so one exponent pair holds all
2^20 operand pairs.  The multipliers' relative error depends only on the
two mantissas, so that grid is their whole input space: its maximum is the
exact worst case, checked against the Chapter-4 bound (and for closeness
to it, so a loose bound shows).  The adder also depends on the exponent
difference ``d`` and the effective operation, so its grid is swept at the
``d`` on either side of each threshold.  The unary SFUs take one operand,
so all 65,536 binary16 bit patterns are their whole input space; the
divider runs over every divisor for a few numerators.  The linear log2's
absolute-error bound is checked on every positive normal binary16 input
and on every binary32 power of two, where its maximum falls.  On every grid, the
fused kernel (``FusedBackend``) and ``threaded`` must equal ``reference``
bit for bit.
"""

import numpy as np
import pytest

from repro.core import (
    IMPRECISE_MULTIPLY_MAX_ERROR,
    LOG2_COEFFS,
    QUADRATIC_RCP_MAX_ERROR,
    QUADRATIC_RSQRT_MAX_ERROR,
    RECIPROCAL_MAX_ERROR,
    RSQRT_MAX_ERROR,
    SQRT_MAX_ERROR,
    MultiplierConfig,
    quadratic_reciprocal,
    quadratic_rsqrt,
    quadratic_sqrt,
    truncation_max_error,
)
from repro.core.backends import get_backend
from repro.core.backends.fused import FusedBackend
from repro.core.backends.threaded import ThreadedFusedBackend
from repro.erroranalysis.bounds import full_path_bound, log_path_bound

F16 = np.float16
MANTISSA_BITS = 10
BIAS = 15
MAX_EXPONENT = 30
#: Every binary16 bit pattern: zeros, subnormals, normals, infinities, NaNs.
ALL_F16 = np.arange(1 << 16, dtype=np.uint16).view(F16)
#: Smallest normal binary16 value.
TINY = float(np.finfo(F16).tiny)
#: Unit roundoff of binary16: rounding the output moves it by at most this
#: share of its value (half an ulp).
UNIT_ROUNDOFF = 2.0 ** -(MANTISSA_BITS + 1)


def _grid(exp_a: int, exp_b: int):
    """All 2^20 (a, b) binary16 mantissa pairs at biased exponents."""
    mantissas = np.arange(1 << MANTISSA_BITS, dtype=np.uint16)
    a = ((exp_a << MANTISSA_BITS) | mantissas).astype(np.uint16).view(F16)
    b = ((exp_b << MANTISSA_BITS) | mantissas).astype(np.uint16).view(F16)
    return np.repeat(a, b.size), np.tile(b, a.size)


@pytest.fixture(scope="module")
def backends():
    # Two threads over 2^20 elements: real multi-tile execution.
    return {
        "reference": get_backend("reference"),
        "fused": FusedBackend(),
        "threaded": ThreadedFusedBackend(threads=2),
    }


@pytest.fixture(scope="module")
def unit_grid():
    return _grid(BIAS, BIAS)


def _assert_parity(run, backends):
    """Run on every backend; return the reference result."""
    __tracebackhide__ = True
    ref = run(backends["reference"])
    for name in ("fused", "threaded"):
        got = run(backends[name])
        bad = np.count_nonzero(ref.view(np.uint16) != got.view(np.uint16))
        assert bad == 0, f"{name}: {bad} of {ref.size} lanes differ"
    return ref


def _mitchell(name):
    cfg = MultiplierConfig.from_name(name)
    return lambda be, a, b: be.configurable_multiply(a, b, cfg, dtype=F16)


def _bt(truncation):
    return lambda be, a, b: be.truncated_multiply(a, b, truncation, dtype=F16)


# (unit, bound, tightness floor).  The floor is the least share of the
# bound the exhaustive maximum must reach.  It is 0.9 where the bound is
# tight.  The truncation slack of the Mitchell bounds (2 * 2^(tr - p)) and
# the bt_N bound (which at bt_0 counts a rounding the operands never get)
# are loose; their floors sit just under the measured share, so the test
# also catches an error that drops without explanation.
MULTIPLIERS = {
    "table1": (lambda be, a, b: be.imprecise_multiply(a, b, dtype=F16),
               IMPRECISE_MULTIPLY_MAX_ERROR, 0.9),
    "fp_tr0": (_mitchell("fp_tr0"), full_path_bound(0, MANTISSA_BITS), 0.9),
    "fp_tr4": (_mitchell("fp_tr4"), full_path_bound(4, MANTISSA_BITS), 0.7),
    "fp_tr8": (_mitchell("fp_tr8"), full_path_bound(8, MANTISSA_BITS), 0.65),
    "lp_tr0": (_mitchell("lp_tr0"), log_path_bound(0, MANTISSA_BITS), 0.9),
    "lp_tr4": (_mitchell("lp_tr4"), log_path_bound(4, MANTISSA_BITS), 0.9),
    "lp_tr8": (_mitchell("lp_tr8"), log_path_bound(8, MANTISSA_BITS), 0.55),
    "bt_0": (_bt(0), truncation_max_error(0, F16), 0.45),
    "bt_4": (_bt(4), truncation_max_error(4, F16), 0.9),
}


@pytest.mark.parametrize("unit", list(MULTIPLIERS))
def test_multiplier_exhaustive(unit, backends, unit_grid):
    run, bound, floor = MULTIPLIERS[unit]
    a, b = unit_grid
    out = _assert_parity(lambda be: run(be, a, b), backends)
    exact = a.astype(np.float64) * b.astype(np.float64)
    worst = float(np.max(np.abs(out.astype(np.float64) - exact) / exact))
    assert worst <= bound, (unit, worst, bound)
    assert worst >= floor * bound, (unit, worst, bound)


ADDER_CASES = [(th, d) for th in (1, 8, 27) for d in (0, th, th + 1)]


@pytest.mark.parametrize(
    "threshold,d", ADDER_CASES,
    ids=[f"TH{th}-d{d}" for th, d in ADDER_CASES],
)
def test_adder_parity_grid(threshold, d, backends):
    """Both effective operations, both operands normal."""
    exp_a = min(MAX_EXPONENT, BIAS + d)
    a, b = _grid(exp_a, exp_a - d)
    for y in (b, -b):
        _assert_parity(
            lambda be: be.imprecise_add(a, y, threshold=threshold, dtype=F16),
            backends,
        )


def _rounded(bound):
    """A unit's relative-error bound after the binary16 output rounding."""
    return bound + UNIT_ROUNDOFF * (1.0 + bound)


UNARY_SFUS = {
    "rcp": "imprecise_reciprocal",
    "rsqrt": "imprecise_rsqrt",
    "sqrt": "imprecise_sqrt",
    "log2": "imprecise_log2",
}


@pytest.mark.parametrize("op", list(UNARY_SFUS))
def test_unary_sfu_parity_exhaustive(op, backends):
    method = UNARY_SFUS[op]
    _assert_parity(lambda be: getattr(be, method)(ALL_F16, dtype=F16),
                   backends)


@pytest.mark.parametrize("numerator", [1.0, -3.5, 1000.0, 0.0, np.inf,
                                       np.nan])
def test_divide_parity_all_divisors(numerator, backends):
    a = np.full(ALL_F16.size, numerator, dtype=F16)
    _assert_parity(lambda be: be.imprecise_divide(a, ALL_F16, dtype=F16),
                   backends)


def _check_bound(out, exact_fn, bound, flush_band):
    """Worst relative error over positive normal inputs with a normal exact
    result, against ``bound`` and for closeness to it.

    Inputs the unit flushes to zero must be exactly the binary16 values in
    ``flush_band`` (``(lo, hi)`` or None); they are left out of the bound.
    """
    __tracebackhide__ = True
    x = ALL_F16.astype(np.float64)
    positive = np.isfinite(x) & (x >= TINY)
    exact = exact_fn(np.where(positive, x, 1.0))
    domain = positive & (exact >= TINY) & (exact <= float(np.finfo(F16).max))
    flushed = domain & (out == 0)
    band = np.zeros_like(domain)
    if flush_band is not None:
        band = domain & (x >= flush_band[0]) & (x <= flush_band[1])
    assert np.array_equal(flushed, band), x[flushed ^ band]
    kept = domain & ~flushed
    worst = float(np.max(np.abs(out[kept].astype(np.float64) - exact[kept])
                         / exact[kept]))
    limit = _rounded(bound)
    assert 0.9 * limit <= worst <= limit, (worst, limit)


#: (exact function, Chapter-4 bound, flush-to-zero input band)
LINEAR_BOUNDS = {
    # 1/x for x in [15880, 16384] is a normal number just above 2^-14, but
    # the 5.9%-low approximation lands below 2^-14 and flushes to zero.
    "rcp": (lambda x: 1.0 / x, RECIPROCAL_MAX_ERROR, (15880.0, 16384.0)),
    "rsqrt": (lambda x: 1.0 / np.sqrt(x), RSQRT_MAX_ERROR, None),
    "sqrt": (np.sqrt, SQRT_MAX_ERROR, None),
}


@pytest.mark.parametrize("op", list(LINEAR_BOUNDS))
def test_linear_sfu_bound_exhaustive(op):
    exact_fn, bound, band = LINEAR_BOUNDS[op]
    out = getattr(get_backend("reference"), UNARY_SFUS[op])(ALL_F16, dtype=F16)
    _check_bound(out, exact_fn, bound, band)


def test_reciprocal_flush_band_size():
    out = get_backend("reference").imprecise_reciprocal(ALL_F16, dtype=F16)
    x = ALL_F16.astype(np.float64)
    band = (x >= 15880.0) & (x <= 16384.0)
    assert np.count_nonzero(band) == 64
    assert not out[band].any()


QUADRATIC_BOUNDS = {
    # 1/16384 = 2^-14 exactly; the approximation lands just below it.
    "rcp": (quadratic_reciprocal, lambda x: 1.0 / x, QUADRATIC_RCP_MAX_ERROR,
            (16384.0, 16384.0)),
    "rsqrt": (quadratic_rsqrt, lambda x: 1.0 / np.sqrt(x),
              QUADRATIC_RSQRT_MAX_ERROR, None),
    # sqrt = x * rsqrt(x) carries the rsqrt bound.
    "sqrt": (quadratic_sqrt, np.sqrt, QUADRATIC_RSQRT_MAX_ERROR, None),
}


@pytest.mark.parametrize("op", list(QUADRATIC_BOUNDS))
def test_quadratic_sfu_bound_exhaustive(op):
    unit, exact_fn, bound, band = QUADRATIC_BOUNDS[op]
    _check_bound(unit(ALL_F16, dtype=F16), exact_fn, bound, band)


def _log2_formula_max():
    """Largest ``|c1 m + c0 - log2 m|`` over the mantissa range [1, 2).

    The error is convex in ``m`` (its second derivative is
    ``1 / (m^2 ln 2) > 0``), so the maximum of its magnitude sits at an
    endpoint or, with the opposite sign, at the stationary point
    ``m = 1 / (c1 ln 2)``.  It is ``c1 + c0 = 0.065`` at ``m = 1``.
    """
    c0, c1 = LOG2_COEFFS
    m = np.array([1.0, 2.0, 1.0 / (c1 * np.log(2.0))])
    return float(np.max(np.abs(c1 * m + c0 - np.log2(m))))


#: Coefficient and evaluation rounding of ``e + c1 m + c0`` in float64
#: for ``|e| <= 150``: the coefficients' representation and three
#: roundings, each at most 2^-53 of a value below 2^8.
LOG2_EVAL_SLACK = 2.0 ** -44
LOG2_MAX_ABS_ERROR = _log2_formula_max() + LOG2_EVAL_SLACK


def _log2_worst(x, dtype):
    """Worst absolute log2 error over ``x``; every lane must stay within
    the formula bound plus half an output ulp (round to nearest)."""
    __tracebackhide__ = True
    out = get_backend("reference").imprecise_log2(x.astype(dtype), dtype=dtype)
    err = np.abs(out.astype(np.float64) - np.log2(x.astype(np.float64)))
    half_ulp = np.spacing(np.abs(out)).astype(np.float64) / 2
    over = err > LOG2_MAX_ABS_ERROR + half_ulp
    assert not over.any(), x[over]
    return float(err.max())


def test_log2_bound_every_positive_normal_binary16():
    x = ALL_F16[np.isfinite(ALL_F16) & (ALL_F16 >= TINY)]
    assert x.size == 30 * (1 << MANTISSA_BITS)
    worst = _log2_worst(x, F16)
    # |log2 x| < 16, so the output rounds by at most 2^-8 (half an ulp).
    assert _log2_formula_max() <= worst <= LOG2_MAX_ABS_ERROR + 2.0 ** -8


def test_log2_bound_every_binary32_power_of_two():
    x = np.ldexp(np.float32(1.0), np.arange(-126, 128))
    worst = _log2_worst(x, np.float32)
    # |log2 x| < 128, so the output rounds by at most 2^-18 (half an ulp).
    assert _log2_formula_max() <= worst <= LOG2_MAX_ABS_ERROR + 2.0 ** -18
