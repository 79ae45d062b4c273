"""Exhaustive binary16 checks: every mantissa pair at one exponent pair.

A binary16 operand has a 10-bit fraction, so one exponent pair holds all
2^20 operand pairs.  The multipliers' relative error depends only on the
two mantissas, so that grid is their whole input space: its maximum is the
exact worst case, checked against the Chapter-4 bound (and for closeness
to it, so a loose bound shows).  The adder also depends on the exponent
difference ``d`` and the effective operation, so its grid is swept at the
``d`` on either side of each threshold.  On every grid, the fused kernel
(``FusedBackend``) and ``threaded`` must equal ``reference`` bit for bit.
"""

import numpy as np
import pytest

from repro.core import (
    IMPRECISE_MULTIPLY_MAX_ERROR,
    MultiplierConfig,
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
