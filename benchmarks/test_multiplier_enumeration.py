"""binary32 multiplier enumeration: every first-operand mantissa, bit for bit.

For the Table-1 multiplier and each Mitchell configuration of the parity
harness (fp_tr0, lp_tr0, fp_tr8, lp_tr16), at each exponent pair of
``MULTIPLIER_EXPONENTS`` (exponent sums that underflow, carry into the
smallest normal, stay in range and overflow, plus zero and subnormal
operands), all 2^23 mantissas of ``a`` are paired with a permuted ``b``
mantissa of either sign and streamed through the ``threaded`` backend in
fixed blocks; each block must equal the reference unit bit for bit.  That
is 55 x 2^23 (about 460M) multiplications.  Tier 1 runs every 1024th
mantissa of the same sweep
(``tests/test_backends.py::TestMultiplierBoundaries``).

Run:  cd benchmarks && PYTHONPATH=../src python -m pytest test_multiplier_enumeration.py -q -s
"""

import os
import time

from repro.core.backends import get_backend
from repro.core.backends.parity import (
    MITCHELL_CONFIGS,
    MULTIPLIER_EXPONENTS,
    check_multiplier_enumeration,
)

from report import emit, format_row

UNITS = ("table1",) + MITCHELL_CONFIGS


def test_every_binary32_mantissa_bit_identical():
    backend = get_backend("threaded")
    rows = [f"cpu_count {os.cpu_count()}",
            format_row("unit", "cases", "wall s", "mismatching blocks")]
    failures = []
    for unit in UNITS:
        start = time.perf_counter()
        found = check_multiplier_enumeration(backend, units=(unit,))
        rows.append(format_row(unit, len(MULTIPLIER_EXPONENTS) << 23,
                               f"{time.perf_counter() - start:.1f}",
                               len(found)))
        failures += found
    emit("binary32 multiplier enumeration (reference vs threaded)", rows)
    assert failures == []
