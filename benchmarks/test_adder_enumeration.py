"""binary32 adder enumeration: every smaller-operand mantissa, bit for bit.

For each threshold ``TH`` in {1, 8, 27}, every exponent difference ``d``
in ``0..TH+1`` and both effective operations, all 2^23 mantissas of the
smaller operand are paired with a permuted larger-operand mantissa and
streamed through the ``threaded`` backend in fixed blocks; each block
must equal the reference adder bit for bit.  That is 84 x 2^23 (about
700M) additions.  Tier 1 runs every 1024th mantissa of the same sweep
(``tests/test_backends.py::TestAdderBoundaries``).

Run:  cd benchmarks && PYTHONPATH=../src python -m pytest test_adder_enumeration.py -q -s
"""

import os
import time

from repro.core.backends import get_backend
from repro.core.backends.parity import check_adder_enumeration

from report import emit, format_row

THRESHOLDS = (1, 8, 27)


def test_every_binary32_mantissa_bit_identical():
    backend = get_backend("threaded")
    rows = [f"cpu_count {os.cpu_count()}",
            format_row("TH", "cases", "wall s", "mismatching blocks")]
    failures = []
    for th in THRESHOLDS:
        start = time.perf_counter()
        found = check_adder_enumeration(backend, thresholds=(th,))
        rows.append(format_row(th, 2 * (th + 2) << 23,
                               f"{time.perf_counter() - start:.1f}",
                               len(found)))
        failures += found
    emit("binary32 adder enumeration (reference vs threaded)", rows)
    assert failures == []
