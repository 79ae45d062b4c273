"""Multi-core backend leg: the fused kernels tiled across threads.

The ``threaded`` backend tiles the fused kernels across a thread pool, so
``add``/``mul``/``fma`` at 1M elements should beat single-core fused once
real cores are available.  Gate: >= 1.8x vs fused on machines with >= 4
usable cores.  On smaller machines the gate relaxes to "not slower than
0.7x fused" (thread dispatch overhead bounded), and the recorded
``cpu_count``/``cpu_starved`` metadata makes the relaxation auditable.

Bit-identity is asserted unconditionally: the section only carries
timings when the parity harness passes.

Results land under the ``parallel`` key of ``BENCH_runtime.json``; the
richer breakdown is in the ``parallel`` section of ``BENCH_core.json``
(regenerated by ``repro bench``).
"""

import platform

from repro.core.backends.bench import run_parallel_benchmarks
from repro.core.backends.threads import cpu_count

from report import emit, format_row, write_bench_json

SIZE = 1_000_000
REPEATS = 5


def test_parallel_backends(benchmark):
    section = benchmark.pedantic(
        lambda: run_parallel_benchmarks(size=SIZE, repeats=REPEATS,
                                        parity_samples=2048),
        rounds=1,
    )

    threaded = section["backends"]["threaded"]
    # Hard gate first: no parity, no numbers.
    assert threaded["parity_ok"] is True, threaded.get("parity_failures")

    cores = cpu_count()
    cpu_starved = cores < 4

    payload = {
        "parallel": {
            "size": SIZE,
            "threads": section["threads"],
            "cpu_count": cores,
            "cpu_starved": cpu_starved,
            "machine": platform.platform(),
            "parity_ok": True,
            "threaded_speedup_vs_fused": {
                op: round(rec["speedup_vs_fused"], 2)
                for op, rec in threaded["ops"].items()
            },
        }
    }
    path = write_bench_json("runtime", payload, update=True)
    benchmark.extra_info.update(payload["parallel"])

    widths = [18, 11, 11, 9]
    rows = [format_row("op", "fused s", "threaded s", "speedup",
                       widths=widths)]
    for op, rec in threaded["ops"].items():
        rows.append(format_row(
            op, f"{section['fused_seconds'][op]:.3f}",
            f"{rec['seconds']:.3f}", f"{rec['speedup_vs_fused']:.2f}x",
            widths=widths,
        ))
    rows.append(f"written: {path}")
    emit(f"Parallel backends: {section['threads']} thread(s), "
         f"{cores} core(s), {SIZE} elements", rows)

    # The scaling gate, relaxed (and recorded) on cpu-starved runners.
    for op in ("add", "mul", "fma"):
        speedup = threaded["ops"][op]["speedup_vs_fused"]
        if cpu_starved:
            assert speedup >= 0.7, (op, speedup)
        else:
            assert speedup >= 1.8, (op, speedup)
