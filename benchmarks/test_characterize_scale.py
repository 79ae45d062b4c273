"""Paper-scale characterization: a 2^24-sample Figure-8+9 pass in bounded memory.

The paper characterizes each unit over 200M quasi-Monte-Carlo inputs
(Chapter 4.2).  The characterization streams its sweep in blocks of
``CHUNK_SAMPLES``, so peak memory is set by the block, not by the sample
count.  This benchmark runs the full Figure-8 unit set and the 15 Figure-9
multiplier configurations of the end-to-end benchmark once at 2^18
samples (one block) and once at 2^24 (64 blocks), each in a fresh
subprocess, and asserts that the larger pass peaks within
``RSS_MARGIN_MB`` of the smaller one.  An unstreamed 2^24 pass would hold
the ``ifma`` input set alone, 2^24 x 6 float64 Sobol coordinates, in
768 MiB.

Run:  cd benchmarks && PYTHONPATH=../src python -m pytest test_characterize_scale.py -q -s
"""

import json
import os
import subprocess
import sys

from report import REPO_ROOT, emit, format_row

BASE_SAMPLES = 1 << 18
SCALE_SAMPLES = 1 << 24
RSS_MARGIN_MB = 24.0

_PASS = """
import importlib, json, resource, sys, time
char = importlib.import_module("repro.erroranalysis.characterize")
configs = [f"{p}_tr{t}" for p in ("fp", "lp") for t in (0, 4, 8, 12, 16, 19)]
configs += ["bt_8", "bt_16", "bt_21"]
n = int(sys.argv[1])
start = time.perf_counter()
pmfs = char.characterize_units(n_samples=n, seed=1)
pmfs.update(char.characterize_multiplier_configs(configs, n_samples=n, seed=1))
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "samples": {label: pmf.stats.samples for label, pmf in pmfs.items()},
}))
"""


def _run_pass(n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _PASS, str(n)],
                          capture_output=True, text=True, env=env,
                          timeout=1800, check=True)
    return json.loads(done.stdout)


def test_paper_scale_pass_in_bounded_memory():
    base = _run_pass(BASE_SAMPLES)
    scale = _run_pass(SCALE_SAMPLES)
    emit("Characterization at scale (Figure 8 + Figure 9, 23 configurations)", [
        f"cpu_count {os.cpu_count()}",
        format_row("samples", "wall s", "peak RSS MB"),
        format_row(BASE_SAMPLES, f"{base['wall_s']:.2f}", f"{base['peak_rss_mb']:.1f}"),
        format_row(SCALE_SAMPLES, f"{scale['wall_s']:.2f}",
                   f"{scale['peak_rss_mb']:.1f}"),
    ])
    assert len(scale["samples"]) == 23
    # At 2^24 (seed 1) every input of these sweeps is a valid pair.
    assert set(scale["samples"].values()) == {SCALE_SAMPLES}
    assert scale["peak_rss_mb"] <= base["peak_rss_mb"] + RSS_MARGIN_MB
