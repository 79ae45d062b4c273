"""Engine gates, end to end: whole ``fw.evaluate`` runs, not single ops.

Two properties of the default ``threaded`` engine, each timed as an
all-imprecise ``fw.evaluate`` on a fresh framework (so the precise
reference run is part of every sample), best of 3 with the two sides
alternating:

- **engine vs oracle** — hotspot 256^2 x 6 and srad 256^2 x 5 on the
  default engine against ``reference``.  Both stay below the tile floor,
  so this is the fused kernels' single-core win.  Gate: >= 1.3x.
- **thread scaling** — srad 1024^2 x 2 at ``backend_threads=1`` against
  the default thread count, where every op tiles.  Gate: >= 1.5x when
  ``cpu_count() >= 2``; one CPU only prints the numbers.  Hotspot is
  not used here: at 1024^2 its explicit step is past the forward-Euler
  limit and the app refuses the grid.

Each gate asserts bit-identical outputs before it looks at time.  Both
tests print their numbers, with ``cpu_count``, through ``emit`` (visible
with ``-s``) and write no file.
"""

import time

import numpy as np

from repro.core import IHWConfig
from repro.core.backends import DEFAULT_BACKEND
from repro.core.backends import ENV_VAR as BACKEND_ENV_VAR
from repro.core.backends import threads as threads_mod
from repro.runtime import ExperimentSpec

from report import emit, format_row

REPEATS = 3
ORACLE_APPS = {
    "hotspot": {"rows": 256, "cols": 256, "iterations": 6},
    "srad": {"rows": 256, "cols": 256, "iterations": 5},
}
SCALING_APP = ("srad", {"rows": 1024, "cols": 1024, "iterations": 2})
ORACLE_GATE = 1.3
SCALING_GATE = 1.5


def _default_engine(monkeypatch):
    """Measure the defaults, not whatever the shell selected."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    monkeypatch.delenv(threads_mod.ENV_VAR, raising=False)
    threads_mod.reset()


def _best_of(spec, configs):
    """Best wall time per config over alternating fresh-framework runs."""
    best = dict.fromkeys(configs, float("inf"))
    evaluations = {}
    for _ in range(REPEATS):
        for name, config in configs.items():
            framework = spec.framework()
            start = time.perf_counter()
            evaluations[name] = framework.evaluate(config)
            best[name] = min(best[name], time.perf_counter() - start)
    return best, evaluations


def _assert_bit_identical(evaluations):
    __tracebackhide__ = True
    first, *rest = evaluations.values()
    bits = np.dtype(f"u{first.output.dtype.itemsize}")
    for other in rest:
        assert other.output.dtype == first.output.dtype
        assert np.array_equal(first.output.view(bits), other.output.view(bits))
        assert first.quality == other.quality


def test_engine_vs_oracle(monkeypatch):
    _default_engine(monkeypatch)
    config = IHWConfig.all_imprecise()
    configs = {"reference": config.with_backend("reference"),
               DEFAULT_BACKEND: config.with_backend(DEFAULT_BACKEND)}
    speedups = {}
    widths = [24, 11, 11, 9]
    rows = [format_row("app", "reference s", f"{DEFAULT_BACKEND} s",
                       "speedup", widths=widths)]
    for app, params in ORACLE_APPS.items():
        spec = ExperimentSpec.create(app, metric="mae", **params)
        best, evaluations = _best_of(spec, configs)
        _assert_bit_identical(evaluations)
        speedup = best["reference"] / best[DEFAULT_BACKEND]
        label = f"{app} {params['rows']}^2 x {params['iterations']}"
        speedups[label] = speedup
        rows.append(format_row(label, f"{best['reference']:.3f}",
                               f"{best[DEFAULT_BACKEND]:.3f}",
                               f"{speedup:.2f}x", widths=widths))
    rows.append(f"cpu_count {threads_mod.cpu_count()}")
    emit(f"Engine vs oracle: fw.evaluate, best of {REPEATS}", rows)
    for label, speedup in speedups.items():
        assert speedup >= ORACLE_GATE, (label, speedup)


def test_thread_scaling(monkeypatch):
    _default_engine(monkeypatch)
    app, params = SCALING_APP
    spec = ExperimentSpec.create(app, metric="mae", **params)
    config = IHWConfig.all_imprecise()
    threads = threads_mod.resolve_thread_count()
    configs = {"1 thread": config.with_backend(DEFAULT_BACKEND, threads=1),
               f"{threads} threads": config.with_backend(DEFAULT_BACKEND)}
    best, evaluations = _best_of(spec, configs)
    _assert_bit_identical(evaluations)
    one, many = best.values()
    speedup = one / many
    cores = threads_mod.cpu_count()
    label = f"{app} {params['rows']}^2 x {params['iterations']}"
    emit(f"Thread scaling: {label}, best of {REPEATS}", [
        format_row("1 thread", f"{one:.3f} s"),
        format_row(f"{threads} threads", f"{many:.3f} s"),
        format_row("speedup", f"{speedup:.2f}x"),
        f"cpu_count {cores}",
    ])
    if cores >= 2:
        assert speedup >= SCALING_GATE, (label, speedup)
