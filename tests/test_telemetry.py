"""Tests for the telemetry subsystem: metrics, tracer, drift, integration.

The load-bearing contract: with ``REPRO_TELEMETRY=off`` (the default) the
instrumentation is a true no-op — identical ``ArithmeticContext.counts``,
identical cache keys, no spans, no metrics — and with it on, the spans
nest ``sweep -> experiment -> kernel`` / ``cache.*`` and the drift probe's
binning matches the Figure 8-9 characterization binning.
"""

import io
import json

import numpy as np
import pytest

from repro import telemetry
from repro.core import ArithmeticContext, IHWConfig
from repro.erroranalysis import bin_errors
from repro.runtime import ExperimentRunner, ExperimentSpec, ResultCache
from repro.telemetry import DriftProbe, MetricsRegistry, Tracer, render_span_tree

HOTSPOT = ExperimentSpec.create(
    "hotspot", metric="mae", rows=16, cols=16, iterations=4
)
SWEEP = {"precise": IHWConfig.precise(), "all": IHWConfig.all_imprecise()}


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("ops", op="add").inc(2)
        reg.counter("ops", op="add").inc(3)
        reg.counter("ops", op="mul").inc()
        assert reg.counter("ops", op="add").value == 5
        assert reg.counter("ops", op="mul").value == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_aggregations(self):
        reg = MetricsRegistry()
        for value in (3.0, 7.0, 5.0):
            reg.gauge("last").set(value)
            reg.gauge("hi", agg="max").set(value)
            reg.gauge("lo", agg="min").set(value)
        assert reg.gauge("last").value == 5.0
        assert reg.gauge("hi", agg="max").value == 7.0
        assert reg.gauge("lo", agg="min").value == 3.0

    def test_histogram_buckets_and_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("t", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            h.observe(value)
        assert h.bucket_counts == [2, 1, 1]
        assert h.cumulative() == [2, 3, 4]
        assert h.sum == pytest.approx(106.2)
        assert h.count == 4

    def test_snapshot_merge_round_trip(self):
        a = MetricsRegistry()
        a.counter("c", k="x").inc(2)
        a.gauge("g", agg="max").set(5)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry.from_snapshot(a.snapshot())
        b.merge(a.snapshot())
        assert b.counter("c", k="x").value == 4
        assert b.gauge("g", agg="max").value == 5
        assert b.histogram("h", buckets=(1.0,)).count == 2

    def test_snapshot_is_json_round_trippable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.01)
        restored = MetricsRegistry.from_snapshot(
            json.loads(json.dumps(reg.snapshot()))
        )
        assert restored.snapshot() == reg.snapshot()

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("repro_ops_total", op="add").inc(3)
        reg.histogram("repro_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.prometheus_text()
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{op="add"} 3' in text
        assert 'repro_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_seconds_count 1" in text

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", label='quo"te').inc()
        assert 'label="quo\\"te"' in reg.prometheus_text()


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_via_context_managers(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", role="x"):
                pass
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner = spans[0]
        assert inner["parent"] == outer["id"]
        assert inner["attrs"] == {"role": "x"}
        assert inner["dur_ms"] >= 0

    def test_absorb_reparents_worker_roots(self):
        parent, worker = Tracer(), Tracer()
        with worker.span("experiment"):
            with worker.span("kernel"):
                pass
        payload = worker.drain()
        with parent.span("sweep") as sweep:
            parent.absorb(payload, parent_id=sweep["id"])
        spans = parent.spans()
        by_name = {s["name"]: s for s in spans}
        assert by_name["experiment"]["parent"] == by_name["sweep"]["id"]
        assert by_name["kernel"]["parent"] == by_name["experiment"]["id"]

    def test_render_span_tree(self):
        tracer = Tracer()
        with tracer.span("sweep"):
            with tracer.span("experiment", app="hotspot"):
                pass
        text = render_span_tree(tracer.spans())
        lines = text.splitlines()
        assert lines[0].startswith("sweep")
        assert lines[1].startswith("  experiment")
        assert "app=hotspot" in lines[1]

    def test_render_last_root_only(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert render_span_tree(tracer.spans(), roots_only_last=True).startswith(
            "second"
        )


# ----------------------------------------------------------------------
# Drift probe
# ----------------------------------------------------------------------
class TestDriftProbe:
    def test_binning_matches_characterization(self):
        approx = np.array([1.01, 2.1, 3.0, 5.0])
        exact = np.array([1.0, 2.0, 3.0, 4.0])
        probe = DriftProbe(sample_every=1, max_elements=1024)
        probe.observe("mul", approx, lambda: exact)
        stats = probe.ops["mul"]

        rel = np.abs(approx - exact) / np.abs(exact)
        bins, counts = bin_errors(rel)
        assert stats.bins == dict(zip(bins.tolist(), counts.tolist()))
        assert stats.observed == 4
        assert stats.nonzero == 3
        assert stats.err_pct_max == pytest.approx(25.0)

    def test_sampling_every_nth_call(self):
        probe = DriftProbe(sample_every=3, max_elements=16)
        evaluated = []
        for i in range(7):
            probe.observe("add", np.ones(2), lambda i=i: evaluated.append(i)
                          or np.ones(2))
        stats = probe.ops["add"]
        assert stats.calls == 7
        assert stats.sampled_calls == 3  # calls 1, 4, 7
        assert evaluated == [0, 3, 6]  # exact thunk only runs when sampled

    def test_element_subsampling(self):
        probe = DriftProbe(sample_every=1, max_elements=10)
        probe.observe("add", np.ones(100), lambda: np.ones(100))
        assert probe.ops["add"].observed <= 10

    def test_zero_and_nonfinite_exact_skipped(self):
        probe = DriftProbe(sample_every=1, max_elements=16)
        probe.observe(
            "div",
            np.array([1.0, 2.0, 3.0]),
            lambda: np.array([0.0, np.inf, 3.0]),
        )
        stats = probe.ops["div"]
        assert stats.observed == 1
        assert stats.nonzero == 0

    def test_flush_into_registry_and_reset(self):
        probe = DriftProbe(sample_every=1, max_elements=16)
        probe.observe("mul", np.array([1.5]), lambda: np.array([1.0]))
        reg = MetricsRegistry()
        probe.flush_into(reg, kernel="k", backend="reference")
        assert reg.counter("repro_drift_calls_total", kernel="k",
                           op="mul").value == 1
        assert reg.gauge("repro_drift_err_pct_max", agg="max", kernel="k",
                         op="mul").value == pytest.approx(50.0)
        assert not probe.ops  # flushed probes restart clean


# ----------------------------------------------------------------------
# Off is a true no-op
# ----------------------------------------------------------------------
# One config per dispatch mode of the context's unit table.
DISPATCH_MODES = {
    "table1": IHWConfig.all_imprecise(),
    "fp_tr8": IHWConfig.all_imprecise().with_multiplier(
        "mitchell", config="fp_tr8"),
    "bt_8": IHWConfig.all_imprecise().with_multiplier(
        "truncated", truncation=8),
    "quadratic": IHWConfig.all_imprecise().with_sfu_mode("quadratic"),
}


def _run_kernels(config):
    """Counts and outputs of hotspot (FPU ops) and srad (div, rcp too)."""
    from repro.apps import hotspot, srad

    results = (hotspot.run(config, 12, 12, 3), srad.run(config, 16, 16, 3))
    return ([dict(r.counters.arith) for r in results],
            [r.output for r in results])


def _series(snapshot, name):
    return {(d["labels"]["kernel"], d["labels"]["op"]): d["value"]
            for d in snapshot if d["name"] == name}


class TestOffIsNoOp:
    def test_mode_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry.telemetry_mode() == "off"
        assert not telemetry.metrics_enabled()

    def test_unknown_mode_treated_as_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "bogus")
        assert telemetry.telemetry_mode() == "off"

    @pytest.mark.parametrize("mode", list(DISPATCH_MODES))
    def test_counts_identical_with_and_without_telemetry(self, mode):
        config = DISPATCH_MODES[mode]
        with telemetry.override("off"):
            counts_off, outputs_off = _run_kernels(config)
        with telemetry.override("trace"):
            counts_on, outputs_on = _run_kernels(config)
            snapshot = telemetry.get_registry().drain()
        assert counts_off == counts_on
        for off, on in zip(outputs_off, outputs_on):
            assert np.array_equal(off, on)
        calls = _series(snapshot, "repro_backend_op_calls_total")
        assert calls
        assert calls == _series(snapshot, "repro_drift_calls_total")

    def test_context_probe_never_touches_counts(self):
        a = np.linspace(0.5, 2.0, 32, dtype=np.float32)
        plain = ArithmeticContext(IHWConfig.all_imprecise())
        probed = ArithmeticContext(IHWConfig.all_imprecise())
        probed.drift_probe = DriftProbe(sample_every=1, max_elements=1024)
        for ctx in (plain, probed):
            ctx.mul(ctx.add(a, a), a)
            ctx.sqrt(a)
        assert dict(plain.counts) == dict(probed.counts)
        assert probed.drift_probe.ops  # the probe did observe

    def test_cache_keys_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = IHWConfig.all_imprecise()
        with telemetry.override("off"):
            key_off = cache.key(HOTSPOT, config)
        with telemetry.override("trace"):
            key_on = cache.key(HOTSPOT, config)
        assert key_off == key_on

    def test_no_spans_or_metrics_recorded_when_off(self):
        with telemetry.override("off"):
            runner = ExperimentRunner(max_workers=1, cache=None)
            runner.sweep(HOTSPOT, SWEEP)
            assert len(telemetry.get_registry()) == 0
            assert telemetry.get_tracer().spans() == []
            assert telemetry.drain_worker() is None
            assert telemetry.flush() == {}


# ----------------------------------------------------------------------
# End-to-end integration
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_traced_sweep_nests_spans(self, tmp_path):
        with telemetry.override("trace"):
            runner = ExperimentRunner(max_workers=1,
                                      cache=ResultCache(tmp_path))
            runner.sweep(HOTSPOT, SWEEP)
            spans = telemetry.get_tracer().spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert set(by_name) >= {"sweep", "experiment", "kernel", "cache.get",
                                "cache.put"}
        ids = {s["id"]: s for s in spans}
        sweep_id = by_name["sweep"][0]["id"]
        for experiment in by_name["experiment"]:
            assert experiment["parent"] == sweep_id
        for kernel in by_name["kernel"]:
            assert ids[kernel["parent"]]["name"] == "experiment"

    def test_metrics_mode_records_without_spans(self):
        with telemetry.override("metrics"):
            runner = ExperimentRunner(max_workers=1, cache=None)
            runner.sweep(HOTSPOT, SWEEP)
            snapshot = telemetry.get_registry().snapshot()
            assert telemetry.get_tracer().spans() == []
        names = {doc["name"] for doc in snapshot}
        assert "repro_kernel_ops_total" in names
        assert "repro_drift_observed_total" in names
        assert "repro_runner_sweeps_total" in names

    def test_drift_only_for_imprecise_kernels(self):
        with telemetry.override("metrics"):
            runner = ExperimentRunner(max_workers=1, cache=None)
            runner.sweep(HOTSPOT, {"precise": IHWConfig.precise()})
            drift = [
                doc for doc in telemetry.get_registry().snapshot()
                if doc["name"].startswith("repro_drift_")
            ]
        assert drift == []

    def test_worker_payload_round_trip(self):
        with telemetry.override("trace"):
            with telemetry.span("kernel"):
                telemetry.counter_inc("repro_x_total")
            payload = telemetry.drain_worker()
            assert telemetry.get_tracer().spans() == []
            with telemetry.span("sweep") as sweep:
                telemetry.absorb_worker(payload, parent_id=sweep["id"])
            spans = telemetry.get_tracer().spans()
        kernel = next(s for s in spans if s["name"] == "kernel")
        sweep = next(s for s in spans if s["name"] == "sweep")
        assert kernel["parent"] == sweep["id"]
        assert telemetry.get_registry().counter("repro_x_total").value == 1

    def test_parallel_sweep_does_not_duplicate_parent_telemetry(
            self, tmp_path, monkeypatch):
        # Forked workers inherit the parent's buffered spans and counters;
        # the pool initializer must clear them at worker startup or they
        # ship back with the chunk results and double-count on absorb.
        monkeypatch.setenv("REPRO_TELEMETRY", "trace")
        telemetry.counter_inc("repro_preexisting_total")
        with telemetry.span("preexisting"):
            pass
        runner = ExperimentRunner(max_workers=2, cache=ResultCache(tmp_path))
        runner.sweep(HOTSPOT, SWEEP)
        spans = telemetry.get_tracer().spans()
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))
        assert sum(s["name"] == "preexisting" for s in spans) == 1
        assert sum(s["name"] == "cache.get" for s in spans) == len(SWEEP)
        registry = telemetry.get_registry()
        assert registry.counter("repro_preexisting_total").value == 1
        misses = registry.counter(
            "repro_cache_requests_total", outcome="miss"
        ).value
        assert misses == len(SWEEP)

    def test_sequential_sweep_preserves_buffered_telemetry(self):
        # The in-process sweep path must not drain the parent's buffers
        # the way a worker chunk does.
        with telemetry.override("trace"):
            telemetry.counter_inc("repro_preexisting_total")
            with telemetry.span("preexisting"):
                pass
            runner = ExperimentRunner(max_workers=1, cache=None)
            results = runner.sweep(HOTSPOT, {"precise": IHWConfig.precise()})
            assert list(results) == ["precise"]
            names = [s["name"] for s in telemetry.get_tracer().spans()]
            counter = telemetry.get_registry().counter(
                "repro_preexisting_total"
            )
            assert "preexisting" in names and "sweep" in names
            assert counter.value == 1

    def test_flush_merges_metrics_and_appends_trace(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        with telemetry.override("trace"):
            for expected in (1, 2):
                with telemetry.span("sweep"):
                    telemetry.counter_inc("repro_runs_total")
                written = telemetry.flush()
                merged = MetricsRegistry.from_snapshot_file(
                    written["metrics"]
                )
                assert merged.counter("repro_runs_total").value == expected
        trace_lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(trace_lines) == 2
        assert json.loads(trace_lines[0])["name"] == "sweep"

    def test_autotune_and_characterize_emit(self):
        from repro.erroranalysis import characterize_unit
        from repro.quality import MultiplierAutoTuner

        with telemetry.override("metrics"):
            characterize_unit("ifpmul", 1 << 10)
            tuner = MultiplierAutoTuner(
                evaluate=lambda cfg: 0.0,
                constraint=lambda q: q < 1.0,
                max_truncation=4,
            )
            tuner.tune()
            names = {d["name"] for d in telemetry.get_registry().snapshot()}
        assert "repro_characterizations_total" in names
        assert "repro_autotune_probes_total" in names
        assert "repro_autotune_runs_total" in names


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def _sweep(self, tmp_path, extra=()):
        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["sweep", "hotspot", "--configs", "precise|all", "--rows", "16",
             "--iterations", "4", "--workers", "1", "--cache-dir",
             str(tmp_path / "cache"), *extra],
            out=out,
        )
        return code, out.getvalue()

    def test_sweep_stats_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        code, text = self._sweep(tmp_path, extra=["--stats"])
        assert code == 0
        assert "runner stats:" in text
        assert "speedup_vs_sequential" in text

    def test_sweep_json_has_top_level_speedup(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        path = tmp_path / "out.json"
        code, _ = self._sweep(tmp_path, extra=["--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["speedup_vs_sequential"] == \
            payload["stats"]["speedup_vs_sequential"]

    def test_metrics_and_trace_commands(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_TELEMETRY", "trace")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "tel"))
        code, text = self._sweep(tmp_path)
        assert code == 0
        assert "telemetry metrics written to" in text
        assert "telemetry trace written to" in text

        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        out = io.StringIO()
        assert main(["metrics", "--dir", str(tmp_path / "tel")], out=out) == 0
        text = out.getvalue()
        assert "# TYPE repro_kernel_ops_total counter" in text
        assert "repro_drift_err_pct_log2_bin_total" in text

        out = io.StringIO()
        assert main(["trace", "--dir", str(tmp_path / "tel")], out=out) == 0
        tree = out.getvalue()
        assert tree.startswith("sweep")
        assert "experiment" in tree and "kernel" in tree

    def test_viewer_commands_error_without_snapshots(self, tmp_path):
        from repro.cli import main

        empty = str(tmp_path / "void")
        assert main(["metrics", "--dir", empty], out=io.StringIO()) == 2
        assert main(["trace", "--dir", empty], out=io.StringIO()) == 2
