"""Tests for the command line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_experiments(self):
        code, text = run_cli("list")
        assert code == 0
        for exp_id in ("fig2", "table5", "fig14", "table7"):
            assert exp_id in text

    def test_mentions_bench_paths(self):
        _, text = run_cli("list")
        assert "benchmarks/" in text


class TestInfo:
    def test_shows_machine_and_library(self):
        code, text = run_cli("info")
        assert code == 0
        assert "GFLOPS" in text
        assert "mul" in text and "P ratio" in text


class TestCharacterize:
    def test_unit_by_name(self):
        code, text = run_cli("characterize", "ifpmul", "--samples", "4096")
        assert code == 0
        assert "eps_max" in text
        assert "error rate" in text

    def test_multiplier_config(self):
        code, text = run_cli("characterize", "fp_tr0", "--samples", "4096")
        assert code == 0
        assert "eps_max" in text

    def test_bt_config(self):
        code, text = run_cli("characterize", "bt_19", "--samples", "4096")
        assert code == 0

    def test_double_precision(self):
        code, text = run_cli(
            "characterize", "lp_tr44", "--samples", "4096", "--double"
        )
        assert code == 0

    def test_unknown_unit_exit_code(self):
        code, _ = run_cli("characterize", "bogus_unit", "--samples", "256")
        assert code == 2


class TestEvaluate:
    def test_hotspot_all(self):
        code, text = run_cli(
            "evaluate", "hotspot", "--rows", "32", "--iterations", "10"
        )
        assert code == 0
        assert "holistic" in text
        assert "MAE" in text

    def test_raytracing_with_multiplier(self):
        code, text = run_cli(
            "evaluate", "raytracing", "--config", "rcp,add,sqrt",
            "--multiplier", "fp_tr0", "--size", "32",
        )
        assert code == 0
        assert "SSIM" in text
        assert "fp_tr0" in text

    def test_precise_config(self):
        code, text = run_cli(
            "evaluate", "hotspot", "--config", "precise", "--rows", "16",
            "--iterations", "5",
        )
        assert code == 0
        assert "precise" in text

    def test_bt_multiplier(self):
        code, text = run_cli(
            "evaluate", "cp", "--config", "precise", "--multiplier", "bt_19",
            "--size", "16",
        )
        assert code == 0
        assert "bt_19" in text

    def test_quadratic_sfu_mode(self):
        code, text = run_cli(
            "evaluate", "raytracing", "--config", "rsqrt",
            "--sfu-mode", "quadratic", "--size", "32",
        )
        assert code == 0
        assert "quadratic" in text

    def test_unknown_app(self):
        code, _ = run_cli("evaluate", "doom", "--rows", "16")
        assert code == 2

    def test_bad_config_units(self):
        code, _ = run_cli("evaluate", "hotspot", "--config", "warp,drive")
        assert code == 2


class TestSweepMultiplier:
    def test_fp32_sweep(self):
        code, text = run_cli("sweep-multiplier", "--samples", "2048")
        assert code == 0
        assert "fp_tr0" in text and "lp_tr" in text and "bt_" in text

    def test_fp64_sweep(self):
        code, text = run_cli("sweep-multiplier", "--bits", "64", "--samples", "2048")
        assert code == 0
        assert "lp_tr" in text


class TestSensitivity:
    def test_cp_sensitivity(self):
        code, text = run_cli("sensitivity", "cp", "--size", "24")
        assert code == 0
        assert "disable order" in text
        # CP is rsqrt/mul dominated; one of them must rank first.
        first = text.rsplit("disable order:", 1)[1].split(",")[0].strip()
        assert first in ("mul", "rsqrt")

    def test_unknown_app(self):
        code, _ = run_cli("sensitivity", "doom")
        assert code == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_op_level_bench_is_gone(self, capsys):
        # Engine speed is measured end to end (e2ebench and the
        # fw.evaluate gates in benchmarks/), not per op.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestSweepApp:
    def test_sphinx_sweep(self):
        code, text = run_cli("sweep-app", "sphinx", "--configs", "fp_tr44,bt_49")
        assert code == 0
        assert "words recognized=" in text
        assert "fp_tr44" in text and "bt_49" in text

    def test_gromacs_sweep_mentions_spec_line(self):
        code, text = run_cli("sweep-app", "gromacs", "--configs", "fp_tr40")
        assert code == 0
        assert "1.25% line" in text

    def test_art_sweep(self):
        code, text = run_cli("sweep-app", "art", "--configs", "fp_tr44")
        assert code == 0
        assert "vigilance=" in text

    def test_unknown_app(self):
        code, _ = run_cli("sweep-app", "doom")
        assert code == 2

    def test_bad_config(self):
        code, _ = run_cli("sweep-app", "art", "--configs", "zz_tr1")
        assert code == 2


class TestVerifyCommand:
    def test_fp32_verify_passes(self):
        code, text = run_cli("verify", "--samples", "200")
        assert code == 0
        assert "OK" in text and "FAIL" not in text

    def test_fp64_verify_within_tolerance(self):
        code, text = run_cli("verify", "--bits", "64", "--samples", "100")
        assert code == 0


class TestStallsCommand:
    def test_hotspot_stalls(self):
        code, text = run_cli("stalls", "hotspot", "--rows", "24",
                             "--iterations", "5")
        assert code == 0
        assert "issued" in text and "dependency" in text

    def test_unknown_app(self):
        code, _ = run_cli("stalls", "doom")
        assert code == 2


class TestSweep:
    def test_units_family_with_cache(self, tmp_path):
        args = (
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--cache-dir", str(tmp_path),
        )
        code, text = run_cli(*args)
        assert code == 0
        assert "precise" in text and "all" in text
        assert "hit rate 0%" in text
        # Same sweep again: everything served from the cache.
        code, text = run_cli(*args)
        assert code == 0
        assert "hit rate 100%" in text

    def test_explicit_configs_no_cache(self):
        code, text = run_cli(
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--no-cache", "--configs", "precise|all|add,mul",
        )
        assert code == 0
        assert "add,mul" in text

    def test_json_output(self, tmp_path):
        out_file = tmp_path / "sweep.json"
        code, _ = run_cli(
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--no-cache", "--json", str(out_file),
        )
        assert code == 0
        import json

        payload = json.loads(out_file.read_text())
        assert payload["spec"]["app"] == "hotspot"
        assert "precise" in payload["results"]
        assert payload["stats"]["n_tasks"] == len(payload["results"])

    def test_unknown_config_spec_exit_code(self):
        code, _ = run_cli(
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--no-cache", "--configs", "bogus_cfg",
        )
        assert code == 2

    def test_interrupted_sweep_resumes(self, tmp_path, monkeypatch):
        from repro import faults

        args = (
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--cache-dir", str(tmp_path),
        )
        # First run: 'mul' fails unrecoverably after some configs have
        # already been computed and cached.
        with faults.injection("transient:match=mul,times=99"):
            code, _ = run_cli(*args, "--retries", "0")
        assert code == 1
        finished = {p.stem for p in tmp_path.glob("??/*.json")}
        assert finished

        # Rerun of the same command: the finished configs come from the
        # cache, the rest run, and the sweep completes.
        code, text = run_cli(*args)
        assert code == 0
        sources = {
            line.split()[0]: line.split()[-1]
            for line in text.splitlines()
            if line.endswith((" cache", " run"))
        }
        assert sources["mul"] == "run"
        assert list(sources.values()).count("cache") == len(finished)

    def test_stats_omits_telemetry_section_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        code, text = run_cli(
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--no-cache", "--stats",
        )
        assert code == 0
        assert "runner stats:" in text
        assert "telemetry_flush_path" not in text

    def test_stats_includes_telemetry_section_when_enabled(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "metrics")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "tel"))
        out_file = tmp_path / "sweep.json"
        code, text = run_cli(
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--no-cache", "--stats", "--json", str(out_file),
        )
        assert code == 0
        assert "telemetry_mode" in text and "metrics" in text
        assert str(tmp_path / "tel") in text
        import json

        payload = json.loads(out_file.read_text())
        assert payload["telemetry"]["mode"] == "metrics"
        assert payload["telemetry"]["flush_path"] == str(tmp_path / "tel")

    def test_json_payload_omits_telemetry_when_disabled(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        out_file = tmp_path / "sweep.json"
        code, _ = run_cli(
            "sweep", "hotspot", "--rows", "16", "--iterations", "4",
            "--workers", "1", "--no-cache", "--json", str(out_file),
        )
        assert code == 0
        import json

        assert "telemetry" not in json.loads(out_file.read_text())


class TestLint:
    def test_lint_is_a_viewer_command(self, monkeypatch, tmp_path):
        # `repro lint` must not flush telemetry even when telemetry is on.
        monkeypatch.setenv("REPRO_TELEMETRY", "metrics")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "tel"))
        code, text = run_cli("lint")
        assert code == 0
        assert "telemetry" not in text
        assert not (tmp_path / "tel").exists()

    def test_lint_help_registered(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("lint", "--help")
        assert excinfo.value.code == 0
