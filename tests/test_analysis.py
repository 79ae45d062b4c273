"""Contract-enforcing static analysis: checkers, suppressions, fingerprints, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    AnalysisConfig,
    SuppressionIndex,
    make_fingerprint,
    run_analysis,
)
from repro.cli import main


# ----------------------------------------------------------------------
# Fixture packages
# ----------------------------------------------------------------------
def make_package(root: Path, files: dict) -> Path:
    """Write ``{relpath: source}`` under ``root`` and return ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


CLEAN_MODULE = """\
def close(x, y, tol=1e-9):
    return abs(x - y) <= tol
"""

BAD_MODULE = """\
def check(x, y):
    try:
        same = x == 0.5
        other = y != 1.5
    except:
        return False
    return same and other
"""


@pytest.fixture
def config():
    return AnalysisConfig(
        package="fixture",
        layer_rules={
            "core": frozenset(),
            "apps": frozenset({"core"}),
        },
        worker_layers=("core", "apps", "runtime"),
    )


# ----------------------------------------------------------------------
# Cache-key completeness
# ----------------------------------------------------------------------
SPEC_MISSING_FIELD = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    app: str
    seed: int
    dtype: str

    def canonical(self):
        return {"app": self.app, "seed": self.seed}
"""

SPEC_COMPLETE = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    app: str
    seed: int
    dtype: str

    def canonical(self):
        return {"app": self.app, "seed": self.seed, **self._rest()}

    def _rest(self):
        return {"dtype": self.dtype}
"""


class TestCacheKey:
    def test_missing_field_flagged(self, tmp_path, config):
        root = make_package(tmp_path, {"core/spec.py": SPEC_MISSING_FIELD})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["cache-key"]
        assert "dtype" in report.findings[0].message

    def test_transitive_method_coverage(self, tmp_path, config):
        root = make_package(tmp_path, {"core/spec.py": SPEC_COMPLETE})
        report = run_analysis(root, config)
        assert report.ok

    def test_real_config_classes_are_complete(self):
        # The live contract: IHWConfig and ExperimentSpec hash every field.
        root = Path(repro.__file__).parent
        report = run_analysis(root)
        assert "cache-key" not in {f.code for f in report.findings}


# ----------------------------------------------------------------------
# Layer imports
# ----------------------------------------------------------------------
class TestLayerImports:
    def test_illegal_module_level_import(self, tmp_path, config):
        root = make_package(tmp_path, {
            "core/__init__.py": "",
            "apps/__init__.py": "",
            "core/bad.py": "from fixture.apps import thing\n",
        })
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["layer-imports"]

    def test_relative_import_resolved(self, tmp_path, config):
        root = make_package(tmp_path, {
            "core/__init__.py": "",
            "apps/__init__.py": "",
            "core/bad.py": "from ..apps import thing\n",
        })
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["layer-imports"]

    def test_allowed_and_lazy_imports_pass(self, tmp_path, config):
        root = make_package(tmp_path, {
            "core/__init__.py": "",
            "apps/__init__.py": "",
            "apps/ok.py": (
                "from fixture.core import thing\n"  # allowed direction
                "def lazy():\n"
                "    from fixture.runtime import pool\n"  # function-level
                "    return pool\n"
            ),
        })
        report = run_analysis(root, config)
        assert report.ok


# ----------------------------------------------------------------------
# Fork safety
# ----------------------------------------------------------------------
class TestForkSafety:
    def test_lambda_in_spec_flagged(self, tmp_path, config):
        source = "spec = ExperimentSpec('app', metric=lambda a, b: 0.0)\n"
        root = make_package(tmp_path, {"runtime/build.py": source})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["fork-safety"]
        assert "pickle" in report.findings[0].message

    def test_module_state_without_reset_flagged(self, tmp_path, config):
        root = make_package(tmp_path, {"runtime/state.py": "_CACHE = {}\n"})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["fork-safety"]

    def test_reset_hook_accepts_state(self, tmp_path, config):
        source = "_CACHE = {}\n\n\ndef reset():\n    _CACHE.clear()\n"
        root = make_package(tmp_path, {"runtime/state.py": source})
        report = run_analysis(root, config)
        assert report.ok

    def test_populated_registry_not_flagged(self, tmp_path, config):
        source = "RUNNERS = {'hotspot': 'repro.apps.hotspot'}\n"
        root = make_package(tmp_path, {"runtime/reg.py": source})
        report = run_analysis(root, config)
        assert report.ok


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------
class TestHygiene:
    def test_float_equality_flagged(self, tmp_path, config):
        source = "def f(x):\n    return x == 0.5\n"
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["hygiene-float-eq"]

    def test_bare_except_flagged(self, tmp_path, config):
        source = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 0\n"
        )
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["hygiene-bare-except"]

    def test_mutable_default_flagged(self, tmp_path, config):
        source = "def f(x, acc=[]):\n    acc.append(x)\n    return acc\n"
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["hygiene-mutable-default"]

    def test_integer_comparison_passes(self, tmp_path, config):
        source = "def f(x):\n    return x == 0\n"
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert report.ok

    def test_broad_except_around_future_result_flagged(self, tmp_path, config):
        source = (
            "def drain(future):\n"
            "    try:\n"
            "        return future.result()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["hygiene-pool-swallow"]

    def test_bare_except_around_future_result_flagged_twice(self, tmp_path,
                                                            config):
        # A bare except on a result() call trips both the generic rule and
        # the pool-swallow rule — they diagnose different consequences.
        source = (
            "def drain(future):\n"
            "    try:\n"
            "        return future.result()\n"
            "    except:\n"
            "        return None\n"
        )
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert sorted(f.code for f in report.findings) == [
            "hygiene-bare-except", "hygiene-pool-swallow",
        ]

    def test_broken_pool_handler_exempts_broad_fallback(self, tmp_path,
                                                        config):
        source = (
            "from concurrent.futures.process import BrokenProcessPool\n"
            "\n"
            "\n"
            "def drain(future):\n"
            "    try:\n"
            "        return future.result()\n"
            "    except BrokenProcessPool:\n"
            "        raise\n"
            "    except Exception:\n"
            "        return None\n"
        )
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert report.ok

    def test_broad_except_without_result_call_passes(self, tmp_path, config):
        source = (
            "def safe(callback):\n"
            "    try:\n"
            "        return callback()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        root = make_package(tmp_path, {"core/h.py": source})
        report = run_analysis(root, config)
        assert report.ok


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_disable_specific_codes(self):
        source = "_C = {}  # repro-lint: disable=fork-safety -- memo\n"
        index = SuppressionIndex.from_source(source)
        assert index.suppresses([1], "fork-safety", "fork-safety")
        assert not index.suppresses([1], "hygiene-float-eq", "hygiene")

    def test_disable_checker_covers_subcodes(self):
        source = "x = y == 0.5  # repro-lint: disable=hygiene\n"
        index = SuppressionIndex.from_source(source)
        assert index.suppresses([1], "hygiene-float-eq", "hygiene")

    def test_disable_all(self):
        index = SuppressionIndex.from_source("x = 1  # repro-lint: disable=all\n")
        assert index.suppresses([1], "anything", "any-checker")

    def test_multiline_span(self, tmp_path, config):
        source = (
            "def f(x):\n"
            "    same = 0.5 == max(\n"
            "        x,\n"
            "        0,\n"
            "    )  # repro-lint: disable=hygiene -- sentinel value\n"
            "    return same\n"
        )
        root = make_package(tmp_path, {"core/multi.py": source})
        report = run_analysis(root, config)
        assert report.ok
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_fingerprint_survives_line_shift(self, tmp_path, config):
        before = make_package(tmp_path / "a", {"core/k.py": BAD_MODULE})
        shifted = make_package(
            tmp_path / "b", {"core/k.py": "\n\n# moved\n" + BAD_MODULE}
        )
        fp_before = {f.fingerprint for f in run_analysis(before, config).findings}
        fp_after = {f.fingerprint for f in run_analysis(shifted, config).findings}
        assert len(fp_before) == 3
        assert fp_before == fp_after

    def test_fingerprint_changes_with_line_content(self):
        assert make_fingerprint("c", "p.py", "x = a + b", 0) != \
            make_fingerprint("c", "p.py", "x = a + c", 0)
        # Identical lines are disambiguated by occurrence index.
        assert make_fingerprint("c", "p.py", "x = a + b", 0) != \
            make_fingerprint("c", "p.py", "x = a + b", 1)


# ----------------------------------------------------------------------
# CLI + the live tree
# ----------------------------------------------------------------------
class TestLintCli:
    def test_repository_is_clean(self, capsys):
        # The shipping contract: every finding in the real package is
        # fixed or suppressed inline.
        code = main(["lint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in out

    def test_nonzero_exit_on_fixture_bug(self, tmp_path, capsys):
        root = make_package(tmp_path / "pkg", {"core/k.py": BAD_MODULE})
        code = main(["lint", "--path", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "hygiene-float-eq" in out


# ----------------------------------------------------------------------
# CLI satellites: sarif, --output, path validation
# ----------------------------------------------------------------------
class TestLintCliSatellites:
    def test_nonexistent_path_is_usage_error(self, tmp_path, capsys):
        code = main(["lint", "--path", str(tmp_path / "nope")])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage" in err

    def test_empty_package_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["lint", "--path", str(empty)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no python modules" in err

    def test_sarif_format(self, tmp_path, capsys):
        root = make_package(tmp_path / "pkg", {"core/k.py": BAD_MODULE})
        code = main(["lint", "--path", str(root), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert len(results) == 3
        assert all("reproLint/v1" in r["partialFingerprints"]
                   for r in results)
        rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert rule_ids == {"hygiene-float-eq", "hygiene-bare-except"}

        # One inline-suppressed finding and one unsuppressed: the gate
        # still fails, and only the unsuppressed finding is reported.
        mixed = make_package(tmp_path / "mixed", {"core/k.py": (
            "import math\n"
            "\n"
            "\n"
            "def run(x, y):\n"
            "    lo = math.floor(x)\n"
            "    unset = lo == -1.0  # repro-lint: disable=hygiene -- sentinel\n"
            "    hit = y == 0.5\n"
            "    return unset, hit\n"
        )})
        code = main(["lint", "--path", str(mixed), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        run = doc["runs"][0]
        assert run["properties"]["suppressed"] == 1
        assert [(r["ruleId"],
                 r["locations"][0]["physicalLocation"]["region"]["startLine"])
                for r in run["results"]] == [("hygiene-float-eq", 7)]

    def test_output_file(self, tmp_path, capsys):
        root = make_package(tmp_path / "pkg", {"core/k.py": CLEAN_MODULE})
        out_path = tmp_path / "report.sarif"
        code = main([
            "lint", "--path", str(root), "--format", "sarif",
            "--output", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["runs"][0]["results"] == []
        assert "written to" in capsys.readouterr().out
