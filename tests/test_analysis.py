"""Contract-enforcing static analysis: checkers, suppressions, fingerprints, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    AnalysisConfig,
    SuppressionIndex,
    build_program,
    discover_modules,
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


GOOD_KERNEL = """\
import numpy as np


def run(ctx, image):
    doubled = ctx.add(image, image)
    scaled = ctx.mul(doubled, np.float32(0.5))
    mean = float(np.mean(np.asarray(scaled)))
    return scaled, mean
"""

BAD_KERNEL = """\
import numpy as np


def run(ctx, image):
    device = ctx.array(image)
    doubled = device + device
    boosted = np.sqrt(device)
    total = doubled
    total += 1.0
    return doubled, boosted, total
"""

SUPPRESSED_KERNEL = """\
import numpy as np


def run(ctx, image):
    device = ctx.array(image)
    host = np.asarray(device) + 128.0  # precise: host-side (un-bias)
    return host
"""


@pytest.fixture
def config():
    return AnalysisConfig(
        package="fixture",
        layer_rules={
            "core": frozenset(),
            "apps": frozenset({"core"}),
        },
        kernel_layers=("apps",),
        worker_layers=("core", "apps", "runtime"),
    )


# ----------------------------------------------------------------------
# Op-coverage
# ----------------------------------------------------------------------
class TestOpCoverage:
    def test_clean_kernel_passes(self, tmp_path, config):
        root = make_package(tmp_path, {"apps/good.py": GOOD_KERNEL})
        report = run_analysis(root, config)
        assert report.ok
        assert report.findings == []

    def test_bypassed_op_is_caught(self, tmp_path, config):
        root = make_package(tmp_path, {"apps/bad.py": BAD_KERNEL})
        report = run_analysis(root, config)
        codes = [f.code for f in report.findings]
        assert codes.count("op-coverage") == 3  # +, np.sqrt, +=
        lines = {f.line for f in report.findings}
        assert {6, 7, 9} <= lines
        assert not report.ok

    def test_host_side_suppression_honored(self, tmp_path, config):
        root = make_package(tmp_path, {"apps/ok.py": SUPPRESSED_KERNEL})
        report = run_analysis(root, config)
        assert report.ok
        assert report.suppressed == 1

    def test_kernel_layer_scoping(self, tmp_path, config):
        # The same bypassed op outside a kernel layer is not op-coverage's
        # business (host orchestration code does arithmetic freely).
        root = make_package(tmp_path, {"core/bad.py": BAD_KERNEL})
        report = run_analysis(root, config)
        assert "op-coverage" not in {f.code for f in report.findings}

    def test_context_rebinding_tracked(self, tmp_path, config):
        source = (
            "def run(config, image):\n"
            "    c = make_context(config)\n"
            "    out = c.add(image, image)\n"
            "    return out * 2\n"
        )
        root = make_package(tmp_path, {"apps/rebind.py": source})
        report = run_analysis(root, config)
        assert [f.code for f in report.findings] == ["op-coverage"]
        assert report.findings[0].line == 4

    def test_float_extraction_untaints(self, tmp_path, config):
        source = (
            "def run(ctx, image):\n"
            "    total = float(ctx.add(image, image).sum())\n"
            "    return total / 2.0\n"
        )
        root = make_package(tmp_path, {"apps/extract.py": source})
        report = run_analysis(root, config)
        assert report.ok


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
    def test_trailing_host_side(self):
        index = SuppressionIndex.from_source("x = a + b  # precise: host-side\n")
        assert index.suppresses([1], "op-coverage", "op-coverage")
        assert not index.suppresses([1], "hygiene-float-eq", "hygiene")

    def test_comment_line_above(self):
        source = "# precise: host-side (setup)\nx = a + b\n"
        index = SuppressionIndex.from_source(source)
        assert index.suppresses([2], "op-coverage", "op-coverage")
        assert not index.suppresses([1], "op-coverage", "op-coverage")

    def test_disable_specific_codes(self):
        source = "_C = {}  # repro-lint: disable=fork-safety -- memo\n"
        index = SuppressionIndex.from_source(source)
        assert index.suppresses([1], "fork-safety", "fork-safety")
        assert not index.suppresses([1], "op-coverage", "op-coverage")

    def test_disable_checker_covers_subcodes(self):
        source = "x = y == 0.5  # repro-lint: disable=hygiene\n"
        index = SuppressionIndex.from_source(source)
        assert index.suppresses([1], "hygiene-float-eq", "hygiene")

    def test_disable_all(self):
        index = SuppressionIndex.from_source("x = 1  # repro-lint: disable=all\n")
        assert index.suppresses([1], "anything", "any-checker")

    def test_multiline_span(self, tmp_path, config):
        source = (
            "def run(ctx, image):\n"
            "    d = ctx.array(image)\n"
            "    out = (\n"
            "        d + d\n"
            "    )  # precise: host-side\n"
            "    return out\n"
        )
        root = make_package(tmp_path, {"apps/multi.py": source})
        report = run_analysis(root, config)
        assert report.ok
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_fingerprint_survives_line_shift(self, tmp_path, config):
        before = make_package(tmp_path / "a", {"apps/k.py": BAD_KERNEL})
        shifted = make_package(
            tmp_path / "b", {"apps/k.py": "\n\n# moved\n" + BAD_KERNEL}
        )
        fp_before = {f.fingerprint for f in run_analysis(before, config).findings}
        fp_after = {f.fingerprint for f in run_analysis(shifted, config).findings}
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
        root = make_package(tmp_path / "pkg", {"apps/k.py": BAD_KERNEL})
        code = main(["lint", "--path", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "op-coverage" in out


# ----------------------------------------------------------------------
# Interprocedural op-coverage (call-graph taint)
# ----------------------------------------------------------------------
ESCAPING_TAINT = """\
import numpy as np


def _scale(ctx, image):
    return ctx.mul(image, np.float32(2.0))


def run(ctx, image):
    blocks = _scale(ctx, image)
    return np.add(blocks, np.float32(1.0))
"""

METHOD_ESCAPING_TAINT = """\
class Kernel:
    def _scale(self, ctx, image):
        return ctx.mul(image, 2.0)

    def run(self, ctx, image):
        blocks = self._scale(ctx, image)
        return blocks * 2
"""


class TestInterprocOpCoverage:
    def test_taint_escaping_helper_is_caught(self, tmp_path, config):
        root = make_package(tmp_path, {"apps/k.py": ESCAPING_TAINT})
        report = run_analysis(root, config)
        interproc = [f for f in report.findings
                     if f.checker == "interproc-op-coverage"]
        assert len(interproc) >= 1
        assert interproc[0].line == 10
        assert "helper-call boundary" in interproc[0].message
        assert not report.ok

    def test_method_resolution_via_self(self, tmp_path, config):
        root = make_package(tmp_path, {"apps/k.py": METHOD_ESCAPING_TAINT})
        report = run_analysis(root, config)
        interproc = [f for f in report.findings
                     if f.checker == "interproc-op-coverage"]
        assert len(interproc) == 1
        assert interproc[0].line == 7

    def test_no_double_report_with_intra(self, tmp_path, config):
        # A site the intra-procedural checker already flags must not be
        # reported a second time by the interprocedural pass.
        root = make_package(tmp_path, {"apps/k.py": BAD_KERNEL})
        report = run_analysis(root, config)
        assert not any(f.checker == "interproc-op-coverage"
                       for f in report.findings)

    def test_host_side_suppression_round_trip(self, tmp_path, config):
        suppressed = ESCAPING_TAINT.replace(
            "return np.add(blocks, np.float32(1.0))",
            "return np.add(blocks, np.float32(1.0))  # precise: host-side",
        )
        root = make_package(tmp_path, {"apps/k.py": suppressed})
        report = run_analysis(root, config)
        assert report.ok
        assert report.suppressed == 1

    def test_param_untainted_without_tainted_caller(self, tmp_path, config):
        # A helper taking plain host arrays stays clean even though a
        # second kernel passes it device values under a different param.
        source = (
            "def _shift(image, bias):\n"
            "    return image + bias\n"
            "\n"
            "\n"
            "def host_entry(image):\n"
            "    return _shift(image, 1.0)\n"
        )
        root = make_package(tmp_path, {"apps/k.py": source})
        report = run_analysis(root, config)
        assert report.ok


# ----------------------------------------------------------------------
# Worker-state
# ----------------------------------------------------------------------
WORKER_GLOBAL = """\
_MEMO = {}


def _evaluate_chunk(items):
    return [_eval(i) for i in items]


def _eval(item):
    if item not in _MEMO:
        _MEMO[item] = item + item
    return _MEMO[item]
"""

WORKER_GLOBAL_ALIASED = """\
_FRAMEWORKS = {}


def _evaluate_chunk(spec):
    return _memo(_FRAMEWORKS, spec)


def _memo(memo, spec):
    if spec not in memo:
        memo[spec] = spec
    return memo[spec]
"""


class TestWorkerState:
    def test_worker_written_global_flagged(self, tmp_path, config):
        root = make_package(tmp_path, {"runtime/state.py": WORKER_GLOBAL})
        report = run_analysis(root, config)
        ws = [f for f in report.findings if f.code == "worker-state"]
        assert len(ws) == 1
        assert "_MEMO" in ws[0].message
        assert "_evaluate_chunk" in ws[0].message

    def test_mutation_through_argument_aliasing(self, tmp_path, config):
        # The `_memo_framework(_WORKER_FRAMEWORKS, spec)` idiom: the
        # global is written through a parameter of the callee.
        root = make_package(tmp_path,
                            {"runtime/state.py": WORKER_GLOBAL_ALIASED})
        report = run_analysis(root, config)
        ws = [f for f in report.findings if f.code == "worker-state"]
        assert len(ws) == 1
        assert "_FRAMEWORKS" in ws[0].message

    def test_reset_hook_accepts_worker_state(self, tmp_path, config):
        source = WORKER_GLOBAL + "\n\ndef reset():\n    _MEMO.clear()\n"
        root = make_package(tmp_path, {"runtime/state.py": source})
        report = run_analysis(root, config)
        assert "worker-state" not in {f.code for f in report.findings}

    def test_unwritten_container_not_flagged(self, tmp_path, config):
        # A container nobody worker-reachable writes is a static table
        # (fork-safety may still warn; worker-state must not).
        source = "_TABLE = {}\n\n\ndef _evaluate_chunk(items):\n    return _TABLE\n"
        root = make_package(tmp_path, {"runtime/state.py": source})
        report = run_analysis(root, config)
        assert "worker-state" not in {f.code for f in report.findings}

    def test_suppression_round_trip(self, tmp_path, config):
        source = WORKER_GLOBAL.replace(
            "_MEMO = {}",
            "_MEMO = {}  # repro-lint: disable=worker-state,fork-safety -- per-process memo",
        )
        root = make_package(tmp_path, {"runtime/state.py": source})
        report = run_analysis(root, config)
        assert report.ok
        assert report.suppressed == 2


    def test_real_worker_entrypoints_resolve(self):
        # A renamed entry point would silently switch the checker off.
        root = Path(repro.__file__).parent
        config = AnalysisConfig()
        program = build_program(discover_modules(root), config)
        names = {fn.name for fn in program.functions.values()}
        assert set(config.worker_entrypoint_names) <= names
        assert ("runtime/runner.py::_evaluate_chunk"
                in program.worker_entrypoints)


# ----------------------------------------------------------------------
# Fingerprint stability for the interprocedural checkers
# ----------------------------------------------------------------------
class TestInterprocFingerprints:
    @pytest.mark.parametrize("relpath,source", [
        ("apps/k.py", ESCAPING_TAINT),
        ("runtime/state.py", WORKER_GLOBAL),
    ])
    def test_fingerprints_survive_line_shift(self, tmp_path, config,
                                             relpath, source):
        before = make_package(tmp_path / "a", {relpath: source})
        shifted = make_package(
            tmp_path / "b", {relpath: "# moved\n# down\n\n" + source}
        )
        fp_before = {f.fingerprint
                     for f in run_analysis(before, config).findings}
        fp_after = {f.fingerprint
                    for f in run_analysis(shifted, config).findings}
        assert fp_before
        assert fp_before == fp_after


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
        root = make_package(tmp_path / "pkg", {"apps/k.py": BAD_KERNEL})
        code = main(["lint", "--path", str(root), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert len(results) == 3
        assert all("reproLint/v1" in r["partialFingerprints"]
                   for r in results)
        rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert "op-coverage" in rule_ids

        # One inline-suppressed finding and one unsuppressed: the gate
        # still fails, and only the unsuppressed finding is reported.
        mixed = make_package(tmp_path / "mixed", {"apps/k.py": (
            "import numpy as np\n"
            "\n"
            "\n"
            "def run(ctx, image):\n"
            "    device = ctx.array(image)\n"
            "    host = np.asarray(device) + 128.0  # precise: host-side\n"
            "    leaked = device * 2.0\n"
            "    return host, leaked\n"
        )})
        code = main(["lint", "--path", str(mixed), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        run = doc["runs"][0]
        assert run["properties"]["suppressed"] == 1
        assert [(r["ruleId"],
                 r["locations"][0]["physicalLocation"]["region"]["startLine"])
                for r in run["results"]] == [("op-coverage", 7)]

    def test_output_file(self, tmp_path, capsys):
        root = make_package(tmp_path / "pkg", {"apps/k.py": GOOD_KERNEL})
        out_path = tmp_path / "report.sarif"
        code = main([
            "lint", "--path", str(root), "--format", "sarif",
            "--output", str(out_path),
        ])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["runs"][0]["results"] == []
        assert "written to" in capsys.readouterr().out
