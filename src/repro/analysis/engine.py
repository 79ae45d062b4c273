"""Discovery and orchestration of the contract checkers.

The engine walks a package tree, parses every module once, hands each
module to every registered checker, filters the raw findings through the
inline-suppression index, fingerprints the survivors, and folds the
result into an :class:`~repro.analysis.findings.AnalysisReport`.

The scan root is a *package directory* (``src/repro`` by default); the
first path component below it is the module's **layer** (``apps``,
``core``, ...), which is what the layer-contract checkers key on.  The
same engine runs over the fixture packages in ``tests/test_analysis.py``
— nothing in here hard-codes the real tree beyond the defaults in
:class:`AnalysisConfig`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path

from .findings import AnalysisReport, Finding, make_fingerprint
from .suppressions import SuppressionIndex

__all__ = [
    "AnalysisConfig",
    "ModuleInfo",
    "DEFAULT_LAYER_RULES",
    "discover_modules",
    "run_analysis",
]

#: Which layers each layer may import at module level, transcribed from the
#: dataflow in ``docs/ARCHITECTURE.md``.  Function-level (lazy) imports are
#: exempt — they are the sanctioned way to break the framework <-> runtime
#: cycle.  Layers absent from this map (``cli``, ``reporting``, top-level
#: modules) are unrestricted.
DEFAULT_LAYER_RULES = {
    "core": frozenset(),
    "telemetry": frozenset(),
    "analysis": frozenset(),
    "hardware": frozenset({"core"}),
    "gpu": frozenset({"core", "hardware"}),
    "erroranalysis": frozenset({"core", "telemetry"}),
    "hdl": frozenset({"core", "erroranalysis"}),
    "quality": frozenset({"core", "hardware", "telemetry"}),
    "apps": frozenset({"core", "gpu", "telemetry"}),
    "framework": frozenset({"core", "gpu", "hardware", "telemetry"}),
    "faults": frozenset({"telemetry"}),
    "runtime": frozenset({"core", "gpu", "telemetry", "faults"}),
    "service": frozenset({"core", "runtime", "framework", "telemetry",
                          "faults", "gpu"}),
}


@dataclass(frozen=True)
class AnalysisConfig:
    """What the checkers treat as contract surface.

    Attributes
    ----------
    package:
        Importable name of the scanned package (absolute-import prefix the
        layer checker resolves, e.g. ``repro`` for ``import repro.apps``).
    layer_rules:
        ``{layer: allowed imported layers}``; see :data:`DEFAULT_LAYER_RULES`.
    kernel_layers:
        Layers whose modules hold application kernels — the op-coverage
        checker only walks these.
    worker_layers:
        Layers imported by worker processes, where module-level mutable
        state risks fork inheritance (fork-safety checker scope).
    context_names:
        Variable names treated a-priori as an :class:`ArithmeticContext`;
        names assigned from ``make_context(...)`` / ``ArithmeticContext(...)``
        are added per function.
    backend_base_names:
        Class names rooting the backend registry family; methods called on
        unresolvable receivers dispatch to every implementation in the
        family (mirrors ``get_backend(...)``).
    worker_entrypoint_names:
        Function names the process-pool runner submits to workers;
        roots of the worker-state reachability query.
    worker_state_layers:
        Layers whose module-level mutable containers the worker-state
        checker audits for worker-reachable writes without a reset hook.
    """

    package: str = "repro"
    layer_rules: dict = field(default_factory=lambda: dict(DEFAULT_LAYER_RULES))
    kernel_layers: tuple = ("apps",)
    worker_layers: tuple = (
        "core", "hardware", "gpu", "apps", "quality", "erroranalysis",
        "framework", "runtime", "faults",
    )
    context_names: tuple = ("ctx", "context")
    backend_base_names: tuple = ("ComputeBackend",)
    worker_entrypoint_names: tuple = ("_evaluate_chunk",)
    worker_state_layers: tuple = ("core", "runtime")
    #: Populated by the engine: every layer directory found under the root.
    known_layers: frozenset = frozenset()
    #: Populated by the engine: the resolved whole-program view
    #: (:class:`repro.analysis.callgraph.Program` with ``summaries``).
    program: object = None


@dataclass
class ModuleInfo:
    """One parsed module, as the checkers see it."""

    path: Path  # absolute
    relpath: str  # package-relative posix path, e.g. "apps/dct.py"
    layer: str  # "" for modules directly under the root
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex

    @property
    def package_parts(self) -> tuple:
        """Package path of the module's directory, e.g. ("apps",)."""
        return tuple(Path(self.relpath).parts[:-1])

    def source_line(self, lineno: int) -> str:
        lines = self.source.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""


def discover_modules(root) -> list:
    """Parse every ``*.py`` under ``root`` into :class:`ModuleInfo`s."""
    root = Path(root)
    modules = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root)
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise ValueError(f"cannot parse {path}: {exc}") from exc
        modules.append(
            ModuleInfo(
                path=path,
                relpath=rel.as_posix(),
                layer=rel.parts[0] if len(rel.parts) > 1 else "",
                source=source,
                tree=tree,
                suppressions=SuppressionIndex.from_source(source),
            )
        )
    return modules


def run_analysis(root, config=None, checkers=None) -> AnalysisReport:
    """Run every checker over the package at ``root``.

    Parameters
    ----------
    root:
        Package directory to scan (e.g. ``src/repro``).
    config:
        :class:`AnalysisConfig`; defaults to the repro contract surface.
    checkers:
        ``{checker_id: check_fn}`` override; defaults to
        :data:`repro.analysis.checkers.ALL_CHECKERS`.
    """
    from .callgraph import build_program
    from .checkers import ALL_CHECKERS
    from .dataflow import compute_summaries

    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"analysis root {root} is not a directory")
    config = config or AnalysisConfig()
    checkers = checkers if checkers is not None else ALL_CHECKERS
    modules = discover_modules(root)
    config = replace(
        config,
        known_layers=frozenset(m.layer for m in modules if m.layer)
        | frozenset(config.layer_rules),
    )
    program = build_program(modules, config)
    program.summaries = compute_summaries(program, config)
    config = replace(config, program=program)

    findings = []
    suppressed = 0
    occurrences: dict = {}  # (code, relpath, normalized line) -> count
    for module in modules:
        raw = []
        for checker_id, check in checkers.items():
            for item in check(module, config):
                raw.append((checker_id, item))
        raw.sort(key=lambda pair: (pair[1].line, pair[1].col, pair[1].code))
        for checker_id, item in raw:
            if module.suppressions.suppresses(item.span(), item.code, checker_id):
                suppressed += 1
                continue
            normalized = " ".join(module.source_line(item.line).split())
            key = (item.code, module.relpath, normalized)
            occurrences[key] = occurrences.get(key, 0) + 1
            findings.append(
                Finding(
                    checker=checker_id,
                    code=item.code,
                    severity=item.severity,
                    path=module.relpath,
                    line=item.line,
                    col=item.col,
                    message=item.message,
                    fingerprint=make_fingerprint(
                        item.code, module.relpath, normalized,
                        occurrences[key] - 1,
                    ),
                )
            )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return AnalysisReport(
        root=str(root),
        findings=findings,
        suppressed=suppressed,
        modules_scanned=len(modules),
    )
