"""Contract-enforcing static analysis for the reproduction codebase.

The invariants ``docs/ARCHITECTURE.md`` states in prose — kernel
arithmetic routes through :class:`ArithmeticContext`, cache keys cover
every result-affecting field, layers import downward only, specs survive
the process-pool boundary — are checked mechanically here.  See
``docs/ANALYSIS.md`` for each checker's rationale and the inline
suppression markers, and ``repro lint`` for the CLI.

Typical programmatic use::

    from repro.analysis import run_analysis

    report = run_analysis(Path("src/repro"))
    if not report.ok:
        print(report.format_text())
"""

from __future__ import annotations

from .callgraph import Program, build_program
from .dataflow import Summary, compute_summaries
from .engine import (
    DEFAULT_LAYER_RULES,
    AnalysisConfig,
    ModuleInfo,
    discover_modules,
    run_analysis,
)
from .findings import AnalysisReport, Finding, RawFinding, make_fingerprint
from .sarif import to_sarif
from .suppressions import HOST_SIDE_CODE, SuppressionIndex

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "DEFAULT_LAYER_RULES",
    "Finding",
    "HOST_SIDE_CODE",
    "ModuleInfo",
    "Program",
    "RawFinding",
    "Summary",
    "SuppressionIndex",
    "build_program",
    "compute_summaries",
    "discover_modules",
    "make_fingerprint",
    "run_analysis",
    "to_sarif",
]
