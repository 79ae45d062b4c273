"""Contract-enforcing static analysis for the reproduction codebase.

The invariants ``docs/ARCHITECTURE.md`` states in prose — cache keys
cover every result-affecting field, layers import downward only, specs
survive the process-pool boundary — are checked mechanically here.  Op
coverage (kernel arithmetic routes through :class:`ArithmeticContext`)
is checked at run time by ``tests/test_op_coverage.py`` instead.  See
``docs/ANALYSIS.md`` for each checker's rationale and the inline
suppression marker, and ``repro lint`` for the CLI.

Typical programmatic use::

    from repro.analysis import run_analysis

    report = run_analysis(Path("src/repro"))
    if not report.ok:
        print(report.format_text())
"""

from __future__ import annotations

from .engine import (
    DEFAULT_LAYER_RULES,
    AnalysisConfig,
    ModuleInfo,
    discover_modules,
    run_analysis,
)
from .findings import AnalysisReport, Finding, RawFinding, make_fingerprint
from .sarif import to_sarif
from .suppressions import SuppressionIndex

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "DEFAULT_LAYER_RULES",
    "Finding",
    "ModuleInfo",
    "RawFinding",
    "SuppressionIndex",
    "discover_modules",
    "make_fingerprint",
    "run_analysis",
    "to_sarif",
]
