"""Finding model shared by every checker.

A checker reports :class:`RawFinding` objects — location, code, message —
and the engine (:mod:`repro.analysis.engine`) turns the survivors of
suppression filtering into :class:`Finding` records carrying a *stable
fingerprint*: a content hash of the checker code, the module path, and the
normalized source line, independent of the absolute line number.  SARIF
output carries it as ``partialFingerprints``, so code scanning keeps
recognizing a finding when unrelated edits shift code up or down a file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

__all__ = ["RawFinding", "Finding", "AnalysisReport", "SEVERITIES"]

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class RawFinding:
    """What a checker emits: a location plus the complaint, pre-fingerprint."""

    code: str  # e.g. "cache-key", "hygiene-float-eq"
    severity: str  # "error" | "warning"
    line: int  # 1-based first line of the offending node
    col: int
    message: str
    end_line: int = 0  # last line of the node (0 -> same as line)

    def span(self) -> range:
        return range(self.line, max(self.end_line, self.line) + 1)


@dataclass(frozen=True)
class Finding:
    """One unsuppressed finding, addressable by its stable fingerprint."""

    checker: str  # owning checker id, e.g. "hygiene"
    code: str  # specific code, e.g. "hygiene-float-eq"
    severity: str
    path: str  # package-relative posix path, e.g. "apps/dct.py"
    line: int
    col: int
    message: str
    fingerprint: str

    def format(self, prefix: str = "") -> str:
        location = f"{prefix}{self.path}:{self.line}:{self.col}"
        return (
            f"{location}: {self.severity} {self.code}: {self.message} "
            f"[{self.fingerprint}]"
        )


def make_fingerprint(code: str, path: str, normalized_line: str,
                     occurrence: int) -> str:
    """Content hash of a finding, independent of its line number.

    ``occurrence`` disambiguates several identical findings on identical
    source lines within one file (counted in file order).
    """
    payload = json.dumps(
        [code, path, normalized_line, occurrence], separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class AnalysisReport:
    """Outcome of one :func:`repro.analysis.run_analysis` invocation."""

    root: str  # scan root, for display prefixes
    findings: list = field(default_factory=list)  # unsuppressed, file order
    suppressed: int = 0  # inline-suppressed count
    modules_scanned: int = 0

    @property
    def ok(self) -> bool:
        """Gate verdict: clean unless an unsuppressed finding exists."""
        return not self.findings

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        count = len(self.findings)
        text = f"{count} finding{'s' if count != 1 else ''}"
        if self.suppressed:
            text += f", {self.suppressed} suppressed inline"
        return f"{text} across {self.modules_scanned} modules"

    def format_text(self, path_prefix: str = "") -> str:
        lines = [f.format(prefix=path_prefix) for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)
