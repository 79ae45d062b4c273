"""SARIF 2.1.0 emission for CI code-scanning annotation.

``repro lint --format sarif`` renders the report in the Static Analysis
Results Interchange Format that GitHub code scanning ingests
(``github/codeql-action/upload-sarif``), so new findings show up as
inline PR annotations instead of a log line in a failed job.

Every unsuppressed finding is emitted.  Each result carries the
analyzer's stable fingerprint as a ``partialFingerprints`` entry, so code
scanning tracks a finding across line shifts.
"""

from __future__ import annotations

__all__ = ["SARIF_VERSION", "to_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: SARIF reporting levels by finding severity.
_LEVELS = {"error": "error", "warning": "warning"}


def to_sarif(report, path_prefix: str = "") -> dict:
    """Render ``report`` (an :class:`AnalysisReport`) as a SARIF log.

    ``path_prefix`` is prepended to the package-relative finding paths so
    artifact URIs resolve from the repository root (e.g. ``src/repro/``),
    which is what the code-scanning annotation step needs.
    """
    rules: dict = {}
    results = []
    for finding in report.findings:
        if finding.code not in rules:
            rules[finding.code] = {
                "id": finding.code,
                "shortDescription": {"text": f"repro-lint {finding.code}"},
                "properties": {"checker": finding.checker},
            }
        results.append({
            "ruleId": finding.code,
            "level": _LEVELS.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f"{path_prefix}{finding.path}",
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": max(finding.col + 1, 1),
                    },
                },
            }],
            "partialFingerprints": {"reproLint/v1": finding.fingerprint},
        })
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": "docs/ANALYSIS.md",
                    "rules": sorted(rules.values(), key=lambda r: r["id"]),
                },
            },
            "results": results,
            "properties": {
                "modulesScanned": report.modules_scanned,
                "suppressed": report.suppressed,
            },
        }],
    }
