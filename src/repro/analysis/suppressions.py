"""Inline suppression comments recognized by the analyzer.

One form, valid as a trailing comment on the offending line or as a
comment-only line immediately above it:

``# repro-lint: disable=<code>[,<code>...]``
    Suppression of the named checker codes (a checker id such as
    ``hygiene`` matches all of its sub-codes; ``all`` matches everything).
    An optional justification follows ``--``::

        _CACHE: dict = {}  # repro-lint: disable=fork-safety -- pure memo

Suppressions apply to every line an offending AST node spans, so a
trailing comment after the closing parenthesis of a multi-line expression
also works.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["SuppressionIndex"]

_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-, ]+)")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


@dataclass
class SuppressionIndex:
    """Per-line suppressed checker codes for one source file."""

    by_line: dict = field(default_factory=dict)  # line -> set of codes

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        by_line: dict = {}
        pending: set = set()  # codes from a comment-only line, for the next line
        for lineno, text in enumerate(source.splitlines(), start=1):
            codes = set(pending)
            pending = set()
            match = _DISABLE_RE.search(text)
            if match:
                spec = match.group(1).split("--")[0]
                codes.update(
                    c.strip() for c in spec.split(",") if c.strip()
                )
            if codes:
                if _COMMENT_ONLY_RE.match(text):
                    # A standalone comment suppresses the following line.
                    pending = codes
                else:
                    by_line.setdefault(lineno, set()).update(codes)
        return cls(by_line=by_line)

    def codes_for(self, lines) -> set:
        """Union of suppressed codes over an iterable of line numbers."""
        out: set = set()
        for line in lines:
            out |= self.by_line.get(line, set())
        return out

    def suppresses(self, lines, code: str, checker: str) -> bool:
        """Whether any line in ``lines`` suppresses ``code``.

        Matches the exact code, the owning checker id (suppressing the
        whole checker), or the wildcard ``all``.
        """
        codes = self.codes_for(lines)
        return bool(codes & {code, checker, "all"})
