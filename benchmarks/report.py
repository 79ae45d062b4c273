"""Shared reporting helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and prints its
rows (paper value vs measured value) so that ``pytest benchmarks/
--benchmark-only -s`` produces the full evaluation report.  Key measured
values are also attached to the pytest-benchmark ``extra_info`` so they land
in saved benchmark JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["emit", "format_row"]

REPO_ROOT = Path(__file__).resolve().parent.parent


def format_row(*cells, widths=None) -> str:
    widths = widths or [24] * len(cells)
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))


def emit(title: str, lines) -> None:
    """Print one experiment's report block (visible with ``-s``)."""
    bar = "=" * max(len(title), 40)
    out = [bar, title, bar]
    out.extend(str(line) for line in lines)
    print("\n" + "\n".join(out), file=sys.stderr)
