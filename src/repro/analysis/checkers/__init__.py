"""Checker registry.

Each checker module exposes ``check(module, config) -> list[RawFinding]``.
The engine iterates :data:`ALL_CHECKERS` in order; the dict key is the
checker id that findings carry and suppressions can name.

The first five are intra-module; the last two are the
interprocedural layer and read the whole-program view the engine plants
on ``config.program`` (call graph + dataflow summaries).
"""

from __future__ import annotations

from . import (
    cachekey,
    forksafety,
    hygiene,
    imports,
    interproc,
    opcoverage,
    workerstate,
)

__all__ = ["ALL_CHECKERS"]

ALL_CHECKERS = {
    "op-coverage": opcoverage.check,
    "cache-key": cachekey.check,
    "layer-imports": imports.check,
    "fork-safety": forksafety.check,
    "hygiene": hygiene.check,
    "interproc-op-coverage": interproc.check,
    "worker-state": workerstate.check,
}
