"""Checker registry.

Each checker module exposes ``check(module, config) -> list[RawFinding]``
and sees one module at a time.  The engine iterates :data:`ALL_CHECKERS`
in order; the dict key is the checker id that findings carry and
suppressions can name.
"""

from __future__ import annotations

from . import cachekey, forksafety, hygiene, imports

__all__ = ["ALL_CHECKERS"]

ALL_CHECKERS = {
    "cache-key": cachekey.check,
    "layer-imports": imports.check,
    "fork-safety": forksafety.check,
    "hygiene": hygiene.check,
}
