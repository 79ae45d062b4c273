"""Worker-state: worker-written module globals need a reset hook.

Generalizes the fork-safety heuristic (any module-level mutable
container in a worker-imported layer) into a reachability query: flag
only containers that are actually *written* by a function reachable
from a worker entry point (the runner's ``_evaluate_chunk`` — see
``AnalysisConfig.worker_entrypoint_names`` — plus functions handed to a
pool's ``.submit``).  A container nobody on the worker side mutates is
a static table; one a worker writes without a module-level ``reset()``
hook diverges silently between pool recycles and poisons retry and
rerun semantics.

Writes are the dataflow summaries' ``writes_globals`` facts — direct
``global`` assignment, subscript/attribute stores, mutator-method
calls, and mutation through argument aliasing (passing the global into
a parameter the callee mutates, the ``_memo_framework(memo, spec)``
idiom).

Scope is ``AnalysisConfig.worker_state_layers`` (runtime + backends);
suppression: ``# repro-lint: disable=worker-state -- <reason>``.
"""

from __future__ import annotations

import ast

from ..findings import RawFinding
from .forksafety import _has_reset_hook, _is_mutable_literal

__all__ = ["check"]

CODE = "worker-state"


def check(module, config) -> list:
    """Worker-state findings for module-level containers in ``module``."""
    program = config.program
    if program is None or module.layer not in config.worker_state_layers:
        return []
    if _has_reset_hook(module.tree):
        return []

    # Who writes which global of this module, among worker-reachable code.
    reachable = program.worker_reachable()
    writers: dict = {}  # global name -> (writer fid, entry fid)
    for fid, summary in program.summaries.items():
        if fid not in reachable:
            continue
        for relpath, name in summary.writes_globals:
            if relpath == module.relpath:
                writers.setdefault(name, (fid, reachable[fid]))

    if not writers:
        return []

    findings = []
    for stmt in module.tree.body:
        targets = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
            value = stmt.value
        if value is None or not targets or not _is_mutable_literal(value):
            continue
        for target in targets:
            hit = writers.get(target.id)
            if hit is None:
                continue
            writer, entry = hit
            findings.append(RawFinding(
                code=CODE,
                severity="warning",
                line=stmt.lineno,
                col=stmt.col_offset,
                message=(
                    f"module-level mutable `{target.id}` is written by "
                    f"`{program.functions[writer].display}` (reachable from "
                    f"worker entry `{program.functions[entry].display}`) "
                    "with no module reset hook — state diverges across "
                    "pool recycles (add a reset()/reset_* function, or "
                    "suppress with a justification)"
                ),
            ))
    return findings
