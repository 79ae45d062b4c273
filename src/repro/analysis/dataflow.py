"""Per-function dataflow summaries over the call graph, to a fixpoint.

Two groups of facts per function, each feeding one interprocedural
checker:

``returns_imprecise`` / ``tainted_params``
    The PR 3 intra-procedural kernel taint, closed over call boundaries:
    a helper whose ``return`` carries a context-derived value marks its
    callers' results tainted, and a tainted argument at a call site
    taints the callee's parameter.  Computed only over
    ``AnalysisConfig.kernel_layers``.

``mutates_params`` / ``writes_globals``
    In-place mutation facts for the worker-state checker: subscript /
    attribute stores, mutator-method calls, and ``global`` assignment,
    with param mutation propagated through argument aliasing — passing a
    module global into a param the callee mutates writes that global.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import walk_scope
from .checkers.opcoverage import _KernelTaint

__all__ = ["Summary", "compute_summaries"]

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "pop", "popitem", "clear",
    "extend", "extendleft", "insert", "remove", "discard", "setdefault",
})


@dataclass
class Summary:
    """What the rest of the program may assume about one function."""

    returns_imprecise: bool = False
    tainted_params: set = field(default_factory=set)
    mutates_params: set = field(default_factory=set)
    writes_globals: set = field(default_factory=set)  # {(relpath, name)}


def _base_name(node) -> str:
    """Leftmost name of a subscript/attribute store target, '' otherwise."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _local_facts(program, fn, summary) -> None:
    """Seed ``summary`` with facts visible inside ``fn`` alone."""
    params = set(fn.params)
    module_globals = program.module_globals.get(fn.module.relpath, set())
    declared_global: set = set()

    def record_store(name: str) -> None:
        if name in params:
            summary.mutates_params.add(name)
        elif name in module_globals and name not in params:
            summary.writes_globals.add((fn.module.relpath, name))

    for node in walk_scope(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    record_store(_base_name(target))
                elif isinstance(target, ast.Name) and \
                        target.id in declared_global:
                    summary.writes_globals.add(
                        (fn.module.relpath, target.id))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    record_store(_base_name(target))

    for edge in program.calls.get(fn.fid, ()):
        parts = edge.chain.split(".")
        if len(parts) == 2 and parts[1] in _MUTATOR_METHODS:
            record_store(parts[0])


def _positional_offset(target) -> int:
    """Skip the receiver slot when mapping call args onto method params."""
    if target.cls is not None and target.params and \
            target.params[0] in ("self", "cls"):
        return 1
    return 0


def _propagate(program, summaries) -> None:
    """Mutation fixpoint over resolved call edges."""
    changed = True
    while changed:
        changed = False
        for fid, edges in program.calls.items():
            caller = program.functions[fid]
            summary = summaries[fid]
            caller_params = set(caller.params)
            module_globals = program.module_globals.get(
                caller.module.relpath, set())
            for edge in edges:
                for tid in edge.targets:
                    target = program.functions[tid]
                    tsum = summaries[tid]
                    if not tsum.mutates_params:
                        continue
                    offset = _positional_offset(target)
                    for i, arg in enumerate(edge.node.args):
                        if not isinstance(arg, ast.Name):
                            continue
                        slot = i + offset
                        if slot >= len(target.params) or \
                                target.params[slot] not in tsum.mutates_params:
                            continue
                        before = (len(summary.mutates_params),
                                  len(summary.writes_globals))
                        if arg.id in caller_params:
                            summary.mutates_params.add(arg.id)
                        elif arg.id in module_globals:
                            summary.writes_globals.add(
                                (caller.module.relpath, arg.id))
                        if before != (len(summary.mutates_params),
                                      len(summary.writes_globals)):
                            changed = True
                    for kw in edge.node.keywords:
                        if kw.arg is None or \
                                not isinstance(kw.value, ast.Name) or \
                                kw.arg not in tsum.mutates_params:
                            continue
                        name = kw.value.id
                        before = (len(summary.mutates_params),
                                  len(summary.writes_globals))
                        if name in caller_params:
                            summary.mutates_params.add(name)
                        elif name in module_globals:
                            summary.writes_globals.add(
                                (caller.module.relpath, name))
                        if before != (len(summary.mutates_params),
                                      len(summary.writes_globals)):
                            changed = True


def run_kernel_taint(program, fn, summaries, config):
    """One :class:`_KernelTaint` pass with whole-program call resolution."""
    edges_by_node = {
        id(edge.node): edge for edge in program.calls.get(fn.fid, ())
    }

    def call_taints(node) -> bool:
        edge = edges_by_node.get(id(node))
        if edge is None:
            return False
        return any(
            summaries[tid].returns_imprecise for tid in edge.targets
        )

    initial = summaries[fn.fid].tainted_params & set(fn.params)
    taint = _KernelTaint(
        fn.node, config.context_names,
        initial_tainted=initial, call_taints=call_taints,
    )
    taint.run()
    return taint, edges_by_node


def _taint_fixpoint(program, summaries, config) -> None:
    """Close kernel taint over call boundaries (kernel layers only)."""
    kernel_fns = [
        fn for fn in program.functions.values()
        if fn.module.layer in config.kernel_layers
    ]
    changed = True
    while changed:
        changed = False
        for fn in kernel_fns:
            summary = summaries[fn.fid]
            taint, _ = run_kernel_taint(program, fn, summaries, config)
            if taint.returns_tainted and not summary.returns_imprecise:
                summary.returns_imprecise = True
                changed = True
            # Tainted arguments taint the callee's parameters.
            for edge in program.calls.get(fn.fid, ()):
                for tid in edge.targets:
                    target = program.functions[tid]
                    if target.module.layer not in config.kernel_layers:
                        continue
                    tsum = summaries[tid]
                    offset = _positional_offset(target)
                    for i, arg in enumerate(edge.node.args):
                        slot = i + offset
                        if slot >= len(target.params):
                            break
                        name = target.params[slot]
                        if taint.is_tainted(arg) and \
                                name not in tsum.tainted_params:
                            tsum.tainted_params.add(name)
                            changed = True
                    for kw in edge.node.keywords:
                        if kw.arg in target.params and \
                                taint.is_tainted(kw.value) and \
                                kw.arg not in tsum.tainted_params:
                            tsum.tainted_params.add(kw.arg)
                            changed = True


def compute_summaries(program, config) -> dict:
    """``{fid: Summary}`` for every function, to a fixpoint."""
    summaries = {fid: Summary() for fid in program.functions}
    for fid, fn in program.functions.items():
        _local_facts(program, fn, summaries[fid])
    _propagate(program, summaries)
    _taint_fixpoint(program, summaries, config)
    return summaries
