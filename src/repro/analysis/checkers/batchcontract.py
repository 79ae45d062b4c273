"""Batch-contract: every scalar backend entry point has a batch twin.

Batched evaluation (one field decomposition shared across N configs)
only pays off if *every* registered backend exposes the batch surface:
callers (``repro bench``, the batch parity harness) call ``<op>_batch``
on any backend, so every backend must answer it — at worst with the
base class's per-config loop, which keeps the numbers and drops the
speedup.

For every class in the :class:`ComputeBackend` family
(``AnalysisConfig.backend_base_names`` roots, resolved over the program
MRO), each *public* scalar method that takes a config-axis parameter
(``threshold`` / ``config`` / ``truncation`` — see
``AnalysisConfig.batch_axis_plurals``) must resolve a ``<name>_batch``
counterpart somewhere in its MRO (inheriting the base class's generic
loop satisfies the contract), and that counterpart's signature must be
the scalar signature with the axis pluralized — same names, same order.
Axis-free entry points (``imprecise_multiply``, the SFU ops) are exempt.
A public ``*_batch`` method with no scalar twin is an orphan with no
per-config reference to be checked against.

Opt-out rides the standard suppression syntax:
``# repro-lint: disable=batch-contract -- <reason>`` on the scalar def.
"""

from __future__ import annotations

from ..findings import RawFinding

__all__ = ["check"]

CODE = "batch-contract"


def _param_names(node) -> list:
    a = node.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]


def _def_finding(code, node, message, severity="error"):
    return RawFinding(
        code=code, severity=severity,
        line=node.lineno, col=node.col_offset, message=message,
        end_line=node.lineno,  # anchor on the def line, not the whole body
    )


def check(module, config) -> list:
    """Batch-contract findings for backend classes defined in ``module``."""
    program = config.program
    if program is None:
        return []
    findings = []
    for fn_key, cls in program.classes.items():
        if cls.module is not module or not program.in_backend_family(fn_key):
            continue
        for name, method in sorted(cls.methods.items()):
            if name.startswith("_"):
                continue
            if name.endswith("_batch"):
                scalar_name = name[: -len("_batch")]
                if program.lookup_method(fn_key, scalar_name) is None:
                    findings.append(_def_finding(
                        f"{CODE}-orphan", method.node,
                        f"`{cls.name}.{name}` has no scalar counterpart "
                        f"`{scalar_name}` — batch parity has no "
                        "per-config path to check it against",
                    ))
                continue
            params = _param_names(method.node)
            axes = [p for p in params if p in config.batch_axis_plurals]
            if not axes:
                continue  # axis-free entry point: no batch surface required
            batch = program.lookup_method(fn_key, f"{name}_batch")
            if batch is None:
                findings.append(_def_finding(
                    f"{CODE}-missing", method.node,
                    f"scalar entry point `{cls.name}.{name}` has no "
                    f"`{name}_batch` counterpart — batched callers cannot "
                    "run this backend",
                ))
                continue
            expected = [
                config.batch_axis_plurals.get(p, p) for p in params
            ]
            actual = _param_names(batch.node)
            if actual != expected:
                # Anchor on the batch def when it lives in this module,
                # else on the scalar def (the finding must be reportable
                # from the module being checked).
                anchor = batch.node if batch.module is module else method.node
                findings.append(_def_finding(
                    f"{CODE}-mismatch", anchor,
                    f"`{cls.name}.{name}_batch({', '.join(actual)})` does "
                    "not match the scalar signature with the axis "
                    f"pluralized — expected ({', '.join(expected)})",
                ))
    return findings
