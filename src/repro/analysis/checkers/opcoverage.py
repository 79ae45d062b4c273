"""Kernel op-coverage: arithmetic in app kernels must route through the context.

The reproduction's central contract (docs/ARCHITECTURE.md, "The kernel
contract"): every floating-point operation inside a ``repro.apps`` kernel
goes through :class:`ArithmeticContext` dispatch (``ctx.add``, ``ctx.mul``,
``ctx.fma``, ...).  A raw ``a * b`` on arrays derived from the context
bypasses the imprecise datapath entirely — the result silently stays
precise, the op counters undercount, and the power model and drift PMFs
built on those counters are wrong.  That failure mode produces *plausible
numbers*, which is why it needs a mechanical check.

The checker runs a small intra-procedural taint analysis per function:

Seeds (tainted = "device value", i.e. flows through the imprecise units):
  * any call on a context receiver: ``ctx.add(...)``, ``context.array(...)``;
  * names assigned from ``make_context(...)`` / ``ArithmeticContext(...)``
    are treated as context receivers themselves;
  * names listed in ``AnalysisConfig.context_names`` are context receivers
    a-priori (the repo-wide parameter naming convention).

Propagation (to a monotone fixpoint — taint only grows):
  * assignment / augmented assignment / tuple unpacking from a tainted
    expression;
  * any expression containing a tainted operand taints the whole
    expression (BinOp, UnaryOp, IfExp, tuples/lists, subscripts, slices);
  * a call with a tainted argument, or a method call on a tainted
    receiver, returns taint (conservative: kernels are small and helpers
    preserve device-ness);
  * ``for`` targets iterate tainted iterables.

Untaint / never tainted:
  * function parameters (host-provided sizes, scalars, config — flagging
    ``depth - 1`` would be noise);
  * plain attribute reads (``sphere.radius``);
  * ``float()`` / ``int()`` / ``bool()`` — the documented host-side scalar
    extraction idiom (``mean = float(np.mean(img))``).

Flagged, when any operand is tainted:
  * arithmetic ``BinOp`` (+ - * / ** % @) and arithmetic ``AugAssign``;
  * calls to numpy arithmetic entry points (``np.add``, ``np.add.at``,
    ``np.multiply``, ``np.sqrt``, ``np.exp``, ...).

Suppression: a trailing ``# precise: host-side`` marks documented
host-side setup/reduction arithmetic (the same steps the paper's CUDA
harness performs outside the imprecise units).
"""

from __future__ import annotations

import ast

from ..callgraph import dotted_name
from ..findings import RawFinding

__all__ = ["check"]

CODE = "op-coverage"

_ARITH_BINOPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
    ast.Pow, ast.MatMult,
)

#: numpy call names (after the ``np.`` / ``numpy.`` prefix) that perform
#: elementwise arithmetic and therefore bypass the context datapath when
#: handed a device value.  Structural helpers (reshape, clip, where,
#: zeros_like, asarray, ...) are deliberately absent.
_NP_ARITH = {
    "add", "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "negative", "reciprocal", "power", "float_power", "mod", "remainder",
    "sqrt", "cbrt", "square", "exp", "exp2", "expm1", "log", "log2",
    "log10", "log1p", "sin", "cos", "tan", "arctan2", "hypot", "dot",
    "matmul", "inner", "outer", "tensordot", "einsum", "cumsum", "cumprod",
    "fma",
}

_UNTAINT_CALLS = {"float", "int", "bool", "len", "range", "enumerate", "zip"}

#: Constructor names whose result is a context receiver: calls on it are
#: covered ops.
_CONTEXT_CONSTRUCTORS = ("ArithmeticContext",)


def _is_context_constructor(name: str) -> bool:
    return name.split(".")[-1] == "make_context" or any(
        name.endswith(ctor) for ctor in _CONTEXT_CONSTRUCTORS
    )


def _np_arith_name(func) -> str:
    """Return the numpy ufunc name if ``func`` is a numpy arithmetic call."""
    dotted = dotted_name(func)
    if not dotted:
        return ""
    parts = dotted.split(".")
    if parts[0] not in ("np", "numpy"):
        return ""
    # np.sqrt, np.add, and the scatter form np.add.at
    if len(parts) == 2 and parts[1] in _NP_ARITH:
        return parts[1]
    if len(parts) == 3 and parts[1] in _NP_ARITH and parts[2] in ("at", "outer",
                                                                 "reduce",
                                                                 "accumulate"):
        return f"{parts[1]}.{parts[2]}"
    return ""


class _KernelTaint:
    """Taint analysis over one function body.

    The interprocedural pass (:mod:`repro.analysis.dataflow`) reuses this
    class with two extension points: ``initial_tainted`` seeds parameter
    taint learned from call sites, and ``call_taints`` is consulted for
    calls the intra-procedural rules say are clean — it returns True when
    the whole-program summary of a resolved callee says the call returns
    a device value.  ``returns_tainted`` records whether any ``return``
    statement returned taint, which is how device-ness escapes a helper.
    """

    def __init__(self, func, context_names, initial_tainted=(),
                 call_taints=None):
        self.func = func
        self.contexts = set(context_names)
        self.tainted: set = set(initial_tainted)
        self.call_taints = call_taints
        self.returns_tainted = False
        self.findings: list = []
        # End line of the statement being scanned, so a suppression after
        # the closing parenthesis of a multi-line expression still covers
        # the offending sub-node.
        self._stmt_end = 0

    # -- taint queries -------------------------------------------------
    def is_context(self, node) -> bool:
        return isinstance(node, ast.Name) and node.id in self.contexts

    def is_tainted(self, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Call):
            return self._call_taints(node)
        if isinstance(node, ast.BinOp):
            return self.is_tainted(node.left) or self.is_tainted(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.is_tainted(node.operand)
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self.is_tainted(elt) for elt in node.elts)
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Starred):
            return self.is_tainted(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.is_tainted(node.elt) or any(
                self.is_tainted(gen.iter) for gen in node.generators
            )
        if isinstance(node, ast.Dict):
            return any(self.is_tainted(v) for v in node.values)
        if isinstance(node, ast.DictComp):
            return self.is_tainted(node.value) or any(
                self.is_tainted(gen.iter) for gen in node.generators
            )
        if isinstance(node, ast.Compare):
            return False  # booleans are host-side control flow
        if isinstance(node, ast.Attribute):
            return False  # sphere.radius — plain data access
        return False

    def _call_taints(self, node: ast.Call) -> bool:
        func = node.func
        name = dotted_name(func)
        if name in _UNTAINT_CALLS:
            return False  # float(np.mean(x)) — host scalar extraction
        # ctx.anything(...) returns a device value.
        if isinstance(func, ast.Attribute) and self.is_context(func.value):
            return True
        if _is_context_constructor(name):
            return True
        # Method call on a tainted receiver (x.astype(...), x.copy()).
        if isinstance(func, ast.Attribute) and self.is_tainted(func.value):
            return True
        # Any call fed a tainted argument conservatively returns taint.
        if any(self.is_tainted(arg) for arg in node.args) or any(
            self.is_tainted(kw.value) for kw in node.keywords
        ):
            return True
        # Whole-program hook: a resolved callee whose summary says it
        # returns a device value taints the call even with clean args.
        return self.call_taints is not None and self.call_taints(node)

    # -- one pass ------------------------------------------------------
    def _bind(self, target, tainted: bool) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tainted)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tainted)
        # Subscript/attribute targets mutate an existing object in place;
        # the base name's taint already covers it.

    def _scan(self, body, emit: bool) -> None:
        for stmt in body:
            self._scan_stmt(stmt, emit)

    def _scan_stmt(self, stmt, emit: bool) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                             ast.Return, ast.Expr)):
            # Simple statements: a finding's suppressible span is the whole
            # statement, so a trailing comment after a multi-line
            # expression's closing parenthesis still covers it.
            self._stmt_end = getattr(stmt, "end_lineno", stmt.lineno) \
                or stmt.lineno
        else:
            # Compound statements: scope the span to the header expression,
            # not the body (a comment inside the body must not suppress a
            # finding on the condition).
            header = getattr(stmt, "test", None) or getattr(stmt, "iter", None)
            self._stmt_end = (
                getattr(header, "end_lineno", stmt.lineno) or stmt.lineno
                if header is not None else stmt.lineno
            )
        if isinstance(stmt, ast.Assign):
            value_tainted = self.is_tainted(stmt.value)
            if self._seeds_context(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.contexts.add(target.id)
            for target in stmt.targets:
                self._bind(target, value_tainted)
            self._visit_expr(stmt.value, emit)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.is_tainted(stmt.value))
            self._visit_expr(stmt.value, emit)
        elif isinstance(stmt, ast.AugAssign):
            tainted = self.is_tainted(stmt.target) or self.is_tainted(stmt.value)
            if tainted and isinstance(stmt.op, _ARITH_BINOPS):
                self._flag(stmt, emit,
                           f"raw `{_OP_SYMBOL.get(type(stmt.op), 'op')}=` on a "
                           "context-derived value bypasses ArithmeticContext")
            self._bind(stmt.target, tainted)
            self._visit_expr(stmt.value, emit)
        elif isinstance(stmt, ast.For):
            self._bind(stmt.target, self.is_tainted(stmt.iter))
            self._visit_expr(stmt.iter, emit)
            self._scan(stmt.body, emit)
            self._scan(stmt.orelse, emit)
        elif isinstance(stmt, ast.While):
            self._visit_expr(stmt.test, emit)
            self._scan(stmt.body, emit)
            self._scan(stmt.orelse, emit)
        elif isinstance(stmt, ast.If):
            self._visit_expr(stmt.test, emit)
            self._scan(stmt.body, emit)
            self._scan(stmt.orelse, emit)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._visit_expr(item.context_expr, emit)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars,
                               self.is_tainted(item.context_expr))
            self._scan(stmt.body, emit)
        elif isinstance(stmt, ast.Try):
            self._scan(stmt.body, emit)
            for handler in stmt.handlers:
                self._scan(handler.body, emit)
            self._scan(stmt.orelse, emit)
            self._scan(stmt.finalbody, emit)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                if isinstance(stmt, ast.Return) and self.is_tainted(stmt.value):
                    self.returns_tainted = True
                self._visit_expr(stmt.value, emit)
        # Nested function/class defs are analyzed as their own kernels by
        # the module walk; skip them here.

    def _seeds_context(self, value) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name = dotted_name(value.func)
        return _is_context_constructor(name)

    # -- finding emission ----------------------------------------------
    def _visit_expr(self, node, emit: bool) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, _ARITH_BINOPS):
                if self.is_tainted(sub.left) or self.is_tainted(sub.right):
                    self._flag(
                        sub, emit,
                        f"raw `{_OP_SYMBOL.get(type(sub.op), 'op')}` on a "
                        "context-derived value bypasses ArithmeticContext",
                    )
            elif isinstance(sub, ast.Call):
                np_name = _np_arith_name(sub.func)
                if np_name and (
                    any(self.is_tainted(a) for a in sub.args)
                    or any(self.is_tainted(kw.value) for kw in sub.keywords)
                ):
                    self._flag(
                        sub, emit,
                        f"np.{np_name} on a context-derived value bypasses "
                        "ArithmeticContext",
                    )

    def _flag(self, node, emit: bool, message: str) -> None:
        if not emit:
            return
        key = (node.lineno, message)
        if key in {(f.line, f.message) for f in self.findings}:
            return  # one finding per site per pass
        self.findings.append(
            RawFinding(
                code=CODE,
                severity="error",
                line=node.lineno,
                col=node.col_offset,
                message=message + " (mark `# precise: host-side` if intended)",
                end_line=max(
                    getattr(node, "end_lineno", node.lineno) or node.lineno,
                    self._stmt_end,
                ),
            )
        )

    def run(self) -> list:
        # Fixpoint: taint only grows, so iterate until stable, then emit.
        while True:
            before = (set(self.tainted), set(self.contexts))
            self._scan(self.func.body, emit=False)
            if (self.tainted, self.contexts) == before:
                break
        self._scan(self.func.body, emit=True)
        return self.findings


_OP_SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**", ast.MatMult: "@",
}


def check(module, config) -> list:
    """Entry point: op-coverage findings for one module."""
    if module.layer not in config.kernel_layers:
        return []
    findings = []
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(
                _KernelTaint(node, config.context_names).run()
            )
    return findings
