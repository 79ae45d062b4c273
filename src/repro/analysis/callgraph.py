"""Whole-program call graph over the already-parsed module set.

The per-module checkers see one file at a time; the contracts added on
top of them (imprecision escaping a kernel helper, worker-written module
state) are properties of call *chains*.  This module resolves
intra-package calls into an explicit graph the dataflow pass
(:mod:`.dataflow`) folds summaries over:

- **module functions** — plain-name and ``module.attr`` calls, through
  the import maps (absolute, relative, and re-export chains like
  ``repro.runtime.__init__`` forwarding ``runner`` names);
- **methods** — class-scoped resolution: ``self.m()`` through the
  package-local MRO, ``self.attr.m()`` through attribute types inferred
  from ``__init__`` assignments, ``x = ClassName(...); x.m()`` through
  local construction sites, and ``ClassName(...)`` to ``__init__``;
- **backend registry dispatch** — a method call on an *unresolvable*
  receiver whose name belongs to the :class:`ComputeBackend` family
  (``AnalysisConfig.backend_base_names``) conservatively edges to every
  registered implementation, mirroring ``get_backend(...)`` dispatch.

Anything else stays unresolved: the edge records only the raw dotted
chain (``writer.drain``, ``numpy.add``).  Lambdas and nested ``def``
bodies are *not* attributed to the enclosing function — a callable
handed to a pool or thread runs elsewhere, not at the definition site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["FunctionNode", "ClassInfo", "CallEdge", "Program", "build_program"]


def dotted_name(node) -> str:
    """Dotted text of a name/attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def module_dotted(package: str, relpath: str) -> str:
    """Importable name of a module, e.g. ``repro.service.server``."""
    parts = relpath[:-3].split("/")  # strip ".py"
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package] + parts) if parts else package


_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                   ast.ClassDef)


def walk_scope(node):
    """``ast.walk`` over one function scope, skipping nested defs/lambdas."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_BARRIERS):
                continue
            stack.append(child)


def stmts_in_scope(body):
    """Statements of one function scope in source order, nested defs skipped."""
    for stmt in body:
        if isinstance(stmt, _SCOPE_BARRIERS):
            continue
        yield stmt
        for attr in ("body", "orelse", "finalbody"):
            yield from stmts_in_scope(getattr(stmt, attr, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            yield from stmts_in_scope(handler.body)


@dataclass
class FunctionNode:
    """One module-level function or class method."""

    fid: str  # "service/server.py::SweepService._handle_sweep"
    module: object  # ModuleInfo
    name: str
    qualname: str  # "SweepService._handle_sweep" / "run"
    node: ast.AST
    cls: str | None = None  # owning ClassInfo key, None for plain functions

    @property
    def params(self) -> tuple:
        """Positional + keyword-only parameter names, in order."""
        a = self.node.args
        names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        return tuple(names)

    @property
    def display(self) -> str:
        return self.qualname


@dataclass
class ClassInfo:
    """One class definition and what the graph knows about it."""

    ckey: str  # "runtime/cache.py::ResultCache"
    module: object
    name: str
    node: ast.ClassDef
    bases: tuple = ()  # dotted base-class names as written
    methods: dict = field(default_factory=dict)  # name -> FunctionNode
    attr_types: dict = field(default_factory=dict)  # attr -> set of ckeys


@dataclass
class CallEdge:
    """One call site inside a function and where it may land."""

    node: ast.Call
    targets: tuple = ()  # FunctionNode ids (may be several under dispatch)
    chain: str = ""  # raw dotted text at the call site


class Program:
    """The resolved whole-program view handed to checkers via the config.

    Built once per analysis run by :func:`build_program`; the dataflow
    pass populates :attr:`summaries` (fid -> ``Summary``) afterwards.
    """

    def __init__(self, package: str):
        self.package = package
        self.modules: dict = {}  # relpath -> ModuleInfo
        self.mod_by_name: dict = {}  # dotted module name -> relpath
        self.functions: dict = {}  # fid -> FunctionNode
        self.classes: dict = {}  # ckey -> ClassInfo
        self.calls: dict = {}  # fid -> list[CallEdge]
        self.summaries: dict = {}  # fid -> dataflow.Summary
        self.module_globals: dict = {}  # relpath -> set of assigned names
        self.worker_entrypoints: tuple = ()  # fids
        self.dispatch_family: frozenset = frozenset()  # backend-family ckeys
        self._dispatch_methods: dict = {}  # method name -> tuple of fids
        self._bindings: dict = {}  # relpath -> {name: binding tuple}
        self._mro_cache: dict = {}
        self._functions_by_module: dict = {}  # relpath -> list[FunctionNode]
        self._worker_reachable: dict | None = None  # fid -> entry fid

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def functions_in(self, module) -> list:
        """Module-level functions and methods defined in ``module``."""
        return self._functions_by_module.get(module.relpath, [])

    def mro(self, ckey: str) -> tuple:
        """Package-local linearization: the class, then bases breadth-first."""
        cached = self._mro_cache.get(ckey)
        if cached is not None:
            return cached
        order, queue, seen = [], [ckey], set()
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            cls = self.classes[current]
            for base in cls.bases:
                resolved = self.resolve_dotted(cls.module.relpath, base)
                if resolved and resolved[0] == "class":
                    queue.append(resolved[1])
        result = tuple(order)
        self._mro_cache[ckey] = result
        return result

    def lookup_method(self, ckey: str, name: str):
        """The :class:`FunctionNode` implementing ``name`` for ``ckey``."""
        for current in self.mro(ckey):
            found = self.classes[current].methods.get(name)
            if found is not None:
                return found
        return None

    def worker_reachable(self) -> dict:
        """``{fid: entry fid}`` for functions reachable from worker entry
        points (an arbitrary witness entry per function)."""
        if self._worker_reachable is None:
            reach: dict = {}
            queue = [(fid, fid) for fid in self.worker_entrypoints]
            while queue:
                fid, entry = queue.pop()
                if fid in reach:
                    continue
                reach[fid] = entry
                for edge in self.calls.get(fid, ()):
                    for target in edge.targets:
                        if target not in reach:
                            queue.append((target, entry))
            self._worker_reachable = reach
        return self._worker_reachable

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _module_rel(self, dotted: str):
        """Package-internal relpath of a dotted module name, or None."""
        if dotted == self.package:
            return self.mod_by_name.get(dotted)
        if not dotted.startswith(self.package + "."):
            return None
        return self.mod_by_name.get(dotted)

    def resolve_name(self, relpath: str, name: str, _seen=None):
        """Resolve a module-level binding, chasing re-export imports.

        Returns ``("func", fid)``, ``("class", ckey)``,
        ``("module", relpath)``, ``("ext", dotted)``, or None.
        """
        binding = self._bindings.get(relpath, {}).get(name)
        if binding is None:
            return None
        if binding[0] != "name":
            return binding
        _, target_rel, attr = binding
        seen = _seen if _seen is not None else set()
        key = (target_rel, attr)
        if key in seen:
            return None
        seen.add(key)
        resolved = self.resolve_name(target_rel, attr, seen)
        if resolved is None:
            # ``from repro import runtime`` style submodule import.
            sub = module_dotted(self.package, target_rel) + "." + attr
            sub_rel = self._module_rel(sub)
            if sub_rel is not None:
                return ("module", sub_rel)
        return resolved

    def _chase(self, binding):
        """Resolve an un-chased ``("name", relpath, attr)`` re-export."""
        if binding is None or binding[0] != "name":
            return binding
        _, target_rel, attr = binding
        resolved = self.resolve_name(target_rel, attr)
        if resolved is None:
            sub = module_dotted(self.package, target_rel) + "." + attr
            sub_rel = self._module_rel(sub)
            if sub_rel is not None:
                return ("module", sub_rel)
        return resolved

    def resolve_dotted(self, relpath: str, dotted: str, local_bindings=None):
        """Resolve a dotted chain from inside ``relpath`` (same returns)."""
        if not dotted:
            return None
        parts = dotted.split(".")
        first = parts[0]
        binding = None
        if local_bindings:
            binding = self._chase(local_bindings.get(first))
        if binding is None:
            binding = self.resolve_name(relpath, first)
        if binding is None:
            return None
        for part in parts[1:]:
            kind = binding[0]
            if kind == "module":
                binding = self.resolve_name(binding[1], part)
            elif kind == "ext":
                binding = ("ext", binding[1] + "." + part)
            elif kind == "class":
                method = self.lookup_method(binding[1], part)
                binding = ("func", method.fid) if method is not None else None
            else:
                binding = None
            if binding is None:
                return None
        return binding


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_program(modules, config) -> Program:
    """Index ``modules`` and resolve every call site (see module docstring)."""
    program = Program(config.package)
    for module in modules:
        program.modules[module.relpath] = module
        program.mod_by_name[module_dotted(config.package, module.relpath)] = \
            module.relpath

    for module in modules:
        _index_module(program, module)
    for module in modules:
        _collect_imports(program, module)
    _infer_attr_types(program)
    _build_dispatch(program, config)
    for fn in list(program.functions.values()):
        program.calls[fn.fid] = _extract_calls(program, fn)
    _find_worker_entrypoints(program, config)
    return program


def _index_module(program: Program, module) -> None:
    functions: list = []
    global_names: set = set()
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionNode(
                fid=f"{module.relpath}::{stmt.name}",
                module=module, name=stmt.name, qualname=stmt.name, node=stmt,
            )
            program.functions[fn.fid] = fn
            functions.append(fn)
            program._bindings.setdefault(module.relpath, {})[stmt.name] = \
                ("func", fn.fid)
        elif isinstance(stmt, ast.ClassDef):
            ckey = f"{module.relpath}::{stmt.name}"
            cls = ClassInfo(
                ckey=ckey, module=module, name=stmt.name, node=stmt,
                bases=tuple(filter(None, (dotted_name(b) for b in stmt.bases))),
            )
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionNode(
                        fid=f"{module.relpath}::{stmt.name}.{member.name}",
                        module=module, name=member.name,
                        qualname=f"{stmt.name}.{member.name}",
                        node=member, cls=ckey,
                    )
                    cls.methods[member.name] = method
                    program.functions[method.fid] = method
                    functions.append(method)
            program.classes[ckey] = cls
            program._bindings.setdefault(module.relpath, {})[stmt.name] = \
                ("class", ckey)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    global_names.add(target.id)
    program._functions_by_module[module.relpath] = functions
    program.module_globals[module.relpath] = global_names


def _import_bindings(program: Program, relpath: str, stmt) -> dict:
    """Bindings one import statement introduces (module- or function-level)."""
    out: dict = {}
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            rel = program._module_rel(alias.name)
            target = ("module", rel) if rel is not None else ("ext", alias.name)
            if alias.asname:
                out[alias.asname] = target
            else:
                top = alias.name.split(".")[0]
                top_rel = program._module_rel(top)
                out[top] = ("module", top_rel) if top_rel is not None \
                    else ("ext", top)
    elif isinstance(stmt, ast.ImportFrom):
        base = _from_base(program, relpath, stmt)
        base_rel = program._module_rel(base)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            if base_rel is not None:
                sub_rel = program._module_rel(f"{base}.{alias.name}")
                if sub_rel is not None:
                    out[bound] = ("module", sub_rel)
                else:
                    out[bound] = ("name", base_rel, alias.name)
            else:
                out[bound] = ("ext", f"{base}.{alias.name}" if base
                              else alias.name)
    return out


def _from_base(program: Program, relpath: str, node: ast.ImportFrom) -> str:
    if node.level == 0:
        return node.module or ""
    parts = module_dotted(program.package, relpath).split(".")
    if not relpath.endswith("__init__.py"):
        parts = parts[:-1]
    parts = parts[: max(len(parts) - (node.level - 1), 0)]
    base = ".".join(parts)
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base


def _collect_imports(program: Program, module) -> None:
    bindings = program._bindings.setdefault(module.relpath, {})
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for name, binding in _import_bindings(
                program, module.relpath, stmt
            ).items():
                bindings.setdefault(name, binding)


def _infer_attr_types(program: Program) -> None:
    """``self.attr = ClassName(...)`` in ``__init__`` types the attribute."""
    for cls in program.classes.values():
        init = cls.methods.get("__init__")
        if init is None:
            continue
        local_types = _local_class_types(program, init)
        for stmt in stmts_in_scope(init.node.body):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                chain = dotted_name(target)
                if not (chain.startswith("self.") and chain.count(".") == 1):
                    continue
                attr = chain.split(".")[1]
                ckey = _class_of_expr(program, init, stmt.value, local_types)
                if ckey is not None:
                    cls.attr_types.setdefault(attr, set()).add(ckey)


def _local_class_types(program: Program, fn: FunctionNode) -> dict:
    """``{local name: ckey}`` for single-class locals of one function."""
    local_bindings = _scope_imports(program, fn)
    types: dict = {}
    for stmt in stmts_in_scope(fn.node.body):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        ckey = _constructed_class(program, fn, stmt.value, local_bindings)
        if ckey is not None:
            types[target.id] = ckey
        else:
            types.pop(target.id, None)
    return types


def _constructed_class(program, fn, value, local_bindings):
    if not isinstance(value, ast.Call):
        return None
    resolved = program.resolve_dotted(
        fn.module.relpath, dotted_name(value.func), local_bindings
    )
    if resolved and resolved[0] == "class":
        return resolved[1]
    return None


def _class_of_expr(program, fn, value, local_types):
    if isinstance(value, ast.Name):
        return local_types.get(value.id)
    return _constructed_class(
        program, fn, value, _scope_imports(program, fn)
    )


def _scope_imports(program: Program, fn: FunctionNode) -> dict:
    """Function-level (lazy) imports, resolved like module-level ones."""
    out: dict = {}
    for stmt in stmts_in_scope(fn.node.body):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            out.update(_import_bindings(program, fn.module.relpath, stmt))
    return out


def _build_dispatch(program: Program, config) -> None:
    base_keys = {
        ckey for ckey, cls in program.classes.items()
        if cls.name in config.backend_base_names
    }
    if not base_keys:
        return
    family = {
        ckey for ckey in program.classes
        if base_keys & set(program.mro(ckey))
    } | base_keys
    program.dispatch_family = frozenset(family)
    methods: dict = {}
    for ckey in family:
        for name, fn in program.classes[ckey].methods.items():
            if name.startswith("_"):
                continue
            methods.setdefault(name, []).append(fn.fid)
    program._dispatch_methods = {
        name: tuple(fids) for name, fids in methods.items()
    }


def _extract_calls(program: Program, fn: FunctionNode) -> list:
    relpath = fn.module.relpath
    local_bindings = _scope_imports(program, fn)
    local_types = _local_class_types(program, fn)
    edges = []
    for node in walk_scope(fn.node):
        if not isinstance(node, ast.Call):
            continue
        chain = dotted_name(node.func)
        targets: tuple = ()
        if chain:
            targets = _resolve_call(
                program, fn, chain, local_bindings, local_types
            )
        edges.append(CallEdge(node=node, targets=targets, chain=chain))
    return edges


def _resolve_call(program, fn, chain, local_bindings, local_types):
    parts = chain.split(".")
    relpath = fn.module.relpath

    # self.m() / self.attr.m() — class-scoped resolution.
    if parts[0] == "self" and fn.cls is not None:
        if len(parts) == 2:
            method = program.lookup_method(fn.cls, parts[1])
            if method is not None:
                return (method.fid,)
        elif len(parts) == 3:
            attr_types = program.classes[fn.cls].attr_types.get(parts[1], ())
            found = tuple(
                m.fid for ckey in sorted(attr_types)
                for m in [program.lookup_method(ckey, parts[2])]
                if m is not None
            )
            if found:
                return found
        return _dispatch_fallback(program, parts[-1])

    # x = ClassName(...); x.m()
    if len(parts) == 2 and parts[0] in local_types:
        method = program.lookup_method(local_types[parts[0]], parts[1])
        if method is not None:
            return (method.fid,)

    resolved = program.resolve_dotted(relpath, chain, local_bindings)
    if resolved is not None:
        kind, value = resolved
        if kind == "func":
            return (value,)
        if kind == "class":
            init = program.lookup_method(value, "__init__")
            return (init.fid,) if init is not None else ()
        return ()

    if len(parts) > 1:
        return _dispatch_fallback(program, parts[-1])
    return ()


def _dispatch_fallback(program, method_name):
    """Backend-registry dispatch: unknown receiver, family method name."""
    return program._dispatch_methods.get(method_name, ())


def _find_worker_entrypoints(program: Program, config) -> None:
    entry = [
        fn.fid for fn in program.functions.values()
        if fn.name in config.worker_entrypoint_names
    ]
    # Functions handed by name to a pool's ``.submit(fn, ...)`` are worker
    # entry points too — that is how fixture packages mark theirs.
    for fid, edges in program.calls.items():
        owner = program.functions[fid]
        for edge in edges:
            if not edge.chain.endswith(".submit") or not edge.node.args:
                continue
            first = edge.node.args[0]
            if isinstance(first, ast.Name):
                resolved = program.resolve_name(
                    owner.module.relpath, first.id
                )
                if resolved and resolved[0] == "func":
                    entry.append(resolved[1])
    program.worker_entrypoints = tuple(dict.fromkeys(entry))
