"""Qualified callgraph extraction for the interprocedural rules.

:func:`extract_module_graph` lowers one :class:`ModuleIndex` into a
:class:`ModuleGraph`: every function and method in the module becomes
a :class:`FunctionNode` keyed by its qualified name
(``repro.sim.engine.ServingEngine.step``), carrying the call sites
and explicit raise sites found in its body. Call targets are recorded
*locally* -- import aliases expanded via
:meth:`ModuleIndex.resolved_name`, ``self.method()`` kept as a
``self:method`` marker -- and only linked into cross-module edges by
:class:`Callgraph`, which owns the whole-index views: dotted-name
resolution through re-exports, method lookup through the class bases
table, and exception-subclass queries for the contract rule.

A :class:`ModuleGraph` is a pure function of one module's syntax tree
-- it never reads suppressions -- so
:meth:`~repro.analysis.index.CodebaseIndex.callgraph` extracts each
module once per lint run, and the suppression audit's blinded index
links the same graphs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.index import (
    ModuleIndex,
    _dotted,
    import_aliases,
)

__all__ = [
    "CATCH_ALL",
    "CallSite",
    "RaiseSite",
    "FunctionNode",
    "ClassNode",
    "ModuleGraph",
    "Callgraph",
    "extract_module_graph",
]

#: Handler sentinel for ``except:`` / ``except Exception`` / dynamic
#: handler types -- treated as catching everything.
CATCH_ALL = "*"

_TRY_TYPES: Tuple[type, ...] = (ast.Try,) + (
    (ast.TryStar,) if hasattr(ast, "TryStar") else ())

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Exception names every contract treats as catch-all handlers.
_BROAD_HANDLERS = frozenset({
    "Exception", "BaseException",
    "builtins.Exception", "builtins.BaseException"})


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``target`` is either ``self:<method>`` (an unresolved method call
    on ``self``/``cls``) or a dotted, import-alias-expanded name.
    ``caught`` lists the handler types of every enclosing ``try``
    protecting this site, innermost first.
    """

    target: str
    line: int
    has_args: bool
    caught: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RaiseSite:
    """One explicit ``raise <Exc>`` with its protecting handlers."""

    exception: str
    line: int
    caught: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionNode:
    """One function or method, qualified by module (and class)."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    line: int
    calls: Tuple[CallSite, ...] = ()
    raises: Tuple[RaiseSite, ...] = ()

    @property
    def is_nested(self) -> bool:
        """Whether this def lives inside another function's body."""
        parent = f"{self.module}.{self.cls}" if self.cls else self.module
        return self.qualname != f"{parent}.{self.name}"


@dataclass(frozen=True)
class ClassNode:
    """One class: resolved base names plus its own method names."""

    name: str
    module: str
    line: int
    bases: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()


@dataclass
class ModuleGraph:
    """The per-module half of the callgraph."""

    module: str
    path: str
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    #: import alias -> dotted origin, for link-time re-export chasing.
    imports: Dict[str, str] = field(default_factory=dict)


# -- extraction --------------------------------------------------------


def _handler_names(module: ModuleIndex,
                   handlers: Sequence[ast.ExceptHandler],
                   local: Optional[Dict[str, str]] = None
                   ) -> Tuple[str, ...]:
    names: List[str] = []
    for handler in handlers:
        if handler.type is None:
            names.append(CATCH_ALL)
            continue
        types = handler.type.elts \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        for node in types:
            dotted = module.resolved_name(node, local)
            if dotted is None or dotted in _BROAD_HANDLERS:
                # A handler type we cannot name statically is assumed
                # to catch everything: the contract rule must prefer a
                # missed escape over a phantom one.
                names.append(CATCH_ALL)
            else:
                names.append(dotted)
    return tuple(names)


class _BodyWalker:
    """Collects the calls and raises of one function body, threading
    the enclosing-``try`` handler stack through recursion."""

    def __init__(self, module: ModuleIndex, cls: Optional[str],
                 params: Set[str], local_funcs: Dict[str, str],
                 local_imports: Dict[str, str],
                 top_names: Set[str]) -> None:
        self.module = module
        self.cls = cls
        self.params = params
        self.local_funcs = local_funcs
        self.local_imports = local_imports
        self.top_names = top_names
        self.calls: List[CallSite] = []
        self.raises: List[RaiseSite] = []

    def walk(self, node: ast.AST, caught: Tuple[str, ...]) -> None:
        if isinstance(node, _FUNC_TYPES + (ast.ClassDef,)):
            return  # nested defs are extracted as their own nodes
        if isinstance(node, _TRY_TYPES):
            protected = caught + _handler_names(
                self.module, node.handlers, self.local_imports)
            for stmt in node.body:
                self.walk(stmt, protected)
            for handler in node.handlers:
                for stmt in handler.body:
                    self.walk(stmt, caught)
            for stmt in list(node.orelse) + list(node.finalbody):
                self.walk(stmt, caught)
            return
        if isinstance(node, ast.Raise):
            self._record_raise(node, caught)
        elif isinstance(node, ast.Call):
            self._record_call(node, caught)
        for child in ast.iter_child_nodes(node):
            self.walk(child, caught)

    def _record_raise(self, node: ast.Raise,
                      caught: Tuple[str, ...]) -> None:
        if node.exc is None:
            return  # bare re-raise: the original site is accounted for
        target = node.exc.func if isinstance(node.exc, ast.Call) \
            else node.exc
        dotted = self._expand(target)
        if dotted is not None:
            self.raises.append(RaiseSite(
                exception=dotted, line=node.lineno, caught=caught))

    def _record_call(self, node: ast.Call,
                     caught: Tuple[str, ...]) -> None:
        target = self._call_target(node.func)
        if target is not None:
            self.calls.append(CallSite(
                target=target, line=node.lineno,
                has_args=bool(node.args or node.keywords),
                caught=caught))

    def _expand(self, node: ast.AST) -> Optional[str]:
        """Resolve a name, qualifying module-level defs/classes."""
        dotted = self.module.resolved_name(node, self.local_imports)
        if dotted is None:
            return None
        head = dotted.partition(".")[0]
        if head in self.params:
            return None
        if head in self.top_names and head not in self.module.imports:
            return f"{self.module.name}.{dotted}"
        return dotted

    def _call_target(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in ("self", "cls") \
                and self.cls is not None:
            return f"self:{func.attr}"
        raw = _dotted(func)
        dotted = self.module.resolved_name(func, self.local_imports)
        if dotted is None:
            return None
        if raw != dotted:
            # resolved_name expanded an import alias: the origin is
            # authoritative whatever else the name collides with.
            return dotted
        head, _, _rest = dotted.partition(".")
        if head in self.params:
            return None
        if head in self.local_funcs and "." not in dotted:
            # A directly nested def: resolve to its qualified node.
            return self.local_funcs[head]
        if head in self.top_names and head not in self.module.imports:
            # Module-level def/class (possibly Class.method).
            return f"{self.module.name}.{dotted}"
        if "." in dotted:
            # Identity imports (``import time`` -> ``time.time``) and
            # attribute chains on locals; the latter resolve to
            # nothing and match no atom, which is the right answer.
            return dotted
        return None  # bare builtins and locals


def _params_of(fn: ast.AST) -> Set[str]:
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _extract_function(graph: ModuleGraph, module: ModuleIndex,
                      node: ast.AST, cls: Optional[str],
                      qualprefix: str, top_names: Set[str]) -> None:
    qualname = f"{qualprefix}.{node.name}"
    # Direct child defs (any statement depth, but not inside deeper
    # functions) are callable by bare name from this body, and the
    # body's own imports (deferred to keep module import cheap) resolve
    # like module-level ones.
    local_funcs: Dict[str, str] = {}
    local_imports: Dict[str, str] = {}
    nested: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _FUNC_TYPES):
            local_funcs[child.name] = f"{qualname}.{child.name}"
            nested.append(child)
            continue
        if isinstance(child, ast.ClassDef):
            continue
        local_imports.update(import_aliases(child))
        stack.extend(ast.iter_child_nodes(child))
    walker = _BodyWalker(module, cls, _params_of(node), local_funcs,
                         local_imports, top_names)
    for stmt in node.body:
        walker.walk(stmt, ())
    graph.functions[qualname] = FunctionNode(
        qualname=qualname, module=module.name, name=node.name, cls=cls,
        line=node.lineno, calls=tuple(walker.calls),
        raises=tuple(walker.raises))
    for child in sorted(nested, key=lambda n: n.lineno):
        _extract_function(graph, module, child, cls, qualname, top_names)


def _top_level_defs(body: Sequence[ast.stmt]) -> List[ast.stmt]:
    """Defs/classes at module level, walking the same ``if``/``try``
    wrappers :func:`repro.analysis.index._index_body` walks."""
    found: List[ast.stmt] = []
    for node in body:
        if isinstance(node, _FUNC_TYPES + (ast.ClassDef,)):
            found.append(node)
        elif isinstance(node, ast.If):
            found.extend(_top_level_defs(node.body))
            found.extend(_top_level_defs(node.orelse))
        elif isinstance(node, _TRY_TYPES):
            found.extend(_top_level_defs(node.body))
            for handler in node.handlers:
                found.extend(_top_level_defs(handler.body))
            found.extend(_top_level_defs(node.orelse))
            found.extend(_top_level_defs(node.finalbody))
    return found


def extract_module_graph(module: ModuleIndex) -> ModuleGraph:
    """Lower one indexed module into its callgraph fragment."""
    graph = ModuleGraph(module=module.name, path=module.path,
                        imports=dict(module.imports))
    defs = _top_level_defs(module.tree.body)
    top_names = {node.name for node in defs} | module.bindings
    for node in defs:
        if isinstance(node, _FUNC_TYPES):
            _extract_function(graph, module, node, None, module.name,
                              top_names)
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            bases: List[str] = []
            for base in node.bases:
                dotted = module.resolved_name(base)
                if dotted is None:
                    continue
                head = dotted.partition(".")[0]
                if head in top_names and head not in module.imports:
                    dotted = f"{module.name}.{dotted}"
                bases.append(dotted)
            for stmt in node.body:
                if isinstance(stmt, _FUNC_TYPES):
                    methods.append(stmt.name)
                    _extract_function(
                        graph, module, stmt, node.name,
                        f"{module.name}.{node.name}", top_names)
            graph.classes[node.name] = ClassNode(
                name=node.name, module=module.name, line=node.lineno,
                bases=tuple(bases), methods=tuple(methods))
    return graph


# -- linking -----------------------------------------------------------


class Callgraph:
    """The linked whole-index view over per-module graphs."""

    #: Re-export chains longer than this are cycles or pathologies.
    _MAX_CHASE = 8

    def __init__(self, graphs: Dict[str, ModuleGraph]) -> None:
        self.graphs = graphs
        self.functions: Dict[str, FunctionNode] = {}
        self._classes: Dict[str, ClassNode] = {}
        for graph in graphs.values():
            self.functions.update(graph.functions)
            for cls in graph.classes.values():
                self._classes[f"{graph.module}.{cls.name}"] = cls

    # -- name resolution ----------------------------------------------

    def resolve(self, fn: FunctionNode, target: str) -> Optional[str]:
        """Resolve one call-site target to a function qualname, or
        None when the target is external / dynamic."""
        if target.startswith("self:"):
            if fn.cls is None:
                return None
            return self._resolve_method(
                f"{fn.module}.{fn.cls}", target[5:], set())
        return self._resolve_dotted(target)

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        for _ in range(self._MAX_CHASE):
            resolved = self._resolve_step(dotted)
            if resolved is None or not resolved.startswith("chase:"):
                return resolved
            dotted = resolved[6:]
        return None

    def _resolve_step(self, dotted: str) -> Optional[str]:
        parts = dotted.split(".")
        # Longest module prefix wins ("repro.analysis.rules" before
        # "repro.analysis").
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            graph = self.graphs.get(mod)
            if graph is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                qual = f"{mod}.{rest[0]}"
                if qual in graph.functions:
                    return qual
                if rest[0] in graph.classes:
                    return self._constructor_of(qual)
                origin = graph.imports.get(rest[0])
                return f"chase:{origin}" if origin else None
            if len(rest) == 2:
                qual = f"{mod}.{rest[0]}.{rest[1]}"
                if qual in graph.functions:
                    return qual
                if rest[0] in graph.classes:
                    return self._resolve_method(
                        f"{mod}.{rest[0]}", rest[1], set())
                origin = graph.imports.get(rest[0])
                return f"chase:{origin}.{rest[1]}" if origin else None
            return None
        return None

    def _constructor_of(self, cls_qual: str) -> Optional[str]:
        """``Cls(...)`` edges: explicit ``__init__`` through the MRO,
        else ``__post_init__`` (the dataclass-generated ``__init__``
        calls it)."""
        for hook in ("__init__", "__post_init__"):
            found = self._resolve_method(cls_qual, hook, set())
            if found is not None:
                return found
        return None

    def _resolve_method(self, cls_qual: str, method: str,
                        seen: Set[str]) -> Optional[str]:
        if cls_qual in seen:
            return None
        seen.add(cls_qual)
        cls = self._classes.get(cls_qual)
        if cls is None:
            return None
        if method in cls.methods:
            return f"{cls_qual}.{method}"
        for base in cls.bases:
            base_key = self.resolve_class(base)
            if base_key is not None:
                found = self._resolve_method(base_key, method, seen)
                if found is not None:
                    return found
        return None

    def resolve_class(self, dotted: str) -> Optional[str]:
        """Canonical ``module.Class`` key for a dotted class name,
        chasing re-exports; None for external classes."""
        for _ in range(self._MAX_CHASE):
            if dotted in self._classes:
                return dotted
            parts = dotted.split(".")
            chased = None
            for cut in range(len(parts) - 1, 0, -1):
                mod = ".".join(parts[:cut])
                graph = self.graphs.get(mod)
                if graph is None:
                    continue
                rest = parts[cut:]
                if len(rest) == 1 and rest[0] in graph.classes:
                    return f"{mod}.{rest[0]}"
                if len(rest) == 1 and rest[0] in graph.imports:
                    chased = graph.imports[rest[0]]
                break
            if chased is None:
                return None
            dotted = chased
        return None

    # -- exception queries --------------------------------------------

    def is_exception_subclass(self, exc: str, base: str) -> bool:
        """Whether ``exc`` names a class transitively deriving from
        ``base`` (compared on canonical dotted names; external
        hierarchies are invisible, so unknown means False)."""
        if exc == base:
            return True
        base_key = self.resolve_class(base)
        frontier = [exc]
        seen: Set[str] = set()
        while frontier:
            name = frontier.pop()
            if name == base or (base_key is not None
                                and self.resolve_class(name) == base_key):
                return True
            key = self.resolve_class(name)
            if key is None or key in seen:
                continue
            seen.add(key)
            frontier.extend(self._classes[key].bases)
        return False

    def catches(self, exc: str, caught: Sequence[str]) -> bool:
        """Whether any handler in ``caught`` intercepts ``exc``."""
        for handler in caught:
            if handler == CATCH_ALL or handler == exc:
                return True
            if self.is_exception_subclass(exc, handler):
                return True
        return False
