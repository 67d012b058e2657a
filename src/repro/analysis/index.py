"""Source walking and the lightweight symbol index rules run against.

One :class:`ModuleIndex` per parsed file records what every rule needs
without re-walking the AST from scratch: module-level name bindings,
an import alias map (``np`` -> ``numpy``, ``monotonic`` ->
``time.monotonic``), the literal ``__all__`` list, any registry dict
literals (names ending in one of :data:`REGISTRY_SUFFIXES`), the lazy
export table of a package ``__init__`` (:data:`LAZY_TABLE`), and the
per-line suppression grammar.

A lazy package (:mod:`repro._lazy`) resolves its public names when
they are read, not with ``from x import y``; its literal table entries
are read as exactly those bindings and import origins, so ``__all__``
checks and re-export chasing see the same names as in an eager
package. Function-local imports (:func:`import_aliases`) resolve call
targets in the callgraph the same way.

:class:`CodebaseIndex` aggregates the modules of one lint run into a
callgraph-lite symbol table -- which module-level functions exist
where -- which is exactly enough for the cross-module checks
(registry ``parse_*``/``resolve_*`` entry points may live in a
different file than the registry literal).

Suppression grammar (per physical line)::

    time.monotonic()  # simlint: allow[no-wallclock-in-sim]
    something_else()  # simlint: allow[rule-a, rule-b]
    desperate_hack()  # simlint: allow[*]

Hot-path marker (on a ``def`` line or the line directly above it)::

    # simlint: hotpath
    def _dispatch(self, sim, take):
        ...

opts the function into ``no-per-event-allocation-in-hot-loop``.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError

#: Matches one suppression comment; group 1 is the rule list.
_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*allow\[([^\]]*)\]")

#: Marks a function as a DES hot-path: ``# simlint: hotpath`` on the
#: ``def`` line or the line directly above it opts the function into
#: the per-event allocation rule.
_HOTPATH_RE = re.compile(r"#\s*simlint:\s*hotpath\b")

#: Module-level dict literals whose names end in one of these suffixes
#: are treated as named registries by the registry-drift rule. An
#: explicit allowlist, not ``.*_[A-Z]+$``: ALL_CAPS module constants
#: that merely happen to be dicts (lookup tables, defaults) must not
#: acquire entry-point obligations.
REGISTRY_SUFFIXES: Tuple[str, ...] = (
    "_POLICIES", "_BACKENDS", "_RUNNERS", "_RULES")

_REGISTRY_RE = re.compile(
    r".+(?:%s)$" % "|".join(re.escape(s) for s in REGISTRY_SUFFIXES))

#: The module-level dict literal a lazy package declares its public
#: names in: name -> dotted module defining it (:mod:`repro._lazy`).
LAZY_TABLE = "_EXPORTS"


@dataclass(frozen=True)
class RegistryEntry:
    """One ``key: value`` pair of a registry dict literal."""

    key: Optional[str]  # None when the key is not a string literal
    value_name: Optional[str]  # dotted name, None for non-name values
    value_is_callable_literal: bool  # lambda / def reference
    line: int


@dataclass(frozen=True)
class RegistryLiteral:
    """A module-level ``*_POLICIES = {...}`` assignment."""

    name: str
    line: int
    entries: Tuple[RegistryEntry, ...]


@dataclass(frozen=True)
class LazyExport:
    """One ``name: module`` entry of a lazy package's export table."""

    name: str
    module: str
    line: int

    def is_submodule(self, package: str) -> bool:
        """Whether the entry exports the submodule ``module`` itself."""
        return self.module == f"{package}.{self.name}"


@dataclass
class ModuleIndex:
    """Everything the rules need to know about one parsed module."""

    path: str
    name: str  # dotted ("repro.sim.routing"); falls back to the stem
    tree: ast.Module
    bindings: Set[str] = field(default_factory=set)
    imports: Dict[str, str] = field(default_factory=dict)
    has_star_import: bool = False
    dunder_all: Optional[Tuple[Tuple[str, int], ...]] = None
    registries: Tuple[RegistryLiteral, ...] = ()
    lazy_exports: Tuple[LazyExport, ...] = ()
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    hotpath_lines: Set[int] = field(default_factory=set)

    # -- queries -------------------------------------------------------

    def in_scope(self, scopes: Sequence[str]) -> bool:
        """Whether this module lives under any dotted scope prefix."""
        return any(self.name == scope or self.name.startswith(scope + ".")
                   for scope in scopes)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        allowed = self.suppressions.get(line)
        if not allowed:
            return False
        return "*" in allowed or rule_id in allowed

    def resolved_name(self, node: ast.AST,
                      local: Optional[Dict[str, str]] = None
                      ) -> Optional[str]:
        """The dotted origin of a Name/Attribute chain, imports
        expanded: with ``import numpy as np`` in force,
        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng``; with ``from time import
        monotonic``, a bare ``monotonic`` resolves to
        ``time.monotonic``. ``local`` holds a function body's own
        import aliases, which shadow the module's."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = (local or {}).get(head) or self.imports.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


class CodebaseIndex:
    """The modules of one lint run plus a cross-module symbol table."""

    def __init__(self, modules: Sequence[ModuleIndex],
                 callgraph: Optional["Callgraph"] = None) -> None:
        self.modules: List[ModuleIndex] = list(modules)
        self._callgraph = callgraph
        self._effects = None
        self.by_name: Dict[str, ModuleIndex] = {
            module.name: module for module in self.modules}
        #: function name -> dotted module names defining it at top level
        self.functions: Dict[str, Set[str]] = {}
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self.functions.setdefault(node.name,
                                              set()).add(module.name)

    def functions_matching(self, pattern: "re.Pattern[str]") -> List[str]:
        """Module-level function names (index-wide) matching a regex."""
        return sorted(name for name in self.functions
                      if pattern.match(name))

    def callgraph(self) -> "Callgraph":
        """The linked callgraph over this index's modules.

        Each module's graph is extracted once, on first use, and
        memoized for the run. Imported inside the method:
        :mod:`repro.analysis.callgraph` consumes this module.
        """
        if self._callgraph is None:
            from repro.analysis.callgraph import (
                Callgraph,
                extract_module_graph,
            )
            self._callgraph = Callgraph({
                module.name: extract_module_graph(module)
                for module in self.modules})
        return self._callgraph

    def twin(self) -> "CodebaseIndex":
        """An index over the same modules that shares this one's
        callgraph (if already built) but infers its own effects.

        Extraction never reads suppressions; only the effect fixpoint
        does, so a twin with its suppressions blinded re-runs the
        fixpoint without re-extracting a single graph.
        """
        return CodebaseIndex(self.modules, callgraph=self._callgraph)

    def effects(self) -> "EffectIndex":
        """The interprocedural effect summaries for this index.

        Built lazily on first use (only the dataflow rules pay for
        the fixpoint) and memoized for the run.
        """
        if self._effects is None:
            from repro.analysis.effects import EffectIndex
            self._effects = EffectIndex(self)
        return self._effects


# -- construction ------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_name(path: str) -> str:
    """Dotted module name, anchored at the last ``repro`` ancestor so
    repo-relative and absolute invocations index identically.

    Files outside a ``repro`` tree keep their directory chain dotted
    (``scripts/serve_smoke.py`` -> ``scripts.serve_smoke``) so two
    same-stem files in different directories cannot collide in
    :attr:`CodebaseIndex.by_name` and so scope-gated rules never
    mistake a bare stem like ``serve.py`` for ``repro.serve``."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = normalized.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    dirs = parts[:-1]
    if "repro" in dirs:
        anchor = len(dirs) - 1 - dirs[::-1].index("repro")
        dirs = dirs[anchor:]
    else:
        dirs = [d for d in dirs if d not in ("", ".", "..")]
    dotted = dirs + ([] if stem == "__init__" and dirs else [stem])
    return ".".join(dotted)


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """``(line, text)`` for every COMMENT token in ``source``.

    Tokenizing instead of regex-scanning raw lines keeps docstrings
    that *mention* the marker grammar (this module's own, the README
    excerpts in ``repro.cli``) from registering as live suppressions.
    Falls back to raw lines only if tokenization fails, which cannot
    happen for sources that already survived :func:`ast.parse`."""
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(
                io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))
    return comments


def _parse_hotpath_lines(comments: Sequence[Tuple[int, str]]) -> Set[int]:
    return {lineno for lineno, text in comments
            if _HOTPATH_RE.search(text)}


def _parse_suppressions(
        comments: Sequence[Tuple[int, str]]) -> Dict[int, Set[str]]:
    suppressions: Dict[int, Set[str]] = {}
    for lineno, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {token.strip() for token in match.group(1).split(",")
                 if token.strip()}
        if rules:
            suppressions.setdefault(lineno, set()).update(rules)
    return suppressions


def import_aliases(node: ast.stmt) -> List[Tuple[str, str]]:
    """``(bound name, dotted origin)`` for each name an absolute
    ``import`` / ``from ... import`` statement binds (star and relative
    imports bind no resolvable origin)."""
    if isinstance(node, ast.Import):
        return [(alias.asname, alias.name) if alias.asname
                else (alias.name.partition(".")[0],
                      alias.name.partition(".")[0])
                for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module is not None \
            and not node.level:
        return [(alias.asname or alias.name, f"{node.module}.{alias.name}")
                for alias in node.names if alias.name != "*"]
    return []


def _collect_registry(name: str, node: ast.Dict,
                      line: int) -> RegistryLiteral:
    entries: List[RegistryEntry] = []
    for key_node, value_node in zip(node.keys, node.values):
        key = key_node.value if (isinstance(key_node, ast.Constant)
                                 and isinstance(key_node.value, str)) \
            else None
        value_name = _dotted(value_node)
        is_callable_literal = isinstance(value_node, ast.Lambda)
        entries.append(RegistryEntry(
            key=key, value_name=value_name,
            value_is_callable_literal=is_callable_literal,
            line=getattr(key_node, "lineno", line) or line))
    return RegistryLiteral(name=name, line=line, entries=tuple(entries))


def _collect_lazy_exports(module: ModuleIndex,
                          node: ast.Dict) -> None:
    """Bind each literal ``name: module`` entry of the lazy table, with
    its import origin, as an eager ``from module import name`` would."""
    entries: List[LazyExport] = list(module.lazy_exports)
    for key_node, value_node in zip(node.keys, node.values):
        if not (isinstance(key_node, ast.Constant)
                and isinstance(key_node.value, str)
                and isinstance(value_node, ast.Constant)
                and isinstance(value_node.value, str)):
            continue
        entry = LazyExport(name=key_node.value, module=value_node.value,
                           line=key_node.lineno)
        entries.append(entry)
        module.bindings.add(entry.name)
        module.imports[entry.name] = entry.module \
            if entry.is_submodule(module.name) \
            else f"{entry.module}.{entry.name}"
    module.lazy_exports = tuple(entries)


def _index_body(module: ModuleIndex, body: Sequence[ast.stmt]) -> None:
    """Record top-level bindings, walking into the conditional wrappers
    (``if``/``try``) that guard imports at module scope."""
    registries: List[RegistryLiteral] = list(module.registries)
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            module.bindings.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for bound, origin in import_aliases(node):
                module.bindings.add(bound)
                module.imports[bound] = origin
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        module.has_star_import = True
                    elif node.module is None or node.level:
                        # Relative imports: bindings, no origin map.
                        module.bindings.add(alias.asname or alias.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                module.bindings.add(target.id)
                value = node.value
                if target.id == "__all__" \
                        and isinstance(value, (ast.List, ast.Tuple)):
                    module.dunder_all = tuple(
                        (element.value, element.lineno)
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))
                if _REGISTRY_RE.match(target.id) \
                        and isinstance(value, ast.Dict):
                    registries.append(_collect_registry(
                        target.id, value, node.lineno))
                if target.id == LAZY_TABLE and isinstance(value, ast.Dict):
                    _collect_lazy_exports(module, value)
        elif isinstance(node, ast.If):
            _index_body(module, node.body)
            _index_body(module, node.orelse)
        elif isinstance(node, ast.Try):
            _index_body(module, node.body)
            for handler in node.handlers:
                _index_body(module, handler.body)
            _index_body(module, node.orelse)
            _index_body(module, node.finalbody)
    module.registries = tuple(registries)


def _read_source(path: str) -> str:
    """A file's text, decoded the way the interpreter would: by its
    PEP 263 coding cookie or BOM, else as UTF-8.

    Raises:
        ConfigError: when the bytes do not decode.
    """
    try:
        with tokenize.open(path) as handle:
            return handle.read()
    except (SyntaxError, UnicodeDecodeError) as error:
        raise ConfigError(
            f"{path}: cannot lint undecodable file: {error}") from error


def index_module(path: str, source: Optional[str] = None) -> ModuleIndex:
    """Parse and index one Python file.

    Raises:
        ConfigError: when the file does not decode or parse (the
            linted tree must at least be syntactically valid Python).
    """
    if source is None:
        source = _read_source(path)
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as error:
        # A NUL byte raises a SyntaxError without a line number (a
        # ValueError on older interpreters).
        line = getattr(error, "lineno", None)
        where = path if line is None else f"{path}:{line}"
        raise ConfigError(f"{where}: cannot lint unparseable file: "
                          f"{getattr(error, 'msg', error)}") from error
    comments = _comment_tokens(source)
    module = ModuleIndex(path=path, name=_module_name(path), tree=tree,
                         suppressions=_parse_suppressions(comments),
                         hotpath_lines=_parse_hotpath_lines(comments))
    _index_body(module, tree.body)
    return module


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d != "__pycache__"
                                 and not d.startswith("."))
                found.extend(os.path.join(root, name)
                             for name in sorted(files)
                             if name.endswith(".py"))
        elif os.path.isfile(path):
            found.append(path)
        else:
            raise ConfigError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(found))


def build_index(paths: Sequence[str]) -> CodebaseIndex:
    """Index every Python file reachable from ``paths``."""
    files = iter_python_files(paths)
    if not files:
        raise ConfigError(
            f"nothing to lint under {', '.join(paths) or '(no paths)'}")
    return CodebaseIndex([index_module(path) for path in files])
