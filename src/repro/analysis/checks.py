"""The builtin rule corpus, targeting this codebase's real bug history.

Each rule encodes a hazard class a past PR either shipped or fixed by
hand:

* ``no-wallclock-in-sim`` -- wall-clock reads inside simulation paths
  destroy replay determinism (only :mod:`repro.serve`'s wall->sim
  mapping may touch the clock, explicitly suppressed).
* ``seeded-rng-required`` -- the module-level ``random`` global (or an
  unseeded constructor) makes two identical runs disagree.
* ``listener-rebind`` -- the PR 5 LiveServer bug: an attribute whose
  bound method escaped as a callback was later rebound, orphaning the
  callback silently.
* ``registry-drift`` -- a policy registry key without a reachable
  ``parse_*``/``resolve_*`` entry point, an unresolvable factory, a
  phantom ``__all__`` export (the estimator-drift class), or a lazy
  export table entry naming a module that never binds the name.
* ``mutable-default-arg`` -- the classic shared-state trap.
* ``unsorted-dict-iteration-in-reporting`` -- report/table output fed
  from unordered dict iteration is diff-unstable across runs.
* ``no-per-event-allocation-in-hot-loop`` -- dict/list literals or
  lambdas inside a function marked ``# simlint: hotpath`` allocate on
  every event, exactly the churn the slab-backed DES loop removed.
* ``no-blocking-io-in-coordinator`` -- synchronous socket / sleep /
  select calls inside ``async def`` bodies of the coordinator-side
  modules stall the event loop that every connected client shares.

The interprocedural family consumes the effect summaries of
:mod:`repro.analysis.effects` (built lazily via
:meth:`CodebaseIndex.effects`):

* ``transitive-wallclock-in-sim`` / ``transitive-unseeded-rng`` --
  the taint-through-call-chain upgrades of the two syntactic rules
  above: a sim-path function reaching ``time.time()`` or the global
  RNG through any depth of helpers is flagged with the full witness
  chain in the message.
* ``await-shards-shared-state`` -- the asyncio coordinator race
  class: shared state captured before an ``await`` and rebound after
  it without an intervening re-read.
* ``exception-contract`` -- public ``repro.analysis`` /
  ``repro.distrib`` entry points may only let their declared error
  types escape, checked against the transitive raises summaries.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

# Effect atoms are shared with the inference layer so the syntactic
# and transitive rules cannot drift apart on what counts as a hazard.
from repro.analysis.effects import (
    BLOCKING_CALLS as _BLOCKING_CALLS,
    BLOCKING_PREFIXES as _BLOCKING_PREFIXES,
    NUMPY_GLOBAL_FNS as _NUMPY_GLOBAL_FNS,
    RANDOM_GLOBAL_FNS as _RANDOM_GLOBAL_FNS,
    WALLCLOCK_CALLS as _WALLCLOCK_CALLS,
    chain_evidence,
    chain_text,
)
from repro.analysis.findings import Finding
from repro.analysis.index import (
    LAZY_TABLE,
    REGISTRY_SUFFIXES,
    CodebaseIndex,
    ModuleIndex,
)
from repro.analysis.rules import LintRule, register_rule

#: Simulation paths: everything the DES replays must be deterministic.
SIM_SCOPES: Tuple[str, ...] = ("repro.sim", "repro.workloads")

#: Wall-clock scope adds the live front-end, whose wall->sim mapping
#: is the one *audited* legitimate use (suppressed inline).
WALLCLOCK_SCOPES: Tuple[str, ...] = SIM_SCOPES + ("repro.serve",)



def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class NoWallclockInSim(LintRule):
    """Wall-clock reads are banned inside simulation paths."""

    rule_id = "no-wallclock-in-sim"
    severity = "error"
    description = ("time.time()/datetime.now() in repro.sim / "
                   "repro.workloads / repro.serve breaks replay "
                   "determinism")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        if not module.in_scope(WALLCLOCK_SCOPES):
            return
        for call in _walk_calls(module.tree):
            resolved = module.resolved_name(call.func)
            if resolved in _WALLCLOCK_CALLS:
                yield self.finding(
                    module, call.lineno,
                    f"wall-clock call {resolved}() in simulation path "
                    f"{module.name}; derive time from the DES clock "
                    f"(engine.now) or suppress the audited wall->sim "
                    f"mapping site")


@register_rule
class SeededRngRequired(LintRule):
    """Randomness in sim paths must flow from an explicit seed."""

    rule_id = "seeded-rng-required"
    severity = "error"
    description = ("module-level random / unseeded RNG constructors in "
                   "sim paths make identical runs diverge")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        if not module.in_scope(SIM_SCOPES):
            return
        yield from self._import_findings(module)
        for call in _walk_calls(module.tree):
            resolved = module.resolved_name(call.func)
            if resolved is None:
                continue
            seeded = bool(call.args or call.keywords)
            if resolved == "random.Random" and not seeded:
                yield self.finding(
                    module, call.lineno,
                    "random.Random() without an explicit seed; pass "
                    "the policy/config seed through")
            elif resolved.startswith("random.") \
                    and resolved.partition(".")[2] in _RANDOM_GLOBAL_FNS:
                yield self.finding(
                    module, call.lineno,
                    f"{resolved}() draws from the process-global RNG; "
                    f"use an injected seeded generator")
            elif resolved == "numpy.random.default_rng" and not seeded:
                yield self.finding(
                    module, call.lineno,
                    "numpy.random.default_rng() without an explicit "
                    "seed; pass the workload seed through")
            elif resolved.startswith("numpy.random.") \
                    and resolved.rpartition(".")[2] in _NUMPY_GLOBAL_FNS:
                yield self.finding(
                    module, call.lineno,
                    f"{resolved}() uses numpy's global RandomState; "
                    f"draw from a seeded repro.sim.rng stream")

    def _import_findings(self,
                         module: ModuleIndex) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            module, node.lineno,
                            "module-level `import random` in a "
                            "simulation path; inject a seeded RNG "
                            "(e.g. repro.sim.rng.DeterministicRNG) "
                            "instead of keeping the global RNG one "
                            "keystroke away")
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "random" and not node.level:
                for alias in node.names:
                    if alias.name in _RANDOM_GLOBAL_FNS \
                            or alias.name == "*":
                        yield self.finding(
                            module, node.lineno,
                            f"`from random import {alias.name}` binds "
                            f"the process-global RNG in a simulation "
                            f"path; use an injected seeded generator")


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when node is ``self.<attr>``, else None."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


@register_rule
class ListenerRebind(LintRule):
    """An attribute whose bound method escaped as a callback must not
    be rebound (the exact PR 5 LiveServer completion-drop bug)."""

    rule_id = "listener-rebind"
    severity = "error"
    description = ("rebinding self.<attr> after handing out its bound "
                   "method orphans the registered callback")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleIndex,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        # attr -> name of the method carrying the escape. The escape
        # line is deliberately not recorded: it would end up in the
        # finding message, which the baseline differ keys on, and the
        # key must stay stable when unrelated edits shift lines.
        escapes: Dict[str, str] = {}
        methods = [stmt for stmt in cls.body
                   if isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))]
        for method in methods:
            for call in _walk_calls(method):
                called = {id(call.func)}
                for arg in list(call.args) + \
                        [kw.value for kw in call.keywords]:
                    if id(arg) in called:
                        continue
                    # self.<attr>.<method> escaping un-called: the
                    # callee may retain the bound method.
                    if isinstance(arg, ast.Attribute):
                        attr = _self_attr(arg.value)
                        if attr is not None:
                            escapes.setdefault(attr, method.name)
        if not escapes:
            return
        for method in methods:
            if method.name == "__init__":
                continue  # first binding, not a rebind
            for node in ast.walk(method):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for target in targets:
                    attr = _self_attr(target)
                    if attr in escapes:
                        yield self.finding(
                            module, node.lineno,
                            f"{cls.name}.{method.name} rebinds "
                            f"self.{attr}, but its bound method "
                            f"escaped as a callback in "
                            f"{escapes[attr]}; mutate in place "
                            f"instead (the escaped callable still "
                            f"targets the old object)")


#: ``FOO_POLICIES`` / ``FOO_BACKENDS`` / ... -> the ``foo`` stem the
#: registry's entry points must mention. Built from the same suffix
#: allowlist the indexer uses, so the two layers cannot drift.
_REGISTRY_STEM_RE = re.compile(
    r"(?P<stem>.+)(?:%s)$"
    % "|".join(re.escape(s) for s in REGISTRY_SUFFIXES))


@register_rule
class RegistryDrift(LintRule):
    """Policy registries, their parse/resolve entry points,
    ``__all__`` exports and lazy export tables must stay mutually
    consistent."""

    rule_id = "registry-drift"
    severity = "error"
    description = ("*_POLICIES/*_BACKENDS/*_RUNNERS/*_RULES registries "
                   "need resolvable factories, a reachable "
                   "parse_*/resolve_* entry point, and truthful "
                   "__all__ exports and lazy export tables")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        yield from self._dunder_all_findings(module)
        yield from self._lazy_export_findings(module, index)
        for registry in module.registries:
            yield from self._registry_findings(module, index, registry)

    def _dunder_all_findings(self,
                             module: ModuleIndex) -> Iterator[Finding]:
        if module.dunder_all is None or module.has_star_import:
            return
        for name, line in module.dunder_all:
            if name not in module.bindings:
                yield self.finding(
                    module, line,
                    f"__all__ exports {name!r} but the module never "
                    f"binds it")

    def _lazy_export_findings(self, module: ModuleIndex,
                              index: CodebaseIndex) -> Iterator[Finding]:
        """Each lazy table entry must name a module that binds the name
        (a module outside the lint run cannot be checked)."""
        for entry in module.lazy_exports:
            target = index.by_name.get(entry.module)
            if target is None or target.has_star_import \
                    or entry.is_submodule(module.name):
                continue
            if entry.name not in target.bindings:
                yield self.finding(
                    module, entry.line,
                    f"{LAZY_TABLE} maps {entry.name!r} to "
                    f"{entry.module}, which never binds it")

    def _registry_findings(self, module: ModuleIndex,
                           index: CodebaseIndex,
                           registry) -> Iterator[Finding]:
        seen: Set[str] = set()
        for entry in registry.entries:
            if entry.key is None:
                yield self.finding(
                    module, entry.line,
                    f"{registry.name} key is not a string literal; "
                    f"CLI/config front-ends cannot spell it")
                continue
            if entry.key in seen:
                yield self.finding(
                    module, entry.line,
                    f"{registry.name} repeats key {entry.key!r}; the "
                    f"later entry silently wins")
            seen.add(entry.key)
            if entry.value_is_callable_literal:
                continue
            if entry.value_name is None:
                yield self.finding(
                    module, entry.line,
                    f"{registry.name}[{entry.key!r}] is not a named "
                    f"factory; registries must map to resolvable "
                    f"symbols")
                continue
            head = entry.value_name.partition(".")[0]
            if head not in module.bindings:
                yield self.finding(
                    module, entry.line,
                    f"{registry.name}[{entry.key!r}] references "
                    f"{entry.value_name}, which is not bound in "
                    f"{module.name}")
        match = _REGISTRY_STEM_RE.match(registry.name)
        if match is not None:
            stem = match.group("stem").lower()
            pattern = re.compile(
                rf"(parse|resolve)_{re.escape(stem)}(_|$)")
            if not index.functions_matching(pattern):
                yield self.finding(
                    module, registry.line,
                    f"{registry.name} has no parse_{stem}_*/"
                    f"resolve_{stem}_* entry point anywhere in the "
                    f"linted tree; the CLI cannot reach its keys")
        if module.dunder_all is not None and not module.has_star_import:
            exported = {name for name, _ in module.dunder_all}
            if registry.name not in exported:
                yield self.finding(
                    module, registry.line,
                    f"{registry.name} is not exported in "
                    f"{module.name}.__all__; front-ends import "
                    f"registries by name")


@register_rule
class MutableDefaultArg(LintRule):
    """Mutable default arguments are shared across calls."""

    rule_id = "mutable-default-arg"
    severity = "error"
    description = ("a list/dict/set default argument is evaluated once "
                   "and shared by every call")

    _MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.OrderedDict",
        "collections.deque", "collections.Counter",
    })

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + \
                [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(module, default):
                    yield self.finding(
                        module, default.lineno,
                        f"{node.name}() has a mutable default "
                        f"argument; default to None and create the "
                        f"container inside the body")

    def _is_mutable(self, module: ModuleIndex, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            resolved = module.resolved_name(node.func)
            return resolved in self._MUTABLE_CALLS
        return False


@register_rule
class UnsortedDictIterationInReporting(LintRule):
    """Report/table output must not depend on dict insertion order."""

    rule_id = "unsorted-dict-iteration-in-reporting"
    severity = "warning"
    description = ("iterating .items()/.keys() into report output "
                   "without sorted(...) is diff-unstable; sort or "
                   "suppress where insertion order is the contract")

    _REPORT_SCOPES = ("repro.reporting",)
    _FN_RE = re.compile(r"^(format_|report)")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        if module.in_scope(self._REPORT_SCOPES):
            yield from self._iter_findings(module, module.tree)
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and self._FN_RE.match(node.name):
                yield from self._iter_findings(module, node)

    def _iter_findings(self, module: ModuleIndex,
                       tree: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for candidate in iters:
                if self._is_raw_dict_view(candidate):
                    view = candidate.func.attr  # type: ignore[union-attr]
                    yield self.finding(
                        module, candidate.lineno,
                        f"iteration over .{view}() feeds report output "
                        f"in insertion order; wrap in sorted(...) for "
                        f"diff-stable tables")

    @staticmethod
    def _is_raw_dict_view(node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("items", "keys")
                and not node.args and not node.keywords)


@register_rule
class NoPerEventAllocationInHotLoop(LintRule):
    """Functions marked ``# simlint: hotpath`` must not allocate
    per-event containers."""

    rule_id = "no-per-event-allocation-in-hot-loop"
    severity = "error"
    description = ("dict/list literals or lambdas inside a "
                   "# simlint: hotpath function allocate per event; "
                   "hoist to __init__ or reuse scratch buffers")

    _NAMES = {ast.Dict: "dict literal", ast.List: "list literal",
              ast.Lambda: "lambda"}

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        hotpath = module.hotpath_lines
        if not hotpath:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if node.lineno not in hotpath \
                    and node.lineno - 1 not in hotpath:
                continue
            for inner in ast.walk(node):
                label = self._NAMES.get(type(inner))
                if label is not None:
                    yield self.finding(
                        module, inner.lineno,
                        f"{label} in hot-path function "
                        f"{node.name}() allocates per event; hoist "
                        f"the container out of the event loop or "
                        f"reuse a preallocated scratch buffer")


#: Coordinator-side async modules: the sweep executors and the live
#: serving front-end. The sweep backends are synchronous today and
#: contain no ``async def``, so scoping the whole package is free and
#: guards any coroutine added there later.
COORDINATOR_SCOPES: Tuple[str, ...] = ("repro.distrib", "repro.serve")



def _own_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Calls lexically inside ``fn`` but not inside a nested def
    (a nested sync helper runs wherever it is *called*, and a nested
    async def is visited by the outer walk on its own)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class NoBlockingIoInCoordinator(LintRule):
    """Coroutine bodies in coordinator-side modules must not call
    blocking socket/sleep/select primitives."""

    rule_id = "no-blocking-io-in-coordinator"
    severity = "error"
    description = ("sync socket.* / time.sleep / select.* inside an "
                   "async def in repro.distrib / repro.serve stalls "
                   "the shared event loop; use asyncio streams and "
                   "asyncio.sleep")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        if not module.in_scope(COORDINATOR_SCOPES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call in _own_calls(node):
                resolved = module.resolved_name(call.func)
                if resolved is None:
                    continue
                if resolved in _BLOCKING_CALLS \
                        or resolved.startswith(_BLOCKING_PREFIXES):
                    hint = ("asyncio.sleep"
                            if resolved == "time.sleep"
                            else "asyncio streams/transports")
                    yield self.finding(
                        module, call.lineno,
                        f"blocking call {resolved}() inside "
                        f"coroutine {node.name}() stalls the event "
                        f"loop every connected worker shares; use "
                        f"{hint}")


# -- interprocedural rules (effect summaries) --------------------------


def _name_in_scope(name: str, scopes: Tuple[str, ...]) -> bool:
    """Dotted-module-name version of :meth:`ModuleIndex.in_scope`."""
    return any(name == scope or name.startswith(scope + ".")
               for scope in scopes)


class _TransitiveEffectRule(LintRule):
    """Shared engine for the taint-through-call-chain rules.

    Fires on a function whose effect summary carries the rule's kind
    through a chain of length >= 2 whose first hop leaves the scoped
    tree: a chain of length 1 is a direct call-site the syntactic
    twin already flags, and a first hop *inside* the scope means the
    callee gets its own (shorter-chained) finding -- reporting every
    frame of the same chain would bury the boundary crossing in
    noise. The full witness chain rides in the message and the
    finding's ``evidence`` (see ``repro lint --explain``).
    """

    _kind = ""
    _scopes: Tuple[str, ...] = ()
    _hint = ""

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        if not module.in_scope(self._scopes):
            return
        effects = index.effects()
        for fn in effects.functions_in(module.name):
            summary = effects.summary(fn.qualname)
            chain = summary.chains.get(self._kind) if summary else None
            if chain is None or len(chain) < 2:
                continue
            first_hop = effects.callgraph.functions.get(chain[0].callee)
            if first_hop is not None \
                    and _name_in_scope(first_hop.module, self._scopes):
                continue
            atom = chain[-1].callee
            yield self.finding(
                module, chain[0].line,
                f"{fn.qualname}() reaches {atom} through "
                f"{chain_text(chain)}; {self._hint}",
                evidence=chain_evidence(chain))


@register_rule
class TransitiveWallclockInSim(_TransitiveEffectRule):
    """The interprocedural upgrade of ``no-wallclock-in-sim``."""

    rule_id = "transitive-wallclock-in-sim"
    severity = "error"
    description = ("sim-path code reaching time.time()/datetime.now() "
                   "through helper call chains breaks replay "
                   "determinism just as surely as a direct read")

    _kind = "wallclock"
    _scopes = WALLCLOCK_SCOPES
    _hint = ("derive time from the DES clock (engine.now) or pass it "
             "in; a helper that reads the wall clock poisons every "
             "sim-path caller")


@register_rule
class TransitiveUnseededRng(_TransitiveEffectRule):
    """The interprocedural upgrade of ``seeded-rng-required``."""

    rule_id = "transitive-unseeded-rng"
    severity = "error"
    description = ("sim-path code reaching the process-global RNG "
                   "through helper call chains makes identical runs "
                   "diverge")

    _kind = "unseeded-rng"
    _scopes = SIM_SCOPES
    _hint = ("inject a seeded generator (repro.sim.rng."
             "DeterministicRNG) instead of letting helpers draw from "
             "hidden global state")


def _capture_key(node: ast.expr,
                 global_names: Set[str]) -> Optional[str]:
    """The shared-state key an expression reads: ``self.<attr>`` for
    instance attributes, the bare name for declared module globals."""
    attr = _self_attr(node)
    if attr is not None:
        return f"self.{attr}"
    if isinstance(node, ast.Name) and node.id in global_names:
        return node.id
    return None


class _CoroutineEvents:
    """Linearized shared-state events of one coroutine body.

    Emits ``(kind, key, line)`` tuples in evaluation order, where
    kind is ``capture`` (a shared value read into a local through an
    ``Assign`` value or a ``for`` iterable), ``read`` (any other
    load), ``write`` (a rebind of the shared location), or ``await``.
    Loop bodies are walked twice so a second iteration's writes land
    after the first iteration's awaits; nested defs are skipped (they
    run wherever they are called).
    """

    def __init__(self, fn: ast.AsyncFunctionDef) -> None:
        self.events: List[Tuple[str, Optional[str], int]] = []
        self.global_names: Set[str] = {
            name for node in ast.walk(fn)
            if isinstance(node, ast.Global) for name in node.names}
        for stmt in fn.body:
            self._visit(stmt, capture=False)

    def _emit(self, kind: str, key: Optional[str], line: int) -> None:
        self.events.append((kind, key, line))

    def _visit(self, node: ast.AST, capture: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return
        if isinstance(node, ast.Await):
            self._visit(node.value, capture)
            self._emit("await", None, node.lineno)
            return
        if isinstance(node, ast.Assign):
            binds_local = any(isinstance(t, ast.Name)
                              for t in node.targets)
            self._visit(node.value, capture=binds_local)
            for target in node.targets:
                self._visit_target(target)
            return
        if isinstance(node, ast.AugAssign):
            # self.x += y reads then rebinds in one step: the re-read
            # makes it self-guarding under the race model.
            self._visit(node.value, capture=False)
            key = _capture_key(node.target, self.global_names)
            if key is not None:
                self._emit("read", key, node.lineno)
                self._emit("write", key, node.lineno)
            else:
                self._visit_target(node.target)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._visit(node.value,
                            capture=isinstance(node.target, ast.Name))
            self._visit_target(node.target)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            binds_local = isinstance(node.target,
                                     (ast.Name, ast.Tuple))
            self._visit(node.iter, capture=binds_local)
            for _ in range(2):
                for stmt in node.body:
                    self._visit(stmt, capture=False)
            for stmt in node.orelse:
                self._visit(stmt, capture=False)
            return
        if isinstance(node, ast.While):
            for _ in range(2):
                self._visit(node.test, capture=False)
                for stmt in node.body:
                    self._visit(stmt, capture=False)
            for stmt in node.orelse:
                self._visit(stmt, capture=False)
            return
        key = _capture_key(node, self.global_names)
        if key is not None and isinstance(getattr(node, "ctx", None),
                                          ast.Load):
            self._emit("capture" if capture else "read", key,
                       node.lineno)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, capture)

    def _visit_target(self, target: ast.expr) -> None:
        key = _capture_key(target, self.global_names)
        if key is not None:
            self._emit("write", key, target.lineno)
            return
        # Subscript/attribute-of-attribute targets mutate in place
        # (self.jobs[i] = ..., self.stats.count = ...): the base
        # object stays the same, so walk for the reads they contain.
        for child in ast.iter_child_nodes(target):
            self._visit(child, capture=False)


@register_rule
class AwaitShardsSharedState(LintRule):
    """The coordinator race class: a coroutine snapshots shared state,
    suspends at an ``await`` (letting sibling coroutines run), then
    rebinds the shared location from the stale snapshot."""

    rule_id = "await-shards-shared-state"
    severity = "error"
    description = ("capturing self.<attr>/module state before an "
                   "await and rebinding it after without re-reading "
                   "races against every coroutine interleaved at the "
                   "suspension point")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        if not module.in_scope(COORDINATOR_SCOPES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(module, node)

    def _check_coroutine(self, module: ModuleIndex,
                         fn: ast.AsyncFunctionDef) -> Iterator[Finding]:
        captured: Dict[str, int] = {}
        awaited: Dict[str, bool] = {}
        reported: Set[str] = set()
        for kind, key, line in _CoroutineEvents(fn).events:
            if kind == "await":
                for name in awaited:
                    awaited[name] = True
            elif kind in ("read", "capture"):
                if awaited.get(key):
                    # Re-read after the suspension: the coroutine
                    # refreshed its view, the capture is not stale.
                    captured.pop(key, None)
                    awaited.pop(key, None)
                if kind == "capture":
                    captured[key] = line
                    awaited[key] = False
            elif kind == "write":
                if key in captured and awaited.get(key) \
                        and key not in reported:
                    reported.add(key)
                    yield self.finding(
                        module, line,
                        f"coroutine {fn.name}() rebinds {key} from a "
                        f"value captured before an await without "
                        f"re-reading it; every coroutine interleaved "
                        f"at the suspension sees its update lost -- "
                        f"re-read after the await or mutate in place",
                        evidence=(
                            f"{module.path}:{captured[key]}: {key} "
                            f"captured into a local",
                            f"{module.path}:{line}: {key} rebound "
                            f"after an await with no intervening "
                            f"re-read"))
                captured.pop(key, None)
                awaited.pop(key, None)


#: Public API scopes and the exceptions each may let escape. Scopes
#: are matched against module names; entries cover whole packages.
EXCEPTION_CONTRACTS: Dict[str, Tuple[str, ...]] = {
    "repro.analysis": ("repro.errors.ConfigError",),
    "repro.distrib": ("repro.errors.ConfigError",
                      "repro.errors.DistribError"),
}

#: Escapes every contract tolerates: abstract-method guards and
#: deliberate interpreter exits.
_CONTRACT_EXEMPT = ("NotImplementedError", "SystemExit", "KeyboardInterrupt")


@register_rule
class ExceptionContract(LintRule):
    """Public entry points of contracted packages may only let their
    declared error types escape (checked against the transitive
    raises summaries, try/except filtered per call site)."""

    rule_id = "exception-contract"
    severity = "error"
    description = ("public repro.analysis / repro.distrib entry "
                   "points may only let ConfigError / DistribError "
                   "escape; translate or wrap everything else")

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        contract = None
        for scope in sorted(EXCEPTION_CONTRACTS):
            if _name_in_scope(module.name, (scope,)):
                contract = (scope, EXCEPTION_CONTRACTS[scope])
                break
        if contract is None:
            return
        scope, allowed = contract
        effects = index.effects()
        callgraph = effects.callgraph
        for fn in effects.functions_in(module.name):
            if not self._is_entry_point(fn):
                continue
            summary = effects.summary(fn.qualname)
            if summary is None:
                continue
            for exc in sorted(summary.raises):
                if self._escape_allowed(callgraph, exc, allowed):
                    continue
                chain = summary.raises[exc]
                yield self.finding(
                    module, chain[0].line,
                    f"public entry point {fn.qualname}() can let "
                    f"{exc} escape via {chain_text(chain)}; the "
                    f"{scope} contract allows only "
                    f"{', '.join(allowed)}",
                    evidence=chain_evidence(chain))

    @staticmethod
    def _is_entry_point(fn) -> bool:
        if fn.is_nested:
            return False

        def public(name: str) -> bool:
            return not name.startswith("_") \
                or (name.startswith("__") and name.endswith("__"))

        if fn.cls is not None and not public(fn.cls):
            return False
        return public(fn.name)

    @staticmethod
    def _escape_allowed(callgraph, exc: str,
                        allowed: Tuple[str, ...]) -> bool:
        simple = exc.rpartition(".")[2]
        if simple in _CONTRACT_EXEMPT:
            return True
        return any(exc == base
                   or callgraph.is_exception_subclass(exc, base)
                   for base in allowed)
