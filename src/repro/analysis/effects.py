"""Fixpoint effect inference over the callgraph: the summary lattice.

Each function gets an :class:`EffectSummary` -- a point in a finite
product lattice with one component per effect kind plus one per
escaping exception:

* ``chains`` maps an effect kind (``wallclock``, ``unseeded-rng``:
  one per transitive rule in :mod:`repro.analysis.checks`) to a
  **witness chain**: the call path from the function down to a
  primitive effect atom (``time.time()``, ``random.random()``).
  Absence of a kind is the lattice bottom ("no evidence"); presence
  is ordered by ``(len(chain), chain)`` so the join keeps the shortest
  (then lexicographically first) witness. Atom sets live here
  (:data:`WALLCLOCK_CALLS` & co.) so the syntactic rules in
  :mod:`repro.analysis.checks` and the transitive rules cannot drift
  apart.
* ``raises`` maps escaping exception names (dotted, canonicalized by
  the caller through :class:`Callgraph`) to witness chains the same
  way. A ``try`` around a call site filters the callee's raises
  component through the handler types before it joins the caller's.

Inference runs bottom-up over Tarjan SCCs of the call edges: a
singleton SCC is summarized in one pass over its atoms + callee
summaries; a cyclic SCC iterates its members until no summary
changes. Both the kind set and the exception-name universe are finite
and a chain is only ever *replaced by a strictly smaller one* under
the ``(len, tuple)`` order, so every component moves down a finite
chain and the iteration terminates.

Suppression comments sanitize taint at any link: a
``# simlint: allow[no-wallclock-in-sim]`` (or the transitive rule's
id, or ``allow[*]``) on an atom line stops the atom from entering the
summary, and on a call-site line stops the callee's taint from
propagating through that edge -- an audited wall-clock read in
``repro.serve`` does not re-flag every caller three frames up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallSite, FunctionNode
from repro.analysis.index import CodebaseIndex, ModuleIndex

__all__ = [
    "WALLCLOCK_CALLS",
    "RANDOM_GLOBAL_FNS",
    "NUMPY_GLOBAL_FNS",
    "EFFECT_KINDS",
    "ChainStep",
    "EffectSummary",
    "EffectIndex",
    "chain_text",
    "chain_evidence",
]

#: Wall-clock reads: simulated time must come from the DES clock.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: stdlib ``random`` module-level functions that draw from the global,
#: process-wide RNG (bare names; shared with the syntactic rule).
RANDOM_GLOBAL_FNS = frozenset({
    "random", "randint", "randrange", "getrandbits", "choice",
    "choices", "sample", "shuffle", "uniform", "triangular", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "paretovariate", "vonmisesvariate", "weibullvariate", "seed",
})

#: ``numpy.random`` legacy module-level functions (global RandomState).
NUMPY_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "standard_normal", "normal", "uniform",
    "poisson", "exponential", "seed",
})

#: The effect kinds summaries carry, with the rule ids whose
#: ``allow[...]`` comments sanitize that kind's taint. The first id is
#: the PR 6 syntactic rule (existing audited allowances keep working),
#: the second the transitive rule introduced alongside this module.
EFFECT_KINDS: Dict[str, Tuple[str, ...]] = {
    "wallclock": ("no-wallclock-in-sim", "transitive-wallclock-in-sim"),
    "unseeded-rng": ("seeded-rng-required", "transitive-unseeded-rng"),
}


@dataclass(frozen=True)
class ChainStep:
    """One link of a witness chain.

    ``qualname`` is the function the step executes in, ``callee``
    what it reaches there: the next hop's qualname, an effect atom
    spelled ``time.time()``, or ``raise Exc``.
    """

    qualname: str
    path: str
    line: int
    callee: str


Chain = Tuple[ChainStep, ...]


def _chain_key(chain: Chain) -> Tuple:
    return (len(chain), tuple((s.qualname, s.callee, s.line)
                              for s in chain))


def _best(current: Optional[Chain], candidate: Chain) -> Chain:
    """Join two witnesses: shortest chain wins, ties broken
    lexicographically so the fixpoint is deterministic."""
    if current is None or _chain_key(candidate) < _chain_key(current):
        return candidate
    return current


def chain_text(chain: Chain) -> str:
    """``caller -> hop -> ... -> atom`` rendering for messages."""
    if not chain:
        return ""
    return " -> ".join([chain[0].qualname]
                       + [step.callee for step in chain])


def chain_evidence(chain: Chain) -> Tuple[str, ...]:
    """One ``path:line: who -> what`` string per link, for
    ``--explain`` and the JSON report."""
    return tuple(f"{step.path}:{step.line}: {step.qualname} "
                 f"-> {step.callee}" for step in chain)


@dataclass
class EffectSummary:
    """Transitive effects of one function (see module docstring)."""

    chains: Dict[str, Chain] = field(default_factory=dict)
    raises: Dict[str, Chain] = field(default_factory=dict)


def _atom_kind(dotted: str, has_args: bool) -> Optional[str]:
    """Classify an unresolved (external) call target as an effect
    atom, or None."""
    if dotted in WALLCLOCK_CALLS:
        return "wallclock"
    if dotted.startswith("random.") \
            and dotted.partition(".")[2] in RANDOM_GLOBAL_FNS:
        return "unseeded-rng"
    if dotted.startswith("numpy.random.") \
            and dotted.rpartition(".")[2] in NUMPY_GLOBAL_FNS:
        return "unseeded-rng"
    if dotted in ("random.Random", "numpy.random.default_rng") \
            and not has_args:
        return "unseeded-rng"  # constructed without a seed
    return None


def _tarjan_sccs(nodes: Sequence[str],
                 edges: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's SCCs in reverse topological order (callees before
    callers), iterative to survive deep call chains."""
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            targets = edges.get(node, [])
            advanced = False
            for position in range(edge_pos, len(targets)):
                succ = targets[position]
                if succ not in index_of:
                    work.append((node, position + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
        # root done
    return sccs


class EffectIndex:
    """Per-function effect summaries for one :class:`CodebaseIndex`.

    The fixpoint runs over the index's memoized callgraph
    (:meth:`CodebaseIndex.callgraph`) and is the only step that reads
    suppressions, so indexes over the same modules can share one
    callgraph and still infer their own summaries.
    """

    def __init__(self, index: CodebaseIndex) -> None:
        self._modules: Dict[str, ModuleIndex] = {
            module.name: module for module in index.modules}
        self.callgraph = index.callgraph()
        self.summaries: Dict[str, EffectSummary] = {}
        self._infer()

    # -- public queries -----------------------------------------------

    def summary(self, qualname: str) -> Optional[EffectSummary]:
        return self.summaries.get(qualname)

    def functions_in(self, module_name: str) -> List[FunctionNode]:
        """This module's function nodes, in source order."""
        graph = self.callgraph.graphs.get(module_name)
        if graph is None:
            return []
        return sorted(graph.functions.values(),
                      key=lambda fn: (fn.line, fn.qualname))

    # -- inference ----------------------------------------------------

    def _sanitized(self, module: Optional[ModuleIndex], line: int,
                   kind: str) -> bool:
        if module is None:
            return False
        return any(module.is_suppressed(line, rule_id)
                   for rule_id in EFFECT_KINDS[kind])

    def _infer(self) -> None:
        callgraph = self.callgraph
        edges: Dict[str, List[Tuple[str, CallSite]]] = {}
        atoms: Dict[str, List[CallSite]] = {}
        names: List[str] = sorted(callgraph.functions)
        for qualname in names:
            fn = callgraph.functions[qualname]
            fn_edges: List[Tuple[str, CallSite]] = []
            fn_atoms: List[CallSite] = []
            for site in fn.calls:
                resolved = callgraph.resolve(fn, site.target)
                if resolved is not None:
                    fn_edges.append((resolved, site))
                elif not site.target.startswith("self:"):
                    fn_atoms.append(site)
            edges[qualname] = fn_edges
            atoms[qualname] = fn_atoms
        plain_edges = {q: [callee for callee, _ in fn_edges]
                       for q, fn_edges in edges.items()}
        for component in _tarjan_sccs(names, plain_edges):
            # Bottom-up: callee summaries outside the SCC are final.
            for qualname in component:
                self.summaries[qualname] = EffectSummary()
            changed = True
            while changed:
                changed = False
                for qualname in component:
                    updated = self._summarize(
                        callgraph.functions[qualname],
                        edges[qualname], atoms[qualname])
                    if updated != self.summaries[qualname]:
                        self.summaries[qualname] = updated
                        changed = True

    def _summarize(self, fn: FunctionNode,
                   fn_edges: Sequence[Tuple[str, CallSite]],
                   fn_atoms: Sequence[CallSite]) -> EffectSummary:
        module = self._modules.get(fn.module)
        chains: Dict[str, Chain] = {}
        raises: Dict[str, Chain] = {}
        for site in fn_atoms:
            kind = _atom_kind(site.target, site.has_args)
            if kind is None or self._sanitized(module, site.line, kind):
                continue
            witness = (ChainStep(fn.qualname, fn_path(fn, module),
                                 site.line, f"{site.target}()"),)
            chains[kind] = _best(chains.get(kind), witness)
        for site in fn.raises:
            if self.callgraph.catches(site.exception, site.caught):
                continue
            witness = (ChainStep(fn.qualname, fn_path(fn, module),
                                 site.line,
                                 f"raise {site.exception}"),)
            raises[site.exception] = _best(
                raises.get(site.exception), witness)
        for callee, site in fn_edges:
            callee_summary = self.summaries.get(callee)
            if callee_summary is None:
                continue
            step = ChainStep(fn.qualname, fn_path(fn, module),
                             site.line, callee)
            for kind, chain in callee_summary.chains.items():
                if self._sanitized(module, site.line, kind):
                    continue
                chains[kind] = _best(chains.get(kind),
                                     (step,) + chain)
            for exc, chain in callee_summary.raises.items():
                if self.callgraph.catches(exc, site.caught):
                    continue
                raises[exc] = _best(raises.get(exc), (step,) + chain)
        return EffectSummary(chains=chains, raises=raises)


def fn_path(fn: FunctionNode, module: Optional[ModuleIndex]) -> str:
    return module.path if module is not None else fn.module
