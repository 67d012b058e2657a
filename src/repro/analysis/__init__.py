"""repro.analysis: an AST-based determinism & drift linter (simlint).

The serving stack's failure modes are statically detectable: wall
clock and unseeded randomness leaking into the DES (replay
non-determinism), callbacks orphaned by attribute rebinds (the PR 5
LiveServer bug), and policy registries drifting away from their CLI
grammars and config serializers (the PR 4 estimator-drift class).
This package catches them mechanically, every PR:

* :class:`LintRule` + :data:`LINT_RULES` -- a pluggable rule registry
  mirroring the :mod:`repro.sim.policies` idiom.
* :class:`~repro.analysis.index.CodebaseIndex` -- a lightweight
  symbol/callgraph index good enough for cross-module checks. Each
  module's callgraph is extracted once per run, in memory; the
  interprocedural rules (:class:`EffectIndex`) and the suppression
  audit share it, and a lint run leaves no cache on disk.
* :class:`Finding` -- rule id, path, line, severity, message, written
  to the ``--json`` report by :func:`finding_to_dict`.
* ``# simlint: allow[rule-id]`` -- per-line suppression grammar for
  audited exceptions; :func:`audit_suppressions` reports the ones that
  no longer shield anything.

Front-ends: ``repro lint [paths] [--rule ID] [--json FILE]
[--audit-suppressions]`` and the CI ``lint`` job, which fails on any
finding or stale suppression.
"""

from repro.analysis.callgraph import (
    Callgraph,
    FunctionNode,
    ModuleGraph,
    extract_module_graph,
)
from repro.analysis.checks import (
    EXCEPTION_CONTRACTS,
    SIM_SCOPES,
    WALLCLOCK_SCOPES,
)
from repro.analysis.effects import (
    EFFECT_KINDS,
    EffectIndex,
    EffectSummary,
    chain_evidence,
    chain_text,
)
from repro.analysis.findings import (
    SEVERITIES,
    Finding,
    finding_to_dict,
)
from repro.analysis.index import (
    REGISTRY_SUFFIXES,
    CodebaseIndex,
    ModuleIndex,
    build_index,
    index_module,
    iter_python_files,
)
from repro.analysis.linter import (
    STALE_SUPPRESSION_ID,
    audit_suppressions,
    lint_paths,
    run_rules,
)
from repro.analysis.rules import (
    LINT_RULES,
    LintRule,
    iter_rule_table,
    register_rule,
    resolve_lint_rules,
)

__all__ = [
    "Finding",
    "SEVERITIES",
    "finding_to_dict",
    "LintRule",
    "LINT_RULES",
    "register_rule",
    "resolve_lint_rules",
    "iter_rule_table",
    "ModuleIndex",
    "CodebaseIndex",
    "index_module",
    "build_index",
    "iter_python_files",
    "lint_paths",
    "run_rules",
    "audit_suppressions",
    "STALE_SUPPRESSION_ID",
    "SIM_SCOPES",
    "WALLCLOCK_SCOPES",
    "REGISTRY_SUFFIXES",
    "EXCEPTION_CONTRACTS",
    "Callgraph",
    "FunctionNode",
    "ModuleGraph",
    "extract_module_graph",
    "EffectIndex",
    "EffectSummary",
    "EFFECT_KINDS",
    "chain_text",
    "chain_evidence",
]
