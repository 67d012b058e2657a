"""The lint orchestrator: walk, index, run rules, apply suppressions.

:func:`lint_paths` is the one call behind both the ``repro lint`` CLI
and the test suite: it expands the given files/directories, builds the
cross-module :class:`~repro.analysis.index.CodebaseIndex`, runs the
selected rules over every module, drops findings suppressed by the
inline ``# simlint: allow[rule-id]`` grammar, and returns the
survivors sorted by (path, line, rule) -- deterministic by
construction, like everything else in the reproduction.

:func:`audit_suppressions` is the inverse pass: it re-runs the rules
*ignoring* suppressions and reports every ``allow[...]`` comment that
no longer shields anything -- stale allowances are how audited
exceptions quietly outlive their audits (``repro lint
--audit-suppressions``).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple, Union

from repro.analysis.index import CodebaseIndex, build_index
from repro.analysis.findings import Finding
from repro.analysis.rules import LintRule, resolve_lint_rules

# Importing the corpus registers the builtin rules.
import repro.analysis.checks  # noqa: F401  (registration side effect)

#: Pseudo-rule id for stale-suppression audit findings. Not in
#: LINT_RULES: it diagnoses the suppression grammar itself, so it can
#: be neither selected with --rule nor suppressed inline.
STALE_SUPPRESSION_ID = "stale-suppression"


def run_rules(index: CodebaseIndex,
              rules: Sequence[LintRule]) -> List[Finding]:
    """Run rules over an already-built index (suppressions applied)."""
    findings: List[Finding] = []
    for module in index.modules:
        for rule in rules:
            for finding in rule.check(module, index):
                if not module.is_suppressed(finding.line,
                                            finding.rule_id):
                    findings.append(finding)
    return sorted(findings)


def lint_paths(
        paths: Sequence[str],
        rules: Union[None, Sequence[Union[str, LintRule]]] = None,
) -> List[Finding]:
    """Lint files/directories with the selected rules (None = all).

    Raises:
        ConfigError: on unknown rules, missing paths, or a file that
            does not decode or parse.
    """
    return run_rules(build_index(paths), resolve_lint_rules(rules))


def audit_suppressions(
        index: CodebaseIndex,
        rules: Union[None, Sequence[Union[str, LintRule]]] = None,
) -> List[Finding]:
    """Stale ``# simlint: allow[...]`` comments under ``index``.

    A suppression is *live* when some rule in the selection would
    fire on its line with its rule id (or when it is the wildcard and
    anything fires on the line); everything else, an empty
    ``allow[]`` included, is stale and comes back as a warning
    :class:`Finding` with rule id :data:`STALE_SUPPRESSION_ID`.
    """
    resolved = resolve_lint_rules(rules)
    known_ids = {rule.rule_id for rule in resolved}
    # Taint sanitization consults the same allow[] grammar, so the
    # effect summaries must be rebuilt with suppressions blinded --
    # otherwise a suppressed atom never taints its line and every
    # transitive allowance audits as stale. The callgraph itself is
    # shared: extraction never reads suppressions.
    blinded = index.twin()
    saved = [module.suppressions for module in blinded.modules]
    try:
        for module in blinded.modules:
            module.suppressions = {}
        raw: Set[Tuple[str, int, str]] = set()
        for module in blinded.modules:
            for rule in resolved:
                for finding in rule.check(module, blinded):
                    raw.add((module.path, finding.line,
                             finding.rule_id))
    finally:
        for module, suppressions in zip(blinded.modules, saved):
            module.suppressions = suppressions
    fired_by_line: Set[Tuple[str, int]] = {
        (path, line) for path, line, _ in raw}
    stale: List[Finding] = []
    for module in index.modules:
        for line in sorted(module.suppressions):
            allowed = module.suppressions[line]
            if not allowed:
                stale.append(_stale(module.path, line, "allow[]"))
            for rule_id in sorted(allowed):
                if rule_id == "*":
                    live = (module.path, line) in fired_by_line
                    label = "allow[*]"
                else:
                    live = (module.path, line, rule_id) in raw
                    label = f"allow[{rule_id}]"
                    if rule_id not in known_ids:
                        # Rules outside the current selection cannot
                        # be audited; only flag ids no rule owns at
                        # all when the full corpus is selected.
                        if rules is not None:
                            continue
                if not live:
                    stale.append(_stale(module.path, line, label))
    return sorted(stale)


def _stale(path: str, line: int, label: str) -> Finding:
    return Finding(path=path, line=line, rule_id=STALE_SUPPRESSION_ID,
                   severity="warning",
                   message=f"suppression {label} no longer shields any "
                           f"finding on this line; remove it or re-audit "
                           f"the site")
