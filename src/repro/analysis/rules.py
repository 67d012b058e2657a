"""The pluggable lint-rule interface and its named registry.

Mirrors the :mod:`repro.sim.policies` idiom: each rule is a class with
a stable registry id, ``LINT_RULES`` maps ids to zero-argument
factories (backing the CLI's ``--rule`` selection), and
:func:`resolve_lint_rules` normalizes None/names/instances. New rules
self-register with the :func:`register_rule` decorator::

    @register_rule
    class NoFooRule(LintRule):
        rule_id = "no-foo"
        severity = "error"
        description = "foo() is banned in simulation paths"

        def check(self, module, index):
            ...
            yield self.finding(module, node.lineno, "don't foo")
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Union

from repro.errors import ConfigError, lookup
from repro.analysis.findings import SEVERITIES, Finding
from repro.analysis.index import CodebaseIndex, ModuleIndex


class LintRule:
    """One statically checkable hazard class.

    Subclasses set :attr:`rule_id` (the registry / suppression /
    ``--rule`` name), :attr:`severity`, a one-line
    :attr:`description` (shown in ``repro lint --list-rules`` style
    tables and the README rule table), and implement :meth:`check`.
    Rules must be deterministic pure functions of the index: same
    tree, same findings, in source order.
    """

    rule_id: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, module: ModuleIndex,
              index: CodebaseIndex) -> Iterable[Finding]:
        """Findings for one module (called once per indexed module)."""
        raise NotImplementedError

    def finding(self, module: ModuleIndex, line: int, message: str,
                evidence: Sequence[str] = ()) -> Finding:
        """A finding of this rule at ``module:line``."""
        return Finding(path=module.path, line=line, rule_id=self.rule_id,
                       severity=self.severity, message=message,
                       evidence=tuple(evidence))


#: Named lint rules. Values are zero-argument factories returning the
#: default-configured rule, same contract as the policy registries.
LINT_RULES: Dict[str, Callable[[], LintRule]] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to :data:`LINT_RULES`.

    Raises:
        ConfigError: on a missing/duplicate id or unknown severity,
            so a malformed rule fails at import time, not mid-lint.
    """
    if not issubclass(cls, LintRule) or not cls.rule_id:
        raise ConfigError(
            f"{cls.__name__} must subclass LintRule and set rule_id")
    if cls.severity not in SEVERITIES:
        raise ConfigError(
            f"rule {cls.rule_id!r} has unknown severity "
            f"{cls.severity!r}; known: {', '.join(SEVERITIES)}")
    if cls.rule_id in LINT_RULES:
        raise ConfigError(f"duplicate lint rule id {cls.rule_id!r}")
    LINT_RULES[cls.rule_id] = cls
    return cls


def resolve_lint_rules(
        rules: Union[None, Sequence[Union[str, LintRule]]]
) -> List[LintRule]:
    """Normalize a rule selection: None means every registered rule
    (registration order); names resolve through :data:`LINT_RULES`."""
    if rules is None:
        return [factory() for factory in LINT_RULES.values()]
    resolved: List[LintRule] = []
    for rule in rules:
        if isinstance(rule, LintRule):
            resolved.append(rule)
            continue
        resolved.append(lookup(LINT_RULES, rule, "lint rule")())
    if not resolved:
        raise ConfigError("empty rule selection")
    return resolved


def iter_rule_table() -> Iterator[LintRule]:
    """Default-configured instances of every rule, registration order
    (the README / docs rule table)."""
    for factory in LINT_RULES.values():
        yield factory()
