"""The linter's result model.

A :class:`Finding` is one diagnosed hazard: which rule fired, where,
how severe, and a human-readable message. Findings are plain frozen
dataclasses; :func:`finding_to_dict` writes them into the ``repro lint
--json`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigError

#: Severity ladder, mildest first. ``error`` findings are determinism /
#: correctness hazards; ``warning`` findings are reproducibility smells.
SEVERITIES: Tuple[str, ...] = ("warning", "error")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnosed hazard at one source location.

    Attributes:
        path: The offending file, as handed to the linter (kept
            verbatim so repo-relative invocations produce
            repo-relative, diff-stable paths).
        line: 1-based source line of the offending node.
        rule_id: Registry id of the rule that fired.
        severity: One of :data:`SEVERITIES`.
        message: Human-readable diagnosis (stable across line shifts).
        evidence: Supporting ``path:line: who -> what`` steps -- the
            witness chain of an interprocedural rule, printed by
            ``repro lint --explain`` and carried in the JSON report.
            Excluded from ordering and equality: evidence explains a
            finding, it does not identify one.
    """

    path: str
    line: int
    rule_id: str
    severity: str
    message: str
    evidence: Tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigError(
                f"unknown severity {self.severity!r}; known: "
                f"{', '.join(SEVERITIES)}")
        if self.line < 1:
            raise ConfigError("finding line numbers are 1-based")
        if not self.rule_id:
            raise ConfigError("finding needs a rule_id")
        if not isinstance(self.evidence, tuple):
            object.__setattr__(self, "evidence", tuple(self.evidence))
        if not all(isinstance(step, str) for step in self.evidence):
            raise ConfigError("finding evidence must be strings")

    @property
    def location(self) -> str:
        """``path:line``, the clickable spelling reports print."""
        return f"{self.path}:{self.line}"


def finding_to_dict(finding: Finding) -> Dict:
    """Serialize a finding to JSON types (``evidence`` only when
    present)."""
    payload = {
        "path": finding.path,
        "line": finding.line,
        "rule": finding.rule_id,
        "severity": finding.severity,
        "message": finding.message,
    }
    if finding.evidence:
        payload["evidence"] = list(finding.evidence)
    return payload

