"""The linter's result model.

A :class:`Finding` is one diagnosed hazard: which rule fired, where,
how severe, and a human-readable message. Findings are plain frozen
dataclasses with an exact JSON round-trip
(:func:`finding_to_dict` / :func:`finding_from_dict`) so a lint run
can be archived as a ``--json`` artifact and compared against a
committed baseline (see :mod:`repro.analysis.baseline`).

Baseline comparison deliberately keys on ``(rule_id, path, message)``
-- **not** the line number -- so unrelated edits that shift code down
a file do not resurrect previously accepted findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigError, decoder, reject_unknown

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
        message: Human-readable diagnosis (stable across line shifts;
            the baseline differ keys on it).
        evidence: Supporting ``path:line: who -> what`` steps -- the
            witness chain of an interprocedural rule, printed by
            ``repro lint --explain`` and carried in the JSON report.
            Excluded from ordering and equality (and therefore from
            the baseline key): evidence explains a finding, it does
            not identify one.
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

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        """The line-insensitive identity used by the baseline differ."""
        return (self.rule_id, self.path, self.message)


def finding_to_dict(finding: Finding) -> Dict:
    """Serialize a finding to JSON types (exact round-trip).

    ``evidence`` is emitted only when present, so baselines and
    reports written before the interprocedural rules stay byte-stable.
    """
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


@decoder("finding")
def finding_from_dict(data: Dict) -> Finding:
    """Reconstruct a finding written by :func:`finding_to_dict`."""
    reject_unknown(data, ("path", "line", "rule", "severity", "message",
                          "evidence"), "finding")
    line = data["line"]
    # bool is an int subclass; a baseline with "line": true is corrupt,
    # not line 1.
    if isinstance(line, bool) or not isinstance(line, int):
        raise ConfigError(f"finding line must be an integer, got {line!r}")
    for field_name in ("path", "rule", "severity", "message"):
        if not isinstance(data[field_name], str):
            raise ConfigError(
                f"finding {field_name} must be a string, got "
                f"{data[field_name]!r}")
    evidence = data.get("evidence", [])
    if not isinstance(evidence, list) \
            or not all(isinstance(step, str) for step in evidence):
        raise ConfigError(
            f"finding evidence must be a list of strings, got "
            f"{evidence!r}")
    return Finding(path=data["path"], line=line, rule_id=data["rule"],
                   severity=data["severity"], message=data["message"],
                   evidence=tuple(evidence))
