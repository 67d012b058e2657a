"""Baseline files: fail CI on *new* findings only.

A baseline is a committed JSON snapshot of the findings a tree is
known (and accepted) to carry. ``repro lint --baseline FILE`` then
reports every finding but fails only when one is not covered by the
snapshot -- so adopting the linter never requires fixing the world
first, while every PR is still gated on not adding hazards.

Comparison is a multiset subtraction over the line-insensitive
:attr:`~repro.analysis.findings.Finding.baseline_key`: moving code
around does not resurrect an accepted finding, but a second instance
of the same message in the same file does count as new.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError, read_json
from repro.analysis.findings import (
    Finding,
    finding_from_dict,
    finding_to_dict,
)

#: Bump on incompatible baseline layout changes.
BASELINE_VERSION = 1


def baseline_payload(findings: Sequence[Finding]) -> Dict:
    """The JSON document :func:`write_baseline` persists."""
    ordered = sorted(findings)
    return {
        "baseline_version": BASELINE_VERSION,
        "findings": [finding_to_dict(finding) for finding in ordered],
    }


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    """Snapshot the findings as the new accepted baseline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline_payload(findings), handle, indent=1)
        handle.write("\n")


def load_baseline(path: str) -> List[Finding]:
    """Load a baseline written by :func:`write_baseline`.

    Raises:
        ConfigError: on malformed JSON, a missing findings list, or a
            version newer than this library understands.
    """
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: baseline must be a JSON object")
    version = data.get("baseline_version")
    if not isinstance(version, int) or version < 1:
        raise ConfigError(f"{path}: invalid baseline_version {version!r}")
    if version > BASELINE_VERSION:
        raise ConfigError(
            f"{path}: baseline_version {version} is newer than the "
            f"supported {BASELINE_VERSION}; upgrade the library")
    findings = data.get("findings")
    if not isinstance(findings, list):
        raise ConfigError(f"{path}: baseline has no findings list")
    return [finding_from_dict(item) for item in findings]


def diff_against_baseline(
        findings: Sequence[Finding],
        baseline: Sequence[Finding],
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (new, accepted) relative to a baseline.

    Multiset semantics per :attr:`Finding.baseline_key`: a baseline
    entry absorbs at most one live finding, so duplicating an accepted
    hazard still fails the gate.
    """
    budget = Counter(finding.baseline_key for finding in baseline)
    new: List[Finding] = []
    accepted: List[Finding] = []
    for finding in sorted(findings):
        if budget[finding.baseline_key] > 0:
            budget[finding.baseline_key] -= 1
            accepted.append(finding)
        else:
            new.append(finding)
    return new, accepted
