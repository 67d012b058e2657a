"""Wire format and task contract of the distributed sweep executor.

Every backend -- in-process, multiprocessing pool, socket fleet --
executes the same unit of work: a :class:`TaskSpec` names a registered
*task runner* (the grid-wide context: search knobs, the trace to
replay, the memory override) and each :class:`SweepJob` carries one
cell's payload (the schema/cluster or schedule/replicas under test).
A runner factory deserializes the context **once** and returns a
closure invoked per cell, so a worker that executes a thousand cells
parses the shared context a single time.

Runner outcomes are plain JSON-able dicts::

    {"result": <json-able payload or None>, "error": <str or None>}

which is what makes the backends interchangeable: the same runner
produces the same outcome dict no matter which transport carried the
cell, so backend parity is a structural guarantee, not a hope.

The sockets backend frames messages as JSON lines (one object per
``\\n``-terminated line), the same idiom as :mod:`repro.serve`'s
:class:`~repro.serve.LiveServer`. Coordinator-bound ops are ``hello``
/ ``next`` / ``result``; worker-bound ops are ``task`` / ``cell`` /
``done``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.errors import ConfigError, DistribError, lookup, parse_json

__all__ = [
    "TaskSpec",
    "SweepJob",
    "TASK_RUNNERS",
    "register_task_runner",
    "resolve_task_runner",
    "encode_line",
    "decode_line",
    "decode_result",
    "ok_outcome",
    "error_outcome",
]

#: One cell's execution result. ``result`` holds the runner's JSON-able
#: payload on success; ``error`` holds a one-line failure description
#: (infeasible cell) -- exactly one of the two is non-None.
Outcome = Dict[str, Any]

#: A runner maps one cell payload to an outcome dict.
Runner = Callable[[Dict[str, Any]], Outcome]

#: A runner factory binds the task-wide context once per worker.
RunnerFactory = Callable[[Dict[str, Any]], Runner]


@dataclass(frozen=True)
class TaskSpec:
    """What every worker of one sweep executes.

    Attributes:
        kind: Registry name of the task runner (``"search"``,
            ``"whatif"``).
        context: Task-wide JSON-able context, deserialized once per
            worker by the runner factory (search knobs, trace
            envelope, memory override).
    """

    kind: str
    context: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepJob:
    """One grid cell: a stable index plus the cell's payload.

    Attributes:
        index: Position in the caller's grid; outcomes are re-keyed by
            it, so out-of-order completion (work stealing, duplicate
            dispatch) cannot scramble the result table.
        payload: The cell's JSON-able inputs.
    """

    index: int
    payload: Dict[str, Any]


def ok_outcome(result: Any) -> Outcome:
    """A successful cell outcome."""
    return {"result": result, "error": None}


def error_outcome(error: BaseException) -> Outcome:
    """A failed cell outcome, formatted as the sweep table's error
    string (``TypeName: message`` -- the shape the serial path has
    always recorded)."""
    return {"result": None, "error": f"{type(error).__name__}: {error}"}


#: Named task runners. Values are factories binding a context dict to
#: a per-cell runner -- same contract as the policy registries.
TASK_RUNNERS: Dict[str, RunnerFactory] = {}


def register_task_runner(kind: str):
    """Decorator registering a runner factory under ``kind``.

    Raises:
        ConfigError: on a duplicate kind, so a copy-pasted runner
            fails at import time instead of shadowing silently.
    """
    def decorate(factory: RunnerFactory) -> RunnerFactory:
        if kind in TASK_RUNNERS:
            raise ConfigError(f"duplicate task runner kind {kind!r}")
        TASK_RUNNERS[kind] = factory
        return factory
    return decorate


def resolve_task_runner(kind: str) -> RunnerFactory:
    """The registered factory for ``kind``.

    Raises:
        ConfigError: on an unknown kind (lists the known ones).
    """
    return lookup(TASK_RUNNERS, kind, "task kind")


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One protocol message as a compact JSON line."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") \
        + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line.

    Raises:
        DistribError: on malformed JSON or a non-object payload (a
            protocol violation, not a cell failure).
    """
    payload = parse_json(line, "malformed protocol line", DistribError)
    if not isinstance(payload, dict):
        raise DistribError(
            f"protocol messages must be objects, got "
            f"{type(payload).__name__}")
    return payload


def decode_result(message: Dict[str, Any]) -> Tuple[int, Outcome]:
    """The ``(index, outcome)`` a worker's ``result`` message carries.

    Raises:
        DistribError: unless the index is an int (not a bool) and the
            outcome has exactly the keys ``result`` and ``error``,
            exactly one of them non-None, with ``error`` a string.
    """
    index, outcome = message.get("index"), message.get("outcome")
    if not isinstance(index, int) or isinstance(index, bool):
        raise DistribError(f"result index must be an int, got {index!r}")
    if not (isinstance(outcome, dict)
            and outcome.keys() == {"result", "error"}
            and (outcome["result"] is None) != (outcome["error"] is None)
            and (outcome["error"] is None
                 or isinstance(outcome["error"], str))):
        raise DistribError(
            f"malformed outcome for cell {index}: {outcome!r}")
    return index, outcome
