"""Task contract of the sweep executor.

Every backend -- in-process or a local process pool -- executes the
same unit of work: a :class:`TaskSpec` names a registered *task
runner* (the grid-wide context: search knobs, the trace to replay,
the memory override) and each :class:`SweepJob` carries one cell's
payload (the schema/cluster or schedule/replicas under test).
A runner factory deserializes the context **once** and returns a
closure invoked per cell, so a worker that executes a thousand cells
parses the shared context a single time.

Runner outcomes are plain JSON-able dicts::

    {"result": <json-able payload or None>, "error": <str or None>}

which is what makes the backends interchangeable: the same runner
produces the same outcome dict no matter which process ran the
cell, so backend parity is a structural guarantee, not a hope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.errors import ConfigError, lookup

__all__ = [
    "TaskSpec",
    "SweepJob",
    "TASK_RUNNERS",
    "register_task_runner",
    "resolve_task_runner",
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
            it, so out-of-order completion (pool chunks finish in any
            order) cannot scramble the result table.
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

