"""Pluggable sweep-executor backends and their named registry.

Mirrors the :mod:`repro.sim.policies` / :mod:`repro.sim.routing`
idiom: :data:`SWEEP_BACKENDS` maps names to factories and
:func:`resolve_sweep_backend` normalizes None / names / instances.
Two backends ship:

* ``serial`` -- in-process, single-threaded; the oracle the parallel
  backend must match bit for bit.
* ``process`` -- a local
  :class:`concurrent.futures.ProcessPoolExecutor` whose initializer
  builds the task runner **once per worker** (the context -- search
  knobs, trace, memory override -- is parsed exactly ``workers``
  times, not per cell) and whose guided chunking hands out
  progressively smaller chunks so the pool tail never idles behind
  one straggler chunk. A worker that dies fails the sweep at once
  with a :class:`~repro.errors.DistribError`.

Both backends return the same :class:`BackendRun`: outcome dicts
aligned with the submitted jobs plus per-worker utilization stats.
Parity between them is pinned by test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import ConfigError, DistribError, lookup
# Importing cells registers the built-in task runners.
from repro.distrib import cells as _cells  # noqa: F401
from repro.distrib.protocol import (
    SweepJob,
    TaskSpec,
    resolve_task_runner,
)

__all__ = [
    "BackendRun",
    "SweepBackend",
    "SerialBackend",
    "ProcessBackend",
    "SWEEP_BACKENDS",
    "resolve_sweep_backend",
]


@dataclass(frozen=True)
class BackendRun:
    """One backend execution: outcomes plus worker accounting.

    Attributes:
        outcomes: One outcome dict per submitted job, **job order**
            (not index order -- callers own the index space).
        workers: Per-worker utilization records (``worker``, ``cells``,
            ``duplicates``, ``requeued``) for the reporting layer.
    """

    outcomes: Tuple[Dict[str, Any], ...]
    workers: Tuple[Dict[str, Any], ...] = field(default=())


class SweepBackend:
    """One way of executing a task's grid cells."""

    name: str = ""

    def run(self, task: TaskSpec,
            jobs: Sequence[SweepJob]) -> BackendRun:
        """Execute every job; outcomes align with ``jobs``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(SweepBackend):
    """In-process execution, submission order -- the parity oracle."""

    name = "serial"

    def run(self, task: TaskSpec,
            jobs: Sequence[SweepJob]) -> BackendRun:
        if not jobs:
            return BackendRun(outcomes=())
        runner = resolve_task_runner(task.kind)(task.context)
        outcomes = tuple(runner(job.payload) for job in jobs)
        workers = ({"worker": "serial", "cells": len(jobs),
                    "duplicates": 0, "requeued": 0},)
        return BackendRun(outcomes=outcomes, workers=workers)


# -- process backend ---------------------------------------------------
#
# The per-worker runner lives in a module global: pool initializers
# cannot return values, so the initializer parks the built runner here
# and every chunk call picks it up. Each worker process has its own
# copy of this module, so the global is per-worker state, not shared.

_POOL_RUNNER = None


def _pool_initializer(kind: str, context: Dict[str, Any]) -> None:
    """Build the task runner once, at worker start."""
    global _POOL_RUNNER
    _POOL_RUNNER = resolve_task_runner(kind)(context)


def _pool_chunk(chunk: List[Tuple[int, Dict[str, Any]]]
                ) -> Tuple[int, List[Tuple[int, Dict[str, Any]]]]:
    """Run one chunk of (index, payload) cells; tag results with the
    worker's pid for the utilization table."""
    return os.getpid(), [(index, _POOL_RUNNER(payload))
                         for index, payload in chunk]


class ProcessBackend(SweepBackend):
    """A local process pool with initializer-once context.

    Args:
        workers: Pool size (clamped to the job count).

    Chunking is guided: each chunk takes ``remaining // (2 * workers)``
    cells (floored at 1), so early chunks amortize dispatch overhead
    while the tail degrades to single cells -- a straggling worker
    near the end strands one cell, not a 1/(2*workers) slice of the
    grid.

    Raises:
        DistribError: when a worker process dies mid-sweep (its chunk
            is lost, so the run stops instead of waiting for it).
    """

    name = "process"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigError("process backend needs at least 1 worker")
        self.workers = workers

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.workers})"

    @staticmethod
    def plan_chunks(total: int, workers: int) -> List[int]:
        """Guided chunk sizes for ``total`` cells over ``workers``."""
        sizes: List[int] = []
        remaining = total
        while remaining > 0:
            size = max(1, remaining // (2 * workers))
            sizes.append(size)
            remaining -= size
        return sizes

    def run(self, task: TaskSpec,
            jobs: Sequence[SweepJob]) -> BackendRun:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        if not jobs:
            return BackendRun(outcomes=())
        workers = min(self.workers, len(jobs))
        chunks: List[List[Tuple[int, Dict[str, Any]]]] = []
        position = 0
        for size in self.plan_chunks(len(jobs), workers):
            chunks.append([(job.index, job.payload)
                           for job in jobs[position:position + size]])
            position += size
        by_index: Dict[int, Dict[str, Any]] = {}
        cells_per_pid: Dict[int, int] = {}
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_initializer,
            initargs=(task.kind, task.context))
        try:
            futures = [pool.submit(_pool_chunk, chunk) for chunk in chunks]
            for future in as_completed(futures):
                pid, results = future.result()
                for index, outcome in results:
                    by_index[index] = outcome
                    cells_per_pid[pid] = cells_per_pid.get(pid, 0) + 1
        except BrokenProcessPool as error:
            # A dead worker takes its chunk with it; a pool that
            # re-spawned it would wait for that chunk forever.
            raise DistribError(
                f"a sweep worker process died with "
                f"{len(jobs) - len(by_index)} cell(s) outstanding"
            ) from error
        finally:
            # On an early exit (a dead worker, Ctrl-C), drop the chunks
            # no worker has started instead of running them first.
            pool.shutdown(cancel_futures=True)
        stats = tuple(
            {"worker": f"process-{rank}", "cells": cells_per_pid[pid],
             "duplicates": 0, "requeued": 0}
            for rank, pid in enumerate(sorted(cells_per_pid)))
        return BackendRun(
            outcomes=tuple(by_index[job.index] for job in jobs),
            workers=stats)


#: Named backends. Factories take the worker count, so the CLI's
#: --workers flag maps onto every backend uniformly.
SWEEP_BACKENDS: Dict[str, Callable[[int], SweepBackend]] = {
    "serial": lambda workers: SerialBackend(),
    "process": lambda workers: ProcessBackend(workers=max(workers, 1)),
}


def resolve_sweep_backend(backend: Any = None,
                          workers: int = 1) -> SweepBackend:
    """Normalize a backend selection.

    None picks ``process`` when ``workers`` > 1 and ``serial``
    otherwise (the historical sweep behavior); names resolve through
    :data:`SWEEP_BACKENDS`; instances pass through.

    Raises:
        ConfigError: on an unknown backend name.
    """
    if isinstance(backend, SweepBackend):
        return backend
    if backend is None:
        backend = "process" if workers > 1 else "serial"
    return lookup(SWEEP_BACKENDS, backend, "sweep backend")(workers)
