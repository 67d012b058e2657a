"""Pluggable sweep-executor backends and their named registry.

Mirrors the :mod:`repro.sim.policies` / :mod:`repro.sim.routing`
idiom: :data:`SWEEP_BACKENDS` maps names to factories and
:func:`resolve_sweep_backend` normalizes None / names / instances.
Three backends ship:

* ``serial`` -- in-process, single-threaded; the oracle every other
  backend must match bit for bit.
* ``process`` -- a local :class:`multiprocessing.Pool` whose
  initializer builds the task runner **once per worker** (the context
  -- search knobs, trace, memory override -- is parsed exactly
  ``workers`` times, not per cell) and whose guided chunking hands
  out progressively smaller chunks so the pool tail never idles
  behind one straggler chunk.
* ``sockets`` -- the work-stealing coordinator/worker fleet of
  :mod:`repro.distrib.coordinator`; workers are separate processes
  (local subprocesses here; start them by hand on other machines with
  ``python -m repro.distrib.worker``).

Every backend returns the same :class:`BackendRun`: outcome dicts
aligned with the submitted jobs plus per-worker utilization stats.
Parity across backends is pinned by test.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.errors import ConfigError, DistribError, lookup
# Importing cells registers the built-in task runners.
from repro.distrib import cells as _cells  # noqa: F401
from repro.distrib.protocol import (
    SweepJob,
    TaskSpec,
    resolve_task_runner,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    # asyncio and multiprocessing are imported by the backends that
    # use them, so a serial sweep loads neither.
    import asyncio

__all__ = [
    "BackendRun",
    "SweepBackend",
    "SerialBackend",
    "ProcessBackend",
    "SocketsBackend",
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
# The per-worker runner lives in a module global: Pool initializers
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
    """A local multiprocessing pool with initializer-once context.

    Args:
        workers: Pool size (clamped to the job count).

    Chunking is guided: each chunk takes ``remaining // (2 * workers)``
    cells (floored at 1), so early chunks amortize dispatch overhead
    while the tail degrades to single cells -- a straggling worker
    near the end strands one cell, not a 1/(2*workers) slice of the
    grid.
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
        import multiprocessing

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
        with multiprocessing.Pool(
                processes=workers, initializer=_pool_initializer,
                initargs=(task.kind, task.context)) as pool:
            for pid, results in pool.imap_unordered(_pool_chunk, chunks):
                for index, outcome in results:
                    by_index[index] = outcome
                    cells_per_pid[pid] = cells_per_pid.get(pid, 0) \
                        + 1
        stats = tuple(
            {"worker": f"process-{rank}", "cells": cells_per_pid[pid],
             "duplicates": 0, "requeued": 0}
            for rank, pid in enumerate(sorted(cells_per_pid)))
        return BackendRun(
            outcomes=tuple(by_index[job.index] for job in jobs),
            workers=stats)


class SocketsBackend(SweepBackend):
    """The work-stealing socket fleet, self-hosting local workers.

    Args:
        workers: Local worker subprocesses to launch.
        host / port: Coordinator bind address (port 0 = ephemeral).
        die_after: Chaos knob forwarded to the **first** worker
            (crash after N cells) -- exercises requeue-on-death.
        python: Interpreter for worker subprocesses (default: this
            one).

    Raises:
        DistribError: when every worker exits with cells outstanding
            (the one failure a work-stealing pool cannot absorb).
    """

    name = "sockets"

    def __init__(self, workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0, die_after: Optional[int] = None,
                 python: Optional[str] = None) -> None:
        if workers < 1:
            raise ConfigError("sockets backend needs at least 1 worker")
        self.workers = workers
        self.host = host
        self.port = port
        self.die_after = die_after
        self.python = python or sys.executable

    def __repr__(self) -> str:
        return f"SocketsBackend(workers={self.workers})"

    def run(self, task: TaskSpec,
            jobs: Sequence[SweepJob]) -> BackendRun:
        import asyncio

        if not jobs:
            return BackendRun(outcomes=())
        return asyncio.run(self._run(task, jobs))

    def _worker_env(self) -> Dict[str, str]:
        """Subprocess env with this repro checkout importable."""
        import repro

        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing \
            else src + os.pathsep + existing
        return env

    async def _spawn(self, host: str, port: int,
                     rank: int) -> asyncio.subprocess.Process:
        import asyncio

        args = [self.python, "-m", "repro.distrib.worker",
                "--host", host, "--port", str(port),
                "--worker-id", f"worker-{rank}"]
        if self.die_after is not None and rank == 0:
            args += ["--die-after", str(self.die_after)]
        return await asyncio.create_subprocess_exec(
            *args, env=self._worker_env(),
            stdout=asyncio.subprocess.DEVNULL)

    async def _run(self, task: TaskSpec,
                   jobs: Sequence[SweepJob]) -> BackendRun:
        import asyncio

        from repro.distrib.coordinator import SweepCoordinator

        coordinator = SweepCoordinator(task, jobs)
        host, port = await coordinator.start(self.host, self.port)
        procs: List[asyncio.subprocess.Process] = []
        try:
            for rank in range(self.workers):
                procs.append(await self._spawn(host, port, rank))
            done = asyncio.ensure_future(coordinator.wait_done())
            exits = asyncio.ensure_future(asyncio.gather(
                *(proc.wait() for proc in procs)))
            try:
                await asyncio.wait({done, exits},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                for pending in (done, exits):
                    pending.cancel()
                await asyncio.gather(done, exits,
                                     return_exceptions=True)
            if not coordinator.complete:
                raise DistribError(
                    f"all {self.workers} sweep worker(s) exited with "
                    f"{len(jobs) - len(coordinator.outcome_map())} "
                    f"cell(s) outstanding")
            # Let straggling duplicates drain gracefully; anything
            # still alive after the grace window is torn down.
            for proc in procs:
                try:
                    await asyncio.wait_for(proc.wait(), timeout=10.0)
                except asyncio.TimeoutError:
                    proc.terminate()
                    await proc.wait()
        finally:
            await coordinator.close()
            for proc in procs:
                if proc.returncode is None:
                    proc.terminate()
                    await proc.wait()
        resolved = coordinator.outcome_map()
        return BackendRun(
            outcomes=tuple(resolved[job.index] for job in jobs),
            workers=tuple(coordinator.worker_stats()))


#: Named backends. Factories take the worker count, so the CLI's
#: --processes flag maps onto every backend uniformly.
SWEEP_BACKENDS: Dict[str, Callable[[int], SweepBackend]] = {
    "serial": lambda workers: SerialBackend(),
    "process": lambda workers: ProcessBackend(workers=max(workers, 1)),
    "sockets": lambda workers: SocketsBackend(workers=max(workers, 1)),
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
