"""Work-stealing sweep coordinator: an asyncio JSON-lines server.

The scheduling model is pull-based: the coordinator never pushes work.
Workers connect, announce themselves (``hello``), receive the task
context once (``task``), then loop ``next`` -> ``cell`` -> ``result``
until the coordinator answers ``done``. Cells live in one shared
deque, so a fast worker simply asks more often -- work-stealing
without any balancer.

Fault handling, in order of appearance:

* **Worker death**: a connection dropping with an unanswered cell puts
  that cell back at the *head* of the deque (it has waited longest),
  unless another worker is already computing a duplicate of it.
* **Stragglers**: when the deque runs dry but cells are still in
  flight, an idle worker is handed a duplicate of the
  smallest-indexed unresolved cell (end-of-grid duplicate dispatch).
  First result wins; late duplicates are ignored.
* **Malformed results**: a ``result`` message that fails
  :func:`~repro.distrib.protocol.decode_result` is a protocol
  violation; the sender is dropped and its cell requeued.

The server itself follows the :class:`repro.serve.LiveServer` idiom --
``asyncio.start_server``, one reader loop per client, newline-framed
JSON -- and, like every coroutine in this package, must never touch
blocking socket primitives (the ``no-blocking-io-in-coordinator``
simlint rule pins that invariant).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DistribError
from repro.distrib.protocol import (
    SweepJob,
    TaskSpec,
    decode_line,
    decode_result,
    encode_line,
)

__all__ = ["SweepCoordinator"]


class SweepCoordinator:
    """Serve one task's cells to a fleet of socket workers.

    Args:
        task: The task spec every connecting worker receives.
        jobs: The grid cells to distribute (indices must be unique).

    Raises:
        DistribError: on duplicate job indices (a caller bug that
            would silently drop outcomes).
    """

    def __init__(self, task: TaskSpec, jobs: Sequence[SweepJob]) -> None:
        self._task = task
        self._payloads: Dict[int, Dict[str, Any]] = {
            job.index: job.payload for job in jobs}
        if len(self._payloads) != len(jobs):
            raise DistribError("sweep job indices must be unique")
        self._pending = deque(job.index for job in jobs)
        self._outcomes: Dict[int, Dict[str, Any]] = {}
        #: index -> worker names currently computing it (duplicates
        #: included); used for requeue-on-death and duplicate dispatch.
        self._in_flight: Dict[int, set] = {}
        self._stats: Dict[str, Dict[str, int]] = {}
        self._connections = 0
        self._done = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        if not jobs:
            self._done.set()

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind the server; returns the (host, port) actually bound
        (port 0 picks an ephemeral one)."""
        self._server = await asyncio.start_server(
            self._handle_worker, host=host, port=port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def wait_done(self) -> None:
        """Block until every cell has an outcome."""
        await self._done.wait()

    async def close(self) -> None:
        """Stop accepting connections and tear the server down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- results -------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether every cell has an outcome."""
        return len(self._outcomes) == len(self._payloads)

    def outcome_map(self) -> Dict[int, Dict[str, Any]]:
        """Resolved outcomes keyed by job index (a copy)."""
        return dict(self._outcomes)

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-worker accounting, name order: cells resolved,
        duplicates received, cells requeued after a death."""
        return [{"worker": name,
                 "cells": stats["cells"],
                 "duplicates": stats["duplicates"],
                 "requeued": stats["requeued"]}
                for name, stats in sorted(self._stats.items())]

    # -- scheduling ----------------------------------------------------

    def _claim(self, worker: str) -> Optional[int]:
        """The next cell for ``worker``: head of the deque, else a
        duplicate of the oldest straggler, else None (grid finished
        from this worker's point of view)."""
        while self._pending:
            index = self._pending.popleft()
            if index not in self._outcomes:
                self._in_flight.setdefault(index, set()).add(worker)
                return index
        unresolved = sorted(
            index for index, owners in self._in_flight.items()
            if index not in self._outcomes and worker not in owners)
        if unresolved:
            index = unresolved[0]
            self._in_flight[index].add(worker)
            self._stats[worker]["duplicates"] += 1
            return index
        return None

    def _record(self, worker: str, index: int,
                outcome: Dict[str, Any]) -> None:
        if index not in self._payloads:
            raise DistribError(
                f"worker {worker!r} answered unknown cell {index}")
        if index in self._outcomes:
            return  # late duplicate; the first result already won
        self._outcomes[index] = outcome
        self._in_flight.pop(index, None)
        self._stats[worker]["cells"] += 1
        if self.complete:
            self._done.set()

    def _release(self, worker: str, index: int) -> None:
        """Give a dead worker's unanswered cell back to the pool."""
        owners = self._in_flight.get(index)
        if owners is not None:
            owners.discard(worker)
        if index in self._outcomes:
            return
        self._stats[worker]["requeued"] += 1
        if not owners:
            # Nobody else is computing a duplicate: requeue at the
            # head -- this cell has been waiting longest.
            self._pending.appendleft(index)

    # -- protocol ------------------------------------------------------

    async def _handle_worker(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        worker = ""
        assigned: Optional[int] = None
        try:
            hello = await self._read(reader)
            if hello is None or hello.get("op") != "hello":
                return
            self._connections += 1
            worker = str(hello.get("worker")
                         or f"conn-{self._connections}")
            self._stats.setdefault(
                worker, {"cells": 0, "duplicates": 0, "requeued": 0})
            await self._send(writer, {"op": "task",
                                      "kind": self._task.kind,
                                      "context": self._task.context})
            while True:
                message = await self._read(reader)
                if message is None:
                    break
                op = message.get("op")
                if op == "next":
                    index = self._claim(worker)
                    if index is None:
                        await self._send(writer, {"op": "done"})
                        break
                    assigned = index
                    await self._send(writer, {
                        "op": "cell", "index": index,
                        "payload": self._payloads[index]})
                elif op == "result":
                    index, outcome = decode_result(message)
                    if index == assigned:
                        assigned = None
                    self._record(worker, index, outcome)
                else:
                    raise DistribError(
                        f"worker {worker!r} sent unknown op {op!r}")
        except (ConnectionError, DistribError, KeyError, ValueError):
            # A misbehaving or dying worker forfeits its cell; the
            # grid survives as long as any worker remains.
            pass
        finally:
            if assigned is not None and worker:
                self._release(worker, assigned)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read(reader: asyncio.StreamReader
                    ) -> Optional[Dict[str, Any]]:
        line = await reader.readline()
        if not line:
            return None
        return decode_line(line)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        writer.write(encode_line(payload))
        await writer.drain()
