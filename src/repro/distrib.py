"""repro.distrib: run a grid of independent cells here or on a local pool.

The executor under :meth:`OptimizerSession.sweep
<repro.rago.session.OptimizerSession.sweep>` and ``repro whatif``. A
grid is a *factory* -- a module-level function that binds the
grid-wide JSON-able context (search knobs, the trace to replay, the
memory override) **once** and returns a per-cell runner -- plus one
JSON-able payload per cell. :func:`run_cells` applies that runner to
every payload on one of the :data:`BACKENDS`:

* ``serial`` -- in-process, payload order; the oracle the pool must
  match bit for bit.
* ``process`` -- a local :class:`concurrent.futures.ProcessPoolExecutor`
  whose initializer builds the runner once per worker and whose
  guided chunking hands out progressively smaller chunks, so the pool
  tail never idles behind one straggler chunk. The pool pickles the
  factory by reference (module and name), so each worker imports the
  factory's module itself: the pool works the same under every start
  method. A worker that dies fails the run at once with a
  :class:`~repro.errors.DistribError`.

A runner's outcomes are plain JSON-able dicts::

    {"result": <json-able payload or None>, "error": <str or None>}

so the same factory produces the same outcome no matter which process
ran the cell: backend parity is structural, not a hope.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, DistribError, lookup

__all__ = ["BACKENDS", "run_cells", "ok_outcome", "error_outcome"]

#: The executors :func:`run_cells` knows (``--backend``'s choices).
BACKENDS: Tuple[str, ...] = ("serial", "process")

#: One cell's execution result. ``result`` holds the runner's JSON-able
#: payload on success; ``error`` holds a one-line failure description
#: (infeasible cell) -- exactly one of the two is non-None.
Outcome = Dict[str, Any]

#: A runner maps one cell payload to an outcome dict.
Runner = Callable[[Dict[str, Any]], Outcome]

#: A runner factory binds the grid-wide context once per worker.
RunnerFactory = Callable[[Dict[str, Any]], Runner]


def ok_outcome(result: Any) -> Outcome:
    """A successful cell outcome."""
    return {"result": result, "error": None}


def error_outcome(error: BaseException) -> Outcome:
    """A failed cell outcome, formatted as the sweep table's error
    string (``TypeName: message`` -- the shape the serial path has
    always recorded)."""
    return {"result": None, "error": f"{type(error).__name__}: {error}"}


def _plan_chunks(total: int, workers: int) -> List[int]:
    """Guided chunk sizes for ``total`` cells over ``workers``.

    Each chunk takes ``remaining // (2 * workers)`` cells (floored at
    1), so early chunks amortize dispatch overhead while the tail
    degrades to single cells -- a straggling worker near the end
    strands one cell, not a 1/(2*workers) slice of the grid.
    """
    sizes: List[int] = []
    remaining = total
    while remaining > 0:
        size = max(1, remaining // (2 * workers))
        sizes.append(size)
        remaining -= size
    return sizes


def run_cells(factory: RunnerFactory, context: Dict[str, Any],
              payloads: Sequence[Dict[str, Any]], *,
              backend: Optional[str] = None, workers: int = 1
              ) -> Tuple[Tuple[Outcome, ...], Tuple[Dict[str, Any], ...]]:
    """Run ``factory(context)`` over every payload.

    Args:
        factory: A module-level runner factory (the ``process`` pool
            pickles it by reference).
        context: The grid-wide JSON-able context, bound once per worker.
        payloads: One JSON-able payload per cell.
        backend: A :data:`BACKENDS` name; None picks ``process`` when
            ``workers`` > 1 and ``serial`` otherwise.
        workers: Pool size (clamped to the cell count); ``serial``
            runs exactly one.

    Returns:
        ``(outcomes, workers)``: one outcome per payload, payload order,
        and one ``{"worker", "cells"}`` record per worker that ran
        cells (none when ``payloads`` is empty).

    Raises:
        ConfigError: on fewer than 1 worker, an unknown backend name,
            or ``serial`` with more than 1 worker.
        DistribError: when a ``process`` worker dies mid-run.
    """
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    if backend is None:
        backend = "process" if workers > 1 else "serial"
    lookup(dict.fromkeys(BACKENDS), backend, "sweep backend")
    if backend == "serial" and workers > 1:
        raise ConfigError(f"the serial backend runs 1 worker, got "
                          f"{workers}; use the process backend or 1 worker")
    if not payloads:
        return (), ()
    if backend == "serial":
        runner = factory(context)
        return (tuple(runner(payload) for payload in payloads),
                ({"worker": "serial", "cells": len(payloads)},))
    return _run_pool(factory, context, payloads, min(workers, len(payloads)))


# -- the process pool --------------------------------------------------
#
# The per-worker runner lives in a module global: pool initializers
# cannot return values, so the initializer parks the built runner here
# and every chunk call picks it up. Each worker process has its own
# copy of this module, so the global is per-worker state, not shared.

_POOL_RUNNER = None


def _pool_initializer(factory: RunnerFactory,
                      context: Dict[str, Any]) -> None:
    """Build the cell runner once, at worker start."""
    global _POOL_RUNNER
    _POOL_RUNNER = factory(context)


def _pool_chunk(chunk: List[Tuple[int, Dict[str, Any]]]
                ) -> Tuple[int, List[Tuple[int, Outcome]]]:
    """Run one chunk of (index, payload) cells; tag results with the
    worker's pid for the utilization records."""
    return os.getpid(), [(index, _POOL_RUNNER(payload))
                         for index, payload in chunk]


def _run_pool(factory: RunnerFactory, context: Dict[str, Any],
              payloads: Sequence[Dict[str, Any]], workers: int
              ) -> Tuple[Tuple[Outcome, ...], Tuple[Dict[str, Any], ...]]:
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    chunks: List[List[Tuple[int, Dict[str, Any]]]] = []
    position = 0
    for size in _plan_chunks(len(payloads), workers):
        chunks.append([(index, payloads[index])
                       for index in range(position, position + size)])
        position += size
    by_index: Dict[int, Outcome] = {}
    cells_per_pid: Dict[int, int] = {}
    pool = ProcessPoolExecutor(max_workers=workers,
                               initializer=_pool_initializer,
                               initargs=(factory, context))
    try:
        futures = [pool.submit(_pool_chunk, chunk) for chunk in chunks]
        for future in as_completed(futures):
            pid, results = future.result()
            for index, outcome in results:
                by_index[index] = outcome
                cells_per_pid[pid] = cells_per_pid.get(pid, 0) + 1
    except BrokenProcessPool as error:
        # A dead worker takes its chunk with it; a pool that re-spawned
        # it would wait for that chunk forever.
        raise DistribError(
            f"a sweep worker process died with "
            f"{len(payloads) - len(by_index)} cell(s) outstanding"
        ) from error
    finally:
        # On an early exit (a dead worker, Ctrl-C), drop the chunks no
        # worker has started instead of running them first.
        pool.shutdown(cancel_futures=True)
    stats = tuple({"worker": f"process-{rank}", "cells": cells_per_pid[pid]}
                  for rank, pid in enumerate(sorted(cells_per_pid)))
    return tuple(by_index[index] for index in range(len(payloads))), stats
