"""The cell executor: serial/process parity, the process pool's
fail-fast on a dead worker under each start method, and
:func:`~repro.distrib.run_cells`' backend selection.

The parity pins are the load-bearing tests: both backends must produce
the *same* result object -- error cells included, row order included --
because callers treat the backend as an execution detail, never a
semantic knob.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.distrib import (
    BACKENDS,
    _plan_chunks,
    error_outcome,
    ok_outcome,
    run_cells,
)
from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.rago.whatif import WhatIfGrid, run_whatif, whatif_runner
from repro.schema import case_i_hyperscale
from repro.sim.metrics import SLOTarget
from repro.workloads.traces import poisson_trace

_CLUSTER = ClusterSpec(num_servers=16)

#: The pool start methods the child-process tests run under: Linux's
#: default before Python 3.14 and its default from 3.14 on.
_START_METHODS = [method for method in ("fork", "forkserver")
                  if method in multiprocessing.get_all_start_methods()]


@pytest.fixture(scope="module")
def study():
    """One small what-if study shared by the backend tests."""
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    frontier = session.optimize().frontier
    schedules = tuple(perf.schedule for perf in frontier[:2])
    trace = poisson_trace(2.0, 6.0, seed=7)
    slo = SLOTarget(ttft=5.0, tpot=0.5)
    return session, schedules, trace, slo


def _echo_runner(context):
    """A module-level factory the pool can pickle by reference."""
    def run(payload):
        return ok_outcome(payload["cell"] + context.get("offset", 0))
    return run


# ---------------------------------------------------------------------------
# backend parity: serial and process are the same computation
# ---------------------------------------------------------------------------


def test_backend_parity_including_error_cells(study):
    session, schedules, trace, slo = study
    # The bogus autoscale spec makes one cell per schedule infeasible:
    # parity must hold for error rows exactly like metric rows.
    grid = WhatIfGrid(schedules=schedules, replicas=(1, 2),
                      autoscale=(None, "policy=bogus,min=1,max=2"))
    assert grid.num_cells == 6
    oracle = run_whatif(session.schema, session.cluster, trace, grid,
                        slo, backend="serial")
    assert len(oracle.errors) == 2
    assert all("bogus" in cell.error for cell in oracle.errors)
    via_process = run_whatif(session.schema, session.cluster, trace,
                             grid, slo, backend="process", workers=2)
    # Dataclass equality covers metrics, error strings, and row order.
    assert via_process == oracle
    knobs = [(cell.replicas, cell.autoscale) for cell in oracle.cells]
    assert knobs == [(cell.replicas, cell.autoscale)
                     for cell in via_process.cells]


def test_sweep_backend_parity(study):
    session, _, _, _ = study
    from repro.rago.search import SearchConfig

    search = SearchConfig(max_batch=32, max_decode_batch=128)
    schemas = [case_i_hyperscale("1B"), case_i_hyperscale("8B")]
    serial = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER) \
        .sweep(schemas=schemas, search=search, backend="serial")
    pooled = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER) \
        .sweep(schemas=schemas, search=search, backend="process",
               workers=2)
    assert pooled.rows == serial.rows
    assert [cell.result for cell in pooled.cells] \
        == [cell.result for cell in serial.cells]


# ---------------------------------------------------------------------------
# the pool under each start method, in fresh interpreters
# ---------------------------------------------------------------------------

#: A cell factory whose third cell kills its worker process. It lives
#: in its own module, so pool workers import it under any start method.
_DYING_CELLS = textwrap.dedent("""\
    import os

    from repro.distrib import ok_outcome


    def dying_runner(context):
        def run(payload):
            if payload["cell"] == 2:
                os._exit(1)
            return ok_outcome(payload["cell"])
        return run
""")

#: Runs a six-cell grid of dying_runner on a two-worker pool.
_DYING_SWEEP = textwrap.dedent("""\
    import multiprocessing
    import sys

    from dying_cells import dying_runner
    from repro.distrib import run_cells
    from repro.errors import DistribError

    if __name__ == "__main__":
        multiprocessing.set_start_method(sys.argv[1], force=True)
        try:
            run_cells(dying_runner, {}, [{"cell": i} for i in range(6)],
                      backend="process", workers=2)
        except DistribError as error:
            print(f"DistribError: {error}")
""")

#: Runs one small what-if grid serially and on a two-worker pool.
_WHATIF_PARITY = textwrap.dedent("""\
    import multiprocessing
    import sys

    from repro.hardware.cluster import ClusterSpec
    from repro.rago.session import OptimizerSession
    from repro.rago.whatif import WhatIfGrid, run_whatif
    from repro.schema import case_i_hyperscale
    from repro.sim.metrics import SLOTarget
    from repro.workloads.traces import poisson_trace

    if __name__ == "__main__":
        multiprocessing.set_start_method(sys.argv[1], force=True)
        session = OptimizerSession(case_i_hyperscale("1B"),
                                   ClusterSpec(num_servers=16))
        schedules = tuple(perf.schedule
                          for perf in session.optimize().frontier[:2])
        grid = WhatIfGrid(schedules=schedules, replicas=(1, 2))
        trace = poisson_trace(2.0, 3.0, seed=7)
        slo = SLOTarget(ttft=5.0, tpot=0.5)
        runs = [run_whatif(session.schema, session.cluster, trace, grid,
                           slo, backend=backend, workers=workers)
                for backend, workers in (("serial", 1), ("process", 2))]
        print(len(runs[0].ok_cells), runs[0] == runs[1],
              sum(row["cells"] for row in runs[1].workers),
              all(row["worker"].startswith("process-")
                  for row in runs[1].workers))
""")


def _run_child(tmp_path, script, start_method):
    """``script`` in a fresh interpreter under ``start_method``, with
    ``src/`` and ``tmp_path`` on ``PYTHONPATH``."""
    src = Path(__file__).resolve().parent.parent / "src"
    (tmp_path / "dying_cells.py").write_text(_DYING_CELLS, encoding="utf-8")
    (tmp_path / "child.py").write_text(script, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(src), str(tmp_path), os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, str(tmp_path / "child.py"), start_method],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def test_process_backend_fails_fast_when_a_worker_dies(tmp_path):
    """Regression: a dead pool worker took its chunk with it and the
    sweep waited for that chunk forever. Each start method imports the
    dying factory's module in its workers."""
    assert _START_METHODS
    for start_method in _START_METHODS:
        started = time.perf_counter()
        run = _run_child(tmp_path, _DYING_SWEEP, start_method)
        elapsed = time.perf_counter() - started
        assert run.returncode == 0, (start_method, run.stderr)
        line, = run.stdout.splitlines()
        prefix = "DistribError: a sweep worker process died with "
        assert line.startswith(prefix), start_method
        assert line.endswith(" cell(s) outstanding")
        assert 1 <= int(line[len(prefix):].split()[0]) <= 6
        assert elapsed < 30, start_method


def test_whatif_parity_under_each_start_method(tmp_path):
    for start_method in _START_METHODS:
        run = _run_child(tmp_path, _WHATIF_PARITY, start_method)
        assert run.returncode == 0, (start_method, run.stderr)
        assert run.stdout.split() == ["4", "True", "4", "True"], \
            start_method


# ---------------------------------------------------------------------------
# chunk planning, backend selection, outcome helpers
# ---------------------------------------------------------------------------


def test_guided_chunks_cover_the_grid_and_shrink():
    sizes = _plan_chunks(64, 4)
    assert sum(sizes) == 64
    assert sizes[0] == 8
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] == 1
    assert _plan_chunks(1, 4) == [1]


def test_run_cells_resolves_backend_names():
    payloads = [{"cell": i} for i in range(3)]
    expected = tuple(ok_outcome(i + 10) for i in range(3))
    context = {"offset": 10}
    # None picks serial for one worker and the pool for more.
    outcomes, workers = run_cells(_echo_runner, context, payloads)
    assert outcomes == expected
    assert workers == ({"worker": "serial", "cells": 3},)
    outcomes, workers = run_cells(_echo_runner, context, payloads,
                                  workers=3)
    assert outcomes == expected
    assert {row["worker"] for row in workers} <= {
        "process-0", "process-1", "process-2"}
    assert sum(row["cells"] for row in workers) == 3
    # A named process backend with one worker still runs the pool.
    outcomes, workers = run_cells(_echo_runner, context, payloads,
                                  backend="process")
    assert outcomes == expected
    assert workers == ({"worker": "process-0", "cells": 3},)


@pytest.mark.parametrize("backend, workers, message", [
    ("carrier-pigeon", 1,
     "unknown sweep backend 'carrier-pigeon'; known: process, serial"),
    ("serial", 4, "the serial backend runs 1 worker, got 4"),
    ("process", 0, "workers must be at least 1"),
])
def test_run_cells_rejects_bad_selections(backend, workers, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        run_cells(_echo_runner, {}, [{"cell": 0}], backend=backend,
                  workers=workers)


def test_outcome_helpers():
    assert ok_outcome(5) == {"result": 5, "error": None}
    assert error_outcome(KeyError("x")) \
        == {"result": None, "error": "KeyError: 'x'"}


def test_serial_backend_empty_jobs():
    """An empty grid runs nothing on either backend: the factory is
    never called (its empty context would fail) and no worker records
    come back."""
    for backend in BACKENDS:
        assert run_cells(whatif_runner, {}, [], backend=backend) == ((), ())
