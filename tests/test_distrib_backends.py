"""The sweep executor: serial/process backend parity, the process
pool's fail-fast on a dead worker, and the task-runner contract.

The parity pins are the load-bearing tests: both backends must produce
the *same* result object -- error cells included, row order included --
because callers treat the backend as an execution detail, never a
semantic knob.
"""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.distrib import (
    ProcessBackend,
    SerialBackend,
    TaskSpec,
    resolve_sweep_backend,
)
from repro.distrib.protocol import (
    TASK_RUNNERS,
    error_outcome,
    ok_outcome,
    register_task_runner,
    resolve_task_runner,
)
from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.rago.whatif import WhatIfGrid, run_whatif
from repro.schema import case_i_hyperscale
from repro.sim.metrics import SLOTarget
from repro.workloads.traces import poisson_trace

_CLUSTER = ClusterSpec(num_servers=16)


@pytest.fixture(scope="module")
def study():
    """One small what-if study shared by the backend tests."""
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    frontier = session.optimize().frontier
    schedules = tuple(perf.schedule for perf in frontier[:2])
    trace = poisson_trace(2.0, 6.0, seed=7)
    slo = SLOTarget(ttft=5.0, tpot=0.5)
    return session, schedules, trace, slo


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
                        slo, backend=SerialBackend())
    assert len(oracle.errors) == 2
    assert all("bogus" in cell.error for cell in oracle.errors)
    via_process = run_whatif(session.schema, session.cluster, trace,
                             grid, slo,
                             backend=ProcessBackend(workers=2))
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
        .sweep(schemas=schemas, search=search,
               backend=ProcessBackend(workers=2))
    assert pooled.rows == serial.rows
    assert [cell.result for cell in pooled.cells] \
        == [cell.result for cell in serial.cells]


# ---------------------------------------------------------------------------
# fault handling: a pool worker dies mid-grid
# ---------------------------------------------------------------------------

#: Registers a runner whose third cell kills its worker process, then
#: runs a six-cell grid on a two-worker pool.
_DYING_SWEEP = textwrap.dedent("""\
    import os

    from repro.distrib import ProcessBackend, SweepJob, TaskSpec
    from repro.distrib.protocol import ok_outcome, register_task_runner
    from repro.errors import DistribError

    @register_task_runner("dies-on-cell-2")
    def dying_runner(context):
        def run(payload):
            if payload["cell"] == 2:
                os._exit(1)
            return ok_outcome(payload["cell"])
        return run

    jobs = [SweepJob(index=i, payload={"cell": i}) for i in range(6)]
    try:
        ProcessBackend(workers=2).run(TaskSpec(kind="dies-on-cell-2"),
                                      jobs)
    except DistribError as error:
        print(f"DistribError: {error}")
""")


def test_process_backend_fails_fast_when_a_worker_dies(tmp_path):
    """Regression: a dead pool worker took its chunk with it and the
    sweep waited for that chunk forever. A fresh interpreter keeps the
    dying runner out of this process's registry."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    started = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", _DYING_SWEEP],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=60)
    elapsed = time.perf_counter() - started
    assert run.returncode == 0, run.stderr
    line, = run.stdout.splitlines()
    prefix = "DistribError: a sweep worker process died with "
    assert line.startswith(prefix)
    assert line.endswith(" cell(s) outstanding")
    assert 1 <= int(line[len(prefix):].split()[0]) <= 6
    assert elapsed < 30


# ---------------------------------------------------------------------------
# chunk planning, registries, outcome helpers
# ---------------------------------------------------------------------------


def test_guided_chunks_cover_the_grid_and_shrink():
    sizes = ProcessBackend.plan_chunks(64, 4)
    assert sum(sizes) == 64
    assert sizes[0] == 8
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] == 1
    assert ProcessBackend.plan_chunks(1, 4) == [1]


def test_resolve_sweep_backend_defaults_names_and_instances():
    assert isinstance(resolve_sweep_backend(None, workers=1),
                      SerialBackend)
    auto = resolve_sweep_backend(None, workers=3)
    assert isinstance(auto, ProcessBackend) and auto.workers == 3
    named = resolve_sweep_backend("process", workers=2)
    assert isinstance(named, ProcessBackend) and named.workers == 2
    passthrough = SerialBackend()
    assert resolve_sweep_backend(passthrough, workers=9) is passthrough
    with pytest.raises(ConfigError, match="serial"):
        resolve_sweep_backend("carrier-pigeon")
    with pytest.raises(ConfigError):
        ProcessBackend(workers=0)


def test_task_runner_registry_contract():
    assert {"search", "whatif"} <= set(TASK_RUNNERS)
    with pytest.raises(ConfigError, match="duplicate"):
        register_task_runner("whatif")(lambda context: None)
    with pytest.raises(ConfigError, match="whatif"):
        resolve_task_runner("no-such-kind")


def test_outcome_helpers():
    assert ok_outcome(5) == {"result": 5, "error": None}
    assert error_outcome(KeyError("x")) \
        == {"result": None, "error": "KeyError: 'x'"}


def test_serial_backend_empty_jobs():
    run = SerialBackend().run(TaskSpec(kind="whatif", context={}), [])
    assert run.outcomes == () and run.workers == ()
