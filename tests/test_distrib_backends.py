"""The distributed sweep executor: backend parity, the work-stealing
coordinator's fault handling, and the wire protocol.

The parity pins are the load-bearing tests: every backend must produce
the *same* result object -- error cells included, row order included --
because callers treat the backend as an execution detail, never a
semantic knob.
"""

import asyncio

import pytest

from repro.distrib import (
    ProcessBackend,
    SerialBackend,
    SocketsBackend,
    SweepJob,
    TaskSpec,
    resolve_sweep_backend,
)
from repro.distrib.coordinator import SweepCoordinator
from repro.distrib.protocol import (
    TASK_RUNNERS,
    decode_line,
    decode_result,
    encode_line,
    error_outcome,
    ok_outcome,
    register_task_runner,
    resolve_task_runner,
)
from repro.errors import ConfigError, DistribError
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
# backend parity: serial / process / sockets are the same computation
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
    via_sockets = run_whatif(session.schema, session.cluster, trace,
                             grid, slo,
                             backend=SocketsBackend(workers=2))
    # Dataclass equality covers metrics, error strings, and row order.
    assert via_process == oracle
    assert via_sockets == oracle
    knobs = [(cell.replicas, cell.autoscale) for cell in oracle.cells]
    assert knobs == [(cell.replicas, cell.autoscale)
                     for cell in via_sockets.cells]


def test_sweep_backend_parity(study):
    session, _, _, _ = study
    from repro.rago.search import SearchConfig

    search = SearchConfig(max_batch=32, max_decode_batch=128)
    schemas = [case_i_hyperscale("1B"), case_i_hyperscale("8B")]
    serial = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER) \
        .sweep(schemas=schemas, search=search, backend="serial")
    sockets = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER) \
        .sweep(schemas=schemas, search=search,
               backend=SocketsBackend(workers=2))
    assert sockets.rows == serial.rows
    assert [cell.result for cell in sockets.cells] \
        == [cell.result for cell in serial.cells]


# ---------------------------------------------------------------------------
# fault handling: worker death mid-grid
# ---------------------------------------------------------------------------


def test_sockets_survives_worker_death_mid_grid(study):
    session, schedules, trace, slo = study
    grid = WhatIfGrid(schedules=schedules, replicas=(1, 2, 3))
    oracle = run_whatif(session.schema, session.cluster, trace, grid,
                        slo, backend=SerialBackend())
    chaos = run_whatif(session.schema, session.cluster, trace, grid,
                       slo,
                       backend=SocketsBackend(workers=2, die_after=1))
    assert chaos == oracle
    stats = {row["worker"]: row for row in chaos.workers}
    assert stats["worker-0"]["cells"] <= 1
    assert stats["worker-1"]["cells"] >= grid.num_cells - 1


def test_sockets_dead_fleet_raises(study):
    session, schedules, trace, slo = study
    grid = WhatIfGrid(schedules=schedules[:1], replicas=(1, 2, 3))
    with pytest.raises(DistribError, match="outstanding"):
        run_whatif(session.schema, session.cluster, trace, grid, slo,
                   backend=SocketsBackend(workers=1, die_after=1))


# ---------------------------------------------------------------------------
# the coordinator protocol, driven by hand-rolled socket workers
# ---------------------------------------------------------------------------


class _Worker:
    """A scripted protocol client (what repro.distrib.worker speaks)."""

    def __init__(self, name):
        self.name = name
        self.writer = None

    async def connect(self, host, port):
        self.reader, self.writer = await asyncio.open_connection(
            host, port)
        await self.send({"op": "hello", "worker": self.name})
        task = await self.recv()
        assert task["op"] == "task"
        return task

    async def send(self, payload):
        self.writer.write(encode_line(payload))
        await self.writer.drain()

    async def recv(self):
        return decode_line(await self.reader.readline())

    async def ask(self):
        await self.send({"op": "next"})
        return await self.recv()

    async def answer(self, index, outcome):
        await self.send({"op": "result", "index": index,
                         "outcome": outcome})

    async def close(self):
        if self.writer is None:
            return
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def test_coordinator_duplicate_dispatch_first_result_wins():
    async def scenario():
        jobs = [SweepJob(index=0, payload={"cell": 0}),
                SweepJob(index=1, payload={"cell": 1})]
        coordinator = SweepCoordinator(
            TaskSpec(kind="whatif", context={}), jobs)
        host, port = await coordinator.start()
        fast, slow = _Worker("fast"), _Worker("slow")
        try:
            task = await fast.connect(host, port)
            assert task["kind"] == "whatif"
            await slow.connect(host, port)
            cell0 = await fast.ask()
            cell1 = await slow.ask()
            assert (cell0["index"], cell1["index"]) == (0, 1)
            await fast.answer(0, ok_outcome({"value": "zero"}))
            # The deque is dry but cell 1 is in flight elsewhere: the
            # fast worker is handed a duplicate of it.
            duplicate = await fast.ask()
            assert duplicate["index"] == 1
            assert duplicate["payload"] == {"cell": 1}
            await fast.answer(1, ok_outcome({"value": "fast"}))
            assert (await fast.ask())["op"] == "done"
            # The slow worker's late duplicate is ignored.
            await slow.answer(1, ok_outcome({"value": "late"}))
            assert (await slow.ask())["op"] == "done"
        finally:
            await fast.close()
            await slow.close()
            await coordinator.close()
        return coordinator

    coordinator = asyncio.run(scenario())
    assert coordinator.complete
    outcomes = coordinator.outcome_map()
    assert outcomes[1] == ok_outcome({"value": "fast"})
    stats = {row["worker"]: row for row in coordinator.worker_stats()}
    assert stats["fast"]["cells"] == 2
    assert stats["fast"]["duplicates"] == 1
    assert stats["slow"]["cells"] == 0


def test_coordinator_requeues_dead_workers_cell():
    async def scenario():
        jobs = [SweepJob(index=0, payload={"cell": 0}),
                SweepJob(index=1, payload={"cell": 1})]
        coordinator = SweepCoordinator(
            TaskSpec(kind="whatif", context={}), jobs)
        host, port = await coordinator.start()
        doomed, survivor = _Worker("doomed"), _Worker("survivor")
        try:
            await doomed.connect(host, port)
            assert (await doomed.ask())["index"] == 0
            # Die without answering: cell 0 must requeue at the head.
            await doomed.close()
            await asyncio.sleep(0.05)
            await survivor.connect(host, port)
            first = await survivor.ask()
            assert first["index"] == 0
            await survivor.answer(0, ok_outcome({"value": 0}))
            second = await survivor.ask()
            assert second["index"] == 1
            await survivor.answer(1, error_outcome(ValueError("nope")))
            assert (await survivor.ask())["op"] == "done"
        finally:
            await survivor.close()
            await coordinator.close()
        return coordinator

    coordinator = asyncio.run(scenario())
    assert coordinator.complete
    assert coordinator.outcome_map()[1] \
        == {"result": None, "error": "ValueError: nope"}
    stats = {row["worker"]: row for row in coordinator.worker_stats()}
    assert stats["doomed"]["requeued"] == 1
    assert stats["doomed"]["cells"] == 0
    assert stats["survivor"]["cells"] == 2


@pytest.mark.parametrize("message", [
    {"op": "result", "index": 0, "outcome": "not an outcome"},
    {"op": "result", "index": [0], "outcome": ok_outcome("rogue")},
    {"op": "result", "index": 0.9, "outcome": ok_outcome("rogue")},
], ids=["outcome-not-a-dict", "index-a-list", "index-a-float"])
def test_coordinator_forfeits_a_malformed_result(message):
    """A malformed ``result`` is a protocol violation: the coordinator
    hangs up on the sender without an unhandled exception and requeues
    its cell, which an honest worker then resolves."""
    async def scenario():
        handler_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: handler_errors.append(context))
        coordinator = SweepCoordinator(
            TaskSpec(kind="whatif", context={}),
            [SweepJob(index=0, payload={"cell": 0})])
        host, port = await coordinator.start()
        rogue, honest = _Worker("rogue"), _Worker("honest")
        try:
            await rogue.connect(host, port)
            assert (await rogue.ask())["index"] == 0
            await rogue.send(message)
            # The coordinator hangs up instead of waiting for more.
            assert await asyncio.wait_for(rogue.reader.readline(), 5) \
                == b""
            await honest.connect(host, port)
            assert (await honest.ask())["index"] == 0
            await honest.answer(0, ok_outcome("honest"))
            assert (await honest.ask())["op"] == "done"
        finally:
            await rogue.close()
            await honest.close()
            await coordinator.close()
        return coordinator, handler_errors

    coordinator, handler_errors = asyncio.run(scenario())
    assert handler_errors == []
    assert coordinator.outcome_map() == {0: ok_outcome("honest")}
    stats = {row["worker"]: row for row in coordinator.worker_stats()}
    assert (stats["rogue"]["cells"], stats["rogue"]["requeued"]) == (0, 1)


@pytest.mark.parametrize("message", [
    {"index": 0},
    {"index": True, "outcome": ok_outcome(1)},
    {"index": "0", "outcome": ok_outcome(1)},
    {"index": 0, "outcome": {"result": 1}},
    {"index": 0, "outcome": {"result": 1, "error": None, "extra": 2}},
    {"index": 0, "outcome": {"result": None, "error": None}},
    {"index": 0, "outcome": {"result": 1, "error": "boom"}},
    {"index": 0, "outcome": {"result": None, "error": 7}},
], ids=["no-outcome", "bool-index", "str-index", "missing-key",
        "extra-key", "neither", "both", "non-str-error"])
def test_decode_result_rejects_malformed_messages(message):
    with pytest.raises(DistribError):
        decode_result(message)


def test_decode_result_accepts_runner_outcomes():
    for outcome in (ok_outcome({"qps": 1.0}), ok_outcome(0),
                    error_outcome(ValueError("nope"))):
        assert decode_result({"op": "result", "index": 3,
                              "outcome": outcome}) == (3, outcome)


def test_coordinator_rejects_duplicate_job_indices():
    jobs = [SweepJob(index=3, payload={}), SweepJob(index=3, payload={})]
    with pytest.raises(DistribError, match="unique"):
        SweepCoordinator(TaskSpec(kind="whatif"), jobs)


# ---------------------------------------------------------------------------
# chunk planning, registries, wire helpers
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
    assert isinstance(resolve_sweep_backend("sockets", workers=2),
                      SocketsBackend)
    passthrough = SerialBackend()
    assert resolve_sweep_backend(passthrough, workers=9) is passthrough
    with pytest.raises(ConfigError, match="serial"):
        resolve_sweep_backend("carrier-pigeon")
    with pytest.raises(ConfigError):
        ProcessBackend(workers=0)
    with pytest.raises(ConfigError):
        SocketsBackend(workers=0)


@pytest.mark.parametrize("line", [
    b'{"op": "\xff"}\n',
    b"[" * 100_000 + b"]" * 100_000 + b"\n",
    b'{"op": "cell", "index": ' + b"1" * 5000 + b"}\n",
], ids=["non-utf8", "deep", "big-int"])
def test_decode_line_rejects_hostile_json(line):
    """Every undecodable line is one DistribError, never a
    RecursionError or a bare ValueError."""
    with pytest.raises(DistribError, match="malformed protocol line"):
        decode_line(line)


def test_task_runner_registry_contract():
    assert {"search", "whatif"} <= set(TASK_RUNNERS)
    with pytest.raises(ConfigError, match="duplicate"):
        register_task_runner("whatif")(lambda context: None)
    with pytest.raises(ConfigError, match="whatif"):
        resolve_task_runner("no-such-kind")


def test_wire_helpers_round_trip_and_reject_garbage():
    payload = {"op": "cell", "index": 4, "payload": {"a": [1, 2]}}
    line = encode_line(payload)
    assert line.endswith(b"\n")
    assert decode_line(line) == payload
    with pytest.raises(DistribError, match="malformed"):
        decode_line(b"{not json\n")
    with pytest.raises(DistribError, match="objects"):
        decode_line(b"[1,2]\n")
    assert ok_outcome(5) == {"result": 5, "error": None}
    assert error_outcome(KeyError("x")) \
        == {"result": None, "error": "KeyError: 'x'"}


def test_serial_backend_empty_jobs():
    run = SerialBackend().run(TaskSpec(kind="whatif", context={}), [])
    assert run.outcomes == () and run.workers == ()
