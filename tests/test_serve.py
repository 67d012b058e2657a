"""Live asyncio serving front-end tests.

Covers the JSON-lines protocol, streamed completions, the recorded
trace -> offline replay parity contract, and the degenerate live
streams the server must survive cleanly: client disconnect
mid-request, zero submissions before shutdown, malformed ops.
"""

import asyncio
import json
import math

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.serve import LiveServer, ServeConfig
from repro.sim import ServingEngine, ServingSimulator


@pytest.fixture(scope="module")
def setup():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512, Stage.RETRIEVAL: 64},
    )
    return pm, schedule


def _engine(setup):
    pm, schedule = setup
    return ServingEngine(pm, schedule)


_FAST = dict(port=0, time_scale=500.0, tick=0.005,
             slo_ttft=5.0, slo_tpot=0.5)


async def _lines_until(reader, op, collected=None):
    """Read protocol lines until one with the given op arrives."""
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        assert line, f"connection closed while waiting for {op!r}"
        message = json.loads(line)
        if collected is not None:
            collected.append(message)
        if message["op"] == op:
            return message


def test_live_session_records_trace_and_replays_identically(setup):
    """Acceptance: the live server's final report equals an offline
    replay of the trace it recorded."""
    pm, schedule = setup

    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        for index in range(25):
            writer.write(json.dumps(
                {"op": "submit", "id": index,
                 "decode_len": 64}).encode() + b"\n")
        await writer.drain()
        acks = []
        for _ in range(25):
            await _lines_until(reader, "ack", acks)
        report = await server.shutdown()
        writer.close()
        return server, report, acks

    server, report, acks = asyncio.run(scenario())
    assert report is not None
    assert report.scenario == "live"
    assert report.offered == report.completed == 25
    assert [ack["request_id"] for ack in acks] == list(range(25))

    trace = server.trace
    assert trace is not None
    assert trace.num_requests == 25
    assert trace.decode_lens == (64,) * 25
    assert trace.metadata["scenario"] == "live"

    offline = ServingSimulator(pm, schedule).run(
        trace, slo=ServeConfig(**_FAST).slo)
    assert offline == report  # aggregate equality, bit for bit


def test_completions_stream_with_ttft_and_slo_verdict(setup):
    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "submit", "id": "only", "decode_len": 32}\n')
        await writer.drain()
        seen = []
        completion = await _lines_until(reader, "completion", seen)
        await server.shutdown()
        writer.close()
        return seen, completion

    seen, completion = asyncio.run(scenario())
    assert seen[0]["op"] == "ack"
    assert completion["id"] == "only"
    assert completion["ttft"] > 0
    assert completion["tpot"] > 0
    assert completion["slo"] == {"ttft": True, "tpot": True, "joint": True}


def test_zero_submissions_shutdown_is_clean(setup):
    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))
        await server.start()
        return await server.shutdown()

    report = asyncio.run(scenario())
    assert report is None  # a clean empty session, not a crash


def test_client_disconnect_mid_request_still_counts(setup):
    """A vanished client's in-flight requests finish inside the DES and
    land in the final report."""
    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "submit", "id": "doomed"}\n')
        await writer.drain()
        await _lines_until(reader, "ack")
        writer.close()  # hang up before the completion arrives
        await writer.wait_closed()
        await asyncio.sleep(0.05)  # let the server observe the EOF
        return await server.shutdown()

    report = asyncio.run(scenario())
    assert report is not None
    assert report.offered == report.completed == 1


def test_malformed_ops_answer_errors_without_dropping(setup):
    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        responses = []
        for line in (b"not json\n",
                     b'[1, 2, 3]\n',
                     b'{"op": "bogus"}\n',
                     b'{"op": "submit", "decode_len": "many"}\n',
                     b'{"op": "submit", "decode_len": -5}\n',
                     b'{"op": "submit", "decode_len": true}\n'):
            writer.write(line)
            await writer.drain()
            responses.append(await _lines_until(reader, "error"))
        # The connection survives all of it.
        writer.write(b'{"op": "submit", "id": "ok"}\n')
        await writer.drain()
        ack = await _lines_until(reader, "ack")
        await server.shutdown()
        writer.close()
        return responses, ack

    responses, ack = asyncio.run(scenario())
    assert all(resp["op"] == "error" for resp in responses)
    assert "decode lengths must be positive" in responses[4]["error"]
    # A JSON bool is not a 1-token request.
    assert "decode_len must be an integer" in responses[5]["error"]
    assert ack["id"] == "ok"


@pytest.mark.parametrize("line", [
    b'{"op": "\xff"}\n',
    b"[" * 100_000 + b"]" * 100_000 + b"\n",
    b'{"op": "submit", "decode_len": ' + b"1" * 5000 + b"}\n",
], ids=["non-utf8", "deep", "big-int"])
def test_hostile_json_line_answers_an_error_op(setup, line):
    """Regression: these lines escaped the JSON decode and killed the
    connection handler; each must answer one error op instead."""
    server = LiveServer(_engine(setup), ServeConfig(**_FAST))
    response = server._dispatch_op(line, None)
    assert response["op"] == "error"
    assert response["error"].startswith("invalid JSON: ")


def test_shutdown_op_streams_final_report_to_requester(setup):
    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))

        async def client(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "submit", "id": 0, "decode_len": 32}\n')
            writer.write(b'{"op": "stats"}\n')
            writer.write(b'{"op": "shutdown"}\n')
            await writer.drain()
            collected = []
            report_line = await _lines_until(reader, "report", collected)
            writer.close()
            return collected, report_line

        started = asyncio.Event()
        results = {}

        async def run_server():
            report = await server.run(
                ready=lambda host, port: (results.update(addr=(host, port))
                                          or started.set()))
            results["report"] = report

        server_task = asyncio.ensure_future(run_server())
        await started.wait()
        collected, report_line = await client(*results["addr"])
        await server_task
        return results["report"], collected, report_line

    report, collected, report_line = asyncio.run(scenario())
    assert report is not None and report.completed == 1
    assert report_line["report"]["kind"] == "serving_report"
    assert report_line["report"]["spec"]["completed"] == 1
    ops = [message["op"] for message in collected]
    assert "ack" in ops and "stats" in ops and "completion" in ops


def test_stats_op_reports_running_counts(setup):
    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        for index in range(5):
            writer.write(json.dumps(
                {"op": "submit", "id": index,
                 "decode_len": 64}).encode() + b"\n")
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        stats = await _lines_until(reader, "stats")
        await server.shutdown()
        writer.close()
        return stats

    stats = asyncio.run(scenario())
    assert stats["offered"] == 5
    assert 0 <= stats["completed"] <= 5
    assert stats["in_flight"] == stats["offered"] - stats["completed"]


def test_degenerate_session_keeps_trace_without_report(setup):
    """A session whose requests never complete (full-batch policy,
    partial batch) shuts down cleanly: no report, but the observed
    trace survives for offline study."""
    pm, schedule = setup

    async def scenario():
        engine = ServingEngine(pm, schedule, dispatch="full-batch")
        server = LiveServer(engine, ServeConfig(**_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "submit", "id": 0, "decode_len": 32}\n')
        await writer.drain()
        await _lines_until(reader, "ack")
        report = await server.shutdown()
        writer.close()
        return server, report

    server, report = asyncio.run(scenario())
    assert report is None
    assert server.trace is not None
    assert server.trace.num_requests == 1


def test_pump_failure_surfaces_instead_of_hanging(setup):
    """An engine error inside the pump must end the session and
    re-raise from shutdown, not die silently while submits keep
    acking."""
    async def scenario():
        engine = _engine(setup)
        server = LiveServer(engine, ServeConfig(**_FAST))
        await server.start()

        def boom(until):
            raise ConfigError("engine blew up")

        engine.step = boom
        await asyncio.wait_for(server._shutdown_event.wait(), timeout=10)
        with pytest.raises(ConfigError, match="engine blew up"):
            await server.shutdown()

    asyncio.run(scenario())


def test_server_requires_fresh_engine(setup):
    engine = _engine(setup)
    engine.submit(0.0)
    with pytest.raises(ConfigError):
        LiveServer(engine)


def test_serve_config_validation():
    with pytest.raises(ConfigError):
        ServeConfig(tick=0.0)
    with pytest.raises(ConfigError):
        ServeConfig(time_scale=-1.0)
    # Regression: NaN/inf passed the ``<= 0`` checks; a NaN tick hung
    # the pump and a NaN time scale made the simulated clock NaN.
    for name in ("tick", "time_scale"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite and positive"):
                ServeConfig(**{name: value})
    with pytest.raises(ConfigError):
        ServeConfig(port=70000)
    with pytest.raises(ConfigError):
        ServeConfig(host="")
    with pytest.raises(ConfigError):
        ServeConfig(default_decode_len=0)
    with pytest.raises(ConfigError):
        ServeConfig(slo_ttft=-0.1)
    with pytest.raises(ConfigError):
        ServeConfig(replicas=0)
    with pytest.raises(ConfigError):
        ServeConfig(routing="bogus")
    # Regression: fractional, bool and NaN integers were accepted, and
    # a fractional replica count died later with a TypeError.
    for name, value in (("replicas", 2.5), ("replicas", True),
                        ("port", True), ("port", 80.0),
                        ("default_decode_len", math.nan),
                        ("default_decode_len", True),
                        ("default_decode_len", 2.5)):
        with pytest.raises(ConfigError,
                           match=f"^{name} must be an integer, got "):
            ServeConfig(**{name: value})
    assert ServeConfig(default_decode_len=None).default_decode_len is None


def test_serve_config_envelope_roundtrip():
    from repro import config

    original = ServeConfig(host="0.0.0.0", port=8707, tick=0.1,
                           time_scale=25.0, slo_ttft=0.2, slo_tpot=0.01,
                           default_decode_len=128, replicas=4,
                           routing="least-in-flight")
    assert config.from_config(config.to_config(original)) == original
    with pytest.raises(ConfigError):
        config.serve_config_from_dict({"bogus_knob": 1})


def test_live_server_over_fleet_engine(setup):
    """A FleetEngine behind the live front-end: the identical protocol
    serves N replicas, stats gains a per-replica section, and the
    merged report covers every request."""
    from repro.sim import FleetEngine

    pm, schedule = setup

    async def scenario():
        fleet = FleetEngine(pm, schedule, replicas=3,
                            routing="round-robin")
        server = LiveServer(fleet, ServeConfig(replicas=3, **_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        for index in range(30):
            writer.write(json.dumps(
                {"op": "submit", "id": index,
                 "decode_len": 64}).encode() + b"\n")
        await writer.drain()
        collected = []
        while sum(m["op"] == "completion" for m in collected) < 30:
            await _lines_until(reader, "completion", collected)
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        stats = await _lines_until(reader, "stats")
        report = await server.shutdown()
        writer.close()
        return fleet, stats, report, collected

    fleet, stats, report, collected = asyncio.run(scenario())
    assert report is not None
    assert report.offered == report.completed == 30
    assert stats["offered"] == 30
    assert [row["slot"] for row in stats["replicas"]] == [0, 1, 2]
    assert sum(row["offered"] for row in stats["replicas"]) == 30
    per_replica = [s["completed"] for s in fleet.replica_stats()]
    assert sum(per_replica) == 30
    assert per_replica == [10, 10, 10]  # round robin splits exactly
    # Every completion streams back exactly once, keyed by the
    # fleet-global request id (per-replica ids would collide in the
    # route table and drop 2 of every 3 completions).
    acks = {m["id"]: m["request_id"] for m in collected
            if m["op"] == "ack"}
    completions = [m for m in collected if m["op"] == "completion"]
    assert len(completions) == 30
    assert sorted(m["request_id"] for m in completions) == list(range(30))
    assert sorted(acks.values()) == list(range(30))
    for message in completions:
        assert acks[message["id"]] == message["request_id"]
    # The recorded trace replays -- through an identical fleet -- to
    # the same merged report (the live/offline parity contract, fleet
    # edition; a single-engine replay of a 3-replica session would
    # rightly differ).
    replay = FleetEngine(pm, schedule, replicas=3, routing="round-robin")
    trace = fleet.recorded_trace(time_scale=_FAST["time_scale"])
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        replay.submit(arrival, decode_len=decode_len)
    replay.drain()
    assert replay.report(trace, slo=ServeConfig(**_FAST).slo) == report


def test_completions_stream_across_pump_windows(setup):
    """Regression: the flush used to rebind the completion list,
    orphaning the engine's listener (a bound ``append`` of the old
    list) -- every completion after the first pump window was
    silently dropped instead of streaming."""
    async def scenario():
        server = LiveServer(_engine(setup), ServeConfig(**_FAST))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        collected = []
        for batch in range(3):
            for index in range(5):
                writer.write(json.dumps(
                    {"op": "submit", "id": f"b{batch}-{index}",
                     "decode_len": 64}).encode() + b"\n")
            await writer.drain()
            # Wait this batch's completions out before the next, so
            # each batch crosses a separate flush cycle.
            while sum(m["op"] == "completion" for m in collected) \
                    < 5 * (batch + 1):
                await _lines_until(reader, "completion", collected)
        report = await server.shutdown()
        writer.close()
        return report, collected

    report, collected = asyncio.run(scenario())
    assert report.offered == report.completed == 15
    assert sum(m["op"] == "completion" for m in collected) == 15


def test_live_server_with_autoscaler(setup):
    """An autoscaled fleet behind the live front-end: stats gains the
    autoscale section and the zero-loss invariant holds through
    whatever scaling the pump's control loop performed."""
    from repro.sim import Autoscaler, AutoscaleConfig, FleetEngine

    pm, schedule = setup
    config = AutoscaleConfig(policy="queue-depth", min_replicas=1,
                             max_replicas=3, interval=0.1,
                             cooldown=0.2, scale_up=4.0,
                             scale_down=1.0)

    async def scenario():
        fleet = FleetEngine(pm, schedule, replicas=1)
        autoscaler = Autoscaler(fleet, config,
                                slo=ServeConfig(**_FAST).slo)
        server = LiveServer(fleet, ServeConfig(autoscale=config,
                                               **_FAST),
                            autoscaler=autoscaler)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        for index in range(40):
            writer.write(json.dumps(
                {"op": "submit", "id": index,
                 "decode_len": 64}).encode() + b"\n")
        await writer.drain()
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        stats = await _lines_until(reader, "stats")
        report = await server.shutdown()
        writer.close()
        return fleet, autoscaler, stats, report

    fleet, autoscaler, stats, report = asyncio.run(scenario())
    scale = stats["autoscale"]
    assert scale["policy"] == "queue-depth"
    assert scale["min_replicas"] == 1 and scale["max_replicas"] == 3
    assert 1 <= scale["replicas"] <= 3
    assert report is not None
    assert report.offered == report.completed == 40
    # Zero loss across whatever scale events the pump triggered.
    assert sum(row["completed"] for row in fleet.replica_stats()) == 40
    assert autoscaler.replica_seconds > 0.0


def test_live_server_rejects_foreign_autoscaler(setup):
    from repro.sim import Autoscaler, AutoscaleConfig, FleetEngine

    pm, schedule = setup
    fleet = FleetEngine(pm, schedule, replicas=1)
    other = FleetEngine(pm, schedule, replicas=1)
    autoscaler = Autoscaler(other, AutoscaleConfig())
    with pytest.raises(ConfigError, match="must control"):
        LiveServer(fleet, ServeConfig(**_FAST), autoscaler=autoscaler)
