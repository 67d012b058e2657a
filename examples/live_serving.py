#!/usr/bin/env python3
"""Serve live traffic, then prove the session replays exactly.

``repro replay`` answers "what would this schedule do under that
trace"; ``repro serve`` answers it for traffic that does not exist yet.
This example runs both halves in one process:

1. open an :class:`~repro.rago.session.OptimizerSession`, search, and
   put the knee schedule's :class:`~repro.sim.ServingEngine` behind a
   :class:`~repro.serve.LiveServer` on a loopback port;
2. fire a bursty client at it over the JSON-lines protocol (three
   volleys separated by quiet gaps), streaming per-request TTFT/TPOT
   completions back as the DES emits them;
3. shut down: the server records the observed arrivals as a replayable
   :class:`~repro.workloads.traces.RequestTrace` and emits a final
   :class:`~repro.sim.ServingReport`;
4. replay that recorded trace offline through the same schedule and
   diff the two reports -- they match bit for bit, which is the
   property that makes a live session a reproducible artifact.

The wall clock is fast-forwarded (``time_scale=200``): one real second
is 200 simulated seconds, so the whole study takes well under a minute.

Run:
    python examples/live_serving.py
"""

import asyncio
import json

from repro import ClusterSpec, OptimizerSession, case_i_hyperscale
from repro.reporting import format_live_summary, format_serving_report
from repro.serve import LiveServer, ServeConfig
from repro.sim import ServingEngine

BURSTS = 3
BURST_SIZE = 16
GAP_SECONDS = 0.05  # wall seconds between volleys (x200 simulated)


async def bursty_client(host: str, port: int) -> int:
    """Fire volleys of requests and count streamed completions."""
    reader, writer = await asyncio.open_connection(host, port)
    completions = 0
    for burst in range(BURSTS):
        for index in range(BURST_SIZE):
            writer.write(json.dumps(
                {"op": "submit", "id": f"b{burst}-r{index}",
                 "decode_len": 128}).encode() + b"\n")
        await writer.drain()
        await asyncio.sleep(GAP_SECONDS)
        # Drain whatever has completed while we were quiet.
        try:
            while True:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=0.01)
                if not line:
                    break
                message = json.loads(line)
                if message["op"] == "completion":
                    completions += 1
                    if completions == 1:
                        print(f"first live completion: "
                              f"ttft={message['ttft'] * 1e3:.1f} ms "
                              f"tpot={message['tpot'] * 1e3:.2f} ms "
                              f"slo={message['slo']}")
        except asyncio.TimeoutError:
            pass
    writer.close()
    return completions


async def main() -> None:
    session = OptimizerSession(case_i_hyperscale("8B"),
                               ClusterSpec(num_servers=16))
    knee = session.with_objective("knee").best().schedule
    engine = ServingEngine(session.perf_model, knee)
    print("serving the knee schedule of the searched frontier:")
    print(f"  {engine.schedule.describe()}")

    config = ServeConfig(port=0, time_scale=200.0, tick=0.005,
                         slo_ttft=1.0, slo_tpot=0.01)
    server = LiveServer(engine, config)
    host, port = await server.start()
    print(f"live on {host}:{port} "
          f"(x{config.time_scale:g} fast-forward)\n")

    streamed = await bursty_client(host, port)
    live_report = await server.shutdown()
    print(f"client streamed {streamed} completions before shutdown; "
          f"the rest flushed at drain")
    print()
    print(format_live_summary(server.snapshot()))
    print()
    print("=== what the live server emitted " + "=" * 27)
    print(format_serving_report(live_report))

    # The recorded trace is a first-class artifact: replay it offline
    # through the same schedule and the report reproduces exactly.
    offline_report = session.evaluate_trace(engine.schedule, server.trace,
                                            slo=config.slo)
    print()
    print("=== offline replay of the recorded trace " + "=" * 19)
    print(format_serving_report(offline_report))
    print()
    match = offline_report == live_report
    print(f"live report == offline replay of its recorded trace: {match}")
    assert match, "live/replay parity violated"


if __name__ == "__main__":
    asyncio.run(main())
