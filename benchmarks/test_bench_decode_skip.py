"""Decode skip-ahead guard.

The decode executor schedules an advance event only at the steps where
something can happen: a sequence finishes or leaves for an iterative
retrieval, or a waiting request can be admitted. Between those it
sleeps, and a request reaching decode mid-sleep wakes it at the next
step boundary. Before this, every decode step was one event, and most
of them did nothing.

This guard replays one ``whatif`` cell shape (Case I 8B on 16 servers,
the searched max-QPS/chip schedule, a 2-replica least-in-flight fleet,
a 6 s diurnal trace at 0.7x the schedule's saturation QPS) and asserts
that the fleet's engine events are at most 45 % of the per-step
equivalent: the same run counted with one advance per decode step,
which the parity suite (``tests/test_sim_hotpath_parity.py``) pins
exactly against the per-step reference engine. Counts are
deterministic, so the guard cannot flake on a noisy host. The wall
time is printed, not bounded.
"""

import time

from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.schema.paradigms import case_i_hyperscale
from repro.sim import FleetEngine, submit_trace
from repro.workloads import scenario_trace

#: Ceiling on engine events as a fraction of the per-step equivalent.
MAX_EVENT_FRACTION = 0.45


def test_decode_sleeps_between_interesting_steps():
    session = OptimizerSession(case_i_hyperscale("8B"),
                               ClusterSpec(num_servers=16))
    best = session.optimize().max_qps_per_chip
    trace = scenario_trace(
        "diurnal", rate_qps=0.7 * best.qps, duration=6.0, seed=0,
        mean_decode_len=session.schema.sequences.decode_len)
    fleet = FleetEngine(session.perf_model, best.schedule, replicas=2,
                        routing="least-in-flight")
    start = time.perf_counter()
    submit_trace(fleet, trace)
    fleet.drain()
    seconds = time.perf_counter() - start

    assert fleet.completed == trace.num_requests
    events = sum(engine.events_processed for engine in fleet.engines)
    advances = sum(engine.clock._counts[engine._k_adv]
                   for engine in fleet.engines)
    steps = sum(engine._decode._step_index for engine in fleet.engines)
    per_step = events - advances + steps
    print(f"\nrequests={trace.num_requests} events={events} "
          f"per-step equivalent={per_step} "
          f"({events / per_step:.1%}) decode steps={steps} "
          f"drain={seconds:.3f}s")
    assert events <= MAX_EVENT_FRACTION * per_step, (
        f"decode advances no longer skip idle steps: {events} events "
        f"> {MAX_EVENT_FRACTION:.0%} of {per_step} per-step events")
