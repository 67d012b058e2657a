"""One-clock fleet guard.

A :class:`~repro.sim.fleet.FleetEngine` runs every replica on one
shared event queue, so a closed loop over a fleet is the single-engine
case: each completion schedules the user's next submission on that
queue, and one ``drain()`` plays the whole loop. The per-replica-clock
lockstep it replaced made one ``FleetEngine.step``, one
``ServingEngine.step`` per replica and a ``next_event_time`` peek per
replica and fleet for every event.

This guard runs tiered closed-loop users (Case I 8B on 16 servers, the
searched max-QPS/chip schedule, 4 session-affine replicas -- the shape
of the ``bench/`` ``closed-loop`` workload, with fewer users) and
counts calls: zero ``ServingEngine.step``, zero ``next_event_time`` on
engines or the fleet, zero ``FleetEngine.step`` and at most one
``FleetEngine.drain``. It also counts the metrics feed: the fleet's one
accumulator records each request once (``MetricsAccumulator.add`` and
``.finish`` equal the request count; replicas only count, in a
``ReplicaTally``), and priority admission takes the executor's
slot-greedy closed form (zero ``PriorityAdmission.admit`` calls).
Counts are deterministic, so the guard cannot flake on a noisy host.
The wall time is printed, not bounded.
"""

import time
from collections import Counter

from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.schema.paradigms import case_i_hyperscale
from repro.sim.engine import ServingEngine
from repro.sim.fleet import FleetEngine
from repro.sim.metrics import MetricsAccumulator
from repro.sim.policies import PriorityAdmission
from repro.workloads import (
    ClosedLoopDriver,
    UserPopulation,
    resolve_tier_policy,
)

COUNTED = ((ServingEngine, "step"), (ServingEngine, "next_event_time"),
           (FleetEngine, "step"), (FleetEngine, "next_event_time"),
           (FleetEngine, "drain"), (MetricsAccumulator, "add"),
           (MetricsAccumulator, "finish"), (PriorityAdmission, "admit"))


def test_closed_loop_fleet_runs_on_one_clock(monkeypatch):
    session = OptimizerSession(case_i_hyperscale("8B"),
                               ClusterSpec(num_servers=16))
    chosen = session.optimize().max_qps_per_chip

    calls = Counter()
    for owner, name in COUNTED:
        def counting(*args, _real=getattr(owner, name),
                     _key=f"{owner.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    population = UserPopulation(users=512, think_time=0.5, seed=0,
                                tiers=resolve_tier_policy("free-paid"))
    fleet = FleetEngine(session.perf_model, chosen.schedule, replicas=4,
                        routing="session-affine", admission="priority")
    driver = ClosedLoopDriver(population, fleet, horizon=4.0)
    start = time.perf_counter()
    driver.run()
    seconds = time.perf_counter() - start

    assert driver.submitted == driver.completed == fleet.completed > 0
    assert calls["ServingEngine.step"] == 0
    assert calls["ServingEngine.next_event_time"] == 0
    assert calls["FleetEngine.next_event_time"] == 0
    assert calls["FleetEngine.step"] == 0
    assert calls["FleetEngine.drain"] <= 1
    assert calls["MetricsAccumulator.add"] == driver.submitted
    assert calls["MetricsAccumulator.finish"] == driver.submitted
    assert calls["PriorityAdmission.admit"] == 0
    events = sum(engine.events_processed for engine in fleet.engines)
    print(f"\nrequests={driver.submitted} events={events} "
          f"closed loop={seconds:.3f}s")
