"""Fleet per-request allocation guard.

A :class:`~repro.sim.fleet.FleetEngine` keeps one live
:class:`~repro.sim.routing.ReplicaView` per active slot and refreshes
it in place on every arrival; before, a slot whose counters changed got
a fresh frozen view per arrival. Its metrics feed records a completion
with one append, and the next read (``snapshot``, ``tier_counts``,
``report``) folds the completions since the last read, each once and
in completion order.

This guard replays one ``whatif`` cell shape (Case I 8B on 16 servers,
the searched max-QPS/chip schedule, a 2-replica fleet, a 6 s diurnal
trace at 0.7x the schedule's saturation QPS: 4,000 requests) and
counts:

* ``ReplicaView`` constructions under every registered routing
  policy: at most one per installed slot, not one per arrival;
* folds, over a run stepped in increments with ``snapshot`` /
  ``tier_counts`` / ``report`` / ``replica_stats`` reads interleaved:
  each completion is folded exactly once by the fleet's accumulator
  and once by its replica's tally.

Counts are deterministic, so the guard cannot flake on a noisy host.
The wall time is printed, not bounded.
"""

import time
from collections import Counter

import pytest

from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.schema.paradigms import case_i_hyperscale
from repro.sim import FleetEngine, submit_trace
from repro.sim.metrics import MetricsAccumulator, _RunningSums
from repro.sim.routing import ROUTING_POLICIES, ReplicaView
from repro.workloads import scenario_trace


@pytest.fixture(scope="module")
def cell():
    session = OptimizerSession(case_i_hyperscale("8B"),
                               ClusterSpec(num_servers=16))
    best = session.optimize().max_qps_per_chip
    trace = scenario_trace(
        "diurnal", rate_qps=0.7 * best.qps, duration=6.0, seed=0,
        mean_decode_len=session.schema.sequences.decode_len)
    assert trace.num_requests == 4000
    return session.perf_model, best.schedule, trace


@pytest.mark.parametrize("routing", sorted(ROUTING_POLICIES))
def test_fleet_builds_one_view_per_installed_slot(cell, routing,
                                                  monkeypatch):
    perf_model, schedule, trace = cell
    views = Counter()
    construct = ReplicaView.__init__

    def counting(self, *args, **kwargs):
        views["constructed"] += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(ReplicaView, "__init__", counting)
    fleet = FleetEngine(perf_model, schedule, replicas=2, routing=routing)
    start = time.perf_counter()
    submit_trace(fleet, trace)
    fleet.drain()
    seconds = time.perf_counter() - start

    assert fleet.completed == trace.num_requests
    print(f"\n{routing}: requests={trace.num_requests} "
          f"views={views['constructed']} replay={seconds:.3f}s")
    assert views["constructed"] <= len(fleet.engines) == 2


def test_each_completion_is_folded_once_across_reads(cell, monkeypatch):
    perf_model, schedule, trace = cell
    folds = Counter()
    for owner in (_RunningSums, MetricsAccumulator):
        def counting(self, record, _real=owner._fold_record):
            folds[id(self), id(record)] += 1
            _real(self, record)
        monkeypatch.setattr(owner, "_fold_record", counting)

    fleet = FleetEngine(perf_model, schedule, replicas=2,
                        routing="least-in-flight")
    submit_trace(fleet, trace)
    start = time.perf_counter()
    reads = 0
    for step in range(1, 13):
        fleet.step(0.5 * step)
        fleet.snapshot()
        fleet.tier_counts()
        if fleet.completed:
            fleet.report(trace)
        fleet.replica_stats()
        reads += 1
    fleet.drain()
    fleet.report(trace)
    fleet.replica_stats()
    seconds = time.perf_counter() - start

    assert fleet.completed == trace.num_requests
    assert set(folds.values()) == {1}
    by_sink = Counter(sink for sink, _ in folds)
    assert by_sink[id(fleet._accumulator)] == fleet.completed
    for entry in fleet._engines:
        assert by_sink[id(entry.tally)] == entry.engine.completed
    print(f"\nfolds={sum(folds.values())} over {reads + 1} interleaved "
          f"reads, run={seconds:.3f}s")
