"""Multi-replica fleet tests: routing policies, the FleetEngine
lifecycle, rolling swaps, and the merged-report contract.

The fleet is the first subsystem exercising the provisioning model
under live load, so its invariants are pinned hard:

* round-robin on a homogeneous fleet is a permutation-exact partition
  of the single-engine trace (per-request lifecycles included),
* no policy ever routes to a draining replica,
* a rolling schedule swap loses zero requests,
* the merged fleet report is the weighted merge of the per-replica
  reports,
* replicas share one clock: an arrival behind it is rejected whatever
  the routing, and same-time events run in scheduling order.
"""

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim import (
    ROUTING_POLICIES,
    FleetEngine,
    LeastInFlightRouting,
    ReplicaView,
    RoundRobinRouting,
    ServingEngine,
    SLOTarget,
    WeightedQPSRouting,
    resolve_routing_policy,
)
from repro.sim import fleet as fleet_module
from repro.sim.metrics import _interpolated_percentile
from repro.workloads import poisson_trace


@pytest.fixture(scope="module")
def network():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512, Stage.RETRIEVAL: 64},
    )
    return pm, schedule


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(120, 3.0, seed=11, mean_decode_len=128)


def _replay_fleet(pm, schedule, trace, replicas, routing):
    fleet = FleetEngine(pm, schedule, replicas=replicas, routing=routing)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        fleet.submit(arrival, decode_len=decode_len)
    fleet.drain()
    return fleet


def _record_key(record):
    return (record.arrival, record.decode_len, record.first_token_time,
            record.completion_time, dict(record.stage_completions),
            dict(record.queue_waits))


# ---------------------------------------------------------------------------
# Routing policies.
# ---------------------------------------------------------------------------


def test_routing_registry_names_match_instances():
    for name, factory in ROUTING_POLICIES.items():
        assert factory().name == name
    assert resolve_routing_policy(None) == RoundRobinRouting()
    assert resolve_routing_policy("least-in-flight") \
        == LeastInFlightRouting()
    policy = WeightedQPSRouting()
    assert resolve_routing_policy(policy) is policy
    with pytest.raises(ConfigError, match="unknown routing"):
        resolve_routing_policy("bogus")


def test_routing_policies_need_candidates():
    for factory in ROUTING_POLICIES.values():
        with pytest.raises(ConfigError, match="no routable replica"):
            factory().select([])


def test_round_robin_cycles_slots():
    policy = RoundRobinRouting()
    submitted = [0, 0, 0]
    order = []
    for _ in range(7):
        views = [ReplicaView(index=i, in_flight=0, submitted=submitted[i])
                 for i in range(3)]
        slot = policy.select(views)
        submitted[slot] += 1
        order.append(slot)
    assert order == [0, 1, 2, 0, 1, 2, 0]


def test_least_in_flight_joins_shortest_queue():
    policy = LeastInFlightRouting()
    views = [ReplicaView(index=0, in_flight=4, submitted=10),
             ReplicaView(index=1, in_flight=1, submitted=12),
             ReplicaView(index=2, in_flight=4, submitted=9)]
    assert policy.select(views) == 1


def test_weighted_qps_routing_follows_weights():
    policy = WeightedQPSRouting()
    submitted = [0, 0]
    for _ in range(90):
        views = [ReplicaView(index=i, in_flight=0,
                             submitted=submitted[i],
                             weight=[2.0, 1.0][i])
                 for i in range(2)]
        submitted[policy.select(views)] += 1
    assert submitted == [60, 30]  # 2:1 traffic split, deterministically
    with pytest.raises(ConfigError, match="non-positive"):
        policy.select([ReplicaView(index=0, in_flight=0, submitted=0,
                                   weight=0.0)])


# ---------------------------------------------------------------------------
# FleetEngine lifecycle and invariants.
# ---------------------------------------------------------------------------


def test_fleet_validation(network):
    pm, schedule = network
    with pytest.raises(ConfigError, match="at least one replica"):
        FleetEngine(pm, schedule, replicas=0)
    with pytest.raises(ConfigError, match="at least one replica"):
        FleetEngine(pm, [])
    with pytest.raises(ConfigError, match="contradicts"):
        FleetEngine(pm, [schedule, schedule], replicas=3)
    with pytest.raises(ConfigError, match="unknown routing"):
        FleetEngine(pm, schedule, replicas=2, routing="bogus")
    fleet = FleetEngine(pm, schedule, replicas=2)
    with pytest.raises(ConfigError, match="no active replica"):
        fleet.swap_replica(5, schedule)
    with pytest.raises(ConfigError):
        fleet.recorded_trace()


def test_round_robin_is_permutation_exact_partition(network, trace):
    """Acceptance: a 3-replica round-robin replay completes every
    request, and each replica's per-request lifecycle is bit-identical
    to a standalone single engine replaying that replica's every-Nth
    subsequence of the trace."""
    pm, schedule = network
    fleet = _replay_fleet(pm, schedule, trace, 3, "round-robin")
    report = fleet.report(trace)
    assert report.completed == report.offered == trace.num_requests

    merged = sorted(_record_key(r) for r in fleet.records)
    standalone_keys = []
    for index, engine in enumerate(fleet.engines):
        solo = ServingEngine(pm, schedule)
        for arrival, decode_len in zip(trace.arrivals[index::3],
                                       trace.decode_lens[index::3]):
            solo.submit(arrival, decode_len=decode_len)
        solo.drain()
        assert [_record_key(r) for r in engine.records] \
            == [_record_key(r) for r in solo.records]
        # Each replica counts only its own events on the shared clock.
        assert engine.events_processed == solo.events_processed
        standalone_keys.extend(_record_key(r) for r in solo.records)
    # The fleet's merged records are exactly the partition, reunited.
    assert merged == sorted(standalone_keys)


def test_single_replica_fleet_matches_single_engine(network, trace):
    """A fleet of one is the degenerate case: bit-identical artifacts
    to a bare engine."""
    pm, schedule = network
    fleet = _replay_fleet(pm, schedule, trace, 1, None)
    engine = ServingEngine(pm, schedule)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        engine.submit(arrival, decode_len=decode_len)
    engine.drain()
    assert fleet.report(trace) == engine.report(trace)


def test_stepping_matches_one_shot_drain(network, trace):
    pm, schedule = network
    stepped = FleetEngine(pm, schedule, replicas=3)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        stepped.submit(arrival, decode_len=decode_len)
    t = 0.0
    while stepped.in_flight:
        t += 0.05
        stepped.step(until=t)
    one_shot = _replay_fleet(pm, schedule, trace, 3, None)
    assert stepped.report(trace) == one_shot.report(trace)


def test_rolling_swap_loses_zero_requests(network, trace):
    """Acceptance: swap a replica mid-flight; the old engine drains its
    in-flight work, new arrivals route around it, nothing is lost."""
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2,
                        routing="least-in-flight")
    pairs = list(zip(trace.arrivals, trace.decode_lens))
    half = len(pairs) // 2
    for arrival, decode_len in pairs[:half]:
        fleet.submit(arrival, decode_len=decode_len)
    fleet.step(until=pairs[half - 1][0])
    old_engine = fleet.engines[0]
    assert old_engine.in_flight > 0  # a genuinely mid-flight swap
    fleet.swap_replica(0, schedule)
    offered_at_swap = old_engine.offered
    for arrival, decode_len in pairs[half:]:
        fleet.submit(max(arrival, fleet.now), decode_len=decode_len)
    fleet.drain()
    # Never routed to while draining.
    assert old_engine.offered == offered_at_swap
    assert old_engine.completed == offered_at_swap
    # Zero requests lost fleet-wide; the old generation retired.
    assert fleet.completed == fleet.offered == len(pairs)
    states = [stats["state"] for stats in fleet.replica_stats()]
    assert states.count("retired") == 1
    assert states.count("active") == 2
    # The swapped-in engine actually took traffic.
    assert fleet.engines[-1].offered > 0


def test_least_in_flight_never_routes_to_draining_replica(network):
    """Acceptance: from the instant of the swap, the draining replica
    is invisible to routing even while it is the least loaded."""
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2,
                        routing="least-in-flight")
    fleet.submit(0.0, decode_len=64)
    drained = fleet.swap_replica(0, schedule)
    # The draining engine finishes its one request and sits empty --
    # the least-loaded engine by any measure -- yet never gets traffic.
    fleet.drain()
    assert drained is not fleet.engines[0]
    old_engine = fleet.engines[0]
    assert old_engine.in_flight == 0
    for index in range(10):
        fleet.submit(fleet.now + index * 0.01, decode_len=64)
    fleet.drain()
    assert old_engine.offered == 1  # only the pre-swap request
    assert fleet.completed == fleet.offered == 11


def test_fleet_report_is_weighted_merge_of_replica_reports(network, trace):
    """Acceptance: the merged fleet ServingReport equals the
    completed-count-weighted merge of the per-replica reports (means
    and attainment), and its percentiles are the same interpolated
    estimator over the pooled per-request sample."""
    pm, schedule = network
    slo = SLOTarget(ttft=0.5, tpot=0.05)
    fleet = _replay_fleet(pm, schedule, trace, 3, "round-robin")
    merged = fleet.report(trace, slo=slo)
    per_replica = [engine.report(engine.recorded_trace(), slo=slo)
                   for engine in fleet.engines]

    weights = [rep.completed for rep in per_replica]
    assert sum(weights) == merged.completed == trace.num_requests
    for field in ("ttft", "tpot"):
        weighted_mean = sum(getattr(rep, field)["mean"] * w
                            for rep, w in zip(per_replica, weights)) \
            / sum(weights)
        assert getattr(merged, field)["mean"] == \
            pytest.approx(weighted_mean, rel=1e-12)
    for dimension in ("ttft", "tpot", "joint"):
        weighted = sum(rep.slo_attainment[dimension] * w
                       for rep, w in zip(per_replica, weights)) \
            / sum(weights)
        assert merged.slo_attainment[dimension] == \
            pytest.approx(weighted, rel=1e-12)
    pooled = sorted(r.ttft for r in fleet.records)
    assert merged.ttft["p99"] == pytest.approx(
        _interpolated_percentile(pooled, 0.99), rel=1e-12)
    # Duration anchors at the fleet-wide earliest arrival.
    last = max(r.completion_time for r in fleet.records)
    assert merged.duration == pytest.approx(
        last - min(trace.arrivals), rel=1e-12)
    assert merged.throughput == pytest.approx(
        merged.completed / merged.duration, rel=1e-12)


def test_heterogeneous_fleet_weighted_routing(network, trace):
    """Per-replica schedule overrides + weighted-qps routing: the
    bigger replica receives proportionally more traffic."""
    pm, big = network
    small = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 16),
                PlacementGroup((Stage.DECODE,), 16)),
        batches={Stage.PREFIX: 16, Stage.DECODE: 256, Stage.RETRIEVAL: 32},
    )
    fleet = FleetEngine(pm, [big, small], routing="weighted-qps")
    assert fleet.replicas == 2
    assert fleet.schedules == [big, small]
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        fleet.submit(arrival, decode_len=decode_len)
    fleet.drain()
    assert fleet.completed == fleet.offered == trace.num_requests
    stats = fleet.replica_stats()
    weights = [entry.weight for entry in fleet._engines]
    assert weights[0] > weights[1]  # the 32-chip replica is bigger
    share = stats[0]["offered"] / trace.num_requests
    expected = weights[0] / sum(weights)
    assert share == pytest.approx(expected, abs=0.02)


def test_fleet_snapshot_and_breakdown(network):
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2)
    assert fleet.snapshot().offered == 0
    for index in range(10):
        fleet.submit(index * 0.01, decode_len=64)
    mid = fleet.snapshot()
    assert mid.offered == 10 and mid.in_flight == 10
    fleet.drain()
    final = fleet.snapshot()
    assert final.completed == 10 and final.in_flight == 0
    assert final.throughput > 0
    stats = fleet.replica_stats()
    assert [s["slot"] for s in stats] == [0, 1]
    assert sum(s["completed"] for s in stats) == 10
    assert all(s["state"] == "active" for s in stats)
    from repro.reporting import format_fleet_breakdown

    rendered = format_fleet_breakdown(stats)
    assert "per-replica breakdown" in rendered and "slot" in rendered
    with pytest.raises(ConfigError):
        format_fleet_breakdown([])


def test_fleet_records_hand_out_a_tuple_not_the_live_list(network):
    """Regression: ``records`` once returned the fleet accumulator's own
    list, so appending to it inflated ``offered`` and ``in_flight``."""
    from dataclasses import FrozenInstanceError

    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2)
    for index in range(3):
        fleet.submit(index * 0.01, decode_len=8)
    fleet.drain()
    records = fleet.records
    with pytest.raises(AttributeError):
        records.append(records[0])
    assert fleet.offered == 3 and fleet.in_flight == 0
    # The fleet-wide re-key happened in flight; the finished record is
    # sealed with it.
    assert [record.request_id for record in records] == [0, 1, 2]
    with pytest.raises(FrozenInstanceError):
        records[1].request_id = 0


def test_fleet_recorded_trace_replays(network, trace):
    pm, schedule = network
    fleet = _replay_fleet(pm, schedule, trace, 3, None)
    recorded = fleet.recorded_trace(source="fleet-test")
    assert recorded.num_requests == trace.num_requests
    assert recorded.arrivals == trace.arrivals
    assert recorded.decode_lens == trace.decode_lens
    assert recorded.metadata["source"] == "fleet-test"


def test_fleet_utilization_is_slot_average(network, trace):
    pm, schedule = network
    fleet = _replay_fleet(pm, schedule, trace, 3, None)
    merged = fleet.report(trace)
    assert merged.utilization
    for name, value in merged.utilization.items():
        assert 0.0 <= value <= 1.0
    # Triple the replicas over the same traffic: each replica sees a
    # third of the load, so the slot-average utilization drops well
    # below a single engine's.
    single = ServingEngine(pm, schedule)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        single.submit(arrival, decode_len=decode_len)
    single.drain()
    solo = single.report(trace).utilization
    for name, value in merged.utilization.items():
        assert value <= solo[name] + 1e-9


# ---------------------------------------------------------------------------
# One clock per fleet.
# ---------------------------------------------------------------------------


def test_drained_fleet_rejects_arrivals_behind_its_clock(network):
    """Regression: replicas once kept their own clocks, so after a drain
    an arrival behind the fleet's time was accepted whenever routing
    picked a replica whose clock lagged."""
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2, routing="round-robin")
    fleet.submit(0.0, decode_len=8)
    fleet.submit(1.0, decode_len=512)
    fleet.drain()
    assert fleet.now > 1.18
    with pytest.raises(ConfigError, match="out-of-order timestamp"):
        fleet.submit(1.18)  # round robin offers replica 0, idle since 0.2
    assert fleet.offered == 2
    assert all(engine.now == fleet.now for engine in fleet.engines)


def test_replicas_refuse_direct_step_and_drain(network):
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2)
    fleet.submit(0.0, decode_len=8)
    replica = fleet.engines[0]
    with pytest.raises(ConfigError, match="FleetEngine replica.*step the "
                                          "fleet"):
        replica.step(until=1.0)
    with pytest.raises(ConfigError, match="FleetEngine replica.*drain the "
                                          "fleet"):
        replica.drain()
    assert fleet.now == 0.0 and fleet.in_flight == 1
    fleet.drain()
    # The refused drain did not seal the replica: round robin still
    # routes the second new request to it.
    for _ in range(2):
        fleet.submit(fleet.now, decode_len=8)
    fleet.drain()
    assert replica.offered == 2 and fleet.completed == 3


def test_fleet_event_budget_is_per_live_replica(network, trace,
                                                monkeypatch):
    """One shared run processes every replica's events, so the runaway
    valve grants each live replica a standalone engine's budget."""
    pm, schedule = network
    reference = _replay_fleet(pm, schedule, trace, 2, None)
    per_replica = [engine.events_processed for engine in reference.engines]
    assert sum(per_replica) > max(per_replica)
    monkeypatch.setattr(fleet_module, "_REPLICA_EVENT_BUDGET",
                        max(per_replica))
    fleet = _replay_fleet(pm, schedule, trace, 2, None)
    assert fleet.report(trace) == reference.report(trace)
    monkeypatch.setattr(fleet_module, "_REPLICA_EVENT_BUDGET",
                        sum(per_replica) // 2 - 1)
    with pytest.raises(ConfigError, match="exceeded"):
        _replay_fleet(pm, schedule, trace, 2, None)


def test_same_time_events_run_in_scheduling_order(network):
    """The tie rule: events at one timestamp on different replicas run
    in global (time, seq) order -- the one scheduled first runs first,
    whatever the replica slot."""
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2, routing="round-robin")
    fired = []
    fleet.add_listener(lambda record: fired.append(record.request_id))
    fleet.submit(0.0, decode_len=8)  # slot 0, long done by t=1
    fleet.submit(1.0, decode_len=64)  # slot 1, scheduled first at t=1
    fleet.submit(1.0, decode_len=64)  # slot 0, scheduled second
    fleet.drain()
    first, second = fleet.records[1], fleet.records[2]
    assert [engine.records[-1] for engine in fleet.engines] \
        == [second, first]
    assert first.completion_time == second.completion_time  # a real tie
    # Slot 1's request completes first: it was scheduled first.
    assert fired == [0, 1, 2]
