"""Autoscaling control-loop tests: the policy registry and its error
paths, config parsing/round-trips, the Autoscaler's grow/shrink/
cooldown behavior over a real fleet, the latency-aware routing
variants, and the pinned diurnal acceptance claim (elastic fleet >=
trough-provisioned SLO attainment on fewer replica-seconds than the
peak-provisioned fleet, losing zero requests across scale events).
"""

import itertools

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.rago.session import OptimizerSession
from repro.schema import Stage, case_i_hyperscale
from repro.sim import (
    AUTOSCALE_POLICIES,
    AutoscaleConfig,
    Autoscaler,
    FleetEngine,
    FleetView,
    JoinIdleQueueRouting,
    PowerOfTwoChoicesRouting,
    QueueDepthPolicy,
    ReplicaView,
    SLOAttainmentPolicy,
    RequestRecord,
    SLOTarget,
    TargetUtilizationPolicy,
    autoscale_spec,
    build_fleet,
    parse_autoscale_spec,
    resolve_autoscale_policy,
)
from repro.workloads import diurnal_trace, poisson_trace


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


def _view(**overrides):
    base = dict(now=1.0, replicas=2, in_flight=0, window_seconds=1.0,
                window_arrivals=0, window_completions=0,
                window_slo_met=0, replica_qps=100.0)
    base.update(overrides)
    return FleetView(**base)


# ---------------------------------------------------------------------------
# Registry and error paths.
# ---------------------------------------------------------------------------


def test_autoscale_registry_names_match_instances():
    for name, factory in AUTOSCALE_POLICIES.items():
        assert factory().name == name
    assert resolve_autoscale_policy(None) == QueueDepthPolicy()
    policy = SLOAttainmentPolicy()
    assert resolve_autoscale_policy(policy) is policy
    assert resolve_autoscale_policy("target-utilization") \
        == TargetUtilizationPolicy()


def test_unknown_autoscale_policy_lists_known_names():
    with pytest.raises(ConfigError, match="unknown autoscale policy"):
        resolve_autoscale_policy("bogus")
    try:
        resolve_autoscale_policy("bogus")
    except ConfigError as error:
        for name in AUTOSCALE_POLICIES:
            assert name in str(error)


def test_policy_threshold_validation():
    with pytest.raises(ConfigError, match="down < up"):
        QueueDepthPolicy(up=1.0, down=4.0)
    with pytest.raises(ConfigError, match="down < up"):
        TargetUtilizationPolicy(up=0.4, down=0.6)
    with pytest.raises(ConfigError, match="target"):
        TargetUtilizationPolicy(target=0.0)
    with pytest.raises(ConfigError, match="up < down"):
        SLOAttainmentPolicy(up=0.99, down=0.9)


# ---------------------------------------------------------------------------
# Policy decision functions.
# ---------------------------------------------------------------------------


def test_queue_depth_policy_decisions():
    policy = QueueDepthPolicy(up=8.0, down=1.0)
    # Deep backlog scales proportionally, not one step at a time.
    assert policy.desired_replicas(
        _view(replicas=1, in_flight=40)) == 5
    assert policy.desired_replicas(
        _view(replicas=2, in_flight=1)) == 1
    # Inside the hysteresis band: hold.
    assert policy.desired_replicas(
        _view(replicas=2, in_flight=8)) == 2


def test_target_utilization_policy_decisions():
    policy = TargetUtilizationPolicy(up=0.85, down=0.5, target=0.7)
    # 300 arrivals/s over 2x100 QPS = 1.5 utilization -> grow to
    # restore the 0.7 setpoint: ceil(300 / 70) = 5.
    assert policy.desired_replicas(
        _view(replicas=2, window_arrivals=300)) == 5
    # 60/s over 200 = 0.3 < 0.5 -> shed one.
    assert policy.desired_replicas(
        _view(replicas=2, window_arrivals=60)) == 1
    # 140/s over 200 = 0.7 -> hold.
    assert policy.desired_replicas(
        _view(replicas=2, window_arrivals=140)) == 2
    # Unrated replicas cannot drive a utilization decision.
    assert policy.desired_replicas(
        _view(replicas=2, window_arrivals=300, replica_qps=0.0)) == 2


def test_slo_attainment_policy_decisions():
    policy = SLOAttainmentPolicy(up=0.9, down=0.99)
    assert policy.desired_replicas(_view(
        replicas=2, window_completions=100, window_slo_met=50)) == 3
    assert policy.desired_replicas(_view(
        replicas=2, window_completions=100, window_slo_met=100,
        in_flight=1)) == 1
    # No completions in the window: no evidence, hold.
    assert policy.desired_replicas(_view(replicas=2)) == 2
    # Perfect attainment but a backlog: do not shrink into pressure.
    assert policy.desired_replicas(_view(
        replicas=2, window_completions=10, window_slo_met=10,
        in_flight=50)) == 2


# ---------------------------------------------------------------------------
# AutoscaleConfig and the --autoscale spec grammar.
# ---------------------------------------------------------------------------


def test_autoscale_config_validation():
    with pytest.raises(ConfigError, match="min_replicas"):
        AutoscaleConfig(min_replicas=0)
    with pytest.raises(ConfigError, match="max_replicas"):
        AutoscaleConfig(min_replicas=3, max_replicas=2)
    with pytest.raises(ConfigError, match="interval"):
        AutoscaleConfig(interval=0.0)
    # Non-finite knobs used to load and crash the control loop.
    for interval in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="interval"):
            AutoscaleConfig(interval=interval)
    with pytest.raises(ConfigError, match="cooldown"):
        AutoscaleConfig(cooldown=-1.0)
    with pytest.raises(ConfigError, match="cooldown"):
        AutoscaleConfig(cooldown=float("nan"))
    with pytest.raises(ConfigError, match="unknown autoscale policy"):
        AutoscaleConfig(policy="bogus")
    # Threshold overrides flow into the policy's own validation.
    with pytest.raises(ConfigError, match="down < up"):
        AutoscaleConfig(policy="queue-depth", scale_up=1.0,
                        scale_down=4.0)
    built = AutoscaleConfig(policy="queue-depth", scale_up=32.0).\
        build_policy()
    assert built == QueueDepthPolicy(up=32.0)


def test_parse_autoscale_spec_grammar():
    config = parse_autoscale_spec(
        "policy=slo-attainment,min=2,max=6,interval=0.5,cooldown=2,"
        "up=0.9,down=0.995")
    assert config == AutoscaleConfig(
        policy="slo-attainment", min_replicas=2, max_replicas=6,
        interval=0.5, cooldown=2.0, scale_up=0.9, scale_down=0.995)
    # A bare policy name is shorthand.
    assert parse_autoscale_spec("target-utilization").policy \
        == "target-utilization"
    # Pass-through forms.
    assert parse_autoscale_spec(None) == AutoscaleConfig()
    assert parse_autoscale_spec(config) is config


def test_parse_autoscale_spec_rejects_malformed_input():
    with pytest.raises(ConfigError, match="unknown autoscale key"):
        parse_autoscale_spec("policy=queue-depth,replicas=3")
    with pytest.raises(ConfigError, match="malformed autoscale value"):
        parse_autoscale_spec("min=two")
    with pytest.raises(ConfigError, match="duplicate autoscale key"):
        parse_autoscale_spec("min=1,min=2")
    with pytest.raises(ConfigError, match="empty --autoscale spec"):
        parse_autoscale_spec("  ,  ")
    with pytest.raises(ConfigError, match="unknown autoscale policy"):
        parse_autoscale_spec("bogus-policy")


def test_autoscale_spec_round_trips():
    for config in (AutoscaleConfig(),
                   AutoscaleConfig(policy="target-utilization",
                                   min_replicas=2, max_replicas=9,
                                   interval=0.25, cooldown=1.75,
                                   scale_up=0.9, scale_down=0.45)):
        assert parse_autoscale_spec(autoscale_spec(config)) == config


def test_autoscale_config_envelope_round_trips():
    from repro import config as config_module

    original = AutoscaleConfig(policy="slo-attainment", min_replicas=2,
                               max_replicas=5, interval=0.5,
                               cooldown=1.0, scale_up=0.85,
                               scale_down=0.999)
    assert config_module.from_config(
        config_module.to_config(original)) == original
    with pytest.raises(ConfigError, match="unknown autoscale config"):
        config_module.autoscale_config_from_dict({"bogus": 1})


def test_serve_config_nests_autoscale_envelope():
    from repro import config as config_module
    from repro.serve import ServeConfig

    original = ServeConfig(time_scale=25.0,
                           autoscale=AutoscaleConfig(max_replicas=6))
    restored = config_module.from_config(config_module.to_config(original))
    assert restored == original
    assert restored.autoscale == AutoscaleConfig(max_replicas=6)
    with pytest.raises(ConfigError):
        ServeConfig(autoscale="queue-depth")  # spec strings must be parsed


# ---------------------------------------------------------------------------
# Fleet elasticity primitives.
# ---------------------------------------------------------------------------


def test_add_replica_is_immediately_routable(network):
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=1)
    for index in range(4):
        fleet.submit(0.01 * index, decode_len=32)
    slot = fleet.add_replica()
    assert slot == 1
    assert fleet.replicas == 2
    assert fleet.active_slots == [0, 1]
    # Round robin now alternates instead of flooding the newcomer to
    # catch up on the four requests it never saw.
    before = fleet.engines[1].offered
    for index in range(4):
        fleet.submit(0.1 + 0.01 * index, decode_len=32)
    assert fleet.engines[1].offered - before == 2
    fleet.drain()
    assert fleet.completed == fleet.offered == 8


def test_remove_replica_drains_zero_loss(network):
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=3)
    trace = poisson_trace(60, 2.0, seed=5, mean_decode_len=64)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        fleet.submit(arrival, decode_len=decode_len)
    fleet.step(until=1.0)
    removed = fleet.remove_replica()
    assert fleet.replicas == 2
    # The draining engine keeps its in-flight work; nothing is lost.
    fleet.drain()
    assert fleet.completed == fleet.offered == trace.num_requests
    assert removed.completed == removed.offered
    states = {row["slot"]: row["state"] for row in fleet.replica_stats()}
    assert sum(state == "retired" for state in states.values()) == 1


def test_remove_replica_error_paths(network):
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=1)
    with pytest.raises(ConfigError, match="last active replica"):
        fleet.remove_replica()
    fleet.add_replica()
    with pytest.raises(ConfigError, match="no active replica at slot"):
        fleet.remove_replica(slot=99)


# ---------------------------------------------------------------------------
# The Autoscaler driver.
# ---------------------------------------------------------------------------


def test_autoscaler_grows_shrinks_and_respects_cooldown(network):
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=1)
    autoscaler = Autoscaler(fleet, AutoscaleConfig(
        policy="queue-depth", scale_up=8.0, scale_down=1.0,
        min_replicas=1, max_replicas=3, interval=0.5, cooldown=1.0))
    for index in range(100):
        fleet.submit(0.001 * index, decode_len=64)
    fleet.step(until=0.25)  # the batch is still mid-flight here
    event = autoscaler.control(0.25)
    assert event is not None and event.action == "up"
    assert event.replicas_before == 1
    assert fleet.replicas == event.replicas_after <= 3
    # Inside the cooldown no further action fires, whatever the load.
    fleet.step(until=0.5)
    assert autoscaler.control(0.5) is None
    # Drain; past the cooldown the empty fleet shrinks to the floor.
    fleet.drain()
    down_events = []
    now = fleet.now
    while fleet.replicas > 1:
        now += 0.5
        fleet.step(until=max(now, fleet.now))
        event = autoscaler.control(now)
        if event is not None:
            down_events.append(event)
    assert down_events and all(e.action == "down" for e in down_events)
    # One cooldown between any two actions.
    times = [event.time for event in autoscaler.events]
    assert all(later - earlier >= 1.0
               for earlier, later in zip(times, times[1:]))
    assert fleet.completed == fleet.offered == 100
    assert autoscaler.finalize(now) > 0.0


def test_autoscaler_requires_a_fleet(network):
    pm, schedule = network
    from repro.sim import ServingEngine

    with pytest.raises(ConfigError, match="FleetEngine"):
        Autoscaler(ServingEngine(pm, schedule))


def test_maybe_control_collapses_missed_boundaries(network):
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=1)
    autoscaler = Autoscaler(fleet, AutoscaleConfig(
        policy="queue-depth", scale_up=8.0, scale_down=1.0,
        interval=0.5, cooldown=0.0))
    assert autoscaler.maybe_control(0.4) is None  # nothing due yet
    fleet.step(until=10.0)
    autoscaler.maybe_control(10.0)  # 19 boundaries due -> one decision
    # The next boundary continues the grid, not a backlog replay.
    assert autoscaler.maybe_control(10.3) is None


# ---------------------------------------------------------------------------
# Latency-aware routing policies.
# ---------------------------------------------------------------------------


def test_power_of_two_choices_is_seed_deterministic():
    views = [ReplicaView(index=0, in_flight=5, submitted=0),
             ReplicaView(index=1, in_flight=0, submitted=0),
             ReplicaView(index=2, in_flight=2, submitted=0),
             ReplicaView(index=3, in_flight=9, submitted=0)]
    first = PowerOfTwoChoicesRouting(seed=42)
    second = PowerOfTwoChoicesRouting(seed=42)
    sequence = [first.select(views, now=0.0) for _ in range(50)]
    assert sequence == [second.select(views, now=0.0)
                        for _ in range(50)]
    # A different seed draws a different candidate sequence.
    other = [PowerOfTwoChoicesRouting(seed=7).select(views, now=0.0)
             for _ in range(50)]
    assert other != sequence


def test_power_of_two_choices_serves_stale_snapshots():
    policy = PowerOfTwoChoicesRouting(seed=0, stale_after=10.0)
    fresh = [ReplicaView(index=0, in_flight=0, submitted=0),
             ReplicaView(index=1, in_flight=50, submitted=0)]
    # First decision snapshots {0: 0, 1: 50}: replica 0 wins.
    assert policy.select(fresh, now=0.0) == 0
    # The world flips, but inside the staleness window the policy
    # still routes on the cached depths.
    flipped = [ReplicaView(index=0, in_flight=50, submitted=0),
               ReplicaView(index=1, in_flight=0, submitted=0)]
    assert policy.select(flipped, now=5.0) == 0
    # Past the window the snapshot refreshes and the choice follows.
    assert policy.select(flipped, now=20.0) == 1


def test_power_of_two_choices_on_a_fleet_is_reproducible(network):
    pm, schedule = network
    trace = poisson_trace(100, 2.0, seed=3, mean_decode_len=64)

    def offered_per_slot(seed):
        fleet = FleetEngine(pm, schedule, replicas=3,
                            routing=PowerOfTwoChoicesRouting(
                                seed=seed, stale_after=0.2))
        for arrival, decode_len in zip(trace.arrivals,
                                       trace.decode_lens):
            fleet.submit(arrival, decode_len=decode_len)
        fleet.drain()
        assert fleet.completed == trace.num_requests
        return [row["offered"] for row in fleet.replica_stats()]

    assert offered_per_slot(11) == offered_per_slot(11)


def test_join_idle_queue_prefers_idle_replicas():
    policy = JoinIdleQueueRouting()
    views = [ReplicaView(index=0, in_flight=3, submitted=1),
             ReplicaView(index=1, in_flight=0, submitted=9),
             ReplicaView(index=2, in_flight=0, submitted=4)]
    # Two idle replicas: the least-submitted idle one wins.
    assert policy.select(views) == 2
    busy = [ReplicaView(index=0, in_flight=3, submitted=1),
            ReplicaView(index=1, in_flight=2, submitted=9)]
    # Nobody idle: degrade to least-in-flight.
    assert policy.select(busy) == 1


def test_new_routing_policies_are_registered():
    from repro.sim import ROUTING_POLICIES, resolve_routing_policy

    assert ROUTING_POLICIES["power-of-two-choices"]().name \
        == "power-of-two-choices"
    assert ROUTING_POLICIES["join-idle-queue"]().name \
        == "join-idle-queue"
    with pytest.raises(ConfigError) as excinfo:
        resolve_routing_policy("power-of-two")
    assert "power-of-two-choices" in str(excinfo.value)


# ---------------------------------------------------------------------------
# The pinned diurnal acceptance claim (examples/autoscale_serving.py).
# ---------------------------------------------------------------------------


def test_diurnal_autoscale_beats_both_static_fleets():
    """The ISSUE's acceptance criterion: on one diurnal day the
    elastic fleet attains at least the trough-provisioned fleet's SLO
    while spending fewer replica-seconds than the peak-provisioned
    one, and no request is lost across any scale event."""
    slo = SLOTarget(ttft=0.5, tpot=0.005)
    session = (OptimizerSession(case_i_hyperscale("1B"),
                                ClusterSpec(num_servers=64))
               .with_search(budget_xpus=16))
    autoscaler = session.autoscaled_fleet(
        300.0, 2100.0,
        autoscale=AutoscaleConfig(policy="queue-depth", interval=0.5,
                                  cooldown=2.0, scale_up=64.0,
                                  scale_down=16.0),
        routing="join-idle-queue", slo=slo)
    assert autoscaler.min_replicas == 1
    assert autoscaler.max_replicas == 3
    trace = diurnal_trace(1200.0, duration=24.0, seed=11,
                          mean_decode_len=64, amplitude=0.8)
    autoscaler.run_trace(trace)
    fleet = autoscaler.fleet

    # Zero-loss conservation across every scale event, counted both
    # fleet-wide and per engine generation.
    assert fleet.completed == fleet.offered == trace.num_requests
    assert sum(row["completed"] for row in fleet.replica_stats()) \
        == trace.num_requests
    assert autoscaler.events, "the controller never scaled"
    assert {event.action for event in autoscaler.events} \
        == {"up", "down"}

    auto_report = fleet.report(trace, slo=slo)
    auto_seconds = autoscaler.replica_seconds
    schedule = fleet.schedules[0]

    def static(replicas):
        static_fleet = build_fleet(session.perf_model, schedule,
                                   replicas=replicas,
                                   routing="join-idle-queue")[0]
        for arrival, decode_len in zip(trace.arrivals,
                                       trace.decode_lens):
            static_fleet.submit(arrival, decode_len=decode_len)
        static_fleet.drain()
        return (static_fleet.report(trace, slo=slo),
                replicas * static_fleet.now)

    trough_report, _ = static(autoscaler.min_replicas)
    _, peak_seconds = static(autoscaler.max_replicas)
    assert auto_report.slo_attainment["joint"] \
        >= trough_report.slo_attainment["joint"]
    assert auto_seconds < peak_seconds


def test_power_of_two_refreshes_same_instant_when_not_stale():
    """stale_after=0 means perfect information: decisions at the same
    timestamp must see live depths, not the first call's snapshot."""
    policy = PowerOfTwoChoicesRouting(seed=0, stale_after=0.0)
    assert policy.select(
        [ReplicaView(index=0, in_flight=0, submitted=0),
         ReplicaView(index=1, in_flight=50, submitted=0)], now=1.0) == 0
    # Same instant, flipped world: the live state must win.
    assert policy.select(
        [ReplicaView(index=0, in_flight=50, submitted=0),
         ReplicaView(index=1, in_flight=0, submitted=0)], now=1.0) == 1


def test_resized_fleet_utilization_uses_time_weighted_average(network):
    """After a scale-down, dividing all generations' busy seconds by
    the final (small) active count would inflate utilization; the
    denominator must be the time-weighted average active count."""
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=3)
    trace = poisson_trace(120, 2.0, seed=9, mean_decode_len=64)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        fleet.submit(arrival, decode_len=decode_len)
    fleet.step(until=trace.duration)
    fleet.remove_replica()
    fleet.remove_replica()
    fleet.drain()
    assert fleet.replicas == 1
    # Time-weighted average sits between 1 and 3, near 3 (the shrink
    # happened at the end of the window).
    average = fleet.replica_seconds / fleet.now
    assert 1.0 < average <= 3.0
    merged = fleet.report(trace)
    single_fleet = FleetEngine(pm, schedule, replicas=3)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        single_fleet.submit(arrival, decode_len=decode_len)
    single_fleet.drain()
    static = single_fleet.report(trace)
    for name, value in merged.utilization.items():
        # Same traffic, same three replicas doing the work: the
        # resized fleet's utilization must stay in the static
        # ballpark, not triple toward the 1.0 clamp.
        assert value <= min(3.0 * static.utilization[name], 1.0)
        assert value < 1.0 or static.utilization[name] >= 0.9


_SLO_SHAPES = {"none": SLOTarget(), "ttft": SLOTarget(ttft=0.5),
               "tpot": SLOTarget(tpot=0.125),
               "both": SLOTarget(ttft=0.5, tpot=0.125)}


def _finished_record(index, first_token, tpot, decode_len):
    """A sealed completion arriving at 0.25; ``first_token=None`` is a
    request that never produced a token. The times are dyadic, so a
    first token at 0.75 and a 0.125 s TPOT meet their targets
    exactly."""
    start = 1.0 if first_token is None else first_token
    record = RequestRecord(request_id=index, arrival=0.25,
                           decode_len=decode_len)
    record._hold_stage_times({}, {}, {}, first_token,
                             start + tpot * max(decode_len, 1))
    record.seal()
    return record


@pytest.mark.parametrize("shape", sorted(_SLO_SHAPES))
def test_autoscaler_window_counts_the_joint_slo_verdict(network, shape):
    """The autoscaler decides each completion's joint SLO verdict
    inline; its window count equals SLOTarget.check's, over a real
    fleet's completions and over synthetic ones on and around the
    targets, including a request with no first token."""
    slo = _SLO_SHAPES[shape]
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2)
    autoscaler = Autoscaler(fleet, AutoscaleConfig(), slo=slo)
    done = []
    fleet.add_listener(done.append)
    trace = poisson_trace(200, 1.0, seed=5, mean_decode_len=64)
    for arrival, decode_len in zip(trace.arrivals, trace.decode_lens):
        fleet.submit(arrival, decode_len=decode_len)
    fleet.drain()
    synthetic = [
        _finished_record(index, first_token, tpot, decode_len)
        for index, (first_token, tpot, decode_len) in enumerate(
            itertools.product((None, 0.5, 0.75, 1.0), (0.0625, 0.125, 0.25),
                              (0, 1, 8)))]
    for record in synthetic:
        autoscaler._on_complete(record)
    records = done + synthetic
    view = autoscaler._view(fleet.now)
    assert view.window_completions == len(records)
    assert view.window_slo_met == sum(
        slo.check(record)["joint"] is not False for record in records)
    if shape != "none":
        assert 0 < view.window_slo_met < len(records)
