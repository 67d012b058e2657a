"""Closed-loop multi-user sessions: tier policies, population specs,
the closed-loop driver, and the tiered-serving guarantees.

The pinned overload contract lives here: a two-tier population driving
a decode-bound fleet far past its sustainable rate, served with
priority admission + session-affine routing, must hold the paid tier's
joint SLO attainment at or above the untiered baseline while the free
tier degrades -- and a closed loop never loses a request (everything
submitted completes).
"""

import math

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim.engine import ServingEngine
from repro.sim.fleet import FleetEngine
from repro.sim.metrics import SLOTarget, jain_index
from repro.sim.policies import PriorityAdmission
from repro.sim.routing import SessionAffineRouting
from repro.workloads import (
    ClosedLoopDriver,
    Tier,
    TierPolicy,
    UserPopulation,
    parse_population_spec,
    parse_tiers_spec,
    population_spec,
    resolve_tier_policy,
    tiers_spec,
)


@pytest.fixture(scope="module")
def network():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512,
                 Stage.RETRIEVAL: 64},
    )
    return pm, schedule


@pytest.fixture(scope="module")
def contended_network():
    """Decode-starved deployment: 4 decode chips, batch 4 -- a large
    population overwhelms decode admission, which is exactly where
    priority admission differentiates tiers."""
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 4)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 4,
                 Stage.RETRIEVAL: 64},
    )
    return pm, schedule


# -- tier policies -----------------------------------------------------


def test_tier_validation():
    with pytest.raises(ConfigError):
        Tier("")
    with pytest.raises(ConfigError):
        Tier("free", share=0.0)
    with pytest.raises(ConfigError):
        Tier("free", share=1.5)


def test_tier_policy_validation():
    with pytest.raises(ConfigError):
        TierPolicy(tiers=())
    with pytest.raises(ConfigError):
        TierPolicy(tiers=(Tier("a", share=0.5), Tier("a", share=0.5)))
    with pytest.raises(ConfigError):
        TierPolicy(tiers=(Tier("a", share=0.5), Tier("b", share=0.4)))


def test_assign_is_a_deterministic_prefix_split():
    policy = resolve_tier_policy("free-paid")
    assignment = policy.assign(10)
    assert [tier.name for tier in assignment] == \
        ["free"] * 8 + ["paid"] * 2
    # Stable under repetition and exact at awkward sizes.
    assert policy.assign(10) == assignment
    assert len(policy.assign(3)) == 3
    with pytest.raises(ConfigError):
        policy.assign(0)


def test_resolve_tier_policy_shapes():
    assert resolve_tier_policy(None).name == "single"
    policy = resolve_tier_policy("free-paid")
    assert resolve_tier_policy(policy) is policy
    with pytest.raises(ConfigError) as excinfo:
        resolve_tier_policy("platinum")
    assert "free-paid" in str(excinfo.value)
    assert "single" in str(excinfo.value)


def test_tiers_spec_round_trips():
    assert tiers_spec(parse_tiers_spec("free-paid")) == "free-paid"
    assert parse_tiers_spec("policy=single").name == "single"
    custom = parse_tiers_spec("custom=bronze:0:0.5|gold:2:0.5")
    assert custom.name == "custom"
    assert [(t.name, t.rank, t.share) for t in custom.tiers] == \
        [("bronze", 0, 0.5), ("gold", 2, 0.5)]
    assert parse_tiers_spec(tiers_spec(custom)) == custom


def test_tiers_spec_defaults_shares_to_even_split():
    custom = parse_tiers_spec("custom=a:0|b:1|c:2")
    assert [t.share for t in custom.tiers] == pytest.approx([1 / 3] * 3)


def test_tiers_spec_rejects_bad_spellings():
    with pytest.raises(ConfigError):
        parse_tiers_spec("policy=single,custom=a:0|b:1")
    with pytest.raises(ConfigError):
        parse_tiers_spec("custom=no-rank")
    with pytest.raises(ConfigError):
        parse_tiers_spec("shape=round")


# -- population specs --------------------------------------------------


def test_population_spec_round_trips():
    population = parse_population_spec(
        "users=12,think=0.5,concurrency=2,session=3,seed=9,"
        "tiers=free-paid")
    assert population.users == 12
    assert population.think_time == 0.5
    assert population.concurrency == 2
    assert population.session_len == 3
    assert population.seed == 9
    assert population.tiers.name == "free-paid"
    assert parse_population_spec(population_spec(population)) == \
        population


def test_population_spec_bare_token_is_users():
    assert parse_population_spec("32").users == 32
    assert parse_population_spec("32,think=0.1").think_time == 0.1


def test_population_spec_passthrough_and_default():
    population = UserPopulation(users=4)
    assert parse_population_spec(population) is population
    assert parse_population_spec(None) == UserPopulation()


def test_population_validation():
    with pytest.raises(ConfigError):
        UserPopulation(users=0)
    with pytest.raises(ConfigError):
        UserPopulation(think_time=-1.0)
    with pytest.raises(ConfigError, match="finite"):
        UserPopulation(think_time=float("nan"))
    with pytest.raises(ConfigError):
        UserPopulation(concurrency=0)
    with pytest.raises(ConfigError):
        UserPopulation(session_len=0)
    with pytest.raises(ConfigError):
        UserPopulation(decode_len=0)
    with pytest.raises(ConfigError):
        parse_population_spec("users=8,flavor=mild")


# -- open-loop projection ----------------------------------------------


def test_population_trace_is_seed_deterministic():
    population = UserPopulation(users=6, think_time=0.2, seed=3,
                                tiers=resolve_tier_policy("free-paid"))
    first = population.trace(horizon=5.0)
    second = population.trace(horizon=5.0)
    assert first == second
    shifted = UserPopulation(users=6, think_time=0.2, seed=4,
                             tiers=resolve_tier_policy("free-paid"))
    assert shifted.trace(horizon=5.0) != first


def test_population_trace_carries_identity_and_sessions():
    population = UserPopulation(users=4, think_time=0.1, session_len=2,
                                seed=1)
    trace = population.trace(horizon=4.0)
    assert trace.has_identity
    assert trace.metadata["scenario"] == "sessions"
    assert trace.metadata["tiers"] == "single"
    arrivals = [request.arrival for request in trace.requests]
    assert arrivals == sorted(arrivals)
    # Sessions rotate every session_len requests per user.
    per_user = {}
    for request in trace.requests:
        per_user.setdefault(request.user_id, []).append(
            request.session_id)
    for uid, sessions in per_user.items():
        for position, session_id in enumerate(sessions):
            assert session_id == f"{uid}-s{position // 2:03d}"


def test_population_trace_rejects_bad_horizons():
    population = UserPopulation(users=2, think_time=10_000.0, seed=0)
    with pytest.raises(ConfigError):
        population.trace(horizon=0.0)
    with pytest.raises(ConfigError):
        population.trace(horizon=math.inf)
    with pytest.raises(ConfigError):
        population.trace(horizon=1e-12)


# -- closed-loop driver ------------------------------------------------


def _closed_loop(pm, schedule, population, horizon=4.0, **engine_knobs):
    engine = ServingEngine(pm, schedule, **engine_knobs)
    driver = ClosedLoopDriver(population, engine, horizon=horizon)
    driver.run()
    return engine, driver


def test_closed_loop_is_deterministic_and_lossless(network):
    pm, schedule = network
    population = UserPopulation(users=6, think_time=0.1, seed=5,
                                tiers=resolve_tier_policy("free-paid"))
    slo = SLOTarget(ttft=0.5, tpot=0.05)
    runs = []
    for _ in range(2):
        engine, driver = _closed_loop(pm, schedule, population)
        trace = engine.recorded_trace(scenario="sessions")
        runs.append((trace, engine.report(trace, slo=slo), driver))
    (trace_a, report_a, driver_a), (trace_b, report_b, driver_b) = runs
    assert trace_a == trace_b
    assert report_a == report_b
    assert driver_a.submitted == driver_b.submitted
    # Closed loops never lose requests.
    assert driver_a.submitted == driver_a.completed > 0
    assert report_a.completed == driver_a.submitted
    for bucket in driver_a.tier_counts().values():
        assert bucket["submitted"] == bucket["completed"]


def test_closed_loop_tier_counts_sum_to_total(network):
    pm, schedule = network
    population = UserPopulation(users=10, think_time=0.1, seed=2,
                                tiers=resolve_tier_policy("free-paid"))
    engine, driver = _closed_loop(pm, schedule, population)
    counts = driver.tier_counts()
    assert sorted(counts) == ["free", "paid"]
    assert sum(b["completed"] for b in counts.values()) == \
        driver.completed
    assert engine.tier_counts() == {
        tier: {"offered": bucket["submitted"],
               "completed": bucket["completed"]}
        for tier, bucket in counts.items()}


def test_closed_loop_driver_is_single_use(network):
    pm, schedule = network
    population = UserPopulation(users=2, think_time=0.1, seed=0)
    engine, driver = _closed_loop(pm, schedule, population)
    with pytest.raises(ConfigError):
        driver.run()


def test_closed_loop_rejects_hopeless_horizons(network):
    pm, schedule = network
    population = UserPopulation(users=2, think_time=0.1, seed=0)
    engine = ServingEngine(pm, schedule)
    with pytest.raises(ConfigError):
        ClosedLoopDriver(population, engine, horizon=0.0)
    with pytest.raises(ConfigError):
        ClosedLoopDriver(population, engine, horizon=math.nan)


def test_closed_loop_fleet_lockstep_is_exact_and_sticky(network):
    pm, schedule = network
    population = UserPopulation(users=8, think_time=0.05, seed=4,
                                session_len=3,
                                tiers=resolve_tier_policy("free-paid"))
    fleet = FleetEngine(pm, schedule, replicas=2,
                        routing=SessionAffineRouting())
    driver = ClosedLoopDriver(population, fleet, horizon=4.0)
    driver.run()
    assert driver.submitted == driver.completed > 0
    trace = fleet.recorded_trace(scenario="sessions")
    assert trace.num_requests == driver.submitted
    # Session affinity: every session's requests landed on one replica.
    session_slots = {}
    for entry in fleet._engines:
        for record in entry.engine.records:
            slot = session_slots.setdefault(record.session_id,
                                            entry.slot)
            assert slot == entry.slot
    # And the lockstep is deterministic.
    fleet_b = FleetEngine(pm, schedule, replicas=2,
                          routing=SessionAffineRouting())
    driver_b = ClosedLoopDriver(population, fleet_b, horizon=4.0)
    driver_b.run()
    assert fleet_b.recorded_trace(scenario="sessions") == trace


# -- the pinned overload contract --------------------------------------


def test_overload_priority_holds_paid_tier_while_free_degrades(
        contended_network):
    """The tentpole guarantee: under sustained decode overload (192
    outstanding requests vs 8 fleet-wide decode slots, ~3x the
    sustainable completion rate), priority admission + session-affine
    routing keeps the paid tier's joint SLO attainment at or above the
    untiered baseline while the free tier visibly degrades -- and no
    run loses a single request."""
    pm, schedule = contended_network
    slo = SLOTarget(ttft=0.3, tpot=0.008)

    def run(tiers, admission, routing):
        population = UserPopulation(
            users=96, think_time=0.02, concurrency=2, session_len=4,
            seed=7, tiers=resolve_tier_policy(tiers))
        fleet = FleetEngine(pm, schedule, replicas=2, routing=routing,
                            admission=admission)
        driver = ClosedLoopDriver(population, fleet, horizon=6.0)
        driver.run()
        trace = fleet.recorded_trace(scenario="sessions")
        return fleet.report(trace, slo=slo), driver

    baseline, base_driver = run("single", None, None)
    tiered, tier_driver = run("free-paid", PriorityAdmission(),
                              SessionAffineRouting())

    # Zero requests lost, in both shapes.
    assert base_driver.submitted == base_driver.completed > 0
    assert tier_driver.submitted == tier_driver.completed > 0

    base_joint = baseline.slo_attainment["joint"]
    paid_joint = tiered.tiers["paid"]["slo_attainment"]["joint"]
    free_joint = tiered.tiers["free"]["slo_attainment"]["joint"]
    # The overload actually bites: the untiered baseline misses SLO.
    assert base_joint < 0.5
    # Priority + affinity shields the paid tier...
    assert paid_joint >= base_joint
    assert paid_joint > 0.9
    # ...by sacrificing the free tier.
    assert free_joint < base_joint

    # The report surfaces the per-tier and fairness sections.
    assert sorted(tiered.tiers) == ["free", "paid"]
    for stats in tiered.tiers.values():
        assert stats["completed"] == stats["offered"]
        assert 0.0 <= stats["slo_attainment"]["joint"] <= 1.0
        assert stats["worst_user_p95_ttft"] >= 0.0
    assert tiered.fairness["users"] == 96.0
    assert 0.0 < tiered.fairness["jain_completions"] <= 1.0


# -- fairness ----------------------------------------------------------


def test_jain_index_bounds():
    assert jain_index([]) == 0.0
    assert jain_index([0.0, 0.0]) == 0.0
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    # One user hogging everything: 1/n.
    assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    skewed = jain_index([9.0, 1.0])
    assert 0.5 < skewed < 1.0


def test_submit_trace_keeps_sessions_on_one_replica(network):
    """The open-loop feeder forwards identity: a multi-user trace fed
    into a session-affine fleet keeps each session on one replica and
    reports per tier."""
    from repro.sim import submit_trace

    pm, schedule = network
    population = UserPopulation(users=8, think_time=0.05, seed=4,
                                session_len=3,
                                tiers=resolve_tier_policy("free-paid"))
    trace = population.trace(2.0)
    fleet = FleetEngine(pm, schedule, replicas=3,
                        routing=SessionAffineRouting())
    submit_trace(fleet, trace)
    fleet.drain()
    assert fleet.completed == trace.num_requests
    session_slots = {}
    for entry in fleet._engines:
        for record in entry.engine.records:
            assert record.session_id is not None
            slot = session_slots.setdefault(record.session_id, entry.slot)
            assert slot == entry.slot
    assert len(set(session_slots.values())) > 1
    report = fleet.report(trace)
    assert set(report.tiers) == {"free", "paid"}
    assert report.fairness["users"] == 8
