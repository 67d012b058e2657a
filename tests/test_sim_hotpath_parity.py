"""Slab-engine / reference parity for the DES hot loop.

The shipping :class:`ServingEngine` must be **bit-identical** to the
closure-per-event network in ``reference_engine.py``
(:class:`ReferenceServingEngine`): same :class:`ServingReport`, same
busy times, same per-record lifecycles, same event count, on every
registered arrival scenario and every admission-policy shape. The two
lifecycle fixes that rode along (``peek_time`` on empty, ``submit``
after ``drain``) are pinned here too.
"""

import math
from dataclasses import dataclass

import pytest
from reference_engine import ReferenceServingEngine

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale, case_iii_iterative
from repro.sim.engine import EventQueue, ServingEngine
from repro.sim.fleet import FleetEngine
from repro.sim.metrics import MetricsAccumulator, SLOTarget
from repro.sim.policies import AdmissionPolicy, TokenBudgetAdmission
from repro.workloads import SCENARIOS, poisson_trace, scenario_trace


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
def iterative_network():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_iii_iterative("8B", retrieval_frequency=4),
                      cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 16),
                PlacementGroup((Stage.DECODE,), 16)),
        batches={Stage.PREFIX: 8, Stage.DECODE: 64,
                 Stage.RETRIEVAL: 16},
        iterative_batch=8,
    )
    return pm, schedule


def _record_key(record):
    return (record.request_id, record.arrival, record.first_token_time,
            record.completion_time, dict(record.stage_completions),
            dict(record.stage_enqueues), dict(record.queue_waits))


def _replay(engine_cls, pm, schedule, trace, **knobs):
    engine = engine_cls(pm, schedule, **knobs)
    for arrival, length in zip(trace.arrivals, trace.decode_lens):
        engine.submit(arrival, decode_len=length)
    engine.drain()
    return engine


def _assert_bit_identical(pm, schedule, trace, **knobs):
    fast = _replay(ServingEngine, pm, schedule, trace, **knobs)
    reference = _replay(ReferenceServingEngine, pm, schedule, trace,
                        **knobs)
    slo = SLOTarget(ttft=0.5, tpot=0.05)
    # ServingReport equality is exact field equality (records are
    # excluded from dataclass comparison, checked separately below).
    assert fast.report(trace, slo=slo) == reference.report(trace, slo=slo)
    assert fast.busy_times() == reference.busy_times()
    assert [_record_key(r) for r in fast.records] == \
        [_record_key(r) for r in reference.records]
    # Same event count: the slab engine does the same simulated work,
    # one event per arrival, decode step, batch free and completion.
    assert fast.events_processed == reference.events_processed


# ---------------------------------------------------------------------------
# tentpole: bit-identical replays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fast_path_bit_identical_on_registered_scenarios(
        network, scenario):
    pm, schedule = network
    trace = scenario_trace(scenario, rate_qps=120.0, duration=20.0,
                           seed=7, mean_decode_len=64)
    _assert_bit_identical(pm, schedule, trace)


def test_fast_path_bit_identical_on_iterative_schema(iterative_network):
    pm, schedule = iterative_network
    trace = poisson_trace(20.0, 20.0, seed=11, mean_decode_len=64)
    _assert_bit_identical(pm, schedule, trace, seed=3)


def test_fast_path_bit_identical_under_token_budget_admission(network):
    pm, schedule = network
    trace = poisson_trace(150.0, 15.0, seed=5, mean_decode_len=64)
    _assert_bit_identical(
        pm, schedule, trace,
        admission=TokenBudgetAdmission(max_tokens=4096))


def test_fast_path_bit_identical_under_custom_admission(network):
    # A policy type the fast executor has no closed form for must go
    # through the exact materialized-list fallback.
    @dataclass(frozen=True)
    class EveryOther(AdmissionPolicy):
        def admit(self, waiting_lens, running_remaining, capacity):
            free = max(0, capacity - len(running_remaining))
            return min(len(waiting_lens), free, 7)

    pm, schedule = network
    trace = poisson_trace(150.0, 15.0, seed=9, mean_decode_len=64)
    _assert_bit_identical(pm, schedule, trace, admission=EveryOther())


def test_token_budget_head_overflow_raises_identically(network):
    pm, schedule = network
    admission = TokenBudgetAdmission(max_tokens=32)
    for engine_cls in (ServingEngine, ReferenceServingEngine):
        engine = engine_cls(pm, schedule, admission=admission)
        engine.submit(0.0, decode_len=64)  # head exceeds the budget
        with pytest.raises(ConfigError, match="admission token budget"):
            engine.drain()


# ---------------------------------------------------------------------------
# satellite: fleet report parity across replica counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("replicas", [1, 2, 4])
def test_fleet_round_robin_report_equals_manual_partition_merge(
        network, replicas):
    """The fleet's merged accumulator over a round-robin replay must
    equal solo single-engine accumulators run on the i%n partitions,
    re-folded in fleet submission order."""
    pm, schedule = network
    trace = poisson_trace(120.0, 15.0, seed=13, mean_decode_len=64)
    slo = SLOTarget(ttft=0.5, tpot=0.05)

    fleet = FleetEngine(pm, schedule, replicas=replicas,
                        routing="round-robin")
    for arrival, length in zip(trace.arrivals, trace.decode_lens):
        fleet.submit(arrival, decode_len=length)
    fleet.drain()
    fleet_report = fleet.report(trace, slo=slo)

    # Manual partition: request i rides replica i % n.
    engines = [ServingEngine(pm, schedule) for _ in range(replicas)]
    solo_records = []
    for i, (arrival, length) in enumerate(
            zip(trace.arrivals, trace.decode_lens)):
        solo_records.append(
            engines[i % replicas].submit(arrival, decode_len=length))
    for engine in engines:
        engine.drain()
    merged = MetricsAccumulator(pm.schema)
    for record in solo_records:  # fleet submission order
        merged.add(record)
    for record in solo_records:
        merged.finish(record)
    busy = {}
    for engine in engines:
        for name, seconds in engine.busy_times().items():
            busy[name] = busy.get(name, 0.0) + seconds
    busy = {name: seconds / replicas for name, seconds in busy.items()}
    manual_report = merged.report(trace, slo, busy)

    assert fleet_report == manual_report
    assert fleet.completed == trace.num_requests


# ---------------------------------------------------------------------------
# satellite: lifecycle fixes
# ---------------------------------------------------------------------------


def test_peek_time_on_empty_queue_raises_config_error():
    queue = EventQueue()
    with pytest.raises(ConfigError,
                       match="cannot peek an empty event queue"):
        queue.peek_time()
    # And still works once an event exists.
    queue.push_event(1.5, 0, None)
    assert queue.peek_time() == 1.5


def test_submit_after_drain_raises_config_error(network):
    pm, schedule = network
    for engine_cls in (ServingEngine, ReferenceServingEngine):
        engine = engine_cls(pm, schedule)
        engine.submit(0.0, decode_len=8)
        engine.drain()
        with pytest.raises(ConfigError, match="single-use"):
            engine.submit(engine.now + 1.0, decode_len=8)


def test_drained_fleet_keeps_accepting_between_drains(network):
    """FleetEngine owns its replicas' lifecycle: a fleet-level drain
    settles the replicas without sealing them."""
    pm, schedule = network
    fleet = FleetEngine(pm, schedule, replicas=2, routing="round-robin")
    fleet.submit(0.0, decode_len=8)
    fleet.drain()
    record = fleet.submit(fleet.now + 1.0, decode_len=8)
    fleet.drain()
    assert math.isfinite(record.completion_time)
    assert fleet.completed == 2


# ---------------------------------------------------------------------------
# satellite: closed-loop (multi-user sessions) parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("admission", [None, "priority"])
def test_closed_loop_fast_path_bit_identical(network, admission):
    """The closed loop replays identically on the slab engine and the
    reference: the driver's think-time draws depend only on completion
    times, so bit-identical engines must produce bit-identical
    submission streams, reports, and recorded traces -- with and
    without the waiting-queue reordering of priority admission."""
    from repro.sim.policies import PriorityAdmission
    from repro.workloads import (ClosedLoopDriver, UserPopulation,
                                 resolve_tier_policy)

    pm, schedule = network
    population = UserPopulation(users=8, think_time=0.05,
                                concurrency=2, session_len=3, seed=13,
                                tiers=resolve_tier_policy("free-paid"))

    def closed_loop(engine_cls):
        knobs = {}
        if admission == "priority":
            knobs["admission"] = PriorityAdmission()
        engine = engine_cls(pm, schedule, **knobs)
        driver = ClosedLoopDriver(population, engine, horizon=4.0)
        driver.run()
        return engine, driver

    fast_engine, fast_driver = closed_loop(ServingEngine)
    ref_engine, ref_driver = closed_loop(ReferenceServingEngine)
    slo = SLOTarget(ttft=0.5, tpot=0.05)
    fast_trace = fast_engine.recorded_trace(scenario="sessions")
    ref_trace = ref_engine.recorded_trace(scenario="sessions")
    assert fast_trace == ref_trace
    assert fast_engine.report(fast_trace, slo=slo) == \
        ref_engine.report(ref_trace, slo=slo)
    assert [_record_key(r) for r in fast_engine.records] == \
        [_record_key(r) for r in ref_engine.records]
    assert fast_engine.events_processed == ref_engine.events_processed
    assert fast_driver.tier_counts() == ref_driver.tier_counts()
    assert fast_driver.submitted == fast_driver.completed > 0
