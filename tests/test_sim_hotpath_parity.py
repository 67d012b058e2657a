"""Slab-engine / reference parity for the DES hot loop.

The shipping :class:`ServingEngine` must be **bit-identical** to the
closure-per-event network in ``reference_engine.py``
(:class:`ReferenceServingEngine`): same :class:`ServingReport`, same
busy times, same per-record lifecycles, on every registered arrival
scenario and every admission-policy shape. The event counts differ by
design -- the slab engine's decode executor sleeps through steps where
nothing can happen -- so the count is pinned through the exact
identity :func:`~reference_engine.per_step_events`: the slab engine's
events, with its advances replaced by the decode steps they crossed,
equal the reference's. The two lifecycle fixes that rode along
(``peek_time`` on empty, ``submit`` after ``drain``) are pinned here
too.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from reference_engine import ReferenceServingEngine, per_step_events

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale, case_iii_iterative
from repro.sim.engine import EventQueue, ServingEngine, _DecodeExecutor
from repro.sim.fleet import FleetEngine
from repro.sim.metrics import MetricsAccumulator, SLOTarget
from repro.sim.policies import AdmissionPolicy, TokenBudgetAdmission
from repro.workloads import (SCENARIOS, poisson_trace, scenario_trace,
                             trace_from_arrivals)


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


def _assert_bit_identical(pm, schedule, trace, drive=_replay, **knobs):
    fast = drive(ServingEngine, pm, schedule, trace, **knobs)
    reference = drive(ReferenceServingEngine, pm, schedule, trace, **knobs)
    slo = SLOTarget(ttft=0.5, tpot=0.05)
    # ServingReport equality is exact field equality (records are
    # excluded from dataclass comparison, checked separately below).
    assert fast.report(trace, slo=slo) == reference.report(trace, slo=slo)
    assert fast.busy_times() == reference.busy_times()
    assert [_record_key(r) for r in fast.records] == \
        [_record_key(r) for r in reference.records]
    # Same simulated work: one event per arrival, batch free and
    # completion, and the same number of decode steps.
    assert per_step_events(fast) == reference.events_processed
    return fast, reference


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
    _assert_bit_identical(pm, schedule, trace)


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
# decode skip-ahead: sleeps, wakes and boundary ties
# ---------------------------------------------------------------------------

#: Horizon spacing of the live driving pattern (simulated seconds).
_TICK = 0.05


def _serve(engine_cls, pm, schedule, trace, **knobs):
    """The live front-end's driving pattern: step to a horizon every
    ``_TICK`` seconds and submit each request once the horizon reaches
    it -- every other one exactly at the engine's clock, as the socket
    server does."""
    engine = engine_cls(pm, schedule, **knobs)
    horizon = 0.0
    for index, (arrival, length) in enumerate(
            zip(trace.arrivals, trace.decode_lens)):
        while horizon + _TICK <= arrival:
            horizon += _TICK
            engine.step(until=horizon)
        if index % 2:
            engine.step(until=arrival)
        engine.submit(arrival, decode_len=length)
    engine.drain()
    return engine


def _advances(engine):
    return engine.clock._counts[engine._k_adv]


@pytest.fixture
def wakes(monkeypatch):
    """Times at which a sleeping fast decode executor was woken."""
    times = []
    real = _DecodeExecutor._wake

    def counting(self, now):
        times.append(now)
        real(self, now)

    monkeypatch.setattr(_DecodeExecutor, "_wake", counting)
    return times


@pytest.mark.parametrize("admission", [None, "priority"])
def test_interleaved_submit_and_step_bit_identical(network, wakes,
                                                   admission):
    """Light load and long decodes: the executor sleeps through most
    steps, so step horizons and arrivals land inside skipped spans.
    Greedy admission admits a waking request on the spot; priority
    admission schedules an advance at its boundary."""
    pm, schedule = network
    trace = poisson_trace(10.0, 10.0, seed=21, mean_decode_len=256)
    fast, _ = _assert_bit_identical(pm, schedule, trace, drive=_serve,
                                    admission=admission)
    assert _advances(fast) < fast._decode._step_index / 4
    assert len(wakes) > 10


@pytest.fixture(scope="module")
def narrow_network():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 4,
                 Stage.RETRIEVAL: 64},
    )
    return pm, schedule


@pytest.mark.parametrize("drive", [_replay, _serve])
def test_greedy_admission_held_at_capacity_bit_identical(
        narrow_network, drive):
    """A full batch with a queue waiting admits no one until a bucket
    frees a slot, so the executor sleeps to it and accepts do not wake
    it. Prefix batches of 32 into a decode batch of 4 keep the queue
    full."""
    pm, schedule = narrow_network
    trace = poisson_trace(150.0, 4.0, seed=23, mean_decode_len=64)
    fast, _ = _assert_bit_identical(pm, schedule, trace, drive=drive)
    step = fast._decode.step_latency
    held = [r for r in fast.records
            if r.queue_waits[Stage.DECODE] > 2 * step]
    assert len(held) > trace.num_requests // 3
    assert _advances(fast) < fast._decode._step_index / 2


def _replay_tiered(engine_cls, pm, schedule, trace, **knobs):
    """Bulk replay with every third request on the paid tier."""
    engine = engine_cls(pm, schedule, **knobs)
    for index, (arrival, length) in enumerate(
            zip(trace.arrivals, trace.decode_lens)):
        engine.submit(arrival, decode_len=length,
                      tier="paid" if index % 3 == 0 else "free")
    engine.drain()
    return engine


def test_priority_admission_held_at_capacity_bit_identical(
        narrow_network):
    """Priority admission fills exactly the free slots (it only reorders
    the queue), so a full batch with a queue waiting sleeps to the next
    bucket as greedy does, and paid sequences still jump the queue."""
    pm, schedule = narrow_network
    trace = poisson_trace(150.0, 4.0, seed=23, mean_decode_len=64)
    fast, _ = _assert_bit_identical(pm, schedule, trace,
                                    drive=_replay_tiered,
                                    admission="priority")
    step = fast._decode.step_latency
    waits = {tier: [r.queue_waits[Stage.DECODE] for r in fast.records
                    if r.tier == tier] for tier in ("free", "paid")}
    assert sum(w > 2 * step for w in waits["free"]) \
        > trace.num_requests // 3
    assert max(waits["paid"]) < max(waits["free"])
    assert _advances(fast) < fast._decode._step_index / 2


class _DyadicPerfModel:
    """Stub stage costs in dyadic rationals (exact in binary floating
    point): step boundaries and pipeline event times add up exactly, so
    a request can reach decode exactly on a decode step boundary."""

    STEP = 0.25
    LATENCY = {Stage.RETRIEVAL: 0.5, Stage.PREFIX: 1.0}

    def __init__(self):
        self.schema = case_i_hyperscale("8B")

    def perf(self, stage, batch, amount, plan=None):
        if stage is Stage.DECODE:
            latency = self.STEP * self.schema.sequences.decode_len
        else:
            latency = self.LATENCY[stage]
        return SimpleNamespace(latency=latency, request_qps=batch / latency)


@pytest.mark.parametrize("admission", [None, "priority"])
def test_accept_exactly_on_a_skipped_boundary_joins_there(wakes,
                                                          admission):
    """Tie rule: a request reaching decode exactly on a boundary the
    sleeping executor skipped joins at that boundary, as in the
    per-step reference (whose advance there was scheduled after the
    triggering prefix completion) -- whether greedy admission takes it
    on the spot or priority admission schedules an advance at the
    current time."""
    pm = _DyadicPerfModel()
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 1),
                PlacementGroup((Stage.DECODE,), 1)),
        batches={Stage.RETRIEVAL: 1, Stage.PREFIX: 1, Stage.DECODE: 4},
        retrieval_servers=1)
    # A reaches decode at 1.5 and sleeps towards its finish at step 64;
    # B reaches it at 3.5, boundary 8; C at 11.625, between boundaries.
    trace = trace_from_arrivals([0.0, 2.0, 10.125],
                                decode_lens=[64, 16, 8])
    fast, _ = _assert_bit_identical(pm, schedule, trace,
                                    admission=admission)
    a, b, c = fast.records
    assert wakes == [3.5, 11.625]
    assert b.stage_enqueues[Stage.DECODE] == 3.5
    assert b.queue_waits[Stage.DECODE] == 0.0
    assert b.completion_time == 3.5 + 16 * pm.STEP
    assert c.stage_enqueues[Stage.DECODE] == 11.625
    assert c.queue_waits[Stage.DECODE] == 0.125
    assert a.completion_time == 1.5 + 64 * pm.STEP


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
    assert per_step_events(fast_engine) == ref_engine.events_processed
    assert fast_driver.tier_counts() == ref_driver.tier_counts()
    assert fast_driver.submitted == fast_driver.completed > 0
