"""Discrete-event engine tests: the DES kernel and the incremental
ServingEngine lifecycle (submit / step / drain), including parity with
the open-loop replay path."""

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim import EventQueue, ServingEngine, ServingSimulator, Simulation
from repro.workloads import SCENARIOS, poisson_trace


def _call_kind(sim):
    """Register a handler that runs its payload as ``payload(sim)``."""
    return sim.register_handler(lambda s, fn: fn(s))


def test_events_run_in_time_order():
    sim = Simulation()
    order = []
    record = sim.register_handler(lambda s, name: order.append(name))
    sim.schedule_event(2.0, record, "b")
    sim.schedule_event(1.0, record, "a")
    sim.schedule_event(3.0, record, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == pytest.approx(3.0)


def test_ties_break_by_insertion_order():
    sim = Simulation()
    order = []
    first = sim.register_handler(lambda s, name: order.append(name))
    second = sim.register_handler(lambda s, name: order.append(name * 2))
    # Insertion order wins over handler kind on a tie.
    sim.schedule_event(1.0, second, "a")
    sim.schedule_event(1.0, first, "b")
    sim.schedule_event_at(1.0, second, "c")
    sim.run()
    assert order == ["aa", "b", "cc"]


def test_events_can_schedule_more_events():
    sim = Simulation()
    seen = []

    def chain(s, depth):
        seen.append(s.now)
        if depth < 3:
            s.schedule_event(1.0, kind, depth + 1)

    kind = sim.register_handler(chain)
    sim.schedule_event(0.0, kind, 0)
    sim.run()
    assert seen == [0.0, 1.0, 2.0, 3.0]


def test_run_until_leaves_future_events():
    sim = Simulation()
    fired = []
    kind = sim.register_handler(lambda s, tag: fired.append(tag))
    sim.schedule_event(1.0, kind, 1)
    sim.schedule_event(5.0, kind, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == pytest.approx(2.0)
    sim.run()
    assert fired == [1, 5]


def test_negative_delay_rejected():
    sim = Simulation()
    kind = _call_kind(sim)
    with pytest.raises(ConfigError, match="non-negative"):
        sim.schedule_event(-1.0, kind, lambda s: None)


def test_nan_event_times_rejected():
    """NaN never equals the batch time in run(), so a NaN event would
    spin the loop forever: every push path refuses it up front."""
    nan = float("nan")
    sim = Simulation()
    kind = _call_kind(sim)
    with pytest.raises(ConfigError, match="non-negative"):
        sim.schedule_event(nan, kind, lambda s: None)
    with pytest.raises(ConfigError, match="non-negative"):
        sim.schedule_event_at(nan, kind, lambda s: None)
    with pytest.raises(ConfigError, match="non-negative"):
        EventQueue().push_event(nan, 0, None)
    assert not sim._queue


def test_nan_max_wait_rejected():
    from repro.sim.policies import DeadlineFlushPolicy

    with pytest.raises(ConfigError, match="max_wait must be non-negative"):
        DeadlineFlushPolicy(max_wait=float("nan"))


def test_ties_never_compare_payloads():
    """Same-time events whose payloads cannot be ordered run in
    insertion order: every heap entry has a unique sequence number, so
    a tie never reaches the kind or the payload."""
    sim = Simulation()
    order = []
    kinds = [sim.register_handler(lambda s, arg: order.append(arg))
             for _ in range(2)]
    queue = sim._queue
    expected = []
    for index in range(40):
        payload = object() if index % 2 else {"index": index}
        kind = kinds[index // 2 % 2]
        if index % 4 == 0:
            sim.schedule_event(1.0, kind, payload)
        elif index % 4 == 1:
            sim.schedule_event_at(1.0, kind, payload)
        else:
            # Reserve a number, push something else, then file the
            # payload under the reserved (earlier) number.
            sequence = queue.reserve(1)
            between = {"between": index}
            sim.schedule_event(1.0, kinds[0], between)
            queue.push_reserved(1.0, sequence, kind, payload)
            expected.append(payload)
            payload = between
        expected.append(payload)
    sim.run()
    assert len(order) == len(expected) == 60
    assert all(got is want for got, want in zip(order, expected))


def test_past_scheduling_rejected():
    sim = Simulation()
    kind = _call_kind(sim)
    sim.schedule_event(1.0, kind, lambda s: None)
    sim.run()
    with pytest.raises(ConfigError, match="past"):
        sim.schedule_event_at(0.5, kind, lambda s: None)


def test_runaway_loop_detected():
    sim = Simulation()
    kind = sim.register_handler(
        lambda s, _: s.schedule_event(0.0, kind, None))
    sim.schedule_event(0.0, kind, None)
    with pytest.raises(ConfigError, match="exceeded 100 events"):
        sim.run(max_events=100)


def test_max_events_budget_is_per_call():
    """A long-lived incremental engine steps indefinitely: the runaway
    valve budgets each run() call, not the simulation's lifetime."""
    sim = Simulation()
    kind = _call_kind(sim)
    for index in range(150):
        sim.schedule_event(float(index), kind, lambda s: None)
    for index in range(150):
        sim.run(until=float(index), max_events=100)
    assert sim.events_processed == 150  # lifetime stat still accumulates


def test_event_queue_len():
    queue = EventQueue()
    assert not queue
    queue.push_event(1.0, 0, None)
    assert len(queue) == 1
    assert queue.peek_time() == 1.0


def test_horizon_stop_preserves_tie_order():
    """Stopping at a horizon must not reorder same-time events: the
    earliest event is peeked, not popped and re-pushed (a re-push gets a
    new sequence number and would lose its tie-break rank)."""
    sim = Simulation()
    order = []
    kind = sim.register_handler(lambda s, name: order.append(name))
    sim.schedule_event(2.0, kind, "first")
    sim.schedule_event(2.0, kind, "second")
    sim.run(until=1.0)  # stop right before the tied pair
    assert order == []
    sim.run(until=1.5)  # and again
    sim.run()
    assert order == ["first", "second"]


def test_run_until_advances_clock_without_events():
    sim = Simulation()
    kind = _call_kind(sim)
    sim.run(until=4.0)
    assert sim.now == pytest.approx(4.0)
    sim.schedule_event(1.0, kind, lambda s: None)  # i.e. at t=5.0
    sim.run()
    assert sim.now == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# ServingEngine: the incremental submit / step / drain lifecycle.
# ---------------------------------------------------------------------------


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


def _record_key(record):
    return (record.request_id, record.arrival, record.first_token_time,
            record.completion_time, dict(record.stage_completions),
            dict(record.queue_waits))


def test_incremental_stepping_matches_one_shot_drain(network):
    """Advancing time in many small steps is bit-identical to draining
    in one go (the resumability contract)."""
    pm, schedule = network
    trace = poisson_trace(120, 3.0, seed=11, mean_decode_len=128)

    stepped = ServingEngine(pm, schedule)
    for arrival, length in zip(trace.arrivals, trace.decode_lens):
        stepped.submit(arrival, decode_len=length)
    t = 0.0
    while stepped.in_flight:
        t += 0.05
        stepped.step(until=t)
    one_shot = ServingEngine(pm, schedule)
    for arrival, length in zip(trace.arrivals, trace.decode_lens):
        one_shot.submit(arrival, decode_len=length)
    one_shot.drain()

    assert stepped.report(trace) == one_shot.report(trace)
    for a, b in zip(stepped.records, one_shot.records):
        assert _record_key(a) == _record_key(b)


def test_interleaved_submission_matches_open_loop_replay(network):
    """Submitting each request only once simulated time has reached its
    arrival (the live-serving pattern) reproduces the open-loop replay."""
    pm, schedule = network
    trace = poisson_trace(100, 3.0, seed=13, mean_decode_len=128)

    live = ServingEngine(pm, schedule)
    for arrival, length in zip(trace.arrivals, trace.decode_lens):
        # Advance to just past this request's arrival minus a hair, the
        # way a wall-clock pump would, then inject it.
        live.step(until=max(live.now, arrival * (1 - 1e-12)))
        live.submit(arrival, decode_len=length)
    live.drain()

    replayed = ServingSimulator(pm, schedule).run(trace)
    live_report = live.report(trace)
    assert live_report.completed == replayed.offered
    assert live_report == replayed


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_engine_parity_with_simulator_per_scenario(network, scenario):
    """Acceptance: for every registered trace scenario, the open-loop
    simulator (now a driver over ServingEngine) and a hand-driven
    engine produce bit-identical reports."""
    from repro.sim import SLOTarget
    from repro.workloads import scenario_trace

    pm, schedule = network
    trace = scenario_trace(scenario, rate_qps=80, duration=3.0, seed=7,
                           mean_decode_len=128)
    slo = SLOTarget(ttft=1.0, tpot=0.1)

    engine = ServingEngine(pm, schedule)
    for arrival, length in zip(trace.arrivals, trace.decode_lens):
        engine.submit(arrival, decode_len=length)
    engine.drain()

    via_simulator = ServingSimulator(pm, schedule).run(trace, slo=slo)
    assert engine.report(trace, slo=slo) == via_simulator


def test_submission_behind_clock_rejected(network):
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    engine.step(until=2.0)
    with pytest.raises(ConfigError, match="out-of-order"):
        engine.submit(1.0)


def test_out_of_order_submission_accounts_earliest_arrival(network):
    """Direct engine submission is not arrival-ordered (only the live
    front-end's wall clock guarantees order): submitting a later
    arrival first must not skew duration/throughput, which anchor at
    min(arrival), nor the snapshot's elapsed time."""
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    engine.submit(0.5, decode_len=64)
    engine.submit(0.1, decode_len=64)  # earlier arrival, submitted later
    engine.submit(0.3, decode_len=64)
    engine.drain()
    # The recorded trace re-sorts into arrival order, so it replays.
    trace = engine.recorded_trace()
    assert trace.arrivals == (0.1, 0.3, 0.5)
    report = engine.report(trace)
    assert report.completed == 3
    last = max(r.completion_time for r in engine.records)
    assert report.duration == pytest.approx(last - 0.1, rel=1e-12)
    assert report.throughput == pytest.approx(3 / report.duration,
                                              rel=1e-12)
    snap = engine.snapshot()
    assert snap.throughput == pytest.approx(
        3 / (engine.now - 0.1), rel=1e-12)
    replay = ServingSimulator(pm, schedule).run(trace)
    assert replay.completed == 3
    assert replay.duration == pytest.approx(report.duration, rel=1e-12)


def test_submit_validation(network):
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    with pytest.raises(ConfigError):
        engine.submit(float("nan"))
    with pytest.raises(ConfigError):
        engine.submit(float("inf"))
    with pytest.raises(ConfigError):
        engine.submit(-1.0)
    with pytest.raises(ConfigError):
        engine.submit(0.0, decode_len=0)
    with pytest.raises(ConfigError):
        engine.step(until=-1.0)


@pytest.mark.parametrize("decode_len", [float("nan"), 2.7, True, False,
                                        "8", float("inf")])
def test_submit_rejects_non_integral_decode_len(network, decode_len):
    """Bools and non-integral lengths are errors, not silent
    truncations (2.7 must not run as 2, nor True as 1)."""
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    with pytest.raises(ConfigError, match="decode_len must be an integer"):
        engine.submit(0.0, decode_len=decode_len)
    assert engine.offered == 0


def test_submit_rejects_bool_arrival(network):
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    with pytest.raises(ConfigError, match="arrival must be a finite"):
        engine.submit(True)
    assert engine.offered == 0


def test_submit_accepts_integral_float_decode_len(network):
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    record = engine.submit(0, decode_len=64.0)
    assert record.decode_len == 64 and type(record.decode_len) is int
    engine.drain()
    assert engine.completed == 1


def test_snapshot_tracks_progress(network):
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    assert engine.snapshot().offered == 0
    for index in range(10):
        engine.submit(index * 0.01, decode_len=64)
    mid = engine.snapshot()
    assert mid.offered == 10 and mid.completed == 0
    assert mid.in_flight == 10
    engine.drain()
    final = engine.snapshot()
    assert final.completed == 10 and final.in_flight == 0
    assert final.mean_ttft > 0 and final.mean_tpot > 0
    assert final.throughput > 0


def test_completion_listeners_fire_in_order(network):
    pm, schedule = network
    seen = []
    engine = ServingEngine(pm, schedule, on_complete=seen.append)
    second = []
    engine.add_listener(second.append)
    for index in range(5):
        engine.submit(index * 0.01, decode_len=32 * (index + 1))
    engine.drain()
    assert len(seen) == len(second) == 5
    # Completions arrive in completion-time order (shorter decode first).
    times = [record.completion_time for record in seen]
    assert times == sorted(times)
    assert seen == second


def test_records_hand_out_a_tuple_not_the_live_list(network):
    """Regression: ``records`` once returned the accumulator's own list,
    so appending to it inflated ``offered`` and ``in_flight``."""
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    engine.submit(0.0, decode_len=8)
    engine.drain()
    records = engine.records
    with pytest.raises(AttributeError):
        records.append(records[0])
    assert engine.offered == 1 and engine.in_flight == 0
    assert engine.report(engine.recorded_trace()).records == records


def test_records_are_sealed_before_listeners_see_them(network):
    from dataclasses import FrozenInstanceError

    pm, schedule = network
    seen = []
    engine = ServingEngine(pm, schedule, on_complete=seen.append)
    live = engine.submit(0.0, decode_len=8)
    engine.drain()
    (record,) = seen
    assert record is live
    with pytest.raises(FrozenInstanceError):
        record.completion_time = 0.0
    with pytest.raises(TypeError):
        record.stage_completions[Stage.DECODE] = 0.0
    assert record.completion_time > 0.0
    assert Stage.PREFIX in record.stage_completions


def test_live_record_maps_are_read_only_and_list_reached_stages(network):
    """A live record's stage maps are built from the engine's timing
    slabs on access: they list only the stages reached so far and
    reject writes like a sealed record's."""
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    record = engine.submit(0.0, decode_len=8)
    assert record.stage_enqueues == record.stage_completions \
        == record.queue_waits == {}
    engine.step(0.0)  # arrives and queues at retrieval, not dispatched
    assert record.completion_time is None
    assert record.stage_enqueues == {Stage.RETRIEVAL: 0.0}
    assert record.stage_completions == record.queue_waits == {}
    with pytest.raises(TypeError):
        record.stage_enqueues[Stage.PREFIX] = 1.0
    with pytest.raises(TypeError):
        record.queue_waits.update({Stage.RETRIEVAL: 1.0})
    engine.drain()
    assert set(record.stage_enqueues) == set(record.queue_waits) \
        == {Stage.RETRIEVAL, Stage.PREFIX, Stage.DECODE}
    assert set(record.stage_completions) == {Stage.RETRIEVAL,
                                             Stage.PREFIX}


def test_records_keep_their_stage_maps_after_the_engine_is_freed(network):
    """The timing holder references no engine: a report's records keep
    equal stage maps once their engine is collected."""
    import gc
    import weakref

    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    for index in range(20):
        engine.submit(index * 0.005, decode_len=64)
    engine.drain()
    report = engine.report(engine.recorded_trace())

    def maps():
        return [(dict(r.stage_enqueues), dict(r.stage_completions),
                 dict(r.queue_waits)) for r in report.records]

    before = maps()
    assert all(all(triple) for triple in before)
    engine_ref = weakref.ref(engine)
    del engine
    gc.collect()
    assert engine_ref() is None
    assert maps() == before


def test_pickled_record_size_does_not_grow_with_trace_length(network):
    """A pickled record carries its own row, never the engine's whole
    timing slabs."""
    import pickle

    pm, schedule = network
    sizes = []
    for count in (4, 400):
        engine = ServingEngine(pm, schedule)
        for index in range(count):
            engine.submit(index * 0.005, decode_len=8)
        engine.drain()
        record = engine.records[0]
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and clone.queue_waits == record.queue_waits
        sizes.append(len(pickle.dumps(record)))
    assert sizes[0] == sizes[1]


def test_recorded_trace_replays_identically(network):
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    for index in range(20):
        engine.submit(index * 0.005, decode_len=64)
    engine.drain()
    trace = engine.recorded_trace(source="unit-test")
    assert trace.scenario == "live"
    assert trace.metadata["source"] == "unit-test"
    assert trace.num_requests == 20
    replay = ServingSimulator(pm, schedule).run(trace)
    assert replay == engine.report(trace)


def test_recorded_trace_requires_submissions(network):
    pm, schedule = network
    with pytest.raises(ConfigError):
        ServingEngine(pm, schedule).recorded_trace()


def test_empty_engine_report_is_config_error(network):
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    engine.submit(0.0)
    # Nothing has run yet: zero completions cannot make a report.
    trace = engine.recorded_trace()
    with pytest.raises(ConfigError):
        engine.report(trace)


# -- streamed open-loop feed ---------------------------------------------


def _per_row(engine, trace):
    """The per-row loop a streamed feed must match: one submit per row,
    all before any event runs."""
    for arrival, length, user, session, tier in trace.rows():
        engine.submit(arrival, decode_len=length, user_id=user,
                      session_id=session, tier=tier)


def _assert_same_run(streamed, looped, trace):
    assert [_record_key(r) for r in streamed.records] \
        == [_record_key(r) for r in looped.records]
    assert streamed.report(trace) == looped.report(trace)
    assert streamed.events_processed == looped.events_processed


def test_submit_trace_queues_one_arrival_at_a_time(network):
    from repro.sim import submit_trace

    pm, schedule = network
    trace = poisson_trace(100, 1.0, seed=3, mean_decode_len=64)
    engine = ServingEngine(pm, schedule)
    submit_trace(engine, trace)
    assert len(engine.clock._queue) == 1
    assert engine.next_event_time() == trace.arrivals[0]
    assert engine.offered == 0 and engine.records == ()
    assert engine.snapshot().offered == 0
    middle = trace.arrivals[trace.num_requests // 2]
    engine.step(middle)
    # Only the rows the clock has reached have records so far.
    assert engine.offered == sum(arrival <= middle
                                 for arrival in trace.arrivals)
    assert engine.snapshot().offered == engine.offered
    engine.drain()
    assert engine.offered == engine.completed == trace.num_requests


def test_streamed_arrivals_tied_with_queued_events(network):
    """Rows arriving exactly when the first retrieval batch is flushed
    and when it completes run in the order N up-front submits give
    them: before the flush and the completion, whose events were
    queued after every reserved arrival. (Behind the flush instead,
    the first tied row would miss the batch.)"""
    from repro.sim import submit_trace
    from repro.workloads import trace_from_arrivals

    pm, schedule = network
    probe = ServingEngine(pm, schedule)
    probe.submit(0.0, decode_len=16)
    probe.drain()
    flushed = probe.records[0].queue_waits[Stage.RETRIEVAL]
    retrieved = probe.records[0].stage_completions[Stage.RETRIEVAL]
    assert 0.0 < flushed < retrieved
    trace = trace_from_arrivals(
        [0.0, flushed, flushed, retrieved, retrieved],
        decode_lens=[16, 8, 24, 8, 16])
    streamed, looped = ServingEngine(pm, schedule), \
        ServingEngine(pm, schedule)
    submit_trace(streamed, trace)
    _per_row(looped, trace)
    streamed.drain()
    looped.drain()
    _assert_same_run(streamed, looped, trace)
    # The first tied row made the flushed batch.
    assert streamed.records[1].stage_completions[Stage.RETRIEVAL] \
        == retrieved


def test_submit_trace_after_submit_and_step_matches_per_row(network):
    from repro.sim import submit_trace
    from repro.workloads import RequestTrace

    pm, schedule = network
    base = poisson_trace(150, 1.0, seed=5, mean_decode_len=64)
    trace = RequestTrace.from_columns(
        [arrival + 0.2 for arrival in base.arrivals], base.decode_lens)
    engines = ServingEngine(pm, schedule), ServingEngine(pm, schedule)
    for engine in engines:
        engine.submit(0.05, decode_len=32)
        # Still queued when the trace comes, tied with its first row.
        engine.submit(trace.arrivals[0], decode_len=48)
        engine.step(0.1)
    streamed, looped = engines
    submit_trace(streamed, trace)
    _per_row(looped, trace)
    streamed.drain()
    looped.drain()
    _assert_same_run(streamed, looped, trace)


def test_submit_trace_checks_before_queueing(network):
    from repro.sim import submit_trace
    from repro.workloads import trace_from_arrivals

    pm, schedule = network
    drained = ServingEngine(pm, schedule)
    drained.drain()
    behind = ServingEngine(pm, schedule)
    behind.step(2.0)
    bool_trace = trace_from_arrivals([0.0, 1.0])
    # A trace refuses a bool arrival; set one past that check to see
    # the engine's own.
    object.__setattr__(bool_trace, "arrivals", (True, 1.0))
    cases = ((drained, trace_from_arrivals([0.0]), "already drained"),
             (behind, trace_from_arrivals([1.0, 3.0]), "out-of-order"),
             (ServingEngine(pm, schedule), bool_trace,
              "arrival must be a finite number, got True"))
    for engine, trace, message in cases:
        with pytest.raises(ConfigError, match=message):
            submit_trace(engine, trace)
        assert len(engine.clock._queue) == 0 and engine.offered == 0


def test_streamed_row_is_checked_when_it_arrives(network):
    """A later row's decode length is checked (as submit checks it)
    when its arrival event runs, with the rows before it in flight."""
    from repro.sim import submit_trace
    from repro.workloads import RequestTrace

    pm, schedule = network
    trace = RequestTrace.from_columns([0.0, 0.5, 1.0], [8, 2.5, 8])
    engine = ServingEngine(pm, schedule)
    submit_trace(engine, trace)
    with pytest.raises(ConfigError, match="decode_len must be an integer"):
        engine.drain()
    assert engine.offered == 1


def test_streamed_rows_are_checked_once_each(network, monkeypatch):
    """A streamed row's arrival is checked when it is queued, not again
    when its event runs; per-row submits check each once too."""
    from repro.sim import submit_trace

    pm, schedule = network
    checked = []
    original = ServingEngine._check_submittable

    def counting(engine, arrival):
        checked.append(arrival)
        return original(engine, arrival)

    monkeypatch.setattr(ServingEngine, "_check_submittable", counting)
    trace = poisson_trace(120, 1.0, seed=9, mean_decode_len=64)
    streamed, looped = ServingEngine(pm, schedule), \
        ServingEngine(pm, schedule)
    submit_trace(streamed, trace)
    streamed.drain()
    assert checked == list(trace.arrivals)
    checked.clear()
    _per_row(looped, trace)
    looped.drain()
    assert checked == list(trace.arrivals)
    _assert_same_run(streamed, looped, trace)


def test_lifecycle_times_live_in_the_engine_columns(network):
    """First-token and completion times read the engine's per-request
    columns: None until reached, and not assignable on a live record."""
    pm, schedule = network
    engine = ServingEngine(pm, schedule)
    record = engine.submit(0.0, decode_len=8)
    assert record.request_id is record.slab
    assert record.first_token_time is None and record.completion_time is None
    assert record.ttft is None and record.tpot is None
    with pytest.raises(AttributeError):
        record.first_token_time = 1.0
    engine.drain()
    columns = engine._timings
    assert record.first_token_time == columns.first_token[record.slab]
    assert record.completion_time == columns.completion[record.slab]
    assert record.completion_time > record.first_token_time > 0.0
