"""Property-based tests (hypothesis) on core invariants."""

import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_search import (
    CollectAllFront,
    reference_allocations,
    reference_serial_merge,
)
from repro.errors import ConfigError
from repro.hardware import XPU_C
from repro.hardware.roofline import all_reduce_time, roofline_time
from repro.inference import DecodeModel, PrefillModel
from repro.inference.parallelism import ShardingPlan
from repro.models import LLAMA3_8B
from repro.pipeline import microbatch_ttft, simulate_iterative_decode
from repro.rago import pareto_front
from repro.rago.pareto import dominates
from repro.rago.allocation import enumerate_allocations
from repro.rago.search import (
    _merge_corner,
    _merge_count,
    _prune,
    _serial_merge,
    _Staircase,
)
from repro.retrieval.scann_model import ScaNNPerfModel
from repro.hardware.cpu import EPYC_MILAN
from repro.schema import Stage

positive_floats = st.floats(min_value=1e-3, max_value=1e15,
                            allow_nan=False, allow_infinity=False)


@given(flops=positive_floats, data=positive_floats)
def test_roofline_at_least_each_bound(flops, data):
    rate, bw = 1e12, 1e11
    t = roofline_time(flops, data, rate, bw)
    assert t >= flops / rate - 1e-12
    assert t >= data / bw - 1e-12


@given(size=positive_floats, chips=st.integers(2, 512))
def test_all_reduce_monotone_in_payload(size, chips):
    small = all_reduce_time(size, chips, 1e10)
    large = all_reduce_time(2 * size, chips, 1e10)
    assert large >= small


@given(points=st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                                 st.floats(0, 100, allow_nan=False)),
                       max_size=60))
def test_pareto_front_contains_no_dominated_point(points):
    front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
    for a in front:
        for b in front:
            if a is not b:
                assert not dominates(b[0], b[1], a[0], a[1])


@given(points=st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                                 st.floats(0, 100, allow_nan=False)),
                       min_size=1, max_size=60))
def test_every_point_dominated_by_or_on_front(points):
    front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
    for point in points:
        covered = any(f == point or dominates(f[0], f[1], point[0], point[1])
                      or (f[0] <= point[0] and f[1] >= point[1])
                      for f in front)
        assert covered


# Small shared value pools force exact ties: zero TTFTs, equal TTFT sums
# across different pairs (1 + 2 == 2 + 1 == 3 + 0), float sums that
# round to a tie (1e16 + 1 == 1e16), and equal QPS values on both sides.
_merge_ttfts = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0, 1e16])
_merge_qps = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0])
_merge_points = st.lists(st.tuples(_merge_ttfts, _merge_qps), max_size=40)


def _merge_front(tag, points):
    return _prune([(ttft, qps, ((Stage.PREFIX, index, tag),))
                   for index, (ttft, qps) in enumerate(points)])


@settings(max_examples=300)
@example(left=[(1e16, 1.0)], right=[(0.0, 2.0), (1.0, 3.0)])
@example(left=[(0.0, 2.0), (1.0, 3.0)], right=[(1.0, 2.0), (2.0, 3.0)])
# The walk's boundaries: the left side runs out first (its top QPS is
# below every right QPS), a single-point side, a QPS value both sides
# share at their last index, and a sum that rounds to a tie with the
# last kept one (1e16 + 1 == 1e16), which replaces it.
@example(left=[(0.0, 1.0), (1.0, 2.0)], right=[(0.1, 3.0), (2.0, 8.0)])
@example(left=[(0.3, 5.0)], right=[(0.0, 1.0), (0.1, 2.0), (1.0, 8.0)])
@example(left=[(0.0, 2.0), (1.0, 5.0)], right=[(0.2, 3.0), (0.3, 5.0)])
@example(left=[(1e16, 5.0)], right=[(0.0, 1.0), (1.0, 2.0)])
@given(left=_merge_points, right=_merge_points)
def test_serial_merge_equals_cross_product_then_prune(left, right):
    left, right = _merge_front("left", left), _merge_front("right", right)
    assert _serial_merge(left, right) == reference_serial_merge(left, right)


_merge_operand = st.lists(st.tuples(_merge_ttfts, _merge_qps), min_size=1,
                          max_size=40)


@settings(max_examples=300)
# A rounding tie at both levels: 1 + 1e16 == 0 + 1e16 replaces the first
# walk's point, and 1e16 + 1 == 1e16 + 0 the second walk's.
@example(left=[(0.0, 1.0), (1.0, 2.0)], right=[(1e16, 3.0)],
         tail=[(0.0, 1.0), (1.0, 5.0)])
@example(left=[(0.0, 2.0), (1.0, 5.0)], right=[(0.2, 3.0), (0.3, 5.0)],
         tail=None)
@given(left=_merge_operand, right=_merge_operand,
       tail=st.none() | _merge_operand)
def test_merge_count_and_corner_match_the_merge(left, right, tail):
    """The search's count walk and closed-form corner agree with the
    options the serial merges build, for two and for three operands."""
    operands = [_merge_front(tag, points) for tag, points
                in (("left", left), ("right", right), ("tail", tail))
                if points is not None]
    merged = functools.reduce(_serial_merge, operands)
    assert _merge_count(*operands) == len(merged)
    assert _merge_corner(*operands) == (merged[0][0], merged[-1][1])


@settings(max_examples=300)
@example(group_minimums=[3], budget=3)
@example(group_minimums=[1, 2, 1], budget=8)
@given(group_minimums=st.lists(st.integers(1, 40), max_size=5),
       budget=st.integers(-2, 80))
def test_allocations_match_the_recursive_reference(group_minimums, budget):
    """The flat enumerator yields the recursive generator's allocations
    in its order, and raises its one-line ConfigErrors."""
    def outcome(enumerate_):
        try:
            return list(enumerate_(group_minimums, budget))
        except ConfigError as error:
            assert "\n" not in str(error)
            return str(error)

    try:
        expected = outcome(reference_allocations)
    except IndexError:  # a minimum's power of two is over the budget
        expected = (f"group minimums {group_minimums} cannot fit in a "
                    f"{budget}-XPU budget")
    assert outcome(enumerate_allocations) == expected


# Plans' option lists from small pools, divided by a per-plan chip
# count: equal TTFTs across plans, zero TTFTs, equal QPS/chip from
# different plans (2 / 1 == 4 / 2), and whole duplicate plans.
_stream_plans = st.lists(
    st.tuples(st.lists(st.tuples(_merge_ttfts, _merge_qps), min_size=1,
                       max_size=6),
              st.sampled_from([1, 2, 4])),
    max_size=12)


@settings(max_examples=300)
@example(plans=[([(0.0, 2.0)], 1), ([(0.0, 4.0)], 2), ([(0.0, 2.0)], 1)])
@example(plans=[([(1.0, 2.0), (2.0, 8.0)], 1), ([(0.0, 1.0)], 1),
                ([(1.0, 8.0)], 1)])
@given(plans=_stream_plans)
def test_staircase_keeps_exactly_the_pareto_front(plans):
    """Streaming plans through the staircase as the search does (skip a
    plan whose corner is covered, else offer each option) keeps exactly
    the items one Pareto pass over every candidate keeps, as the same
    objects."""
    staircase, pile = _Staircase(), CollectAllFront()
    for points, chips in plans:
        options = [(ttft, qps / chips, object())
                   for ttft, qps, _ in _merge_front("plan", points)]
        for candidate in options:
            pile.offer(*candidate)
        if staircase.covers(options[0][0], options[-1][1]):
            continue
        for candidate in options:
            staircase.offer(*candidate)
    kept, expected = staircase.items, pile.items
    assert len(kept) == len(expected)
    assert all(a is b for a, b in zip(kept, expected))
    assert staircase.ttft == sorted(set(staircase.ttft))
    assert staircase.qps == sorted(set(staircase.qps))


@settings(deadline=None, max_examples=20)
@given(batch=st.sampled_from([1, 2, 4, 8, 16, 32]),
       chips=st.sampled_from([1, 2, 4, 8]))
def test_prefill_throughput_never_negative_and_latency_positive(batch, chips):
    model = PrefillModel(XPU_C)
    frontier = model.pareto_perfs(LLAMA3_8B, chips, batch, 512)
    for perf in frontier:
        assert perf.latency > 0
        assert perf.throughput > 0


@settings(deadline=None, max_examples=20)
@given(batch=st.sampled_from([1, 4, 16, 64]))
def test_decode_step_monotone_in_context(batch):
    model = DecodeModel(XPU_C)
    plan = ShardingPlan(1, 1)
    short = model.step_latency(LLAMA3_8B, plan, batch, 256)
    long = model.step_latency(LLAMA3_8B, plan, batch, 4096)
    assert long >= short


@settings(deadline=None, max_examples=15)
@given(bytes_per_query=st.floats(1e3, 1e10),
       batch=st.integers(1, 1024))
def test_retrieval_latency_monotone_in_batch(bytes_per_query, batch):
    model = ScaNNPerfModel(EPYC_MILAN, base_latency=0.0)
    lat = model.batch_latency(bytes_per_query, batch)
    lat2 = model.batch_latency(bytes_per_query, batch + 32)
    assert lat2 >= lat - 1e-12


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 1000),
       decode_batch=st.sampled_from([2, 8, 32]),
       iterative_batch=st.sampled_from([1, 4, 16]),
       retrievals=st.integers(0, 4))
def test_iterative_des_conservation(seed, decode_batch, iterative_batch,
                                    retrievals):
    result = simulate_iterative_decode(
        decode_batch=decode_batch, iterative_batch=iterative_batch,
        decode_len=64, retrievals_per_seq=retrievals,
        iteration_latency=0.25, seed=seed)
    # Total time is at least the no-retrieval decoding time, and each
    # retrieval batch dispatch is bounded by total retrievals issued.
    assert result.normalized_latency >= 1.0 - 1e-9
    assert result.dispatches <= decode_batch * max(retrievals, 1)
    if retrievals == 0:
        assert result.dispatches == 0


@settings(deadline=None, max_examples=20)
@given(burst=st.integers(1, 64), micro=st.integers(1, 64),
       per_item=st.floats(1e-4, 1e-1), fixed=st.floats(0, 1e-1))
def test_microbatch_full_batch_is_upper_bound_for_linear_stages(
        burst, micro, per_item, fixed):
    # With purely linear stages (zero fixed cost), micro-batching never
    # hurts the mean TTFT.
    stages = [lambda b, p=per_item: p * b] * 3
    full = microbatch_ttft(stages, burst, burst)
    micro_ttft = microbatch_ttft(stages, burst, micro)
    assert micro_ttft <= full + 1e-9


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 50), rate=st.floats(10.0, 200.0))
def test_serving_des_conservation(seed, rate):
    # Every offered request either completes or is still in flight at the
    # horizon; completions respect stage ordering and arrival causality.
    from repro.hardware import ClusterSpec
    from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
    from repro.schema import Stage as S, case_i_hyperscale
    from repro.sim import ServingSimulator
    from repro.workloads import poisson_trace

    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((S.PREFIX,), 16),
                PlacementGroup((S.DECODE,), 16)),
        batches={S.PREFIX: 8, S.DECODE: 128, S.RETRIEVAL: 16},
    )
    sim = ServingSimulator(pm, schedule)
    # rate >= 10 over 1 s: no seed in 0..50 draws an empty trace (the
    # first Exp(1) draw of each seed is below 5).
    report = sim.run(poisson_trace(rate, duration=1.0, seed=seed))
    assert report.completed == report.offered
    for record in report.records:
        assert record.first_token_time is not None
        assert record.first_token_time >= record.arrival
        assert record.completion_time >= record.first_token_time


# ---------------------------------------------------------------------------
# Trace replay memo: keys, determinism and sealed-record copies.
# ---------------------------------------------------------------------------


def _replay_session():
    from repro.hardware import ClusterSpec
    from repro.pipeline import PlacementGroup, Schedule
    from repro.rago import OptimizerSession
    from repro.schema import Stage as S, case_i_hyperscale

    schedule = Schedule(
        groups=(PlacementGroup((S.PREFIX,), 16),
                PlacementGroup((S.DECODE,), 16)),
        batches={S.PREFIX: 8, S.DECODE: 128, S.RETRIEVAL: 16},
    )
    return OptimizerSession(case_i_hyperscale("8B"),
                            ClusterSpec(num_servers=32)), schedule


@functools.lru_cache(maxsize=None)
def _key_session():
    return _replay_session()


def _memo_key(trace):
    from repro.sim import SLOTarget
    from repro.sim.policies import (resolve_admission_policy,
                                    resolve_dispatch_policy)

    session, schedule = _key_session()
    return session._trace_key(schedule, trace, SLOTarget(),
                              resolve_dispatch_policy(None),
                              resolve_admission_policy(None))


# Small pools make equal and near-equal traces common: -0.0 vs 0.0,
# None vs "" identity, unset vs set decode_len, unicode ids.
_key_arrivals = st.sampled_from([0.0, -0.0, 0.5, 1.0])
_key_identity = st.sampled_from([None, "", "u1", "ü", "用户", " "])


@st.composite
def _key_traces(draw):
    from repro.workloads import Request, RequestTrace

    count = draw(st.integers(1, 3))
    arrivals = sorted(draw(st.lists(_key_arrivals, min_size=count,
                                    max_size=count)))
    with_lens = draw(st.booleans())
    requests = [Request(arrival=arrival,
                        decode_len=(draw(st.sampled_from([1, 64]))
                                    if with_lens else None),
                        user_id=draw(_key_identity),
                        session_id=draw(_key_identity),
                        tier=draw(_key_identity))
                for arrival in arrivals]
    metadata = draw(st.sampled_from([{}, {"scenario": "x"},
                                     {"scenario": "x", "seed": 0}]))
    return RequestTrace(requests=requests, metadata=metadata)


def _request_trace(**fields):
    from repro.workloads import Request, RequestTrace

    return RequestTrace(requests=[Request(**fields)])


@settings(max_examples=300)
@example(left=_request_trace(arrival=0.0), right=_request_trace(arrival=-0.0))
@example(left=_request_trace(arrival=0.0, tier=""),
         right=_request_trace(arrival=0.0))
@example(left=_request_trace(arrival=0.0, decode_len=64),
         right=_request_trace(arrival=0.0))
@example(left=_request_trace(arrival=1.0, user_id="ü"),
         right=_request_trace(arrival=1.0, user_id="ü"))
@given(left=_key_traces(), right=_key_traces())
def test_trace_memo_key_matches_config_envelope(left, right):
    from repro import config

    same_key = _memo_key(left) == _memo_key(right)
    assert same_key == (config.dumps(left) == config.dumps(right))


def _fields(record):
    """Every dataclass field of ``record`` plus its first-token and
    completion times and its three stage maps (read-only properties
    over the engine's timing columns, not fields)."""
    from dataclasses import fields

    return (*(getattr(record, spec.name) for spec in fields(record)),
            record.first_token_time, record.completion_time,
            record.stage_completions, record.stage_enqueues,
            record.queue_waits)


def test_trace_replay_is_byte_identical_across_memo_and_sessions():
    """One seed, one report: a memo miss, a memo hit and a fresh
    session serialize byte-identically and carry field-for-field equal
    records."""
    from repro import config
    from repro.workloads import poisson_trace

    trace = poisson_trace(60, 1.0, seed=7)
    session, schedule = _replay_session()
    miss = session.evaluate_trace(schedule, trace)
    hit = session.evaluate_trace(schedule, trace)
    fresh_session, _ = _replay_session()
    fresh = fresh_session.evaluate_trace(schedule, poisson_trace(60, 1.0,
                                                                 seed=7))
    assert config.dumps(miss) == config.dumps(hit) == config.dumps(fresh)
    assert miss.completed == miss.offered == trace.num_requests
    assert [_fields(r) for r in miss.records] \
        == [_fields(r) for r in hit.records] \
        == [_fields(r) for r in fresh.records]


def test_sealed_records_and_reports_survive_pickle_and_deepcopy():
    import copy
    import pickle
    from dataclasses import FrozenInstanceError

    from repro.workloads import poisson_trace

    session, schedule = _replay_session()
    report = session.evaluate_trace(schedule, poisson_trace(60, 1.0, seed=3))
    record = report.records[0]
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  copy.copy(record)):
        assert clone == record and _fields(clone) == _fields(record)
        assert type(clone) is type(record)
        with pytest.raises(FrozenInstanceError):
            clone.completion_time = None
        with pytest.raises(TypeError):
            clone.queue_waits.clear()
    for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert clone == report
        assert [_fields(r) for r in clone.records] \
            == [_fields(r) for r in report.records]


# ---------------------------------------------------------------------------
# Closed loops on one fleet clock.
# ---------------------------------------------------------------------------


_population_args = dict(
    seed=st.integers(0, 1000), users=st.integers(1, 12),
    think=st.sampled_from([0.0, 0.01, 0.05]),
    concurrency=st.integers(1, 3), tiered=st.booleans())


def _closed_loop_report(target_of, seed, users, think, concurrency,
                        tiered):
    """Run one closed loop on ``target_of(pm, schedule, admission)``;
    returns (driver, target, report JSON)."""
    from repro import config
    from repro.workloads import (ClosedLoopDriver, UserPopulation,
                                 resolve_tier_policy)

    session, schedule = _key_session()
    population = UserPopulation(
        users=users, think_time=think, concurrency=concurrency,
        session_len=2, seed=seed,
        tiers=resolve_tier_policy("free-paid" if tiered else "single"))
    target = target_of(session.perf_model, schedule,
                       "priority" if tiered else None)
    driver = ClosedLoopDriver(population, target, horizon=1.0)
    driver.run()
    trace = target.recorded_trace(scenario="sessions")
    return driver, target, config.dumps(target.report(trace))


@settings(deadline=None, max_examples=25)
@given(**_population_args)
def test_one_replica_fleet_closed_loop_matches_bare_engine(
        seed, users, think, concurrency, tiered):
    from repro.sim import FleetEngine, ServingEngine

    _, engine, bare = _closed_loop_report(
        lambda pm, schedule, admission: ServingEngine(
            pm, schedule, admission=admission),
        seed, users, think, concurrency, tiered)
    _, fleet, fleet_json = _closed_loop_report(
        lambda pm, schedule, admission: FleetEngine(
            pm, schedule, replicas=1, admission=admission),
        seed, users, think, concurrency, tiered)
    assert fleet_json == bare
    assert [_fields(r) for r in fleet.records] \
        == [_fields(r) for r in engine.records]


@settings(deadline=None, max_examples=25)
@given(replicas=st.integers(2, 4),
       routing=st.sampled_from(["session-affine", "least-in-flight",
                                "round-robin", "power-of-two-choices"]),
       **_population_args)
def test_fleet_closed_loop_loses_nothing_and_repeats_exactly(
        replicas, routing, seed, users, think, concurrency, tiered):
    from repro.sim import FleetEngine

    def fleet_of(pm, schedule, admission):
        return FleetEngine(pm, schedule, replicas=replicas,
                           routing=routing, admission=admission)

    runs = [_closed_loop_report(fleet_of, seed, users, think, concurrency,
                                tiered) for _ in range(2)]
    for driver, fleet, _ in runs:
        assert driver.submitted == driver.completed \
            == fleet.offered == fleet.completed > 0
        assert fleet.in_flight == 0
    assert runs[0][2] == runs[1][2]


# ---------------------------------------------------------------------------
# Decode skip-ahead: bit-identical to the per-step reference.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _decode_network(kind):
    """A network whose small decode batch random traces can fill:
    Case I (``plain``) or Case III with decoder-initiated retrievals
    (``iterative``)."""
    from repro.hardware import ClusterSpec
    from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
    from repro.schema import case_i_hyperscale, case_iii_iterative

    if kind == "plain":
        schema = case_i_hyperscale("8B")
    else:
        schema = case_iii_iterative("8B", retrieval_frequency=4)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 16),
                PlacementGroup((Stage.DECODE,), 16)),
        batches={Stage.PREFIX: 8, Stage.DECODE: 6, Stage.RETRIEVAL: 16},
        iterative_batch=4 if kind == "iterative" else None)
    return RAGPerfModel(schema, ClusterSpec(num_servers=32)), schedule


def _decode_admission(name):
    from repro.sim.policies import PriorityAdmission, TokenBudgetAdmission

    return {"greedy": None,
            "token-budget": TokenBudgetAdmission(max_tokens=256),
            "priority": PriorityAdmission()}[name]


@settings(deadline=None, max_examples=40)
@given(requests=st.lists(
           st.tuples(st.floats(0.0, 0.25, allow_nan=False),
                     st.integers(1, 96),
                     st.sampled_from([None, "free", "paid"])),
           min_size=1, max_size=40),
       admission=st.sampled_from(["greedy", "token-budget", "priority"]),
       kind=st.sampled_from(["plain", "iterative"]))
# Two decode departures land on the iterative retrieval station at the
# exact time its partial-batch flush fires; the flush was pushed after
# the sleep began but before the boundary ahead, so it runs first.
@example(requests=[(0.1875, 2, None), (0.1875, 3, None), (0.125, 10, None),
                   (0.09375, 7, None), (0.046875, 4, None),
                   (0.0625, 8, None), (0.0, 1, None), (0.0, 4, None),
                   (0.0, 4, None), (0.0, 4, None), (0.125, 12, None),
                   (0.1875, 2, None), (0.1875, 2, None), (0.0625, 4, None),
                   (0.1875, 6, None)],
         admission="greedy", kind="iterative")
def test_decode_skip_ahead_matches_per_step_reference(requests, admission,
                                                      kind):
    """Bursts of up to 40 requests within a quarter second fill the
    6-slot decode batch, so the executor sleeps with nothing waiting,
    sleeps full with a queue (greedy, priority), steps per boundary
    (token budget) and wakes on arrivals mid-sleep."""
    from reference_engine import ReferenceServingEngine, per_step_events
    from repro.sim import ServingEngine

    pm, schedule = _decode_network(kind)
    fast, reference = (
        engine_cls(pm, schedule, admission=_decode_admission(admission))
        for engine_cls in (ServingEngine, ReferenceServingEngine))
    for engine in (fast, reference):
        for arrival, length, tier in requests:
            engine.submit(arrival, decode_len=length, tier=tier)
        engine.drain()
    assert [_fields(r) for r in fast.records] \
        == [_fields(r) for r in reference.records]
    assert fast.busy_times() == reference.busy_times()
    trace = fast.recorded_trace()
    assert fast.report(trace) == reference.report(trace)
    assert per_step_events(fast) == reference.events_processed


# ---------------------------------------------------------------------------
# Fleet replicas count; the fleet's one accumulator records.
# ---------------------------------------------------------------------------


def _accumulator_over(schema, records, finish_order):
    """An eager oracle: a full accumulator with ``records`` added in
    order, then the ones in ``finish_order`` finished in that order,
    each folded into the reservoirs as it finishes (an accumulator
    itself folds lazily, at its next read)."""
    from repro.sim.metrics import MetricsAccumulator

    accumulator = MetricsAccumulator(schema)
    for record in records:
        accumulator.add(record)
    for record in finish_order:
        accumulator.finish(record)
        accumulator._fold()
    return accumulator


@st.composite
def _identity_traces(draw):
    from repro.workloads import Request, RequestTrace

    count = draw(st.integers(1, 30))
    arrivals = sorted(draw(st.lists(st.floats(0.0, 0.5, allow_nan=False),
                                    min_size=count, max_size=count)))
    requests = []
    for arrival in arrivals:
        user = draw(st.sampled_from([None, "u0", "u1", "u2", "u3"]))
        requests.append(Request(
            arrival=arrival, decode_len=draw(st.integers(1, 96)),
            user_id=user,
            session_id=None if user is None else f"s-{user}",
            tier=draw(st.sampled_from([None, "free", "paid"]))))
    return RequestTrace(requests=tuple(requests),
                        metadata={"scenario": "property"})


def _identity_trace(*requests):
    from repro.workloads import Request, RequestTrace

    return RequestTrace(
        requests=tuple(Request(arrival=arrival, decode_len=length,
                               user_id=user, session_id=user, tier=tier)
                       for arrival, length, user, tier in requests),
        metadata={"scenario": "property"})


@settings(deadline=None, max_examples=30)
# One user on two tiers, finishing out of submission order: the per-user
# tier is the tier of the user's last completion.
@example(trace=_identity_trace((0.0, 2, "u0", None), (0.0, 1, None, None),
                               (0.0, 1, "u0", "free")),
         replicas=1, routing="round-robin", admission=None)
# Two replicas, each finishing requests between the stepped horizons.
@example(trace=_identity_trace((0.0, 8, "u0", "paid"), (0.02, 4, None, None),
                               (0.12, 16, "u1", "free"),
                               (0.15, 2, None, None),
                               (0.25, 8, "u2", "free"),
                               (0.28, 1, None, "paid"),
                               (0.4, 4, "u0", "paid")),
         replicas=2, routing="round-robin", admission=None)
@given(trace=_identity_traces(), replicas=st.integers(1, 4),
       routing=st.sampled_from(["round-robin", "least-in-flight",
                                "session-affine"]),
       admission=st.sampled_from([None, "priority"]))
def test_fleet_replica_artifacts_equal_full_accumulator_fold(
        trace, replicas, routing, admission):
    """A fleet replica keeps only counters, yet its replica_stats row,
    its own report() and the fleet's report() equal full accumulators
    over the same records, finished in the order the fleet saw them
    complete -- mid-run and after the drain."""
    from repro.sim import FleetEngine, SLOTarget, submit_trace

    pm, schedule = _decode_network("plain")
    fleet = FleetEngine(pm, schedule, replicas=replicas, routing=routing,
                        admission=admission)
    done = []
    fleet.add_listener(done.append)
    submit_trace(fleet, trace)
    slo = SLOTarget(ttft=0.05, tpot=0.002)

    def oracle(records):
        ids = {id(record) for record in records}
        return _accumulator_over(
            pm.schema, records,
            [record for record in done if id(record) in ids])

    # A replica folds its latencies lazily, at its next snapshot, over
    # every completion since the last one: step in increments, one of
    # them (0.2) read by no snapshot, so a fold spans two steps.
    for horizon in (0.1, 0.2, 0.3, 0.45, None):
        if horizon is None:
            fleet.drain()
        else:
            fleet.step(horizon)
        if horizon == 0.2:
            continue
        for entry, row in zip(fleet._engines, fleet.replica_stats()):
            engine = entry.engine
            expected = oracle(engine.records).snapshot(engine.now)
            assert engine.snapshot() == entry.tally.accumulator().snapshot(
                engine.now) == expected
            assert row["offered"] == expected.offered
            assert row["completed"] == expected.completed
            assert row["in_flight"] == expected.in_flight
            assert (row["throughput"], row["mean_ttft"],
                    row["mean_tpot"]) == (expected.throughput,
                                          expected.mean_ttft,
                                          expected.mean_tpot)
    for engine in fleet.engines:
        full = oracle(engine.records)
        assert engine.tier_counts() == full.tier_counts()
        if engine.offered:
            assert engine.recorded_trace() == full.recorded_trace()
        if engine.completed:
            assert engine.report(trace, slo=slo) == full.report(
                trace, slo, engine.busy_times())
    merged = oracle(fleet.records)
    assert fleet.report(trace, slo=slo) == merged.report(
        trace, slo, fleet.busy_times())
    assert fleet.snapshot() == merged.snapshot(fleet.now)


@settings(deadline=None, max_examples=30)
@given(trace=_identity_traces(),
       admission=st.sampled_from([None, "priority"]))
def test_engine_reads_mid_run_equal_an_eager_fold(trace, admission):
    """A standalone engine's accumulator folds its completions at the
    next read, not as they finish: snapshot, tier_counts and report
    taken at several horizons (one read by nothing, so a fold spans
    two steps) equal an oracle that folded each completion as it
    finished."""
    from repro.sim import ServingEngine, SLOTarget, submit_trace

    pm, schedule = _decode_network("plain")
    engine = ServingEngine(pm, schedule, admission=admission)
    done = []
    engine.add_listener(done.append)
    submit_trace(engine, trace)
    slo = SLOTarget(ttft=0.05, tpot=0.002)
    for horizon in (0.1, 0.2, 0.3, 0.45, None):
        if horizon is None:
            engine.drain()
        else:
            engine.step(horizon)
        if horizon == 0.2:
            continue
        oracle = _accumulator_over(pm.schema, engine.records, done)
        assert engine.snapshot() == oracle.snapshot(engine.now)
        assert engine.tier_counts() == oracle.tier_counts()
        if done:
            assert engine.report(trace, slo=slo) == oracle.report(
                trace, slo, engine.busy_times())
    assert len(done) == engine.completed == len(trace.arrivals)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**16), replicas=st.integers(1, 4),
       routing=st.sampled_from([None, "round-robin", "least-in-flight",
                                "session-affine", "power-of-two-choices"]),
       autoscale=st.sampled_from([
           None, "policy=queue-depth,min=1,max=3,interval=0.05,up=4,down=1",
           "policy=slo-attainment,min=1,max=4,interval=0.1"]))
def test_open_loop_fleet_replay_repeats_exactly(seed, replicas, routing,
                                                autoscale):
    """Determinism under a seed: two fresh build_fleet +
    replay_open_loop runs over one trace give the same report JSON,
    byte for byte, and the same scaling timeline."""
    from repro import config
    from repro.sim.autoscale import (
        build_fleet,
        parse_autoscale_spec,
        replay_open_loop,
    )
    from repro.sim.metrics import SLOTarget
    from repro.workloads.traces import diurnal_trace

    pm, schedule = _decode_network("plain")
    trace = diurnal_trace(200.0, 1.5, seed=seed, mean_decode_len=64)
    slo = SLOTarget(ttft=0.05, tpot=0.002)

    def replay():
        fleet, autoscaler = build_fleet(
            pm, schedule, replicas=replicas, routing=routing,
            autoscale=autoscale and parse_autoscale_spec(autoscale),
            slo=slo)
        replay_open_loop(fleet, autoscaler, trace)
        return (config.dumps(fleet.report(trace, slo=slo)),
                autoscaler and autoscaler.timeline())

    assert replay() == replay()


def _old_power_of_two_select(rng, replicas, depths):
    """``PowerOfTwoChoicesRouting.select`` as it was before one tail
    served live and stale depths: a view map, candidates indexed over
    the sorted slots, ``depths`` the policy's snapshot."""
    by_index = {view.index: view for view in replicas}
    indices = sorted(by_index)
    if len(indices) == 1:
        return indices[0]
    first, second = (indices[slot]
                     for slot in rng.sample_pair(len(indices)))
    return min((first, second),
               key=lambda i: (depths[i], by_index[i].submitted, i))


# Small pools force ties on in-flight depth and submitted counts.
_routing_views = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=6)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**31),
       stale_after=st.sampled_from([0.0, 0.015]),
       decisions=st.lists(
           st.tuples(st.sets(st.integers(0, 9), min_size=1, max_size=6),
                     _routing_views), min_size=1, max_size=20))
def test_power_of_two_choices_equal_the_old_selection(seed, stale_after,
                                                      decisions):
    from repro.sim.rng import DeterministicRNG
    from repro.sim.routing import PowerOfTwoChoicesRouting, ReplicaView

    policy = PowerOfTwoChoicesRouting(seed=seed, stale_after=stale_after)
    # A twin policy supplies the snapshot the old code read (live
    # depths when stale_after == 0).
    twin = PowerOfTwoChoicesRouting(seed=seed, stale_after=stale_after)
    rng = DeterministicRNG(seed)
    for step, (slots, states) in enumerate(decisions):
        views = [ReplicaView(index=slot, in_flight=in_flight,
                             submitted=submitted)
                 for slot, (in_flight, submitted)
                 in zip(sorted(slots), states * len(slots))]
        now = 0.01 * step
        assert policy.select(views, now=now) == _old_power_of_two_select(
            rng, views, twin._snapshot(views, now))


#: Every registered routing policy, plus power-of-two-choices on stale
#: queue depths.
_PARITY_POLICIES = ("round-robin", "least-in-flight", "weighted-qps",
                    "power-of-two-choices", "power-of-two-choices-stale",
                    "join-idle-queue", "session-affine")


def _parity_policy(name):
    from repro.sim.routing import ROUTING_POLICIES, PowerOfTwoChoicesRouting

    if name == "power-of-two-choices-stale":
        return PowerOfTwoChoicesRouting(seed=7, stale_after=0.01)
    return ROUTING_POLICIES[name]()


def _routed_generations(fleet_class, name, rows, alternate):
    """Drive a 2-replica fleet through ``rows`` (arrival, decode length,
    session, membership op) and answer, per request in submission
    order, the engine generation it was routed to."""
    pm, schedule = _decode_network("plain")
    fleet = fleet_class(pm, schedule, replicas=2,
                        routing=_parity_policy(name))
    for arrival, length, session, op in rows:
        fleet.step(arrival)
        if op == "add":
            fleet.add_replica(alternate)
        elif op == "remove" and fleet.replicas > 1:
            fleet.remove_replica()
        elif op is not None and op.startswith("swap"):
            slots = fleet.active_slots
            fleet.swap_replica(slots[int(op[4:]) % len(slots)], alternate)
        fleet.submit(arrival, decode_len=length, session_id=session)
    fleet.drain()
    generation = {id(record): index
                  for index, engine in enumerate(fleet.engines)
                  for record in engine.records}
    return [generation[id(record)] for record in fleet.records]


@st.composite
def _membership_traces(draw):
    count = draw(st.integers(1, 40))
    arrivals = sorted(draw(st.lists(st.floats(0.0, 0.4, allow_nan=False),
                                    min_size=count, max_size=count)))
    return [(arrival, draw(st.integers(1, 64)),
             draw(st.sampled_from([None, "s0", "s1", "s2"])),
             draw(st.sampled_from([None, None, None, "add", "remove",
                                   "swap0", "swap1"])))
            for arrival in arrivals]


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(_PARITY_POLICIES), rows=_membership_traces())
def test_live_routing_views_route_like_fresh_views(name, rows):
    """A fleet refreshes one live ReplicaView per active slot in place;
    every arrival lands on the slot a reference fleet picks from fresh
    views of ``(tally.in_flight, submitted, weight)`` built per
    arrival, through adds, removes and swaps mid-trace (the swapped-in
    and added engines run a schedule of another weight)."""
    from repro.pipeline import PlacementGroup, Schedule
    from repro.sim.fleet import FleetEngine
    from repro.sim.routing import ReplicaView, ROUTING_POLICIES

    class FreshViewFleet(FleetEngine):
        def submit(self, arrival, decode_len=None, **identity):
            self._routes = []  # nothing is refreshed in place
            self._candidates = [
                ReplicaView(index=slot, in_flight=entry.tally.in_flight,
                            submitted=self._submitted[slot],
                            weight=entry.weight)
                for slot, entry in sorted(self._active.items())]
            return super().submit(arrival, decode_len, **identity)

    assert set(ROUTING_POLICIES) <= set(_PARITY_POLICIES)
    alternate = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 8),
                PlacementGroup((Stage.DECODE,), 8)),
        batches={Stage.PREFIX: 4, Stage.DECODE: 4, Stage.RETRIEVAL: 8})
    assert _routed_generations(FleetEngine, name, rows, alternate) \
        == _routed_generations(FreshViewFleet, name, rows, alternate)


# ---------------------------------------------------------------------------
# Hostile envelopes: a valid envelope with one leaf (or its kind)
# replaced by junk must load or fail with a one-line ConfigError --
# never a TypeError traceback out of `repro optimize --config`.
# ---------------------------------------------------------------------------

def _fuzzed_artifacts():
    from repro import config
    from repro.hardware.cluster import ClusterSpec
    from repro.pipeline import PlacementGroup, Schedule
    from repro.rago.search import SearchConfig
    from repro.schema import case_i_hyperscale, case_iii_iterative
    from repro.serve import ServeConfig
    from repro.sim.autoscale import AutoscaleConfig
    from repro.workloads import Request, RequestTrace

    cluster = ClusterSpec(num_servers=16)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 4),
                PlacementGroup((Stage.DECODE,), 8)),
        batches={Stage.PREFIX: 8, Stage.RETRIEVAL: 8, Stage.DECODE: 64},
        retrieval_servers=2,
        shard_plans={Stage.PREFIX: ShardingPlan(2, 2)})
    return {
        "rag_schema-i": case_i_hyperscale("1B"),
        "rag_schema-iii": case_iii_iterative("8B"),
        "cluster_spec": cluster,
        "schedule": schedule,
        "search_config": SearchConfig(max_batch=8, allocations=[(2, 4)]),
        "serve_config": ServeConfig(replicas=2, routing="least-in-flight",
                                    autoscale=AutoscaleConfig()),
        "autoscale_config": AutoscaleConfig(policy="slo-attainment"),
        "request_trace": RequestTrace(requests=(
            Request(0.0, 8, user_id="u0", session_id="s0", tier="paid"),
            Request(0.5, 4))),
        "optimization_config": config.OptimizationConfig(
            schema=case_i_hyperscale("1B"), cluster=cluster,
            search=SearchConfig(max_batch=8)),
    }


@functools.lru_cache(maxsize=None)
def _valid_envelopes():
    """Envelope JSON text per fuzzed artifact (parsed afresh per case)."""
    from repro import config

    return {name: json.dumps(config.to_config(artifact))
            for name, artifact in _fuzzed_artifacts().items()}


def _leaf_paths(node, path=()):
    """Key paths to every scalar or empty container under ``node``."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for index, value in enumerate(node):
            yield from _leaf_paths(value, path + (index,))
    else:
        yield path


_junk_values = st.one_of(
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.none(),
    st.text(max_size=4),
    st.integers(max_value=-1),
    st.sampled_from([1e308, 10**30, float("nan")]),
)


@pytest.mark.parametrize("name", [
    "rag_schema-i", "rag_schema-iii", "cluster_spec", "schedule",
    "search_config", "serve_config", "autoscale_config", "request_trace",
    "optimization_config"])
@settings(deadline=None, max_examples=40)
@example(pick=0, junk=[])  # path 0 is the (then unhashable) kind
@given(pick=st.integers(min_value=0, max_value=10_000), junk=_junk_values)
def test_envelope_with_one_junk_leaf_loads_or_fails_in_one_line(name, pick,
                                                                 junk):
    from repro import config
    from repro.errors import ConfigError

    envelope = json.loads(_valid_envelopes()[name])
    paths = [("kind",)] + [("spec",) + path
                           for path in _leaf_paths(envelope["spec"])]
    path = paths[pick % len(paths)]
    node = envelope
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = junk
    try:
        config.from_config(envelope)
    except ConfigError as error:
        assert "\n" not in str(error)


# ---------------------------------------------------------------------------
# Hostile text: the CLI spec parsers, the yamlish loader and the JSONL
# trace loader either load arbitrary text or fail with a one-line
# ConfigError.
# ---------------------------------------------------------------------------

_any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


def _spliced(tokens):
    """Arbitrary text, or text spliced from a grammar's own tokens (so
    draws get past the first syntax check)."""
    return st.one_of(
        _any_text,
        st.lists(st.sampled_from(tokens), max_size=12).map("".join))


def _loads_or_fails_in_one_line(parse, text):
    from repro.errors import ConfigError

    try:
        parse(text)
    except ConfigError as error:
        assert "\n" not in str(error)


_SPEC_TOKENS = [
    "=", ",", ":", "|", " ", "policy", "queue-depth", "slo-attainment",
    "min", "max", "interval", "cooldown", "up", "down", "token-budget",
    "priority", "greedy", "custom", "free", "paid", "free-paid", "users",
    "think", "concurrency", "session", "decode", "seed", "tiers", "0", "1",
    "2.5", "-1", "nan", "inf", "1e308", "x"]


@pytest.mark.parametrize("parser", ["autoscale", "admission", "tiers",
                                    "population"])
@settings(max_examples=150)
@given(spec=_spliced(_SPEC_TOKENS))
def test_spec_parser_loads_or_fails_in_one_line(parser, spec):
    from repro.sim.autoscale import parse_autoscale_spec
    from repro.sim.policies import parse_admission_policy
    from repro.workloads.sessions import (parse_population_spec,
                                          parse_tiers_spec)

    parse = {"autoscale": parse_autoscale_spec,
             "admission": parse_admission_policy,
             "tiers": parse_tiers_spec,
             "population": parse_population_spec}[parser]
    _loads_or_fails_in_one_line(parse, spec)


_YAML_TOKENS = [
    "\n", "  ", " ", "-", ":", "#", "'", '"', "[", "]", "{", "}", ",", "&",
    "*", "!", "|", ">", "%", "---", "...", "\t", "key", "a", "1", "1.5",
    "null", "true", "~", "nan", "1e999"]


@settings(max_examples=300)
@given(text=_spliced(_YAML_TOKENS))
def test_yamlish_loads_or_fails_in_one_line(text):
    from repro.config import yamlish

    _loads_or_fails_in_one_line(yamlish.loads, text)


_jsonl_rows = st.dictionaries(
    st.sampled_from(["arrival", "decode_len", "user_id", "session_id",
                     "tier", "metadata"]),
    st.one_of(_junk_values, st.floats(0, 10), st.integers(1, 64)),
    max_size=4).map(json.dumps)


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.one_of(_jsonl_rows, _any_text),
                     max_size=6).map("\n".join))
def test_jsonl_trace_loads_or_fails_in_one_line(tmp_path_factory, text):
    from repro.workloads import RequestTrace

    path = tmp_path_factory.getbasetemp() / "hostile.jsonl"
    path.write_text(text, encoding="utf-8")
    _loads_or_fails_in_one_line(RequestTrace.from_jsonl, str(path))


_identity = st.none() | st.text(max_size=8)


@st.composite
def _request_lists(draw):
    """Sorted ``Request`` lists with arbitrary identity fields;
    ``decode_len`` is drawn for every request or for none, the only
    mix a ``RequestTrace`` accepts."""
    from repro.workloads import Request

    arrivals = sorted(draw(st.lists(
        st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=20)))
    with_lens = draw(st.booleans())
    return [Request(arrival=arrival,
                    decode_len=draw(st.integers(1, 10**6))
                    if with_lens else None,
                    user_id=draw(_identity), session_id=draw(_identity),
                    tier=draw(_identity))
            for arrival in arrivals]


@settings(max_examples=100, deadline=None)
@given(requests=_request_lists())
def test_request_lists_round_trip(tmp_path_factory, requests):
    """JSONL files and config envelopes give back the same requests."""
    from repro import config
    from repro.workloads import RequestTrace

    trace = RequestTrace(requests, metadata={"scenario": "drawn"})
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    trace.to_jsonl(str(path))
    assert RequestTrace.from_jsonl(str(path)).requests == trace.requests
    assert config.loads(config.dumps(trace)).requests == trace.requests


# -- per-request data in columns -----------------------------------------


@st.composite
def _one_tier_per_user_traces(draw):
    """Identity traces where each user keeps one tier (a user seen on
    two tiers reports under the tier of its last completion)."""
    from repro.workloads import RequestTrace

    tiers = [None, "free", "paid"]
    tier_of = {f"u{index}": draw(st.sampled_from(tiers))
               for index in range(4)}
    count = draw(st.integers(1, 30))
    arrivals = sorted(draw(st.lists(st.floats(0.0, 0.5, allow_nan=False),
                                    min_size=count, max_size=count)))
    rows = []
    for arrival in arrivals:
        user = draw(st.sampled_from([None, *tier_of]))
        rows.append((arrival, draw(st.integers(1, 96)), user,
                     None if user is None else f"s-{user}",
                     draw(st.sampled_from(tiers)) if user is None
                     else tier_of[user]))
    return RequestTrace.from_rows(rows, {"scenario": "property"})


@settings(deadline=None, max_examples=30)
@given(trace=_one_tier_per_user_traces(), tiered=st.booleans(),
       seed=st.randoms(),
       slo=st.sampled_from([(None, None), (0.05, 0.002), (0.02, None)]))
def test_report_is_independent_of_completion_order(trace, tiered, seed,
                                                   slo):
    """The accumulator keeps its reservoirs in completion order and
    nothing else: finishing the same completions in a shuffled order
    gives an equal report, tiered and anonymous alike."""
    from repro.sim import ServingEngine, SLOTarget, submit_trace
    from repro.workloads import RequestTrace

    if not tiered:
        trace = RequestTrace.from_columns(trace.arrivals, trace.decode_lens,
                                          metadata=trace.metadata)
    pm, schedule = _decode_network("plain")
    engine = ServingEngine(pm, schedule)
    done = []
    engine.add_listener(done.append)
    submit_trace(engine, trace)
    engine.drain()
    shuffled = list(done)
    seed.shuffle(shuffled)
    target = SLOTarget(*slo)
    report = _accumulator_over(pm.schema, engine.records, done).report(
        trace, target)
    assert report == _accumulator_over(
        pm.schema, engine.records, shuffled).report(trace, target)
    assert bool(report.tiers) == trace.has_identity


def _event_instants(pm, schedule):
    """The times one request at 0.0 meets events on its way through
    the network (batch dispatches, completions, its first token and
    its end), plus 0.0: arrivals drawn from these tie with queued
    flush and completion events."""
    from repro.sim import ServingEngine

    probe = ServingEngine(pm, schedule)
    record = probe.submit(0.0, decode_len=8)
    probe.drain()
    enqueues = record.stage_enqueues
    instants = {0.0, record.first_token_time, record.completion_time,
                *record.stage_completions.values(), *enqueues.values(),
                *(enqueues[stage] + wait
                  for stage, wait in record.queue_waits.items())}
    return sorted(instants)


@st.composite
def _tied_traces(draw, instants):
    """Sorted traces whose arrivals repeat and tie with the network's
    own events: drawn from ``instants`` (and some free floats)."""
    from repro.workloads import RequestTrace

    count = draw(st.integers(1, 30))
    arrivals = sorted(draw(st.lists(
        st.sampled_from(instants)
        | st.floats(0.0, instants[-1], allow_nan=False),
        min_size=count, max_size=count)))
    rows = [(arrival, draw(st.integers(1, 96)), None, None,
             draw(st.sampled_from([None, "free", "paid"])))
            for arrival in arrivals]
    return RequestTrace.from_rows(rows, {"scenario": "tied"})


@settings(deadline=None, max_examples=40)
@given(data=st.data(),
       admission=st.sampled_from(["greedy", "token-budget", "priority"]),
       kind=st.sampled_from(["plain", "iterative"]))
def test_streamed_trace_matches_per_row_submits(data, admission, kind):
    """A trace streamed into an engine (one arrival queued at a time,
    under sequence numbers reserved up front) runs exactly like one
    submit per row made before any event: equal records, report and
    event count, ties and already-queued requests included."""
    from repro.sim import ServingEngine, submit_trace

    pm, schedule = _decode_network(kind)
    instants = _event_instants(pm, schedule)
    trace = data.draw(_tied_traces(instants))
    queued = data.draw(st.lists(
        st.tuples(st.sampled_from(instants), st.integers(1, 96)),
        max_size=4))
    streamed, looped = (
        ServingEngine(pm, schedule, admission=_decode_admission(admission))
        for _ in range(2))
    for engine in (streamed, looped):
        for arrival, length in queued:
            engine.submit(arrival, decode_len=length)
    submit_trace(streamed, trace)
    for arrival, length, user, session, tier in trace.rows():
        looped.submit(arrival, decode_len=length, user_id=user,
                      session_id=session, tier=tier)
    streamed.drain()
    looped.drain()
    assert [_fields(r) for r in streamed.records] \
        == [_fields(r) for r in looped.records]
    assert streamed.report(trace) == looped.report(trace)
    assert streamed.events_processed == looped.events_processed


@settings(max_examples=100, deadline=None)
@given(requests=_request_lists())
def test_column_and_record_traces_agree(tmp_path_factory, requests):
    """A trace built from columns equals the one built from the same
    Request records, shares its digest, and both round-trip through
    the config envelope and JSONL to an equal trace."""
    from repro import config
    from repro.workloads import RequestTrace

    metadata = {"scenario": "drawn"}
    from_records = RequestTrace(requests, metadata=dict(metadata))
    from_columns = RequestTrace.from_columns(
        *(list(column) for column in zip(*(
            (r.arrival, r.decode_len, r.user_id, r.session_id, r.tier)
            for r in requests))),
        metadata=dict(metadata))
    assert from_columns == from_records
    assert from_columns.requests_digest == from_records.requests_digest
    assert from_columns.requests == tuple(requests)
    path = tmp_path_factory.getbasetemp() / "columns.jsonl"
    for trace in (from_records, from_columns):
        assert config.loads(config.dumps(trace)) == trace
        trace.to_jsonl(str(path))
        back = RequestTrace.from_jsonl(str(path))
        assert back == trace.with_metadata(scenario="drawn",
                                           source=str(path))
