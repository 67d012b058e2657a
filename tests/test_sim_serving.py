"""Request-level serving-simulator tests, including validation against
the analytical assembly."""

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule, assemble
from repro.schema import (
    Stage,
    case_i_hyperscale,
    case_iii_iterative,
    case_iv_rewriter_reranker,
)
from repro.sim import ServingEngine, ServingSimulator, submit_trace
from repro.workloads import poisson_trace, trace_from_arrivals

from workload_helpers import burst_arrivals


@pytest.fixture(scope="module")
def setup():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512, Stage.RETRIEVAL: 64},
    )
    return pm, schedule, assemble(pm, schedule)


def test_all_requests_complete(setup):
    pm, schedule, _ = setup
    sim = ServingSimulator(pm, schedule)
    trace = poisson_trace(100, duration=2.0, seed=1)
    report = sim.run(trace)
    assert report.completed == report.offered == trace.num_requests


def test_throughput_validates_analytical_model(setup):
    # Overload the system: measured saturation throughput should land
    # within ~15% of the analytical bottleneck QPS.
    pm, schedule, analytical = setup
    sim = ServingSimulator(pm, schedule)
    trace = poisson_trace(1.5 * analytical.qps, duration=15.0, seed=2)
    report = sim.run(trace)
    assert report.throughput == pytest.approx(analytical.qps, rel=0.15)


def test_underload_ttft_near_analytical(setup):
    # At light load, mean TTFT is the analytical TTFT plus bounded
    # batching wait (at most one batch per stage).
    pm, schedule, analytical = setup
    sim = ServingSimulator(pm, schedule)
    trace = poisson_trace(0.3 * analytical.qps, duration=10.0, seed=3)
    report = sim.run(trace)
    assert report.ttft["mean"] >= analytical.ttft * 0.5
    assert report.ttft["mean"] <= analytical.ttft * 3.0


def test_overload_inflates_latency(setup):
    pm, schedule, analytical = setup
    sim = ServingSimulator(pm, schedule)
    light = sim.run(poisson_trace(0.5 * analytical.qps, 10.0, seed=4))
    sim2 = ServingSimulator(pm, schedule)
    heavy = sim2.run(poisson_trace(1.5 * analytical.qps, 10.0, seed=4))
    assert heavy.ttft["mean"] > 3 * light.ttft["mean"]


def test_tpot_matches_decode_model(setup):
    pm, schedule, analytical = setup
    sim = ServingSimulator(pm, schedule)
    report = sim.run(poisson_trace(100, 2.0, seed=5))
    assert report.tpot["mean"] == pytest.approx(analytical.tpot, rel=0.25)


def test_burst_arrival_handling(setup):
    pm, schedule, _ = setup
    sim = ServingSimulator(pm, schedule)
    report = sim.run(trace_from_arrivals(
        burst_arrivals(burst_size=64, period=5.0, num_bursts=3)))
    assert report.completed == 192
    # Requests inside a burst complete at staggered times (batching).
    ttfts = [r.ttft for r in report.records[:64]]
    assert max(ttfts) > min(ttfts)


def test_case_iv_pipeline_runs():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_iv_rewriter_reranker("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.REWRITE_PREFIX,
                                Stage.REWRITE_DECODE), 8),
                PlacementGroup((Stage.RERANK, Stage.PREFIX), 16),
                PlacementGroup((Stage.DECODE,), 16)),
        batches={Stage.REWRITE_PREFIX: 8, Stage.REWRITE_DECODE: 8,
                 Stage.RERANK: 8, Stage.PREFIX: 8, Stage.RETRIEVAL: 16,
                 Stage.DECODE: 256},
    )
    sim = ServingSimulator(pm, schedule)
    report = sim.run(poisson_trace(50, 2.0, seed=6))
    assert report.completed == report.offered
    # Every completed request passed through all five pre-decode stages.
    record = report.records[0]
    for stage in (Stage.REWRITE_PREFIX, Stage.REWRITE_DECODE,
                  Stage.RETRIEVAL, Stage.RERANK, Stage.PREFIX):
        assert stage in record.stage_completions
    # Stage completions respect pipeline order.
    times = [record.stage_completions[s]
             for s in (Stage.REWRITE_PREFIX, Stage.REWRITE_DECODE,
                       Stage.RETRIEVAL, Stage.RERANK, Stage.PREFIX)]
    assert times == sorted(times)


def _iterative_setup(retrieval_frequency=4, iterative_batch=8):
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(
        case_iii_iterative("8B", retrieval_frequency=retrieval_frequency),
        cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 16),
                PlacementGroup((Stage.DECODE,), 16)),
        batches={Stage.PREFIX: 8, Stage.DECODE: 64, Stage.RETRIEVAL: 16},
        iterative_batch=iterative_batch,
    )
    return pm, schedule


def test_iterative_serving_completes():
    pm, schedule = _iterative_setup()
    sim = ServingSimulator(pm, schedule)
    report = sim.run(poisson_trace(20, 2.0, seed=8))
    assert report.completed == report.offered
    assert report.tpot["mean"] > 0


def test_iterative_serving_slower_than_single_retrieval():
    # The same schedule serving the same arrivals takes longer per token
    # when sequences pause for mid-generation retrievals.
    trace = poisson_trace(20, 2.0, seed=8)
    pm_iter, schedule = _iterative_setup(retrieval_frequency=4)
    iterative = ServingSimulator(pm_iter, schedule).run(trace)
    cluster = ClusterSpec(num_servers=32)
    pm_plain = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    plain_schedule = Schedule(
        groups=schedule.groups,
        batches=schedule.batches,
    )
    plain = ServingSimulator(pm_plain, plain_schedule).run(trace)
    assert iterative.tpot["mean"] > plain.tpot["mean"]


def test_iterative_frequency_increases_tpot():
    trace = poisson_trace(20, 2.0, seed=8)
    low_pm, low_schedule = _iterative_setup(retrieval_frequency=2)
    high_pm, high_schedule = _iterative_setup(retrieval_frequency=8)
    low = ServingSimulator(low_pm, low_schedule).run(trace)
    high = ServingSimulator(high_pm, high_schedule).run(trace)
    assert high.tpot["mean"] > low.tpot["mean"]


def test_iterative_one_token_request_places_no_retrieval():
    """A one-token Case III request has no decode position to place a
    retrieval at: it decodes its single token and finishes, alone and
    next to longer requests that do pause for retrievals."""
    from repro.sim import ServingEngine

    pm, schedule = _iterative_setup()
    engine = ServingEngine(pm, schedule)
    short = engine.submit(0.0, decode_len=1)
    engine.drain()
    assert engine.completed == 1
    assert short.completion_time >= short.first_token_time > 0.0
    mixed = ServingEngine(pm, schedule)
    records = [mixed.submit(0.001 * i, decode_len=length)
               for i, length in enumerate((1, 64, 1, 32))]
    mixed.drain()
    assert mixed.completed == 4
    assert all(record.completion_time is not None for record in records)


def test_unsorted_arrivals_rejected():
    with pytest.raises(ConfigError):
        trace_from_arrivals([1.0, 0.5])
    with pytest.raises(ConfigError):
        trace_from_arrivals([])


def test_variable_decode_lengths(setup):
    pm, schedule, _ = setup
    sim = ServingSimulator(pm, schedule)
    arrivals = [0.0, 0.0, 0.0, 0.0]
    lengths = [32, 64, 128, 256]
    report = sim.run(trace_from_arrivals(arrivals, decode_lens=lengths))
    assert report.completed == 4
    # Shorter generations finish earlier.
    completions = [r.completion_time for r in report.records]
    assert completions == sorted(completions)
    assert report.records[0].decode_len == 32


def test_decode_lengths_validation():
    with pytest.raises(ConfigError):
        trace_from_arrivals([0.0, 1.0], decode_lens=[32])
    with pytest.raises(ConfigError):
        trace_from_arrivals([0.0], decode_lens=[0])


def test_sampled_decode_lengths_with_workload():
    from repro.workloads import sample_decode_lengths
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 16),
                PlacementGroup((Stage.DECODE,), 16)),
        batches={Stage.PREFIX: 16, Stage.DECODE: 256, Stage.RETRIEVAL: 32},
    )
    sim = ServingSimulator(pm, schedule)
    arrivals = poisson_trace(50, 2.0, seed=9).arrivals
    lengths = sample_decode_lengths(len(arrivals), mean=256, seed=9)
    report = sim.run(trace_from_arrivals(
        arrivals, decode_lens=[int(x) for x in lengths]))
    assert report.completed == report.offered
    assert report.tpot["mean"] > 0


def test_utilization_reported(setup):
    pm, schedule, analytical = setup
    sim = ServingSimulator(pm, schedule)
    report = sim.run(poisson_trace(0.9 * analytical.qps, 10.0, seed=14))
    assert report.utilization
    for name, value in report.utilization.items():
        assert 0.0 <= value <= 1.0
    # Near saturation, the bottleneck tier runs hot.
    assert max(report.utilization.values()) > 0.5


def test_utilization_grows_with_load(setup):
    pm, schedule, analytical = setup
    light = ServingSimulator(pm, schedule).run(
        poisson_trace(0.2 * analytical.qps, 10.0, seed=15))
    heavy = ServingSimulator(pm, schedule).run(
        poisson_trace(0.9 * analytical.qps, 10.0, seed=15))
    for name in light.utilization:
        assert heavy.utilization[name] >= light.utilization[name] - 0.05


# ---------------------------------------------------------------------------
# Trace-driven runs: ServingReport, regression pins, determinism,
# degenerate inputs.
# ---------------------------------------------------------------------------


def test_refactored_des_reproduces_pre_refactor_metrics():
    """The policy-refactored DES with default policies must be
    bit-identical to the pre-refactor simulator (values pinned from the
    original implementation on this seeded Poisson workload)."""
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512, Stage.RETRIEVAL: 64},
    )
    trace = poisson_trace(120.0, duration=5.0, seed=1234)
    report = ServingSimulator(pm, schedule).run(trace)
    assert report.completed == report.offered == 601
    assert report.duration == pytest.approx(5.6208622567079285, rel=1e-12)
    assert report.throughput == pytest.approx(106.9230969470507, rel=1e-12)
    assert report.ttft["mean"] == pytest.approx(0.1331778401932656,
                                                rel=1e-12)
    assert report.ttft["p99"] == pytest.approx(0.165808825579703, rel=1e-12)
    assert report.tpot["mean"] == pytest.approx(0.002033427795173091,
                                                rel=1e-12)
    assert report.utilization["prefix"] == pytest.approx(
        0.09198183916694158, rel=1e-12)
    assert report.utilization["retrieval-servers"] == pytest.approx(
        0.2555152968365344, rel=1e-12)


def test_refactored_des_reproduces_pre_refactor_iterative_metrics():
    """Same pin for the iterative (Case III) path, which exercises the
    retrieval-hook and re-prefix stations."""
    pm, schedule = _iterative_setup()
    report = ServingSimulator(pm, schedule).run(poisson_trace(20, 2.0, seed=8))
    assert report.completed == report.offered == 46
    assert report.duration == pytest.approx(2.412382197544141, rel=1e-12)
    assert report.ttft["mean"] == pytest.approx(0.11044916152702101,
                                                rel=1e-12)
    assert report.tpot["mean"] == pytest.approx(0.0015716157173773842,
                                                rel=1e-12)


def test_identical_seed_trace_schedule_is_bit_identical(setup):
    """Determinism contract: one trace + schedule -> the same
    metrics bit for bit across independent simulator instances (guards
    the event-queue insertion-order tie-break in sim/engine.py)."""
    from repro.workloads import bursty_trace

    pm, schedule, _ = setup
    trace = bursty_trace(120, 4.0, seed=21, mean_decode_len=256)
    first = ServingSimulator(pm, schedule).run(trace)
    second = ServingSimulator(pm, schedule).run(trace)
    assert first == second  # aggregate equality (records excluded)
    for a, b in zip(first.records, second.records):
        assert (a.arrival, a.first_token_time, a.completion_time) \
            == (b.arrival, b.first_token_time, b.completion_time)
        assert a.stage_completions == b.stage_completions
        assert a.queue_waits == b.queue_waits


def test_trace_run_returns_report(setup):
    from repro.sim import ServingReport, SLOTarget

    pm, schedule, analytical = setup
    trace = poisson_trace(0.5 * analytical.qps, 4.0, seed=13)
    report = ServingSimulator(pm, schedule).run(
        trace, slo=SLOTarget(ttft=1.0, tpot=0.1))
    assert isinstance(report, ServingReport)
    assert report.scenario == "poisson"
    assert report.completed == report.offered == trace.num_requests
    assert report.completion_rate == 1.0
    # Percentiles are monotone and interpolated.
    assert report.ttft["p50"] <= report.ttft["p95"] <= report.ttft["p99"]
    assert report.tpot["p50"] <= report.tpot["p99"]
    # Generous SLOs are met.
    assert report.slo_attainment == {"ttft": 1.0, "tpot": 1.0, "joint": 1.0}
    # Queueing breakdown covers every visited stage.
    assert set(report.queueing) == {"retrieval", "prefix", "decode"}
    for stats in report.queueing.values():
        assert 0.0 <= stats["mean_wait"] <= stats["p95_wait"] \
            <= stats["max_wait"]
    assert report.trace_metadata["seed"] == 13


def test_tight_slo_lowers_attainment(setup):
    from repro.sim import SLOTarget

    pm, schedule, analytical = setup
    trace = poisson_trace(0.9 * analytical.qps, 6.0, seed=17)
    sim = ServingSimulator(pm, schedule)
    strict = sim.run(trace, slo=SLOTarget(ttft=1e-6))
    assert strict.slo_attainment["ttft"] == 0.0
    assert strict.slo_attainment["tpot"] == 1.0  # unconstrained dimension
    assert strict.slo_attainment["joint"] == 0.0


def test_trace_with_decode_lengths_and_no_double_pass(setup):
    pm, schedule, _ = setup
    trace = poisson_trace(50, 2.0, seed=19, mean_decode_len=256)
    # Per-request lengths travel inside the trace; run() takes no
    # second copy of them.
    report = ServingSimulator(pm, schedule).run(trace)
    lengths = {r.request_id: r.decode_len for r in report.records}
    assert lengths[0] == trace.decode_lens[0]


def test_slo_requires_trace_workload(setup):
    from repro.sim import SLOTarget

    pm, schedule, _ = setup
    with pytest.raises(ConfigError, match="trace_from_arrivals"):
        ServingSimulator(pm, schedule).run([0.0, 1.0],
                                           slo=SLOTarget(ttft=0.5))


def test_zero_finished_replay_is_config_error(setup):
    pm, schedule, _ = setup
    trace = poisson_trace(50, 2.0, seed=23)
    engine = ServingEngine(pm, schedule)
    submit_trace(engine, trace)
    engine.step(until=1e-9)
    with pytest.raises(ConfigError):
        engine.report(trace)


def test_invalid_slo_target_rejected():
    from repro.sim import SLOTarget

    with pytest.raises(ConfigError):
        SLOTarget(ttft=0.0)
    with pytest.raises(ConfigError):
        SLOTarget(tpot=-1.0)
    # Regression: NaN passed the old ``value <= 0`` check.
    for name in ("ttft", "tpot"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"^SLO {name} must be "
                               f"finite and positive when set, got {value}$"):
                SLOTarget(**{name: value})


def test_metrics_and_report_share_one_p99_estimator(setup):
    """Regression: a second run artifact once used a truncating
    nearest-rank p99 while the report interpolated, so one run emitted
    two different p99s. At n=7 the estimators visibly diverge (rank
    0.99*6 = 5.94 interpolates between the 6th and 7th order
    statistics; nearest-rank snaps to the max), so the one report must
    answer the interpolated value."""
    from repro.sim.metrics import _interpolated_percentile

    pm, schedule, _ = setup
    trace = trace_from_arrivals([0.02 * i for i in range(7)],
                                decode_lens=[64] * 7, scenario="smalln")
    report = ServingSimulator(pm, schedule).run(trace)
    ttfts = sorted(r.ttft for r in report.records)
    expected = _interpolated_percentile(ttfts, 0.99)
    assert report.ttft["p99"] == pytest.approx(expected, rel=1e-12)
    # The old truncating estimator answered the sample max instead.
    assert ttfts[-1] > ttfts[-2]
    assert report.ttft["p99"] < ttfts[-1]


def test_interpolated_percentile_edges():
    from repro.sim.metrics import _interpolated_percentile

    values = [1.0, 2.0, 3.0, 4.0]
    assert _interpolated_percentile(values, 0.0) == 1.0
    assert _interpolated_percentile(values, 1.0) == 4.0
    assert _interpolated_percentile(values, 0.5) == pytest.approx(2.5)
    with pytest.raises(ConfigError):
        _interpolated_percentile([], 0.5)
    with pytest.raises(ConfigError):
        _interpolated_percentile(values, 1.5)
