"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_search import reference_serial_merge
from repro.hardware import XPU_C
from repro.hardware.roofline import all_reduce_time, roofline_time
from repro.inference import DecodeModel, PrefillModel
from repro.inference.parallelism import ShardingPlan
from repro.models import LLAMA3_8B
from repro.pipeline import microbatch_ttft, simulate_iterative_decode
from repro.rago import pareto_front
from repro.rago.pareto import dominates
from repro.rago.search import _prune, _serial_merge
from repro.retrieval import BruteForceIndex, ProductQuantizer
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
_merge_points = st.lists(st.tuples(_merge_ttfts, _merge_qps), max_size=10)


def _merge_front(tag, points):
    return _prune([(ttft, qps, ((Stage.PREFIX, index, tag),))
                   for index, (ttft, qps) in enumerate(points)])


@settings(max_examples=300)
@example(left=[(1e16, 1.0)], right=[(0.0, 2.0), (1.0, 3.0)])
@example(left=[(0.0, 2.0), (1.0, 3.0)], right=[(1.0, 2.0), (2.0, 3.0)])
@given(left=_merge_points, right=_merge_points)
def test_serial_merge_equals_cross_product_then_prune(left, right):
    left, right = _merge_front("left", left), _merge_front("right", right)
    assert _serial_merge(left, right) == reference_serial_merge(left, right)


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


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 100))
def test_pq_roundtrip_beats_random_guess(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((800, 16)).astype(np.float32)
    pq = ProductQuantizer(num_subspaces=8, train_iterations=3, seed=seed)
    pq.train(data)
    recon = pq.decode(pq.encode(data[:100]))
    err = ((recon - data[:100]) ** 2).mean()
    baseline = (data[:100] ** 2).mean()  # guessing the origin
    assert err < baseline


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 100), k=st.integers(1, 10))
def test_bruteforce_top1_is_global_min(seed, k):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((300, 8)).astype(np.float32)
    query = rng.standard_normal(8).astype(np.float32)
    index = BruteForceIndex(data)
    dist, idx = index.search(query, k=k)
    naive = ((data - query) ** 2).sum(axis=1)
    assert idx[0, 0] == np.argmin(naive)
    assert np.all(np.diff(dist[0]) >= -1e-5)


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 50), rate=st.floats(10.0, 200.0))
def test_serving_des_conservation(seed, rate):
    # Every offered request either completes or is still in flight at the
    # horizon; completions respect stage ordering and arrival causality.
    from repro.hardware import ClusterSpec
    from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
    from repro.schema import Stage as S, case_i_hyperscale
    from repro.sim import ServingSimulator
    from repro.workloads import poisson_arrivals

    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((S.PREFIX,), 16),
                PlacementGroup((S.DECODE,), 16)),
        batches={S.PREFIX: 8, S.DECODE: 128, S.RETRIEVAL: 16},
    )
    sim = ServingSimulator(pm, schedule)
    arrivals = poisson_arrivals(rate, duration=1.0, seed=seed)
    if not arrivals:
        return
    metrics = sim.run(arrivals)
    assert metrics.completed == metrics.offered
    for record in metrics.records:
        assert record.first_token_time is not None
        assert record.first_token_time >= record.arrival
        assert record.completion_time >= record.first_token_time
