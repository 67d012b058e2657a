"""RAGPerfModel per-stage evaluation tests."""

import dataclasses

import pytest

from repro.errors import CapacityError, ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import RAGPerfModel
from repro.schema import (
    Stage,
    case_i_hyperscale,
    case_ii_long_context,
    case_iv_rewriter_reranker,
)


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(num_servers=32)


@pytest.fixture(scope="module")
def case_i(cluster):
    return RAGPerfModel(case_i_hyperscale("8B"), cluster)


@pytest.fixture(scope="module")
def case_iv(cluster):
    return RAGPerfModel(case_iv_rewriter_reranker("70B"), cluster)


def test_min_resource_retrieval_is_16_servers(case_i):
    assert case_i.min_resource(Stage.RETRIEVAL) == 16


def test_min_resource_inference(case_i):
    assert case_i.min_resource(Stage.PREFIX) == 1


def test_perf_options_cached(case_i):
    a = case_i.perf_options(Stage.PREFIX, 8, 4)
    b = case_i.perf_options(Stage.PREFIX, 8, 4)
    assert a is b


def test_perf_options_sorted_by_latency(case_i):
    options = case_i.perf_options(Stage.PREFIX, 32, 16)
    latencies = [o.latency for o in options]
    qps = [o.request_qps for o in options]
    assert latencies == sorted(latencies)
    assert qps == sorted(qps)


def test_perf_default_is_throughput_end(case_i):
    options = case_i.perf_options(Stage.PREFIX, 32, 16)
    assert case_i.perf(Stage.PREFIX, 32, 16) is options[-1]


def test_perf_with_explicit_plan(case_i):
    from repro.inference.parallelism import ShardingPlan
    perf = case_i.perf(Stage.PREFIX, 8, 4, plan=ShardingPlan(4, 1))
    assert perf.plan == ShardingPlan(4, 1)


def test_retrieval_stage_resource_type(case_i):
    perf = case_i.perf(Stage.RETRIEVAL, 8, 16)
    assert perf.resource_type == "cpu_server"
    assert perf.plan is None


def test_multi_query_divides_request_qps(cluster, case_i):
    multi = RAGPerfModel(case_i_hyperscale("8B", queries_per_retrieval=4),
                         cluster)
    single = case_i.perf(Stage.RETRIEVAL, 16, 16)
    fanned = multi.perf(Stage.RETRIEVAL, 16, 16)
    # Query-level throughput (4 vectors per request) can only improve
    # with the bigger physical batch, but request throughput drops by
    # roughly the query fan-out.
    assert 4 * fanned.request_qps >= single.request_qps
    assert fanned.request_qps < single.request_qps / 2


def test_query_qps_equals_request_qps_times_queries(cluster, case_i):
    multi = RAGPerfModel(case_i_hyperscale("8B", queries_per_retrieval=4),
                         cluster)
    # 8 requests of 4 query vectors run the same 32-vector search as 32
    # single-query requests: query throughput is 4x request throughput.
    fanned = multi.perf(Stage.RETRIEVAL, 8, 16)
    single = case_i.perf(Stage.RETRIEVAL, 32, 16)
    assert 4 * fanned.request_qps == pytest.approx(single.request_qps)


def test_brute_force_scans_everything(cluster):
    exact = case_ii_long_context()  # brute-force kNN, scan_fraction 1
    sparse = dataclasses.replace(
        exact, database=exact.database.with_scan_fraction(0.01))
    ann = dataclasses.replace(sparse, brute_force_retrieval=False)

    def latency(schema):
        return RAGPerfModel(schema, cluster).perf(Stage.RETRIEVAL, 1,
                                                  1).latency

    assert latency(sparse) == latency(exact)
    assert latency(sparse) > latency(ann)


def test_case_ii_retrieval_is_fast(cluster):
    # 7,813 chunk vectors x 1,536 B = 12 MB: brute-force kNN on one
    # server in well under 10 ms.
    pm = RAGPerfModel(case_ii_long_context(1_000_000), cluster)
    assert pm.min_resource(Stage.RETRIEVAL) == 1
    assert pm.perf(Stage.RETRIEVAL, 1, 1).latency < 0.01


def test_decode_stage_has_tpot(case_i):
    perf = case_i.perf(Stage.DECODE, 32, 4)
    assert perf.tpot is not None and perf.tpot > 0


def test_rerank_amortizes_candidates(case_iv):
    perf = case_iv.perf(Stage.RERANK, 4, 2)
    # 16 candidate passages of 100 tokens per request.
    assert perf.request_qps > 0
    assert perf.latency > 0


def test_rewrite_decode_slower_than_rewrite_prefix(case_iv):
    prefill = case_iv.perf(Stage.REWRITE_PREFIX, 1, 4)
    decode = case_iv.perf(Stage.REWRITE_DECODE, 1, 4)
    # Autoregressive rewriting dominates the rewriter cost (§5.4).
    assert decode.latency > 5 * prefill.latency


def test_encode_stage_scales_with_context(cluster):
    short = RAGPerfModel(case_ii_long_context(100_000), cluster)
    long = RAGPerfModel(case_ii_long_context(1_000_000), cluster)
    short_perf = short.perf(Stage.DATABASE_ENCODE, 1, 8)
    long_perf = long.perf(Stage.DATABASE_ENCODE, 1, 8)
    assert long_perf.latency > 5 * short_perf.latency
    assert long_perf.request_qps < short_perf.request_qps / 5


def test_missing_stage_rejected(case_i):
    with pytest.raises(ConfigError):
        case_i.perf(Stage.RERANK, 1, 1)


def test_bad_sizes_rejected(case_i):
    with pytest.raises(ConfigError):
        case_i.perf(Stage.PREFIX, 0, 1)
    with pytest.raises(ConfigError):
        case_i.perf(Stage.PREFIX, 1, 0)


def test_infeasible_resource_raises_capacity(cluster):
    pm = RAGPerfModel(case_i_hyperscale("405B"), cluster)
    with pytest.raises(CapacityError):
        pm.perf(Stage.PREFIX, 1, 1)  # 405 GB on one 96 GB chip


def test_off_frontier_plan_evaluated_directly(case_i):
    from repro.inference.parallelism import ShardingPlan
    # A plan that is unlikely to sit on the cached Pareto frontier still
    # evaluates (the search may request it after pruning elsewhere).
    perf = case_i.perf(Stage.PREFIX, 4, 16, plan=ShardingPlan(2, 8))
    assert perf.plan == ShardingPlan(2, 8)
    assert perf.latency > 0 and perf.request_qps > 0


def test_explicit_plan_rejected_for_decode(case_i):
    from repro.errors import ConfigError as CE
    from repro.inference.parallelism import ShardingPlan
    # Decode accepts only its TP-only plan; an off-frontier explicit plan
    # is a configuration error.
    with pytest.raises(CE):
        case_i.perf(Stage.DECODE, 4, 16, plan=ShardingPlan(2, 8))


def test_encode_without_context_rejected(cluster):
    from repro.schema import case_i_hyperscale as preset
    pm = RAGPerfModel(preset("8B"), cluster)
    with pytest.raises(ConfigError):
        pm.perf(Stage.DATABASE_ENCODE, 1, 4)


def test_decode_xpu_moves_decode_alone(cluster):
    """``decode_xpu`` costs and sizes ``Stage.DECODE`` on its generation;
    every other stage, the rewriter's decode included, stays on the
    cluster's XPU."""
    from repro.hardware.accelerator import XPU_A

    schema = case_iv_rewriter_reranker("70B")
    split = RAGPerfModel(schema, cluster, decode_xpu=XPU_A)
    on_a = RAGPerfModel(schema, dataclasses.replace(cluster, xpu=XPU_A))
    on_c = RAGPerfModel(schema, cluster)
    assert cluster.xpu is not XPU_A
    assert split.min_resource(Stage.DECODE) == on_a.min_resource(Stage.DECODE)
    assert split.min_resource(Stage.DECODE) != on_c.min_resource(Stage.DECODE)
    chips = 16
    assert split.perf(Stage.DECODE, 64, chips) \
        == on_a.perf(Stage.DECODE, 64, chips)
    assert split.perf(Stage.DECODE, 64, chips) \
        != on_c.perf(Stage.DECODE, 64, chips)
    for stage in (Stage.PREFIX, Stage.REWRITE_DECODE):
        assert split.min_resource(stage) == on_c.min_resource(stage)
        assert split.perf(stage, 8, chips) == on_c.perf(stage, 8, chips)
    default = RAGPerfModel(schema, cluster, decode_xpu=None)
    for stage in (Stage.PREFIX, Stage.REWRITE_DECODE, Stage.DECODE):
        assert default.min_resource(stage) == on_c.min_resource(stage)
        assert default.perf(stage, 8, chips) == on_c.perf(stage, 8, chips)
