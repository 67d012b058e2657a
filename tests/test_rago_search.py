"""Schedule-search tests (Algorithm 1)."""

from dataclasses import replace

import pytest

from reference_search import reference_serial_merge
from repro.errors import ConfigError, ScheduleError
from repro.hardware import ClusterSpec
from repro.pipeline import RAGPerfModel, assemble
from repro.rago import SearchConfig, search_schedules
from repro.rago import search as search_module
from repro.rago.placement import fully_collocated, fully_disaggregated
from repro.schema import (
    Stage,
    case_i_hyperscale,
    case_ii_long_context,
    case_iii_iterative,
    case_iv_rewriter_reranker,
    llm_only,
)


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(num_servers=32)


@pytest.fixture(scope="module")
def case_i_result(cluster):
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    return pm, search_schedules(pm)


def test_frontier_sorted_and_monotone(case_i_result):
    _, result = case_i_result
    ttfts = [p.ttft for p in result.frontier]
    qps = [p.qps_per_chip for p in result.frontier]
    assert ttfts == sorted(ttfts)
    assert qps == sorted(qps)


def test_frontier_points_reassemble_exactly(case_i_result):
    pm, result = case_i_result
    for perf in result.frontier:
        again = assemble(pm, perf.schedule)
        assert again.ttft == pytest.approx(perf.ttft)
        assert again.qps_per_chip == pytest.approx(perf.qps_per_chip)


def test_schedules_within_budget(case_i_result):
    _, result = case_i_result
    for perf in result.frontier:
        assert perf.total_xpus <= 128
        assert perf.retrieval_servers <= 32


def test_max_qps_and_min_ttft_endpoints(case_i_result):
    _, result = case_i_result
    assert result.min_ttft.ttft <= result.max_qps_per_chip.ttft
    assert result.max_qps_per_chip.qps_per_chip >= \
        result.min_ttft.qps_per_chip


def test_case_i_is_retrieval_bound(case_i_result):
    # ~15 requests/s per chip-equivalent at 0.1% scan of 64B vectors.
    _, result = case_i_result
    best = result.max_qps_per_chip
    retrieval = best.stage_perfs[Stage.RETRIEVAL]
    assert best.qps == pytest.approx(retrieval.request_qps, rel=0.05)


def test_budget_restricts_allocation(cluster):
    pm = RAGPerfModel(llm_only("8B"), cluster)
    small = search_schedules(pm, SearchConfig(budget_xpus=4))
    for perf in small.frontier:
        assert perf.total_xpus <= 4


def test_budget_cannot_exceed_cluster(cluster):
    pm = RAGPerfModel(llm_only("8B"), cluster)
    with pytest.raises(ConfigError):
        search_schedules(pm, SearchConfig(budget_xpus=1024))


def test_infeasible_budget_raises():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("405B"), cluster)
    with pytest.raises(ScheduleError):
        # 405B needs 8 chips for prefix and 8 for decode.
        search_schedules(pm, SearchConfig(budget_xpus=8))


def test_placement_restriction_honoured(cluster):
    schema = case_iv_rewriter_reranker("8B")
    pm = RAGPerfModel(schema, cluster)
    collocated = fully_collocated(schema)
    result = search_schedules(pm, SearchConfig(placements=[collocated],
                                               max_batch=32,
                                               max_decode_batch=256))
    for perf in result.frontier:
        assert len(perf.schedule.groups) == 2


def test_allocation_restriction_honoured(cluster):
    schema = llm_only("8B")
    pm = RAGPerfModel(schema, cluster)
    result = search_schedules(pm, SearchConfig(allocations=[(16, 16)]))
    for perf in result.frontier:
        assert perf.total_xpus == 32


def test_wider_search_never_worse(cluster):
    schema = case_iv_rewriter_reranker("8B")
    pm = RAGPerfModel(schema, cluster)
    narrow = search_schedules(pm, SearchConfig(
        placements=[fully_disaggregated(schema)], max_batch=32,
        max_decode_batch=256))
    wide = search_schedules(pm, SearchConfig(max_batch=32,
                                             max_decode_batch=256))
    assert wide.max_qps_per_chip.qps_per_chip >= \
        narrow.max_qps_per_chip.qps_per_chip - 1e-9
    assert wide.min_ttft.ttft <= narrow.min_ttft.ttft + 1e-9


def test_per_plan_collection(cluster):
    pm = RAGPerfModel(llm_only("8B"), cluster)
    result = search_schedules(pm, SearchConfig(collect_per_plan=True,
                                               budget_xpus=16))
    assert result.per_plan
    for plan in result.per_plan:
        ttfts = [p[0] for p in plan.points]
        assert ttfts == sorted(ttfts)


def test_counts_reported(case_i_result):
    _, result = case_i_result
    assert result.num_plans > 0
    assert result.num_candidates >= result.num_plans


def test_iterative_schema_search_sweeps_iterative_batch(cluster):
    pm = RAGPerfModel(case_iii_iterative("8B", retrieval_frequency=4),
                      cluster)
    result = search_schedules(pm, SearchConfig(max_batch=32,
                                               max_decode_batch=256))
    assert result.frontier
    # At least one frontier schedule carries an explicit iterative batch.
    assert any(perf.schedule.iterative_batch is not None
               for perf in result.frontier)
    # Iterative schemas pay for retrieval/prefix visits: throughput is
    # below the non-iterative equivalent.
    plain = search_schedules(
        RAGPerfModel(case_i_hyperscale("8B"), cluster),
        SearchConfig(max_batch=32, max_decode_batch=256))
    assert result.max_qps_per_chip.qps_per_chip < \
        plain.max_qps_per_chip.qps_per_chip


@pytest.mark.parametrize("schema", [
    case_i_hyperscale("8B"),
    case_ii_long_context(1_000_000, "8B"),
    case_iii_iterative("8B", retrieval_frequency=4),
    case_iv_rewriter_reranker("8B"),
], ids=["case-i", "case-ii", "case-iii", "case-iv"])
@pytest.mark.parametrize("knobs", [
    {},
    {"collect_per_plan": True, "max_frontier_points": 8},
], ids=["plain", "per-plan-capped"])
def test_search_matches_cross_product_merge(schema, knobs, monkeypatch):
    """The shipped merge and the brute-force cross product give equal
    searches: frontier schedules, plan and candidate counts, per-plan
    fronts, and perf-model cache traffic."""
    cluster = ClusterSpec(num_servers=16)
    config = SearchConfig(max_batch=32, max_decode_batch=256, **knobs)
    shipped_model = RAGPerfModel(schema, cluster)
    shipped = search_schedules(shipped_model, config)
    monkeypatch.setattr(search_module, "_serial_merge",
                        reference_serial_merge)
    reference_model = RAGPerfModel(schema, cluster)
    reference = search_schedules(reference_model, config)
    assert shipped == reference
    assert shipped_model.cache_stats == reference_model.cache_stats


@pytest.mark.parametrize("schema", [
    case_i_hyperscale("8B"),
    case_ii_long_context(1_000_000, "8B"),
    case_iii_iterative("8B", retrieval_frequency=4),
    case_iv_rewriter_reranker("8B"),
], ids=["case-i", "case-ii", "case-iii", "case-iv"])
def test_per_plan_fronts_match_single_plan_searches(schema):
    """Plans merged on a reused allocation prefix get the same front as
    a search restricted to that one plan, which starts from scratch."""
    perf_model = RAGPerfModel(schema, ClusterSpec(num_servers=16))
    config = SearchConfig(max_batch=32, max_decode_batch=256,
                          collect_per_plan=True)
    plans = search_schedules(perf_model, config).per_plan
    for plan in plans[::max(1, len(plans) // 100)]:
        single = search_schedules(perf_model, replace(
            config, placements=[plan.placement],
            allocations=[plan.allocation]))
        assert single.per_plan == [plan]


def test_budget_monotonicity(cluster):
    pm = RAGPerfModel(llm_only("8B"), cluster)
    small = search_schedules(pm, SearchConfig(budget_xpus=8))
    large = search_schedules(pm, SearchConfig(budget_xpus=64))
    # A wider budget can only improve both frontier endpoints.
    assert large.min_ttft.ttft <= small.min_ttft.ttft + 1e-12
    assert large.max_qps_per_chip.qps_per_chip >= \
        small.max_qps_per_chip.qps_per_chip - 1e-9
