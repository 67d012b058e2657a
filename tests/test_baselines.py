"""Baseline-system tests: LLM-only, LLM-extension, long-context LLM."""

import pytest

from repro.baselines import (
    extension_baseline_search,
    llm_only_search,
    long_context_llm_perf,
)
from repro.errors import ConfigError
from repro.hardware import ClusterSpec, XPU_C
from repro.models import LLAMA3_70B
from repro.pipeline import RAGPerfModel
from repro.rago import search_schedules
from repro.schema import (
    Stage,
    case_ii_long_context,
    case_iv_rewriter_reranker,
    llm_only,
)


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(num_servers=32)


def test_llm_only_search_runs(cluster):
    result = llm_only_search("8B", cluster)
    assert result.frontier
    assert result.max_qps_per_chip.qps_per_chip > 10


def test_llm_only_larger_model_slower(cluster):
    small = llm_only_search("8B", cluster).max_qps_per_chip.qps_per_chip
    large = llm_only_search("70B", cluster).max_qps_per_chip.qps_per_chip
    assert small > 4 * large


def test_extension_baseline_is_collocated_1to1(cluster):
    pm = RAGPerfModel(case_iv_rewriter_reranker("8B"), cluster)
    result = extension_baseline_search(pm, max_batch=32,
                                       max_decode_batch=256)
    for perf in result.frontier:
        groups = perf.schedule.groups
        assert len(groups) == 2
        assert groups[0].num_xpus == groups[1].num_xpus


def test_rago_beats_extension_baseline_case_ii(cluster):
    pm = RAGPerfModel(case_ii_long_context(1_000_000, "70B"), cluster)
    baseline = extension_baseline_search(pm, max_batch=32,
                                         max_decode_batch=256)
    rago = search_schedules(pm)
    ratio = (rago.max_qps_per_chip.qps_per_chip
             / baseline.max_qps_per_chip.qps_per_chip)
    assert ratio > 1.2  # paper reports 1.7x


def test_extension_baseline_needs_two_chips(cluster):
    pm = RAGPerfModel(case_iv_rewriter_reranker("8B"), cluster)
    with pytest.raises(ConfigError):
        extension_baseline_search(pm, budget_xpus=1)


def test_long_context_llm_ttft_scales_with_context():
    short = long_context_llm_perf(LLAMA3_70B, 100_000, 64, XPU_C)
    long = long_context_llm_perf(LLAMA3_70B, 1_000_000, 64, XPU_C)
    assert long.ttft > 5 * short.ttft


def test_long_context_llm_is_orders_slower_than_rag(cluster):
    # §5.2: RAG achieves ~2852x TTFT and ~6634x QPS/chip at 1M tokens.
    from repro.rago import search_schedules as search
    pm = RAGPerfModel(case_ii_long_context(1_000_000, "70B"), cluster)
    rag = search(pm)
    lc = long_context_llm_perf(LLAMA3_70B, 1_000_000, 64, XPU_C)
    assert rag.min_ttft.ttft < lc.ttft / 100
    assert rag.max_qps_per_chip.qps_per_chip > 100 * lc.qps_per_chip


def test_long_context_kv_limits_batch():
    # Even with hybrid attention, a 10M-token KV cache caps the decode
    # batch at a handful of sequences on 64 chips (5.5 TB of HBM).
    perf = long_context_llm_perf(LLAMA3_70B, 10_000_000, 64, XPU_C)
    assert perf.max_decode_batch < 32


def test_long_context_validation():
    with pytest.raises(ConfigError):
        long_context_llm_perf(LLAMA3_70B, 0, 8, XPU_C)


def test_chips_for_model(cluster):
    # The LLM-only baseline sizes its model by the smallest chip count
    # holding the weights, the same rule every RAG stage uses.
    def chips(size):
        return RAGPerfModel(llm_only(size), cluster).min_resource(Stage.PREFIX)

    assert chips("8B") == 1
    assert chips("405B") == 8
