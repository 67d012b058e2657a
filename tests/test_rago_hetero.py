"""Heterogeneous (split-generation) allocation tests."""

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.rago.hetero import (
    DEFAULT_XPU_PRICES,
    HeteroResult,
    split_generation_search,
)
from repro.schema import case_i_hyperscale, llm_only


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec(num_servers=32)


@pytest.fixture(scope="module")
def result(cluster):
    return split_generation_search(llm_only("8B"), cluster)


def test_frontier_monotone(result):
    ttfts = [p.ttft for p in result.frontier]
    values = [p.qps_per_dollar for p in result.frontier]
    assert ttfts == sorted(ttfts)
    assert values == sorted(values)


def test_best_at_least_homogeneous(result):
    assert result.hetero_gain >= 1.0
    assert result.best.qps_per_dollar >= \
        result.best_homogeneous.qps_per_dollar


def test_pricing_consistent(result):
    for point in result.frontier:
        expected = (point.prefill_chips
                    * DEFAULT_XPU_PRICES[point.prefill_xpu]
                    + point.decode_chips
                    * DEFAULT_XPU_PRICES[point.decode_xpu]
                    + point.servers * 5.00)
        assert point.dollars_per_hour == pytest.approx(expected)
        assert point.qps_per_dollar == pytest.approx(
            point.qps / point.dollars_per_hour)


def test_retrieval_workload_keeps_server_floor(cluster):
    result = split_generation_search(case_i_hyperscale("8B"), cluster)
    for point in result.frontier:
        assert point.servers >= 16


def test_price_sensitivity_changes_choice(cluster):
    # Make the premium generation essentially free: every best plan
    # should use it everywhere.
    prices = {"XPU-A": 100.0, "XPU-B": 100.0, "XPU-C": 0.01}
    result = split_generation_search(llm_only("8B"), cluster,
                                     prices=prices)
    assert result.best.prefill_xpu == "XPU-C"
    assert result.best.decode_xpu == "XPU-C"


def test_missing_price_rejected(cluster):
    with pytest.raises(ConfigError):
        split_generation_search(llm_only("8B"), cluster,
                                prices={"XPU-C": 4.2})


def test_invalid_server_price(cluster):
    with pytest.raises(ConfigError):
        split_generation_search(llm_only("8B"), cluster, server_price=0)


def test_result_type(result):
    assert isinstance(result, HeteroResult)
    assert result.frontier


def test_case_iv_hetero_search_runs(cluster):
    from repro.schema import case_iv_rewriter_reranker
    result = split_generation_search(case_iv_rewriter_reranker("8B"),
                                     cluster)
    assert result.frontier
    assert result.hetero_gain >= 1.0


def test_search_config_budget_and_placements_honoured(cluster):
    """The split search runs the main search, so it honours the budget
    and the placement restriction of its ``SearchConfig``."""
    from repro.rago.placement import fully_collocated
    from repro.rago.search import SearchConfig
    from repro.schema import case_iv_rewriter_reranker

    budget = SearchConfig(budget_xpus=16, max_batch=64, max_decode_batch=512)
    result = split_generation_search(llm_only("8B"), cluster, config=budget)
    assert result.frontier
    for point in result.frontier:
        assert point.prefill_chips + point.decode_chips <= 16

    schema = case_iv_rewriter_reranker("8B")
    collocated = SearchConfig(budget_xpus=32, max_batch=64,
                              max_decode_batch=512,
                              placements=[fully_collocated(schema)])
    result = split_generation_search(schema, cluster, config=collocated)
    assert result.frontier
    for point in result.frontier:
        # One pre-decode group: its chips are one power-of-two share.
        chips = point.prefill_chips
        assert chips & (chips - 1) == 0
        assert chips + point.decode_chips <= 32


def test_placement_without_trailing_decode_rejected(cluster):
    from repro.rago.search import SearchConfig
    from repro.schema import Stage

    config = SearchConfig(placements=[((Stage.DECODE,), (Stage.PREFIX,))])
    with pytest.raises(ConfigError, match="decode group"):
        split_generation_search(llm_only("8B"), cluster, config=config)
