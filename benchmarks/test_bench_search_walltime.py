"""Schedule-search wall-time guard.

RAGO's exhaustive search (Algorithm 1) revisits the same per-stage
performance points across thousands of candidates; the caches inside
:class:`RAGPerfModel` are what keep the sweep tractable. This benchmark
times a representative search and asserts the caches actually absorb
the repeat traffic, so a regression that silently bypasses them (or a
search rewrite that stops reusing points) fails loudly instead of just
getting slower.
"""

import time

from repro.hardware.cluster import ClusterSpec
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.search import SearchConfig, search_schedules
from repro.schema.paradigms import case_i_hyperscale, case_iv_rewriter_reranker

_CLUSTER = ClusterSpec(num_servers=16)


def test_bench_search_walltime_case_i(benchmark):
    """Time the Case I search end to end (cold perf model each round)."""

    def run():
        perf_model = RAGPerfModel(case_i_hyperscale("8B"), _CLUSTER)
        return search_schedules(perf_model)

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.frontier


def test_bench_search_walltime_case_iv_70b(benchmark):
    """Time the five-stage Case IV 70B search at default granularity
    (the largest plan space here). Timing only: no wall-clock bound."""

    def run():
        perf_model = RAGPerfModel(case_iv_rewriter_reranker("70B"), _CLUSTER)
        return search_schedules(perf_model)

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.frontier


def test_search_reuses_stage_evaluations():
    """Guard: the search hits the stage cache far more than it misses.

    Every (stage, batch, resource) point should be profiled once and
    then recalled; candidate enumeration revisits points constantly, so
    hits dominating misses is the signature that caching is wired in.
    """
    perf_model = RAGPerfModel(case_iv_rewriter_reranker("70B"), _CLUSTER)
    search_schedules(perf_model)
    stats = perf_model.cache_stats
    assert stats["misses"] > 0
    assert stats["hits"] > stats["misses"], (
        f"stage cache ineffective during search: {stats}"
    )


def test_warm_search_skips_every_simulator_call():
    """Guard: a repeat search on a warmed perf model must be answered
    entirely from cache -- zero new stage evaluations. Deterministic
    (counter-based), unlike a wall-time ratio, so a broken cache cannot
    hide behind machine noise."""
    perf_model = RAGPerfModel(case_i_hyperscale("8B"), _CLUSTER)
    config = SearchConfig(max_batch=64, max_decode_batch=256)

    start = time.perf_counter()
    cold = search_schedules(perf_model, config)
    cold_seconds = time.perf_counter() - start
    misses_after_cold = perf_model.cache_stats["misses"]

    start = time.perf_counter()
    warm = search_schedules(perf_model, config)
    warm_seconds = time.perf_counter() - start

    assert len(warm.frontier) == len(cold.frontier)
    assert perf_model.cache_stats["misses"] == misses_after_cold, (
        f"warm search re-evaluated stages: {perf_model.cache_stats}"
    )
    print(f"\ncold={cold_seconds:.3f}s warm={warm_seconds:.3f}s")
