"""Schedule-search wall-time guard.

RAGO's exhaustive search (Algorithm 1) revisits the same per-stage
performance points across thousands of candidates; the caches inside
:class:`RAGPerfModel` are what keep the sweep tractable. This benchmark
times a representative search and asserts the caches actually absorb
the repeat traffic, so a regression that silently bypasses them (or a
search rewrite that stops reusing points) fails loudly instead of just
getting slower. It also guards the running Pareto staircase: nearly
every plan's corner is already dominated, so its options are never
offered and no placement groups are built for it. And it counts the
work behind each plan: a covered plan's options are counted, never
merged, so serial merges run on allocation prefixes and uncovered
plans alone, and each prefill operator list is built once.
"""

import time

from repro.hardware.cluster import ClusterSpec
from repro.inference import prefill as prefill_module
from repro.pipeline.assembly import PlacementGroup
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago import search as search_module
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


def test_bench_search_walltime_case_iv_70b_64_servers(benchmark):
    """Time the Case IV 70B search on 64 servers (~40k plans). Timing
    only: no wall-clock bound; its plan and candidate counts are
    pinned."""
    cluster = ClusterSpec(num_servers=64)

    def run():
        perf_model = RAGPerfModel(case_iv_rewriter_reranker("70B"), cluster)
        return search_schedules(perf_model)

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.frontier
    assert (result.num_plans, result.num_candidates) == (39_881, 226_721)


def test_search_skips_dominated_plans(monkeypatch):
    """Guard: on Case IV 70B, at most 5 % of plans get past the
    staircase's corner test (0.6 % when written), and placement groups
    are built once per placement plus once per final-front candidate,
    not once per plan (42,068 constructions before the staircase)."""
    offered_plans = set()

    class CountingStaircase(search_module._Staircase):
        def offer(self, ttft, qps, item):
            placement, allocation = item[:2]
            offered_plans.add((placement, allocation))
            super().offer(ttft, qps, item)

    constructions = 0
    check_stages = PlacementGroup.__post_init__

    def counting_check(group):
        nonlocal constructions
        constructions += 1
        check_stages(group)

    monkeypatch.setattr(search_module, "_Staircase", CountingStaircase)
    monkeypatch.setattr(PlacementGroup, "__post_init__", counting_check)
    result = search_schedules(
        RAGPerfModel(case_iv_rewriter_reranker("70B"), _CLUSTER))
    print(f"\nplans={result.num_plans} past-corner={len(offered_plans)} "
          f"placement-groups={constructions}")
    assert len(offered_plans) <= 0.05 * result.num_plans
    assert constructions <= 1_000


def test_search_reuses_allocation_prefixes(monkeypatch):
    """Guard: on Case IV 70B, the search runs at most 2,200 serial
    merges (2,162 when written; 19,222 before covered plans were
    counted instead of merged). Consecutive plans share their
    allocation prefix's merged options, and a plan whose corner the
    staircase covers merges nothing, so a rewrite that drops either
    fails here as a count, not as a slower run."""
    merges = 0
    serial_merge = search_module._serial_merge

    def counting_merge(left, right):
        nonlocal merges
        merges += 1
        return serial_merge(left, right)

    monkeypatch.setattr(search_module, "_serial_merge", counting_merge)
    result = search_schedules(
        RAGPerfModel(case_iv_rewriter_reranker("70B"), _CLUSTER))
    print(f"\nplans={result.num_plans} serial-merges={merges}")
    assert result.frontier
    assert merges <= 2_200


def test_search_builds_each_operator_list_once(monkeypatch):
    """Guard: on the bench ``search`` argv (Case IV 70B, 16 servers),
    the search builds at most 28 prefill operator lists (480 before
    the per-model memo), and its plan, candidate and frontier counts
    stay pinned."""
    builds = 0
    prefill_operators = prefill_module.prefill_operators

    def counting_operators(*args):
        nonlocal builds
        builds += 1
        return prefill_operators(*args)

    monkeypatch.setattr(prefill_module, "prefill_operators",
                        counting_operators)
    result = search_schedules(
        RAGPerfModel(case_iv_rewriter_reranker("70B"), _CLUSTER))
    print(f"\nprefill-operator-lists={builds}")
    assert builds <= 28
    assert (result.num_plans, result.num_candidates,
            len(result.frontier)) == (9_319, 55_726, 132)


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
