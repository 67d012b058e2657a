#!/usr/bin/env python3
"""Enterprise search with query rewriting and reranking (paper Case IV).

A search product rewrites vague user queries with an 8B model, retrieves
from the hyperscale corpus, reranks candidates with a 120M encoder, then
generates with a 70B LLM. This example reproduces the §5.4 / §7 studies:
the rewriter's autoregressive decode inflates TTFT, placement matters,
and micro-batching bursts helps moderately.

Run:
    python examples/rewriter_reranker_search.py
"""

from repro import (
    ClusterSpec,
    OptimizerSession,
    Stage,
    case_iv_rewriter_reranker,
)
from repro.pipeline import RAGPerfModel
from repro.pipeline.microbatch import ttft_reduction
from repro.rago import SearchConfig
from repro.rago.placement import (
    enumerate_placements,
    fully_collocated,
    fully_disaggregated,
)


def placement_study(cluster: ClusterSpec) -> None:
    print("=== placement sensitivity (Fig. 17b) ===")
    schema = case_iv_rewriter_reranker("70B")
    session = OptimizerSession(schema, cluster)
    policies = {
        "collocated": [fully_collocated(schema)],
        "disaggregated": [fully_disaggregated(schema)],
        "hybrid (all plans)": enumerate_placements(schema),
    }
    results = {}
    for name, placements in policies.items():
        config = SearchConfig(max_batch=64, max_decode_batch=512,
                              placements=placements)
        results[name] = session.optimize(config).max_qps_per_chip
    for name, perf in results.items():
        print(f"  {name:20s} max qps/chip={perf.qps_per_chip:6.3f}")
    best = results["hybrid (all plans)"]
    print(f"  best hybrid schedule: {best.schedule.describe()}")
    print()


def ttft_anatomy(cluster: ClusterSpec) -> None:
    print("=== TTFT anatomy at batch 1 (Fig. 11) ===")
    pm = RAGPerfModel(case_iv_rewriter_reranker("70B"), cluster)
    resources = {Stage.REWRITE_PREFIX: 4, Stage.REWRITE_DECODE: 4,
                 Stage.RETRIEVAL: cluster.num_servers, Stage.RERANK: 4,
                 Stage.PREFIX: 16}
    total = 0.0
    for stage, resource in resources.items():
        latency = pm.perf_options(stage, 1, resource)[0].latency
        total += latency
        print(f"  {str(stage):16s} {latency * 1e3:7.2f} ms")
    print(f"  {'total TTFT':16s} {total * 1e3:7.2f} ms")
    print("  -> the 32-token autoregressive rewrite dominates TTFT")
    print()


def burst_microbatching(cluster: ClusterSpec) -> None:
    print("=== micro-batching a 32-request burst (Fig. 19c) ===")
    pm = RAGPerfModel(case_iv_rewriter_reranker("70B"), cluster)
    resources = {Stage.REWRITE_PREFIX: 4, Stage.REWRITE_DECODE: 4,
                 Stage.RETRIEVAL: cluster.num_servers, Stage.RERANK: 4,
                 Stage.PREFIX: 16}
    reductions = ttft_reduction(pm, resources, burst_size=32,
                                microbatch_sizes=[1, 2, 4, 8, 16])
    for size, reduction in sorted(reductions.items()):
        print(f"  micro-batch {size:2d}: TTFT reduction "
              f"{100 * reduction:5.1f}%")
    print("  -> moderate gains: the rewriter decode's latency is flat in")
    print("     batch size, limiting pipelining benefits (paper: ~25%)")


def main() -> None:
    cluster = ClusterSpec(num_servers=32)
    placement_study(cluster)
    ttft_anatomy(cluster)
    burst_microbatching(cluster)


if __name__ == "__main__":
    main()
