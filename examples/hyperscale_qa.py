#!/usr/bin/env python3
"""Hyperscale question answering (paper Case I).

A RETRO-style deployment: a 64-billion-vector knowledge corpus serves a
question-answering product. This example walks the paper's §5.1
characterization: how RAG with a small model compares to a bigger
LLM-only system, where the time goes, and how the bottleneck moves with
query fan-out and accelerator generation.

Run:
    python examples/hyperscale_qa.py
"""

from repro import (
    ClusterSpec,
    OptimizerSession,
    Stage,
    case_i_hyperscale,
    llm_only,
)
from repro.hardware import XPU_GENERATIONS
from repro.pipeline import RAGPerfModel, time_breakdown


def rag_vs_llm_only(cluster: ClusterSpec) -> None:
    print("=== RAG with small models vs LLM-only (Fig. 5) ===")
    rows = []
    for schema in (case_i_hyperscale("1B"), case_i_hyperscale("8B")):
        best = OptimizerSession(schema, cluster).optimize().max_qps_per_chip
        rows.append((schema.name, best.qps_per_chip, best.ttft))
    for label in ("8B", "70B"):
        best = OptimizerSession(llm_only(label),
                                cluster).optimize().max_qps_per_chip
        rows.append((f"llm-only-{label}", best.qps_per_chip, best.ttft))
    for name, qps, ttft in rows:
        print(f"  {name:18s} max qps/chip={qps:7.2f}  "
              f"(ttft {ttft * 1e3:7.1f} ms)")
    print()


def where_does_time_go(cluster: ClusterSpec) -> None:
    print("=== time x resource breakdown by model size (Fig. 6c/d) ===")
    for label in ("1B", "8B", "70B"):
        shares = time_breakdown(RAGPerfModel(case_i_hyperscale(label),
                                             cluster))
        parts = "  ".join(f"{stage}={100 * share:5.1f}%"
                          for stage, share in shares.items())
        print(f"  RAG {label:4s} {parts}")
    print()


def query_fanout(cluster: ClusterSpec) -> None:
    print("=== multi-query retrieval (Fig. 6a) ===")
    for queries in (1, 2, 4, 8):
        schema = case_i_hyperscale("8B", queries_per_retrieval=queries)
        best = OptimizerSession(schema, cluster).optimize().max_qps_per_chip
        print(f"  {queries} quer{'y' if queries == 1 else 'ies'}/retrieval:"
              f" max qps/chip={best.qps_per_chip:6.2f}")
    print("  -> QPS roughly halves per query doubling: retrieval-bound")
    print()


def accelerator_generations() -> None:
    print("=== retrieval share by XPU generation (Fig. 7a) ===")
    for xpu in XPU_GENERATIONS:
        cluster = ClusterSpec(num_servers=32, xpu=xpu)
        shares = time_breakdown(RAGPerfModel(case_i_hyperscale("8B"),
                                             cluster))
        print(f"  {xpu.name}: retrieval "
              f"{100 * shares[Stage.RETRIEVAL]:5.1f}% of time x resource")
    print("  -> faster chips push the bottleneck toward retrieval")


def main() -> None:
    cluster = ClusterSpec(num_servers=32)
    rag_vs_llm_only(cluster)
    where_does_time_go(cluster)
    query_fanout(cluster)
    accelerator_generations()


if __name__ == "__main__":
    main()
