#!/usr/bin/env python3
"""Long-context document assistant (paper Case II).

A NotebookLM-style product: users upload long documents (100K-10M
tokens) and ask questions. Instead of stuffing the document into the
prompt, the serving system encodes it into a small vector database and
retrieves only the relevant chunks. This example reproduces the §5.2
study: the encoder -- 500x smaller than the generative LLM -- becomes
the bottleneck, retrieval is negligible, and RAG beats a long-context
LLM by orders of magnitude.

Run:
    python examples/long_context_assistant.py
"""

from repro import ClusterSpec, OptimizerSession, case_ii_long_context
from repro.baselines import extension_baseline_search, long_context_llm_perf
from repro.models import LLAMA3_70B
from repro.pipeline import RAGPerfModel, time_breakdown
from repro.rago import SearchConfig


def context_length_sweep(cluster: ClusterSpec) -> None:
    print("=== context length sweep (Fig. 8) ===")
    for context in (100_000, 1_000_000, 10_000_000):
        schema = case_ii_long_context(context, "70B")
        pm = RAGPerfModel(schema, cluster)
        best = OptimizerSession(schema, cluster).optimize().max_qps_per_chip
        shares = time_breakdown(pm)
        parts = "  ".join(f"{stage}={100 * share:4.1f}%"
                          for stage, share in shares.items())
        print(f"  {context / 1e6:4.1f}M tokens: max qps/chip="
              f"{best.qps_per_chip:6.3f}  [{parts}]")
    print("  -> encoding dominates as the context grows; retrieval <1%")
    print()


def rag_vs_long_context_llm(cluster: ClusterSpec) -> None:
    print("=== RAG vs long-context LLM at 1M tokens (para. 5.2) ===")
    schema = case_ii_long_context(1_000_000, "70B")
    rago = OptimizerSession(schema, cluster).optimize()
    lc = long_context_llm_perf(LLAMA3_70B, 1_000_000, 64, cluster.xpu)
    print(f"  long-context LLM: ttft={lc.ttft:8.2f} s   "
          f"qps/chip={lc.qps_per_chip:.2e}  "
          f"(max decode batch {lc.max_decode_batch})")
    print(f"  RAG             : ttft={rago.min_ttft.ttft:8.3f} s   "
          f"qps/chip={rago.max_qps_per_chip.qps_per_chip:.3f}")
    print(f"  -> TTFT {lc.ttft / rago.min_ttft.ttft:,.0f}x faster, "
          f"QPS/chip "
          f"{rago.max_qps_per_chip.qps_per_chip / lc.qps_per_chip:,.0f}x "
          f"higher with RAG (paper: 2852.6x / 6633.9x)")
    print()


def schedule_comparison(cluster: ClusterSpec) -> None:
    print("=== RAGO vs LLM-extension baseline schedules (Table 4) ===")
    schema = case_ii_long_context(1_000_000, "70B")
    pm = RAGPerfModel(schema, cluster)
    rago = OptimizerSession(schema, cluster).optimize(SearchConfig())
    baseline = extension_baseline_search(pm)
    for name, perf in (("RAGO max-QPS", rago.max_qps_per_chip),
                       ("RAGO min-TTFT", rago.min_ttft),
                       ("baseline max-QPS", baseline.max_qps_per_chip),
                       ("baseline min-TTFT", baseline.min_ttft)):
        print(f"  {name:18s} ttft={perf.ttft:7.3f} s  "
              f"qps/chip={perf.qps_per_chip:6.3f}")
        print(f"    {perf.schedule.describe()}")
    speedup = (rago.max_qps_per_chip.qps_per_chip
               / baseline.max_qps_per_chip.qps_per_chip)
    print(f"  -> RAGO delivers {speedup:.2f}x the baseline's max "
          f"QPS/chip (paper: 1.7x)")


def main() -> None:
    cluster = ClusterSpec(num_servers=32)
    context_length_sweep(cluster)
    rag_vs_long_context_llm(cluster)
    schedule_comparison(cluster)


if __name__ == "__main__":
    main()
