#!/usr/bin/env python3
"""A pipeline beyond the paper's four case studies.

RAGSchema is a general abstraction; the builder composes stage
combinations the paper never evaluates. This example declares a
"research assistant" pipeline that chains *everything*: a freshly
encoded long-context document base (Case II's encoder), a query
rewriter and a reranker (Case IV's helpers), and iterative retrieval
during decoding (Case III's loop) -- all around a 70B generator.

It also models a summarization pass that compresses the retrieved
passages before the main prefill. That is not a new stage: the builder
expresses it as a shorter prompt, ``.sequences(prefix_len=...)``.

Run:
    python examples/custom_pipeline.py
"""

from repro import ClusterSpec, OptimizerSession, SequenceProfile
from repro.schema import pipeline
from repro.schema.paradigms import long_context_database


def summarized_prefix(profile: SequenceProfile, ratio: float = 0.5) -> int:
    """Prompt length once the retrieved passages are summarized to
    ``ratio`` of their length (the question stays whole)."""
    passages = profile.retrieved_passages * profile.passage_len
    return profile.question_len + max(int(passages * ratio), 1)


def build_research_assistant():
    """Rewriter + fresh 200K-token context + rerank + iterative 70B."""
    profile = SequenceProfile(context_len=200_000)
    return (pipeline("research-assistant-70b")
            .sequences(profile=profile)
            .encode("120M")                    # embed the uploaded corpus
            .rewrite("8B")                     # clean up the user query
            .retrieve(long_context_database(profile),  # Case II's database
                      brute_force=True)
            .rerank("120M", candidates=32)     # score 32 nearest chunks
            .sequences(prefix_len=summarized_prefix(profile))  # summarize
            .generate("70B", iterative=2)      # retrieve again mid-decode
            .build())


def main() -> None:
    schema = build_research_assistant()
    cluster = ClusterSpec(num_servers=16)
    print(f"workload : {schema.describe()}")
    print(f"stages   : encode -> rewrite -> retrieve -> rerank -> "
          f"prefill -> decode (x{schema.retrieval_frequency} retrievals)")
    print(f"cluster  : {cluster.num_servers} servers x "
          f"{cluster.xpus_per_server} {cluster.xpu.name}")
    print()

    session = (OptimizerSession(schema, cluster)
               .with_constraint(max_ttft=2.0))
    result = session.optimize()
    print(f"searched {result.num_plans} plans; frontier:")
    for perf in result.frontier:
        print(f"  ttft={perf.ttft * 1e3:8.1f} ms   "
              f"qps/chip={perf.qps_per_chip:7.3f}   "
              f"xpus={perf.total_xpus:3d}")
    print()
    best = session.best()
    print("best schedule under TTFT <= 2 s:")
    print(f"  {best.schedule.describe()}")
    print(f"  -> {best.qps_per_chip:.3f} QPS/chip at "
          f"{best.ttft * 1e3:.1f} ms TTFT")


if __name__ == "__main__":
    main()
