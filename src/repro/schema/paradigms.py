"""Preset RAGSchema instantiations for the paper's four case studies
(Table 3) plus the LLM-only reference pipeline.

=================  =======================================================
Case I             Hyperscale retrieval: 64B-vector database, one
                   retrieval, 1-8 query vectors, LLM 1B-405B.
Case II            Long-context: 120M document encoder, 100K-10M token
                   context (1K-100K vectors), brute-force kNN.
Case III           Iterative retrievals: Case I plus 2-8 retrievals per
                   sequence during decoding.
Case IV            Query rewriter (8B) + reranker (120M) around Case I.
=================  =======================================================

Each preset is a thin program over :mod:`repro.schema.builder` -- the
declarative API that composes *any* stage combination; these five are
just the compositions the paper evaluates.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.models.catalog import ENCODER_120M, RERANKER_120M, REWRITER_8B
from repro.models.transformer import TransformerConfig
from repro.retrieval.scann_model import DatabaseConfig
from repro.schema.builder import pipeline, resolve_model
from repro.schema.ragschema import RAGSchema
from repro.workloads.profile import SequenceProfile

#: Case I/III/IV database: 64 billion passages, 768-d, PQ to 96 bytes.
HYPERSCALE_DATABASE = DatabaseConfig(
    num_vectors=64e9,
    dim=768,
    bytes_per_vector=96.0,
    scan_fraction=0.001,
    tree_fanout=4096,
    tree_levels=3,
)

#: Case II stores fresh FP16 embeddings (768 dims x 2 bytes).
LONG_CONTEXT_BYTES_PER_VECTOR = 768 * 2.0


def case_i_hyperscale(llm: "str | TransformerConfig" = "8B",
                      queries_per_retrieval: int = 1,
                      scan_fraction: float = 0.001,
                      sequences: Optional[SequenceProfile] = None) -> RAGSchema:
    """Case I: hyperscale retrieval + generative LLM (RETRO-style)."""
    model = resolve_model(llm)
    database = HYPERSCALE_DATABASE.with_scan_fraction(scan_fraction)
    return (pipeline(f"case-i-{model.name}")
            .sequences(profile=sequences or SequenceProfile())
            .retrieve(database, queries_per_retrieval=queries_per_retrieval)
            .generate(model)
            .build())


def long_context_database(profile: SequenceProfile) -> DatabaseConfig:
    """Case II's database: one FP16 vector per chunk of the profile's
    context (at least one) under a one-level index, sized for
    brute-force kNN."""
    num_vectors = max(profile.num_chunks, 1)
    return DatabaseConfig(
        num_vectors=float(num_vectors),
        dim=768,
        bytes_per_vector=LONG_CONTEXT_BYTES_PER_VECTOR,
        scan_fraction=1.0,
        tree_fanout=max(num_vectors, 2),
        tree_levels=1,
    )


def case_ii_long_context(context_len: int = 1_000_000,
                         llm: "str | TransformerConfig" = "70B",
                         sequences: Optional[SequenceProfile] = None) -> RAGSchema:
    """Case II: long-context processing via RAG.

    The uploaded document becomes a tiny database (one vector per
    128-token chunk) searched with brute-force kNN; a 120M encoder builds
    the vectors in real time.
    """
    if context_len <= 0:
        raise ConfigError("context_len must be positive")
    base = sequences or SequenceProfile()
    profile = base.with_lengths(context_len=context_len)
    model = resolve_model(llm)
    return (pipeline(f"case-ii-{model.name}-ctx{context_len}")
            .sequences(profile=profile)
            .encode(ENCODER_120M)
            .retrieve(long_context_database(profile), brute_force=True)
            .generate(model)
            .build())


def case_iii_iterative(llm: "str | TransformerConfig" = "70B",
                       retrieval_frequency: int = 4,
                       sequences: Optional[SequenceProfile] = None) -> RAGSchema:
    """Case III: hyperscale retrieval with iterative retrievals during
    decoding (2-8 per sequence)."""
    if retrieval_frequency < 1:
        raise ConfigError("retrieval_frequency must be at least 1")
    model = resolve_model(llm)
    return (pipeline(f"case-iii-{model.name}-x{retrieval_frequency}")
            .sequences(profile=sequences or SequenceProfile())
            .retrieve(HYPERSCALE_DATABASE)
            .generate(model, iterative=retrieval_frequency)
            .build())


def case_iv_rewriter_reranker(llm: "str | TransformerConfig" = "70B",
                              sequences: Optional[SequenceProfile] = None) -> RAGSchema:
    """Case IV: Case I plus an 8B query rewriter and a 120M reranker."""
    model = resolve_model(llm)
    return (pipeline(f"case-iv-{model.name}")
            .sequences(profile=sequences or SequenceProfile())
            .rewrite(REWRITER_8B)
            .retrieve(HYPERSCALE_DATABASE)
            .rerank(RERANKER_120M)
            .generate(model)
            .build())


def llm_only(llm: "str | TransformerConfig" = "70B",
             prefix_len: Optional[int] = None,
             sequences: Optional[SequenceProfile] = None) -> RAGSchema:
    """LLM-only serving pipeline (no retrieval).

    By default the prompt is just the question (32 tokens), matching the
    paper's RAG-vs-LLM-only comparison (512-token RAG prompts vs 32-token
    questions, §5.1).
    """
    model = resolve_model(llm)
    base = sequences or SequenceProfile()
    prompt = prefix_len if prefix_len is not None else base.question_len
    profile = base.with_lengths(prefix_len=max(prompt, base.question_len))
    return (pipeline(f"llm-only-{model.name}")
            .sequences(profile=profile)
            .generate(model)
            .build())
