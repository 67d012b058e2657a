"""The RAGSchema dataclass (Table 1).

RAGSchema is a *performance* abstraction: it records which components a
RAG pipeline contains and their performance-relevant parameters. It
deliberately says nothing about quality (§3.2).

The dataclass owns every cross-field rule (a rewriter, reranker or
encoder needs a database, and so does iterative retrieval), so the
builder, the envelope decoder and a direct call accept the same
schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.models.transformer import TransformerConfig
from repro.retrieval.scann_model import DatabaseConfig
from repro.workloads.profile import SequenceProfile


@dataclass(frozen=True)
class RAGSchema:
    """Structured description of one RAG serving workload.

    Attributes:
        name: Identifier for reports ("case-i-8b", ...).
        generative_llm: The main answer-generation model (always present).
        database: Vector database configuration, or None for an LLM-only
            pipeline without retrieval.
        document_encoder: Real-time database encoder (Case II), or None.
        query_rewriter: Generative query rewriter (Case IV), or None.
        query_reranker: Retrieval-result reranker (Case IV), or None.
        retrieval_frequency: Retrievals per generated sequence. 1 means a
            single retrieval before generation; >1 enables iterative
            retrievals during decoding (Case III). Without a database
            it is coerced to 0 and may not exceed 1.
        queries_per_retrieval: Query vectors issued per retrieval (Case I
            sweeps 1-8).
        brute_force_retrieval: Use exact kNN instead of ANN (Case II's
            tiny freshly-encoded databases).
        sequences: Token-length profile of the workload (§4 defaults).
    """

    name: str
    generative_llm: TransformerConfig
    database: Optional[DatabaseConfig] = None
    document_encoder: Optional[TransformerConfig] = None
    query_rewriter: Optional[TransformerConfig] = None
    query_reranker: Optional[TransformerConfig] = None
    retrieval_frequency: int = 1
    queries_per_retrieval: int = 1
    brute_force_retrieval: bool = False
    sequences: SequenceProfile = field(default_factory=SequenceProfile)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("schema needs a non-empty name")
        if self.retrieval_frequency < 0:
            raise ConfigError("retrieval_frequency must be non-negative")
        if self.queries_per_retrieval <= 0:
            raise ConfigError("queries_per_retrieval must be positive")
        if self.database is None:
            for label, model in (("query rewriter", self.query_rewriter),
                                 ("query reranker", self.query_reranker),
                                 ("document encoder",
                                  self.document_encoder)):
                if model is not None:
                    raise ConfigError(
                        f"a {label} requires a database to retrieve from")
            if self.retrieval_frequency > 1:
                raise ConfigError(
                    "iterative generation (retrieval_frequency > 1) "
                    "requires a database to retrieve from")
            # The default single retrieval means "none" without a
            # database: an LLM-only pipeline.
            object.__setattr__(self, "retrieval_frequency", 0)
        elif self.retrieval_frequency == 0:
            raise ConfigError(
                "a schema with a database must retrieve at least once; "
                "drop the database for LLM-only pipelines"
            )
        if (self.document_encoder is not None
                and self.sequences.context_len is None):
            raise ConfigError(
                "a document encoder requires sequences.context_len"
            )

    @property
    def has_retrieval(self) -> bool:
        """Whether the pipeline retrieves at all."""
        return self.database is not None and self.retrieval_frequency > 0

    @property
    def is_iterative(self) -> bool:
        """Whether retrievals interleave with decoding (Case III)."""
        return self.has_retrieval and self.retrieval_frequency > 1

    @property
    def model_components(self) -> dict:
        """Name -> model for every inference component present."""
        components = {}
        if self.document_encoder is not None:
            components["document_encoder"] = self.document_encoder
        if self.query_rewriter is not None:
            components["query_rewriter"] = self.query_rewriter
        if self.query_reranker is not None:
            components["query_reranker"] = self.query_reranker
        components["generative_llm"] = self.generative_llm
        return components

    def describe(self) -> str:
        """One-line human-readable summary (RAGSchema row)."""
        parts = [f"llm={self.generative_llm.name}"]
        if self.database is not None:
            parts.append(f"dbvec={self.database.num_vectors:.0f}")
            parts.append(f"freq={self.retrieval_frequency}")
            parts.append(f"qpr={self.queries_per_retrieval}")
        for label, model in self.model_components.items():
            if label != "generative_llm":
                parts.append(f"{label}={model.name}")
        return f"RAGSchema({self.name}: " + ", ".join(parts) + ")"
