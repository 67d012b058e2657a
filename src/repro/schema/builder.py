"""Declarative pipeline construction: the builder behind RAGSchema.

RAGSchema (Table 1) is the paper's *general* workload abstraction --
any composition of rewrite / retrieve / rerank / prefill / decode
stages -- but constructing one by hand means knowing which dataclass
field encodes which component. :func:`pipeline` gives the declarative
front door::

    from repro.schema.builder import pipeline

    schema = (pipeline("my-rag")
              .rewrite("8B")
              .retrieve(database, neighbors=5)
              .rerank("120M")
              .generate("70B", iterative=4)
              .build())

The verbs are the components of Table 1 and nothing else: the cost
model, the search and the simulator know a fixed set of stages, so
the builder is closed. :meth:`PipelineBuilder.build` hands the
declared fields to :class:`RAGSchema`, which owns every cross-field
rule (a rewriter needs a database, ...). The paper's four case-study
presets (:mod:`repro.schema.paradigms`) are themselves thin builder
programs.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.errors import ConfigError
from repro.models.catalog import model_by_params
from repro.models.transformer import TransformerConfig
from repro.retrieval.scann_model import DatabaseConfig
from repro.schema.ragschema import RAGSchema
from repro.workloads.profile import SequenceProfile

#: Anything a builder verb accepts as "a model": a config or a catalog
#: label like ``"70B"``.
ModelLike = Union[str, TransformerConfig]


def resolve_model(model: ModelLike) -> TransformerConfig:
    """Coerce a catalog label or config into a TransformerConfig."""
    if isinstance(model, TransformerConfig):
        return model
    return model_by_params(model)


class PipelineBuilder:
    """Fluent construction of one :class:`RAGSchema`.

    Every verb returns the builder, so programs chain; :meth:`build`
    freezes the result. The state is private: a public ``sequences``
    attribute would shadow the :meth:`sequences` verb.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self._name = name
        self._generative_llm: Optional[TransformerConfig] = None
        self._database: Optional[DatabaseConfig] = None
        self._document_encoder: Optional[TransformerConfig] = None
        self._query_rewriter: Optional[TransformerConfig] = None
        self._query_reranker: Optional[TransformerConfig] = None
        self._retrieval_frequency = 0
        self._queries_per_retrieval = 1
        self._brute_force_retrieval = False
        self._sequences = SequenceProfile()
        self._declared: Tuple[str, ...] = ()

    def _declare(self, kind: str) -> None:
        """Record that a stage verb ran (duplicate declarations are
        configuration mistakes, not overrides)."""
        if kind in self._declared:
            raise ConfigError(f"stage {kind!r} declared twice")
        self._declared += (kind,)

    def rewrite(self, model: ModelLike = "8B",
                output_len: Optional[int] = None) -> "PipelineBuilder":
        """Add a generative query rewriter (Case IV's front stage)."""
        self._declare("rewrite")
        self._query_rewriter = resolve_model(model)
        if output_len is not None:
            self._sequences = self._sequences.with_lengths(
                rewrite_output_len=output_len)
        return self

    def encode(self, model: ModelLike = "120M",
               context_len: Optional[int] = None,
               chunk_len: Optional[int] = None) -> "PipelineBuilder":
        """Add a real-time document encoder (Case II's front stage).

        ``context_len`` sizes the uploaded document; it may also be
        provided through ``.sequences(context_len=...)``.
        """
        self._declare("encode")
        self._document_encoder = resolve_model(model)
        overrides = {}
        if context_len is not None:
            overrides["context_len"] = context_len
        if chunk_len is not None:
            overrides["chunk_len"] = chunk_len
        if overrides:
            self._sequences = self._sequences.with_lengths(**overrides)
        return self

    def retrieve(self, database: DatabaseConfig,
                 neighbors: Optional[int] = None,
                 frequency: int = 1,
                 queries_per_retrieval: int = 1,
                 brute_force: bool = False) -> "PipelineBuilder":
        """Add the vector-retrieval stage.

        Args:
            database: The database searched (size, quantization, tree).
            neighbors: Passages appended to the prompt (top-k); defaults
                to the sequence profile's.
            frequency: Retrievals per sequence (>1 = iterative, Case III).
            queries_per_retrieval: Query vectors per retrieval (Case I).
            brute_force: Exact kNN instead of ANN (Case II).
        """
        self._declare("retrieve")
        if frequency < 1:
            raise ConfigError("retrieve frequency must be at least 1")
        self._database = database
        self._retrieval_frequency = max(self._retrieval_frequency, frequency)
        self._queries_per_retrieval = queries_per_retrieval
        self._brute_force_retrieval = brute_force
        if neighbors is not None:
            self._sequences = self._sequences.with_lengths(
                retrieved_passages=neighbors)
        return self

    def rerank(self, model: ModelLike = "120M",
               candidates: Optional[int] = None) -> "PipelineBuilder":
        """Add a retrieval-result reranker (Case IV's back stage)."""
        self._declare("rerank")
        self._query_reranker = resolve_model(model)
        if candidates is not None:
            self._sequences = self._sequences.with_lengths(
                rerank_candidates=candidates)
        return self

    def generate(self, model: ModelLike,
                 iterative: Optional[int] = None,
                 decode_len: Optional[int] = None) -> "PipelineBuilder":
        """Set the main generative LLM.

        Args:
            model: Catalog label or TransformerConfig.
            iterative: Retrievals interleaved with decoding (Case III);
                requires a retrieve stage by build time.
            decode_len: Generated tokens per sequence.
        """
        self._declare("generate")
        self._generative_llm = resolve_model(model)
        if iterative is not None:
            if iterative < 1:
                raise ConfigError("iterative must be at least 1")
            self._retrieval_frequency = max(self._retrieval_frequency,
                                            iterative)
        if decode_len is not None:
            self._sequences = self._sequences.with_lengths(
                decode_len=decode_len)
        return self

    def sequences(self, profile: Optional[SequenceProfile] = None,
                  **lengths: int) -> "PipelineBuilder":
        """Replace the sequence profile and/or override individual
        lengths."""
        base = profile if profile is not None else self._sequences
        self._sequences = base.with_lengths(**lengths) if lengths else base
        return self

    def named(self, name: str) -> "PipelineBuilder":
        """Set (or replace) the schema name."""
        self._name = name
        return self

    def build(self) -> RAGSchema:
        """Freeze the declared stages into a RAGSchema.

        Raises:
            ConfigError: when no generator was declared, or when the
                stages break one of RAGSchema's invariants (iterative
                generation without retrieval, ...).
        """
        if self._generative_llm is None:
            raise ConfigError(
                "pipeline has no generator; call .generate(model) before "
                ".build()"
            )
        return RAGSchema(
            name=self._name or self._default_name(),
            generative_llm=self._generative_llm,
            database=self._database,
            document_encoder=self._document_encoder,
            query_rewriter=self._query_rewriter,
            query_reranker=self._query_reranker,
            retrieval_frequency=self._retrieval_frequency,
            queries_per_retrieval=self._queries_per_retrieval,
            brute_force_retrieval=self._brute_force_retrieval,
            sequences=self._sequences,
        )

    def _default_name(self) -> str:
        parts = []
        if self._query_rewriter is not None:
            parts.append("rewrite")
        if self._database is not None:
            parts.append("retrieve")
        if self._query_reranker is not None:
            parts.append("rerank")
        return "-".join([*parts, self._generative_llm.name])


def pipeline(name: Optional[str] = None) -> PipelineBuilder:
    """Start a declarative pipeline program."""
    return PipelineBuilder(name)
