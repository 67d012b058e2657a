"""RAGSchema: the paper's structured abstraction of RAG serving workloads.

A :class:`RAGSchema` captures (1) which pipeline components exist
(document encoder, query rewriter, reranker, generative LLM) and (2) the
performance-relevant configuration of each (model sizes, database size and
dimensionality, queries per retrieval, iterative retrieval frequency) --
Table 1 and Fig. 3 of the paper.

:func:`pipeline` builds one with six verbs (rewrite, encode, retrieve,
rerank, generate, sequences); the paper's case studies are presets
over it. JSON encoding lives in :mod:`repro.config`.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "RAGSchema": "repro.schema.ragschema",
    "PipelineBuilder": "repro.schema.builder",
    "pipeline": "repro.schema.builder",
    "Stage": "repro.schema.stages",
    "pipeline_stages": "repro.schema.stages",
    "ttft_stages": "repro.schema.stages",
    "xpu_stages": "repro.schema.stages",
    "case_i_hyperscale": "repro.schema.paradigms",
    "case_ii_long_context": "repro.schema.paradigms",
    "case_iii_iterative": "repro.schema.paradigms",
    "case_iv_rewriter_reranker": "repro.schema.paradigms",
    "llm_only": "repro.schema.paradigms",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
