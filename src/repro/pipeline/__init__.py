"""RAG pipeline performance assembly.

Connects a :class:`~repro.schema.RAGSchema` to the inference and retrieval
cost models: per-stage performance (:mod:`repro.pipeline.stage_perf`),
end-to-end TTFT/TPOT/QPS assembly for a schedule
(:mod:`repro.pipeline.assembly`), resource-normalized time breakdowns
(:mod:`repro.pipeline.breakdown`), the iterative-retrieval discrete-event
model (:mod:`repro.pipeline.iterative`) and the micro-batching model
(:mod:`repro.pipeline.microbatch`).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "RAGPerfModel": "repro.pipeline.stage_perf",
    "StagePerf": "repro.pipeline.stage_perf",
    "PipelinePerf": "repro.pipeline.assembly",
    "PlacementGroup": "repro.pipeline.assembly",
    "Schedule": "repro.pipeline.assembly",
    "assemble": "repro.pipeline.assembly",
    "time_breakdown": "repro.pipeline.breakdown",
    "IterativeDecodeResult": "repro.pipeline.iterative",
    "simulate_iterative_decode": "repro.pipeline.iterative",
    "microbatch_ttft": "repro.pipeline.microbatch",
    "ttft_reduction": "repro.pipeline.microbatch",
    "OrderResult": "repro.pipeline.execution_order",
    "simulate_collocated_order": "repro.pipeline.execution_order",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
