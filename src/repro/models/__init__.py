"""Transformer model configurations and the operator-level workload graph.

The inference cost model does not run any ML; it expands a
:class:`TransformerConfig` into a sequence of operators (QKV projection,
attention, MLP, ...) whose FLOP and byte demands feed the roofline model,
exactly as the paper's XPU simulator abstracts inference (§4a, Fig. 4).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "TransformerConfig": "repro.models.transformer",
    "ENCODER_120M": "repro.models.catalog",
    "LLAMA3_1B": "repro.models.catalog",
    "LLAMA3_8B": "repro.models.catalog",
    "LLAMA3_70B": "repro.models.catalog",
    "LLAMA3_405B": "repro.models.catalog",
    "MODEL_CATALOG": "repro.models.catalog",
    "RERANKER_120M": "repro.models.catalog",
    "REWRITER_8B": "repro.models.catalog",
    "model_by_params": "repro.models.catalog",
    "Operator": "repro.models.operators",
    "decode_step_operators": "repro.models.operators",
    "prefill_operators": "repro.models.operators",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
