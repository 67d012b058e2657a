"""Analytical LLM inference cost model.

Implements the paper's XPU inference simulator (§4a): operator-level
rooflines, tensor/pipeline parallelism with explicit communication costs,
KV-cache memory accounting, and prefill/decode phase models. No ML runs;
latency and throughput are computed analytically from a
:class:`~repro.models.TransformerConfig` and an
:class:`~repro.hardware.XPUSpec`.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "ShardingPlan": "repro.inference.parallelism",
    "enumerate_plans": "repro.inference.parallelism",
    "MemoryModel": "repro.inference.memory",
    "PrefillModel": "repro.inference.prefill",
    "PrefillPerf": "repro.inference.prefill",
    "DecodeModel": "repro.inference.decode",
    "DecodePerf": "repro.inference.decode",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
