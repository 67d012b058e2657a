"""LLM-only serving baselines.

Two reference systems from the paper:

1. **LLM-only** (§5.1, Fig. 5): no retrieval; the prompt is just the
   question (32 tokens). Reuses the regular schedule search over a
   prefix+decode pipeline.
2. **Long-context LLM** (§5.2): the entire uploaded document (100K-10M
   tokens) is fed as the prompt. The paper grants this baseline an
   efficient hybrid attention -- global attention in one of every four
   layers, local attention over the last 128 tokens elsewhere -- and it
   still loses to RAG by orders of magnitude because of prefill compute
   and KV-cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.hardware.accelerator import XPUSpec
from repro.hardware.cluster import ClusterSpec
from repro.inference.memory import MemoryModel
from repro.inference.parallelism import ShardingPlan, operators_latency
from repro.models.operators import Operator
from repro.models.transformer import TransformerConfig
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.search import SearchConfig, SearchResult, search_schedules
from repro.schema.paradigms import llm_only


def llm_only_search(llm: "str | TransformerConfig", cluster: ClusterSpec,
                    config: Optional[SearchConfig] = None,
                    prefix_len: Optional[int] = None) -> SearchResult:
    """Schedule-search frontier for an LLM-only pipeline."""
    schema = llm_only(llm, prefix_len=prefix_len)
    perf_model = RAGPerfModel(schema, cluster)
    return search_schedules(perf_model, config)


@dataclass(frozen=True)
class LongContextPerf:
    """Performance of the long-context LLM baseline.

    Attributes:
        ttft: Prefill latency over the full context, in seconds.
        qps_per_chip: Sequences per second per chip, bounded by both
            prefill compute and KV-cache-limited decode batching.
        max_decode_batch: Largest decode batch the KV cache allows.
        num_chips: Accelerators used.
    """

    ttft: float
    qps_per_chip: float
    max_decode_batch: int
    num_chips: int


#: One of every ``GLOBAL_ATTENTION_PERIOD`` layers attends globally.
GLOBAL_ATTENTION_PERIOD = 4
#: The remaining layers attend over the trailing window only.
LOCAL_ATTENTION_WINDOW = 128


def _hybrid_prefill_operators(model: TransformerConfig, batch: int,
                              context_len: int) -> list:
    """Prefill operators with hybrid global/local attention over a long
    context; dense matmul terms are unchanged."""
    tokens = float(batch * context_len)
    d = model.d_model
    kv = model.kv_dim
    wb = model.weight_bytes_per_param
    ab = model.activation_bytes
    global_layers = max(model.num_layers // GLOBAL_ATTENTION_PERIOD, 1)
    local_layers = model.num_layers - global_layers

    operators = [
        Operator(
            name="qkv_proj",
            flops=2.0 * tokens * d * (d + 2 * kv),
            weight_bytes=(d * d + 2 * d * kv) * wb,
            io_bytes=tokens * (2 * d + 2 * kv) * ab,
            count=model.num_layers,
        ),
        Operator(
            name="attention_global",
            flops=4.0 * tokens * (context_len / 2.0) * d,
            weight_bytes=0.0,
            io_bytes=tokens * 3 * d * ab,
            count=global_layers,
        ),
        Operator(
            name="out_proj",
            flops=2.0 * tokens * d * d,
            weight_bytes=d * d * wb,
            io_bytes=tokens * 2 * d * ab,
            count=model.num_layers,
        ),
        Operator(
            name="mlp",
            flops=2.0 * tokens * d * model.d_ff
            * (3 if model.gated_mlp else 2),
            weight_bytes=(3 if model.gated_mlp else 2) * d * model.d_ff * wb,
            io_bytes=tokens * (2 * d + model.d_ff) * ab,
            count=model.num_layers,
        ),
    ]
    if local_layers > 0:
        operators.insert(2, Operator(
            name="attention_local",
            flops=4.0 * tokens * LOCAL_ATTENTION_WINDOW * d,
            weight_bytes=0.0,
            io_bytes=tokens * 3 * d * ab,
            count=local_layers,
        ))
    return operators


def long_context_llm_perf(model: TransformerConfig, context_len: int,
                          num_chips: int, xpu: XPUSpec,
                          decode_len: int = 256,
                          memory: Optional[MemoryModel] = None) -> LongContextPerf:
    """Analytical performance of feeding the whole context as a prompt.

    Args:
        model: Generative LLM.
        context_len: Prompt length in tokens (the full document).
        num_chips: Accelerators (tensor-parallel across all of them).
        xpu: Accelerator generation.
        decode_len: Tokens generated after the prompt.
        memory: Memory model (KV-cache precision, HBM headroom).

    Raises:
        ConfigError: on non-positive sizes.
    """
    if context_len <= 0 or decode_len <= 0:
        raise ConfigError("context_len and decode_len must be positive")
    memory = memory or MemoryModel()
    plan = ShardingPlan(tensor_parallel=num_chips, pipeline_parallel=1)

    operators = _hybrid_prefill_operators(model, batch=1,
                                          context_len=context_len)
    activation_payload = context_len * model.d_model * model.activation_bytes
    ttft = operators_latency(operators, plan, xpu,
                             allreduce_bytes_per_layer=activation_payload,
                             num_layers=model.num_layers,
                             stage_boundary_bytes=0.0)

    # KV cache: global layers keep the full context, local layers keep
    # only the attention window.
    global_layers = max(model.num_layers // GLOBAL_ATTENTION_PERIOD, 1)
    local_layers = model.num_layers - global_layers
    kv_per_layer_token = 2.0 * model.kv_dim * memory.kv_bytes_per_element
    kv_per_seq = kv_per_layer_token * (
        global_layers * (context_len + decode_len)
        + local_layers * min(LOCAL_ATTENTION_WINDOW,
                             context_len + decode_len))
    hbm_budget = xpu.hbm_bytes * memory.usable_fraction * num_chips
    available = hbm_budget - model.weight_bytes
    max_batch = max(int(available // kv_per_seq), 0) if kv_per_seq else 0

    if max_batch == 0:
        return LongContextPerf(ttft=ttft, qps_per_chip=0.0,
                               max_decode_batch=0, num_chips=num_chips)

    # Decode step: stream weights plus the retained KV cache per layer.
    batch = max_batch
    d = model.d_model
    step_operators = [
        Operator(
            name="dense",
            flops=2.0 * model.num_params * batch,
            weight_bytes=model.weight_bytes,
            io_bytes=batch * 4 * d * model.activation_bytes,
        ),
        Operator(
            name="attention_kv",
            flops=4.0 * batch * d * (
                global_layers * context_len
                + local_layers * LOCAL_ATTENTION_WINDOW) / model.num_layers,
            weight_bytes=0.0,
            io_bytes=batch * kv_per_seq,
        ),
    ]
    step_latency = operators_latency(
        step_operators, plan, xpu,
        allreduce_bytes_per_layer=batch * d * model.activation_bytes,
        num_layers=model.num_layers,
        stage_boundary_bytes=0.0)
    decode_latency = decode_len * step_latency

    prefill_qps = 1.0 / ttft  # batch-1 prefill; memory excludes batching
    decode_qps = batch / decode_latency
    # The pipeline needs both phases; the slower one bounds throughput.
    qps_per_chip = min(prefill_qps, decode_qps) / num_chips
    return LongContextPerf(ttft=ttft, qps_per_chip=qps_per_chip,
                           max_decode_batch=max_batch, num_chips=num_chips)

