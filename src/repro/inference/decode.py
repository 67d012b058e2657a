"""Decode (token generation) phase model.

Decode generates one token per sequence per step and is memory-bound: each
step streams the full weights plus every sequence's KV cache (§2). The
model reports worst-case TPOT (the paper reports worst-case because
continuous batching mixes sequences at different positions, §4) and
steady-state throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import CapacityError, ConfigError
from repro.hardware.accelerator import XPUSpec
from repro.inference.memory import MemoryModel
from repro.inference.parallelism import ShardingPlan, operators_latency
from repro.models.operators import Operator, decode_step_operators
from repro.models.transformer import TransformerConfig


@dataclass(frozen=True)
class DecodePerf:
    """Performance of a decode configuration.

    Attributes:
        tpot: Worst-case time-per-output-token in seconds (step latency at
            the longest context: prompt + full generation).
        mean_step_latency: Step latency at the mean context length, which
            determines sustained throughput.
        sequence_latency: Seconds to generate all ``decode_len`` tokens of
            one batch of sequences.
        throughput: Sequences per second at steady state (continuous
            batching keeps the batch full).
        plan: Sharding plan that achieved it.
        batch: Decode batch size.
        max_batch: Largest batch the KV-cache capacity would allow.
    """

    tpot: float
    mean_step_latency: float
    sequence_latency: float
    throughput: float
    plan: ShardingPlan
    batch: int
    max_batch: int


class DecodeModel:
    """Analytical decode cost model over one accelerator type."""

    def __init__(self, xpu: XPUSpec,
                 memory: Optional[MemoryModel] = None) -> None:
        self._xpu = xpu
        self._memory = memory or MemoryModel()
        # Operator lists per (model, batch, context length).
        self._operators: Dict[Tuple[TransformerConfig, int, float],
                              Tuple[Operator, ...]] = {}

    @property
    def xpu(self) -> XPUSpec:
        """Accelerator the model evaluates against."""
        return self._xpu

    def step_latency(self, model: TransformerConfig, plan: ShardingPlan,
                     batch: int, context_len: float) -> float:
        """Latency of one decode step at a given context length."""
        key = (model, batch, context_len)
        operators = self._operators.get(key)
        if operators is None:
            operators = self._operators[key] = tuple(decode_step_operators(
                model, batch, context_len,
                kv_bytes_per_element=self._memory.kv_bytes_per_element,
            ))
        activation_payload = batch * model.d_model * model.activation_bytes
        return operators_latency(
            operators,
            plan,
            self._xpu,
            allreduce_bytes_per_layer=activation_payload,
            num_layers=model.num_layers,
            stage_boundary_bytes=activation_payload,
        )

    def plan_perf(self, model: TransformerConfig, plan: ShardingPlan,
                  batch: int, prefix_len: int, decode_len: int) -> DecodePerf:
        """Evaluate one sharding plan for a full generation phase.

        Raises:
            CapacityError: when weights or the batch's KV cache do not fit.
            ConfigError: on non-positive lengths.
        """
        if prefix_len < 0 or decode_len <= 0:
            raise ConfigError("prefix_len must be >= 0 and decode_len > 0")
        self._memory.require_weights_fit(model, plan, self._xpu)
        worst_context = float(prefix_len + decode_len)
        max_batch = self._memory.max_decode_batch(model, plan, self._xpu,
                                                  worst_context)
        if batch > max_batch:
            raise CapacityError(
                f"decode batch {batch} exceeds KV-cache capacity "
                f"({max_batch}) for {model.name} on {plan.num_chips} chips"
            )
        mean_context = prefix_len + decode_len / 2.0
        mean_step = self.step_latency(model, plan, batch, mean_context)
        worst_step = self.step_latency(model, plan, batch, worst_context)
        sequence_latency = decode_len * mean_step
        throughput = batch / sequence_latency
        return DecodePerf(
            tpot=worst_step,
            mean_step_latency=mean_step,
            sequence_latency=sequence_latency,
            throughput=throughput,
            plan=plan,
            batch=batch,
            max_batch=max_batch,
        )

    def best_perf(self, model: TransformerConfig, num_chips: int, batch: int,
                  prefix_len: int, decode_len: int) -> DecodePerf:
        """Decode performance on ``num_chips`` chips.

        Decode shards tensor-parallel across the whole allocation: its
        per-step communication payload is tiny (one token's activations),
        so TP minimizes TPOT, and pipeline-parallel decode would multiply
        the in-flight batch without improving per-chip throughput; the
        TP-only plan is optimal for latency and throughput alike.

        Raises:
            CapacityError: when the weights or KV cache do not fit.
        """
        plan = ShardingPlan(tensor_parallel=num_chips, pipeline_parallel=1)
        return self.plan_perf(model, plan, batch, prefix_len, decode_len)
