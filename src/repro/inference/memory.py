"""Accelerator memory accounting for model weights and KV cache.

The paper assumes int8 weights, so "the accelerator memory requirement
directly corresponds to the model's parameter count" (§4), and notes that
KV-cache capacity bounds decode batch sizes (§5.2, reason II for RAG's
long-context advantage). This module decides whether a sharding plan fits
and how large a decode batch the remaining HBM supports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError, ConfigError
from repro.hardware.accelerator import XPUSpec
from repro.inference.parallelism import ShardingPlan
from repro.models.transformer import TransformerConfig


@dataclass(frozen=True)
class MemoryModel:
    """Memory feasibility checks for a model on a set of accelerators.

    Attributes:
        usable_fraction: Share of HBM available to weights + KV cache
            (the rest is reserved for activations and runtime buffers).
        kv_bytes_per_element: KV-cache precision (1 byte under the
            paper's int8 assumption).
    """

    usable_fraction: float = 0.9
    kv_bytes_per_element: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.usable_fraction <= 1:
            raise ConfigError("usable_fraction must be in (0, 1]")
        if self.kv_bytes_per_element <= 0:
            raise ConfigError("kv_bytes_per_element must be positive")

    def weights_per_chip(self, model: TransformerConfig,
                         plan: ShardingPlan) -> float:
        """Weight bytes stored on each chip under the plan."""
        return model.weight_bytes / plan.num_chips

    def weights_fit(self, model: TransformerConfig, plan: ShardingPlan,
                    xpu: XPUSpec) -> bool:
        """Whether the sharded weights fit in usable HBM."""
        budget = xpu.hbm_bytes * self.usable_fraction
        return self.weights_per_chip(model, plan) <= budget

    def require_weights_fit(self, model: TransformerConfig,
                            plan: ShardingPlan, xpu: XPUSpec) -> None:
        """Raise :class:`CapacityError` when the weights do not fit."""
        if not self.weights_fit(model, plan, xpu):
            raise CapacityError(
                f"{model.name} needs "
                f"{self.weights_per_chip(model, plan) / 1e9:.1f} GB/chip on "
                f"{plan.num_chips} chips but {xpu.name} offers "
                f"{xpu.hbm_bytes * self.usable_fraction / 1e9:.1f} GB usable"
            )

    def min_chips(self, model: TransformerConfig, xpu: XPUSpec) -> int:
        """Smallest power-of-two chip count whose usable HBM holds the
        model's weights.

        Raises:
            CapacityError: past 2**20 chips (also the answer for
                non-finite weight bytes, which fit nowhere).
        """
        chips = 1
        while not self.weights_fit(model, ShardingPlan(chips, 1), xpu):
            chips *= 2
            if chips > 1 << 20:
                raise CapacityError(
                    f"{model.name} does not fit on any chip count up to "
                    f"{1 << 20:,} x {xpu.name}")
        return chips

    def kv_bytes_per_sequence(self, model: TransformerConfig,
                              context_len: float) -> float:
        """KV-cache bytes one sequence occupies at a context length."""
        if context_len < 0:
            raise ConfigError("context_len must be non-negative")
        per_token = model.kv_cache_bytes_per_token(self.kv_bytes_per_element)
        return per_token * context_len

    def max_decode_batch(self, model: TransformerConfig, plan: ShardingPlan,
                         xpu: XPUSpec, context_len: float) -> int:
        """Largest decode batch whose KV cache fits beside the weights.

        Returns 0 when even a single sequence does not fit.
        """
        budget = xpu.hbm_bytes * self.usable_fraction * plan.num_chips
        available = budget - model.weight_bytes
        if available <= 0:
            return 0
        per_seq = self.kv_bytes_per_sequence(model, context_len)
        if per_seq <= 0:
            # Encoders keep no KV cache; batch is unbounded by memory.
            return 1 << 30
        return int(available // per_seq)
