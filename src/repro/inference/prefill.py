"""Prefill (prompt computation) phase model.

Prefill processes the whole input sequence at once and is compute-bound
even at small batch sizes (§2). Sharding matters in two distinct ways:

* **Tensor parallelism** splits every operator across chips -- it shrinks
  the single-batch latency but pays per-layer all-reduces.
* **Pipeline parallelism** splits layers into stages and streams
  micro-batches through them -- steady-state throughput scales with the
  stage count while a request's latency stays near one full traverse.

For a batch ``B`` on plan (tp, pp) the batch is cut into micro-batches of
``m = ceil(B / pp)``; one traverse of all layers at micro-batch size m
takes ``T``; each stage then occupies ``T / pp``, so

* batch latency  = ``T + (k - 1) * T / pp`` with ``k = ceil(B / m)``
  micro-batches in flight, and
* throughput     = ``m * pp / T`` sequences/second at steady state.

Both plan flavours can be Pareto-optimal (TP for latency, PP for
throughput), so :meth:`PrefillModel.pareto_perfs` exposes the full
frontier over plans and RAGO picks per schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityError, ConfigError
from repro.hardware.accelerator import XPUSpec
from repro.inference.memory import MemoryModel
from repro.inference.parallelism import (
    ShardingPlan,
    enumerate_plans,
    operators_latency,
)
from repro.models.operators import Operator, prefill_operators
from repro.models.transformer import TransformerConfig


@dataclass(frozen=True)
class PrefillPerf:
    """Performance of a prefill configuration.

    Attributes:
        latency: Seconds until the whole batch has finished prefill (the
            TTFT contribution of this stage).
        throughput: Sequences per second at steady state.
        plan: The sharding plan that achieved it.
        batch: Batch size evaluated.
        seq_len: Prompt length in tokens.
    """

    latency: float
    throughput: float
    plan: ShardingPlan
    batch: int
    seq_len: int


class PrefillModel:
    """Analytical prefill cost model over one accelerator type."""

    def __init__(self, xpu: XPUSpec,
                 memory: Optional[MemoryModel] = None) -> None:
        self._xpu = xpu
        self._memory = memory or MemoryModel()
        # Operator lists per (model, micro-batch, prompt length): sharding
        # plans and batch sizes share micro-batch sizes.
        self._operators: Dict[Tuple[TransformerConfig, int, int],
                              Tuple[Operator, ...]] = {}

    @property
    def xpu(self) -> XPUSpec:
        """Accelerator the model evaluates against."""
        return self._xpu

    def plan_perf(self, model: TransformerConfig, plan: ShardingPlan,
                  batch: int, seq_len: int) -> PrefillPerf:
        """Evaluate one sharding plan.

        Raises:
            CapacityError: when the plan's weight shards do not fit.
        """
        self._memory.require_weights_fit(model, plan, self._xpu)
        pp = plan.pipeline_parallel
        microbatch = math.ceil(batch / pp)
        in_flight = math.ceil(batch / microbatch)
        key = (model, microbatch, seq_len)
        operators = self._operators.get(key)
        if operators is None:
            operators = self._operators[key] = tuple(
                prefill_operators(model, microbatch, seq_len))
        activation_payload = (microbatch * seq_len * model.d_model
                              * model.activation_bytes)
        traverse = operators_latency(
            operators,
            plan,
            self._xpu,
            allreduce_bytes_per_layer=activation_payload,
            num_layers=model.num_layers,
            stage_boundary_bytes=activation_payload,
        )
        latency = traverse + (in_flight - 1) * traverse / pp
        throughput = microbatch * pp / traverse
        return PrefillPerf(latency=latency, throughput=throughput, plan=plan,
                           batch=batch, seq_len=seq_len)

    def pareto_perfs(self, model: TransformerConfig, num_chips: int,
                     batch: int, seq_len: int) -> List[PrefillPerf]:
        """Pareto frontier over sharding plans (min latency, max QPS).

        Raises:
            CapacityError: when no factorization fits in HBM.
        """
        perfs: List[PrefillPerf] = []
        last_error: Optional[CapacityError] = None
        for plan in enumerate_plans(num_chips):
            try:
                perfs.append(self.plan_perf(model, plan, batch, seq_len))
            except CapacityError as error:
                last_error = error
        if not perfs:
            raise last_error or CapacityError(
                f"{model.name} does not fit on {num_chips} x {self._xpu.name}"
            )
        perfs.sort(key=lambda perf: (perf.latency, -perf.throughput))
        frontier: List[PrefillPerf] = []
        best = -math.inf
        for perf in perfs:
            if perf.throughput > best:
                frontier.append(perf)
                best = perf.throughput
        return frontier

    def best_perf(self, model: TransformerConfig, num_chips: int, batch: int,
                  seq_len: int, optimize_for: str = "latency") -> PrefillPerf:
        """Best feasible plan on ``num_chips`` chips for one objective.

        Args:
            optimize_for: ``"latency"`` (fastest batch completion) or
                ``"throughput"`` (highest steady-state sequences/s).

        Raises:
            CapacityError: when no factorization fits in HBM.
            ConfigError: on an unknown objective.
        """
        if optimize_for not in ("latency", "throughput"):
            raise ConfigError(f"unknown objective {optimize_for!r}")
        frontier = self.pareto_perfs(model, num_chips, batch, seq_len)
        if optimize_for == "latency":
            return frontier[0]
        return frontier[-1]
