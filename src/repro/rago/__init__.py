"""RAGO: the scheduling-policy optimizer (Algorithm 1).

Given a :class:`~repro.schema.RAGSchema` and a hardware budget, RAGO
searches over three scheduling decisions:

* **Task placement** (:mod:`repro.rago.placement`) -- which neighbouring
  pre-prefix stages share chips (collocation) versus owning their own
  (disaggregation); prefix/decode stay disaggregated, retrieval stays on
  CPUs.
* **Resource allocation** (:mod:`repro.rago.allocation`) -- powers-of-two
  XPU counts per stage group within the budget.
* **Batching policy** (:mod:`repro.rago.batching`) -- per-stage batch
  sizes.

The search (:mod:`repro.rago.search`) composes cached per-stage profiles
with Pareto pruning and returns the TTFT vs. QPS/chip frontier with the
schedules that achieve it; :class:`~repro.rago.optimizer.RAGO` is the
user-facing facade.
"""

from repro.rago.pareto import pareto_front
from repro.rago.placement import enumerate_placements
from repro.rago.allocation import enumerate_allocations, power_of_two_options
from repro.rago.batching import batch_options
from repro.rago.search import SearchConfig, SearchResult, search_schedules
from repro.rago.session import OptimizerSession, SweepCell, SweepResult
from repro.rago.optimizer import RAGO
from repro.rago.objectives import (
    ServiceObjective,
    knee_point,
    select_max_throughput,
    select_min_ttft,
)
from repro.rago.cost import CostEstimate, PriceBook, cheapest_point, estimate_cost

__all__ = [
    "pareto_front",
    "enumerate_placements",
    "enumerate_allocations",
    "power_of_two_options",
    "batch_options",
    "SearchConfig",
    "SearchResult",
    "search_schedules",
    "OptimizerSession",
    "SweepCell",
    "SweepResult",
    "RAGO",
    "ServiceObjective",
    "select_max_throughput",
    "select_min_ttft",
    "knee_point",
    "PriceBook",
    "CostEstimate",
    "estimate_cost",
    "cheapest_point",
]
