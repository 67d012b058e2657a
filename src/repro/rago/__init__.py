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
schedules that achieve it; :class:`~repro.rago.session.OptimizerSession`
is the user-facing front-end. Split-generation search
(:mod:`repro.rago.hetero`) also picks the resource *type*: it runs the
same search once per (prefill, decode) XPU generation pair and ranks
plans by QPS per dollar.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "pareto_front": "repro.rago.pareto",
    "enumerate_placements": "repro.rago.placement",
    "enumerate_allocations": "repro.rago.allocation",
    "power_of_two_options": "repro.rago.allocation",
    "batch_options": "repro.rago.batching",
    "SearchConfig": "repro.rago.search",
    "SearchResult": "repro.rago.search",
    "search_schedules": "repro.rago.search",
    "OptimizerSession": "repro.rago.session",
    "SweepCell": "repro.rago.session",
    "SweepResult": "repro.rago.session",
    "ServiceObjective": "repro.rago.objectives",
    "knee_point": "repro.rago.objectives",
    "select_max_throughput": "repro.rago.objectives",
    "select_min_ttft": "repro.rago.objectives",
    "CostEstimate": "repro.rago.cost",
    "PriceBook": "repro.rago.cost",
    "cheapest_point": "repro.rago.cost",
    "estimate_cost": "repro.rago.cost",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
