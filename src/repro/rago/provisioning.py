"""Capacity provisioning: the inverse scheduling problem.

RAGO answers "given resources, what is the best schedule?"; operators
usually ask the inverse: "given a target load and latency SLOs, how few
chips do I need?" Because a serving pipeline replicates horizontally, the
answer is: take each Pareto-optimal schedule, replicate it until the
target load fits, and keep the cheapest admissible combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError, ScheduleError
from repro.pipeline.assembly import PipelinePerf
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.objectives import ServiceObjective
from repro.rago.search import SearchConfig, SearchResult, search_schedules


@dataclass(frozen=True)
class ProvisioningResult:
    """Outcome of a provisioning run.

    Attributes:
        budget_xpus: Total chips across all replicas.
        replicas: Pipeline replicas deployed.
        perf: Per-replica performance of the selected schedule.
        total_qps: Aggregate sustained load (replicas x per-replica QPS).
        target_qps: The load the deployment must sustain.
    """

    budget_xpus: int
    replicas: int
    perf: PipelinePerf
    total_qps: float
    target_qps: float


def provision(perf_model: RAGPerfModel, target_qps: float,
              objective: Optional[ServiceObjective] = None,
              config: Optional[SearchConfig] = None,
              result: Optional[SearchResult] = None) -> ProvisioningResult:
    """Find the fewest chips that sustain a target load within SLOs.

    Searches the schedule frontier once, then sizes replica counts: a
    schedule occupying ``c`` charged chips at ``q`` QPS needs
    ``ceil(target / q)`` replicas. The cheapest admissible combination
    wins; ties prefer lower TTFT.

    Args:
        perf_model: Workload + cluster cost model. The cluster bounds
            both the per-replica schedule search and the total fleet.
        target_qps: Requests per second the deployment must sustain.
        objective: Optional latency SLOs each schedule must meet.
        config: Search granularity knobs (ignored when ``result`` is
            given).
        result: Optional precomputed frontier for this perf model --
            lets a memoizing caller (``OptimizerSession.provision``)
            skip the search.

    Raises:
        ConfigError: on a non-positive or non-finite target.
        ScheduleError: when no admissible replica set fits the cluster.
    """
    if not 0 < target_qps < math.inf:
        raise ConfigError(
            f"target_qps must be finite and positive, got {target_qps}")
    objective = objective or ServiceObjective()
    if result is None:
        result = search_schedules(perf_model, config)
    max_chips = perf_model.cluster.total_xpus

    best: Optional[ProvisioningResult] = None
    for perf in result.frontier:
        if perf.qps <= 0 or not objective.admits(perf):
            continue
        replicas = math.ceil(target_qps / perf.qps)
        chips = replicas * perf.charged_chips
        if chips > max_chips:
            continue
        candidate = ProvisioningResult(
            budget_xpus=chips,
            replicas=replicas,
            perf=perf,
            total_qps=replicas * perf.qps,
            target_qps=target_qps,
        )
        if best is None or (candidate.budget_xpus, candidate.perf.ttft) < \
                (best.budget_xpus, best.perf.ttft):
            best = candidate
    if best is None:
        raise ScheduleError(
            f"cluster of {max_chips} XPUs cannot sustain "
            f"{target_qps:.1f} QPS under {objective}"
        )
    return best
