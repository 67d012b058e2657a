"""Performance-objective selection over a search result.

RAGO "determines optimal schedules aligned with user-defined performance
objectives" (§1). This module turns a Pareto frontier into a decision:
meet latency SLOs (TTFT and/or TPOT ceilings) and maximize cost
efficiency within them, or trade the two off explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError, ScheduleError
from repro.pipeline.assembly import PipelinePerf
from repro.rago.search import SearchResult


@dataclass(frozen=True)
class ServiceObjective:
    """A serving-level objective.

    Attributes:
        max_ttft: TTFT ceiling in seconds (None = unconstrained).
        max_tpot: TPOT ceiling in seconds (None = unconstrained).
        min_qps_per_chip: Throughput floor (None = unconstrained).
    """

    max_ttft: Optional[float] = None
    max_tpot: Optional[float] = None
    min_qps_per_chip: Optional[float] = None

    def __post_init__(self) -> None:
        for name, value in (("max_ttft", self.max_ttft),
                            ("max_tpot", self.max_tpot),
                            ("min_qps_per_chip", self.min_qps_per_chip)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive when "
                                  f"set, got {value}")

    def admits(self, perf: PipelinePerf) -> bool:
        """Whether a schedule's performance satisfies every constraint."""
        if self.max_ttft is not None and perf.ttft > self.max_ttft:
            return False
        if self.max_tpot is not None and perf.tpot > self.max_tpot:
            return False
        if self.min_qps_per_chip is not None \
                and perf.qps_per_chip < self.min_qps_per_chip:
            return False
        return True


def admissible(result: SearchResult,
               objective: ServiceObjective) -> List[PipelinePerf]:
    """Frontier points satisfying an objective, sorted by TTFT."""
    return [perf for perf in result.frontier if objective.admits(perf)]


def select_max_throughput(result: SearchResult,
                          objective: ServiceObjective) -> PipelinePerf:
    """Highest QPS/chip schedule meeting the objective.

    Raises:
        ScheduleError: when no frontier point satisfies the objective.
    """
    candidates = admissible(result, objective)
    if not candidates:
        raise ScheduleError(
            f"no schedule satisfies {objective} on this frontier"
        )
    return max(candidates, key=lambda perf: perf.qps_per_chip)


def select_min_ttft(result: SearchResult,
                    objective: ServiceObjective) -> PipelinePerf:
    """Lowest-TTFT schedule meeting the objective.

    Raises:
        ScheduleError: when no frontier point satisfies the objective.
    """
    candidates = admissible(result, objective)
    if not candidates:
        raise ScheduleError(
            f"no schedule satisfies {objective} on this frontier"
        )
    return min(candidates, key=lambda perf: perf.ttft)


def knee_point(result: SearchResult) -> PipelinePerf:
    """The frontier's knee: best normalized QPS-gain per TTFT-cost.

    Normalizes both axes to [0, 1] across the frontier and returns the
    point maximizing ``qps_norm - ttft_norm`` -- a balanced default when
    the user states no explicit SLO.

    Raises:
        ScheduleError: on an empty frontier.
    """
    frontier = result.frontier
    if not frontier:
        raise ScheduleError("empty frontier")
    if len(frontier) == 1:
        return frontier[0]
    ttft_lo = min(perf.ttft for perf in frontier)
    ttft_hi = max(perf.ttft for perf in frontier)
    qps_lo = min(perf.qps_per_chip for perf in frontier)
    qps_hi = max(perf.qps_per_chip for perf in frontier)
    ttft_span = max(ttft_hi - ttft_lo, 1e-12)
    qps_span = max(qps_hi - qps_lo, 1e-12)

    def score(perf: PipelinePerf) -> float:
        qps_norm = (perf.qps_per_chip - qps_lo) / qps_span
        ttft_norm = (perf.ttft - ttft_lo) / ttft_span
        return qps_norm - ttft_norm

    return max(frontier, key=score)
