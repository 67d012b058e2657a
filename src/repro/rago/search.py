"""Exhaustive schedule search with Pareto pruning (Algorithm 1).

The paper's Algorithm 1 proceeds in three steps: (1) profile each stage
across resource allocations and batch sizes, (2) generate schedules as
the Cartesian product of placement x allocation x batching options, and
(3) assemble end-to-end performance and keep the Pareto frontier.

A naive Cartesian product is astronomically large, but the objective
space is separable: TTFT is a *sum* of stage latencies and QPS is a *min*
over stage groups (harmonic within a collocated group), so partial
schedules can be merged pairwise and pruned to their Pareto subset after
every merge without losing any optimal point. That is exactly what this
module does; the final frontier candidates are re-evaluated through
:func:`repro.pipeline.assembly.assemble` so the reported numbers come
from the single authoritative composition path (including iterative-
retrieval adjustments).

A serial merge never builds the cross product. Both inputs are
:func:`_prune` outputs, so TTFT and QPS strictly increase along each.
A pair's QPS is ``min(a.qps, b.qps)``, set by one side, say ``a``. Among
the partners ``b`` with ``b.qps >= a.qps`` -- all giving the pair the
same QPS -- the first has the smallest TTFT, so its sum is no larger
(float addition is monotone). Every later partner is thus either
dominated by it or, when the float sums tie exactly, carries the same
``(ttft, -qps)`` key and loses the tie to it, since the first partner
comes earlier in the cross product's ``(i, j)`` order that the stable
sort of the full product keeps. So only each point's first
QPS-covering partner on the other side can reach the frontier: at most
``n + m`` pairs. Their QPS values are pairwise distinct (a value both
sides share yields the same pair from either side), so sorting them by
``(ttft, -qps)`` and pruning keeps exactly what pruning the full
product keeps, choices included.

Within a placement, allocations come in lexicographic order, so
consecutive plans share a prefix of (group, chips) choices; the merged
options of each prefix sit on a stack of one entry per group and are
reused. Candidates carry only their plan's groups and the per-stage
choices; a :class:`Schedule` is built for the final front alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigError, ScheduleError
from repro.pipeline.assembly import PipelinePerf, PlacementGroup, Schedule, assemble
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.batching import batch_options
from repro.rago.pareto import pareto_front
from repro.rago.placement import Placement, enumerate_placements
from repro.rago.allocation import enumerate_allocations
from repro.schema.stages import Stage, spans_retrieval, ttft_stages

#: Partial-schedule option:
#: (ttft seconds, qps, ((stage, batch, sharding plan or None), ...)).
_Option = Tuple[float, float, Tuple[Tuple[Stage, int, object], ...]]
#: Whole-schedule candidate: (ttft seconds, qps per chip, placement
#: groups, retrieval servers or None, per-stage choices).
_Candidate = Tuple[float, float, Tuple[PlacementGroup, ...], Optional[int],
                   Tuple[Tuple[Stage, int, object], ...]]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs bounding RAGO's search space (the paper's "granularity").

    Attributes:
        budget_xpus: Total accelerator budget; None uses the cluster's.
        max_batch: Largest pre-decode batch size considered.
        max_decode_batch: Largest decode batch size considered.
        placements: Restrict the placement plans searched (None = all
            legal plans); used for the placement-sensitivity study.
        allocations: Restrict the chip allocations searched (None = all
            power-of-two splits within the budget); tuples must match a
            placement's group count and are skipped otherwise. Used by
            the LLM-extension baseline's fixed 1:1 prefix:decode split.
        collect_per_plan: Also return a per-(placement, allocation)
            Pareto frontier for the composition analyses (Figs. 16, 18).
        max_frontier_points: Safety cap on retained candidates between
            pruning passes.
    """

    budget_xpus: Optional[int] = None
    max_batch: int = 128
    max_decode_batch: int = 1024
    placements: Optional[Sequence[Placement]] = None
    allocations: Optional[Sequence[Tuple[int, ...]]] = None
    collect_per_plan: bool = False
    max_frontier_points: int = 4096

    def __post_init__(self) -> None:
        if self.budget_xpus is not None:
            _check_positive_int("budget_xpus", self.budget_xpus)
        for name in ("max_batch", "max_decode_batch", "max_frontier_points"):
            _check_positive_int(name, getattr(self, name))
        if not isinstance(self.collect_per_plan, bool):
            raise ConfigError(f"search config collect_per_plan must be a "
                              f"bool, got {self.collect_per_plan!r}")
        # Normalize the restriction containers to nested tuples so that
        # equal restrictions compare equal (and serialization round-trips
        # exactly) no matter which sequence type the caller used.
        if self.placements is not None:
            object.__setattr__(self, "placements", tuple(
                tuple(tuple(group) for group in placement)
                for placement in self.placements))
        if self.allocations is not None:
            object.__setattr__(self, "allocations", tuple(
                tuple(allocation) for allocation in self.allocations))
            for allocation in self.allocations:
                for chips in allocation:
                    _check_positive_int("allocations entry", chips)


def _check_positive_int(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ConfigError(f"search config {name} must be a positive int, "
                          f"got {value!r}")


@dataclass(frozen=True)
class PlanFrontier:
    """Pareto frontier of one placement + allocation plan."""

    placement: Placement
    allocation: Tuple[int, ...]
    points: Tuple[Tuple[float, float], ...]  # (ttft, qps_per_chip)


@dataclass
class SearchResult:
    """Outcome of a schedule search.

    Attributes:
        frontier: Pareto-optimal end-to-end performances (each carries
            its schedule), sorted by ascending TTFT.
        num_plans: Placement x allocation plans evaluated.
        num_candidates: Batching-policy points surviving plan-level
            pruning.
        per_plan: Optional per-plan frontiers (when collected).
    """

    frontier: List[PipelinePerf]
    num_plans: int = 0
    num_candidates: int = 0
    per_plan: List[PlanFrontier] = field(default_factory=list)

    @property
    def max_qps_per_chip(self) -> PipelinePerf:
        """Frontier point with the highest QPS/chip."""
        if not self.frontier:
            raise ScheduleError("empty frontier")
        return max(self.frontier, key=lambda perf: perf.qps_per_chip)

    @property
    def min_ttft(self) -> PipelinePerf:
        """Frontier point with the lowest TTFT."""
        if not self.frontier:
            raise ScheduleError("empty frontier")
        return min(self.frontier, key=lambda perf: perf.ttft)


def _prune(options: List[_Option]) -> List[_Option]:
    """Pareto subset: minimize ttft, maximize qps."""
    if not options:
        return []
    options.sort(key=lambda opt: (opt[0], -opt[1]))
    pruned: List[_Option] = []
    best_qps = -math.inf
    for option in options:
        if option[1] > best_qps:
            pruned.append(option)
            best_qps = option[1]
    return pruned


class _Profiler:
    """Caches per-stage and per-group option sets (Algorithm 1, step 1)."""

    def __init__(self, perf_model: RAGPerfModel, config: SearchConfig) -> None:
        self._perf_model = perf_model
        self._config = config
        self._schema = perf_model.schema
        self._ttft_set = set(ttft_stages(self._schema))
        freq = self._schema.retrieval_frequency
        self._visits: Dict[Stage, float] = {}
        if self._schema.is_iterative:
            self._visits[Stage.RETRIEVAL] = float(freq)
            self._visits[Stage.PREFIX] = float(freq)
        self._stage_cache: Dict[Tuple[Stage, int], List[_Option]] = {}
        self._group_cache: Dict[Tuple[Tuple[Stage, ...], int],
                                List[_Option]] = {}

    def stage_options(self, stage: Stage, resource: int) -> List[_Option]:
        """Pareto (ttft, qps) points over batch sizes and sharding plans
        for one stage."""
        key = (stage, resource)
        if key in self._stage_cache:
            return self._stage_cache[key]
        options: List[_Option] = []
        visits = self._visits.get(stage, 1.0)
        for batch in batch_options(stage, self._config.max_batch,
                                   self._config.max_decode_batch):
            try:
                perfs = self._perf_model.perf_options(stage, batch, resource)
            except CapacityError:
                continue
            for perf in perfs:
                ttft = perf.latency if stage in self._ttft_set else 0.0
                qps = perf.request_qps / visits
                options.append((ttft, qps,
                                ((stage, batch, perf.plan),)))
        pruned = _prune(options)
        self._stage_cache[key] = pruned
        return pruned

    def group_options(self, stages: Tuple[Stage, ...],
                      num_xpus: int) -> List[_Option]:
        """Pareto points for a collocated group (harmonic throughput)."""
        key = (stages, num_xpus)
        if key in self._group_cache:
            return self._group_cache[key]
        # Accumulate (ttft_sum, inverse_qps_sum, batches) across stages.
        partial: List[Tuple[float, float, Tuple[Tuple[Stage, int], ...]]]
        partial = [(0.0, 0.0, ())]
        for stage in stages:
            stage_opts = self.stage_options(stage, num_xpus)
            if not stage_opts:
                partial = []
                break
            merged = []
            for acc_ttft, acc_inv, acc_batches in partial:
                for ttft, qps, batches in stage_opts:
                    merged.append((acc_ttft + ttft, acc_inv + 1.0 / qps,
                                   acc_batches + batches))
            # Prune on (ttft, inverse-qps): both minimized.
            merged.sort(key=lambda opt: (opt[0], opt[1]))
            pruned = []
            best_inv = math.inf
            for option in merged:
                if option[1] < best_inv:
                    pruned.append(option)
                    best_inv = option[1]
            partial = pruned
        options = [(ttft, 1.0 / inv, batches)
                   for ttft, inv, batches in partial if inv > 0]
        pruned = _prune(options)
        self._group_cache[key] = pruned
        return pruned


def _serial_merge(left: List[_Option], right: List[_Option]) -> List[_Option]:
    """Compose two disaggregated segments: TTFT adds, QPS takes the min.

    Both inputs must be :func:`_prune` outputs. Returns what pruning the
    full cross product returns, choices included, from each point's
    first QPS-covering partner alone (see the module docstring).
    """
    left_qps = [qps for _, qps, _ in left]
    right_qps = [qps for _, qps, _ in right]
    num_left, num_right = len(left), len(right)
    pairs = []
    for i, (ttft, qps, _) in enumerate(left):
        j = bisect_left(right_qps, qps)
        if j < num_right:
            pairs.append((ttft + right[j][0], -qps, i, j))
    for j, (ttft, qps, _) in enumerate(right):
        i = bisect_left(left_qps, qps)
        if i < num_left:
            pairs.append((left[i][0] + ttft, -qps, i, j))
    pairs.sort()
    merged: List[_Option] = []
    best_qps = -math.inf
    for ttft, neg_qps, i, j in pairs:
        if -neg_qps > best_qps:
            best_qps = -neg_qps
            merged.append((ttft, best_qps, left[i][2] + right[j][2]))
    return merged


def _harmonic_merge(left: List[_Option],
                    right: List[_Option]) -> List[_Option]:
    """Compose two time-multiplexed segments: TTFT adds, QPS composes
    harmonically (the §6.1 retrieval-stall rule for collocated groups
    that straddle the retrieval stage)."""
    merged = [(a_ttft + b_ttft,
               1.0 / (1.0 / a_qps + 1.0 / b_qps),
               a_b + b_b)
              for a_ttft, a_qps, a_b in left
              for b_ttft, b_qps, b_b in right]
    return _prune(merged)


def search_schedules(perf_model: RAGPerfModel,
                     config: Optional[SearchConfig] = None) -> SearchResult:
    """Run Algorithm 1 and return the TTFT vs. QPS/chip frontier.

    Raises:
        ScheduleError: when no feasible schedule exists in the budget.
        ConfigError: on inconsistent configuration.
    """
    config = config or SearchConfig()
    schema = perf_model.schema
    cluster = perf_model.cluster
    budget = config.budget_xpus or cluster.total_xpus
    if budget > cluster.total_xpus:
        raise ConfigError(
            f"budget {budget} exceeds the cluster's {cluster.total_xpus} XPUs"
        )
    placements = list(config.placements
                      if config.placements is not None
                      else enumerate_placements(schema))
    profiler = _Profiler(perf_model, config)

    candidates: List[_Candidate] = []
    per_plan: List[PlanFrontier] = []
    num_plans = 0
    num_candidates = 0

    retrieval_floor = (perf_model.retrieval.min_servers()
                       if schema.has_retrieval else 0)

    for placement in placements:
        group_minimums = []
        feasible = True
        for group in placement:
            try:
                minimum = max(perf_model.min_resource(stage)
                              for stage in group)
            except CapacityError:
                feasible = False
                break
            group_minimums.append(minimum)
        if not feasible:
            continue
        if config.allocations is not None:
            allocations = [
                allocation for allocation in config.allocations
                if len(allocation) == len(placement)
                and sum(allocation) <= budget
                and all(chips >= minimum for chips, minimum
                        in zip(allocation, group_minimums))
            ]
        else:
            try:
                allocations = list(enumerate_allocations(group_minimums,
                                                         budget))
            except ConfigError:
                continue
        spanning_index = next(
            (index for index, group in enumerate(placement)
             if len(group) > 1 and spans_retrieval(group, schema)),
            None)
        # Merged options of the last plan's allocation prefix, one entry
        # per group: ((chips, servers if the group spans retrieval),
        # options through that group).
        prefix: List[Tuple[Tuple[int, Optional[int]], List[_Option]]] = []
        for allocation in allocations:
            num_plans += 1
            total_xpus = sum(allocation)
            servers = 0
            if schema.has_retrieval:
                servers = max(retrieval_floor,
                              cluster.servers_for_xpus(total_xpus))
                if servers > cluster.num_servers:
                    continue
            retrieval_opts: List[_Option] = []
            if schema.has_retrieval:
                retrieval_opts = profiler.stage_options(Stage.RETRIEVAL,
                                                        servers)
                if not retrieval_opts:
                    continue
            keys = [(chips, servers if index == spanning_index else None)
                    for index, chips in enumerate(allocation)]
            shared = 0
            while shared < len(prefix) and prefix[shared][0] == keys[shared]:
                shared += 1
            del prefix[shared:]
            options = prefix[-1][1] if prefix else None
            for index in range(shared, len(placement)):
                if options == []:  # an earlier group has no options
                    break
                group_opts = profiler.group_options(placement[index],
                                                    allocation[index])
                if group_opts and index == spanning_index:
                    # §6.1: chips idle during retrieval between the
                    # group's stages -- retrieval joins its cycle.
                    group_opts = _harmonic_merge(group_opts,
                                                 retrieval_opts)
                options = group_opts if options is None or not group_opts \
                    else _serial_merge(options, group_opts)
                prefix.append((keys[index], options))
            if not options:
                continue
            if schema.has_retrieval and spanning_index is None:
                options = _serial_merge(options, retrieval_opts)
            charged_chips = max(total_xpus,
                                servers * cluster.xpus_per_server)
            groups = tuple(PlacementGroup(stages=group, num_xpus=chips)
                           for group, chips in zip(placement, allocation))
            retrieval_servers = servers if schema.has_retrieval else None
            num_candidates += len(options)
            plan_points: List[Tuple[float, float]] = []
            for ttft, qps, choices in options:
                qps_per_chip = qps / charged_chips
                candidates.append((ttft, qps_per_chip, groups,
                                   retrieval_servers, choices))
                plan_points.append((ttft, qps_per_chip))
            if config.collect_per_plan and plan_points:
                front = pareto_front(plan_points,
                                     cost=lambda p: p[0],
                                     value=lambda p: p[1])
                per_plan.append(PlanFrontier(placement=placement,
                                             allocation=allocation,
                                             points=tuple(front)))
            if len(candidates) > config.max_frontier_points:
                candidates = pareto_front(candidates,
                                          cost=lambda c: c[0],
                                          value=lambda c: c[1])

    if not candidates:
        raise ScheduleError(
            f"no feasible schedule for {schema.name} within {budget} XPUs"
        )
    front = pareto_front(candidates, cost=lambda c: c[0],
                         value=lambda c: c[1])

    # Re-assemble the surviving schedules through the authoritative
    # composition path (adds TPOT and iterative-retrieval effects). For
    # iterative schemas (Case III), the decoder-initiated retrieval
    # batch size is its own policy knob (§5.3/§6.1 [III]): sweep it per
    # surviving schedule and let the Pareto pass keep the best.
    performances: List[PipelinePerf] = []
    iterative_options: List[Optional[int]] = [None]
    if schema.is_iterative:
        iterative_options = list(batch_options(
            Stage.RETRIEVAL, config.max_batch, config.max_decode_batch))
    for _, _, groups, retrieval_servers, choices in front:
        schedule = Schedule(
            groups=groups,
            batches={stage: batch for stage, batch, _ in choices},
            retrieval_servers=retrieval_servers,
            shard_plans={stage: plan for stage, _, plan in choices
                         if plan is not None},
        )
        for iterative_batch in iterative_options:
            candidate = schedule if iterative_batch is None else Schedule(
                groups=schedule.groups,
                batches=schedule.batches,
                retrieval_servers=schedule.retrieval_servers,
                iterative_batch=iterative_batch,
                shard_plans=schedule.shard_plans,
            )
            performances.append(assemble(perf_model, candidate))
    performances = pareto_front(performances,
                                cost=lambda perf: perf.ttft,
                                value=lambda perf: perf.qps_per_chip)
    performances.sort(key=lambda perf: perf.ttft)
    return SearchResult(frontier=performances, num_plans=num_plans,
                        num_candidates=num_candidates, per_plan=per_plan)
