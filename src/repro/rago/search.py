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
A pair's QPS is ``min(a.qps, b.qps)``, set by one side, say ``a``. Of
the partners ``b`` with ``b.qps >= a.qps``, the first has the smallest
TTFT, so each later one is dominated by it or, on an exact float tie,
loses to it in the stable ``(ttft, -qps)`` sort of the ``(i, j)``-
ordered cross product. A two-pointer walk visits exactly these pairs
in ascending QPS: pair the heads, advance the lower-QPS side (both on
a shared value). Both indices only move forward and float addition is
monotone, so TTFT never decreases along the walk, and pruning keeps
the last pair walked of each run of equal TTFT: a new sum that ties
the last kept one replaces it. That is the pruned cross product,
choices included, with no bisect, pair list or sort.

Within a placement, allocations come in lexicographic order, so
consecutive plans share a prefix of (group, chips) choices; the merged
options of each prefix sit on a stack of one entry per group before the
last and are reused. Enumerated allocations are unique, so a plan's own
merges (its last group, then retrieval when retrieval is a tail merge)
never are. Retrieval servers, their options and the default charge
depend on the allocation's total alone and are looked up once per
total.

Candidates never pile up: a running Pareto staircase
(:class:`_Staircase`) keeps the front of those seen so far. The stable
``(ttft, -qps)`` sort in :func:`pareto_front` drops a candidate exactly
when another strictly dominates it or an earlier one weakly dominates
it, so exact ties keep the first seen. Every candidate seen is weakly
dominated by a kept point, so dropping a new point that a kept point
weakly dominates, and evicting the kept points it dominates, applies
that rule online and ends with the same points, as the same objects.

A plan's options are ``serial(serial(P, G), R)``: ``P`` the prefix's
options, ``G`` the last group's, ``R`` retrieval's on a tail merge. Its
corner (smallest TTFT, largest QPS per charge) comes in closed form,
before any of these merges (:func:`_merge_corner`): the walk starts on
the heads, so the first TTFT is ``(P[0] + G[0]) + R[0]`` in that float
association, and it ends on the exhausted side's last point, so the
last QPS is the smallest last QPS. A plan whose corner the staircase
covers offers nothing; its options are counted by the same walks over
TTFTs and QPS alone (:func:`_merge_count`), building no option, and
that count is its share of :attr:`SearchResult.num_candidates`. Only
an uncovered plan is merged and offered, except that
``collect_per_plan`` builds every plan's options for its front. Groups
and :class:`Schedule` objects are built for the final front alone.

The ranked value is QPS per *charge*, a function of a plan's per-group
chips and retrieval servers. The default charges chips (QPS/chip, the
paper's metric); split-generation search (:mod:`repro.rago.hetero`)
charges dollars, pricing each group's chips by its generation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

#: What a plan costs: ``charge(allocation, retrieval servers)``.
Charge = Callable[[Tuple[int, ...], int], float]

#: Per allocation total: (retrieval servers, retrieval options, the
#: default charge or None).
_TotalLookup = Tuple[int, List[_Option], Optional[float]]


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
    """

    budget_xpus: Optional[int] = None
    max_batch: int = 128
    max_decode_batch: int = 1024
    placements: Optional[Sequence[Placement]] = None
    allocations: Optional[Sequence[Tuple[int, ...]]] = None
    collect_per_plan: bool = False

    def __post_init__(self) -> None:
        if self.budget_xpus is not None:
            _check_positive_int("budget_xpus", self.budget_xpus)
        for name in ("max_batch", "max_decode_batch"):
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
    points: Tuple[Tuple[float, float], ...]  # (ttft, qps / charge)


@dataclass
class SearchResult:
    """Outcome of a schedule search.

    Attributes:
        frontier: Pareto-optimal end-to-end performances (each carries
            its schedule), sorted by ascending TTFT.
        num_plans: Placement x allocation plans evaluated.
        num_candidates: Batching-policy points on the plans' own Pareto
            fronts (their merged options), summed over every plan,
            whether or not the staircase covers it.
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


class _Staircase:
    """Running Pareto front (min TTFT, max QPS per charge) of offered points:
    ``ttft`` and ``qps`` strictly increase; ``items`` are payloads."""

    def __init__(self) -> None:
        self.ttft: List[float] = []
        self.qps: List[float] = []
        self.items: List[object] = []

    def covers(self, ttft: float, qps: float) -> bool:
        """Whether a kept point weakly dominates ``(ttft, qps)``."""
        index = bisect_right(self.ttft, ttft)
        return index > 0 and self.qps[index - 1] >= qps

    def offer(self, ttft: float, qps: float, item: object) -> None:
        """Keep the point unless covered; evict the points it dominates."""
        if self.covers(ttft, qps):
            return
        start = bisect_left(self.ttft, ttft)
        stop = bisect_right(self.qps, qps, start)
        self.ttft[start:stop] = [ttft]
        self.qps[start:stop] = [qps]
        self.items[start:stop] = [item]


def _serial_merge(left: List[_Option], right: List[_Option]) -> List[_Option]:
    """Compose two disaggregated segments: TTFT adds, QPS takes the min.

    Both inputs must be :func:`_prune` outputs. Returns what pruning the
    full cross product returns, choices included, in one two-pointer
    walk (see the module docstring).
    """
    merged: List[_Option] = []
    i = j = 0
    num_left, num_right = len(left), len(right)
    while i < num_left and j < num_right:
        a_ttft, a_qps, a_choices = left[i]
        b_ttft, b_qps, b_choices = right[j]
        ttft = a_ttft + b_ttft
        option = (ttft, a_qps if a_qps < b_qps else b_qps,
                  a_choices + b_choices)
        i += a_qps <= b_qps  # advance the lower QPS, both on a tie
        j += b_qps <= a_qps
        if merged and merged[-1][0] == ttft:  # same TTFT, larger QPS
            merged[-1] = option
        else:
            merged.append(option)
    return merged


def _merge_corner(left: List[_Option], right: Optional[List[_Option]] = None,
                  tail: Optional[List[_Option]] = None) -> Tuple[float, float]:
    """``(first TTFT, last QPS)`` of ``left`` serially merged with
    ``right``, then with ``tail``, in closed form.

    The walk pairs the heads first, so the first TTFT is the heads' sum
    (a tie replaces a point's choices, not its TTFT). It stops when a
    side runs out, on that side's last point, whose QPS is at most the
    other side's last; so the last QPS is the smallest last QPS.
    """
    ttft, qps = left[0][0], left[-1][1]
    for operand in (right, tail):
        if operand is not None:
            ttft += operand[0][0]
            last_qps = operand[-1][1]
            if last_qps < qps:
                qps = last_qps
    return ttft, qps


#: A neutral merge operand: adding 0.0 keeps every TTFT, and no QPS is
#: below infinity.
_NEUTRAL: List[_Option] = [(0.0, math.inf, ())]


def _merge_count(left: List[_Option], right: Optional[List[_Option]] = None,
                 tail: Optional[List[_Option]] = None) -> int:
    """``len`` of ``left`` serially merged with ``right``, then with
    ``tail``, counted without building an option or a choice tuple.

    These are :func:`_serial_merge`'s two walks, fused: each pair of the
    (left, right) walk, in order, runs the (pair, tail) walk until that
    walk moves past it, and each new TTFT sum counts. A pair whose TTFT
    ties the one before it is a point the merge would replace; walking
    the tail from both meets the same sums in the same order, so no
    replacement is needed.
    """
    if right is None:
        return len(left)
    if tail is None:
        tail = _NEUTRAL
    count = 0
    last = None  # TTFT of the last point counted
    i = j = k = 0
    num_left, num_right, num_tail = len(left), len(right), len(tail)
    a_ttft, a_qps, _ = left[0]
    b_ttft, b_qps, _ = right[0]
    c_ttft, c_qps, _ = tail[0]
    while True:
        ttft = a_ttft + b_ttft
        qps = a_qps if a_qps < b_qps else b_qps
        while True:  # the (pair, tail) walk
            total = ttft + c_ttft
            if total != last:
                count += 1
                last = total
            if c_qps > qps:
                break
            k += 1
            if k == num_tail:
                return count
            pair_done = c_qps == qps
            c_ttft, c_qps, _ = tail[k]
            if pair_done:
                break
        # The (left, right) walk: advance the lower QPS, both on a tie.
        if a_qps < b_qps:
            i += 1
            if i == num_left:
                return count
            a_ttft, a_qps, _ = left[i]
        elif b_qps < a_qps:
            j += 1
            if j == num_right:
                return count
            b_ttft, b_qps, _ = right[j]
        else:
            i += 1
            j += 1
            if i == num_left or j == num_right:
                return count
            a_ttft, a_qps, _ = left[i]
            b_ttft, b_qps, _ = right[j]


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
                     config: Optional[SearchConfig] = None, *,
                     charge: Optional[Charge] = None) -> SearchResult:
    """Run Algorithm 1 and return the TTFT vs. QPS-per-charge frontier.

    Args:
        charge: ``charge(allocation, servers)``, what a plan with those
            per-group chips and retrieval servers (0 without retrieval)
            costs; the search ranks ``qps / charge``. None charges the
            chips, never fewer than the retrieval hosts' XPU slots, so
            the value is :attr:`PipelinePerf.qps_per_chip`.

    Raises:
        ScheduleError: when no feasible schedule exists in the budget.
        ConfigError: on inconsistent configuration.
    """
    config = config or SearchConfig()
    schema = perf_model.schema
    cluster = perf_model.cluster
    charge_total: Optional[Callable[[int, int], float]] = None
    if charge is None:
        def charge_total(total: int, servers: int) -> float:
            return max(total, servers * cluster.xpus_per_server)

        def charge(allocation: Tuple[int, ...], servers: int) -> float:
            return charge_total(sum(allocation), servers)
    budget = config.budget_xpus or cluster.total_xpus
    if budget > cluster.total_xpus:
        raise ConfigError(
            f"budget {budget} exceeds the cluster's {cluster.total_xpus} XPUs"
        )
    placements = list(config.placements
                      if config.placements is not None
                      else enumerate_placements(schema))
    profiler = _Profiler(perf_model, config)

    front = _Staircase()
    per_plan: List[PlanFrontier] = []
    num_plans = 0
    num_candidates = 0

    # Bound once: the plan loop below is the search's hot path.
    has_retrieval = schema.has_retrieval
    num_servers = cluster.num_servers
    collect_per_plan = config.collect_per_plan
    stage_options = profiler.stage_options
    group_options = profiler.group_options
    retrieval_floor = (perf_model.min_resource(Stage.RETRIEVAL)
                       if has_retrieval else 0)

    def total_lookup(total: int) -> Optional[_TotalLookup]:
        """Retrieval servers and options of the plans allocating
        ``total`` chips, and the default charge (which depends on the
        total alone); None when such plans cannot run."""
        servers = 0
        retrieval_opts: List[_Option] = []
        if has_retrieval:
            servers = max(retrieval_floor, cluster.servers_for_xpus(total))
            if servers > num_servers:
                return None
            retrieval_opts = stage_options(Stage.RETRIEVAL, servers)
            if not retrieval_opts:
                return None
        return (servers, retrieval_opts,
                charge_total(total, servers) if charge_total else None)

    # One lookup per allocation total within the search.
    by_total: Dict[int, Optional[_TotalLookup]] = {}

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
        last = len(placement) - 1
        tail_merge = has_retrieval and spanning_index is None
        checked = False
        # Merged options of the last plan's allocation prefix, one entry
        # per group before the last: ((chips, servers if the group spans
        # retrieval), options through that group). Enumerated
        # allocations are unique, so the last group's merge is never
        # reused.
        prefix: List[Tuple[Tuple[int, Optional[int]], List[_Option]]] = []
        for allocation in allocations:
            num_plans += 1
            total = sum(allocation)
            if total not in by_total:
                by_total[total] = total_lookup(total)
            lookup = by_total[total]
            if lookup is None:
                continue
            servers, retrieval_opts, charged = lookup
            shared = 0
            for key, _ in prefix:
                if key != (allocation[shared], servers
                           if shared == spanning_index else None):
                    break
                shared += 1
            del prefix[shared:]
            options = prefix[-1][1] if prefix else None
            group_opts: List[_Option] = []
            for index in range(shared, last + 1):
                if options == []:  # an earlier group has no options
                    break
                group_opts = group_options(placement[index],
                                           allocation[index])
                if group_opts and index == spanning_index:
                    # §6.1: chips idle during retrieval between the
                    # group's stages -- retrieval joins its cycle.
                    group_opts = _harmonic_merge(group_opts,
                                                 retrieval_opts)
                if index < last:
                    options = group_opts if options is None \
                        or not group_opts \
                        else _serial_merge(options, group_opts)
                    prefix.append(((allocation[index], servers
                                    if index == spanning_index else None),
                                   options))
            if options == [] or not group_opts:
                continue
            if not checked:  # the placement's stage rules, once
                for group, chips in zip(placement, allocation):
                    PlacementGroup(stages=group, num_xpus=chips)
                checked = True
            # The plan's options: the prefix's, then the last group's,
            # then (on a tail merge) retrieval's, merged serially.
            tail_opts = retrieval_opts if tail_merge else None
            operands = ((group_opts, tail_opts) if options is None
                        else (options, group_opts, tail_opts))
            if charged is None:
                charged = charge(allocation, servers)
            corner_ttft, corner_qps = _merge_corner(*operands)
            covered = front.covers(corner_ttft, corner_qps / charged)
            if covered and not collect_per_plan:
                num_candidates += _merge_count(*operands)
                continue
            options = operands[0]
            for operand in operands[1:]:
                if operand is not None:
                    options = _serial_merge(options, operand)
            num_candidates += len(options)
            if collect_per_plan:
                points = [(ttft, qps / charged) for ttft, qps, _ in options]
                per_plan.append(PlanFrontier(
                    placement=placement, allocation=allocation,
                    points=tuple(pareto_front(points, cost=lambda p: p[0],
                                              value=lambda p: p[1]))))
            if covered:
                continue
            retrieval_servers = servers if has_retrieval else None
            for ttft, qps, choices in options:
                front.offer(ttft, qps / charged, (
                    placement, allocation, retrieval_servers, choices))

    if not front.items:
        raise ScheduleError(
            f"no feasible schedule for {schema.name} within {budget} XPUs"
        )

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
    for placement, allocation, retrieval_servers, choices in front.items:
        schedule = Schedule(
            groups=tuple(PlacementGroup(stages=group, num_xpus=chips)
                         for group, chips in zip(placement, allocation)),
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
    performances = pareto_front(
        performances, cost=lambda perf: perf.ttft,
        value=lambda perf: perf.qps / charge(
            tuple(group.num_xpus for group in perf.schedule.groups),
            perf.retrieval_servers))
    performances.sort(key=lambda perf: perf.ttft)
    return SearchResult(frontier=performances, num_plans=num_plans,
                        num_candidates=num_candidates, per_plan=per_plan)
