"""End-to-end RAG performance assembly for a schedule.

Implements the paper's composition rules (§3.3): end-to-end latency is the
sum of stage latencies along the request path, and end-to-end throughput
is the minimum stage-group throughput. Collocated stage groups
time-multiplex a chip set, so the group's throughput is the harmonic
composition ``1 / sum(1 / QPS_i)``; disaggregated stages bound throughput
individually.

QPS/chip charges the schedule for its XPUs; retrieval runs on the CPUs of
the host servers that carry those XPUs (4 per server, §4), so CPU servers
are implied rather than separately charged, with a floor given by the
database's memory footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import CapacityError, ConfigError
from repro.inference.parallelism import ShardingPlan
from repro.pipeline.stage_perf import RAGPerfModel, StagePerf
from repro.schema.stages import Stage, spans_retrieval, ttft_stages, xpu_stages


@dataclass(frozen=True)
class PlacementGroup:
    """A set of XPU stages time-multiplexed on one chip allocation.

    Attributes:
        stages: Stages sharing the chips, in pipeline order. A group of
            one stage is a disaggregated placement.
        num_xpus: Accelerators allocated to the group.
    """

    stages: Tuple[Stage, ...]
    num_xpus: int

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigError("a placement group needs at least one stage")
        if Stage.RETRIEVAL in self.stages:
            raise ConfigError("retrieval runs on CPUs, not in an XPU group")
        if self.num_xpus <= 0:
            raise ConfigError("num_xpus must be positive")
        if Stage.DECODE in self.stages and len(self.stages) > 1:
            raise ConfigError("decode is always disaggregated (paper §6.1)")

    @property
    def collocated(self) -> bool:
        """Whether multiple stages share the chips."""
        return len(self.stages) > 1


@dataclass(frozen=True)
class Schedule:
    """A complete RAGO scheduling decision.

    Attributes:
        groups: XPU placement groups (must cover every XPU stage of the
            schema exactly once; decode in its own group).
        batches: Per-stage batch size, including retrieval.
        retrieval_servers: CPU servers for retrieval; None derives the
            host-server count from the XPU allocation (with the database
            capacity floor).
        iterative_batch: Batch size for decoder-initiated retrieval/prefix
            iterations (Case III); None reuses the retrieval batch.
        shard_plans: Optional per-stage sharding plan; stages without an
            entry use the throughput-optimal plan.
    """

    groups: Tuple[PlacementGroup, ...]
    batches: Mapping[Stage, int]
    retrieval_servers: Optional[int] = None
    iterative_batch: Optional[int] = None
    shard_plans: Mapping[Stage, "ShardingPlan"] = field(default_factory=dict)

    @property
    def total_xpus(self) -> int:
        """Accelerators the schedule occupies."""
        return sum(group.num_xpus for group in self.groups)

    def group_of(self, stage: Stage) -> PlacementGroup:
        """The placement group containing a stage."""
        for group in self.groups:
            if stage in group.stages:
                return group
        raise ConfigError(f"stage {stage} is not placed by this schedule")

    def describe(self) -> str:
        """Human-readable schedule summary (Table 4 style)."""
        parts = []
        for group in self.groups:
            names = "+".join(str(s) for s in group.stages)
            tag = "col" if group.collocated else "dis"
            parts.append(f"{names}[{group.num_xpus}xpu,{tag}]")
        batch_str = ",".join(f"{stage}={size}"
                             for stage, size in self.batches.items())
        return " | ".join(parts) + f" | batches: {batch_str}"


@dataclass(frozen=True)
class PipelinePerf:
    """End-to-end performance of one schedule.

    Attributes:
        ttft: Time-to-first-token in seconds.
        tpot: Worst-case time-per-output-token in seconds.
        qps: End-to-end requests per second.
        qps_per_chip: QPS normalized by the *charged* chip count.
        total_xpus: Accelerators running inference stages.
        charged_chips: Chips the deployment pays for: the inference XPUs,
            but never fewer than the XPU slots of the host servers the
            database occupies (a 16-server database implies 64 chip slots
            even if fewer run models, §4).
        retrieval_servers: CPU servers serving retrieval (0 if none).
        stage_perfs: Per-stage performance points used in the assembly.
        schedule: The schedule that produced these numbers.
    """

    ttft: float
    tpot: float
    qps: float
    qps_per_chip: float
    total_xpus: int
    charged_chips: int
    retrieval_servers: int
    stage_perfs: Dict[Stage, StagePerf] = field(repr=False, default_factory=dict)
    schedule: Optional[Schedule] = field(repr=False, default=None)


def _validate_coverage(perf_model: RAGPerfModel, schedule: Schedule) -> None:
    expected = list(xpu_stages(perf_model.schema))
    placed = [stage for group in schedule.groups for stage in group.stages]
    if sorted(placed, key=lambda s: s.value) != sorted(
            expected, key=lambda s: s.value):
        raise ConfigError(
            f"schedule places {sorted(s.value for s in placed)} but schema "
            f"needs {sorted(s.value for s in expected)}"
        )
    for stage in expected:
        if stage not in schedule.batches:
            raise ConfigError(f"no batch size for stage {stage}")
    if perf_model.schema.has_retrieval \
            and Stage.RETRIEVAL not in schedule.batches:
        raise ConfigError("no batch size for the retrieval stage")


def derive_retrieval_servers(perf_model: RAGPerfModel,
                             schedule: Schedule) -> int:
    """CPU servers implied by a schedule's XPU allocation.

    The XPU host servers run retrieval (4 XPUs per host); the database's
    memory footprint sets a floor. Raises :class:`CapacityError` when the
    cluster cannot host the XPUs.
    """
    cluster = perf_model.cluster
    hosts = cluster.servers_for_xpus(schedule.total_xpus)
    if hosts > cluster.num_servers:
        raise CapacityError(
            f"schedule needs {hosts} host servers for {schedule.total_xpus} "
            f"XPUs but the cluster has {cluster.num_servers}"
        )
    if not perf_model.schema.has_retrieval:
        return 0
    floor = perf_model.min_resource(Stage.RETRIEVAL)
    if floor > cluster.num_servers:
        raise CapacityError(
            f"database needs {floor} servers; cluster has "
            f"{cluster.num_servers}"
        )
    return max(hosts, floor)


def assemble(perf_model: RAGPerfModel, schedule: Schedule) -> PipelinePerf:
    """Compute end-to-end performance for one schedule.

    Raises:
        ConfigError: if the schedule does not cover the schema's stages.
        CapacityError: if any stage allocation is infeasible.
    """
    schema = perf_model.schema
    _validate_coverage(perf_model, schedule)
    cluster = perf_model.cluster
    if schedule.total_xpus > cluster.total_xpus:
        raise CapacityError(
            f"schedule uses {schedule.total_xpus} XPUs; cluster has "
            f"{cluster.total_xpus}"
        )

    servers = schedule.retrieval_servers
    if servers is None:
        servers = derive_retrieval_servers(perf_model, schedule)

    stage_perfs: Dict[Stage, StagePerf] = {}
    for group in schedule.groups:
        for stage in group.stages:
            stage_perfs[stage] = perf_model.perf(
                stage, schedule.batches[stage], group.num_xpus,
                plan=schedule.shard_plans.get(stage))
    if schema.has_retrieval:
        stage_perfs[Stage.RETRIEVAL] = perf_model.perf(
            Stage.RETRIEVAL, schedule.batches[Stage.RETRIEVAL], servers)

    # --- Iterative retrieval adjustments (Case III). ------------------
    # Each sequence performs `freq` retrievals and `freq` prefix passes
    # (initial + re-integrations), loading those stages proportionally,
    # and the decode stage's sequence latency absorbs the iteration
    # latencies (stall effects are studied separately with the DES).
    freq = schema.retrieval_frequency if schema.has_retrieval else 0
    visits = {stage: 1.0 for stage in stage_perfs}
    if schema.is_iterative:
        visits[Stage.RETRIEVAL] = float(freq)
        visits[Stage.PREFIX] = float(freq)

    decode_extra = 0.0
    if schema.is_iterative:
        iter_batch = schedule.iterative_batch or schedule.batches[
            Stage.RETRIEVAL]
        iter_retrieval = perf_model.perf(Stage.RETRIEVAL, iter_batch, servers)
        iter_prefix = perf_model.perf(
            Stage.PREFIX, iter_batch,
            schedule.group_of(Stage.PREFIX).num_xpus)
        decode_extra = (freq - 1) * (iter_retrieval.latency
                                     + iter_prefix.latency)

    # --- Throughput: min over stage groups (harmonic within a group). --
    # A collocated group that straddles retrieval pauses for it (§6.1),
    # so the retrieval latency joins that group's time-multiplex cycle.
    retrieval_qps = math.inf
    if schema.has_retrieval:
        retrieval_qps = (stage_perfs[Stage.RETRIEVAL].request_qps
                         / visits.get(Stage.RETRIEVAL, 1.0))
    bottleneck = math.inf
    for group in schedule.groups:
        inverse = 0.0
        for stage in group.stages:
            qps = stage_perfs[stage].request_qps / visits[stage]
            if stage is Stage.DECODE and decode_extra > 0:
                base = stage_perfs[stage]
                qps = base.batch / (base.latency + decode_extra)
            inverse += 1.0 / qps
        if group.collocated and spans_retrieval(group.stages, schema):
            inverse += 1.0 / retrieval_qps
        bottleneck = min(bottleneck, 1.0 / inverse)
    if schema.has_retrieval:
        bottleneck = min(bottleneck, retrieval_qps)

    # --- TTFT: sum of request-path latencies up to the first token. ----
    ttft = 0.0
    for stage in ttft_stages(schema):
        ttft += stage_perfs[stage].latency

    decode_perf = stage_perfs[Stage.DECODE]
    tpot = decode_perf.tpot if decode_perf.tpot is not None else 0.0
    if decode_extra > 0 and schema.sequences.decode_len > 0:
        tpot += decode_extra / schema.sequences.decode_len

    total_xpus = schedule.total_xpus
    charged = max(total_xpus, servers * cluster.xpus_per_server)
    return PipelinePerf(
        ttft=ttft,
        tpot=tpot,
        qps=bottleneck,
        qps_per_chip=bottleneck / charged,
        total_xpus=total_xpus,
        charged_chips=charged,
        retrieval_servers=servers,
        stage_perfs=stage_perfs,
        schedule=schedule,
    )
