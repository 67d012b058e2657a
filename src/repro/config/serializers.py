"""Plain-dict serializers for every optimizer artifact type.

Each ``*_to_dict`` emits only JSON types (str/int/float/bool/None,
lists, string-keyed dicts) and each ``*_from_dict`` reconstructs an
object that compares **equal** to the original -- the round-trip
guarantee :mod:`repro.config` (and its tests) rely on. The schema,
schedule and settings decoders reject unknown keys, and an optional
section is absent only when it is ``None``: a typo'd knob or an empty
``{}`` must fail, not silently fall back to a default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ConfigError, decoder, reject_unknown
from repro.hardware.accelerator import XPUSpec
from repro.hardware.cluster import ClusterSpec
from repro.hardware.cpu import CPUServerSpec
from repro.inference.parallelism import ShardingPlan
from repro.models.transformer import TransformerConfig
from repro.pipeline.assembly import PipelinePerf, PlacementGroup, Schedule
from repro.pipeline.stage_perf import StagePerf
from repro.rago.objectives import ServiceObjective
from repro.rago.search import (PlanFrontier, SearchConfig, SearchResult,
                               _check_positive_int)
from repro.retrieval.scann_model import DatabaseConfig
from repro.schema.ragschema import RAGSchema
from repro.schema.stages import Stage
from repro.workloads.profile import SequenceProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve import ServeConfig
    from repro.sim.autoscale import AutoscaleConfig
    from repro.sim.metrics import ServingReport
    from repro.workloads.traces import RequestTrace

__all__ = [
    "schema_to_dict", "schema_from_dict",
    "schedule_to_dict", "schedule_from_dict",
    "cluster_to_dict", "cluster_from_dict",
    "search_config_to_dict", "search_config_from_dict",
    "objective_to_dict", "objective_from_dict",
    "search_result_to_dict", "search_result_from_dict",
    "trace_to_dict", "trace_from_dict",
    "serving_report_to_dict", "serving_report_from_dict",
    "sweep_result_to_dict", "sweep_result_from_dict",
    "whatif_result_to_dict", "whatif_result_from_dict",
    "serve_config_to_dict", "serve_config_from_dict",
    "autoscale_config_to_dict", "autoscale_config_from_dict",
]

_MODEL_FIELDS = ("name", "num_layers", "d_model", "num_heads",
                 "num_kv_heads", "d_ff", "vocab_size", "gated_mlp",
                 "weight_bytes_per_param", "activation_bytes", "is_decoder")
_DATABASE_FIELDS = ("num_vectors", "dim", "bytes_per_vector",
                    "scan_fraction", "tree_fanout", "tree_levels")
_PROFILE_FIELDS = ("question_len", "prefix_len", "decode_len",
                   "rewrite_output_len", "passage_len",
                   "retrieved_passages", "rerank_candidates",
                   "context_len", "chunk_len")


def _model_to_dict(model: Optional[TransformerConfig]) -> Optional[Dict]:
    if model is None:
        return None
    return {field: getattr(model, field) for field in _MODEL_FIELDS}


def _model_from_dict(data: Optional[Dict]) -> Optional[TransformerConfig]:
    if data is None:
        return None
    return TransformerConfig(**data)


def schema_to_dict(schema: RAGSchema) -> Dict:
    """Serialize a RAGSchema to plain JSON types."""
    return {
        "name": schema.name,
        "generative_llm": _model_to_dict(schema.generative_llm),
        "database": (
            {field: getattr(schema.database, field)
             for field in _DATABASE_FIELDS}
            if schema.database is not None else None),
        "document_encoder": _model_to_dict(schema.document_encoder),
        "query_rewriter": _model_to_dict(schema.query_rewriter),
        "query_reranker": _model_to_dict(schema.query_reranker),
        "retrieval_frequency": schema.retrieval_frequency,
        "queries_per_retrieval": schema.queries_per_retrieval,
        "brute_force_retrieval": schema.brute_force_retrieval,
        "sequences": {field: getattr(schema.sequences, field)
                      for field in _PROFILE_FIELDS},
    }


_SCHEMA_FIELDS = ("name", "generative_llm", "database", "document_encoder",
                  "query_rewriter", "query_reranker", "retrieval_frequency",
                  "queries_per_retrieval", "brute_force_retrieval",
                  "sequences")


@decoder("schema")
def schema_from_dict(data: Dict) -> RAGSchema:
    """Reconstruct a RAGSchema serialized by :func:`schema_to_dict`.

    Raises:
        ConfigError: on missing, unknown or malformed fields.
    """
    reject_unknown(data, _SCHEMA_FIELDS, "schema")
    database = data.get("database")
    return RAGSchema(
        name=data["name"],
        generative_llm=_model_from_dict(data["generative_llm"]),
        database=(DatabaseConfig(**database)
                  if database is not None else None),
        document_encoder=_model_from_dict(data.get("document_encoder")),
        query_rewriter=_model_from_dict(data.get("query_rewriter")),
        query_reranker=_model_from_dict(data.get("query_reranker")),
        retrieval_frequency=data.get("retrieval_frequency", 1),
        queries_per_retrieval=data.get("queries_per_retrieval", 1),
        brute_force_retrieval=data.get("brute_force_retrieval", False),
        sequences=SequenceProfile(**data["sequences"]),
    )


def schedule_to_dict(schedule: Schedule) -> Dict:
    """Serialize a Schedule (placement, batching, plans) to JSON types."""
    return {
        "groups": [
            {"stages": [stage.value for stage in group.stages],
             "num_xpus": group.num_xpus}
            for group in schedule.groups
        ],
        "batches": {stage.value: batch
                    for stage, batch in schedule.batches.items()},
        "retrieval_servers": schedule.retrieval_servers,
        "iterative_batch": schedule.iterative_batch,
        "shard_plans": {
            stage.value: {"tensor_parallel": plan.tensor_parallel,
                          "pipeline_parallel": plan.pipeline_parallel}
            for stage, plan in schedule.shard_plans.items()
        },
    }


_SCHEDULE_FIELDS = ("groups", "batches", "retrieval_servers",
                    "iterative_batch", "shard_plans")


@decoder("schedule")
def schedule_from_dict(data: Dict) -> Schedule:
    """Reconstruct a Schedule serialized by :func:`schedule_to_dict`.

    Raises:
        ConfigError: on unknown keys or malformed input.
    """
    reject_unknown(data, _SCHEDULE_FIELDS, "schedule")
    groups = tuple(
        PlacementGroup(
            stages=tuple(Stage(name) for name in group["stages"]),
            num_xpus=group["num_xpus"])
        for group in data["groups"])
    batches = {Stage(name): batch
               for name, batch in data["batches"].items()}
    shard_plans = {
        Stage(name): ShardingPlan(
            tensor_parallel=plan["tensor_parallel"],
            pipeline_parallel=plan["pipeline_parallel"])
        for name, plan in data.get("shard_plans", {}).items()
    }
    return Schedule(
        groups=groups,
        batches=batches,
        retrieval_servers=data.get("retrieval_servers"),
        iterative_batch=data.get("iterative_batch"),
        shard_plans=shard_plans,
    )


_XPU_FIELDS = ("name", "peak_flops", "hbm_bytes", "mem_bandwidth",
               "interconnect_bandwidth", "flops_efficiency",
               "mem_efficiency")
_CPU_FIELDS = ("name", "cores", "memory_bytes", "mem_bandwidth",
               "pq_scan_rate_per_core", "mem_utilization")
_OBJECTIVE_FIELDS = ("max_ttft", "max_tpot", "min_qps_per_chip")
_STAGE_PERF_FIELDS = ("latency", "request_qps", "batch", "resource_amount",
                      "resource_type", "tpot")


def cluster_to_dict(cluster: ClusterSpec) -> Dict:
    """Serialize a ClusterSpec (with its full XPU/CPU specs)."""
    return {
        "num_servers": cluster.num_servers,
        "xpus_per_server": cluster.xpus_per_server,
        "xpu": {name: getattr(cluster.xpu, name) for name in _XPU_FIELDS},
        "cpu": {name: getattr(cluster.cpu, name) for name in _CPU_FIELDS},
        "pcie_bandwidth": cluster.pcie_bandwidth,
    }


_CLUSTER_FIELDS = ("num_servers", "xpus_per_server", "xpu", "cpu",
                   "pcie_bandwidth")


@decoder("cluster")
def cluster_from_dict(data: Dict) -> ClusterSpec:
    """Reconstruct a ClusterSpec serialized by :func:`cluster_to_dict`.

    Unknown keys are rejected (same strictness as the search-config and
    objective loaders)."""
    reject_unknown(data, _CLUSTER_FIELDS, "cluster")
    return ClusterSpec(
        num_servers=data["num_servers"],
        xpus_per_server=data["xpus_per_server"],
        xpu=XPUSpec(**data["xpu"]),
        cpu=CPUServerSpec(**data["cpu"]),
        pcie_bandwidth=data["pcie_bandwidth"],
    )


def search_config_to_dict(config: SearchConfig) -> Dict:
    """Serialize a SearchConfig (placements/allocations included)."""
    placements: Optional[List[List[List[str]]]] = None
    if config.placements is not None:
        placements = [[[stage.value for stage in group] for group in placement]
                      for placement in config.placements]
    allocations: Optional[List[List[int]]] = None
    if config.allocations is not None:
        allocations = [list(allocation) for allocation in config.allocations]
    return {
        "budget_xpus": config.budget_xpus,
        "max_batch": config.max_batch,
        "max_decode_batch": config.max_decode_batch,
        "placements": placements,
        "allocations": allocations,
        "collect_per_plan": config.collect_per_plan,
    }


_SEARCH_CONFIG_FIELDS = ("budget_xpus", "max_batch", "max_decode_batch",
                         "placements", "allocations", "collect_per_plan")


@decoder("search config")
def search_config_from_dict(data: Dict) -> SearchConfig:
    """Reconstruct a SearchConfig serialized by
    :func:`search_config_to_dict`.

    Unknown keys are rejected -- a typo'd knob in a hand-edited
    experiment file must not silently fall back to a default.
    """
    reject_unknown(data, (*_SEARCH_CONFIG_FIELDS, "max_frontier_points"),
                   "search config")
    if "max_frontier_points" in data:  # retired: validated, then dropped
        _check_positive_int("max_frontier_points",
                            data["max_frontier_points"])
    # Only keys present in the payload are passed through, so the
    # dataclass itself supplies defaults for everything omitted.
    kwargs = {key: data[key] for key in _SEARCH_CONFIG_FIELDS
              if key in data}
    if kwargs.get("placements") is not None:
        kwargs["placements"] = [
            tuple(tuple(Stage(name) for name in group)
                  for group in placement)
            for placement in kwargs["placements"]]
    if kwargs.get("allocations") is not None:
        kwargs["allocations"] = [tuple(allocation)
                                 for allocation in kwargs["allocations"]]
    return SearchConfig(**kwargs)


def objective_to_dict(objective: ServiceObjective) -> Dict:
    """Serialize a ServiceObjective."""
    return {name: getattr(objective, name) for name in _OBJECTIVE_FIELDS}


@decoder("objective")
def objective_from_dict(data: Dict) -> ServiceObjective:
    """Reconstruct a ServiceObjective."""
    reject_unknown(data, _OBJECTIVE_FIELDS, "objective")
    return ServiceObjective(**data)


def _stage_perf_to_dict(perf: StagePerf) -> Dict:
    payload = {name: getattr(perf, name) for name in _STAGE_PERF_FIELDS}
    payload["stage"] = perf.stage.value
    payload["plan"] = (None if perf.plan is None else
                       {"tensor_parallel": perf.plan.tensor_parallel,
                        "pipeline_parallel": perf.plan.pipeline_parallel})
    return payload


def _stage_perf_from_dict(data: Dict) -> StagePerf:
    plan = data.get("plan")
    return StagePerf(
        stage=Stage(data["stage"]),
        plan=None if plan is None else ShardingPlan(**plan),
        **{name: data[name] for name in _STAGE_PERF_FIELDS},
    )


def _pipeline_perf_to_dict(perf: PipelinePerf) -> Dict:
    return {
        "ttft": perf.ttft,
        "tpot": perf.tpot,
        "qps": perf.qps,
        "qps_per_chip": perf.qps_per_chip,
        "total_xpus": perf.total_xpus,
        "charged_chips": perf.charged_chips,
        "retrieval_servers": perf.retrieval_servers,
        "stage_perfs": {stage.value: _stage_perf_to_dict(stage_perf)
                        for stage, stage_perf in perf.stage_perfs.items()},
        "schedule": (None if perf.schedule is None
                     else schedule_to_dict(perf.schedule)),
    }


def _pipeline_perf_from_dict(data: Dict) -> PipelinePerf:
    schedule = data.get("schedule")
    return PipelinePerf(
        ttft=data["ttft"],
        tpot=data["tpot"],
        qps=data["qps"],
        qps_per_chip=data["qps_per_chip"],
        total_xpus=data["total_xpus"],
        charged_chips=data["charged_chips"],
        retrieval_servers=data["retrieval_servers"],
        stage_perfs={Stage(name): _stage_perf_from_dict(stage_perf)
                     for name, stage_perf in data["stage_perfs"].items()},
        schedule=None if schedule is None else schedule_from_dict(schedule),
    )


def search_result_to_dict(result: SearchResult) -> Dict:
    """Serialize a SearchResult, schedules and stage perfs included, so
    a found frontier is a reproducible artifact."""
    return {
        "frontier": [_pipeline_perf_to_dict(perf)
                     for perf in result.frontier],
        "num_plans": result.num_plans,
        "num_candidates": result.num_candidates,
        "per_plan": [
            {"placement": [[stage.value for stage in group]
                           for group in frontier.placement],
             "allocation": list(frontier.allocation),
             "points": [list(point) for point in frontier.points]}
            for frontier in result.per_plan
        ],
    }


@decoder("search result")
def search_result_from_dict(data: Dict) -> SearchResult:
    """Reconstruct a SearchResult serialized by
    :func:`search_result_to_dict`."""
    per_plan = [
        PlanFrontier(
            placement=tuple(tuple(Stage(name) for name in group)
                            for group in frontier["placement"]),
            allocation=tuple(frontier["allocation"]),
            points=tuple(tuple(point) for point in frontier["points"]),
        )
        for frontier in data.get("per_plan", [])
    ]
    return SearchResult(
        frontier=[_pipeline_perf_from_dict(perf)
                  for perf in data["frontier"]],
        num_plans=data.get("num_plans", 0),
        num_candidates=data.get("num_candidates", 0),
        per_plan=per_plan,
    )


# ---------------------------------------------------------------------------
# Traffic subsystem artifacts: traces, serving reports, sweep results.
# ---------------------------------------------------------------------------

#: The version-2 trace spec shape (request records with identity).
_TRACE_FIELDS = ("requests", "metadata")
#: The pre-identity (config version 1) parallel-tuple shape, still
#: accepted by :func:`trace_from_dict` so archived envelopes load.
_LEGACY_TRACE_FIELDS = ("arrivals", "decode_lens", "metadata")
_REQUEST_FIELDS = ("arrival", "decode_len", "user_id", "session_id",
                   "tier")


def trace_to_dict(trace: RequestTrace) -> Dict:
    """Serialize a RequestTrace as request records (identity fields
    only appear when set, keeping anonymous traces compact)."""
    return {"requests": list(trace.row_dicts()),
            "metadata": dict(trace.metadata)}


@decoder("trace")
def trace_from_dict(data: Dict) -> RequestTrace:
    """Reconstruct a RequestTrace serialized by :func:`trace_to_dict`.

    Accepts both the request-record shape and the version-1 parallel
    ``arrivals`` / ``decode_lens`` tuples, which reconstruct
    bit-identically (anonymous requests). Both go through the JSONL
    loader's row and metadata checks."""
    from repro.workloads.traces import (RequestTrace, check_metadata,
                                        request_row)

    if "requests" in data:
        reject_unknown(data, _TRACE_FIELDS, "trace")
        records = data["requests"]
    else:
        reject_unknown(data, _LEGACY_TRACE_FIELDS, "trace")
        arrivals = data["arrivals"]
        lens = data.get("decode_lens")
        if lens is not None and len(lens) != len(arrivals):
            raise ConfigError("decode_lens must match arrivals in length")
        records = [{"arrival": arrival} if lens is None
                   else {"arrival": arrival, "decode_len": lens[index]}
                   for index, arrival in enumerate(arrivals)]
    rows = []
    for index, record in enumerate(records):
        reject_unknown(record, _REQUEST_FIELDS, "trace request")
        rows.append(request_row(record, f"trace request {index}"))
    metadata = dict(data.get("metadata") or {})
    check_metadata(metadata, "trace")
    return RequestTrace.from_rows(rows, metadata)


_REPORT_FIELDS = ("scenario", "offered", "completed", "duration",
                  "throughput", "slo", "slo_attainment", "ttft", "tpot",
                  "queueing", "utilization", "trace_metadata", "tiers",
                  "fairness")


def serving_report_to_dict(report: ServingReport) -> Dict:
    """Serialize a ServingReport (aggregates only; per-request records
    intentionally do not travel)."""
    return {
        "scenario": report.scenario,
        "offered": report.offered,
        "completed": report.completed,
        "duration": report.duration,
        "throughput": report.throughput,
        "slo": {"ttft": report.slo.ttft, "tpot": report.slo.tpot},
        "slo_attainment": dict(report.slo_attainment),
        "ttft": dict(report.ttft),
        "tpot": dict(report.tpot),
        "queueing": {stage: dict(stats)
                     for stage, stats in report.queueing.items()},
        "utilization": dict(report.utilization),
        "trace_metadata": dict(report.trace_metadata),
        "tiers": {tier: dict(stats)
                  for tier, stats in report.tiers.items()},
        "fairness": dict(report.fairness),
    }


@decoder("serving report")
def serving_report_from_dict(data: Dict) -> ServingReport:
    """Reconstruct a ServingReport serialized by
    :func:`serving_report_to_dict` (records come back empty; the
    per-tier sections default empty so pre-identity envelopes load
    unchanged)."""
    from repro.sim.metrics import ServingReport, SLOTarget

    reject_unknown(data, _REPORT_FIELDS, "serving report")
    slo = data["slo"]
    return ServingReport(
        scenario=data["scenario"],
        offered=data["offered"],
        completed=data["completed"],
        duration=data["duration"],
        throughput=data["throughput"],
        slo=SLOTarget(ttft=slo.get("ttft"), tpot=slo.get("tpot")),
        slo_attainment=dict(data["slo_attainment"]),
        ttft=dict(data["ttft"]),
        tpot=dict(data["tpot"]),
        queueing={stage: dict(stats)
                  for stage, stats in data["queueing"].items()},
        utilization=dict(data["utilization"]),
        trace_metadata=dict(data.get("trace_metadata") or {}),
        tiers={tier: dict(stats)
               for tier, stats in (data.get("tiers") or {}).items()},
        fairness=dict(data.get("fairness") or {}),
    )


_AUTOSCALE_CONFIG_FIELDS = ("policy", "min_replicas", "max_replicas",
                            "interval", "cooldown", "scale_up",
                            "scale_down")


def autoscale_config_to_dict(config: AutoscaleConfig) -> Dict:
    """Serialize an autoscaling-control-loop envelope."""
    return {name: getattr(config, name)
            for name in _AUTOSCALE_CONFIG_FIELDS}


@decoder("autoscale config")
def autoscale_config_from_dict(data: Dict) -> AutoscaleConfig:
    """Reconstruct an AutoscaleConfig serialized by
    :func:`autoscale_config_to_dict`.

    Unknown keys are rejected; missing keys fall back to the library
    defaults (the same strictness/terseness trade as the serve
    config)."""
    from repro.sim.autoscale import AutoscaleConfig

    reject_unknown(data, _AUTOSCALE_CONFIG_FIELDS, "autoscale config")
    return AutoscaleConfig(**data)


_SERVE_CONFIG_FIELDS = ("host", "port", "tick", "time_scale",
                        "slo_ttft", "slo_tpot", "default_decode_len",
                        "replicas", "routing", "autoscale")


def serve_config_to_dict(config: ServeConfig) -> Dict:
    """Serialize the live server's settings envelope (the autoscale
    sub-envelope nests)."""
    payload = {name: getattr(config, name)
               for name in _SERVE_CONFIG_FIELDS if name != "autoscale"}
    payload["autoscale"] = (None if config.autoscale is None
                            else autoscale_config_to_dict(config.autoscale))
    return payload


@decoder("serve config")
def serve_config_from_dict(data: Dict) -> ServeConfig:
    """Reconstruct a ServeConfig serialized by
    :func:`serve_config_to_dict`.

    Unknown keys are rejected; missing keys fall back to the library
    defaults, so hand-written server configs stay terse."""
    from repro.serve import ServeConfig

    reject_unknown(data, _SERVE_CONFIG_FIELDS, "serve config")
    kwargs = dict(data)
    autoscale = kwargs.get("autoscale")
    if autoscale is not None:
        kwargs["autoscale"] = autoscale_config_from_dict(autoscale)
    return ServeConfig(**kwargs)


def sweep_result_to_dict(result) -> Dict:
    """Serialize a SweepResult cell by cell, so grid studies are
    resumable and diffable artifacts."""
    return {
        "cells": [
            {
                "schema": schema_to_dict(cell.schema),
                "cluster": cluster_to_dict(cell.cluster),
                "result": (None if cell.result is None
                           else search_result_to_dict(cell.result)),
                "error": cell.error,
            }
            for cell in result.cells
        ],
    }


@decoder("sweep result")
def sweep_result_from_dict(data: Dict):
    """Reconstruct a SweepResult serialized by
    :func:`sweep_result_to_dict`."""
    from repro.rago.session import SweepCell, SweepResult

    cells = []
    for cell in data["cells"]:
        result = cell.get("result")
        cells.append(SweepCell(
            schema=schema_from_dict(cell["schema"]),
            cluster=cluster_from_dict(cell["cluster"]),
            result=(None if result is None
                    else search_result_from_dict(result)),
            error=cell.get("error"),
        ))
    return SweepResult(cells=tuple(cells))


def whatif_result_to_dict(result) -> Dict:
    """Serialize a WhatIfResult cell by cell, so capacity-planning
    studies are saved, diffed and re-rendered without a replay."""
    return {
        "slo": {"ttft": result.slo_ttft, "tpot": result.slo_tpot},
        "trace_digest": result.trace_digest,
        "cells": [
            {
                "schedule": schedule_to_dict(cell.schedule),
                "replicas": cell.replicas,
                "routing": cell.routing,
                "autoscale": cell.autoscale,
                "metrics": cell.metrics,
                "error": cell.error,
            }
            for cell in result.cells
        ],
    }


@decoder("whatif result")
def whatif_result_from_dict(data: Dict):
    """Reconstruct a WhatIfResult serialized by
    :func:`whatif_result_to_dict`."""
    from repro.rago.whatif import WhatIfCell, WhatIfResult

    cells = []
    for cell in data["cells"]:
        cells.append(WhatIfCell(
            schedule=schedule_from_dict(cell["schedule"]),
            replicas=cell.get("replicas"),
            routing=cell.get("routing"),
            autoscale=cell.get("autoscale"),
            metrics=cell.get("metrics"),
            error=cell.get("error"),
        ))
    slo = data.get("slo") or {}
    return WhatIfResult(cells=tuple(cells),
                        slo_ttft=slo.get("ttft"),
                        slo_tpot=slo.get("tpot"),
                        trace_digest=data.get("trace_digest", ""))
