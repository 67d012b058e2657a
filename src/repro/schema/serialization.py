"""JSON-friendly serialization of RAGSchema and Schedule.

Lets deployments persist workload descriptions and the schedules RAGO
picks for them (e.g. commit the chosen schedule next to the serving
config, reload it at rollout).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import decoder
from repro.inference.parallelism import ShardingPlan
from repro.models.transformer import TransformerConfig
from repro.pipeline.assembly import PlacementGroup, Schedule
from repro.retrieval.scann_model import DatabaseConfig
from repro.schema.ragschema import RAGSchema
from repro.schema.stages import Stage
from repro.workloads.profile import SequenceProfile

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


@decoder("schema")
def schema_from_dict(data: Dict) -> RAGSchema:
    """Reconstruct a RAGSchema serialized by :func:`schema_to_dict`.

    Raises:
        ConfigError: on missing or malformed fields.
    """
    return RAGSchema(
        name=data["name"],
        generative_llm=_model_from_dict(data["generative_llm"]),
        database=(DatabaseConfig(**data["database"])
                  if data.get("database") else None),
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


@decoder("schedule")
def schedule_from_dict(data: Dict) -> Schedule:
    """Reconstruct a Schedule serialized by :func:`schedule_to_dict`.

    Raises:
        ConfigError: on malformed input.
    """
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
