"""Schema/Schedule serialization round-trip tests."""

import json

import pytest

from repro.errors import ConfigError
from repro.inference.parallelism import ShardingPlan
from repro.pipeline import PlacementGroup, Schedule
from repro.schema import (
    Stage,
    case_i_hyperscale,
    case_ii_long_context,
    case_iv_rewriter_reranker,
    llm_only,
)
from repro.config import (
    schedule_from_dict,
    schedule_to_dict,
    schema_from_dict,
    schema_to_dict,
)


@pytest.mark.parametrize("schema", [
    case_i_hyperscale("8B", queries_per_retrieval=4),
    case_ii_long_context(1_000_000, "70B"),
    case_iv_rewriter_reranker("70B"),
    llm_only("8B"),
], ids=["case-i", "case-ii", "case-iv", "llm-only"])
def test_schema_round_trip(schema):
    data = schema_to_dict(schema)
    # Must survive a JSON round trip (plain types only).
    data = json.loads(json.dumps(data))
    rebuilt = schema_from_dict(data)
    assert rebuilt.name == schema.name
    assert rebuilt.generative_llm == schema.generative_llm
    assert rebuilt.database == schema.database
    assert rebuilt.document_encoder == schema.document_encoder
    assert rebuilt.query_rewriter == schema.query_rewriter
    assert rebuilt.sequences == schema.sequences
    assert rebuilt.retrieval_frequency == schema.retrieval_frequency


def test_schema_missing_field_rejected():
    with pytest.raises(ConfigError):
        schema_from_dict({"name": "x"})


def test_schedule_round_trip():
    schedule = Schedule(
        groups=(PlacementGroup((Stage.REWRITE_PREFIX,
                                Stage.REWRITE_DECODE), 8),
                PlacementGroup((Stage.RERANK, Stage.PREFIX), 16),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.REWRITE_PREFIX: 4, Stage.REWRITE_DECODE: 4,
                 Stage.RERANK: 8, Stage.PREFIX: 8, Stage.RETRIEVAL: 16,
                 Stage.DECODE: 512},
        retrieval_servers=24,
        iterative_batch=8,
        shard_plans={Stage.PREFIX: ShardingPlan(4, 4)},
    )
    data = json.loads(json.dumps(schedule_to_dict(schedule)))
    rebuilt = schedule_from_dict(data)
    assert rebuilt.groups == schedule.groups
    assert rebuilt.batches == dict(schedule.batches)
    assert rebuilt.retrieval_servers == 24
    assert rebuilt.iterative_batch == 8
    assert rebuilt.shard_plans[Stage.PREFIX] == ShardingPlan(4, 4)


def test_schedule_from_search_round_trips():
    from repro import ClusterSpec, OptimizerSession
    result = OptimizerSession(case_i_hyperscale("8B"),
                              ClusterSpec(num_servers=32)).optimize()
    schedule = result.max_qps_per_chip.schedule
    rebuilt = schedule_from_dict(
        json.loads(json.dumps(schedule_to_dict(schedule))))
    # Re-evaluating the reloaded schedule reproduces the numbers.
    session = OptimizerSession(case_i_hyperscale("8B"),
                               ClusterSpec(num_servers=32))
    original = session.evaluate(schedule)
    reloaded = session.evaluate(rebuilt)
    assert reloaded.qps == pytest.approx(original.qps)
    assert reloaded.ttft == pytest.approx(original.ttft)


def test_malformed_schedule_rejected():
    with pytest.raises(ConfigError):
        schedule_from_dict({"groups": [{"stages": ["bogus-stage"],
                                        "num_xpus": 4}],
                            "batches": {}})
