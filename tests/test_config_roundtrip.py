"""Versioned config serialization: round trips and backcompat.

The contract: every artifact survives ``from_config(to_config(x)) == x``
through an actual JSON encode/decode, and the redesigned session front-
end produces frontiers identical to both the classic ``RAGO`` facade and
a direct ``search_schedules`` call.
"""

import json

import pytest

from repro import config
from repro.errors import ConfigError
from repro.hardware.accelerator import XPU_A
from repro.hardware.cluster import ClusterSpec
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.objectives import ServiceObjective
from repro.rago.search import SearchConfig, search_schedules
from repro.rago.session import OptimizerSession
from repro.schema import (
    case_i_hyperscale,
    case_ii_long_context,
    case_iii_iterative,
    case_iv_rewriter_reranker,
    llm_only,
)
from repro.schema.stages import Stage

_CLUSTER = ClusterSpec(num_servers=16)


def roundtrip(obj):
    """Envelope -> JSON text -> envelope -> object."""
    return config.loads(config.dumps(obj))


@pytest.mark.parametrize("schema", [
    case_i_hyperscale("8B", queries_per_retrieval=4),
    case_ii_long_context(1_000_000, "70B"),
    case_iii_iterative("70B", retrieval_frequency=4),
    case_iv_rewriter_reranker("70B"),
    llm_only("8B"),
], ids=["case-i", "case-ii", "case-iii", "case-iv", "llm-only"])
def test_schema_round_trip_equality(schema):
    assert roundtrip(schema) == schema


def test_cluster_round_trip_equality():
    cluster = ClusterSpec(num_servers=24, xpus_per_server=8, xpu=XPU_A)
    assert roundtrip(cluster) == cluster


def test_search_config_round_trip_equality():
    search = SearchConfig(budget_xpus=64, max_batch=32,
                          allocations=[(8, 8), (16, 16)],
                          placements=[((Stage.PREFIX,), (Stage.DECODE,))],
                          collect_per_plan=True)
    rebuilt = roundtrip(search)
    assert rebuilt.budget_xpus == 64
    assert rebuilt.allocations == ((8, 8), (16, 16))
    assert rebuilt.placements == (((Stage.PREFIX,), (Stage.DECODE,)),)
    assert rebuilt == search


def test_search_config_round_trip_any_container_type():
    """Tuple-typed restrictions round-trip to equality too (containers
    are normalized by SearchConfig itself)."""
    search = SearchConfig(placements=(((Stage.PREFIX,), (Stage.DECODE,)),),
                          allocations=((8, 8),))
    assert roundtrip(search) == search
    # List- and tuple-typed restrictions compare equal after
    # normalization.
    assert SearchConfig(allocations=[(8, 8)]) \
        == SearchConfig(allocations=((8, 8),))


def test_objective_round_trip_equality():
    objective = ServiceObjective(max_ttft=0.2, max_tpot=0.01)
    assert roundtrip(objective) == objective


@pytest.mark.parametrize("schema", [
    case_i_hyperscale("1B"),
    case_ii_long_context(100_000, "1B"),
    case_iii_iterative("1B", retrieval_frequency=2),
    case_iv_rewriter_reranker("1B"),
], ids=["case-i", "case-ii", "case-iii", "case-iv"])
def test_search_result_round_trip_equality(schema):
    """SearchResult -> dict -> SearchResult is exact for every paradigm
    (schedules, stage perfs and floats included)."""
    search = SearchConfig(max_batch=32, max_decode_batch=128)
    result = search_schedules(RAGPerfModel(schema, _CLUSTER), search)
    assert roundtrip(result) == result


def test_schedule_round_trip_from_search():
    result = search_schedules(
        RAGPerfModel(case_i_hyperscale("1B"), _CLUSTER),
        SearchConfig(max_batch=32, max_decode_batch=128))
    schedule = result.max_qps_per_chip.schedule
    assert roundtrip(schedule) == schedule


def test_optimization_config_round_trip():
    bundle = config.OptimizationConfig(
        schema=case_iv_rewriter_reranker("70B"),
        cluster=_CLUSTER,
        search=SearchConfig(max_batch=64),
        objective=ServiceObjective(max_ttft=0.5),
    )
    assert roundtrip(bundle) == bundle


def test_optimization_config_schema_only():
    bundle = config.OptimizationConfig(schema=llm_only("8B"))
    rebuilt = roundtrip(bundle)
    assert rebuilt == bundle
    assert rebuilt.cluster is None and rebuilt.search is None


def test_save_load_file(tmp_path):
    path = tmp_path / "workload.json"
    schema = case_i_hyperscale("8B")
    config.save(str(path), schema)
    payload = json.loads(path.read_text())
    assert payload["config_version"] == config.CONFIG_VERSION
    assert payload["kind"] == "rag_schema"
    assert config.load(str(path)) == schema


def test_empty_subpayload_rejected_not_defaulted():
    """A {} cluster/search/objective section is malformed, not 'use
    library defaults'."""
    payload = config.to_config(config.OptimizationConfig(
        schema=llm_only("8B"), cluster=_CLUSTER))
    payload["spec"]["cluster"] = {}
    with pytest.raises(ConfigError, match="cluster"):
        config.from_config(payload)


def test_cluster_unknown_field_rejected():
    payload = config.to_config(_CLUSTER)
    payload["spec"]["pcie_bandwith"] = 1e9  # typo'd knob
    with pytest.raises(ConfigError, match="unknown cluster fields"):
        config.from_config(payload)


def test_search_config_unknown_field_rejected():
    payload = config.to_config(SearchConfig(max_batch=8))
    payload["spec"]["max_bacth"] = 16  # typo'd knob
    with pytest.raises(ConfigError, match="unknown search config fields"):
        config.from_config(payload)


@pytest.mark.parametrize("knobs", [
    {"max_batch": "8"},
    {"max_batch": True},
    {"max_decode_batch": 0},
    {"budget_xpus": 2.5},
    {"budget_xpus": 0},
    {"max_frontier_points": 0},
    {"max_frontier_points": -4},
    {"collect_per_plan": "no"},
    {"collect_per_plan": 1},
    {"allocations": [[1.5, 2]]},
    {"allocations": [[0, 2]]},
    {"allocations": [[True, 2]]},
], ids=["max_batch-str", "max_batch-bool", "max_decode_batch-zero",
        "budget_xpus-float", "budget_xpus-zero", "max_frontier_points-zero",
        "max_frontier_points-negative", "collect_per_plan-str",
        "collect_per_plan-int", "allocations-float", "allocations-zero",
        "allocations-bool"])
def test_search_config_malformed_knob_rejected(knobs):
    """Malformed knobs fail with a one-line ConfigError, not a TypeError
    mid-search or a silently coerced value."""
    with pytest.raises(ConfigError, match="search config") as error:
        config.search_config_from_dict(knobs)
    assert "\n" not in str(error.value)
    with pytest.raises(ConfigError):
        SearchConfig(**knobs)


def test_search_config_accepts_well_formed_knobs():
    search = config.search_config_from_dict(
        {"budget_xpus": 8, "max_batch": 8, "max_frontier_points": 1,
         "collect_per_plan": False, "allocations": [[2, 4]]})
    assert search.allocations == ((2, 4),)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown config kind"):
        config.from_config({"config_version": 1, "kind": "bogus",
                            "spec": {}})


def test_future_version_rejected():
    payload = config.to_config(llm_only("8B"))
    payload["config_version"] = config.CONFIG_VERSION + 1
    with pytest.raises(ConfigError, match="newer"):
        config.from_config(payload)


def test_missing_version_rejected():
    with pytest.raises(ConfigError, match="config_version"):
        config.from_config({"kind": "rag_schema", "spec": {}})


def test_unsupported_object_rejected():
    with pytest.raises(ConfigError, match="cannot serialize"):
        config.to_config(object())


def test_invalid_json_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        config.loads("{not json")


# --- Backcompat: the facade, the session and the raw search agree. ----

def test_rago_facade_frontier_unchanged():
    """Old RAGO(...).optimize() returns frontiers identical to a direct
    search_schedules call (the pre-session code path)."""
    schema = case_i_hyperscale("8B")
    direct = search_schedules(RAGPerfModel(schema, _CLUSTER))
    from repro import RAGO

    via_facade = RAGO(schema, _CLUSTER).optimize()
    assert via_facade.frontier == direct.frontier
    assert via_facade.num_plans == direct.num_plans


def test_session_frontier_matches_facade():
    schema = case_i_hyperscale("8B")
    from repro import RAGO

    facade = RAGO(schema, _CLUSTER).optimize()
    session = OptimizerSession(schema, _CLUSTER).optimize()
    assert session.frontier == facade.frontier


# ---------------------------------------------------------------------------
# Traffic-subsystem envelopes: traces, serving reports, sweep results.
# ---------------------------------------------------------------------------


def test_request_trace_round_trip_equality():
    from repro.workloads import bursty_trace

    trace = bursty_trace(40, 5.0, seed=11, mean_decode_len=256)
    assert roundtrip(trace) == trace


def test_request_trace_without_lengths_round_trips():
    from repro.workloads import trace_from_arrivals

    trace = trace_from_arrivals([0.0, 0.5, 2.25], scenario="custom")
    back = roundtrip(trace)
    assert back == trace
    assert back.decode_lens is None


def test_trace_unknown_field_rejected():
    from repro.config import trace_from_dict

    with pytest.raises(ConfigError):
        trace_from_dict({"arrivals": [0.0], "qps": 5})


def test_serving_report_round_trip_equality():
    from repro.pipeline import PlacementGroup, Schedule
    from repro.sim import ServingSimulator, SLOTarget
    from repro.workloads import poisson_trace

    pm = RAGPerfModel(case_i_hyperscale("8B"), _CLUSTER)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 16),
                PlacementGroup((Stage.DECODE,), 16)),
        batches={Stage.PREFIX: 16, Stage.DECODE: 256, Stage.RETRIEVAL: 32},
    )
    trace = poisson_trace(40, 2.0, seed=29)
    report = ServingSimulator(pm, schedule).run(
        trace, slo=SLOTarget(ttft=0.5, tpot=0.05))
    back = roundtrip(report)
    assert back == report
    # Per-request records intentionally do not travel.
    assert back.records == [] and report.records


def test_serving_report_unknown_field_rejected():
    from repro.config import serving_report_from_dict

    with pytest.raises(ConfigError):
        serving_report_from_dict({"scenario": "poisson", "bogus": 1})


def test_sweep_result_round_trip_equality():
    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    sweep = session.sweep(
        schemas=[case_i_hyperscale("1B"), case_i_hyperscale("8B")],
        search=SearchConfig(max_batch=16, max_decode_batch=64))
    back = roundtrip(sweep)
    assert back == sweep
    assert back.rows == sweep.rows
    assert back.to_table() == sweep.to_table()


def test_sweep_result_with_failed_cell_round_trips(tmp_path):
    session = OptimizerSession(case_i_hyperscale("405B"),
                               ClusterSpec(num_servers=1))
    sweep = session.sweep(search=SearchConfig(max_batch=4,
                                              max_decode_batch=8))
    assert not sweep.cells[0].ok  # 405B cannot fit one server
    path = tmp_path / "sweep.json"
    config.save(str(path), sweep)
    back = config.load(str(path))
    assert back == sweep
    assert back.cells[0].error == sweep.cells[0].error


def test_trace_malformed_decode_lens_rejected():
    from repro.config import trace_from_dict

    with pytest.raises(ConfigError):
        trace_from_dict({"arrivals": [0.0, 1.0],
                         "decode_lens": ["8", "x"]})


# ---------------------------------------------------------------------------
# Version-1 envelope compatibility: parallel-tuple traces and reports
# without the per-tier sections must load bit-identically.
# ---------------------------------------------------------------------------


def test_v1_trace_envelope_loads_bit_identically():
    from repro.workloads import RequestTrace

    envelope = {
        "config_version": 1,
        "kind": "request_trace",
        "spec": {
            "arrivals": [0.0, 0.25, 1.5],
            "decode_lens": [64, 32, 128],
            "metadata": {"scenario": "poisson", "seed": 3},
        },
    }
    trace = config.from_config(envelope)
    assert trace == RequestTrace(arrivals=(0.0, 0.25, 1.5),
                                 decode_lens=(64, 32, 128),
                                 metadata={"scenario": "poisson",
                                           "seed": 3})
    assert trace.arrivals == (0.0, 0.25, 1.5)
    assert trace.decode_lens == (64, 32, 128)
    assert not trace.has_identity
    # Re-serializing upgrades to the request-record shape, and the
    # upgraded envelope reconstructs the same trace.
    upgraded = config.to_config(trace)
    assert upgraded["config_version"] == config.CONFIG_VERSION
    assert "requests" in upgraded["spec"]
    assert config.from_config(upgraded) == trace


def test_v1_report_envelope_without_tier_sections_loads():
    from repro.config import serving_report_from_dict, \
        serving_report_to_dict
    from repro.sim import ServingReport

    spec = {
        "scenario": "poisson", "offered": 10, "completed": 10,
        "duration": 2.0, "throughput": 5.0,
        "slo": {"ttft": 0.5, "tpot": 0.05},
        "slo_attainment": {"ttft": 1.0, "tpot": 1.0, "joint": 1.0},
        "ttft": {"mean": 0.1, "p50": 0.1, "p95": 0.12, "p99": 0.13},
        "tpot": {"mean": 0.01, "p50": 0.01, "p95": 0.012,
                 "p99": 0.013},
        "queueing": {}, "utilization": {},
        "trace_metadata": {"scenario": "poisson"},
    }
    report = serving_report_from_dict(dict(spec))
    assert isinstance(report, ServingReport)
    assert report.tiers == {}
    assert report.fairness == {}
    # The pre-bump report equals one freshly built without identity.
    assert serving_report_from_dict(
        serving_report_to_dict(report)) == report


def test_identity_trace_round_trips_through_envelope():
    from repro.workloads import UserPopulation, resolve_tier_policy

    population = UserPopulation(users=4, think_time=0.2, seed=5,
                                tiers=resolve_tier_policy("free-paid"))
    trace = population.trace(horizon=3.0)
    assert trace.has_identity
    back = roundtrip(trace)
    assert back == trace
    assert [r.tier for r in back.requests] == \
        [r.tier for r in trace.requests]
