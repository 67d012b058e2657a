"""OptimizerSession: chaining, memoization, sweeps, acceptance."""

import pytest

from repro.errors import ConfigError, ScheduleError
from repro.hardware.cluster import ClusterSpec
from repro.pipeline import PlacementGroup, Schedule
from repro.rago.objectives import select_min_ttft
from repro.rago.search import SearchConfig
from repro.rago.session import OptimizerSession
from repro.schema import (
    Stage,
    case_i_hyperscale,
    case_iv_rewriter_reranker,
    pipeline,
)
from repro.schema.paradigms import HYPERSCALE_DATABASE

_CLUSTER = ClusterSpec(num_servers=16)


@pytest.fixture(scope="module")
def session():
    return OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)


def test_optimize_is_memoized(session):
    first = session.optimize()
    misses = session.perf_model.cache_stats["misses"]
    second = session.optimize()
    # No re-search: equal result, zero new stage evaluations, one entry.
    assert second == first
    assert session.perf_model.cache_stats["misses"] == misses
    assert session.cache_info()["results"] == 1


def test_memoized_results_are_mutation_safe(session):
    """A caller editing a returned result in place must not corrupt the
    memo (results are handed out as defensive copies)."""
    first = session.optimize()
    first.frontier[0].stage_perfs.clear()  # nested mutable state
    first.frontier.clear()
    fresh = session.optimize()
    assert fresh.frontier  # memo unharmed
    assert all(perf.stage_perfs for perf in fresh.frontier)
    schedule = fresh.max_qps_per_chip.schedule
    perf = session.evaluate(schedule)
    perf.stage_perfs.clear()
    assert session.evaluate(schedule).stage_perfs


def test_distinct_search_configs_memoized_separately(session):
    default = session.optimize()
    narrow = session.optimize(SearchConfig(max_batch=16,
                                           max_decode_batch=64))
    assert narrow is not default
    assert session.cache_info()["results"] == 2
    # Narrowing the batching space cannot improve the frontier.
    assert narrow.max_qps_per_chip.qps_per_chip \
        <= default.max_qps_per_chip.qps_per_chip + 1e-9


def test_builder_accepted_directly():
    builder = (pipeline("from-builder")
               .retrieve(HYPERSCALE_DATABASE)
               .generate("1B"))
    session = OptimizerSession(builder, _CLUSTER)
    assert session.schema.name == "from-builder"


def test_invalid_schema_type_rejected():
    with pytest.raises(ConfigError, match="RAGSchema or PipelineBuilder"):
        OptimizerSession("not-a-schema", _CLUSTER)


def test_constraint_chaining_filters_frontier():
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    unconstrained = session.best()
    ceiling = unconstrained.ttft * 0.5
    bounded = session.with_constraint(max_ttft=ceiling)
    assert bounded.best().ttft <= ceiling
    # Constraints accumulate along the chain...
    chained = bounded.with_constraint(max_tpot=1.0)
    assert chained.objective.max_ttft == ceiling
    assert chained.objective.max_tpot == 1.0
    # ...while the originals are untouched (with_* derives, not mutates)
    # and derived sessions share the search memo (one cached entry).
    assert session.objective.max_ttft is None
    assert bounded.objective.max_tpot is None
    assert chained.optimize() == session.optimize()
    assert session.cache_info() == chained.cache_info()
    assert session.cache_info()["results"] == 1


def test_impossible_constraint_raises():
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    with pytest.raises(ScheduleError):
        session.with_constraint(max_ttft=1e-9).best()


def test_objective_selection():
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    result = session.optimize()
    assert session.with_objective("min_ttft").best() == result.min_ttft
    assert session.with_objective("max_qps_per_chip").best() \
        == result.max_qps_per_chip
    knee = session.with_objective("knee").best()
    assert knee in result.frontier
    custom = session.with_objective(select_min_ttft).best()
    assert custom == result.min_ttft
    with pytest.raises(ConfigError, match="unknown objective"):
        session.with_objective("fastest")


def test_knee_objective_respects_constraints():
    session = OptimizerSession(case_i_hyperscale("8B"),
                               _CLUSTER).with_objective("knee")
    unconstrained = session.best()
    # Constrain away part of the frontier: the knee must be recomputed
    # over the admissible subset only.
    ceiling = unconstrained.ttft * 0.9
    constrained = session.with_constraint(max_ttft=ceiling).best()
    assert constrained.ttft <= ceiling
    # An impossible constraint raises rather than silently ignoring it.
    with pytest.raises(ScheduleError):
        session.with_constraint(max_ttft=1e-9).best()


def test_with_search_overrides():
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    tweaked = session.with_search(max_batch=32)
    assert tweaked.search_config.max_batch == 32
    assert session.search_config.max_batch == 128  # original untouched
    replaced = tweaked.with_search(SearchConfig(max_batch=64))
    assert replaced.search_config.max_batch == 64
    with pytest.raises(ConfigError, match="unknown search fields"):
        session.with_search(bogus=1)


def test_evaluate_is_memoized():
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    schedule = session.optimize().max_qps_per_chip.schedule
    first = session.evaluate(schedule)
    second = session.evaluate(schedule)
    assert first == second
    assert session.cache_info()["evaluations"] == 1


def test_evaluate_explicit_schedule(session):
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 8),
                PlacementGroup((Stage.DECODE,), 8)),
        batches={Stage.PREFIX: 8, Stage.DECODE: 64, Stage.RETRIEVAL: 16},
    )
    perf = session.evaluate(schedule)
    assert perf.qps > 0
    assert perf.ttft > 0


def test_default_cluster_created():
    session = OptimizerSession(case_i_hyperscale("8B"))
    assert session.cluster.total_xpus == 128


def test_schema_accessible(session):
    assert session.schema.name.startswith("case-i")


# --- Acceptance: builder pipeline == case-iv preset, end to end. ------

def test_builder_case_iv_identical_frontier_through_session():
    """A PipelineBuilder program matching case_iv_rewriter_reranker("70B")
    yields an identical Pareto frontier through OptimizerSession."""
    preset = case_iv_rewriter_reranker("70B")
    built = (pipeline(preset.name)
             .rewrite("8B")
             .retrieve(HYPERSCALE_DATABASE)
             .rerank("120M")
             .generate("70B")
             .build())
    assert built == preset
    search = SearchConfig(max_batch=32, max_decode_batch=128)
    frontier_built = OptimizerSession(built, _CLUSTER).frontier(search)
    frontier_preset = OptimizerSession(preset,
                                       _CLUSTER).optimize(search).frontier
    assert frontier_built == frontier_preset


# --- Sweeps. ----------------------------------------------------------

def test_sweep_grid_rows():
    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    sweep = session.sweep(
        schemas=[case_i_hyperscale("1B"), case_i_hyperscale("8B")],
        clusters=[_CLUSTER, ClusterSpec(num_servers=32)],
    )
    assert len(sweep) == 4
    rows = sweep.rows
    assert [row["llm"] for row in rows] == [
        "llama3-1b", "llama3-1b", "llama3-8b", "llama3-8b"]
    assert all(row["ok"] for row in rows)
    assert all(row["best_qps_per_chip"] > 0 for row in rows)
    table = sweep.to_table()
    assert "llama3-8b" in table and "best_qps_per_chip" in table


def test_sweep_infeasible_cell_is_recorded_not_fatal():
    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    # 405B weights cannot fit a 1-server (4 XPU) budget; the database
    # floor also exceeds it.
    tiny = ClusterSpec(num_servers=1)
    sweep = session.sweep(schemas=[case_i_hyperscale("405B")],
                          clusters=[tiny])
    assert len(sweep) == 1
    cell = sweep.cells[0]
    assert not cell.ok
    assert cell.error
    assert sweep.rows[0]["best_qps_per_chip"] is None


def test_sweep_parallel_matches_serial():
    schemas = [case_i_hyperscale("1B"), case_i_hyperscale("8B")]
    search = SearchConfig(max_batch=32, max_decode_batch=128)
    serial = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER) \
        .sweep(schemas=schemas, search=search)
    # Fresh session: a cold memo forces the pooled path to actually run
    # the workers (job encoding, result deserialization and all).
    cold_session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    parallel = cold_session.sweep(schemas=schemas, search=search,
                                  workers=2)
    for cell_s, cell_p in zip(serial.cells, parallel.cells):
        assert cell_p.result.frontier == cell_s.result.frontier
    # The pooled results also land in the memo for reuse.
    assert cold_session.cache_info()["results"] == 2


def test_sweep_cells_land_in_session_memo():
    """Every successful sweep cell is memoized; a repeat sweep (and an
    overlapping optimize) reuses the cached results."""
    schema_a, schema_b = case_i_hyperscale("1B"), case_i_hyperscale("8B")
    search = SearchConfig(max_batch=32, max_decode_batch=128)
    session = OptimizerSession(schema_a, _CLUSTER, search=search)
    first = session.sweep(schemas=[schema_a, schema_b])
    assert session.cache_info()["results"] == 2
    again = session.sweep(schemas=[schema_a, schema_b])
    assert session.cache_info()["results"] == 2  # straight from the memo
    for cell_1, cell_2 in zip(first.cells, again.cells):
        assert cell_2.result == cell_1.result
    # The session's own optimize() shares the same entries.
    assert session.optimize() == first.cells[0].result
    assert session.cache_info()["results"] == 2


def test_sweep_carries_memory_override_to_every_cell():
    """A session's MemoryModel override applies to all sweep cells (and
    to pooled workers), not just the session's own (schema, cluster)."""
    from repro.inference.memory import MemoryModel

    strict = MemoryModel(usable_fraction=0.5)
    schema = case_i_hyperscale("8B")
    session = OptimizerSession(schema, _CLUSTER, memory=strict)
    other_cluster = ClusterSpec(num_servers=32)
    search = SearchConfig(max_batch=32, max_decode_batch=128)
    sweep = session.sweep(clusters=[_CLUSTER, other_cluster], search=search)
    expected = OptimizerSession(schema, other_cluster,
                                memory=strict).frontier(search)
    assert sweep.cells[1].result.frontier == expected
    # Fresh session so the pooled path runs cold (workers must receive
    # the pickled MemoryModel, not a memoized serial result).
    pooled = OptimizerSession(schema, _CLUSTER, memory=strict) \
        .sweep(clusters=[_CLUSTER, other_cluster], search=search,
               workers=2)
    assert pooled.cells[1].result.frontier == expected


def test_sweep_duplicate_cells_searched_once():
    schema = case_i_hyperscale("1B")
    search = SearchConfig(max_batch=32, max_decode_batch=128)
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER,
                               search=search)
    sweep = session.sweep(schemas=[schema, schema])
    assert len(sweep) == 2
    assert sweep.cells[1].result == sweep.cells[0].result
    assert session.cache_info()["results"] == 1  # one search for both
    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    with pytest.raises(ConfigError, match="workers"):
        session.sweep(workers=0)
    with pytest.raises(ConfigError, match="non-empty"):
        session.sweep(schemas=[])
    with pytest.raises(ConfigError, match="build"):
        session.sweep(schemas=[pipeline().generate("1B")])


# ---------------------------------------------------------------------------
# Trace replays through the session.
# ---------------------------------------------------------------------------


def _small_search():
    return SearchConfig(max_batch=16, max_decode_batch=64)


def test_evaluate_trace_returns_report_and_memoizes():
    from repro.workloads import poisson_trace

    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    chosen = session.optimize(_small_search()).max_qps_per_chip
    trace = poisson_trace(0.3 * chosen.qps, 2.0, seed=31)
    first = session.evaluate_trace(chosen.schedule, trace)
    assert session.cache_info()["trace_reports"] == 1
    again = session.evaluate_trace(chosen.schedule, trace)
    assert session.cache_info()["trace_reports"] == 1  # memo hit
    assert again == first
    assert first.completed == trace.num_requests


def test_evaluate_trace_memo_is_mutation_safe():
    from repro.workloads import poisson_trace

    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    chosen = session.optimize(_small_search()).max_qps_per_chip
    trace = poisson_trace(0.3 * chosen.qps, 2.0, seed=31)
    report = session.evaluate_trace(chosen.schedule, trace)
    report.ttft.clear()
    report.slo_attainment["joint"] = -1.0
    fresh = session.evaluate_trace(chosen.schedule, trace)
    assert fresh.ttft and fresh.slo_attainment["joint"] >= 0.0


def test_evaluate_trace_slo_defaults_to_session_constraints():
    from repro.workloads import poisson_trace

    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER) \
        .with_constraint(max_ttft=0.5)
    chosen = session.best(_small_search())
    trace = poisson_trace(0.3 * chosen.qps, 2.0, seed=37)
    report = session.evaluate_trace(chosen.schedule, trace)
    assert report.slo.ttft == 0.5
    assert report.slo.tpot is None


def test_evaluate_trace_distinguishes_slo_and_dispatch():
    from repro.sim import SLOTarget
    from repro.workloads import poisson_trace

    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    chosen = session.optimize(_small_search()).max_qps_per_chip
    trace = poisson_trace(0.3 * chosen.qps, 2.0, seed=41)
    session.evaluate_trace(chosen.schedule, trace)
    session.evaluate_trace(chosen.schedule, trace,
                           slo=SLOTarget(ttft=0.25))
    session.evaluate_trace(chosen.schedule, trace, dispatch="full-batch")
    assert session.cache_info()["trace_reports"] == 3


def _replay_setup(seed):
    from repro.workloads import poisson_trace

    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    chosen = session.optimize(_small_search()).max_qps_per_chip
    return session, chosen.schedule, poisson_trace(0.3 * chosen.qps, 2.0,
                                                   seed=seed)


def test_evaluate_trace_records_are_sealed_and_shared():
    """A memo hit shares the cached records; sealing, not copying, keeps
    callers from corrupting them."""
    from dataclasses import FrozenInstanceError

    session, schedule, trace = _replay_setup(43)
    first = session.evaluate_trace(schedule, trace)
    again = session.evaluate_trace(schedule, trace)
    assert again.records is first.records
    assert all(a is b for a, b in zip(again.records, first.records))
    record = first.records[0]
    completion = record.completion_time
    waits = dict(record.queue_waits)
    assert completion is not None and waits
    with pytest.raises(FrozenInstanceError):
        record.completion_time = None
    with pytest.raises(TypeError):
        record.queue_waits[next(iter(waits))] = -1.0
    with pytest.raises(TypeError):
        record.queue_waits.clear()
    with pytest.raises(AttributeError):
        first.records.append(record)
    with pytest.raises(AttributeError):
        first.records.clear()
    fresh = session.evaluate_trace(schedule, trace)
    assert fresh.records[0].completion_time == completion
    assert fresh.records[0].queue_waits == waits
    assert len(fresh.records) == trace.num_requests


def test_evaluate_trace_misses_after_metadata_mutation():
    """The metadata dict is mutable, so it is re-read on every call: an
    edit after a call must reach the key (the requests digest alone is
    cached)."""
    session, schedule, trace = _replay_setup(47)
    session.evaluate_trace(schedule, trace)
    trace.metadata["note"] = "edited"
    report = session.evaluate_trace(schedule, trace)
    assert session.cache_info()["trace_reports"] == 2
    assert report.trace_metadata["note"] == "edited"


def test_evaluate_trace_jsonl_round_trip_hits_memo(tmp_path):
    from repro.workloads import RequestTrace

    session, schedule, trace = _replay_setup(53)
    path = str(tmp_path / "trace.jsonl")
    # from_jsonl records the file as the source unless one is set.
    trace = trace.with_metadata(source=path)
    first = session.evaluate_trace(schedule, trace)
    trace.to_jsonl(path)
    loaded = RequestTrace.from_jsonl(path)
    assert loaded is not trace and loaded == trace
    again = session.evaluate_trace(schedule, loaded)
    assert session.cache_info()["trace_reports"] == 1
    assert again.records is first.records


# ---------------------------------------------------------------------------
# Fleet sizing: provision() sizes a fleet on the memoized frontier.
# ---------------------------------------------------------------------------


def test_provision_reuses_memoized_frontier():
    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    session.optimize(_small_search())
    misses = session.perf_model.cache_stats["misses"]
    result = session.provision(100.0, search=_small_search())
    # Sizing rode the memoized frontier: no new stage evaluations.
    assert session.perf_model.cache_stats["misses"] == misses
    assert result.replicas >= 1
    assert result.total_qps >= 100.0


def test_provision_uses_session_constraints():
    loose = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    min_ttft = loose.optimize(_small_search()).min_ttft.ttft
    tight = loose.with_constraint(max_ttft=min_ttft * 1.01)
    loose_result = loose.provision(200.0, search=_small_search())
    tight_result = tight.provision(200.0, search=_small_search())
    # The constrained session admits fewer schedules, so its fleet can
    # only cost the same or more chips.
    assert tight_result.budget_xpus >= loose_result.budget_xpus


@pytest.mark.parametrize("trough_qps, peak_qps", [
    (float("nan"), 2000.0), (float("inf"), 2000.0),
    (300.0, float("nan")), (300.0, float("inf"))])
def test_autoscaled_fleet_rejects_non_finite_loads(trough_qps, peak_qps):
    """A NaN or infinite load is a one-line ConfigError, raised before
    any provisioning search (a NaN trough used to reach math.ceil)."""
    session = OptimizerSession(case_i_hyperscale("1B"), _CLUSTER)
    with pytest.raises(ConfigError, match="trough_qps and peak_qps must "
                                          "be finite and positive"):
        session.autoscaled_fleet(trough_qps, peak_qps)
    assert session.cache_info()["results"] == 0
