"""What-if planning: grid expansion, trace replay, the content-keyed
cell cache, the Pareto frontier, and config round-trips."""

import json
import os

import pytest

from repro import config
from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.rago.whatif import (
    METRIC_NAMES,
    WhatIfCache,
    WhatIfCell,
    WhatIfGrid,
    run_whatif,
)
from repro.schema import case_i_hyperscale
from repro.sim.metrics import SLOTarget
from repro.workloads.traces import poisson_trace

_CLUSTER = ClusterSpec(num_servers=16)


@pytest.fixture(scope="module")
def planning():
    session = OptimizerSession(case_i_hyperscale("8B"), _CLUSTER)
    frontier = session.optimize().frontier
    schedules = tuple(perf.schedule for perf in frontier[:2])
    trace = poisson_trace(2.0, 6.0, seed=3)
    slo = SLOTarget(ttft=5.0, tpot=0.5)
    return session, schedules, trace, slo


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------


def test_grid_expansion_order_and_count(planning):
    _, schedules, _, _ = planning
    grid = WhatIfGrid(schedules=schedules, replicas=(1, 2),
                      routing=(None, "round-robin"),
                      autoscale=(None, "policy=queue-depth,min=1,max=4"))
    # Per (schedule, routing) pair: 2 fixed-fleet cells + 1 managed.
    assert grid.num_cells == 2 * 2 * 3
    cells = grid.cells()
    assert len(cells) == grid.num_cells
    # Fixed cells carry a replica count; managed cells leave it to the
    # controller.
    head = [(replicas, autoscale)
            for _, replicas, _, autoscale in cells[:3]]
    assert head == [(1, None), (2, None),
                    (None, "policy=queue-depth,min=1,max=4")]
    # Schedule is the slowest axis; routing the middle one.
    assert [schedule for schedule, _, _, _ in cells] \
        == [schedules[0]] * 6 + [schedules[1]] * 6


def test_grid_validation(planning):
    _, schedules, _, _ = planning
    with pytest.raises(ConfigError, match="at least one schedule"):
        WhatIfGrid(schedules=())
    with pytest.raises(ConfigError, match="Schedule instances"):
        WhatIfGrid(schedules=("not-a-schedule",))
    with pytest.raises(ConfigError, match="non-empty"):
        WhatIfGrid(schedules=schedules, replicas=())
    with pytest.raises(ConfigError, match="positive ints"):
        WhatIfGrid(schedules=schedules, replicas=(0,))
    with pytest.raises(ConfigError, match="positive ints"):
        WhatIfGrid(schedules=schedules, replicas=(1.5,))


def test_cell_accessors(planning):
    _, schedules, _, _ = planning
    broken = WhatIfCell(schedule=schedules[0], replicas=1,
                        routing=None, autoscale=None,
                        error="ConfigError: nope")
    assert not broken.ok
    with pytest.raises(ConfigError, match="nope"):
        broken.metric("qps")


# ---------------------------------------------------------------------------
# replay: metrics, frontier, tables
# ---------------------------------------------------------------------------


def test_run_whatif_metrics_and_frontier(planning):
    session, schedules, trace, slo = planning
    grid = WhatIfGrid(schedules=schedules, replicas=(1, 2))
    result = run_whatif(session.schema, session.cluster, trace, grid,
                        slo)
    assert len(result.cells) == grid.num_cells
    assert (result.slo_ttft, result.slo_tpot) == (slo.ttft, slo.tpot)
    assert len(result.trace_digest) == 64
    for cell in result.ok_cells:
        assert set(cell.metrics) == set(METRIC_NAMES)
        assert cell.metrics["replica_seconds"] > 0
        assert cell.metrics["chip_seconds"] \
            > cell.metrics["replica_seconds"]
        assert 0.0 <= cell.metrics["attainment"] <= 1.0
    frontier = result.frontier()
    assert frontier
    assert set(map(id, frontier)) <= set(map(id, result.ok_cells))
    costs = [cell.metrics["chip_seconds"] for cell in frontier]
    assert costs == sorted(costs)
    # More replicas burn more chip-seconds on the same trace.
    by_replicas = {cell.replicas: cell for cell in result.cells
                   if cell.schedule == schedules[0]}
    assert by_replicas[2].metrics["chip_seconds"] \
        > by_replicas[1].metrics["chip_seconds"]
    rows = result.rows
    assert [row["pareto"] for row in rows].count(True) == len(frontier)
    table = result.to_table()
    assert "what-if policy grid" in table
    assert "chip-seconds" in table


def test_autoscaled_cell_replays(planning):
    session, schedules, trace, slo = planning
    spec = "policy=queue-depth,min=1,max=3"
    grid = WhatIfGrid(schedules=schedules[:1], autoscale=(spec,))
    result = run_whatif(session.schema, session.cluster, trace, grid,
                        slo)
    (cell,) = result.cells
    assert cell.ok, cell.error
    assert cell.replicas is None and cell.autoscale == spec
    assert cell.metrics["replica_seconds"] > 0


@pytest.mark.parametrize("replicas, routing, autoscale", [
    (2, "least-in-flight", None),
    (None, "least-in-flight", "policy=queue-depth,min=1,max=3,up=8,down=2"),
])
def test_whatif_cell_matches_a_directly_built_fleet(planning, replicas,
                                                    routing, autoscale):
    """A whatif cell and ``build_fleet`` + ``replay_open_loop`` on the
    same schedule, trace and SLO are one setup path: same metrics, bit
    for bit (the cell's envelopes round-trip exactly)."""
    from repro.sim.autoscale import (
        build_fleet,
        parse_autoscale_spec,
        replay_open_loop,
    )
    from repro.workloads.traces import diurnal_trace

    session, schedules, _, slo = planning
    schedule = schedules[0]
    perf = session.evaluate(schedule)
    trace = diurnal_trace(1.5 * perf.qps, duration=3.0, seed=4,
                          mean_decode_len=64)
    grid = WhatIfGrid(schedules=(schedule,),
                      replicas=(replicas or 1,), routing=(routing,),
                      autoscale=(autoscale,))
    (cell,) = run_whatif(session.schema, session.cluster, trace, grid,
                         slo).cells
    assert cell.ok, cell.error
    fleet, autoscaler = build_fleet(
        session.perf_model, schedule, replicas=replicas or 1,
        routing=routing,
        autoscale=autoscale and parse_autoscale_spec(autoscale), slo=slo)
    replay_open_loop(fleet, autoscaler, trace)
    if autoscaler is not None:
        assert autoscaler.events  # the controller did act
    report = fleet.report(trace, slo=slo)
    direct = {
        "qps": report.throughput,
        "attainment": report.slo_attainment["joint"],
        "attainment_ttft": report.slo_attainment["ttft"],
        "attainment_tpot": report.slo_attainment["tpot"],
        "p95_ttft": report.ttft["p95"],
        "p95_tpot": report.tpot["p95"],
        "replica_seconds": fleet.replica_seconds,
    }
    assert {name: cell.metrics[name] for name in direct} == direct


def test_whatif_cells_free_their_fleets(planning):
    """A finished cell's fleet is cyclic garbage; the cell collects it
    before returning, so a grid never holds more than one cell's
    serving graph (with automatic GC off, nothing else would)."""
    import gc

    from repro.sim.autoscale import Autoscaler
    from repro.sim.engine import ServingEngine
    from repro.sim.fleet import FleetEngine

    def serving_objects():
        return {id(obj): type(obj).__name__ for obj in gc.get_objects()
                if isinstance(obj, (FleetEngine, ServingEngine,
                                    Autoscaler))}

    session, schedules, trace, slo = planning
    grid = WhatIfGrid(schedules=schedules[:1], replicas=(1, 3),
                      autoscale=(None, "policy=queue-depth,min=1,max=3",
                                 "policy=bogus,min=1,max=2"))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = serving_objects()
        result = run_whatif(session.schema, session.cluster, trace, grid,
                            slo, backend="serial")
        left = sorted(name for key, name in serving_objects().items()
                      if key not in before)
    finally:
        if enabled:
            gc.enable()
    assert len(result.ok_cells) == 3 and len(result.errors) == 1
    assert left == []


def test_whatif_cells_leave_no_fleet_alive_and_nothing_frozen(
        planning, monkeypatch):
    """Each cell freezes the heap it starts with and unfreezes it after
    its collection: once a serial grid with an error cell returns, no
    cell's FleetEngine is alive and nothing is left frozen."""
    import gc
    import weakref

    from repro.sim.fleet import FleetEngine

    fleets = []
    construct = FleetEngine.__init__

    def tracked(self, *args, **kwargs):
        fleets.append(weakref.ref(self))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(FleetEngine, "__init__", tracked)
    session, schedules, trace, slo = planning
    grid = WhatIfGrid(schedules=schedules[:1], replicas=(1, 2),
                      routing=(None, "bogus"),
                      autoscale=(None, "policy=queue-depth,min=1,max=3"))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run_whatif(session.schema, session.cluster, trace, grid,
                            slo, backend="serial")
        alive = [ref for ref in fleets if ref() is not None]
        frozen = gc.get_freeze_count()
    finally:
        if enabled:
            gc.enable()
    assert len(result.ok_cells) == 3 and len(result.errors) == 3
    assert len(fleets) == grid.num_cells
    assert alive == []
    assert frozen == 0


# ---------------------------------------------------------------------------
# the content-keyed cell cache
# ---------------------------------------------------------------------------


def test_cache_hits_all_cells_on_rerun(planning, tmp_path):
    session, schedules, trace, slo = planning
    grid = WhatIfGrid(schedules=schedules[:1], replicas=(1, 2))
    cache = WhatIfCache(str(tmp_path / "cells"))
    first = run_whatif(session.schema, session.cluster, trace, grid,
                       slo, cache=cache)
    assert first.cache_hits == 0
    assert len(cache) == grid.num_cells
    again = run_whatif(session.schema, session.cluster, trace, grid,
                       slo, cache=cache)
    assert again.cache_hits == grid.num_cells
    # Cached and fresh runs are the same result (cached flag excluded
    # from equality by design).
    assert again == first
    assert all(cell.cached for cell in again.cells)


def test_cache_recomputes_only_edited_cells(planning, tmp_path):
    session, schedules, trace, slo = planning
    cache_dir = str(tmp_path / "cells")
    small = WhatIfGrid(schedules=schedules[:1], replicas=(1, 2))
    run_whatif(session.schema, session.cluster, trace, small, slo,
               cache=cache_dir)
    grown = WhatIfGrid(schedules=schedules[:1], replicas=(1, 2, 3))
    result = run_whatif(session.schema, session.cluster, trace, grown,
                        slo, cache=cache_dir)
    # Adding one replica count recomputes one cell, not three.
    assert result.cache_hits == small.num_cells
    assert [cell.cached for cell in result.cells] \
        == [True, True, False]


def test_cache_keys_fold_in_the_slo(planning, tmp_path):
    session, schedules, trace, _ = planning
    grid = WhatIfGrid(schedules=schedules[:1], replicas=(1,))
    cache = WhatIfCache(str(tmp_path / "cells"))
    run_whatif(session.schema, session.cluster, trace, grid,
               SLOTarget(ttft=5.0), cache=cache)
    tighter = run_whatif(session.schema, session.cluster, trace, grid,
                         SLOTarget(ttft=0.5), cache=cache)
    # A different SLO is a different study: no stale attainment.
    assert tighter.cache_hits == 0
    assert len(cache) == 2


def test_cache_caches_error_outcomes(planning, tmp_path):
    session, schedules, trace, slo = planning
    grid = WhatIfGrid(schedules=schedules[:1],
                      autoscale=("policy=bogus,min=1,max=2",))
    cache = WhatIfCache(str(tmp_path / "cells"))
    first = run_whatif(session.schema, session.cluster, trace, grid,
                       slo, cache=cache)
    assert len(first.errors) == 1
    again = run_whatif(session.schema, session.cluster, trace, grid,
                       slo, cache=cache)
    assert again.cache_hits == 1
    assert again.errors[0].error == first.errors[0].error


def test_corrupt_cache_entry_is_a_miss_not_an_error(planning, tmp_path):
    session, schedules, trace, slo = planning
    grid = WhatIfGrid(schedules=schedules[:1], replicas=(1, 2))
    cache = WhatIfCache(str(tmp_path / "cells"))
    first = run_whatif(session.schema, session.cluster, trace, grid,
                       slo, cache=cache)
    entries = sorted(os.listdir(cache.root))
    with open(os.path.join(cache.root, entries[0]), "w",
              encoding="utf-8") as handle:
        handle.write("{not json")
    with open(os.path.join(cache.root, entries[1]), "w",
              encoding="utf-8") as handle:
        json.dump({"unexpected": "shape"}, handle)
    healed = run_whatif(session.schema, session.cluster, trace, grid,
                        slo, cache=cache)
    assert healed == first
    assert healed.cache_hits == 0
    # Unreadable bytes, hostile JSON and outcomes of the wrong shape
    # are misses too (each once raised or was served as a hit).
    for content in (b'{"result": {"qps": 1.0}, "error": "\xff"}',
                    b"[" * 100_000 + b"]" * 100_000,
                    b'{"result": "x", "error": null}',
                    b'{"result": ' + b"1" * 5000 + b', "error": null}',
                    b'{"result": null, "error": null}',
                    b'{"result": {"qps": 1.0}, "error": null}'):
        for entry in entries:
            with open(os.path.join(cache.root, entry), "wb") as handle:
                handle.write(content)
        healed = run_whatif(session.schema, session.cluster, trace, grid,
                            slo, cache=cache)
        assert healed == first
        assert healed.cache_hits == 0
        assert healed.frontier() == first.frontier()
    # The recomputed outcomes were re-cached over the corrupt files.
    assert run_whatif(session.schema, session.cluster, trace, grid,
                      slo, cache=cache).cache_hits == 2


def test_cache_get_put_unit_contract(tmp_path):
    cache = WhatIfCache(str(tmp_path / "cells"))
    assert cache.get("missing") is None
    metrics = {name: float(index) for index, name in enumerate(METRIC_NAMES)}
    cache.put("key", {"result": metrics, "error": None})
    assert cache.get("key") == {"result": metrics, "error": None}
    assert len(cache) == 1


# ---------------------------------------------------------------------------
# config round-trip
# ---------------------------------------------------------------------------


def test_whatif_result_round_trips_through_config(planning):
    session, schedules, trace, slo = planning
    grid = WhatIfGrid(schedules=schedules[:1], replicas=(1,),
                      autoscale=(None, "policy=bogus,min=1,max=2"))
    result = run_whatif(session.schema, session.cluster, trace, grid,
                        slo)
    # Error cells render their error in place of metrics.
    table = result.to_table()
    assert "bogus" in table and "infeasible" in table
    payload = config.to_config(result)
    assert payload["kind"] == "whatif_result"
    restored = config.from_config(json.loads(json.dumps(payload)))
    assert restored == result


def test_whatif_result_malformed_dict_rejected():
    with pytest.raises(ConfigError, match="malformed whatif result"):
        config.from_config({"config_version": 1,
                            "kind": "whatif_result", "spec": {}})
