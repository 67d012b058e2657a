"""The task runners every sweep backend executes.

Two kinds of grid cell exist today:

* ``search`` -- one (schema, cluster) cell of
  :meth:`~repro.rago.session.OptimizerSession.sweep`: rebuild the perf
  model and run the schedule search, returning the frontier as a
  config envelope.
* ``whatif`` -- one (schedule, replicas, routing, autoscale) cell of
  ``repro whatif``: replay the shared recorded trace through a fleet
  built to the cell's policy knobs and return the scalar metrics the
  Pareto table needs. A whatif cell frees its fleet before it returns:
  the serving graph is full of reference cycles (clock handlers bound
  to engines, a fleet and autoscaler that listen to each other), so
  without a collection at the cell boundary every finished fleet would
  stay resident until the grid ends.

Both factories deserialize the task context (search knobs, trace,
memory override) **once per worker**; the per-cell runner only parses
the few hundred bytes that actually vary between cells. Infeasible
cells (:class:`~repro.errors.ReproError`) become error outcomes --
never exceptions -- so one impossible corner cannot abort a grid.

Everything here lazy-imports :mod:`repro.config` and the session:
importing :mod:`repro.distrib` registers these runners, and must not
load the search or serving stack to do it.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.distrib.protocol import (
    Runner,
    error_outcome,
    ok_outcome,
    register_task_runner,
)

__all__ = ["memory_to_payload", "memory_from_payload"]


def memory_to_payload(memory) -> Optional[Dict[str, float]]:
    """A MemoryModel override as a tiny JSON payload (None passes
    through)."""
    if memory is None:
        return None
    return {"usable_fraction": memory.usable_fraction,
            "kv_bytes_per_element": memory.kv_bytes_per_element}


def memory_from_payload(payload: Optional[Dict[str, float]]):
    """Rebuild :func:`memory_to_payload`'s output (None passes
    through)."""
    if payload is None:
        return None
    from repro.inference.memory import MemoryModel

    return MemoryModel(usable_fraction=payload["usable_fraction"],
                       kv_bytes_per_element=payload["kv_bytes_per_element"])


@register_task_runner("search")
def search_runner(context: Dict[str, Any]) -> Runner:
    """Schedule-search cells: context carries the grid-wide search
    config and memory override; each payload is one (schema, cluster)
    pair of config envelopes."""
    from repro import config
    from repro.pipeline.stage_perf import RAGPerfModel
    from repro.rago.search import search_schedules

    search = config.from_config(context["search"])
    memory = memory_from_payload(context.get("memory"))

    def run(payload: Dict[str, Any]):
        try:
            schema = config.from_config(payload["schema"])
            cluster = config.from_config(payload["cluster"])
            perf_model = RAGPerfModel(schema, cluster, memory)
            result = search_schedules(perf_model, search)
        except ReproError as error:
            return error_outcome(error)
        return ok_outcome(config.to_config(result))

    return run


@register_task_runner("whatif")
def whatif_runner(context: Dict[str, Any]) -> Runner:
    """Trace-replay cells: context fixes the workload, cluster,
    recorded trace and SLO once; each payload is one policy cell
    (schedule envelope, replica count, routing name, autoscale spec).

    Metrics per cell (all floats, so outcomes serialize exactly):
    ``qps``, ``attainment`` / ``attainment_ttft`` / ``attainment_tpot``
    (joint and per-dimension SLO fractions), ``p95_ttft`` / ``p95_tpot``
    (seconds), ``replica_seconds`` (integrated active replicas over sim
    time) and ``chip_seconds`` (replica-seconds times the schedule's
    charged chips -- the provisioning cost axis of the Pareto table).
    """
    from repro import config
    from repro.pipeline.assembly import assemble
    from repro.pipeline.stage_perf import RAGPerfModel
    from repro.sim.autoscale import (
        build_fleet,
        parse_autoscale_spec,
        replay_open_loop,
    )
    from repro.sim.metrics import SLOTarget

    schema = config.from_config(context["schema"])
    cluster = config.from_config(context["cluster"])
    trace = config.from_config(context["trace"])
    slo_spec = context.get("slo") or {}
    slo = SLOTarget(ttft=slo_spec.get("ttft"), tpot=slo_spec.get("tpot"))
    memory = memory_from_payload(context.get("memory"))
    perf_model = RAGPerfModel(schema, cluster, memory)

    def replay_cell(payload: Dict[str, Any]):
        try:
            schedule = config.from_config(payload["schedule"])
            perf = assemble(perf_model, schedule)
            autoscale = payload.get("autoscale")
            fleet, autoscaler = build_fleet(
                perf_model, schedule, replicas=payload.get("replicas") or 1,
                routing=payload.get("routing"),
                autoscale=None if autoscale is None
                else parse_autoscale_spec(autoscale), slo=slo)
            replay_open_loop(fleet, autoscaler, trace)
            report = fleet.report(trace, slo=slo)
        except ReproError as error:
            return error_outcome(error)
        return ok_outcome({
            "qps": float(report.throughput),
            "attainment": float(report.slo_attainment["joint"]),
            "attainment_ttft": float(report.slo_attainment["ttft"]),
            "attainment_tpot": float(report.slo_attainment["tpot"]),
            "p95_ttft": float(report.ttft["p95"]),
            "p95_tpot": float(report.tpot["p95"]),
            "replica_seconds": float(fleet.replica_seconds),
            "chip_seconds": float(fleet.replica_seconds
                                  * perf.charged_chips),
        })

    def run(payload: Dict[str, Any]):
        try:
            return replay_cell(payload)
        finally:
            # The finished fleet is cyclic garbage (clock handlers are
            # bound methods of the engines owning the clock; fleet and
            # autoscaler listen to each other) that a full collection
            # rarely reaches on its own. Collect it once replay_cell's
            # locals are gone, so a grid peaks at one cell's memory.
            # Breaking the cycles instead would rewire the DES event
            # and listener paths themselves.
            gc.collect()

    return run
