"""What-if capacity planning: replay one trace against a policy grid.

``repro whatif`` answers the question a provisioning review actually
asks: *for the traffic we recorded yesterday, which combination of
schedule, replica count, routing policy and autoscale controller buys
the highest SLO attainment per chip-second?* A :class:`WhatIfGrid`
names the axes; :func:`run_whatif` replays the shared trace through a
fleet per cell (:func:`whatif_runner`) on a :mod:`repro.distrib`
backend; the resulting :class:`WhatIfResult` exposes the Pareto
frontier over (chip-seconds, SLO attainment).

Grids are edited and re-run far more often than they are designed, so
cells are cached content-keyed on disk (:class:`WhatIfCache`): adding
one schedule to a 60-cell grid recomputes one cell, not 61. Error
outcomes are cached too -- an infeasible corner stays infeasible until
the workload or cluster changes, and both are part of the key.

Everything here lazy-imports :mod:`repro.config` (the config package
imports the session module; a module-level import would be circular).
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro._digest import sha256
from repro.distrib import error_outcome, ok_outcome, run_cells
from repro.errors import ConfigError, ReproError, read_json
from repro.pipeline.assembly import Schedule, assemble
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.pareto import pareto_front
from repro.rago.session import memory_from_payload, memory_to_payload
from repro.sim.metrics import SLOTarget

__all__ = [
    "WhatIfGrid",
    "WhatIfCell",
    "WhatIfResult",
    "WhatIfCache",
    "run_whatif",
]

#: Metric columns every resolved cell carries, in report order.
METRIC_NAMES = ("qps", "attainment", "attainment_ttft",
                "attainment_tpot", "p95_ttft", "p95_tpot",
                "replica_seconds", "chip_seconds")


@dataclass(frozen=True)
class WhatIfGrid:
    """The policy axes of one what-if study.

    Cells are the cross product of ``schedules`` x ``routing`` x
    ``autoscale``, where a ``None`` autoscale entry (fixed fleet)
    additionally expands the ``replicas`` axis and an autoscale *spec*
    string (see :func:`~repro.sim.autoscale.parse_autoscale_spec`)
    yields one controller-managed cell whose replica count is the
    controller's business.

    Attributes:
        schedules: Candidate schedules (required, non-empty).
        replicas: Fixed-fleet sizes to try (positive ints).
        routing: Routing policy names (None = engine default).
        autoscale: Autoscale spec strings, None meaning a fixed fleet.
    """

    schedules: Tuple[Schedule, ...]
    replicas: Tuple[int, ...] = (1,)
    routing: Tuple[Optional[str], ...] = (None,)
    autoscale: Tuple[Optional[str], ...] = (None,)

    def __post_init__(self) -> None:
        for name in ("schedules", "replicas", "routing", "autoscale"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.schedules:
            raise ConfigError("whatif grid needs at least one schedule")
        for schedule in self.schedules:
            if not isinstance(schedule, Schedule):
                raise ConfigError(
                    f"whatif schedules must be Schedule instances, "
                    f"got {type(schedule).__name__}")
        if not self.replicas or not self.routing or not self.autoscale:
            raise ConfigError("whatif grid axes must be non-empty")
        for count in self.replicas:
            if not isinstance(count, int) or count < 1:
                raise ConfigError(
                    f"whatif replicas must be positive ints, got {count!r}")

    @property
    def num_cells(self) -> int:
        """How many cells the grid expands to."""
        fixed = sum(1 for spec in self.autoscale if spec is None)
        managed = len(self.autoscale) - fixed
        per_pair = fixed * len(self.replicas) + managed
        return len(self.schedules) * len(self.routing) * per_pair

    def cells(self) -> List[Tuple[Schedule, Optional[int],
                                  Optional[str], Optional[str]]]:
        """Expanded (schedule, replicas, routing, autoscale) cells in
        deterministic grid order."""
        out: List[Tuple[Schedule, Optional[int],
                        Optional[str], Optional[str]]] = []
        for schedule in self.schedules:
            for routing in self.routing:
                for spec in self.autoscale:
                    if spec is None:
                        for count in self.replicas:
                            out.append((schedule, count, routing, None))
                    else:
                        out.append((schedule, None, routing, spec))
        return out


@dataclass(frozen=True)
class WhatIfCell:
    """One resolved grid cell: policy knobs plus replay metrics.

    Exactly one of ``metrics`` / ``error`` is set; ``cached`` records
    whether this cell was served from the on-disk cache (excluded from
    equality so cached and fresh runs compare equal).
    """

    schedule: Schedule
    replicas: Optional[int]
    routing: Optional[str]
    autoscale: Optional[str]
    metrics: Optional[Dict[str, float]] = None
    error: Optional[str] = None
    cached: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the replay produced metrics."""
        return self.metrics is not None

    def metric(self, name: str) -> float:
        """One metric by name; raises for error cells."""
        if self.metrics is None:
            raise ConfigError(
                f"cell has no metrics (error: {self.error})")
        return self.metrics[name]


@dataclass(frozen=True)
class WhatIfResult:
    """Outcome of a what-if study over one trace.

    Attributes:
        cells: Every grid cell, grid order.
        slo_ttft / slo_tpot: The SLO the attainment metrics measure.
        trace_digest: Content hash of the replayed trace, for
            provenance (ties a saved result back to its trace file).
        workers: Backend utilization records (not compared: the same
            study run serially or on a fleet is the same result).
    """

    cells: Tuple[WhatIfCell, ...]
    slo_ttft: Optional[float] = None
    slo_tpot: Optional[float] = None
    trace_digest: str = ""
    workers: Tuple[Dict[str, Any], ...] = field(
        default=(), compare=False, repr=False)

    @property
    def ok_cells(self) -> List[WhatIfCell]:
        """Cells that replayed successfully."""
        return [cell for cell in self.cells if cell.ok]

    @property
    def errors(self) -> List[WhatIfCell]:
        """Cells whose replay failed (infeasible corners)."""
        return [cell for cell in self.cells if not cell.ok]

    @property
    def cache_hits(self) -> int:
        """How many cells were served from the on-disk cache."""
        return sum(1 for cell in self.cells if cell.cached)

    def frontier(self) -> List[WhatIfCell]:
        """Pareto-optimal cells: minimize chip-seconds, maximize SLO
        attainment; ascending cost order."""
        return pareto_front(
            self.ok_cells,
            cost=lambda cell: cell.metrics["chip_seconds"],
            value=lambda cell: cell.metrics["attainment"])

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """One flat record per cell (tidy-table form); ``pareto``
        marks frontier membership."""
        frontier_ids = {id(cell) for cell in self.frontier()}
        rows = []
        for cell in self.cells:
            row: Dict[str, Any] = {
                "schedule": cell.schedule.describe(),
                "replicas": cell.replicas,
                "routing": cell.routing,
                "autoscale": cell.autoscale,
                "error": cell.error,
                "cached": cell.cached,
                "pareto": id(cell) in frontier_ids,
            }
            for name in METRIC_NAMES:
                row[name] = (None if cell.metrics is None
                             else cell.metrics.get(name))
            rows.append(row)
        return rows

    def to_table(self) -> str:
        """The rendered Pareto table (see
        :func:`repro.reporting.format_whatif_table`)."""
        from repro.reporting import format_whatif_table

        return format_whatif_table(self)


class WhatIfCache:
    """Content-keyed on-disk cache of whatif cell outcomes.

    One JSON file per cell under ``root``, named by the cell's content
    key (workload + cluster + trace + SLO + policy knobs), holding the
    raw outcome dict. Corrupt or unreadable entries are misses, never
    errors -- a cache must only ever make a run faster.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached outcome for ``key``, or None on a miss.

        A hit holds exactly one of a metrics dict (each of the
        :data:`METRIC_NAMES` to a float, no more, no fewer) and an
        error string; any other entry, unreadable bytes, hostile JSON
        and partial metrics included, is a miss.
        """
        try:
            data = read_json(self._path(key))
        except (OSError, ConfigError):
            return None
        if not isinstance(data, dict):
            return None
        result, error = data.get("result"), data.get("error")
        if error is None and _is_metrics(result) \
                or result is None and isinstance(error, str):
            return {"result": result, "error": error}
        return None

    def put(self, key: str, outcome: Dict[str, Any]) -> None:
        """Store one outcome (atomic rename, so a crash mid-write
        leaves a miss, not a corrupt hit)."""
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"result": outcome.get("result"),
                       "error": outcome.get("error")}, handle)
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))


def _is_metrics(result: Any) -> bool:
    """Whether ``result`` is a cell's metrics: a dict mapping exactly
    the :data:`METRIC_NAMES` to floats."""
    return isinstance(result, dict) and result.keys() == set(METRIC_NAMES) \
        and all(type(value) is float for value in result.values())


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def whatif_runner(context: Dict[str, Any]
                  ) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """The :func:`run_whatif` cell factory: the context fixes the
    workload, cluster, recorded trace, SLO and memory override, parsed
    once per worker; each payload is one policy cell (schedule
    envelope, replica count, routing name, autoscale spec). An
    infeasible cell becomes an error outcome, never an exception.

    Metrics per cell (all floats, so outcomes serialize exactly):
    ``qps``, ``attainment`` / ``attainment_ttft`` / ``attainment_tpot``
    (joint and per-dimension SLO fractions), ``p95_ttft`` / ``p95_tpot``
    (seconds), ``replica_seconds`` (integrated active replicas over sim
    time) and ``chip_seconds`` (replica-seconds times the schedule's
    charged chips -- the provisioning cost axis of the Pareto table).

    A cell frees its fleet before it returns: the serving graph is full
    of reference cycles (clock handlers bound to engines, a fleet and
    autoscaler that listen to each other), so without a collection at
    the cell boundary every finished fleet would stay resident until
    the grid ends. The objects alive when the cell starts are frozen
    (:func:`gc.freeze`) until that collection is done, so it walks only
    the cell's own objects; the cell leaves nothing frozen.
    """
    from repro import config
    from repro.sim.autoscale import (
        build_fleet,
        parse_autoscale_spec,
        replay_open_loop,
    )

    schema = config.from_config(context["schema"])
    cluster = config.from_config(context["cluster"])
    trace = config.from_config(context["trace"])
    slo_spec = context.get("slo") or {}
    slo = SLOTarget(ttft=slo_spec.get("ttft"), tpot=slo_spec.get("tpot"))
    memory = memory_from_payload(context.get("memory"))
    perf_model = RAGPerfModel(schema, cluster, memory)

    def replay_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
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

    def run(payload: Dict[str, Any]) -> Dict[str, Any]:
        # Everything alive before the cell (the parsed context, the
        # perf model, the interpreter's own heap) is frozen out of the
        # collector's view, so the collection below walks only what the
        # cell allocated.
        gc.freeze()
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
            gc.unfreeze()

    return run


def run_whatif(schema, cluster, trace, grid: WhatIfGrid,
               slo: Optional[SLOTarget] = None, *,
               memory=None, backend: Optional[str] = None, workers: int = 1,
               cache: Any = None) -> WhatIfResult:
    """Replay ``trace`` through every cell of ``grid``.

    Args:
        schema / cluster: The workload and hardware the fleets serve.
        trace: The recorded :class:`~repro.workloads.traces.RequestTrace`
            every cell replays.
        grid: The policy axes to sweep.
        slo: Attainment targets (default: unconstrained).
        memory: Optional MemoryModel override for the perf model.
        backend / workers: Executor selection, exactly as in
            :meth:`OptimizerSession.sweep
            <repro.rago.session.OptimizerSession.sweep>`.
        cache: A :class:`WhatIfCache`, a directory path (a cache is
            opened there), or None to recompute everything.

    Returns:
        A :class:`WhatIfResult` with one cell per grid cell, grid
        order; cache hits are marked ``cached``.

    Raises:
        ConfigError / DistribError: from
            :func:`~repro.distrib.run_cells`.
    """
    from repro import config as config_module

    if slo is None:
        slo = SLOTarget()
    if isinstance(cache, (str, os.PathLike)):
        cache = WhatIfCache(cache)
    specs = grid.cells()
    schema_env = config_module.to_config(schema)
    cluster_env = config_module.to_config(cluster)
    trace_env = config_module.to_config(trace)
    memory_payload = memory_to_payload(memory)
    trace_digest = _digest(_canonical(trace_env))
    context = {
        "schema": schema_env,
        "cluster": cluster_env,
        "trace": trace_env,
        "slo": {"ttft": slo.ttft, "tpot": slo.tpot},
        "memory": memory_payload,
    }
    # The cache key folds in everything a cell's metrics depend on:
    # the shared context (with the trace as a digest, not 100k+
    # arrivals re-serialized per cell) plus the cell's own knobs.
    context_key = _canonical({
        "schema": schema_env, "cluster": cluster_env,
        "trace": trace_digest,
        "slo": {"ttft": slo.ttft, "tpot": slo.tpot},
        "memory": memory_payload,
    })
    payloads: List[Dict[str, Any]] = []
    keys: List[str] = []
    for schedule, replicas, routing, autoscale in specs:
        payload = {"schedule": config_module.to_config(schedule),
                   "replicas": replicas, "routing": routing,
                   "autoscale": autoscale}
        payloads.append(payload)
        keys.append(_digest(context_key + "\x1e" + _canonical(payload)))
    outcomes: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    hits = [False] * len(specs)
    missing: List[int] = []
    for index in range(len(payloads)):
        hit = cache.get(keys[index]) if cache is not None else None
        if hit is not None:
            outcomes[index] = hit
            hits[index] = True
        else:
            missing.append(index)
    computed, worker_stats = run_cells(
        whatif_runner, context, [payloads[index] for index in missing],
        backend=backend, workers=workers)
    for index, outcome in zip(missing, computed):
        outcomes[index] = outcome
        if cache is not None:
            cache.put(keys[index], outcome)
    cells = tuple(
        WhatIfCell(schedule=schedule, replicas=replicas,
                   routing=routing, autoscale=autoscale,
                   metrics=outcome["result"], error=outcome["error"],
                   cached=cached)
        for (schedule, replicas, routing, autoscale), outcome, cached
        in zip(specs, outcomes, hits))
    return WhatIfResult(cells=cells, slo_ttft=slo.ttft,
                        slo_tpot=slo.tpot, trace_digest=trace_digest,
                        workers=worker_stats)
