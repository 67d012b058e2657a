"""Session-based optimizer front-end.

:class:`OptimizerSession` is the optimizer's one entry point (Fig. 2 of
the paper: a RAGSchema and resources in, a performance Pareto front and
a system configuration out), packaged as a stateful workflow object:

* **chainable intent** -- ``.with_constraint(max_ttft=0.2)`` and
  ``.with_objective("min_ttft")`` accumulate what "best" means before
  any search runs;
* **memoization** -- searches and schedule evaluations are cached,
  keyed by the serialized (schema, cluster, search-config / schedule)
  triple, so interactive exploration never repeats a sweep;
* **scale** -- :meth:`OptimizerSession.sweep` fans a grid of
  (schema, cluster) cells out over a pluggable executor backend
  (:mod:`repro.distrib`: in-process, multiprocessing pool, or a
  work-stealing socket fleet) and returns a tidy result table.

Example::

    from repro import ClusterSpec, OptimizerSession
    from repro.schema import pipeline
    from repro.schema.paradigms import HYPERSCALE_DATABASE

    schema = (pipeline("my-rag")
              .retrieve(HYPERSCALE_DATABASE, neighbors=5)
              .generate("8B")
              .build())
    best = (OptimizerSession(schema, ClusterSpec(num_servers=16))
            .with_constraint(max_ttft=0.2)
            .best())
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from repro.errors import ConfigError, ScheduleError, lookup
from repro.hardware.cluster import ClusterSpec
from repro.inference.memory import MemoryModel
from repro.pipeline.assembly import PipelinePerf, Schedule, assemble
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.objectives import (
    ServiceObjective,
    admissible,
    knee_point,
    select_max_throughput,
    select_min_ttft,
)
from repro.rago.provisioning import ProvisioningResult, provision
from repro.rago.search import SearchConfig, SearchResult, search_schedules
from repro.schema.builder import PipelineBuilder
from repro.schema.ragschema import RAGSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The serving stack, the sweep executors and the trace types are
    # imported by the methods that use them: searching a schedule
    # never loads the DES, asyncio or numpy.
    from repro.sim.autoscale import Autoscaler, AutoscaleConfig
    from repro.sim.metrics import ServingReport, SLOTarget
    from repro.sim.policies import AdmissionPolicy, DispatchPolicy
    from repro.sim.routing import RoutingPolicy
    from repro.workloads.traces import RequestTrace

#: A selector turns (result, objective) into the chosen frontier point.
Selector = Callable[[SearchResult, ServiceObjective], PipelinePerf]


def _constrained_knee(result: SearchResult,
                      objective: ServiceObjective) -> PipelinePerf:
    """Knee of the admissible sub-frontier (constraints still apply)."""
    candidates = admissible(result, objective)
    if not candidates:
        raise ScheduleError(
            f"no schedule satisfies {objective} on this frontier"
        )
    return knee_point(SearchResult(frontier=candidates))


_SELECTORS: Dict[str, Selector] = {
    "max_qps_per_chip": select_max_throughput,
    "min_ttft": select_min_ttft,
    "knee": _constrained_knee,
}


def _config_key(*objects: Any) -> str:
    """Stable memo key: the concatenated config JSON of the inputs."""
    from repro import config

    return "\x1e".join(config.dumps(obj, indent=None) for obj in objects)


def _copy_result(result: SearchResult) -> SearchResult:
    """Defensive copy of a memoized result.

    SearchResult's containers are mutable; handing the cached object
    out directly would let a caller's in-place edit (say, filtering the
    frontier for display) silently corrupt every later memoized answer.
    Frontier points are frozen but carry a mutable ``stage_perfs`` dict,
    so each point is copied with its own dict; ``per_plan`` entries are
    fully immutable (tuples all the way down).
    """
    frontier = [replace(perf, stage_perfs=dict(perf.stage_perfs))
                for perf in result.frontier]
    return SearchResult(frontier=frontier,
                        num_plans=result.num_plans,
                        num_candidates=result.num_candidates,
                        per_plan=list(result.per_plan))


class OptimizerSession:
    """A stateful, memoizing optimizer for one workload on one cluster.

    Args:
        schema: The workload -- a built :class:`RAGSchema` or a
            :class:`~repro.schema.builder.PipelineBuilder` still in
            progress (it is built here).
        cluster: Hardware budget (library default when None).
        memory: Optional memory-accounting override.
        search: Default search knobs for this session.
    """

    def __init__(self, schema: Union[RAGSchema, PipelineBuilder],
                 cluster: Optional[ClusterSpec] = None,
                 memory: Optional[MemoryModel] = None,
                 search: Optional[SearchConfig] = None) -> None:
        if isinstance(schema, PipelineBuilder):
            schema = schema.build()
        if not isinstance(schema, RAGSchema):
            raise ConfigError(
                f"schema must be a RAGSchema or PipelineBuilder, got "
                f"{type(schema).__name__}"
            )
        self._cluster = cluster or ClusterSpec()
        self._memory = memory
        self._perf_model = RAGPerfModel(schema, self._cluster, memory)
        self._search = search or SearchConfig()
        self._objective = ServiceObjective()
        self._selector: Selector = select_max_throughput
        self._results: Dict[str, SearchResult] = {}
        self._evaluations: Dict[str, PipelinePerf] = {}
        self._trace_reports: Dict[str, ServingReport] = {}
        # Schema and cluster are fixed for the session's lifetime, so
        # their share of the memo key is serialized once.
        self._base_key = _config_key(schema, self._cluster)

    # -- introspection -------------------------------------------------

    @property
    def schema(self) -> RAGSchema:
        """The workload being optimized."""
        return self._perf_model.schema

    @property
    def cluster(self) -> ClusterSpec:
        """The hardware budget."""
        return self._cluster

    @property
    def perf_model(self) -> RAGPerfModel:
        """Stage-level cost model (shared caches)."""
        return self._perf_model

    @property
    def objective(self) -> ServiceObjective:
        """Accumulated serving constraints."""
        return self._objective

    @property
    def search_config(self) -> SearchConfig:
        """Session-default search knobs."""
        return self._search

    # -- chainable intent ----------------------------------------------
    #
    # Every with_* method returns a DERIVED session (the original is
    # untouched, true to the name); the perf model and memo caches are
    # shared between derivations, so chaining never re-searches.

    def _derive(self, **attrs: Any) -> "OptimizerSession":
        derived = copy.copy(self)  # shallow: shares perf model + memos
        for name, value in attrs.items():
            setattr(derived, name, value)
        return derived

    def with_constraint(self, max_ttft: Optional[float] = None,
                        max_tpot: Optional[float] = None,
                        min_qps_per_chip: Optional[float] = None,
                        ) -> "OptimizerSession":
        """Derived session with added serving constraints (None leaves
        a bound unchanged; constraints accumulate along a chain)."""
        return self._derive(_objective=ServiceObjective(
            max_ttft=max_ttft if max_ttft is not None
            else self._objective.max_ttft,
            max_tpot=max_tpot if max_tpot is not None
            else self._objective.max_tpot,
            min_qps_per_chip=min_qps_per_chip if min_qps_per_chip is not None
            else self._objective.min_qps_per_chip,
        ))

    def with_objective(self,
                       selector: Union[str, Selector]) -> "OptimizerSession":
        """Derived session with a different :meth:`best` selector.

        Args:
            selector: ``"max_qps_per_chip"`` (default), ``"min_ttft"``,
                ``"knee"``, or a callable ``(result, objective) ->
                PipelinePerf``.
        """
        if callable(selector):
            return self._derive(_selector=selector)
        return self._derive(
            _selector=lookup(_SELECTORS, selector, "objective"))

    def with_search(self, config: Optional[SearchConfig] = None,
                    **overrides: Any) -> "OptimizerSession":
        """Derived session with replaced or tweaked search knobs.

        ``with_search(max_batch=64)`` tweaks the current config;
        ``with_search(SearchConfig(...))`` replaces it outright.
        """
        base = config if config is not None else self._search
        try:
            new = replace(base, **overrides) if overrides else base
        except TypeError as error:
            raise ConfigError(f"unknown search fields: {error}") from error
        return self._derive(_search=new)

    # -- execution -----------------------------------------------------

    def optimize(self, search: Optional[SearchConfig] = None) -> SearchResult:
        """Run (or recall) the schedule search.

        Results are memoized per (schema, cluster, search config); a
        repeated call with the same knobs returns the cached frontier
        without re-searching.
        """
        config = search or self._search
        key = self._base_key + "\x1e" + _config_key(config)
        if key not in self._results:
            self._results[key] = search_schedules(self._perf_model, config)
        return _copy_result(self._results[key])

    def frontier(self,
                 search: Optional[SearchConfig] = None) -> List[PipelinePerf]:
        """The Pareto frontier (memoized search)."""
        return self.optimize(search).frontier

    def best(self, search: Optional[SearchConfig] = None) -> PipelinePerf:
        """The frontier point matching the accumulated constraints and
        objective.

        Raises:
            ScheduleError: when no frontier point satisfies the
                constraints.
        """
        return self._selector(self.optimize(search), self._objective)

    def evaluate(self, schedule: Schedule) -> PipelinePerf:
        """Evaluate one explicit schedule (memoized; no search)."""
        key = self._base_key + "\x1e" + _config_key(schedule)
        if key not in self._evaluations:
            self._evaluations[key] = assemble(self._perf_model, schedule)
        cached = self._evaluations[key]
        # PipelinePerf is frozen but carries a mutable stage_perfs dict.
        return replace(cached, stage_perfs=dict(cached.stage_perfs))

    def evaluate_trace(self, schedule: Schedule, trace: RequestTrace,
                       slo: Optional[SLOTarget] = None,
                       dispatch: Union[None, str, DispatchPolicy] = None,
                       admission: Union[None, str, AdmissionPolicy] = None,
                       ) -> ServingReport:
        """Replay a request trace through one schedule (memoized DES).

        The discrete-event counterpart of :meth:`evaluate`: where the
        analytical evaluation answers "what does this schedule promise
        in steady state", a trace replay answers "what does it deliver
        under this traffic". Results are memoized per (schema, cluster,
        schedule, trace, SLO, policies), so sweeping schedules over a
        fixed trace (or traces over a fixed schedule) never
        re-simulates a cell.

        Args:
            schedule: The deployment to exercise.
            trace: The traffic to replay (see
                :mod:`repro.workloads.traces`).
            slo: Latency targets for attainment accounting; None
                derives targets from this session's accumulated
                constraints (unconstrained dimensions stay unscored).
            dispatch: Optional dispatch policy (instance or registry
                name) for the pre-decode stations; it carries any
                partial-batch deadline (``max_wait``).
            admission: Optional decode admission policy (instance or
                registry name).

        Returns:
            The replay's :class:`~repro.sim.ServingReport`. Its
            aggregate dicts are fresh copies on every call; its
            ``records`` tuple and the sealed records in it are shared
            with the memo and with every other call that hits it.
        """
        from repro.sim.metrics import SLOTarget
        from repro.sim.policies import (
            resolve_admission_policy,
            resolve_dispatch_policy,
        )
        from repro.sim.serving import ServingSimulator

        if slo is None:
            slo = SLOTarget(ttft=self._objective.max_ttft,
                            tpot=self._objective.max_tpot)
        policy = resolve_dispatch_policy(dispatch)
        admit = resolve_admission_policy(admission)
        key = self._trace_key(schedule, trace, slo, policy, admit)
        if key not in self._trace_reports:
            simulator = ServingSimulator(self._perf_model, schedule,
                                         dispatch=policy,
                                         admission=admit)
            self._trace_reports[key] = simulator.run(trace, slo=slo)
        cached = self._trace_reports[key]
        # Reports are frozen but carry mutable aggregate dicts: hand out
        # copies so callers cannot corrupt the memo. The records need no
        # copy -- the tuple cannot grow or shrink, and the engine sealed
        # every finished record (read-only fields and stage maps) -- so
        # a hit shares them and costs the same for 100 requests or 100k.
        return replace(
            cached,
            slo_attainment=dict(cached.slo_attainment),
            ttft=dict(cached.ttft),
            tpot=dict(cached.tpot),
            queueing={stage: dict(stats)
                      for stage, stats in cached.queueing.items()},
            utilization=dict(cached.utilization),
            trace_metadata=dict(cached.trace_metadata),
            records=cached.records,
        )

    def _trace_key(self, schedule: Schedule, trace: RequestTrace,
                   slo: SLOTarget, policy: DispatchPolicy,
                   admit: AdmissionPolicy) -> str:
        """Memo key of one :meth:`evaluate_trace` cell.

        The trace enters as its cached requests digest (a recorded
        trace can hold 100k+ requests, which must not be serialized on
        every call) plus its metadata, serialized afresh each call
        because the metadata dict is mutable. Two traces share a key
        exactly when their config envelopes are equal.
        """
        return "\x1e".join((self._base_key, _config_key(schedule),
                            trace.requests_digest,
                            json.dumps(trace.metadata),
                            f"slo={slo.ttft}:{slo.tpot}",
                            f"dispatch={policy!r}",
                            f"admission={admit!r}"))

    def provision(self, target_qps: float,
                  objective: Optional[ServiceObjective] = None,
                  search: Optional[SearchConfig] = None,
                  ) -> ProvisioningResult:
        """Size a fleet for a target load (memoized frontier reuse).

        The inverse scheduling problem on this session's workload and
        cluster: how few chips -- replicated Pareto-optimal schedules
        -- sustain ``target_qps`` within the SLOs? The underlying
        frontier comes from :meth:`optimize`, so provisioning shares
        the session's search memo.

        Args:
            target_qps: Requests per second the fleet must sustain.
            objective: Latency SLOs each schedule must meet; None uses
                this session's accumulated constraints.
            search: Search knobs (session default when None).

        Returns:
            The cheapest admissible
            :class:`~repro.rago.provisioning.ProvisioningResult`;
            feed its schedule and replica count to
            :func:`~repro.sim.autoscale.build_fleet` to test it under
            replayed or live traffic.
        """
        return provision(self._perf_model, target_qps,
                         objective=objective or self._objective,
                         result=self.optimize(search))

    def autoscaled_fleet(self, trough_qps: float, peak_qps: float,
                         autoscale: Optional[AutoscaleConfig] = None,
                         routing: Union[None, str, RoutingPolicy] = None,
                         slo: Optional[SLOTarget] = None,
                         dispatch: Union[None, str, DispatchPolicy] = None,
                         admission: Union[None, str,
                                          AdmissionPolicy] = None,
                         ) -> Autoscaler:
        """An elastic fleet sized by the provisioning model.

        The replica bounds come from :meth:`provision` -- the peak
        load fixes the schedule and the ``max_replicas`` ceiling, the
        trough fixes ``min_replicas`` (the floor a diurnal night
        shift can shrink to) -- and the fleet is built at the floor,
        ready for :meth:`~repro.sim.autoscale.Autoscaler.run_trace`
        or a live :class:`~repro.serve.LiveServer` session.

        Args:
            trough_qps: The lightest sustained load the fleet must
                absorb (sizes ``min_replicas``).
            peak_qps: The heaviest (sizes ``max_replicas`` and picks
                the per-replica schedule).
            autoscale: Controller settings; the provisioned bounds
                **override** its ``min_replicas`` / ``max_replicas``
                (that is this method's contract); policy, interval,
                cooldown and thresholds pass through. None uses the
                config defaults.
            routing: Fleet request-routing policy (round robin when
                None).
            slo: Targets behind the controller's windowed attainment
                statistic; None derives them from this session's
                accumulated constraints.
            dispatch / admission: Per-replica engine policies, as in
                :meth:`evaluate_trace`.

        Raises:
            ConfigError: on a non-positive, non-finite or inverted
                load band.
        """
        from repro.sim.autoscale import AutoscaleConfig, build_fleet
        from repro.sim.metrics import SLOTarget

        if not (0 < trough_qps < math.inf and 0 < peak_qps < math.inf):
            raise ConfigError(
                f"trough_qps and peak_qps must be finite and positive, "
                f"got {trough_qps} and {peak_qps}")
        if trough_qps > peak_qps:
            raise ConfigError(
                f"trough_qps={trough_qps} must not exceed "
                f"peak_qps={peak_qps}")
        peak = self.provision(peak_qps)
        schedule = peak.perf.schedule
        min_replicas = min(math.ceil(trough_qps / peak.perf.qps),
                           peak.replicas)
        config = replace(autoscale or AutoscaleConfig(),
                         min_replicas=min_replicas,
                         max_replicas=peak.replicas)
        if slo is None:
            slo = SLOTarget(ttft=self._objective.max_ttft,
                            tpot=self._objective.max_tpot)
        _, autoscaler = build_fleet(
            self._perf_model, schedule, routing=routing,
            dispatch=dispatch, admission=admission, autoscale=config,
            slo=slo)
        return autoscaler

    def cache_info(self) -> Dict[str, int]:
        """Memo sizes (searches, schedule evaluations and trace replays
        held)."""
        return {"results": len(self._results),
                "evaluations": len(self._evaluations),
                "trace_reports": len(self._trace_reports)}

    # -- sweeps --------------------------------------------------------

    def sweep(self, schemas: Optional[Sequence[RAGSchema]] = None,
              clusters: Optional[Sequence[ClusterSpec]] = None,
              search: Optional[SearchConfig] = None,
              workers: int = 1,
              backend: Optional[Any] = None) -> "SweepResult":
        """Search every (schema, cluster) cell of a grid.

        Args:
            schemas: Workload axis; defaults to this session's schema.
            clusters: Hardware axis; defaults to this session's cluster.
            search: Search knobs for every cell (session default when
                None).
            workers: Worker count for the executor backend. With the
                default backend selection, 1 runs in-process and >1
                fans cells out over a local process pool.
                Either way every successful cell lands in this
                session's memo, so repeated sweeps (and optimize()
                calls overlapping the grid) reuse results.
            backend: Executor override -- a
                :data:`~repro.distrib.SWEEP_BACKENDS` name
                (``serial`` / ``process``) or a
                :class:`~repro.distrib.SweepBackend` instance. Both
                backends produce bit-identical tables; None keeps the
                workers-based default.

        Returns:
            A :class:`SweepResult` table; infeasible cells carry an
            error string instead of aborting the sweep.

        Raises:
            DistribError: when a ``process`` worker dies mid-sweep.
        """
        from repro import config as config_module
        from repro.distrib import (
            SweepJob,
            TaskSpec,
            memory_to_payload,
            resolve_sweep_backend,
        )

        if workers < 1:
            raise ConfigError("workers must be at least 1")
        schema_axis: List[RAGSchema] = list(schemas) if schemas is not None \
            else [self.schema]
        cluster_axis: List[ClusterSpec] = list(clusters) \
            if clusters is not None else [self._cluster]
        if not schema_axis or not cluster_axis:
            raise ConfigError("sweep axes must be non-empty")
        for schema in schema_axis:
            if isinstance(schema, PipelineBuilder):
                raise ConfigError("build() pipelines before sweeping them")
        config = search or self._search
        cells = [(schema, cluster) for schema in schema_axis
                 for cluster in cluster_axis]
        # Cell memo keys use the same layout as optimize()'s, so sweep
        # cells and direct optimize() calls share one cache; duplicate
        # grid cells are searched once.
        keys = [_config_key(schema, cluster) + "\x1e" + _config_key(config)
                for schema, cluster in cells]
        by_key: Dict[str, Tuple[Optional[SearchResult], Optional[str]]] = {
            key: (self._results[key], None) for key in keys
            if key in self._results}
        pending: List[Tuple[int, str]] = []
        for index, key in enumerate(keys):
            if key not in by_key:
                by_key[key] = (None, "pending")
                pending.append((index, key))
        utilization: Tuple[Dict[str, Any], ...] = ()
        if pending:
            task = TaskSpec(kind="search", context={
                "search": config_module.to_config(config),
                "memory": memory_to_payload(self._memory),
            })
            jobs = [SweepJob(index=index, payload={
                "schema": config_module.to_config(cells[index][0]),
                "cluster": config_module.to_config(cells[index][1]),
            }) for index, _ in pending]
            run = resolve_sweep_backend(backend, workers=workers) \
                .run(task, jobs)
            utilization = tuple(run.workers)
            for (_, key), outcome in zip(pending, run.outcomes):
                result = None if outcome["result"] is None \
                    else config_module.from_config(outcome["result"])
                by_key[key] = (result, outcome["error"])
        for key, (result, _) in by_key.items():
            if result is not None:
                self._results.setdefault(key, result)
        outcomes = [by_key[key] for key in keys]
        return SweepResult(cells=tuple(
            SweepCell(schema=schema, cluster=cluster,
                      result=None if result is None else _copy_result(result),
                      error=error)
            for (schema, cluster), (result, error) in zip(cells, outcomes)
        ), workers=utilization)


# ---------------------------------------------------------------------------
# Sweep results. Execution lives in repro.distrib: cells travel as
# config JSON, so jobs serialize cheaply over any backend transport.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One (schema, cluster) cell of a sweep grid.

    Attributes:
        schema: The cell's workload.
        cluster: The cell's hardware budget.
        result: The search outcome, or None when the cell failed.
        error: Failure description, or None on success.
    """

    schema: RAGSchema
    cluster: ClusterSpec
    result: Optional[SearchResult]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the cell searched successfully."""
        return self.result is not None


@dataclass(frozen=True)
class SweepResult:
    """Tidy outcome of :meth:`OptimizerSession.sweep`.

    Attributes:
        cells: One :class:`SweepCell` per grid cell, grid order.
        workers: Executor utilization records (worker name, cells
            resolved, duplicates, requeues) from the backend that ran
            the non-memoized cells. Excluded from equality -- two
            sweeps of the same grid are the same result no matter
            which backend (or how many workers) computed them.
    """

    cells: Tuple[SweepCell, ...]
    workers: Tuple[Dict[str, Any], ...] = field(
        default=(), compare=False, repr=False)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """One flat record per cell (tidy-table form)."""
        rows = []
        for cell in self.cells:
            row: Dict[str, Any] = {
                "schema": cell.schema.name,
                "llm": cell.schema.generative_llm.name,
                "cluster_servers": cell.cluster.num_servers,
                "total_xpus": cell.cluster.total_xpus,
                "xpu": cell.cluster.xpu.name,
                "ok": cell.ok,
                "error": cell.error,
                "frontier_points": None,
                "best_qps_per_chip": None,
                "min_ttft": None,
            }
            if cell.result is not None and cell.result.frontier:
                row["frontier_points"] = len(cell.result.frontier)
                row["best_qps_per_chip"] = \
                    cell.result.max_qps_per_chip.qps_per_chip
                row["min_ttft"] = cell.result.min_ttft.ttft
            rows.append(row)
        return rows

    def to_table(self) -> str:
        """Render the rows as an aligned ASCII table."""
        columns = ("schema", "llm", "xpu", "cluster_servers",
                   "frontier_points", "best_qps_per_chip", "min_ttft",
                   "error")

        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        rows = [[fmt(row[column]) for column in columns]
                for row in self.rows]
        widths = [max(len(column), *(len(row[i]) for row in rows))
                  if rows else len(column)
                  for i, column in enumerate(columns)]
        lines = ["  ".join(column.ljust(width)
                           for column, width in zip(columns, widths))]
        lines.append("  ".join("-" * width for width in widths))
        for row in rows:
            lines.append("  ".join(value.ljust(width)
                                   for value, width in zip(row, widths)))
        return "\n".join(lines)


