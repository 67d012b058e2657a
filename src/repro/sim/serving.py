"""Open-loop driver over the incremental serving engine.

:class:`ServingSimulator` is the batch front door to the request-level
DES: it streams every request of a
:class:`~repro.workloads.traces.RequestTrace` into a fresh
:class:`~repro.sim.engine.ServingEngine`
(:func:`~repro.sim.engine.submit_trace`), drains it to the last
completion, and returns the trace's
:class:`~repro.sim.metrics.ServingReport` (the artifact behind
``repro replay`` via ``OptimizerSession.evaluate_trace``). Loose arrival
lists become a trace through
:func:`~repro.workloads.traces.trace_from_arrivals`.

The queueing network itself -- placement-group resources, batch
stations, the continuous-batching decode executor, pluggable
dispatch/admission policies -- lives in :mod:`repro.sim.engine`; this
module adds only the one-shot replay discipline. Replays through the
engine are bit-identical to the pre-refactor monolithic simulator
(pinned by regression tests), and the same engine also powers the live
asyncio front-end in :mod:`repro.serve`.

Iterative-retrieval schemas (Case III) run through the engine's
retrieval-hook and re-prefix stations; the closed-form counterpart is
the cohort model in :mod:`repro.pipeline.iterative`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import ConfigError
from repro.pipeline.assembly import Schedule
from repro.pipeline.stage_perf import RAGPerfModel
from repro.sim.engine import DispatchSelection, ServingEngine, submit_trace
from repro.sim.metrics import ServingReport, SLOTarget
from repro.sim.policies import AdmissionPolicy
from repro.workloads.traces import RequestTrace

__all__ = ["ServingSimulator"]


class ServingSimulator:
    """Simulate one schedule serving a stream of requests.

    Args:
        perf_model: Calibrated stage cost models.
        schedule: The deployment under test.
        dispatch: Dispatch policy for the pre-decode stations -- a
            policy instance, a registry name, or a per-stage mapping
            (deadline flush when omitted); a partial-batch deadline is
            the policy's own ``max_wait``.
        admission: Decode admission policy instance or registry name
            (greedy when omitted).
    """

    def __init__(self, perf_model: RAGPerfModel, schedule: Schedule,
                 dispatch: DispatchSelection = None,
                 admission: Union[None, str, AdmissionPolicy] = None,
                 ) -> None:
        self._perf_model = perf_model
        self._schedule = schedule
        self._schema = perf_model.schema
        self._dispatch = dispatch
        self._admission = admission
        # Engines are single-use; build one eagerly so schedule/schema
        # validation still fails at construction time, as it always has.
        self._engine: Optional[ServingEngine] = self._fresh_engine()

    def _fresh_engine(self) -> ServingEngine:
        return ServingEngine(self._perf_model, self._schedule,
                             dispatch=self._dispatch,
                             admission=self._admission)

    def _take_engine(self) -> ServingEngine:
        """The pre-built engine, or a fresh one on repeated runs."""
        engine, self._engine = self._engine, None
        if engine is None or engine.offered:
            engine = self._fresh_engine()
        return engine

    def run(self, trace: RequestTrace,
            slo: Optional[SLOTarget] = None) -> ServingReport:
        """Inject every request of ``trace`` and drain the engine.

        Every submitted request finishes; to stop a replay part way,
        step a :class:`~repro.sim.engine.ServingEngine` directly.

        Args:
            trace: The traffic to replay; per-request decode lengths and
                identity travel inside it.
            slo: Latency targets for attainment accounting (defaults to
                unconstrained).

        Raises:
            ConfigError: when ``trace`` is not a
                :class:`~repro.workloads.traces.RequestTrace`.
        """
        if not isinstance(trace, RequestTrace):
            raise ConfigError(
                f"run() replays a RequestTrace, got {type(trace).__name__}"
                f"; wrap loose arrivals with trace_from_arrivals()")
        engine = self._take_engine()
        submit_trace(engine, trace)
        engine.drain()
        return engine.report(trace, slo)
