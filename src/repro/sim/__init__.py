"""Request-level discrete-event serving simulation.

The analytical assembly (:mod:`repro.pipeline.assembly`) predicts
steady-state TTFT and QPS in closed form. This package simulates the
same deployment at request granularity -- arrivals, per-stage batching
queues, busy servers, continuous-batching decode -- so the closed-form
predictions can be validated and transient effects (bursts, queueing
delay, tail latency) can be studied.

The simulation consumes the same :class:`~repro.pipeline.Schedule` and
:class:`~repro.pipeline.RAGPerfModel` as the analytical path: stage
*service times* come from the calibrated cost models; the DES adds only
queueing and batching dynamics on top. The core is the incremental
:class:`ServingEngine` (explicit ``submit`` / ``step`` / ``drain``
lifecycle, running metrics, completion listeners); batching and
admission are pluggable policies (:mod:`repro.sim.policies`).
:func:`submit_trace` feeds a
:class:`~repro.workloads.traces.RequestTrace` open loop into an engine
or fleet, identity included; :class:`ServingSimulator` drives it over
one engine and yields a
:class:`ServingReport` with SLO attainment, latency percentiles and
queueing breakdowns, while :mod:`repro.serve` feeds the same engine
from a live asyncio request stream.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "AUTOSCALE_POLICIES": "repro.sim.autoscale",
    "AutoscaleConfig": "repro.sim.autoscale",
    "AutoscalePolicy": "repro.sim.autoscale",
    "Autoscaler": "repro.sim.autoscale",
    "FleetView": "repro.sim.autoscale",
    "QueueDepthPolicy": "repro.sim.autoscale",
    "ScalingEvent": "repro.sim.autoscale",
    "SLOAttainmentPolicy": "repro.sim.autoscale",
    "TargetUtilizationPolicy": "repro.sim.autoscale",
    "autoscale_spec": "repro.sim.autoscale",
    "build_fleet": "repro.sim.autoscale",
    "parse_autoscale_spec": "repro.sim.autoscale",
    "replay_open_loop": "repro.sim.autoscale",
    "resolve_autoscale_policy": "repro.sim.autoscale",
    "EventQueue": "repro.sim.engine",
    "ServingEngine": "repro.sim.engine",
    "Simulation": "repro.sim.engine",
    "submit_trace": "repro.sim.engine",
    "FleetEngine": "repro.sim.fleet",
    "LiveSnapshot": "repro.sim.metrics",
    "MetricsAccumulator": "repro.sim.metrics",
    "RequestRecord": "repro.sim.metrics",
    "ServingReport": "repro.sim.metrics",
    "SLOTarget": "repro.sim.metrics",
    "jain_index": "repro.sim.metrics",
    "ADMISSION_POLICIES": "repro.sim.policies",
    "DISPATCH_POLICIES": "repro.sim.policies",
    "AdmissionPolicy": "repro.sim.policies",
    "DeadlineFlushPolicy": "repro.sim.policies",
    "DispatchPolicy": "repro.sim.policies",
    "FullBatchPolicy": "repro.sim.policies",
    "GreedyAdmission": "repro.sim.policies",
    "PriorityAdmission": "repro.sim.policies",
    "SizeCappedPolicy": "repro.sim.policies",
    "TokenBudgetAdmission": "repro.sim.policies",
    "admission_spec": "repro.sim.policies",
    "parse_admission_policy": "repro.sim.policies",
    "ROUTING_POLICIES": "repro.sim.routing",
    "JoinIdleQueueRouting": "repro.sim.routing",
    "LeastInFlightRouting": "repro.sim.routing",
    "PowerOfTwoChoicesRouting": "repro.sim.routing",
    "ReplicaView": "repro.sim.routing",
    "RoundRobinRouting": "repro.sim.routing",
    "RoutingPolicy": "repro.sim.routing",
    "SessionAffineRouting": "repro.sim.routing",
    "WeightedQPSRouting": "repro.sim.routing",
    "resolve_routing_policy": "repro.sim.routing",
    "ServingSimulator": "repro.sim.serving",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
