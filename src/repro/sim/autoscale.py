"""Autoscaling control loop over the multi-replica fleet engine.

RAGO picks TTFT/TPOT-optimal schedules *per QPS rating*, but
production traffic is diurnal and bursty: a fixed ``provision()``
replica count is wasteful at the trough or SLO-violating at the peak.
This module closes the loop -- a pluggable :class:`AutoscalePolicy`
(mirroring the :mod:`repro.sim.policies` / :mod:`repro.sim.routing`
registries) watches windowed fleet statistics and an
:class:`Autoscaler` driver grows/shrinks the fleet through
:meth:`~repro.sim.fleet.FleetEngine.add_replica` /
:meth:`~repro.sim.fleet.FleetEngine.remove_replica` zero-loss drains,
emitting a :class:`ScalingEvent` timeline.

Controllers (each a frozen dataclass with scale-up/scale-down
thresholds; the driver owns min/max replicas and the cooldown):

* :class:`TargetUtilizationPolicy` -- hold offered load near a target
  fraction of the fleet's analytical capacity; scales proportionally
  on breach, so one decision can add several replicas.
* :class:`QueueDepthPolicy` -- bound the in-flight depth per replica
  (the Little's-law proxy that needs no rated capacity).
* :class:`SLOAttainmentPolicy` -- steer on the windowed SLO
  attainment itself, the closed-loop form of the paper's "schedules
  must match the offered QPS".

:class:`AutoscaleConfig` is the serializable envelope behind
``repro serve|replay --autoscale policy=...,min=...,max=...`` and the
autoscaler's only configuration; :func:`parse_autoscale_spec` /
:func:`autoscale_spec` convert the CLI spelling to and from it
exactly. :func:`build_fleet` is the one fleet setup behind ``replay``,
``serve``, ``whatif`` and the session: a fleet, at ``min_replicas``
plus an autoscaler when a config is given, which
:func:`replay_open_loop` drives through a trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError, lookup
from repro.pipeline.assembly import Schedule
from repro.pipeline.stage_perf import RAGPerfModel
from repro.sim.engine import DispatchSelection, submit_trace
from repro.sim.fleet import FleetEngine
from repro.sim.metrics import RequestRecord, SLOTarget
from repro.sim.policies import AdmissionPolicy
from repro.sim.routing import RoutingPolicy
from repro.workloads.traces import RequestTrace

__all__ = [
    "FleetView",
    "AutoscalePolicy",
    "TargetUtilizationPolicy",
    "QueueDepthPolicy",
    "SLOAttainmentPolicy",
    "AUTOSCALE_POLICIES",
    "resolve_autoscale_policy",
    "AutoscaleConfig",
    "parse_autoscale_spec",
    "autoscale_spec",
    "ScalingEvent",
    "Autoscaler",
    "build_fleet",
    "replay_open_loop",
]


@dataclass(frozen=True)
class FleetView:
    """What an autoscale policy may observe at one control boundary.

    Attributes:
        now: Simulated time of the decision.
        replicas: Active (routable) replica count.
        in_flight: Submitted-but-unfinished requests fleet-wide.
        window_seconds: Length of the observation window (time since
            the previous control decision).
        window_arrivals: Requests submitted during the window.
        window_completions: Requests finished during the window.
        window_slo_met: Window completions meeting the joint SLO (an
            unconstrained SLO counts every completion as met).
        replica_qps: Mean analytical saturation QPS of one active
            replica (0 when unrated).
    """

    now: float
    replicas: int
    in_flight: int
    window_seconds: float
    window_arrivals: int
    window_completions: int
    window_slo_met: int
    replica_qps: float

    @property
    def arrival_rate(self) -> float:
        """Offered load over the window in requests per second."""
        if self.window_seconds <= 0:
            return 0.0
        return self.window_arrivals / self.window_seconds

    @property
    def queue_depth(self) -> float:
        """In-flight requests per active replica."""
        return self.in_flight / max(self.replicas, 1)

    @property
    def utilization(self) -> float:
        """Offered load as a fraction of the fleet's rated capacity
        (0 when the replicas carry no analytical rating)."""
        capacity = self.replicas * self.replica_qps
        if capacity <= 0:
            return 0.0
        return self.arrival_rate / capacity

    @property
    def attainment(self) -> Optional[float]:
        """Joint SLO attainment over the window's completions (None
        when nothing completed -- no evidence either way)."""
        if self.window_completions <= 0:
            return None
        return self.window_slo_met / self.window_completions


@dataclass(frozen=True)
class AutoscalePolicy:
    """Maps one :class:`FleetView` to a desired replica count.

    Subclasses override :meth:`desired_replicas` and carry their own
    scale-up/scale-down thresholds (the hysteresis band); the
    :class:`Autoscaler` clamps the answer to [min, max] replicas and
    enforces the cooldown, so policies stay pure decision functions.
    """

    @property
    def name(self) -> str:
        """Registry name (kebab-case class name by default)."""
        return type(self).__name__.replace("Policy", "").lower()

    def desired_replicas(self, view: FleetView) -> int:
        """The replica count this policy wants (unclamped).

        Returning ``view.replicas`` means "hold"."""
        raise NotImplementedError


@dataclass(frozen=True)
class TargetUtilizationPolicy(AutoscalePolicy):
    """Hold offered load near a target fraction of rated capacity.

    Utilization is the window's arrival rate over ``replicas *
    replica_qps``. Above ``up`` the fleet jumps straight to the size
    that restores ``target`` (proportional control -- one decision can
    add several replicas during a surge); below ``down`` it sheds one
    replica per decision (conservative shrink). The [down, up] band is
    the hysteresis dead zone.

    Attributes:
        up: Scale-up utilization threshold (exclusive).
        down: Scale-down utilization threshold (exclusive).
        target: Post-scale-up utilization setpoint.
    """

    up: float = 0.85
    down: float = 0.5
    target: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.down < self.up:
            raise ConfigError(
                "target-utilization needs 0 <= down < up "
                f"(got down={self.down}, up={self.up})")
        if self.target <= 0:
            raise ConfigError("target utilization must be positive")

    @property
    def name(self) -> str:
        return "target-utilization"

    def desired_replicas(self, view: FleetView) -> int:
        if view.window_seconds <= 0 or view.replica_qps <= 0:
            return view.replicas
        utilization = view.utilization
        if utilization > self.up:
            setpoint = math.ceil(
                view.arrival_rate / (self.target * view.replica_qps))
            return max(view.replicas + 1, setpoint)
        if utilization < self.down:
            return view.replicas - 1
        return view.replicas


@dataclass(frozen=True)
class QueueDepthPolicy(AutoscalePolicy):
    """Bound the in-flight depth per replica.

    The capacity-agnostic controller: no analytical rating needed,
    just Little's law. Above ``up`` in-flight requests per replica it
    grows to the size that restores ``up`` (at least one replica);
    below ``down`` it sheds one replica per decision.

    Attributes:
        up: Scale-up depth threshold (exclusive, per replica).
        down: Scale-down depth threshold (exclusive, per replica).
    """

    up: float = 8.0
    down: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.down < self.up:
            raise ConfigError(
                "queue-depth needs 0 <= down < up "
                f"(got down={self.down}, up={self.up})")

    @property
    def name(self) -> str:
        return "queue-depth"

    def desired_replicas(self, view: FleetView) -> int:
        if view.queue_depth > self.up:
            return max(view.replicas + 1,
                       math.ceil(view.in_flight / self.up))
        if view.queue_depth < self.down:
            return view.replicas - 1
        return view.replicas


@dataclass(frozen=True)
class SLOAttainmentPolicy(AutoscalePolicy):
    """Steer on the windowed SLO attainment itself.

    The closed-loop controller: below the ``up`` floor (too many SLO
    misses) it adds a replica; at or above the ``down`` ceiling --
    with no backlog pressure -- it sheds one. Windows with zero
    completions hold (no evidence either way).

    Attributes:
        up: Attainment floor below which the fleet grows.
        down: Attainment ceiling at which the fleet may shrink.
    """

    up: float = 0.9
    down: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.up < self.down <= 1.0:
            raise ConfigError(
                "slo-attainment needs 0 < up < down <= 1 "
                f"(got up={self.up}, down={self.down})")

    @property
    def name(self) -> str:
        return "slo-attainment"

    def desired_replicas(self, view: FleetView) -> int:
        attainment = view.attainment
        if attainment is None:
            return view.replicas
        if attainment < self.up:
            return view.replicas + 1
        if attainment >= self.down and view.queue_depth < 1.0:
            return view.replicas - 1
        return view.replicas


#: Named autoscale policies for the CLI / config front-ends. Values
#: are zero-argument factories returning the default-configured
#: policy.
AUTOSCALE_POLICIES: Dict[str, Callable[[], AutoscalePolicy]] = {
    "target-utilization": TargetUtilizationPolicy,
    "queue-depth": QueueDepthPolicy,
    "slo-attainment": SLOAttainmentPolicy,
}


def resolve_autoscale_policy(
        policy: Union[None, str, AutoscalePolicy]) -> AutoscalePolicy:
    """Normalize an autoscale-policy argument (None/name/instance)."""
    if policy is None:
        return QueueDepthPolicy()
    if isinstance(policy, AutoscalePolicy):
        return policy
    return lookup(AUTOSCALE_POLICIES, policy, "autoscale policy")()


@dataclass(frozen=True)
class AutoscaleConfig:
    """Settings of one autoscaling control loop (config-envelope
    friendly; the exact object behind ``--autoscale``).

    Attributes:
        policy: Registry name of the controller (see
            :data:`AUTOSCALE_POLICIES`).
        min_replicas / max_replicas: Fleet size bounds the driver
            clamps every decision to.
        interval: Simulated seconds between control decisions.
        cooldown: Simulated seconds after a scaling action during
            which further actions are suppressed (flap damping).
        scale_up / scale_down: Optional overrides of the policy's own
            up/down thresholds (None keeps the policy defaults).
    """

    policy: str = "queue-depth"
    min_replicas: int = 1
    max_replicas: int = 4
    interval: float = 1.0
    cooldown: float = 3.0
    scale_up: Optional[float] = None
    scale_down: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigError("min_replicas must be at least 1")
        if self.max_replicas < self.min_replicas:
            raise ConfigError(
                f"max_replicas={self.max_replicas} must be at least "
                f"min_replicas={self.min_replicas}")
        if not (math.isfinite(self.interval) and self.interval > 0):
            raise ConfigError("control interval must be finite and "
                              "positive")
        if not (math.isfinite(self.cooldown) and self.cooldown >= 0):
            raise ConfigError("cooldown must be finite and non-negative")
        self.build_policy()  # validates name and threshold overrides

    def build_policy(self) -> AutoscalePolicy:
        """The configured controller instance (thresholds applied)."""
        policy = resolve_autoscale_policy(self.policy)
        overrides: Dict[str, float] = {}
        if self.scale_up is not None:
            overrides["up"] = self.scale_up
        if self.scale_down is not None:
            overrides["down"] = self.scale_down
        if not overrides:
            return policy
        try:
            return replace(policy, **overrides)
        except TypeError as error:  # pragma: no cover - all take up/down
            raise ConfigError(
                f"policy {self.policy!r} rejects threshold overrides: "
                f"{error}") from error


#: --autoscale key -> (AutoscaleConfig field, converter).
_SPEC_KEYS: Dict[str, Tuple[str, Callable[[str], Any]]] = {
    "policy": ("policy", str),
    "min": ("min_replicas", int),
    "max": ("max_replicas", int),
    "interval": ("interval", float),
    "cooldown": ("cooldown", float),
    "up": ("scale_up", float),
    "down": ("scale_down", float),
}


def parse_autoscale_spec(
        spec: Union[None, str, AutoscaleConfig]) -> AutoscaleConfig:
    """Parse a CLI/config autoscale selection.

    Accepts an :class:`AutoscaleConfig` (passed through), a bare
    policy name (``queue-depth``), or the key=value spelling --
    ``policy=queue-depth,min=1,max=6,interval=0.5,cooldown=2,up=8,
    down=1`` -- with unknown keys and malformed values rejected.
    None yields the default config.

    Raises:
        ConfigError: on an unknown key or policy, a value that fails
            to convert, or thresholds the policy itself rejects.
    """
    if spec is None:
        return AutoscaleConfig()
    if isinstance(spec, AutoscaleConfig):
        return spec
    # Imported here: repro.config pulls in this module for its
    # envelope serializers, so a top-level import would be circular.
    from repro.config.specs import parse_kv_spec

    # A bare token is a policy-name shortcut; the config's own
    # validation rejects unknown names with the known list.
    kwargs = parse_kv_spec(
        spec, _SPEC_KEYS, label="autoscale",
        example="policy=queue-depth,min=1,max=4", bare_key="policy")
    return AutoscaleConfig(**kwargs)


def autoscale_spec(config: AutoscaleConfig) -> str:
    """The CLI spelling of an autoscale config.

    The inverse of :func:`parse_autoscale_spec`: the returned string
    parses back to an equal config, which is how a ``--json``
    artifact round-trips the autoscaling selection.
    """
    from repro.config.specs import format_kv_spec

    pairs = [("policy", config.policy),
             ("min", config.min_replicas),
             ("max", config.max_replicas),
             ("interval", repr(config.interval)),
             ("cooldown", repr(config.cooldown))]
    if config.scale_up is not None:
        pairs.append(("up", repr(config.scale_up)))
    if config.scale_down is not None:
        pairs.append(("down", repr(config.scale_down)))
    return format_kv_spec(pairs)


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler decision that changed the fleet size.

    Attributes:
        time: Simulated time of the decision.
        action: ``"up"`` or ``"down"``.
        slots: Slot indices added (up) or sent draining (down).
        replicas_before / replicas_after: Active counts around the
            action.
        reason: Human-readable trigger (policy name + the windowed
            statistics that tripped it).
    """

    time: float
    action: str
    slots: Tuple[int, ...]
    replicas_before: int
    replicas_after: int
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the ``--json`` / stats-op payload row)."""
        return {"time": self.time, "action": self.action,
                "slots": list(self.slots),
                "replicas_before": self.replicas_before,
                "replicas_after": self.replicas_after,
                "reason": self.reason}


class Autoscaler:
    """Drives one fleet's size from a policy, on simulated time.

    The driver samples the fleet at every control boundary (an
    :class:`FleetView` of the window since the previous decision),
    asks the policy for a desired size, clamps it to
    [min_replicas, max_replicas], and -- outside the cooldown --
    applies the delta through zero-loss
    :meth:`~repro.sim.fleet.FleetEngine.add_replica` /
    :meth:`~repro.sim.fleet.FleetEngine.remove_replica` calls,
    recording a :class:`ScalingEvent` per action. It also integrates
    **replica-seconds** (the cost axis an elastic fleet is judged on)
    over the run.

    Two driving modes:

    * **open loop** -- :meth:`run_trace` replays a
      :class:`~repro.workloads.traces.RequestTrace`, interleaving
      submissions with control boundaries;
    * **live** -- a wall-clock pump (:class:`repro.serve.LiveServer`)
      steps the fleet and calls :meth:`maybe_control` with the mapped
      simulated time each tick.

    Args:
        fleet: The :class:`~repro.sim.fleet.FleetEngine` to scale
            (its constructed size should sit within [min, max]; the
            first decisions pull it into range otherwise).
        config: The controller (policy and thresholds), the
            [min_replicas, max_replicas] clamp, the control interval
            and the cooldown; validated when the config is built.
        slo: Targets behind the windowed attainment statistic (an
            unconstrained target scores every completion as met).
    """

    def __init__(self, fleet: FleetEngine,
                 config: AutoscaleConfig = AutoscaleConfig(), *,
                 slo: Optional[SLOTarget] = None) -> None:
        if not isinstance(fleet, FleetEngine):
            raise ConfigError(
                "the autoscaler drives a FleetEngine; wrap a single "
                "engine in a fleet of one replica first")
        self._fleet = fleet
        self._config = config
        self._policy = config.build_policy()
        self._slo = slo or SLOTarget()
        self._events: List[ScalingEvent] = []
        self._next_control = config.interval
        self._last_control = 0.0
        self._last_action = -math.inf
        self._last_offered = fleet.offered
        self._window_completions = 0
        self._window_slo_met = 0
        fleet.add_listener(self._on_complete)

    # -- introspection -------------------------------------------------

    @property
    def fleet(self) -> FleetEngine:
        """The fleet under control."""
        return self._fleet

    @property
    def policy(self) -> AutoscalePolicy:
        """The controller in force."""
        return self._policy

    @property
    def interval(self) -> float:
        """Simulated seconds between control decisions."""
        return self._config.interval

    @property
    def min_replicas(self) -> int:
        """Lower fleet-size clamp."""
        return self._config.min_replicas

    @property
    def max_replicas(self) -> int:
        """Upper fleet-size clamp."""
        return self._config.max_replicas

    @property
    def events(self) -> List[ScalingEvent]:
        """Every size-changing decision so far, time order."""
        return list(self._events)

    @property
    def replica_seconds(self) -> float:
        """Integrated active-replica count over simulated time -- the
        fleet's resource cost so far (compare against ``replicas *
        duration`` of a static fleet). Delegates to the fleet's own
        clock integral, so it is current to the last step."""
        return self._fleet.replica_seconds

    def timeline(self) -> List[Dict[str, Any]]:
        """The scaling events as JSON-ready rows (the raw material of
        :func:`repro.reporting.format_scaling_timeline` and the
        ``--json`` payload)."""
        return [event.to_dict() for event in self._events]

    # -- fleet feedback ------------------------------------------------

    def _on_complete(self, record: RequestRecord) -> None:
        # SLOTarget.check's joint verdict, decided inline (no dict per
        # completion): met unless a constrained dimension fails, and a
        # request without a first token fails every one.
        self._window_completions += 1
        slo = self._slo
        if slo.ttft is not None:
            ttft = record.ttft
            if ttft is None or not ttft <= slo.ttft:
                return
        if slo.tpot is not None:
            tpot = record.tpot
            if tpot is None or not tpot <= slo.tpot:
                return
        self._window_slo_met += 1

    def finalize(self, now: float) -> float:
        """Close the replica-seconds integral at ``now`` (steps the
        fleet's clock forward if it lags; call once the run is
        drained).

        Returns:
            The total replica-seconds.
        """
        if now > self._fleet.now:
            self._fleet.step(until=now)
        return self._fleet.replica_seconds

    # -- control -------------------------------------------------------

    def _view(self, now: float) -> FleetView:
        weights = self._fleet.active_weights()
        offered = self._fleet.offered
        view = FleetView(
            now=now,
            replicas=self._fleet.replicas,
            in_flight=self._fleet.in_flight,
            window_seconds=now - self._last_control,
            window_arrivals=offered - self._last_offered,
            window_completions=self._window_completions,
            window_slo_met=self._window_slo_met,
            replica_qps=sum(weights) / len(weights) if weights else 0.0,
        )
        self._last_offered = offered
        self._window_completions = 0
        self._window_slo_met = 0
        self._last_control = now
        return view

    def _reason(self, view: FleetView, desired: int) -> str:
        parts = [f"depth={view.queue_depth:.1f}",
                 f"rate={view.arrival_rate:.1f}/s"]
        if view.replica_qps > 0:
            parts.append(f"util={view.utilization:.2f}")
        if view.attainment is not None:
            parts.append(f"slo={view.attainment:.2f}")
        return (f"{self._policy.name} wants {desired} "
                f"({', '.join(parts)})")

    def control(self, now: float) -> Optional[ScalingEvent]:
        """Run one control decision at simulated time ``now``.

        Samples the window since the previous decision, asks the
        policy, clamps to [min, max], and -- outside the cooldown --
        applies the delta through zero-loss drains. The fleet should
        already be stepped to (at least) ``now``.

        Returns:
            The :class:`ScalingEvent` if the fleet size changed, else
            None.
        """
        if now < self._last_control:
            raise ConfigError("control decisions cannot move backwards "
                              "in time")
        view = self._view(now)
        desired = self._policy.desired_replicas(view)
        desired = min(max(desired, self.min_replicas), self.max_replicas)
        current = view.replicas
        if desired == current \
                or now - self._last_action < self._config.cooldown:
            return None
        before = set(self._fleet.active_slots)
        while self._fleet.replicas < desired:
            self._fleet.add_replica()
        while self._fleet.replicas > desired:
            self._fleet.remove_replica()
        after = set(self._fleet.active_slots)
        event = ScalingEvent(
            time=now,
            action="up" if desired > current else "down",
            slots=tuple(sorted(before.symmetric_difference(after))),
            replicas_before=current,
            replicas_after=desired,
            reason=self._reason(view, desired),
        )
        self._events.append(event)
        self._last_action = now
        return event

    def maybe_control(self, now: float) -> Optional[ScalingEvent]:
        """Run the control decision due at or before ``now``, if any.

        The live pump calls this every tick with the wall-mapped
        simulated time; boundaries missed during a stall are
        collapsed into one decision (a catch-up storm of zero-width
        windows would defeat the cooldown). The decision itself is
        taken at ``now`` -- the time the counters are actually
        sampled -- not back-dated to the grid boundary, which would
        divide a ``(last_control, now]`` window's arrivals by a
        shorter span and overstate the rate.

        Returns:
            The :class:`ScalingEvent` if the fleet size changed.
        """
        if now < self._next_control:
            return None
        interval = self._config.interval
        missed = math.floor((now - self._next_control) / interval)
        self._next_control += (missed + 1) * interval
        return self.control(now)

    def run_trace(self, trace) -> FleetEngine:
        """Open-loop replay with the control loop interleaved.

        Submits every request of ``trace`` in arrival order (decode
        length and user/session/tier identity included, as
        :func:`~repro.sim.engine.submit_trace` does), stepping
        the fleet to each control boundary on the way and deciding
        there; after the last arrival it keeps stepping boundary to
        boundary until the fleet drains (so the post-peak scale-down
        is part of the record), then finalizes the replica-seconds
        integral.

        Returns:
            The drained fleet (build reports from it as usual).
        """
        for arrival, decode_len, user_id, session_id, tier in trace.rows():
            while self._next_control <= arrival:
                boundary = self._next_control
                self._fleet.step(until=boundary)
                self.maybe_control(boundary)
            self._fleet.submit(arrival, decode_len=decode_len,
                               user_id=user_id, session_id=session_id,
                               tier=tier)
        stalled = 0
        while self._fleet.in_flight and stalled < 1000:
            completed = self._fleet.completed
            boundary = self._next_control
            self._fleet.step(until=boundary)
            self.maybe_control(boundary)
            stalled = stalled + 1 if self._fleet.completed == completed \
                else 0
        self._fleet.drain()
        self.finalize(self._fleet.now)
        return self._fleet


def build_fleet(perf_model: RAGPerfModel, schedule: Schedule,
                replicas: int = 1,
                routing: Union[None, str, RoutingPolicy] = None,
                dispatch: DispatchSelection = None,
                admission: Union[None, str, AdmissionPolicy] = None,
                autoscale: Optional[AutoscaleConfig] = None,
                slo: Optional[SLOTarget] = None,
                ) -> Tuple[FleetEngine, Optional[Autoscaler]]:
    """The one way to set up a fleet: ``(fleet, autoscaler)``.

    A fixed fleet has ``replicas`` slots and no autoscaler. With an
    ``autoscale`` config the fleet starts at its floor
    (``min_replicas``; ``replicas`` is ignored) and an
    :class:`Autoscaler` scoring against ``slo`` is attached. Routing
    and the dispatch/admission policies are as in
    :class:`~repro.sim.fleet.FleetEngine`.
    """
    if autoscale is not None:
        replicas = autoscale.min_replicas
    fleet = FleetEngine(perf_model, schedule, replicas=replicas,
                        routing=routing, dispatch=dispatch,
                        admission=admission)
    if autoscale is None:
        return fleet, None
    return fleet, Autoscaler(fleet, autoscale, slo=slo)


def replay_open_loop(fleet: FleetEngine, autoscaler: Optional[Autoscaler],
                     trace: RequestTrace) -> None:
    """Replay ``trace`` open loop through a :func:`build_fleet` pair:
    with the control loop interleaved (:meth:`Autoscaler.run_trace`)
    when there is an autoscaler, else every request submitted up front
    (:func:`~repro.sim.engine.submit_trace`) and the fleet drained."""
    if autoscaler is not None:
        autoscaler.run_trace(trace)
    else:
        submit_trace(fleet, trace)
        fleet.drain()
