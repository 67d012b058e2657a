"""Pluggable request-routing policies for the multi-replica fleet.

A :class:`~repro.sim.fleet.FleetEngine` fronts N serving-engine
replicas; which replica a new arrival lands on is this module's
decision point, mirroring the :mod:`repro.sim.policies` pattern: each
policy is a stateless frozen dataclass, a named registry
(``ROUTING_POLICIES``) backs the CLI's ``--routing`` selection, and
:func:`resolve_routing_policy` normalizes None/name/instance
arguments.

Policies are pure functions of the candidate replicas' observable
state (:class:`ReplicaView`): in-flight depth, how many requests the
slot has ever been routed, and an analytical-QPS weight. The fleet
owns the counters, so the static policies are stateless and one
instance can serve many fleets. The views are **live**: the fleet
keeps one per active slot and refreshes it in place before each
decision, so a view is valid only during the :meth:`RoutingPolicy.select`
call it is handed to. A policy that keeps state across calls copies
the values it needs (as the power-of-two-choices depth snapshot does),
never the views.

Variants:

* :class:`RoundRobinRouting` -- cycle the candidates (least-submitted
  first), the classic fair splitter; on a homogeneous fleet it
  partitions a trace into exact every-Nth subsequences.
* :class:`LeastInFlightRouting` -- join the shortest queue, the
  greedy load balancer that adapts to decode-length skew.
* :class:`WeightedQPSRouting` -- deterministic weighted round robin:
  each replica receives traffic proportional to its schedule's
  analytical saturation QPS, the right default for heterogeneous
  fleets.

The latency-aware variants model what a *distributed* balancer can
actually observe -- sampled, possibly stale queue state -- instead of
the oracle view the static policies enjoy:

* :class:`PowerOfTwoChoicesRouting` -- sample two replicas with a
  seeded RNG, join the shorter queue; ``stale_after`` serves cached
  queue depths for that many seconds before refreshing, reproducing
  the stale-state balancing the mesh literature studies.
* :class:`JoinIdleQueueRouting` -- route to an idle replica when one
  exists, fall back to the shortest queue otherwise (the JIQ
  decoupling of idleness tracking from dispatch).
* :class:`SessionAffineRouting` -- sticky sessions: the first request
  of a session lands on the least-loaded replica and every later
  request of that session follows it (re-pinning only when the sticky
  replica leaves the routable set), modeling KV-cache / prefix-cache
  affinity for multi-turn users.

These two keep per-instance state (an RNG, a state cache), so a fresh
instance per fleet -- what the registry factories and
:func:`resolve_routing_policy` hand out -- is the supported usage.
All randomness flows from the policy's injected ``seed`` through a
:class:`~repro.sim.rng.DeterministicRNG` -- simulation paths never
touch the process-global RNG (the ``seeded-rng-required`` lint rule
pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Optional, Sequence, Union

from repro.errors import ConfigError, lookup
from repro.sim.rng import DeterministicRNG

__all__ = [
    "ReplicaView",
    "RoutingPolicy",
    "RoundRobinRouting",
    "LeastInFlightRouting",
    "WeightedQPSRouting",
    "PowerOfTwoChoicesRouting",
    "JoinIdleQueueRouting",
    "SessionAffineRouting",
    "ROUTING_POLICIES",
    "resolve_routing_policy",
]


@dataclass(slots=True)
class ReplicaView:
    """What a routing policy may observe about one candidate replica.

    A fleet keeps one view per active slot and refreshes ``in_flight``
    and ``submitted`` in place on every arrival, so a view handed to
    :meth:`RoutingPolicy.select` is valid only during that call: a
    policy copies what it keeps.

    Attributes:
        index: The replica's fleet slot.
        in_flight: Requests submitted to the slot but not finished.
        submitted: Requests ever routed to the slot (persists across
            rolling schedule swaps, so a freshly swapped-in engine is
            not flooded to "catch up").
        weight: Relative capacity, normally the schedule's analytical
            saturation QPS (1.0 when unknown). Only weighted policies
            read it.
    """

    index: int
    in_flight: int
    submitted: int
    weight: float = 1.0


#: Candidate sort keys (C-level, so a decision allocates no key
#: function): least-submitted, and least-loaded with the
#: fewest-ever-submitted and slot-order tie-breaks.
_BY_SUBMITTED = attrgetter("submitted", "index")
_BY_LOAD = attrgetter("in_flight", "submitted", "index")


def _weighted_key(view: ReplicaView) -> tuple:
    return ((view.submitted + 1) / view.weight, view.index)


@dataclass(frozen=True)
class RoutingPolicy:
    """Picks which replica receives the next arrival.

    Subclasses override :meth:`select`; candidates are the fleet's
    **routable** replicas only (draining and retired slots are never
    offered).
    """

    @property
    def name(self) -> str:
        """Registry name (kebab-case class name by default)."""
        return type(self).__name__.replace("Routing", "").lower()

    def select(self, replicas: Sequence[ReplicaView],
               now: float = 0.0, *,
               session_key: Optional[str] = None) -> int:
        """The chosen replica's ``index`` among ``replicas``.

        Args:
            replicas: Views of every routable replica, slot order.
                They are live (refreshed in place by the fleet), so
                they are valid only during this call; copy any value
                kept for a later decision.
            now: Simulated time of the routing decision; only the
                staleness-aware policies read it.
            session_key: Sticky-routing key of the arrival (its
                session id), when the workload carries one; only
                affinity-aware policies read it.

        Raises:
            ConfigError: when no replica is routable.
        """
        raise NotImplementedError

    @staticmethod
    def _require(replicas: Sequence[ReplicaView]) -> None:
        if not replicas:
            raise ConfigError("no routable replica: every fleet slot is "
                              "draining or retired")


@dataclass(frozen=True)
class RoundRobinRouting(RoutingPolicy):
    """Cycle through the replicas, least-submitted slot first.

    With all slots routable from the start this is the textbook
    round robin (0, 1, ..., N-1, 0, ...); after a drain/swap the
    slot-persistent counters keep the cycle fair instead of flooding
    the newest engine.
    """

    @property
    def name(self) -> str:
        return "round-robin"

    def select(self, replicas: Sequence[ReplicaView],
               now: float = 0.0, *,
               session_key: Optional[str] = None) -> int:
        self._require(replicas)
        return min(replicas, key=_BY_SUBMITTED).index


@dataclass(frozen=True)
class LeastInFlightRouting(RoutingPolicy):
    """Join the shortest queue: the replica with the fewest in-flight
    requests wins (ties broken by fewest-ever-submitted, then slot
    order, keeping the choice deterministic)."""

    @property
    def name(self) -> str:
        return "least-in-flight"

    def select(self, replicas: Sequence[ReplicaView],
               now: float = 0.0, *,
               session_key: Optional[str] = None) -> int:
        self._require(replicas)
        return min(replicas, key=_BY_LOAD).index


@dataclass(frozen=True)
class WeightedQPSRouting(RoutingPolicy):
    """Deterministic weighted round robin over the replicas' QPS
    weights: the next request goes to the slot whose
    ``(submitted + 1) / weight`` is smallest, so long-run traffic
    shares converge to the weights without randomness."""

    @property
    def name(self) -> str:
        return "weighted-qps"

    def select(self, replicas: Sequence[ReplicaView],
               now: float = 0.0, *,
               session_key: Optional[str] = None) -> int:
        self._require(replicas)
        for view in replicas:
            if view.weight <= 0:
                raise ConfigError(
                    f"replica {view.index} has non-positive routing "
                    f"weight {view.weight}")
        return min(replicas, key=_weighted_key).index


@dataclass(frozen=True, eq=False)
class PowerOfTwoChoicesRouting(RoutingPolicy):
    """Sample two replicas, join the shorter queue -- on possibly
    stale state.

    The classic power-of-two-choices balancer: two candidates are
    drawn with a seeded RNG and the one with fewer in-flight requests
    wins (ties by fewest-ever-submitted, then slot order). With
    ``stale_after > 0`` the policy consults a cached snapshot of the
    queue depths and only refreshes it once the snapshot is at least
    ``stale_after`` seconds old -- the "herd behavior under stale
    state" regime a real mesh balancer operates in. ``stale_after =
    0`` refreshes on every decision (perfect information), including
    decisions at the same instant.

    Runs are deterministic per seed: the same candidate sequence and
    decision times reproduce the same assignments.

    Attributes:
        seed: RNG seed for the two-candidate draw.
        stale_after: Seconds a cached queue-depth snapshot keeps
            serving decisions before it is refreshed.
    """

    seed: int = 0
    stale_after: float = 0.0
    _state: Dict[str, object] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.stale_after < 0:
            raise ConfigError("stale_after must be non-negative")

    @property
    def name(self) -> str:
        return "power-of-two-choices"

    def _snapshot(self, replicas: Sequence[ReplicaView],
                  now: float) -> Dict[int, int]:
        """The in-flight depths the policy is allowed to see at
        ``now``: live state once the cached snapshot has aged past
        ``stale_after`` (or a slot appeared/vanished), the cached copy
        otherwise."""
        cached = self._state.get("depths")
        taken = self._state.get("taken_at")
        # Serve the cached snapshot without materializing the live
        # depths at all (slot indices are unique, so length plus
        # subset is set equality) -- stale-state routing would
        # otherwise allocate a throwaway dict per arrival.
        if (cached is not None and taken is not None and now >= taken
                and now - taken < self.stale_after
                and len(cached) == len(replicas)
                and all(view.index in cached for view in replicas)):
            return cached
        live = {view.index: view.in_flight for view in replicas}
        self._state["depths"] = live
        self._state["taken_at"] = now
        return live

    def select(self, replicas: Sequence[ReplicaView],
               now: float = 0.0, *,
               session_key: Optional[str] = None) -> int:
        self._require(replicas)
        rng = self._state.get("rng")
        if rng is None:
            rng = DeterministicRNG(self.seed)
            self._state["rng"] = rng
        # Live depths are read off the views; stale ones off the
        # cached snapshot.
        depths = self._snapshot(replicas, now) if self.stale_after \
            else None
        if len(replicas) == 1:
            return replicas[0].index
        # The views arrive in slot order, so sampled positions are
        # slot ranks.
        i, j = rng.sample_pair(len(replicas))
        first, second = replicas[i], replicas[j]
        if depths is None:
            return min(first, second, key=_BY_LOAD).index
        # min()'s tie rule: the second candidate wins only when
        # strictly smaller.
        if (depths[second.index], second.submitted, second.index) \
                < (depths[first.index], first.submitted, first.index):
            return second.index
        return first.index


@dataclass(frozen=True)
class JoinIdleQueueRouting(RoutingPolicy):
    """Route to an idle replica when one exists; otherwise join the
    shortest queue.

    The join-idle-queue discipline decouples "who is idle" from the
    dispatch decision: as long as any replica sits idle an arrival
    never queues behind busy ones (idle ties break by
    fewest-ever-submitted so the idle set is drained fairly); only
    when the whole fleet is busy does it degrade to
    least-in-flight."""

    @property
    def name(self) -> str:
        return "join-idle-queue"

    def select(self, replicas: Sequence[ReplicaView],
               now: float = 0.0, *,
               session_key: Optional[str] = None) -> int:
        self._require(replicas)
        idle = [view for view in replicas if view.in_flight == 0]
        candidates = idle or replicas
        return min(candidates, key=_BY_LOAD).index


@dataclass(frozen=True, eq=False)
class SessionAffineRouting(RoutingPolicy):
    """Sticky sessions with a least-in-flight fallback.

    The first request of a session joins the shortest queue (the
    least-in-flight discipline, ties by fewest-ever-submitted then
    slot order) and the session is **pinned** there: every later
    request carrying the same ``session_key`` follows, regardless of
    load, modeling the KV-cache / prefix-cache affinity a multi-turn
    deployment wants. Only when the pinned replica leaves the
    routable set (drained or retired) is the session re-pinned, again
    to the shortest queue. Keyless arrivals fall back to plain
    least-in-flight.

    The pin table is explicit per-instance state -- not a hash of the
    key, which Python randomizes per process -- so runs are
    deterministic and a fresh instance per fleet (what the registry
    factory hands out) is the supported usage.
    """

    _state: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str:
        return "session-affine"

    def select(self, replicas: Sequence[ReplicaView],
               now: float = 0.0, *,
               session_key: Optional[str] = None) -> int:
        self._require(replicas)
        if session_key is None:
            return min(replicas, key=_BY_LOAD).index
        sticky = self._state.get("sticky")
        if sticky is None:
            sticky = {}
            self._state["sticky"] = sticky
        pinned = sticky.get(session_key)
        if pinned is not None:
            for view in replicas:
                if view.index == pinned:
                    return pinned
        choice = min(replicas, key=_BY_LOAD).index
        sticky[session_key] = choice
        return choice


#: Named routing policies for the CLI / config front-ends. Values are
#: zero-argument factories returning the default-configured policy.
ROUTING_POLICIES: Dict[str, Callable[[], RoutingPolicy]] = {
    "round-robin": RoundRobinRouting,
    "least-in-flight": LeastInFlightRouting,
    "weighted-qps": WeightedQPSRouting,
    "power-of-two-choices": PowerOfTwoChoicesRouting,
    "join-idle-queue": JoinIdleQueueRouting,
    "session-affine": SessionAffineRouting,
}


def resolve_routing_policy(
        policy: Union[None, str, RoutingPolicy]) -> RoutingPolicy:
    """Normalize a routing-policy argument (None/name/instance)."""
    if policy is None:
        return RoundRobinRouting()
    if isinstance(policy, RoutingPolicy):
        return policy
    return lookup(ROUTING_POLICIES, policy, "routing policy")()
