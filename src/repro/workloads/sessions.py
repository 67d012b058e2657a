"""Closed-loop multi-user populations with SLO tiers and sessions.

Open-loop traces (:mod:`repro.workloads.traces`) model traffic as an
exogenous arrival process: requests land whether or not the system
keeps up. Real multi-user serving is **closed-loop** -- each user has
a bounded number of requests in flight, reads the answer, thinks, and
only then asks again -- so offered load self-throttles under
congestion and per-user experience (not just aggregate percentiles)
is the thing to measure.

This module supplies that workload model:

* :class:`Tier` / :class:`TierPolicy` -- named SLO tiers (e.g.
  ``free``/``paid``) with a decode-admission rank and a share of the
  user base, behind the usual registry
  (:data:`TIER_POLICIES` / :func:`resolve_tier_policy`).
* :class:`UserPopulation` -- a seeded population of closed-loop
  users: per-user think-time distribution, in-flight concurrency
  cap, sessions of correlated requests, and a tier assignment. Every
  request it emits carries ``user_id`` / ``session_id`` / ``tier``.
* :class:`ClosedLoopDriver` -- runs a population against a live
  :class:`~repro.sim.engine.ServingEngine` or
  :class:`~repro.sim.fleet.FleetEngine` via the completion-listener
  feedback loop (completion -> think -> next submission, scheduled on
  the target's clock), bounded by a submission horizon. Nothing is
  ever dropped: under overload a closed loop slows its users down
  instead of losing requests.
* :func:`parse_population_spec` / :func:`parse_tiers_spec` -- the CLI
  spellings, speaking the shared ``key=value,...`` grammar of
  :mod:`repro.config.specs`.

All randomness flows from the population's ``seed`` through
per-user :class:`~repro.sim.rng.DeterministicRNG` streams, so the
same population produces the same traffic, request for request, on
every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple, Union)

from repro.errors import ConfigError, lookup
from repro.workloads.traces import RequestTrace, Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.rng import DeterministicRNG

__all__ = [
    "Tier",
    "TierPolicy",
    "TIER_POLICIES",
    "resolve_tier_policy",
    "parse_tiers_spec",
    "tiers_spec",
    "single_tier_policy",
    "free_paid_tier_policy",
    "UserPopulation",
    "parse_population_spec",
    "population_spec",
    "ClosedLoopDriver",
]


@dataclass(frozen=True)
class Tier:
    """One SLO tier of the user base.

    Attributes:
        name: Tier label carried on every request (``record.tier``).
        rank: Decode-admission priority (higher = served first by
            :class:`~repro.sim.policies.PriorityAdmission`).
        share: Fraction of the population assigned to this tier.
    """

    name: str
    rank: int = 0
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a tier needs a non-empty name")
        if not 0.0 < self.share <= 1.0:
            raise ConfigError(
                f"tier {self.name!r} share must be in (0, 1], got "
                f"{self.share}")


@dataclass(frozen=True)
class TierPolicy:
    """A named, complete set of tiers users are divided into.

    Attributes:
        tiers: The tiers, in assignment order; shares must sum to 1
            (within float tolerance).
        label: Registry name (``"custom"`` for hand-built sets).
    """

    tiers: Tuple[Tier, ...] = ()
    label: str = "custom"

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ConfigError("a tier policy needs at least one tier")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"duplicate tier names in policy: {names}")
        total = sum(tier.share for tier in self.tiers)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"tier shares must sum to 1, got {total}")

    @property
    def name(self) -> str:
        """Registry name of this tier set."""
        return self.label

    def assign(self, users: int) -> Tuple[Tier, ...]:
        """The tier of each of ``users`` users, index order.

        Deterministic largest-prefix split: cumulative shares are
        rounded to user counts, so a 0.8/0.2 split of 10 users is
        always users 0-7 / 8-9.
        """
        if users <= 0:
            raise ConfigError("population size must be positive")
        assignment: List[Tier] = []
        cumulative = 0.0
        boundary = 0
        for tier in self.tiers:
            cumulative += tier.share
            upper = round(cumulative * users)
            assignment.extend([tier] * (upper - boundary))
            boundary = upper
        # Rounding of the last share is exact (sum == 1), but guard
        # against float dust leaving the tail unassigned.
        while len(assignment) < users:
            assignment.append(self.tiers[-1])
        return tuple(assignment[:users])


def single_tier_policy() -> TierPolicy:
    """Everyone in one ``standard`` tier (the no-tiering baseline)."""
    return TierPolicy(tiers=(Tier("standard", rank=0, share=1.0),),
                      label="single")


def free_paid_tier_policy() -> TierPolicy:
    """The canonical two-tier split: 80% ``free`` (rank 0), 20%
    ``paid`` (rank 1, served first under overload)."""
    return TierPolicy(tiers=(Tier("free", rank=0, share=0.8),
                             Tier("paid", rank=1, share=0.2)),
                      label="free-paid")


#: Named tier sets for the CLI / config front-ends. Values are
#: zero-argument factories returning a fresh policy.
TIER_POLICIES: Dict[str, Callable[[], TierPolicy]] = {
    "single": single_tier_policy,
    "free-paid": free_paid_tier_policy,
}


def resolve_tier_policy(
        policy: Union[None, str, TierPolicy]) -> TierPolicy:
    """Normalize a tier-policy argument (None/name/instance)."""
    if policy is None:
        return single_tier_policy()
    if isinstance(policy, TierPolicy):
        return policy
    return lookup(TIER_POLICIES, policy, "tier policy")()


def _tier_list_value(value: str) -> Tuple[Tuple[str, int, Optional[float]],
                                          ...]:
    """``name:rank[:share]|...`` -> ((name, rank, share-or-None), ...).

    Raises ValueError (not ConfigError) so it plugs into
    :func:`repro.config.specs.convert_spec_value`.
    """
    entries = []
    for item in value.split("|"):
        parts = item.strip().split(":")
        if len(parts) not in (2, 3) or not parts[0].strip():
            raise ValueError(value)
        name = parts[0].strip()
        rank = int(parts[1])
        share = float(parts[2]) if len(parts) == 3 else None
        entries.append((name, rank, share))
    if not entries:
        raise ValueError(value)
    return tuple(entries)


_TIERS_SPEC_KEYS = {
    "policy": ("policy", str),
    "custom": ("custom", _tier_list_value),
}


def parse_tiers_spec(spec: Union[None, str, TierPolicy]) -> TierPolicy:
    """Parse the CLI ``--tiers`` spelling into a :class:`TierPolicy`.

    Accepts a registry name (``free-paid``, shorthand for
    ``policy=free-paid``) or a custom set via
    ``custom=<name>:<rank>[:<share>]|...`` -- shares default to an
    even split when omitted.
    """
    if spec is None or isinstance(spec, TierPolicy):
        return resolve_tier_policy(spec)
    # Imported here: repro.config imports the sim/workload modules for
    # its envelope serializers, so a top-level import would be
    # circular.
    from repro.config.specs import parse_kv_spec
    kwargs = parse_kv_spec(spec, _TIERS_SPEC_KEYS, label="tiers",
                           example="policy=free-paid or "
                                   "custom=free:0:0.8|paid:1:0.2",
                           bare_key="policy")
    if "policy" in kwargs and "custom" in kwargs:
        raise ConfigError(
            "--tiers takes either a registry policy or a custom tier "
            "list, not both")
    if "custom" in kwargs:
        entries = kwargs["custom"]
        default_share = 1.0 / len(entries)
        return TierPolicy(
            tiers=tuple(Tier(name, rank=rank,
                             share=share if share is not None
                             else default_share)
                        for name, rank, share in entries),
            label="custom")
    return resolve_tier_policy(kwargs["policy"])


def tiers_spec(policy: TierPolicy) -> str:
    """The canonical ``--tiers`` spelling of a policy (inverse of
    :func:`parse_tiers_spec` up to share defaulting)."""
    if policy.label in TIER_POLICIES:
        return policy.label
    custom = "|".join(f"{tier.name}:{tier.rank}:{tier.share!r}"
                      for tier in policy.tiers)
    return f"custom={custom}"


def _mix_seed(seed: int, user_index: int) -> int:
    """Stable per-user RNG stream seed (distinct across users)."""
    return (seed * 0x9E3779B97F4A7C15 + user_index + 1) \
        & 0xFFFFFFFFFFFFFFFF


def _exponential(rng: "DeterministicRNG", mean: float) -> float:
    """One exponential draw with the given mean (0.0 when mean is 0)."""
    if mean <= 0.0:
        return 0.0
    # 53-bit uniform in [0, 1); log1p(-u) is exact near zero.
    u = (rng.next_u64() >> 11) * (2.0 ** -53)
    return -mean * math.log1p(-u)


def _session_label(user_id: str, session: int) -> str:
    """The id of ``user_id``'s ``session``-th session."""
    return f"{user_id}-s{session:03d}"


@dataclass(frozen=True)
class UserPopulation:
    """A seeded population of closed-loop users.

    Attributes:
        users: Number of users.
        tiers: Tier set users are assigned to (share-proportional,
            deterministic; see :meth:`TierPolicy.assign`).
        think_time: Mean think time in seconds between receiving a
            completion and issuing the next request (exponential;
            0 = resubmit immediately).
        concurrency: Per-user in-flight cap -- how many requests one
            user keeps outstanding at once.
        session_len: Requests per session; consecutive requests of a
            user share a ``session_id`` in blocks of this size
            (sessions model correlated multi-turn interactions and
            are the sticky key of session-affine routing).
        decode_len: Decode length of every request (None = the
            serving schema's default).
        seed: Root seed; every user derives an independent
            deterministic stream from it.
    """

    users: int = 8
    tiers: TierPolicy = field(default_factory=single_tier_policy)
    think_time: float = 1.0
    concurrency: int = 1
    session_len: int = 4
    decode_len: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.users <= 0:
            raise ConfigError("population size must be positive")
        if not (math.isfinite(self.think_time) and self.think_time >= 0):
            raise ConfigError("think time must be finite and non-negative")
        if self.concurrency <= 0:
            raise ConfigError("per-user concurrency must be positive")
        if self.session_len <= 0:
            raise ConfigError("session length must be positive")
        if self.decode_len is not None and self.decode_len <= 0:
            raise ConfigError("decode lengths must be positive")

    def user_id(self, index: int) -> str:
        """Stable user label for user ``index``."""
        return f"u{index:03d}"

    def assignments(self) -> Tuple[Tier, ...]:
        """Each user's tier, index order."""
        return self.tiers.assign(self.users)

    def user_rng(self, index: int) -> "DeterministicRNG":
        """The user's private deterministic stream."""
        # Imported here: repro.schema pulls in repro.workloads while
        # the sim package may still be initializing, so a top-level
        # import of repro.sim would be circular.
        from repro.sim.rng import DeterministicRNG
        return DeterministicRNG(_mix_seed(self.seed, index))

    def trace(self, horizon: float) -> RequestTrace:
        """An **open-loop projection** of this population's traffic.

        Think-time-driven arrivals assuming instantaneous service
        (each user issues, thinks, issues again): the zero-congestion
        limit of the closed loop, useful for ``repro trace``
        inspection and identity-carrying open-loop replays. The
        closed-loop behavior under real service times comes from
        :class:`ClosedLoopDriver`, not from replaying this trace.
        Per-user concurrency does not apply in the projection (each
        user is a single think-issue chain).

        Raises:
            ConfigError: on a non-positive horizon or a horizon too
                short for a single arrival.
        """
        if not horizon > 0 or not math.isfinite(horizon):
            raise ConfigError("trace horizon must be positive and finite")
        assignments = self.assignments()
        rows: List[Tuple[float, int, Row]] = []
        for index in range(self.users):
            rng = self.user_rng(index)
            uid = self.user_id(index)
            tier = assignments[index].name
            time = _exponential(rng, self.think_time)
            position = 0
            while time < horizon:
                if position % self.session_len == 0:
                    label = _session_label(uid, position // self.session_len)
                rows.append((time, index, (time, self.decode_len, uid,
                                           label, tier)))
                position += 1
                time += _exponential(rng, self.think_time)
        if not rows:
            raise ConfigError(
                "horizon too short: no user issued a request; raise "
                "the horizon or lower the think time")
        rows.sort(key=lambda row: (row[0], row[1]))
        return RequestTrace.from_rows(
            [row[2] for row in rows],
            metadata={"scenario": "sessions",
                      "population": population_spec(self),
                      "tiers": tiers_spec(self.tiers),
                      "horizon": horizon})


_POPULATION_SPEC_KEYS = {
    "users": ("users", int),
    "think": ("think_time", float),
    "concurrency": ("concurrency", int),
    "session": ("session_len", int),
    "decode": ("decode_len", int),
    "seed": ("seed", int),
    "tiers": ("tiers", str),
}


def parse_population_spec(
        spec: Union[None, str, UserPopulation]) -> UserPopulation:
    """Parse the CLI ``--population`` spelling.

    The shared ``key=value,...`` grammar: ``users`` (bare-token
    shorthand: ``--population 32,think=0.5``), ``think`` (mean
    seconds), ``concurrency``, ``session`` (requests per session),
    ``decode``, ``seed``, and ``tiers`` (a registry name; use
    ``--tiers`` for custom tier lists).
    """
    if spec is None:
        return UserPopulation()
    if isinstance(spec, UserPopulation):
        return spec
    # Imported here for the same repro.config circularity reason as
    # parse_tiers_spec.
    from repro.config.specs import parse_kv_spec
    kwargs = parse_kv_spec(spec, _POPULATION_SPEC_KEYS,
                           label="population",
                           example="users=32,think=0.5,tiers=free-paid",
                           bare_key="users")
    if "tiers" in kwargs:
        kwargs["tiers"] = resolve_tier_policy(kwargs["tiers"])
    return UserPopulation(**kwargs)


def population_spec(population: UserPopulation) -> str:
    """The canonical ``--population`` spelling (inverse of
    :func:`parse_population_spec` for registry-named tier sets)."""
    # Imported here for the same circularity reason as the parsers.
    from repro.config.specs import format_kv_spec
    pairs: List[Tuple[str, object]] = [
        ("users", population.users),
        ("think", repr(population.think_time)),
        ("concurrency", population.concurrency),
        ("session", population.session_len),
    ]
    if population.decode_len is not None:
        pairs.append(("decode", population.decode_len))
    pairs.append(("seed", population.seed))
    if population.tiers.label in TIER_POLICIES:
        pairs.append(("tiers", population.tiers.label))
    return format_kv_spec(pairs)


class ClosedLoopDriver:
    """Drives a :class:`UserPopulation` against a live engine.

    The feedback loop: each user starts ``concurrency`` requests
    (staggered by think-time draws), and every completion schedules
    that user's next request at ``completion + think``. Submissions
    stop once a user's next arrival would cross ``horizon``;
    everything submitted runs to completion, so a closed-loop run
    never loses requests.

    Each think-time draw schedules the user's next submission as an
    event on the target's :attr:`clock` (one handler kind the driver
    registers), so a :class:`~repro.sim.fleet.FleetEngine` routes the
    request on replica state at its arrival instant, and one
    ``drain()`` plays the whole closed loop -- for a single
    :class:`~repro.sim.engine.ServingEngine` and for a fleet, whose
    replicas share that one clock. Determinism: all draws come from
    the population's per-user streams, so the same (population,
    engine config, horizon) triple reproduces the same submissions on
    every run.
    """

    def __init__(self, population: UserPopulation, engine: Any,
                 horizon: float) -> None:
        if not horizon > 0 or not math.isfinite(horizon):
            raise ConfigError(
                "closed-loop horizon must be positive and finite")
        self._population = population
        self._engine = engine
        self._horizon = horizon
        self._assignments = population.assignments()
        self._rngs = [population.user_rng(index)
                      for index in range(population.users)]
        self._positions = [0] * population.users
        # Each user's id, and the label of its current session, built
        # once and shared by every record, trace row and fleet map.
        self._user_ids = [population.user_id(index)
                          for index in range(population.users)]
        self._sessions: List[Optional[str]] = [None] * population.users
        self.submitted_by_user = [0] * population.users
        self.completed_by_user = [0] * population.users
        # id(record) -> issuing user; records live in the engine's
        # accumulator for the run, so ids stay unique.
        self._owner: Dict[int, int] = {}
        self._ran = False
        self._clock = engine.clock
        self._k_submit = self._clock.register_handler(self._on_submit)
        engine.add_listener(self._on_complete)

    def _schedule(self, user: int, when: float) -> None:
        """File ``user``'s next submission at its arrival time."""
        self._clock.schedule_event_at(when, self._k_submit, user)

    def _on_submit(self, sim: "Simulation", user: int) -> None:
        """Handler: submit ``user``'s request at the clock's now."""
        when = sim.now
        population = self._population
        uid = self._user_ids[user]
        position = self._positions[user]
        self._positions[user] = position + 1
        if position % population.session_len == 0:
            self._sessions[user] = _session_label(
                uid, position // population.session_len)
        record = self._engine.submit(
            when, decode_len=population.decode_len, user_id=uid,
            session_id=self._sessions[user],
            tier=self._assignments[user].name)
        self._owner[id(record)] = user
        self.submitted_by_user[user] += 1

    def _on_complete(self, record: Any) -> None:
        user = self._owner.pop(id(record), None)
        if user is None:
            return  # not ours (the engine may carry other traffic)
        self.completed_by_user[user] += 1
        next_time = record.completion_time + _exponential(
            self._rngs[user], self._population.think_time)
        if next_time < self._horizon:
            self._schedule(user, next_time)

    def run(self) -> None:
        """Play the closed loop to completion (single use).

        Raises:
            ConfigError: when re-run, or when no user's first arrival
                fits under the horizon.
        """
        if self._ran:
            raise ConfigError(
                "closed-loop driver already ran; build a new driver "
                "(and a new engine) for the next run")
        self._ran = True
        population = self._population
        started = 0
        for user in range(population.users):
            rng = self._rngs[user]
            for _ in range(population.concurrency):
                when = _exponential(rng, population.think_time)
                if when < self._horizon:
                    self._schedule(user, when)
                    started += 1
        if not started:
            raise ConfigError(
                "horizon too short: no user issued a request; raise "
                "the horizon or lower the think time")
        self._engine.drain()

    # -- outcome introspection -----------------------------------------

    @property
    def submitted(self) -> int:
        """Requests issued across all users."""
        return sum(self.submitted_by_user)

    @property
    def completed(self) -> int:
        """Requests finished across all users."""
        return sum(self.completed_by_user)

    def tier_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tier ``{"submitted": n, "completed": n}`` totals,
        sorted by tier name."""
        counts: Dict[str, Dict[str, int]] = {}
        for user in range(self._population.users):
            tier = self._assignments[user].name
            bucket = counts.setdefault(tier,
                                       {"submitted": 0, "completed": 0})
            bucket["submitted"] += self.submitted_by_user[user]
            bucket["completed"] += self.completed_by_user[user]
        return {tier: counts[tier] for tier in sorted(counts)}
