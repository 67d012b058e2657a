"""Pluggable batching and admission policies for the serving DES.

The batching/admission logic used to be hardwired inside the
simulator's stations; these interfaces make each decision point a
policy object so scenario studies swap strategies instead of forking
the simulator:

* :class:`DispatchPolicy` -- when a pre-decode batch station fires and
  how many queued requests it takes. Variants: deadline flush (the
  default; matches the paper's "dispatch when full, or after max_wait
  with a partial batch"), strict full batch, and size capped.
* :class:`AdmissionPolicy` -- how many waiting sequences the
  continuous-batching decode executor admits at a step boundary.
  Variants: greedy slot filling (default) and a token-budget admission
  that bounds the live KV footprint.

Policies are stateless frozen dataclasses: one instance can serve many
stations and is safely shared across simulator builds. The named
registries hold the policies that are usable with zero configuration:
``DISPATCH_POLICIES`` backs the CLI's ``--dispatch`` selection and
``ADMISSION_POLICIES`` its ``--admission`` names. Parameterized
policies spell their parameter inline -- ``token-budget=4096`` -- and
are parsed by :func:`parse_admission_policy`;
:func:`admission_spec` is the inverse, so a selection round-trips
through a ``--json`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError, lookup

__all__ = [
    "DispatchPolicy",
    "DeadlineFlushPolicy",
    "FullBatchPolicy",
    "SizeCappedPolicy",
    "AdmissionPolicy",
    "GreedyAdmission",
    "TokenBudgetAdmission",
    "PriorityAdmission",
    "DISPATCH_POLICIES",
    "ADMISSION_POLICIES",
    "resolve_dispatch_policy",
    "resolve_admission_policy",
    "parse_admission_policy",
    "admission_spec",
]


@dataclass(frozen=True)
class DispatchPolicy:
    """Decides when a batch station dispatches and how much it takes.

    Subclasses override :meth:`take` (and optionally
    :meth:`flush_delay` / :meth:`flush_take`). ``max_wait`` of None
    means "resolve to the stage's own batch latency at build time"
    (see :meth:`resolve`), the tail-deadlock guard the paper's serving
    model uses.
    """

    max_wait: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_wait is not None and not (self.max_wait >= 0):
            raise ConfigError("max_wait must be non-negative")

    @property
    def name(self) -> str:
        """Registry name (kebab-case class name by default)."""
        return type(self).__name__.replace("Policy", "").lower()

    def resolve(self, default_wait: float) -> "DispatchPolicy":
        """A concrete copy with ``max_wait`` filled from the stage
        default when unset."""
        if self.max_wait is not None:
            return self
        return replace(self, max_wait=default_wait)

    # -- decision points ----------------------------------------------

    def take(self, queued: int, batch_size: int, waited: float) -> int:
        """How many requests to dispatch right now (0 = keep waiting).

        Args:
            queued: Requests currently waiting at the station.
            batch_size: The schedule's batch size for this stage.
            waited: Seconds the oldest queued request has waited.
        """
        raise NotImplementedError

    def flush_delay(self, waited: float) -> Optional[float]:
        """Seconds until a forced partial-batch flush (None = never)."""
        if self.max_wait is None:
            return None
        return self.max_wait - waited

    def flush_take(self, queued: int, batch_size: int) -> int:
        """Batch size of a forced flush."""
        return min(batch_size, queued)


@dataclass(frozen=True)
class DeadlineFlushPolicy(DispatchPolicy):
    """Dispatch when the batch is full, or once the oldest request has
    waited ``max_wait`` (the simulator's historical default)."""

    @property
    def name(self) -> str:
        return "deadline-flush"

    def take(self, queued: int, batch_size: int, waited: float) -> int:
        full = queued >= batch_size
        stale = self.max_wait is not None and waited >= self.max_wait
        if full or stale:
            return min(batch_size, queued)
        return 0


@dataclass(frozen=True)
class FullBatchPolicy(DispatchPolicy):
    """Dispatch only complete batches; never flush a partial one.

    Maximizes per-dispatch efficiency at the cost of tail latency: the
    last ``offered mod batch_size`` requests of a finite trace can wait
    forever (they are reported as unfinished).
    """

    @property
    def name(self) -> str:
        return "full-batch"

    def resolve(self, default_wait: float) -> "DispatchPolicy":
        return self  # no deadline to fill in

    def take(self, queued: int, batch_size: int, waited: float) -> int:
        return batch_size if queued >= batch_size else 0

    def flush_delay(self, waited: float) -> Optional[float]:
        return None


@dataclass(frozen=True)
class SizeCappedPolicy(DispatchPolicy):
    """Deadline flush with dispatches capped below the schedule's batch.

    Trades peak station efficiency for lower batching delay -- the
    knob the paper's micro-batching ablation turns.

    Attributes:
        cap: Largest dispatch this station may issue (>= 1).
    """

    cap: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cap < 1:
            raise ConfigError("cap must be at least 1")

    @property
    def name(self) -> str:
        return "size-capped"

    def _effective(self, batch_size: int) -> int:
        return min(self.cap, batch_size)

    def take(self, queued: int, batch_size: int, waited: float) -> int:
        effective = self._effective(batch_size)
        full = queued >= effective
        stale = self.max_wait is not None and waited >= self.max_wait
        if full or stale:
            return min(effective, queued)
        return 0

    def flush_take(self, queued: int, batch_size: int) -> int:
        return min(self._effective(batch_size), queued)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Decides how many waiting sequences decode admits at a step
    boundary."""

    #: Policies that rank waiting sequences set this True so the
    #: decode executors consult :meth:`priority` on every enqueue;
    #: the stock FIFO policies skip that work entirely.
    reorders_waiting: ClassVar[bool] = False

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Admission", "").lower()

    def admit(self, waiting_lens: Sequence[int],
              running_remaining: Sequence[int], capacity: int) -> int:
        """How many of the waiting sequences to admit (FIFO prefix).

        Args:
            waiting_lens: Decode lengths of the waiting sequences, in
                queue order.
            running_remaining: Tokens left for each sequence already in
                the running batch.
            capacity: The schedule's decode batch size.
        """
        raise NotImplementedError

    def priority(self, record: Any) -> int:
        """Rank a request for the decode waiting queue (higher first).

        Only consulted when :attr:`reorders_waiting` is True. Requests
        keep FIFO order within a rank, so the default constant rank is
        exactly the historical FIFO queue.
        """
        return 0


@dataclass(frozen=True)
class GreedyAdmission(AdmissionPolicy):
    """Fill every free slot immediately (the historical default)."""

    def admit(self, waiting_lens: Sequence[int],
              running_remaining: Sequence[int], capacity: int) -> int:
        return max(0, min(len(waiting_lens),
                          capacity - len(running_remaining)))


@dataclass(frozen=True)
class TokenBudgetAdmission(AdmissionPolicy):
    """Admit while the batch's outstanding token debt stays under a
    budget.

    Bounds the KV-cache footprint the running batch can grow to: a
    sequence only joins when its full decode length fits under
    ``max_tokens`` alongside everything still generating.

    Attributes:
        max_tokens: Ceiling on the summed remaining decode tokens of
            the running batch.
    """

    max_tokens: int = 0

    def __post_init__(self) -> None:
        if self.max_tokens <= 0:
            raise ConfigError("max_tokens must be positive")

    @property
    def name(self) -> str:
        return "token-budget"

    def admit(self, waiting_lens: Sequence[int],
              running_remaining: Sequence[int], capacity: int) -> int:
        if waiting_lens and waiting_lens[0] > self.max_tokens:
            # Admission is a FIFO prefix: a head request that cannot fit
            # even an empty batch would wedge the executor forever (and
            # head-of-line block everything behind it), so fail loudly.
            raise ConfigError(
                f"request decode length {waiting_lens[0]} exceeds the "
                f"admission token budget {self.max_tokens}; raise "
                f"max_tokens or cap decode lengths")
        slots = capacity - len(running_remaining)
        debt = sum(running_remaining)
        count = 0
        for length in waiting_lens:
            if count >= slots or debt + length > self.max_tokens:
                break
            debt += length
            count += 1
        return count


@dataclass(frozen=True)
class PriorityAdmission(AdmissionPolicy):
    """Tier-ranked admission: high-priority tiers jump the decode queue.

    Slot accounting is greedy, but the waiting queue itself is kept in
    tier-priority order (FIFO within a tier), so under overload the
    contended decode slots go to ``paid`` sequences first and ``free``
    traffic absorbs the queueing delay. Nothing is dropped -- shedding
    is deferral, which is what keeps the zero-loss serving contract.

    Attributes:
        tier_priority: ``(tier name, rank)`` pairs; higher ranks admit
            first. Requests with no tier (or an unlisted one) rank 0,
            sharing the queue with the lowest default tier.
    """

    tier_priority: Tuple[Tuple[str, int], ...] = (("free", 0), ("paid", 1))

    reorders_waiting: ClassVar[bool] = True

    def __post_init__(self) -> None:
        names = [name for name, _ in self.tier_priority]
        if len(names) != len(set(names)):
            raise ConfigError(
                f"duplicate tier in priority admission: {names}")

    @property
    def name(self) -> str:
        return "priority"

    def priority(self, record: Any) -> int:
        tier = getattr(record, "tier", None)
        if tier is not None:
            for name, rank in self.tier_priority:
                if name == tier:
                    return rank
        return 0

    def admit(self, waiting_lens: Sequence[int],
              running_remaining: Sequence[int], capacity: int) -> int:
        return max(0, min(len(waiting_lens),
                          capacity - len(running_remaining)))


#: Named dispatch policies for the CLI / config front-ends. Values are
#: zero-argument factories returning the default-configured policy.
DISPATCH_POLICIES: Dict[str, Callable[[], DispatchPolicy]] = {
    "deadline-flush": DeadlineFlushPolicy,
    "full-batch": FullBatchPolicy,
    "size-capped": SizeCappedPolicy,
}

#: Named admission policies for the CLI / config front-ends.
ADMISSION_POLICIES: Dict[str, Callable[[], AdmissionPolicy]] = {
    "greedy": GreedyAdmission,
    "priority": PriorityAdmission,
}


def resolve_dispatch_policy(
        policy: Union[None, str, DispatchPolicy]) -> DispatchPolicy:
    """Normalize a dispatch-policy argument (None/name/instance)."""
    if policy is None:
        return DeadlineFlushPolicy()
    if isinstance(policy, DispatchPolicy):
        return policy
    return lookup(DISPATCH_POLICIES, policy, "dispatch policy")()


def resolve_admission_policy(
        policy: Union[None, str, AdmissionPolicy]) -> AdmissionPolicy:
    """Normalize an admission-policy argument (None/name/instance)."""
    if policy is None:
        return GreedyAdmission()
    if isinstance(policy, AdmissionPolicy):
        return policy
    hint = ("; parameterized: token-budget=<int>"
            if str(policy).partition("=")[0] == "token-budget" else "")
    return lookup(ADMISSION_POLICIES, policy, "admission policy", hint)()


def _tier_priority_value(value: str) -> Tuple[Tuple[str, int], ...]:
    """Convert ``free:0|paid:1`` into ``tier_priority`` pairs.

    Raises ``ValueError`` (not :class:`ConfigError`) so it plugs into
    the shared spec-value converter, which owns the diagnostic shape.
    """
    pairs = []
    for part in value.split("|"):
        name, colon, rank = part.partition(":")
        name = name.strip()
        if not colon or not name:
            raise ValueError(part)
        pairs.append((name, int(rank.strip())))
    return tuple(pairs)


def parse_admission_policy(
        spec: Union[None, str, AdmissionPolicy]) -> AdmissionPolicy:
    """Parse a CLI/config admission selection, values included.

    Accepts everything :func:`resolve_admission_policy` does, plus the
    parameterized ``name=value`` syntax: ``token-budget=<int>`` (the
    decode-KV ceiling) and ``priority=<tier>:<rank>|...`` (an explicit
    tier ranking overriding the default free/paid pair).

    Raises:
        ConfigError: on an unknown name, a value on a policy that
            takes none, a missing or non-integer token budget, or a
            non-positive one (the policy's own validation).
    """
    if spec is None or isinstance(spec, AdmissionPolicy):
        return resolve_admission_policy(spec)
    # Imported here: repro.config pulls in the sim package for its
    # envelope serializers, so a top-level import would be circular.
    from repro.config.specs import convert_spec_value

    name, equals, value = spec.partition("=")
    name = name.strip()
    if not equals:
        if name == "token-budget":
            raise ConfigError(
                "token-budget admission needs a budget: pass "
                "token-budget=<int> (e.g. token-budget=4096)")
        return resolve_admission_policy(name)
    if name == "token-budget":
        max_tokens = convert_spec_value(
            value, int, label="admission", key="token-budget",
            expected="token-budget=<int>")
        return TokenBudgetAdmission(max_tokens=max_tokens)
    if name == "priority":
        tier_priority = convert_spec_value(
            value, _tier_priority_value, label="admission",
            key="priority", expected="priority=<tier>:<rank>|...")
        return PriorityAdmission(tier_priority=tier_priority)
    if name in ADMISSION_POLICIES:
        raise ConfigError(
            f"admission policy {name!r} takes no value; drop "
            f"'={value}'")
    return resolve_admission_policy(name)  # uniform unknown-name error


def admission_spec(policy: AdmissionPolicy) -> str:
    """The CLI spelling of an admission policy.

    The inverse of :func:`parse_admission_policy`: the returned string
    parses back to an equal policy, which is how a ``--json`` artifact
    round-trips parameterized admission.
    """
    if isinstance(policy, TokenBudgetAdmission):
        return f"token-budget={policy.max_tokens}"
    if isinstance(policy, PriorityAdmission) \
            and policy.tier_priority != PriorityAdmission().tier_priority:
        ranking = "|".join(f"{name}:{rank}"
                           for name, rank in policy.tier_priority)
        return f"priority={ranking}"
    return policy.name
