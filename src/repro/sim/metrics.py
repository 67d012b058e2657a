"""Serving-simulation data types and the incremental metrics pipeline.

Everything the DES measures lives here: the per-request lifecycle
(:class:`RequestRecord`), latency targets (:class:`SLOTarget`), the
run artifact (:class:`ServingReport`), and the
:class:`MetricsAccumulator` that builds it **incrementally** -- a
completion is recorded as it happens and folded in, once and in
completion order, by the next read, so a live front-end can snapshot
running statistics mid-flight (:class:`LiveSnapshot`) while a batch
replay still gets the exact aggregates the pre-refactor simulator
computed after the fact. A fleet replica keeps a counter-only
:class:`ReplicaTally` instead; its fleet's accumulator is the one
that builds the reservoirs.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import FrozenInstanceError, dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError
from repro.schema.stages import Stage, pipeline_stages

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schema.ragschema import RAGSchema
    from repro.workloads.traces import RequestTrace


class _StageMap(dict):
    """A record's per-stage map: a dict that rejects writes.

    Built on access from the record's timing row, so a write could
    only ever change a throwaway copy; rejecting it says so. Unlike a
    bare ``MappingProxyType`` it pickles and deep-copies
    (``__reduce__`` rebuilds it from a plain dict, never through the
    rejecting ``__setitem__``), and it still compares equal to a dict
    with the same items.
    """

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a RequestRecord's stage maps are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (_StageMap, (dict(self),))


class _StageTimings:
    """The one store of per-request timings: per-stage enqueue,
    completion and queue-wait times, one row of ``len(stages)`` floats
    per request, plus each request's first-token and completion time.

    The five columns are flat ``array('d')`` slabs, NaN marking a
    stage the request never reached or a moment not yet reached. An
    engine owns one holder, writes its arrays in place as the
    simulation advances, and every record it submits reads row
    ``slab`` from it. A record rebuilt by pickle or copy, or handed
    its times by a caller (:meth:`one_row`), owns a one-row holder
    whose single row is its ``slab`` (``first``). The attributes are
    never reassigned (an engine's arrays only grow in place), and a
    holder refers to no engine or fleet, so finished records keep
    their times after the serving graph is freed.
    """

    __slots__ = ("stages", "first", "enq", "comp", "wait", "first_token",
                 "completion")

    def __init__(self, stages: Tuple[Stage, ...], first: int = 0) -> None:
        self.stages = stages
        self.first = first
        self.enq = array("d")
        self.comp = array("d")
        self.wait = array("d")
        self.first_token = array("d")
        self.completion = array("d")

    @classmethod
    def one_row(cls, slab: int, enqueues: Mapping[Stage, float],
                completions: Mapping[Stage, float],
                waits: Mapping[Stage, float],
                first_token: Optional[float],
                completion: Optional[float]) -> "_StageTimings":
        """A holder of one row, ``slab``, holding the three maps and
        the two lifecycle times (None = unset)."""
        stages = tuple(dict.fromkeys((*enqueues, *completions, *waits)))
        timings = cls(stages, first=slab)
        for column, values in ((timings.enq, enqueues),
                               (timings.comp, completions),
                               (timings.wait, waits)):
            column.extend([values.get(stage, math.nan)
                           for stage in stages])
        for column, value in ((timings.first_token, first_token),
                              (timings.completion, completion)):
            column.append(math.nan if value is None else value)
        return timings

    def row(self, column: array, slab: int) -> List[Tuple[Stage, float]]:
        """The ``(stage, value)`` pairs set in row ``slab`` of
        ``column`` (NaN != NaN, so ``v == v`` is the "was set" test)."""
        n = len(self.stages)
        start = (slab - self.first) * n
        return [(stage, value) for stage, value
                in zip(self.stages, column[start:start + n])
                if value == value]

    def moments(self, slab: int
                ) -> Tuple[Optional[float], Optional[float]]:
        """Row ``slab``'s first-token and completion times, None where
        unset or when the holder has no such row (a record no engine
        has submitted)."""
        index = slab - self.first
        if not 0 <= index < len(self.completion):
            return None, None
        first_token = self.first_token[index]
        completion = self.completion[index]
        return (first_token if first_token == first_token else None,
                completion if completion == completion else None)


#: The holder of a record no engine has submitted: no stages, no rows.
_UNTIMED = _StageTimings(())


class _TimingSlot:
    """Gives :class:`RequestRecord` the slot that points at its timing
    holder without making the holder a dataclass field (fields are
    what records compare, copy and pickle by value)."""

    __slots__ = ("_timings",)


@dataclass(slots=True, eq=False)
class RequestRecord(_TimingSlot):
    """Lifecycle of one request through the simulated deployment.

    A record has two phases. While its request is **in flight**, the
    engine (and a fleet, which re-keys ``request_id`` at submission)
    writes its fields as the simulation advances. When the request
    finishes, the engine **seals** it (:meth:`seal`) before the
    metrics accumulator and any completion listener see it: from then
    on assigning any field raises
    :class:`~dataclasses.FrozenInstanceError`. A sealed record never
    changes again, so reports and the session's trace memo share
    finished records instead of copying them. Sealed records still
    pickle, copy and deep-copy (to sealed records) and compare equal
    field for field, stage maps included.

    The record stores no times of its own. The three per-stage maps
    are read-only properties that build a fresh dict from the record's
    row in the submitting engine's timing slabs (``slab``), and
    ``first_token_time`` / ``completion_time`` are read-only
    properties over the same row of the engine's two per-request time
    columns (NaN there reads as None). Those columns are the only
    store of the times. A live record's maps therefore list exactly
    the stages it has reached so far, and its times turn from None to
    a float as the simulation reaches them; writing to a map raises
    :class:`TypeError`, and assigning a time raises
    :class:`AttributeError` (the engine writes the columns directly).
    Pickling or copying a record gives the copy a one-row store of its
    own, so a copy never carries the whole run.

    Attributes:
        request_id: Arrival index.
        arrival: Arrival time in seconds.
        decode_len: Tokens this request generates (the workload profile's
            decode length unless per-request lengths were supplied).
        stage_completions: Completion time per pipeline stage
            (read-only).
        stage_enqueues: Last enqueue time per stage (read-only).
        queue_waits: Accumulated queueing delay per stage (a stage visited
            repeatedly, e.g. iterative re-prefix, accumulates; read-only).
        first_token_time: When the prefix stage finished (first token;
            None until then; read-only).
        completion_time: When the last decode step finished (None
            until then; read-only).
        user_id: Issuing user, when the workload carries identity
            (closed-loop populations); None for anonymous open-loop
            arrivals.
        session_id: Session the request belongs to (requests within a
            session are correlated and route sticky under
            session-affine policies); None when anonymous.
        tier: SLO tier label (e.g. ``"free"``/``"paid"``) used by
            tier-aware admission and per-tier reporting; None when
            anonymous.
        slab: Engine-local row of the request in the engine's timing
            slabs (-1 until submitted). The engine submits a request
            with ``request_id`` and ``slab`` both set to that row, but
            the field is deliberately separate: a fleet rewrites
            ``request_id`` to the fleet-wide arrival index after
            submission. Excluded from equality so records compare on
            lifecycle alone.
    """

    request_id: int
    arrival: float
    decode_len: int = 0
    user_id: Optional[str] = None
    session_id: Optional[str] = None
    tier: Optional[str] = None
    slab: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._timings = _UNTIMED

    @property
    def stage_completions(self) -> Mapping[Stage, float]:
        """Completion time per pipeline stage reached (read-only)."""
        timings = self._timings
        return _StageMap(timings.row(timings.comp, self.slab))

    @property
    def stage_enqueues(self) -> Mapping[Stage, float]:
        """Last enqueue time per stage reached (read-only)."""
        timings = self._timings
        return _StageMap(timings.row(timings.enq, self.slab))

    @property
    def queue_waits(self) -> Mapping[Stage, float]:
        """Accumulated queueing delay per stage reached (read-only)."""
        timings = self._timings
        return _StageMap(timings.row(timings.wait, self.slab))

    @property
    def first_token_time(self) -> Optional[float]:
        """When the prefix stage finished (None until it has)."""
        return self._timings.moments(self.slab)[0]

    @property
    def completion_time(self) -> Optional[float]:
        """When the last decode step finished (None until it has)."""
        return self._timings.moments(self.slab)[1]

    @property
    def ttft(self) -> Optional[float]:
        """Seconds from arrival to first token (None if unfinished)."""
        first_token = self._timings.moments(self.slab)[0]
        if first_token is None:
            return None
        return first_token - self.arrival

    @property
    def tpot(self) -> Optional[float]:
        """Mean seconds per generated token (None if unfinished)."""
        first_token, completion = self._timings.moments(self.slab)
        if completion is None or first_token is None:
            return None
        return (completion - first_token) / max(self.decode_len, 1)

    def seal(self) -> None:
        """Make the finished record read-only (once; the engine does
        this, inlined, when the request completes).

        The record switches to a subclass with the same slots whose
        ``__setattr__`` raises. Nothing is copied, and in-flight
        writes cost nothing extra: only a sealed record checks
        anything.
        """
        self.__class__ = _SealedRecord

    def _hold_stage_times(self, enqueues: Mapping[Stage, float],
                          completions: Mapping[Stage, float],
                          waits: Mapping[Stage, float],
                          first_token: Optional[float],
                          completion: Optional[float]) -> None:
        """Store these per-stage maps and lifecycle times in a one-row
        holder of the record's own (before it is sealed)."""
        self._timings = _StageTimings.one_row(
            self.slab, enqueues, completions, waits, first_token,
            completion)

    def _compared(self) -> tuple:
        return (*(getattr(self, name) for name in _COMPARED_FIELDS),
                self.first_token_time, self.completion_time,
                self.stage_completions, self.stage_enqueues,
                self.queue_waits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __reduce__(self):
        # Carry the timings by value: the copy gets a one-row holder of
        # its own instead of the submitting engine's whole slabs.
        return (_rebuilt_record,
                (self.__class__ is _SealedRecord, self.stage_enqueues,
                 self.stage_completions, self.queue_waits,
                 self.first_token_time, self.completion_time,
                 *(getattr(self, name) for name in _RECORD_FIELDS)))


class _SealedRecord(RequestRecord):
    """A finished :class:`RequestRecord`: same slots, no writes."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(
            f"cannot assign to field {name!r} of a sealed RequestRecord")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(
            f"cannot delete field {name!r} of a sealed RequestRecord")


# repr reads like the live record's; pickling goes through __reduce__,
# so the class is never looked up by this name.
_SealedRecord.__qualname__ = RequestRecord.__qualname__
_RECORD_FIELDS = tuple(spec.name for spec in fields(RequestRecord))
_COMPARED_FIELDS = tuple(spec.name for spec in fields(RequestRecord)
                         if spec.compare)


def _rebuilt_record(sealed: bool, enqueues: Mapping[Stage, float],
                    completions: Mapping[Stage, float],
                    waits: Mapping[Stage, float],
                    first_token: Optional[float],
                    completion: Optional[float],
                    *values: Any) -> RequestRecord:
    """Unpickle/copy target: a record from its field values, stage
    maps and lifecycle times (sealed again when the original was)."""
    record = RequestRecord(*values)
    record._hold_stage_times(enqueues, completions, waits, first_token,
                             completion)
    if sealed:
        record.seal()
    return record


@dataclass(frozen=True)
class SLOTarget:
    """Per-request latency targets a served request must meet.

    Attributes:
        ttft: TTFT target in seconds (None = dimension unconstrained).
        tpot: TPOT target in seconds (None = dimension unconstrained).
    """

    ttft: Optional[float] = None
    tpot: Optional[float] = None

    def __post_init__(self) -> None:
        for name, value in (("ttft", self.ttft), ("tpot", self.tpot)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"SLO {name} must be finite and positive "
                                  f"when set, got {value}")

    def check(self, record: RequestRecord) -> Dict[str, Optional[bool]]:
        """Per-dimension verdict for one completed request.

        An unconstrained dimension verdicts None; an unfinished request
        fails every constrained dimension.
        """
        ttft_ok: Optional[bool] = None
        tpot_ok: Optional[bool] = None
        if self.ttft is not None:
            ttft = record.ttft
            ttft_ok = ttft is not None and ttft <= self.ttft
        if self.tpot is not None:
            tpot = record.tpot
            tpot_ok = tpot is not None and tpot <= self.tpot
        return {"ttft": ttft_ok, "tpot": tpot_ok,
                "joint": (None if ttft_ok is None and tpot_ok is None
                          else ttft_ok is not False and tpot_ok is not False)}


def _interpolated_percentile(sorted_values: Sequence[float],
                             fraction: float) -> float:
    """Linear-interpolated percentile over pre-sorted values.

    Raises:
        ConfigError: on an empty sample (degenerate runs must surface
            as configuration errors, not index errors).
    """
    if not sorted_values:
        raise ConfigError("cannot take a percentile of zero samples")
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("percentile fraction must be in [0, 1]")
    rank = fraction * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) \
        + sorted_values[high] * weight


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every user got the same allocation, approaching ``1/n``
    as one user monopolizes it. An empty or all-zero sample scores
    0.0 (no allocation to be fair about).
    """
    total = float(sum(values))
    square_sum = float(sum(value * value for value in values))
    if not values or square_sum == 0.0:
        return 0.0
    return (total * total) / (len(values) * square_sum)


def _attainment(ttfts: Sequence[float], tpots: Sequence[float],
                slo: SLOTarget) -> Dict[str, float]:
    """SLO attainment of non-empty parallel TTFT/TPOT columns: the
    TTFT, TPOT and joint (both met) fractions."""
    count = len(ttfts)
    met_ttft = [slo.ttft is None or ttft <= slo.ttft for ttft in ttfts]
    met_tpot = [slo.tpot is None or tpot <= slo.tpot for tpot in tpots]
    return {
        "ttft": sum(met_ttft) / count,
        "tpot": sum(met_tpot) / count,
        "joint": sum(a and b for a, b in zip(met_ttft, met_tpot)) / count,
    }


def _latency_summary(sorted_values: Sequence[float]) -> Dict[str, float]:
    return {
        "mean": sum(sorted_values) / len(sorted_values),
        "p50": _interpolated_percentile(sorted_values, 0.50),
        "p95": _interpolated_percentile(sorted_values, 0.95),
        "p99": _interpolated_percentile(sorted_values, 0.99),
    }


@dataclass(frozen=True)
class ServingReport:
    """Scenario-level outcome of replaying a trace through a schedule.

    The serializable artifact behind ``repro replay``: aggregates only
    (``records`` ride along for programmatic drill-down but are
    excluded from equality and from the :mod:`repro.config` envelope).

    Attributes:
        scenario: The trace's generating scenario name.
        offered / completed: Requests injected / finished.
        duration: Seconds from first arrival to last completion.
        throughput: Completed requests per second.
        slo: The targets attainment was measured against.
        slo_attainment: Fraction of completed requests meeting the
            ``ttft`` target, the ``tpot`` target, and both (``joint``).
            An unconstrained dimension counts as met.
        ttft / tpot: mean/p50/p95/p99 latency summaries (interpolated
            percentiles, seconds).
        queueing: Per-stage queue-wait breakdown (stage name ->
            mean/p95/max wait in seconds) over completed requests.
        utilization: Busy-time fraction per pre-decode resource.
        trace_metadata: The replayed trace's metadata, for provenance.
        tiers: Per-SLO-tier breakdown (tier name -> offered/completed
            counts, per-tier SLO attainment, p95 latencies, and the
            worst per-user TTFT p95 within the tier). Empty when the
            workload carried no identity, so anonymous runs compare
            equal to pre-identity reports.
        fairness: Cross-user fairness summary -- ``users`` and a
            Jain index over per-user completion counts
            (``jain_completions``, 1.0 = perfectly even). Empty when
            anonymous.
        records: Per-request lifecycles, in submission order (not
            serialized, not compared). Finished records are sealed,
            so copies of a report may share them.
    """

    scenario: str
    offered: int
    completed: int
    duration: float
    throughput: float
    slo: SLOTarget
    slo_attainment: Dict[str, float]
    ttft: Dict[str, float]
    tpot: Dict[str, float]
    queueing: Dict[str, Dict[str, float]]
    utilization: Dict[str, float]
    trace_metadata: Dict[str, Any] = field(default_factory=dict)
    tiers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fairness: Dict[str, float] = field(default_factory=dict)
    records: Tuple[RequestRecord, ...] = field(default=(), repr=False,
                                               compare=False)

    def __post_init__(self) -> None:
        if self.completed < 0 or self.offered < 0:
            raise ConfigError("request counts must be non-negative")

    @property
    def completion_rate(self) -> float:
        """Fraction of offered requests that finished."""
        return self.completed / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class LiveSnapshot:
    """Running statistics of an in-flight engine, O(1) to take.

    Attributes:
        now: Current simulated time in seconds.
        offered: Requests submitted so far.
        completed: Requests finished so far.
        in_flight: Submitted but unfinished requests.
        throughput: Completions per second since the first arrival.
        mean_ttft / mean_tpot: Running means over completed requests
            (0.0 before the first completion).
    """

    now: float
    offered: int
    completed: int
    in_flight: int
    throughput: float
    mean_ttft: float
    mean_tpot: float


class _RunningSums:
    """The feed both metrics sinks share: the records in submission
    order, the completions in completion order, the earliest arrival
    and the TTFT/TPOT running sums behind :meth:`snapshot`.

    :meth:`finish` only records a completion. A read first folds the
    completions recorded since the last one (:meth:`_fold`), each
    through :meth:`_fold_record` and in completion order, so every sum
    is bit-identical to an eager fold's and each completion is folded
    once. A :class:`ReplicaTally` and a :class:`MetricsAccumulator`
    fed the same completions give bit-identical snapshots.
    """

    __slots__ = ("_schema", "_records", "_done", "_folded",
                 "_first_arrival", "_ttft_sum", "_ttft_count",
                 "_tpot_sum")

    def __init__(self, schema: "RAGSchema") -> None:
        self._schema = schema
        self._records: List[RequestRecord] = []
        self._done: List[RequestRecord] = []  # completion order
        self._folded = 0  # completions folded so far
        self._first_arrival: Optional[float] = None
        self._ttft_sum = 0.0
        self._ttft_count = 0
        self._tpot_sum = 0.0

    def add(self, record: RequestRecord) -> None:
        """Register a submitted request.

        Submission order is not guaranteed to be arrival order (an
        engine accepts any arrival at or after its simulated clock), so
        the earliest arrival is tracked as a running minimum rather
        than assumed to be the first record's.
        """
        self._records.append(record)
        if self._first_arrival is None \
                or record.arrival < self._first_arrival:
            self._first_arrival = record.arrival

    def finish(self, record: RequestRecord) -> None:
        """Record one completed request (its completion time set; the
        engine seals it first, so nothing it reports can change before
        the next read folds it)."""
        self._done.append(record)

    def _fold(self) -> None:
        """Fold the completions recorded since the last fold, in
        completion order."""
        done = self._done
        end = len(done)
        if self._folded < end:
            fold = self._fold_record
            for index in range(self._folded, end):
                fold(done[index])
            self._folded = end

    def _fold_record(self, record: RequestRecord) -> None:
        """Fold one completion: its latencies into the running sums."""
        timings = record._timings
        self._fold_latencies(record, timings, record.slab - timings.first)

    def _fold_latencies(self, record: RequestRecord, timings: _StageTimings,
                        row: int) -> Optional[Tuple[float, float]]:
        """Add a completed record's ``(ttft, tpot)`` to the running
        sums and return it (None when it never produced a token).
        ``row`` is the record's index in its ``timings`` columns."""
        first_token = timings.first_token[row]
        if first_token != first_token:
            return None
        # Same arithmetic as the ttft/tpot properties, inlined over the
        # columns: this runs once per completion on the hot path.
        ttft = first_token - record.arrival
        decode_len = record.decode_len
        tpot = (timings.completion[row] - first_token) \
            / (decode_len if decode_len > 1 else 1)
        self._ttft_sum += ttft
        self._ttft_count += 1
        self._tpot_sum += tpot
        return ttft, tpot

    @property
    def offered(self) -> int:
        """Requests registered so far."""
        return len(self._records)

    @property
    def completed(self) -> int:
        """Requests finished so far."""
        return len(self._done)

    @property
    def records(self) -> Tuple[RequestRecord, ...]:
        """All registered records, in submission order (a snapshot:
        the sink's own list is never handed out)."""
        return tuple(self._records)

    def snapshot(self, now: float) -> LiveSnapshot:
        """Running statistics at simulated time ``now`` (amortized
        O(1): the completions since the last read are folded first)."""
        self._fold()
        offered, completed = len(self._records), len(self._done)
        elapsed = 0.0
        if self._first_arrival is not None:
            elapsed = max(now - self._first_arrival, 0.0)
        count = self._ttft_count
        return LiveSnapshot(
            now=now,
            offered=offered,
            completed=completed,
            in_flight=offered - completed,
            throughput=completed / elapsed if elapsed > 0 else 0.0,
            mean_ttft=self._ttft_sum / count if count else 0.0,
            mean_tpot=self._tpot_sum / count if count else 0.0,
        )

    def recorded_trace(self, **metadata: Any) -> "RequestTrace":
        """The registered submissions as one replayable trace.

        Every engine submission carries an explicit decode length, so
        the trace replays to the same per-request lifecycles. Requests
        come out in arrival order (a stable sort, so same-instant
        submissions keep their tie-break rank); submission order may
        differ when the caller injected out-of-order timestamps.
        Metadata defaults to ``{"scenario": "live"}``; keyword
        arguments merge on top.

        Raises:
            ConfigError: when nothing has been submitted (an empty
                trace is not representable).
        """
        from repro.workloads.traces import RequestTrace

        if not self._records:
            raise ConfigError("no submissions recorded; an empty trace "
                              "cannot be built")
        merged: Dict[str, Any] = {"scenario": "live"}
        merged.update(metadata)
        ordered = sorted(self._records, key=lambda r: r.arrival)
        return RequestTrace.from_columns(
            *([getattr(r, name) for r in ordered]
              for name in ("arrival", "decode_len", "user_id",
                           "session_id", "tier")),
            metadata=merged)


class MetricsAccumulator(_RunningSums):
    """Folds request lifecycles into serving statistics incrementally.

    The engine calls :meth:`add` at submission and :meth:`finish` at
    completion. :meth:`finish` only appends the record; :meth:`snapshot`,
    :meth:`tier_counts` and :meth:`report` first fold the completions
    recorded since the last read, once each and in completion order,
    so a run that is read only at its end folds every completion in
    one pass. :meth:`report` reproduces -- value for value -- the
    aggregates the pre-refactor batch simulator computed, so an
    open-loop replay through the engine stays bit-identical.

    Internally the report is built from **incremental
    reservoirs** fed by the fold -- parallel ``array('d')``
    columns of TTFT and TPOT (one pair overall and one per tier) and
    one column of waits per stage, all in completion order -- rather
    than by re-walking every record's stage maps at report time. No
    report value depends on that order: latency and wait summaries sum
    over the sorted samples, and attainment is a count, so the floats
    equal the record-walking implementation's bit for bit.
    """

    def __init__(self, schema: "RAGSchema") -> None:
        super().__init__(schema)
        self._last_completion = 0.0
        self._utilization_fn = None
        # TTFT and TPOT of each completed-with-first-token request,
        # parallel columns in completion order.
        self._ttfts = array("d")
        self._tpots = array("d")
        # stage -> waits of completed requests, in completion order.
        self._stage_waits: Dict[Stage, array] = {}
        # Identity reservoirs, fed only for records that carry
        # user/session/tier identity; all stay empty on anonymous
        # workloads so the anonymous report shape is untouched.
        self._tier_offered: Dict[str, int] = {}
        self._tier_completed: Dict[str, int] = {}
        # tier -> (ttfts, tpots) columns, completion order.
        self._tier_lat: Dict[str, Tuple[array, array]] = {}
        self._user_ttfts: Dict[str, array] = {}
        self._user_completed: Dict[str, int] = {}
        self._user_tier: Dict[str, str] = {}

    @staticmethod
    def _identity_tier(record: RequestRecord) -> Optional[str]:
        """The tier bucket a record reports under (None = anonymous)."""
        if record.tier is not None:
            return record.tier
        if record.user_id is not None or record.session_id is not None:
            return "(untiered)"
        return None

    # -- engine feed ---------------------------------------------------

    def add(self, record: RequestRecord) -> None:
        """Register a submitted request (see :meth:`_RunningSums.add`)
        and count it under its tier."""
        super().add(record)
        tier = self._identity_tier(record)
        if tier is not None:
            self._tier_offered[tier] = self._tier_offered.get(tier, 0) + 1

    def _fold_record(self, record: RequestRecord) -> None:
        """Fold one completed request into the reservoirs: its latency
        and queue-wait values (the waits straight from its timing
        row)."""
        timings = record._timings
        row = record.slab - timings.first
        completion = timings.completion[row]
        if completion > self._last_completion:
            self._last_completion = completion
        tier = self._identity_tier(record)
        if tier is not None:
            self._tier_completed[tier] = \
                self._tier_completed.get(tier, 0) + 1
            user = record.user_id
            if user is not None:
                self._user_completed[user] = \
                    self._user_completed.get(user, 0) + 1
                self._user_tier[user] = tier
        latencies = self._fold_latencies(record, timings, row)
        if latencies is not None:
            ttft, tpot = latencies
            self._ttfts.append(ttft)
            self._tpots.append(tpot)
            if tier is not None:
                columns = self._tier_lat.get(tier)
                if columns is None:
                    columns = self._tier_lat[tier] = (array("d"),
                                                      array("d"))
                columns[0].append(ttft)
                columns[1].append(tpot)
                if record.user_id is not None:
                    sample = self._user_ttfts.get(record.user_id)
                    if sample is None:
                        sample = self._user_ttfts[record.user_id] = \
                            array("d")
                    sample.append(ttft)
            # The record's wait row, read in place (NaN: stage unset).
            stage_waits = self._stage_waits
            column = timings.wait
            index = row * len(timings.stages)
            for stage in timings.stages:
                wait = column[index]
                index += 1
                if wait == wait:
                    bucket = stage_waits.get(stage)
                    if bucket is None:
                        bucket = stage_waits[stage] = array("d")
                    bucket.append(wait)

    # -- introspection -------------------------------------------------

    def tier_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tier offered/completed counts so far, sorted by tier
        name (empty when the workload carries no identity)."""
        self._fold()
        return {tier: {"offered": self._tier_offered.get(tier, 0),
                       "completed": self._tier_completed.get(tier, 0)}
                for tier in sorted(self._tier_offered)}

    # -- final artifacts -----------------------------------------------

    def report(self, trace: "RequestTrace", slo: SLOTarget,
               utilization_of: Optional[Dict[str, float]] = None,
               ) -> ServingReport:
        """The trace-replay artifact (pre-refactor ``ServingReport``).

        Args:
            trace: Supplies the scenario name and metadata.
            slo: The targets attainment is measured against.
            utilization_of: Resource-name -> busy-seconds totals; the
                accumulator normalizes them by the run duration.

        Raises:
            ConfigError: when zero requests finished -- a degenerate run
                must surface as a configuration error, not bad math.
        """
        self._fold()
        # The columns hold exactly the completed-with-first-token
        # requests.
        if not self._ttfts:
            raise ConfigError(
                "zero requests finished the replay; raise the horizon or "
                "lower the offered load before asking for a report")
        # The fold maintains the running max(completion) and add() the
        # running min(arrival); completions exist here, so neither is
        # stale.
        duration = max(self._last_completion - self._first_arrival, 1e-12)
        # Utilization keeps the engine's resource order: the report's
        # JSON is pinned byte for byte.
        utilization = {}
        if utilization_of:
            utilization = {name: min(busy / duration, 1.0)
                           for name, busy in utilization_of.items()}  # simlint: allow[unsorted-dict-iteration-in-reporting]
        ttfts = sorted(self._ttfts)
        tpots = sorted(self._tpots)
        attainment = _attainment(self._ttfts, self._tpots, slo)
        tiers = self._tier_sections(slo)
        fairness: Dict[str, float] = {}
        if self._user_completed:
            counts = [self._user_completed[user]
                      for user in sorted(self._user_completed)]
            fairness = {
                "users": float(len(counts)),
                "jain_completions": jain_index(counts),
            }
        queueing: Dict[str, Dict[str, float]] = {}
        stage_order = [stage for stage in pipeline_stages(self._schema)
                       if stage is not Stage.DECODE] + [Stage.DECODE]
        for stage in stage_order:
            bucket = self._stage_waits.get(stage)
            if not bucket:
                continue
            waits = sorted(bucket)
            queueing[stage.value] = {
                "mean_wait": sum(waits) / len(waits),
                "p95_wait": _interpolated_percentile(waits, 0.95),
                "max_wait": waits[-1],
            }
        completed = len(self._done)
        return ServingReport(
            scenario=trace.scenario,
            offered=len(self._records),
            completed=completed,
            duration=duration,
            throughput=completed / duration,
            slo=slo,
            slo_attainment=attainment,
            ttft=_latency_summary(ttfts),
            tpot=_latency_summary(tpots),
            queueing=queueing,
            utilization=utilization,
            trace_metadata=dict(trace.metadata),
            tiers=tiers,
            fairness=fairness,
            records=self.records,
        )

    def _tier_sections(self, slo: SLOTarget) -> Dict[str, Dict[str, Any]]:
        """Per-tier report sections, sorted by tier name.

        Empty when no completed request carried identity. A tier's
        attainment/percentiles cover its completed-with-first-token
        requests; ``worst_user_p95_ttft`` is the maximum per-user TTFT
        p95 inside the tier (the user the tier is failing hardest).
        """
        sections: Dict[str, Dict[str, Any]] = {}
        for tier in sorted(self._tier_lat):
            tier_ttfts, tier_tpots = self._tier_lat[tier]
            ttfts = sorted(tier_ttfts)
            tpots = sorted(tier_tpots)
            users = sorted(user for user, user_tier
                           in self._user_tier.items() if user_tier == tier)
            worst_user_p95 = 0.0
            for user in users:
                sample = self._user_ttfts.get(user)
                if sample:
                    worst_user_p95 = max(
                        worst_user_p95,
                        _interpolated_percentile(sorted(sample), 0.95))
            sections[tier] = {
                "offered": self._tier_offered.get(tier, 0),
                "completed": self._tier_completed.get(tier, 0),
                "users": len(users),
                "slo_attainment": _attainment(tier_ttfts, tier_tpots,
                                              slo),
                "ttft_p95": _interpolated_percentile(ttfts, 0.95),
                "tpot_p95": _interpolated_percentile(tpots, 0.95),
                "worst_user_p95_ttft": worst_user_p95,
            }
        return sections


class ReplicaTally(_RunningSums):
    """The counter-only metrics feed of a fleet replica.

    A :class:`~repro.sim.fleet.FleetEngine` folds every completion into
    its own :class:`MetricsAccumulator`, so its replicas keep no second
    copy of the reservoirs, tier/user maps or wait lists. A tally takes
    the same :meth:`add` / :meth:`finish` feed and keeps the replica's
    records, its completions in order (both in :class:`_RunningSums`,
    whose :meth:`snapshot` folds only the TTFT/TPOT sums) and an
    ``in_flight`` int, which the fleet's routing reads on every
    arrival.

    :meth:`report` and :meth:`tier_counts` replay that feed --
    submissions, then completions in the order they happened -- into a
    fresh accumulator on demand (:meth:`accumulator`), so they equal
    what a full accumulator on the replica would have built.
    """

    __slots__ = ("in_flight",)

    def __init__(self, schema: "RAGSchema") -> None:
        super().__init__(schema)
        self.in_flight = 0

    def add(self, record: RequestRecord) -> None:
        """Register a submitted request."""
        super().add(record)
        self.in_flight += 1

    def finish(self, record: RequestRecord) -> None:
        """Record one completed request."""
        self._done.append(record)
        self.in_flight -= 1

    def accumulator(self) -> MetricsAccumulator:
        """A full accumulator over the records so far: every record
        added in submission order, the completed ones finished in
        completion order (the feed a standalone accumulator gets)."""
        accumulator = MetricsAccumulator(self._schema)
        for record in self._records:
            accumulator.add(record)
        for record in self._done:
            accumulator.finish(record)
        return accumulator

    def tier_counts(self) -> Dict[str, Dict[str, int]]:
        """See :meth:`MetricsAccumulator.tier_counts`."""
        return self.accumulator().tier_counts()

    def report(self, trace: "RequestTrace", slo: SLOTarget,
               utilization_of: Optional[Dict[str, float]] = None,
               ) -> ServingReport:
        """See :meth:`MetricsAccumulator.report`."""
        return self.accumulator().report(trace, slo, utilization_of)
