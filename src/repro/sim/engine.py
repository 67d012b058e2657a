"""Discrete-event core and the incremental serving engine.

Two layers live here:

* :class:`Simulation` / :class:`EventQueue` -- the minimal DES kernel.
  Components register a handler per integer event kind and schedule
  ``(kind, payload)`` events at absolute or relative times; events run
  in time order and ties break by insertion order, which keeps runs
  deterministic. ``run`` can stop at a horizon and be resumed, so the
  same kernel drives both batch replays and incremental stepping.
* :class:`ServingEngine` -- the request-level serving network (batch
  stations time-multiplexing placement-group resources, a retrieval
  tier, a continuous-batching decode executor) with an **explicit
  lifecycle**: :meth:`~ServingEngine.submit` injects one request,
  :meth:`~ServingEngine.step` advances simulated time to a bound, and
  :meth:`~ServingEngine.drain` runs the network empty. Requests can be
  submitted *while* time advances, which is what turns the simulator
  from a closed-box trace replayer into the core of a live,
  socket-facing front-end (:mod:`repro.serve`).

:func:`submit_trace` is the one open-loop feeder (engine or fleet);
:class:`~repro.sim.serving.ServingSimulator` drives it over a whole
trace, drains, and returns the trace's
:class:`~repro.sim.metrics.ServingReport` -- the one run result an
engine or fleet produces (:meth:`ServingEngine.report`) -- reproducing
the pre-refactor replay bit for bit (pinned by tests). Into a
standalone engine the trace *streams*: one arrival event is queued at
a time and queues the next row when it runs, under sequence numbers
reserved up front, so ties break as if every row had been submitted
at once while the queue and the records grow only with the arrivals
so far. A fleet routes each request at submission, so it still gets
one ``submit`` per row up front.

The network runs on one heap of ``(time, sequence, kind, arg)``
entries (integer event kinds dispatched through a handler table,
timestamps drained in batches, the clock a plain attribute), flat
``array('d')`` per-stage timing slabs instead of per-request dicts,
and a bucketized decode executor that is O(1) amortized per
step and schedules an advance event only at the steps where a sequence
leaves the batch or a waiting request can join, sleeping through the
rest (a long sleep ends with a pre-advance one boundary early, so the
advance ties with same-time events as a per-step loop's would).
The original closure-per-event wiring, one event per decode step,
survives only as the test reference (``tests/reference_engine.py``);
parity tests pin the engine to bit-identical
:class:`~repro.sim.metrics.ServingReport`\\ s against it on every
registered scenario, and its event count to the reference's once each
advance is counted as the decode steps it crossed.

The timing slabs are the only store of per-request times: they live
in a holder that references no engine, every record reads its row
from it, a record's ``stage_enqueues`` / ``stage_completions`` /
``queue_waits`` are read-only dicts built from that row on access, and
its ``first_token_time`` / ``completion_time`` read the holder's two
per-request time columns.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from array import array
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigError
from repro.pipeline.assembly import Schedule, derive_retrieval_servers
from repro.pipeline.stage_perf import RAGPerfModel
from repro.schema.stages import Stage, pipeline_stages
from repro.sim.metrics import (
    LiveSnapshot,
    MetricsAccumulator,
    ReplicaTally,
    RequestRecord,
    ServingReport,
    SLOTarget,
    _SealedRecord,
    _StageTimings,
)
from repro.sim.policies import (
    AdmissionPolicy,
    DispatchPolicy,
    GreedyAdmission,
    PriorityAdmission,
    resolve_admission_policy,
    resolve_dispatch_policy,
)
from repro.workloads.traces import RequestTrace

#: Per-stage dispatch selection: one policy (or registry name) for all
#: stages, or a mapping from stage to policy/name.
DispatchSelection = Union[None, str, DispatchPolicy,
                          Mapping[Stage, Union[str, DispatchPolicy]]]


class EventQueue:
    """Priority queue of kind-dispatched events.

    The heap holds one ``(time, sequence, kind, arg)`` entry per event.
    Every entry takes a unique sequence number (the next one, or one
    set aside by :meth:`reserve`), so ties break by insertion order,
    which keeps runs deterministic, and the heap never compares a
    ``kind`` or an ``arg``. Kinds are registered on the owning
    :class:`Simulation`, whose :meth:`~Simulation.run` drains the queue
    through its handler table.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._counter = itertools.count()

    def push_event(self, time: float, kind: int, arg: Any) -> None:
        """Schedule a kind-dispatched event at an absolute time."""
        if not (time >= 0):  # NaN too: it would never pop
            raise ConfigError("event time must be non-negative")
        heapq.heappush(self._heap, (time, next(self._counter), kind, arg))

    def reserve(self, count: int) -> int:
        """Set aside ``count`` consecutive sequence numbers and return
        the first; later pushes number on after them.

        An event pushed later with :meth:`push_reserved` under a
        reserved number ties exactly as it would have, had it been
        pushed at reservation time.
        """
        first = next(self._counter)
        self._counter = itertools.count(first + count)
        return first

    def push_reserved(self, time: float, sequence: int, kind: int,
                      arg: Any) -> None:
        """Schedule an event under a sequence number from
        :meth:`reserve` (``time`` is the caller's to check)."""
        heapq.heappush(self._heap, (time, sequence, kind, arg))

    def peek_time(self) -> float:
        """The earliest scheduled time without removing the event.

        Raises:
            ConfigError: when the queue is empty -- there is no earliest
                event to peek at.
        """
        if not self._heap:
            raise ConfigError(
                "cannot peek an empty event queue: no events are "
                "scheduled")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Simulation:
    """Event loop with a monotonically advancing clock.

    Event dispatch goes through an integer-kind handler table:
    components register one handler per event kind via
    :meth:`register_handler` and schedule ``(kind, payload)`` pairs, so
    no event allocates a closure.

    Attributes:
        now: Current simulation time in seconds (only :meth:`run`
            moves it).
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now = 0.0
        self._handlers: List[Callable[["Simulation", Any], None]] = []
        # Events executed per kind, so components sharing one clock
        # (a fleet's replicas) each count only their own events.
        self._counts: List[int] = []

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return sum(self._counts)

    def register_handler(
            self, handler: Callable[["Simulation", Any], None]) -> int:
        """Register an event handler; returns its integer kind."""
        self._handlers.append(handler)
        self._counts.append(0)
        return len(self._handlers) - 1

    def schedule_event(self, delay: float, kind: int, arg: Any) -> None:
        """Schedule a kind-dispatched event ``delay`` seconds from now."""
        if not (delay >= 0):  # NaN too: it would never pop
            raise ConfigError("delay must be non-negative")
        self._queue.push_event(self.now + delay, kind, arg)

    def schedule_event_at(self, time: float, kind: int, arg: Any) -> None:
        """Schedule a kind-dispatched event at an absolute time."""
        if time < self.now:
            raise ConfigError("cannot schedule in the past")
        self._queue.push_event(time, kind, arg)

    # simlint: hotpath
    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000) -> None:
        """Process events until the queue drains or limits are reached.

        The loop drains in timestamp batches: the clock is pinned once
        per distinct time and every event sharing it (including
        zero-delay events a handler pushes mid-batch, which take higher
        sequence numbers) runs in one inner pass -- same order the
        per-event loop produced, with one heap inspection per batch
        instead of per event.

        Args:
            until: Stop once the clock would pass this time (remaining
                events stay queued, keeping their insertion order so an
                incremental caller can resume without reordering ties).
            max_events: Safety valve against runaway simulations; a
                per-call budget, so a long-lived incremental engine can
                step indefinitely.

        Raises:
            ConfigError: when ``max_events`` is exhausted (almost always
                a modelling bug such as a self-rescheduling zero-delay
                event).
        """
        heap = self._queue._heap
        handlers = self._handlers
        counts = self._counts
        heappop = heapq.heappop
        processed = 0
        while heap:
            time = heap[0][0]
            if until is not None and time > until:
                self.now = until
                return
            self.now = time
            while heap and heap[0][0] == time:
                if processed >= max_events:
                    raise ConfigError(
                        f"simulation exceeded {max_events} events; "
                        f"likely a zero-delay event loop")
                _, _, kind, arg = heappop(heap)
                counts[kind] += 1
                processed += 1
                handlers[kind](self, arg)
        if until is not None and until > self.now:
            self.now = until


class _Resource:
    """A set of chips (or servers) that one batch occupies at a time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy = False
        # The stations sharing this resource, in release priority order.
        self.stations: List[Any] = []
        self.busy_time = 0.0

    def release(self, sim: Simulation) -> None:
        self.busy = False
        for station in self.stations:
            station.try_dispatch(sim)
            if self.busy:
                break


def _release_resource(sim: Simulation, resource: _Resource) -> None:
    """Handler for resource-free events."""
    resource.release(sim)


def _complete_batch(sim: Simulation, payload: Tuple) -> None:
    """Handler for batch-completion events."""
    payload[0]._complete(sim, payload[1])


def _flush_station(sim: Simulation, station: "_BatchStation") -> None:
    """Handler for partial-batch flush events."""
    station._flush(sim)


class _BatchStation:
    """One pipeline stage batching requests on a shared resource.

    A batch occupies the resource for its *initiation interval*
    (``batch / throughput``): pipeline-parallel prefill overlaps
    consecutive batches, so the resource frees before the batch's full
    latency has elapsed; results are delivered at the latency.

    When to fire and how much to take are delegated to a
    :class:`~repro.sim.policies.DispatchPolicy` (already resolved
    against this stage's default deadline). Free/complete/flush events
    are scheduled through integer kinds, and per-request bookkeeping
    writes the engine's flat ``array('d')`` per-stage timing slabs
    (NaN = untouched), which the records read their stage maps from;
    no record holds a dict of its own.
    """

    __slots__ = ("stage", "batch_size", "perf_fn", "resource", "policy",
                 "queue", "_oldest_enqueue", "_flush_scheduled", "_eng",
                 "_q", "_si", "_enq", "_comp", "_wait", "_first_token",
                 "_n", "_downstream", "_sets_first_token")

    def __init__(self, stage: Stage, batch_size: int,
                 perf_fn: Callable[[int], "object"], resource: _Resource,
                 engine: "ServingEngine",
                 downstream: Callable[[Simulation, RequestRecord], None],
                 policy: DispatchPolicy, sets_first_token: bool) -> None:
        self.stage = stage
        self.batch_size = batch_size
        self.perf_fn = perf_fn
        self.resource = resource
        self.policy = policy
        self.queue: List[RequestRecord] = []
        self._oldest_enqueue: Optional[float] = None
        self._flush_scheduled = False
        self._eng = engine
        self._q = engine._queue  # direct free/complete pushes
        self._si = engine._stage_slot[stage]
        # The slab arrays are extended in place and never reassigned, so
        # stations can hold direct references (one attribute load per
        # hot-path touch instead of two).
        self._enq = engine._slab_enq
        self._comp = engine._slab_comp
        self._wait = engine._slab_wait
        self._first_token = engine._slab_first_token
        self._n = engine._nstages
        self._downstream = downstream
        self._sets_first_token = sets_first_token
        resource.stations.append(self)

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        self.queue.append(record)
        self._enq[record.slab * self._n + self._si] = sim.now
        if self._oldest_enqueue is None:
            self._oldest_enqueue = sim.now
        self.try_dispatch(sim)

    def try_dispatch(self, sim: Simulation) -> None:
        if self.resource.busy or not self.queue:
            return
        waited = sim.now - self._oldest_enqueue
        take = self.policy.take(len(self.queue), self.batch_size, waited)
        if take > 0:
            self._dispatch(sim, take)
        elif not self._flush_scheduled:
            delay = self.policy.flush_delay(waited)
            if delay is not None:
                self._flush_scheduled = True
                sim.schedule_event(max(delay, 0.0), self._eng._k_flush,
                                   self)

    def _flush(self, sim: Simulation) -> None:
        # Force-dispatch the partial batch (float rounding must not turn
        # the staleness check into a zero-delay reschedule loop).
        self._flush_scheduled = False
        if not self.resource.busy and self.queue:
            self._dispatch(sim, self.policy.flush_take(len(self.queue),
                                                       self.batch_size))

    # simlint: hotpath
    def _dispatch(self, sim: Simulation, take: int) -> None:
        batch = self.queue[:take]
        del self.queue[:take]
        now = sim.now
        eng = self._eng
        n = self._n
        si = self._si
        enq = self._enq
        wait = self._wait
        for record in batch:
            i = record.slab * n + si
            prev = wait[i]
            delta = now - enq[i]
            wait[i] = delta if prev != prev else prev + delta
        self._oldest_enqueue = now if self.queue else None
        self.resource.busy = True
        perf = self.perf_fn(take)
        latency = perf.latency
        occupancy = take / perf.request_qps
        if occupancy > latency:
            occupancy = latency
        self.resource.busy_time += occupancy
        # schedule_event's check, inlined: 0 <= occupancy <= latency
        # covers both delays, NaN included.
        if not (0.0 <= occupancy <= latency):
            raise ConfigError("delay must be non-negative")
        q = self._q
        heap = q._heap
        heapq.heappush(heap, (now + occupancy, next(q._counter),
                              eng._k_free, self.resource))
        heapq.heappush(heap, (now + latency, next(q._counter),
                              eng._k_complete, (self, batch)))

    # simlint: hotpath
    def _complete(self, sim: Simulation,
                  batch: List[RequestRecord]) -> None:
        now = sim.now
        n = self._n
        si = self._si
        comp = self._comp
        for record in batch:
            comp[record.slab * n + si] = now
        downstream = self._downstream
        if self._sets_first_token:
            first_token = self._first_token
            for record in batch:
                slab = record.slab
                if first_token[slab] != first_token[slab]:  # NaN: unset
                    first_token[slab] = now
                downstream(sim, record)
        else:
            for record in batch:
                downstream(sim, record)


class _DecodeExecutor:
    """Bucketized continuous-batching decode.

    Sequences join at step boundaries and leave after their own decode
    length (variable-length requests mix in the batch, which is why the
    paper reports worst-case TPOT). *Who* joins at a step boundary is
    the :class:`~repro.sim.policies.AdmissionPolicy`'s call. For
    iterative schemas (Case III), a sequence that hits one of its
    retrieval positions leaves the batch through ``retrieval_hook`` (to
    the retrieval + re-prefix stations) and re-joins via :meth:`accept`
    when the new context has been integrated.

    The executor does O(1) amortized work per step and schedules an
    advance event only at the steps where something can happen:

    * Each live sequence's next interesting step (finish, or departure
      to iterative retrieval) is computed once at admission and the
      entry is filed in a per-step *bucket*; the advance event touches
      only the bucket due at that step instead of walking the whole
      batch.
    * When no boundary before the next bucketed step can admit anyone
      -- nothing is waiting, or slot-greedy admission (greedy or
      priority) is full -- the executor *sleeps*: its one advance
      event goes straight to that step (a min-heap of bucket steps
      names it), and each skipped step costs one float add instead of
      a heap event. Boundary times are
      the same ``t += step_latency`` chain a per-step loop builds, so
      every timestamp is bit-identical; the time of the boundary before
      each bucket step is chained once and kept until the step is
      crossed. A per-step loop pushes each advance one boundary ahead,
      so its tie order against events at the same time is that of a
      push there: a sleep past more than one boundary first lands a
      *pre-advance* on the boundary before its step, which pushes the
      advance itself from there (an event, not a step). Other admission
      policies (token budget, custom) step every boundary while a
      queue waits, because their inputs change every step.
    * A request reaching decode mid-sleep *wakes* the executor at the
      first boundary at or after its arrival (exactly on a skipped
      boundary, it joins there). Under greedy admission with a free
      slot nothing else can happen at that boundary, so the request is
      admitted there on the spot, without an event; other policies get
      a fresh advance there. Each advance carries a unique token, and
      one superseded by an earlier advance does nothing when it fires.
    * Admission inputs are reconstructed arithmetically
      (``remaining(s) = target + base - s``), with a closed-form fast
      path for the stock greedy / priority policies; every other policy
      (token budget, custom) gets the exact materialized lists.

    ``_step_index`` counts the decode steps crossed so far, which is the
    per-step loop's count of advance events.
    """

    def __init__(self, capacity: int, step_latency: float,
                 decode_len: int,
                 on_complete: Callable[[Simulation, RequestRecord], None],
                 admission: AdmissionPolicy, engine: "ServingEngine",
                 retrieval_hook: Optional[
                     Callable[[Simulation, RequestRecord], None]] = None,
                 positions_fn: Optional[
                     Callable[[RequestRecord], List[int]]] = None) -> None:
        self._q = engine._sim._queue  # direct pushes on the hot path
        self.capacity = capacity
        self.step_latency = step_latency
        self.decode_len = decode_len
        self.on_complete = on_complete
        self.admission = admission
        self.retrieval_hook = retrieval_hook
        self.positions_fn = positions_fn
        self.running = False
        self._eng = engine
        self._si = engine._stage_slot[Stage.DECODE]
        self._enq = engine._slab_enq
        self._wait = engine._slab_wait
        self._completion = engine._slab_completion
        self._n = engine._nstages
        # Progress/position bookkeeping only matters when requests can
        # leave decode for iterative retrieval and come back; the plain
        # pipeline skips those dict writes per request.
        self._track = retrieval_hook is not None or positions_fn is not None
        self.waiting: Deque[RequestRecord] = deque()
        self._waiting_lens: Deque[int] = deque()
        # serial -> [record, target, base, serial, positions]; dict
        # insertion order == admission order.
        self._live: Dict[int, list] = {}
        self._serial = 0
        self._buckets: Dict[int, list] = {}
        self._keys: List[int] = []  # min-heap of the bucket steps
        # Time of the boundary before each bucket step slept to so far,
        # so a wake does not make the next sleep chain the same span
        # again.
        self._key_t: Dict[int, float] = {}
        self._step_index = 0  # step boundary the clock last crossed
        # The live advance event: its step and token (older tokens are
        # stale; the negated token marks its pre-advance). The wake cache is a boundary (time, step) at or before
        # the first one a request reaching decode can join.
        self._pending = 0
        self._token = 0
        self._wake_t = 0.0
        self._wake_j = 0
        self._progress: Dict[int, int] = {}
        self._positions: Dict[int, List[int]] = {}
        self._greedy = type(admission) is GreedyAdmission
        # Policies that admit exactly the free slots (priority only
        # reorders the queue): their count is closed-form, and a queue
        # left waiting after admission means the batch is full.
        self._slot_greedy = self._greedy \
            or type(admission) is PriorityAdmission
        # Priority-aware policies reorder the waiting queue at accept;
        # stock policies keep the plain appends on the hot path.
        self._reorders = admission.reorders_waiting
        self._waiting_prio: Deque[int] = deque()
        self._fin: list = []  # reusable per-event scratch buffers
        self._dep: list = []

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        self._enq[record.slab * self._n + self._si] = sim.now
        if self._reorders:
            # Stable insert: higher rank first, FIFO within a rank,
            # lens kept parallel.
            rank = self.admission.priority(record)
            prio = self._waiting_prio
            idx = len(prio)
            while idx > 0 and prio[idx - 1] < rank:
                idx -= 1
            self.waiting.insert(idx, record)
            self._waiting_lens.insert(
                idx, record.decode_len or self.decode_len)
            prio.insert(idx, rank)
        else:
            self.waiting.append(record)
            self._waiting_lens.append(record.decode_len or self.decode_len)
        if not self.running:
            self.running = True
            sim.schedule_event(0.0, self._eng._k_kick, None)
        elif self._pending > self._wake_j and not (
                self._slot_greedy and len(self._live) >= self.capacity):
            # Asleep past the next boundary, and (unlike a full
            # slot-greedy batch) able to admit before the pending step.
            self._wake(sim.now)

    def _on_kick(self, sim: Simulation, _: None) -> None:
        """Handler for the idle -> running transition event."""
        self._boundary(sim)

    # simlint: hotpath
    def _on_adv(self, sim: Simulation, token: int) -> None:
        """Handler for a step-boundary advance event.

        Entries land in their bucket exactly at their precomputed
        finish-or-depart step, so every bucketed entry leaves the
        batch here; finishes resolve before departures. A pre-advance
        (negated live token) pushes the advance one step on; a
        superseded advance (stale token) does nothing.
        """
        if token != self._token:
            if token == -self._token:
                self._push(sim.now + self.step_latency, -token)
            return
        s = self._pending
        self._step_index = s
        bucket = self._buckets.pop(s, None)
        if bucket is not None:
            heapq.heappop(self._keys)  # == s: no bucket step is skipped
            self._key_t.pop(s, None)
            fin = self._fin
            dep = self._dep
            for entry in bucket:
                if s - entry[2] >= entry[1]:
                    fin.append(entry)
                else:
                    del entry[4][0]
                    dep.append(entry)
            if fin:
                live = self._live
                progress = self._progress
                track = self._track
                now = sim.now
                completion = self._completion
                on_complete = self.on_complete
                for entry in fin:
                    del live[entry[3]]
                    record = entry[0]
                    if track:
                        progress[record.request_id] = s - entry[2]
                    completion[record.slab] = now
                    on_complete(sim, record)
                del fin[:]
            if dep:
                live = self._live
                progress = self._progress
                hook = self.retrieval_hook
                for entry in dep:
                    del live[entry[3]]
                    progress[entry[0].request_id] = s - entry[2]
                    hook(sim, entry[0])
                del dep[:]
        if self.waiting or not self._live:
            self._boundary(sim)
        else:
            self._sleep(sim.now + self.step_latency, s + 1, sim.now)

    def _sleep(self, t: float, j: int, now: float) -> None:
        """Schedule the advance at the next bucketed step, chaining the
        boundary times on from step ``j`` (at ``t``) the first time
        that step is slept to; a pre-advance goes first when the
        boundary before that step lies after ``now``."""
        self._wake_t = t
        self._wake_j = j
        k = self._keys[0]
        if k > j:
            t_prev = self._key_t.get(k)
            if t_prev is None:
                step = self.step_latency
                for _ in range(k - j - 1):
                    t += step
                self._key_t[k] = t_prev = t
            if t_prev > now:
                self._push_adv(t_prev, k, pre=True)
                return
            t = t_prev + self.step_latency
        self._push_adv(t, k)

    def _wake(self, now: float) -> None:
        """Let the request that just reached decode (while the executor
        slept) join at the first boundary at or after ``now``."""
        t = self._wake_t
        j = self._wake_j
        step = self.step_latency
        while t < now:
            t += step
            j += 1
        self._wake_t = t
        self._wake_j = j
        if j >= self._pending:
            return  # the pending advance is that boundary
        if not self._greedy:
            self._push_adv(t, j)
            return
        # Greedy with a free slot: no bucket falls before the pending
        # step, so boundary j would admit this request (the only one
        # waiting) and do nothing else. Admit it there now, and bring
        # the advance forward if it is now the first to leave.
        key = self._admit(t, j, self.waiting.popleft(),
                          self._waiting_lens.popleft())
        if key < self._pending:
            self._sleep(t, j, now)

    def _push_adv(self, t: float, j: int, pre: bool = False) -> None:
        """Push the advance (or its pre-advance) for step ``j`` at time
        ``t``; its token makes any earlier advance stale."""
        token = self._token + 1
        self._token = token
        self._pending = j
        self._push(t, -token if pre else token)

    def _push(self, t: float, token: int) -> None:
        """Push an advance event straight onto the queue's heap."""
        q = self._q
        heapq.heappush(q._heap, (t, next(q._counter), self._eng._k_adv,
                                 token))

    def _remaining(self, s: int) -> List[int]:
        """Materialized remaining-token list, in admission order."""
        return [entry[1] + entry[2] - s for entry in self._live.values()]

    def _boundary(self, sim: Simulation) -> None:
        """Admit waiting work at the current step boundary and schedule
        the next advance: the next step while a queue that could be
        admitted waits, else the next bucketed step; go idle on an
        empty batch."""
        s = self._step_index
        waiting = self.waiting
        if waiting:
            lens = self._waiting_lens
            capacity = self.capacity
            if self._slot_greedy:
                admitted = capacity - len(self._live)
                if len(waiting) < admitted:
                    admitted = len(waiting)
                if admitted < 0:
                    admitted = 0
            else:
                admitted = self.admission.admit(
                    list(lens), self._remaining(s), capacity)
            now = sim.now
            if self._reorders:
                prio = self._waiting_prio
                for _ in range(admitted):
                    prio.popleft()
            for _ in range(admitted):
                self._admit(now, s, waiting.popleft(), lens.popleft())
        if not self._live:
            # Idle: with _wake_j == _pending == s, accept never wakes.
            self.running = False
            self._wake_j = s
            return
        t = sim.now + self.step_latency
        if waiting and not self._slot_greedy:
            # The policy's inputs change every step. (After a
            # slot-greedy admission, anyone still waiting means the
            # batch is full: nobody joins before a bucket frees a slot.)
            self._wake_t = t
            self._wake_j = s + 1
            self._push_adv(t, s + 1)
        else:
            self._sleep(t, s + 1, sim.now)

    def _admit(self, now: float, s: int, record: RequestRecord,
               length: int) -> int:
        if self._track:
            rid = record.request_id
            prog = self._progress.get(rid)
            if prog is None:
                prog = 0
                self._progress[rid] = 0
                if self.positions_fn is not None:
                    positions = list(self.positions_fn(record))
                else:
                    positions = []
                self._positions[rid] = positions
            else:
                positions = self._positions[rid]
        else:
            prog = 0
            positions = ()
        i = record.slab * self._n + self._si
        wait = self._wait
        prev = wait[i]
        delta = now - self._enq[i]
        wait[i] = delta if prev != prev else prev + delta
        base = s - prog
        k_evt = length - prog
        if positions:
            k_dep = positions[0] - prog
            if k_dep < 1:
                k_dep = 1
            if k_dep < k_evt:
                k_evt = k_dep
        serial = self._serial
        self._serial = serial + 1
        entry = [record, length, base, serial, positions]
        self._live[serial] = entry
        key = s + k_evt
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heapq.heappush(self._keys, key)
        else:
            bucket.append(entry)
        return key


#: A completion listener receives each finished request's record.
CompletionFn = Callable[[RequestRecord], None]


def _token_count(value: Any) -> int:
    """``value`` as a decode length in tokens.

    Integral numbers convert exactly (``64.0`` -> 64); bools and
    non-integral values (``2.7``, NaN, strings) raise instead of
    truncating silently.
    """
    if not isinstance(value, bool):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"decode_len must be an integer, got {value!r}")


class ServingEngine:
    """Incremental, resumable request-level serving simulation.

    One engine owns one :class:`Simulation` (a
    :class:`~repro.sim.fleet.FleetEngine` replica shares its fleet's
    instead) and the station network for one schedule; its lifecycle
    is explicit so callers choose the driving mode:

    * **open loop** (what :class:`~repro.sim.serving.ServingSimulator`
      does): feed a trace with :func:`submit_trace`, then :meth:`drain`
      and read :meth:`report`. The trace streams in one arrival at a
      time, so until it is drained :attr:`offered`, :attr:`records`
      and :meth:`snapshot` count only the arrivals the clock has
      reached (a fleet, which routes at submission, takes every row up
      front);
    * **incremental / live**: interleave :meth:`submit` and
      :meth:`step` as requests arrive in wall time, reading
      :meth:`snapshot` for running statistics and streaming completions
      through ``on_complete``.

    An engine is single-use: once drained (or stepped past a horizon),
    build a new one for the next run. Submissions need not arrive in
    timestamp order -- any arrival at or after the engine's current
    simulated time is schedulable -- but an arrival behind the clock
    is an out-of-order timestamp and raises
    :class:`~repro.errors.ConfigError` (the live front-end in
    :mod:`repro.serve` derives arrivals from a monotonic wall clock,
    so its streams always satisfy this).

    A fleet builds its replicas with two private keywords: ``_clock=``
    (its shared :class:`Simulation`) and ``_tally=``, a
    :class:`~repro.sim.metrics.ReplicaTally` the fleet keeps and that
    replaces the replica's own accumulator. A tally only counts, since
    the fleet's accumulator holds the reservoirs; the replica's
    :meth:`report` and :meth:`tier_counts` fold its records into a
    fresh accumulator on demand, with the same results. A standalone
    engine keeps its full :class:`~repro.sim.metrics.MetricsAccumulator`.

    Args:
        perf_model: Calibrated stage cost models.
        schedule: The deployment under test.
        dispatch: Dispatch policy for the pre-decode stations -- a
            policy instance, a registry name, or a per-stage mapping
            (deadline flush when omitted). A partial-batch deadline is
            the policy's own ``max_wait``; unset, it defaults to the
            stage's batch latency.
        admission: Decode admission policy instance or registry name
            (greedy when omitted).
        on_complete: Optional listener invoked synchronously (during
            :meth:`step`/:meth:`drain`) with each finished request's
            :class:`~repro.sim.metrics.RequestRecord`.
    """

    #: The DES kernel class. A private seam: the test-only reference
    #: engine swaps in a kernel that also runs closure events.
    _simulation = Simulation

    def __init__(self, perf_model: RAGPerfModel, schedule: Schedule,
                 dispatch: DispatchSelection = None,
                 admission: Union[None, str, AdmissionPolicy] = None,
                 on_complete: Optional[CompletionFn] = None, *,
                 _clock: Optional[Simulation] = None,
                 _tally: Optional[ReplicaTally] = None) -> None:
        self._perf_model = perf_model
        self._schedule = schedule
        self._schema = perf_model.schema
        self._servers = schedule.retrieval_servers
        if self._servers is None:
            self._servers = derive_retrieval_servers(perf_model, schedule)
        self._dispatch = dispatch
        self._admission = resolve_admission_policy(admission)
        self._listeners: List[CompletionFn] = \
            [on_complete] if on_complete is not None else []
        self._drained = False
        # A fleet runs its replicas on one shared clock (``_clock``) and
        # owns their stepping; a standalone engine owns its own.
        self._shared = _clock is not None
        self._sim = _clock if self._shared else self._simulation()
        first_kind = len(self._sim._handlers) if self._shared else 0
        self._accumulator = _tally if _tally is not None \
            else MetricsAccumulator(self._schema)
        self._stations: Dict[Stage, Any] = {}
        self._decode: Optional[Any] = None
        # Per-request timing slabs: three flat float arrays with
        # stride == number of pipeline stages, and the first-token and
        # completion columns with one float per request; NaN = never
        # touched. The records read their stage maps and times from
        # them, so they are the only store of those times.
        stages_all = tuple(pipeline_stages(self._schema))
        self._stage_slot = {stage: i
                            for i, stage in enumerate(stages_all)}
        self._nstages = len(stages_all)
        self._timings = _StageTimings(stages_all)
        self._slab_enq = self._timings.enq
        self._slab_comp = self._timings.comp
        self._slab_wait = self._timings.wait
        self._slab_first_token = self._timings.first_token
        self._slab_completion = self._timings.completion
        self._slab_pad = array("d", [math.nan]) * self._nstages
        # Requests slabbed so far: the next request's slab row, which is
        # also its request_id.
        self._slab_n = 0
        self._queue = self._sim._queue  # direct arrival pushes
        self._build()
        self._kinds = slice(first_kind, len(self._sim._handlers))

    # -- construction --------------------------------------------------

    def _stage_perf_fn(self, stage: Stage, resource_amount: int):
        plan = self._schedule.shard_plans.get(stage)
        cache: Dict[int, Any] = {}

        def perf(batch: int):
            # RAGPerfModel.perf is pure; memoizing per (stage, amount)
            # skips the plan-cache plumbing on the dispatch hot path.
            result = cache.get(batch)
            if result is None:
                result = self._perf_model.perf(stage, batch,
                                               resource_amount, plan=plan)
                cache[batch] = result
            return result

        return perf

    def _station_policy(self, stage: Stage,
                        default_wait: float) -> DispatchPolicy:
        """The stage's dispatch policy, its unset deadline filled with
        ``default_wait`` (the stage's batch latency)."""
        selection = self._dispatch
        if isinstance(selection, Mapping):
            selection = selection.get(stage)
        return resolve_dispatch_policy(selection).resolve(default_wait)

    def _build(self) -> None:
        schema = self._schema
        sim = self._sim
        self._k_arrival = sim.register_handler(self._on_arrival)
        self._k_feed = sim.register_handler(self._on_feed)
        self._k_free = sim.register_handler(_release_resource)
        self._k_complete = sim.register_handler(_complete_batch)
        self._k_flush = sim.register_handler(_flush_station)
        stages = [stage for stage in pipeline_stages(schema)
                  if stage is not Stage.DECODE]
        resources: Dict[int, _Resource] = {}
        for index, group in enumerate(self._schedule.groups):
            resources[index] = _Resource(
                name="+".join(str(s) for s in group.stages))
        retrieval_resource = _Resource("retrieval-servers")
        self._resources = [res for res in resources.values()
                           if "decode" not in res.name]
        if schema.has_retrieval:
            self._resources.append(retrieval_resource)

        # Build stations back to front so each knows its successor.
        deliver_next = self._enter_decode
        for stage in reversed(stages):
            if stage is Stage.RETRIEVAL:
                resource = retrieval_resource
                amount = self._servers
            else:
                group_index = next(
                    i for i, group in enumerate(self._schedule.groups)
                    if stage in group.stages)
                resource = resources[group_index]
                amount = self._schedule.groups[group_index].num_xpus
            batch = self._schedule.batches[stage]
            perf_fn = self._stage_perf_fn(stage, amount)
            policy = self._station_policy(stage, perf_fn(batch).latency)
            station = self._new_station(
                stage, batch, perf_fn, resource, deliver_next, policy,
                sets_first_token=stage is Stage.PREFIX)
            self._stations[stage] = station
            deliver_next = station.accept
        self._entry = deliver_next

        decode_group = next(group for group in self._schedule.groups
                            if Stage.DECODE in group.stages)
        decode_batch = self._schedule.batches[Stage.DECODE]
        decode_perf = self._perf_model.perf(Stage.DECODE, decode_batch,
                                            decode_group.num_xpus)
        step_latency = decode_perf.latency / schema.sequences.decode_len

        retrieval_hook = None
        positions_fn = None
        if schema.is_iterative:
            # Iterative retrieval + re-prefix stations: retrieval shares
            # the CPU servers with the initial retrieval; the re-prefix
            # time-multiplexes the prefix group's chips (§6.1 [III]).
            iter_batch = (self._schedule.iterative_batch
                          or self._schedule.batches[Stage.RETRIEVAL])
            prefix_index = next(
                i for i, group in enumerate(self._schedule.groups)
                if Stage.PREFIX in group.stages)
            retrieval_perf_fn = self._stage_perf_fn(Stage.RETRIEVAL,
                                                    self._servers)
            prefix_perf_fn = self._stage_perf_fn(
                Stage.PREFIX, self._schedule.groups[prefix_index].num_xpus)
            iter_prefix_policy = self._station_policy(
                Stage.PREFIX, prefix_perf_fn(iter_batch).latency)
            iter_retrieval_policy = self._station_policy(
                Stage.RETRIEVAL, retrieval_perf_fn(iter_batch).latency)
            # The re-prefix delivers straight into decode (no first-token
            # logic).
            iter_prefix = self._new_station(
                Stage.PREFIX, iter_batch, prefix_perf_fn,
                resources[prefix_index], self._enter_decode,
                iter_prefix_policy, sets_first_token=False)
            iter_retrieval = self._new_station(
                Stage.RETRIEVAL, iter_batch, retrieval_perf_fn,
                retrieval_resource, iter_prefix.accept,
                iter_retrieval_policy, sets_first_token=False)
            retrieval_hook = iter_retrieval.accept
            retrievals = schema.retrieval_frequency - 1

            def positions_fn(record: RequestRecord):
                from repro.workloads.sequences import (
                    sample_retrieval_positions,
                )
                length = record.decode_len or schema.sequences.decode_len
                count = min(retrievals, max(length - 1, 0))
                return sample_retrieval_positions(
                    length, count, seed=record.request_id)

        self._decode = self._new_decode(
            capacity=decode_batch, step_latency=step_latency,
            decode_len=schema.sequences.decode_len,
            on_complete=self._request_done, admission=self._admission,
            retrieval_hook=retrieval_hook, positions_fn=positions_fn)

    def _new_station(self, stage: Stage, batch_size: int,
                     perf_fn: Callable[[int], Any], resource: _Resource,
                     downstream: Callable[[Simulation, RequestRecord], None],
                     policy: DispatchPolicy,
                     sets_first_token: bool) -> _BatchStation:
        """One batch station of the network (a private seam the test
        reference engine overrides)."""
        return _BatchStation(stage, batch_size, perf_fn, resource, self,
                             downstream, policy, sets_first_token)

    def _new_decode(self, **knobs: Any) -> _DecodeExecutor:
        """The decode executor, with its event kinds registered (a
        private seam the test reference engine overrides)."""
        decode = _DecodeExecutor(engine=self, **knobs)
        self._k_kick = self._sim.register_handler(decode._on_kick)
        self._k_adv = self._sim.register_handler(decode._on_adv)
        return decode

    def _enter_decode(self, sim: Simulation, record: RequestRecord) -> None:
        self._decode.accept(sim, record)

    def _on_arrival(self, sim: Simulation, record: RequestRecord) -> None:
        self._entry(sim, record)

    def _on_feed(self, sim: Simulation, feed: "_Feed") -> None:
        """Handler for a streamed trace's arrival event: the row's
        request enters, and the next row's arrival is queued under its
        reserved number. Each row was checked (as :meth:`submit` checks
        an arrival) when it was queued, and still passes now: its event
        runs at ``now == arrival``, and a drain ends only after the
        queue is empty."""
        self._entry(sim, self._register(*feed.row))
        row = next(feed.rows, None)
        if row is None:
            return
        self._check_submittable(row[0])
        feed.row = row
        sequence = feed.sequence
        feed.sequence = sequence + 1
        self._queue.push_reserved(row[0], sequence, self._k_feed, feed)

    def _request_done(self, sim: Simulation, record: RequestRecord) -> None:
        # Finished records are immutable from here on, so reports and
        # memos share them instead of copying (record.seal(), inlined).
        record.__class__ = _SealedRecord
        self._accumulator.finish(record)
        for listener in self._listeners:
            listener(record)

    # -- lifecycle -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._sim.now

    @property
    def offered(self) -> int:
        """Requests submitted so far."""
        return self._accumulator.offered

    @property
    def completed(self) -> int:
        """Requests finished so far."""
        return self._accumulator.completed

    @property
    def in_flight(self) -> int:
        """Submitted but unfinished requests."""
        return self.offered - self.completed

    def tier_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-tier offered/completed counts so far (empty when the
        traffic carries no identity)."""
        return self._accumulator.tier_counts()

    @property
    def events_processed(self) -> int:
        """DES events this engine executed so far (the bench harness's
        numerator; exact per replica on a fleet's shared clock)."""
        return sum(self._sim._counts[self._kinds])

    @property
    def clock(self) -> Simulation:
        """The :class:`Simulation` this engine runs on (a fleet's
        replicas share one)."""
        return self._sim

    @property
    def records(self) -> Tuple[RequestRecord, ...]:
        """All submitted records, in submission order (finished ones
        sealed, unfinished ones still live)."""
        return self._accumulator.records

    @property
    def schema(self):
        """The workload schema this engine serves."""
        return self._schema

    @property
    def schedule(self) -> Schedule:
        """The deployment under test."""
        return self._schedule

    def add_listener(self, listener: CompletionFn) -> None:
        """Subscribe an additional completion listener."""
        self._listeners.append(listener)

    def submit(self, arrival: float, decode_len: Optional[int] = None,
               *, user_id: Optional[str] = None,
               session_id: Optional[str] = None,
               tier: Optional[str] = None) -> RequestRecord:
        """Inject one request at simulated time ``arrival``.

        Args:
            arrival: Arrival timestamp in simulated seconds. Must be
                finite, non-negative, and at or after the engine's
                current time (submissions need not be sorted among
                themselves -- reports account for the earliest arrival
                regardless of submission order).
            decode_len: Tokens this request generates (the workload
                profile's decode length when None).
            user_id / session_id / tier: Optional identity carried by
                multi-user workloads; rides the record into tier-aware
                admission and per-tier reporting. Anonymous submissions
                leave all three None.

        Returns:
            The request's live :class:`RequestRecord` (its fields fill
            in as the simulation advances).

        Raises:
            ConfigError: on a non-numeric or bool arrival, a timestamp
                behind the engine's clock, a bool, non-integral, or
                non-positive decode length, or an engine that has
                already been drained (single-use lifecycle).
        """
        self._check_submittable(arrival)
        record = self._register(arrival, decode_len, user_id,
                                session_id, tier)
        # Inline schedule_event_at(arrival, ...): arrival >= now was
        # checked, and fleet callers submit whole traces, so the call
        # layers matter.
        q = self._queue
        heapq.heappush(q._heap, (arrival, next(q._counter),
                                 self._k_arrival, record))
        return record

    def _check_submittable(self, arrival: Any) -> None:
        """Refuse a drained engine, and an arrival that is not a finite
        non-negative number at or after the clock."""
        if self._drained:
            raise ConfigError(
                "engine already drained; a ServingEngine is single-use "
                "-- build a new engine for the next run")
        if isinstance(arrival, bool) \
                or not isinstance(arrival, (int, float)) \
                or not math.isfinite(arrival):
            raise ConfigError(
                f"arrival must be a finite number, got {arrival!r}")
        if arrival < 0:
            raise ConfigError("arrival times must be non-negative")
        if arrival < self._sim.now:
            raise ConfigError(
                f"out-of-order timestamp: arrival {arrival} is in the "
                f"engine's past (simulated time {self._sim.now})")

    def _register(self, arrival: float, decode_len: Optional[int],
                  user_id: Optional[str], session_id: Optional[str],
                  tier: Optional[str]) -> RequestRecord:
        """Register the record of one request whose arrival
        :meth:`_check_submittable` passed: check its decode length (see
        :meth:`submit`) and give it its row in the timing slabs."""
        if decode_len is None:
            decode_len = self._schema.sequences.decode_len
        elif type(decode_len) is not int:
            decode_len = _token_count(decode_len)
        if decode_len <= 0:
            raise ConfigError("decode lengths must be positive")
        # request_id and slab start as one int: the slab row is
        # engine-local, and a fleet rewrites request_id to the
        # fleet-wide arrival index after submission.
        slab = self._slab_n
        record = RequestRecord(request_id=slab, arrival=arrival,
                               decode_len=decode_len,
                               user_id=user_id, session_id=session_id,
                               tier=tier, slab=slab)
        record._timings = self._timings
        self._accumulator.add(record)
        self._slab_n = slab + 1
        pad = self._slab_pad
        self._slab_enq.extend(pad)
        self._slab_comp.extend(pad)
        self._slab_wait.extend(pad)
        self._slab_first_token.append(math.nan)
        self._slab_completion.append(math.nan)
        return record

    def _stream(self, trace: RequestTrace) -> None:
        """Queue ``trace``'s first arrival as a streamed feed (see
        :func:`submit_trace`): its first row is checked here, each row
        enters when its arrival event runs, and the next row is queued
        then."""
        rows = trace.rows()
        row = next(rows)  # a trace holds at least one request
        self._check_submittable(row[0])
        queue = self._queue
        first = queue.reserve(trace.num_requests)
        feed = _Feed(rows, row, first + 1)
        queue.push_reserved(row[0], first, self._k_feed, feed)

    def step(self, until: float) -> float:
        """Advance simulated time to ``until``, processing due events.

        Events scheduled past ``until`` stay queued (in order), so
        stepping is resumable; completions fire listeners synchronously.

        Returns:
            The engine's simulated time after the step (``until``).

        Raises:
            ConfigError: when stepping backwards, or on a fleet replica
                (step the fleet, which owns the shared clock).
        """
        self._check_standalone("step")
        if until < self._sim.now:
            raise ConfigError("cannot step backwards in time")
        self._sim.run(until=until)
        return self._sim.now

    def next_event_time(self) -> Optional[float]:
        """The earliest timestamp queued on this engine's clock, or None
        when nothing is queued (on a fleet replica: the whole fleet's
        next event)."""
        queue = self._sim._queue
        return queue.peek_time() if queue else None

    def drain(self) -> float:
        """Run the network empty: process every remaining event.

        After a drain the engine is spent: further :meth:`submit` calls
        raise :class:`~repro.errors.ConfigError` (the documented
        single-use lifecycle, previously corrupted silently). A fleet
        replica refuses to drain: it would run every replica's events
        and seal a slot the fleet still routes to.

        Returns:
            The simulated time of the last event.
        """
        self._check_standalone("drain")
        self._sim.run()
        self._drained = True
        return self._sim.now

    def _check_standalone(self, action: str) -> None:
        """Refuse to advance a fleet replica's shared clock directly."""
        if self._shared:
            raise ConfigError(
                f"cannot {action} a FleetEngine replica directly: it "
                f"runs on the fleet's shared clock; {action} the fleet")

    # -- results -------------------------------------------------------

    def busy_times(self) -> Dict[str, float]:
        """Accumulated busy seconds per pre-decode resource name."""
        return {resource.name: resource.busy_time
                for resource in self._resources}

    def snapshot(self) -> LiveSnapshot:
        """Running statistics at the engine's current time (O(1))."""
        return self._accumulator.snapshot(self._sim.now)

    def report(self, trace: RequestTrace,
               slo: Optional[SLOTarget] = None) -> ServingReport:
        """The trace-level :class:`ServingReport` for this run.

        Args:
            trace: The traffic that was (or would be) replayed; supplies
                scenario name and metadata. Use :meth:`recorded_trace`
                for a live run.
            slo: Latency targets (unconstrained when None).
        """
        return self._accumulator.report(trace, slo or SLOTarget(),
                                        self.busy_times())

    def recorded_trace(self, **metadata) -> RequestTrace:
        """The submissions observed so far, as a replayable trace
        (arrival-ordered; see
        :meth:`~repro.sim.metrics.MetricsAccumulator.recorded_trace`)."""
        return self._accumulator.recorded_trace(**metadata)


class _Feed:
    """A trace streaming into one engine: the rows still to come, the
    row whose arrival event is queued, and the sequence number reserved
    for the next row."""

    __slots__ = ("rows", "row", "sequence")

    def __init__(self, rows: Any, row: Tuple, sequence: int) -> None:
        self.rows = rows
        self.row = row
        self.sequence = sequence


def submit_trace(target: Any, trace: RequestTrace) -> None:
    """Open-loop feed: submit every request of ``trace`` to ``target``.

    The one open-loop feeder behind every replay. ``target`` is a
    :class:`ServingEngine` or a :class:`~repro.sim.fleet.FleetEngine`
    (the same ``submit`` surface); each request's decode length and
    identity (user, session, tier) ride along, so per-tier reports and
    session-affine routing see the trace's users. The caller drains or
    steps the target afterwards.

    A standalone engine **streams** the trace: only one arrival event
    is queued at a time, and its handler builds that row's record
    (running every check :meth:`ServingEngine.submit` runs) and then
    queues the next row. The N rows take the N queue sequence numbers
    reserved here, row ``i`` at ``(arrival_i, first + i)``, so every
    same-time tie breaks exactly as N up-front submissions would break
    it, events already queued included, and the event count is the
    same. A row's record exists only once its arrival event has run:
    until the trace is drained, the engine's ``offered``, ``records``
    and :meth:`~ServingEngine.snapshot` count only the arrivals so far,
    and a bad row raises from the :meth:`~ServingEngine.step` or
    :meth:`~ServingEngine.drain` that reaches it. The first row's
    arrival and a drained engine are checked here, before anything is
    queued.

    A fleet (and a fleet's replica) gets one ``submit`` per row, up
    front: a fleet routes each request when it is submitted, and its
    static replays are defined by that up-front routing (routing on
    live state would be a control event of its own).
    """
    if isinstance(target, ServingEngine) and not target._shared:
        target._stream(trace)
        return
    submit = target.submit
    for arrival, decode_len, user_id, session_id, tier in trace.rows():
        submit(arrival, decode_len=decode_len, user_id=user_id,
               session_id=session_id, tier=tier)
