"""Test-only reference engine: the closure-per-event serving network.

:class:`ReferenceServingEngine` is a
:class:`~repro.sim.engine.ServingEngine` whose batch stations and
decode executor are the straightforward implementations below: every
resource free, batch completion, flush, and decode step is a fresh
closure scheduled on the engine's kernel, per-request bookkeeping
(per-stage times, first-token and completion time) goes into
per-request dicts and lists the reference engine keeps itself (handed
to each record once, when it finishes), and every decode step is one
advance event that walks the whole running batch. It shares the
engine's topology, arrivals, and reporting, so
``tests/test_sim_hotpath_parity.py`` can pin the shipping slab engine
to bit-identical reports, busy times and per-record lifecycles against
it.

The shipping decode executor schedules an advance only at steps where
something can happen, so its event count is lower by design;
:func:`per_step_events` restates it in the reference's
one-advance-per-step terms, which must match exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.schema import Stage
from repro.sim.engine import ServingEngine, Simulation, _Resource
from repro.sim.metrics import RequestRecord
from repro.sim.policies import AdmissionPolicy, DispatchPolicy

#: An event callback receives the simulation so it can schedule more.
EventFn = Callable[[Simulation], None]

#: One request's per-stage (enqueue, completion, queue-wait) dicts and
#: its ``[first_token_time, completion_time]`` (None until reached).
RequestTimes = Tuple[Dict[Stage, float], Dict[Stage, float],
                     Dict[Stage, float], List[Optional[float]]]


def _run_callback(sim: Simulation, callback: EventFn) -> None:
    """Handler for closure events: the payload is the event."""
    callback(sim)


class _ClosureSimulation(Simulation):
    """The DES kernel plus the closure API the reference network uses.

    :meth:`schedule` files the callback under an event kind this
    simulation registers for :func:`_run_callback`, so closures and the
    engine's own kind-dispatched events share one queue and one
    insertion-order tie break.
    """

    def __init__(self) -> None:
        super().__init__()
        self._k_callback = self.register_handler(_run_callback)

    def schedule(self, delay: float, callback: EventFn) -> None:
        """Schedule a callback ``delay`` seconds from now."""
        self.schedule_event(delay, self._k_callback, callback)


class _BatchStation:
    """One pipeline stage batching requests on a shared resource.

    A batch occupies the resource for its *initiation interval*
    (``batch / throughput``): pipeline-parallel prefill overlaps
    consecutive batches, so the resource frees before the batch's full
    latency has elapsed; results are delivered at the latency.

    When to fire and how much to take are delegated to a
    :class:`~repro.sim.policies.DispatchPolicy` (already resolved
    against this stage's default deadline).
    """

    def __init__(self, stage: Stage, batch_size: int,
                 perf_fn: Callable[[int], "object"], resource: _Resource,
                 deliver: Callable[[Simulation, RequestRecord], None],
                 policy: DispatchPolicy,
                 times: Callable[[RequestRecord], RequestTimes]) -> None:
        self.stage = stage
        self.batch_size = batch_size
        self.perf_fn = perf_fn
        self.resource = resource
        self.deliver = deliver
        self.policy = policy
        self.times = times
        self.queue: List[RequestRecord] = []
        self._oldest_enqueue: Optional[float] = None
        self._flush_scheduled = False
        resource.stations.append(self)

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        self.queue.append(record)
        self.times(record)[0][self.stage] = sim.now
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
                sim.schedule(max(delay, 0.0), self._flush)

    def _flush(self, sim: Simulation) -> None:
        # Force-dispatch the partial batch (float rounding must not turn
        # the staleness check into a zero-delay reschedule loop).
        self._flush_scheduled = False
        if not self.resource.busy and self.queue:
            self._dispatch(sim, self.policy.flush_take(len(self.queue),
                                                       self.batch_size))

    def _dispatch(self, sim: Simulation, take: int) -> None:
        batch = self.queue[:take]
        del self.queue[:take]
        for record in batch:
            enqueues, _, waits, _ = self.times(record)
            enqueued = enqueues.get(self.stage, sim.now)
            waits[self.stage] = \
                waits.get(self.stage, 0.0) + (sim.now - enqueued)
        self._oldest_enqueue = sim.now if self.queue else None
        self.resource.busy = True
        perf = self.perf_fn(take)
        latency = perf.latency
        occupancy = min(take / perf.request_qps, latency)
        self.resource.busy_time += occupancy

        def free(sim_: Simulation) -> None:
            self.resource.release(sim_)

        def complete(sim_: Simulation, batch_=batch) -> None:
            for record in batch_:
                self.times(record)[1][self.stage] = sim_.now
            for record in batch_:
                self.deliver(sim_, record)

        sim.schedule(occupancy, free)
        sim.schedule(latency, complete)


class _DecodeExecutor:
    """Continuous-batching decode: sequences join at step boundaries and
    leave after their own decode length (variable-length requests mix in
    the batch, which is why the paper reports worst-case TPOT).

    *Who* joins at a step boundary is the
    :class:`~repro.sim.policies.AdmissionPolicy`'s call.

    For iterative schemas (Case III), a sequence that hits one of its
    retrieval positions leaves the batch through ``retrieval_hook`` (to
    the retrieval + re-prefix stations) and re-joins via :meth:`accept`
    when the new context has been integrated.
    """

    def __init__(self, capacity: int, step_latency: float, decode_len: int,
                 on_complete: Callable[[Simulation, RequestRecord], None],
                 admission: AdmissionPolicy,
                 times: Callable[[RequestRecord], RequestTimes],
                 retrieval_hook: Optional[
                     Callable[[Simulation, RequestRecord], None]] = None,
                 positions_fn: Optional[
                     Callable[[RequestRecord], List[int]]] = None) -> None:
        self.capacity = capacity
        self.step_latency = step_latency
        self.decode_len = decode_len
        self.on_complete = on_complete
        self.admission = admission
        self.retrieval_hook = retrieval_hook
        self.positions_fn = positions_fn
        self.times = times
        self.waiting: List[RequestRecord] = []
        self.remaining: List[List] = []  # [record, target]
        self.running = False
        self._progress: Dict[int, int] = {}
        self._positions: Dict[int, List[int]] = {}
        # Priority-aware policies reorder the waiting queue at accept;
        # stock policies keep the exact historical append (bit-identity
        # with pre-priority traces).
        self._reorders = admission.reorders_waiting
        self._waiting_prio: List[int] = []

    def accept(self, sim: Simulation, record: RequestRecord) -> None:
        if self._reorders:
            # Stable insert: higher rank first, FIFO within a rank.
            rank = self.admission.priority(record)
            prio = self._waiting_prio
            idx = len(prio)
            while idx > 0 and prio[idx - 1] < rank:
                idx -= 1
            self.waiting.insert(idx, record)
            prio.insert(idx, rank)
        else:
            self.waiting.append(record)
        self.times(record)[0][Stage.DECODE] = sim.now
        if not self.running:
            self.running = True
            sim.schedule(0.0, self._step)

    def _admit(self, now: float, record: RequestRecord) -> None:
        if record.request_id not in self._progress:
            self._progress[record.request_id] = 0
            if self.positions_fn is not None:
                self._positions[record.request_id] = list(
                    self.positions_fn(record))
            else:
                self._positions[record.request_id] = []
        enqueues, _, waits, _ = self.times(record)
        enqueued = enqueues.get(Stage.DECODE, now)
        waits[Stage.DECODE] = \
            waits.get(Stage.DECODE, 0.0) + (now - enqueued)
        target = record.decode_len or self.decode_len
        self.remaining.append([record, target])

    def _step(self, sim: Simulation) -> None:
        # Admit new sequences per the admission policy.
        if self.waiting:
            admitted = self.admission.admit(
                [record.decode_len or self.decode_len
                 for record in self.waiting],
                [entry[1] - self._progress[entry[0].request_id]
                 for entry in self.remaining],
                self.capacity)
            if self._reorders:
                del self._waiting_prio[:admitted]
            for _ in range(admitted):
                self._admit(sim.now, self.waiting.pop(0))
        if not self.remaining:
            self.running = False
            return

        def advance(sim_: Simulation) -> None:
            finished = []
            departing = []
            for entry in self.remaining:
                record = entry[0]
                self._progress[record.request_id] += 1
                done = self._progress[record.request_id]
                if done >= entry[1]:
                    finished.append(entry)
                    continue
                positions = self._positions[record.request_id]
                if positions and done >= positions[0]:
                    positions.pop(0)
                    departing.append(entry)
            for entry in finished:
                self.remaining.remove(entry)
                self.times(entry[0])[3][1] = sim_.now
                self.on_complete(sim_, entry[0])
            for entry in departing:
                self.remaining.remove(entry)
                self.retrieval_hook(sim_, entry[0])
            self._step(sim_)

        sim.schedule(self.step_latency, advance)



def _first_token_deliver(downstream, times):
    """Wrap the prefix station's delivery to stamp the first token."""

    def deliver(sim: Simulation, record: RequestRecord) -> None:
        lifecycle = times(record)[3]
        if lifecycle[0] is None:
            lifecycle[0] = sim.now
        downstream(sim, record)

    return deliver


def per_step_events(engine: ServingEngine) -> int:
    """``engine``'s event count with its advance events replaced by the
    decode steps they crossed: the reference engine's event count for
    the same run (one advance closure per decode step)."""
    advances = engine.clock._counts[engine._k_adv]
    return engine.events_processed - advances + engine._decode._step_index


class ReferenceServingEngine(ServingEngine):
    """:class:`ServingEngine` wired with the closure-per-event network.

    It keeps each in-flight request's per-stage times in dicts of its
    own, and its first-token and completion time in a list, keyed by
    the record's ``slab``. It hands all five to the record once, at
    completion, through the record's one-row timing holder, so the
    engine's own timing columns stay NaN for its records.
    """

    _simulation = _ClosureSimulation

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._stage_times: Dict[int, RequestTimes] = {}
        super().__init__(*args, **kwargs)

    def _times(self, record: RequestRecord) -> RequestTimes:
        times = self._stage_times.get(record.slab)
        if times is None:
            times = self._stage_times[record.slab] = ({}, {}, {},
                                                      [None, None])
        return times

    def _new_station(self, stage, batch_size, perf_fn, resource, downstream,
                     policy, sets_first_token):
        deliver = _first_token_deliver(downstream, self._times) \
            if sets_first_token else downstream
        return _BatchStation(stage=stage, batch_size=batch_size,
                             perf_fn=perf_fn, resource=resource,
                             deliver=deliver, policy=policy,
                             times=self._times)

    def _new_decode(self, **knobs: Any) -> "_DecodeExecutor":
        return _DecodeExecutor(times=self._times, **knobs)

    def _request_done(self, sim: Simulation, record: RequestRecord) -> None:
        enqueues, completions, waits, (first_token, completion) = \
            self._stage_times.pop(record.slab)
        record._hold_stage_times(enqueues, completions, waits, first_token,
                                 completion)
        super()._request_done(sim, record)
